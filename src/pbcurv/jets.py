"""Order-2 jets in two parameters: exact values, gradients and Hessians.

A Jet2 carries the truncated Taylor data (f, grad f, Hess f) of a scalar
function of two parameters at one point.  Arithmetic and elementary
functions propagate that data exactly (Leibniz and chain rules), so no
finite differencing enters any derivative used downstream.  Jet1 is the
order-1 truncation; it is what a Poisson bracket of two Jet2 values can
still support, and it carries densities with their gradients.

Each rule is written once, for one point or for a batch.  A point holds a
float value, a (2,) gradient and a (2, 2) Hessian; a batch of N points
puts N last: (N,), (2, N) and (2, 2, N), so the same expressions
broadcast over both.  The rules check nothing.  Jet2's operators, call
and pow_const raise for one point; exprlang.eval_tape masks the rows of
a batch.  Both ask outside() for the domain and test the result for
finiteness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import JetDivisionByZero, JetDomainError

# Denominators at or below this magnitude raise instead of overflowing.
DENOM_FLOOR = 1e-300
# The functions of the expression language.
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "ln", "sqrt")


def _finite(op: str, jet: Jet2) -> Jet2:
    """jet, if the value and derivatives of this one point are finite."""
    if not math.isfinite(jet.value):
        raise JetDomainError(op, jet.value, "is undefined" if math.isnan(jet.value) else "overflows")
    for part, arr in (("gradient", jet.grad), ("Hessian", jet.hess)):
        # Python floats: a quarter of the cost of np.isfinite on four entries
        if not all(map(math.isfinite, arr.ravel().tolist())):
            raise JetDomainError(op, jet.value, f"overflows in its {part}")
    return jet


@dataclass(eq=False)
class Jet1:
    """Value and first partials with respect to the two parameters."""

    value: float
    grad: np.ndarray

    @staticmethod
    def constant(c: float) -> Jet1:
        return Jet1(float(c), np.zeros(2))


def sqrt_abs_rows(value: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-1 jets of sqrt(|a|) for N jets a: value (N,), gradient (N, 2).

    Rows with |a| at or below DENOM_FLOOR have no finite gradient; the
    caller flags them.
    """
    root = np.sqrt(np.abs(value))
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0: flagged, not warned about
        return root, np.copysign(0.5, value)[:, None] * grad / root[:, None]


@dataclass(eq=False)
class Jet2:
    """Order-2 jet: value, gradient (2,) and symmetric Hessian (2, 2), or a batch."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(c: float) -> Jet2:
        return Jet2(float(c), np.zeros(2), np.zeros((2, 2)))

    @staticmethod
    def variable(which: int, at: tuple[float, float]) -> Jet2:
        """Seed parameter number `which` (1 or 2) at the point `at`."""
        if which not in (1, 2):
            raise ValueError(f"parameter index must be 1 or 2, got {which}")
        grad = np.zeros(2)
        grad[which - 1] = 1.0
        return Jet2(float(at[which - 1]), grad, np.zeros((2, 2)))

    def lower(self) -> Jet1:
        """Truncate to order 1."""
        return Jet1(self.value, self.grad.copy())

    def _coerce(self, other: Jet2 | float | int) -> Jet2:
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other)

    def __add__(self, other: Jet2 | float | int) -> Jet2:
        return _finite("add", add(self, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other: Jet2 | float | int) -> Jet2:
        return _finite("sub", sub(self, self._coerce(other)))

    def __rsub__(self, other: float | int) -> Jet2:
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Jet2 | float | int) -> Jet2:
        return _finite("mul", mul(self, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: Jet2 | float | int) -> Jet2:
        o = self._coerce(other)
        if outside("/", o.value):
            raise JetDivisionByZero(o.value)
        return self.__mul__(reciprocal(o))

    def __rtruediv__(self, other: float | int) -> Jet2:
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> Jet2:
        return Jet2(-self.value, -self.grad, -self.hess)


# --- The rules, for one point or a batch ------------------------------------

def add(a: Jet2, b: Jet2) -> Jet2:
    return Jet2(a.value + b.value, a.grad + b.grad, a.hess + b.hess)


def sub(a: Jet2, b: Jet2) -> Jet2:
    return Jet2(a.value - b.value, a.grad - b.grad, a.hess - b.hess)


def mul(a: Jet2, b: Jet2) -> Jet2:
    cross = a.grad[:, None] * b.grad  # np.outer at half its cost, and its batch form
    return Jet2(
        a.value * b.value,
        a.value * b.grad + b.value * a.grad,
        a.value * b.hess + b.value * a.hess + cross + cross.swapaxes(0, 1),
    )


def reciprocal(a: Jet2) -> Jet2:
    inv = 1.0 / a.value
    outer = a.grad[:, None] * a.grad
    return Jet2(inv, -a.grad * inv * inv, -a.hess * inv * inv + 2.0 * outer * inv**3)


def chain(a: Jet2, value, d1, d2) -> Jet2:
    """f(a) from f and its first two derivatives at a.value."""
    return Jet2(value, d1 * a.grad, d1 * a.hess + d2 * (a.grad[:, None] * a.grad))


def elementary(fn: str, a: Jet2, lib) -> Jet2:
    """fn(a) for fn in FUNCTIONS; lib (math or numpy) supplies sin, exp, log, ..."""
    x = a.value
    if fn in ("sin", "cos"):
        s, c = lib.sin(x), lib.cos(x)
        return chain(a, s, c, -s) if fn == "sin" else chain(a, c, -s, -c)
    if fn == "tan":
        t = lib.tan(x)
        sec2 = 1.0 + t * t
        return chain(a, t, sec2, 2.0 * t * sec2)
    if fn in ("sinh", "cosh"):
        s, c = lib.sinh(x), lib.cosh(x)
        return chain(a, s, c, s) if fn == "sinh" else chain(a, c, s, c)
    if fn == "tanh":
        t = lib.tanh(x)
        sech2 = 1.0 - t * t
        return chain(a, t, sech2, -2.0 * t * sech2)
    if fn == "exp":
        e = lib.exp(x)
        return chain(a, e, e, e)
    if fn == "ln":
        inv = 1.0 / x
        return chain(a, lib.log(x), inv, -inv * inv)
    if fn == "sqrt":
        root = lib.sqrt(x)
        d1 = 0.5 / root
        return chain(a, root, d1, -0.5 * d1 / x)  # not root * x: that is 0 below x = 1e-216
    raise ValueError(f"unknown function {fn!r}")


def power(a: Jet2, c: float) -> Jet2:
    """a**c for a constant float c, which stays a float in every term."""
    x = a.value
    d1 = 0.0 if c == 0.0 else c * x ** (c - 1.0)
    d2 = 0.0 if c * (c - 1.0) == 0.0 else c * (c - 1.0) * x ** (c - 2.0)
    return chain(a, x**c, d1, d2)


def outside(fn: str, x, c: float = 0.0):
    """Whether x is outside the domain of fn, row by row for a batch.

    fn is one of FUNCTIONS, "pow" with the exponent c, or "/" with x the
    denominator.  Integer powers accept any base, nonzero for negative
    exponents; fractional powers, ln and sqrt need a positive one.
    """
    if fn == "/":
        return abs(x) <= DENOM_FLOOR
    if fn == "pow" and c.is_integer():
        return (x == 0.0) & (c < 0.0)
    return x <= 0.0 if fn in ("ln", "sqrt", "pow") else False


# --- One point ---------------------------------------------------------------

def call(fn: str, a: Jet2) -> Jet2:
    """fn(a) at one point, for fn in FUNCTIONS."""
    if outside(fn, a.value):
        raise JetDomainError(fn, a.value)
    return _finite(fn, elementary(fn, a, math))


def pow_const(a: Jet2, exponent: float) -> Jet2:
    """a**c at one point, for a constant exponent c."""
    c = float(exponent)
    if outside("pow", a.value, c):
        raise JetDomainError("pow", a.value)
    return _finite("pow", power(a, c))


# jets.sin(a) is call("sin", a), and so on.
sin, cos, tan, sinh, cosh, tanh, exp, ln, sqrt = (functools.partial(call, fn) for fn in FUNCTIONS)
