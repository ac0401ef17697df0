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
broadcast over both.  rule() maps each op of the expression language to
its rule and checks nothing.  Walking one exprlang.Tape, eval_jet applies
it to one point with math and raises; eval_tape applies it to a batch
with numpy and masks the rows.  Both ask outside() for the domain and
test the result for finiteness, eval_jet through finite().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import JetDomainError

# Denominators at or below this magnitude raise instead of overflowing.
DENOM_FLOOR = 1e-300
# The functions of the expression language.
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "ln", "sqrt")
_CHECK_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "mul"}


def finite(op: str, jet: Jet2) -> Jet2:
    """jet, if the value and derivatives of this one point are finite.

    The error names op, or for + - * / the rule that failed: add, sub or
    mul (a quotient is a product with the reciprocal).
    """
    # Python floats: a quarter of the cost of np.isfinite on four entries
    if not math.isfinite(jet.value):
        problem = "is undefined" if math.isnan(jet.value) else "overflows"
    elif not all(map(math.isfinite, jet.grad.tolist())):
        problem = "overflows in its gradient"
    elif not all(map(math.isfinite, jet.hess.ravel().tolist())):
        problem = "overflows in its Hessian"
    else:
        return jet
    raise JetDomainError(_CHECK_NAMES.get(op, op), jet.value, problem)


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


# --- The rules, for one point or a batch ------------------------------------

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


def power(a: Jet2, c: float) -> Jet2:
    """a**c for a constant float c, which stays a float in every term."""
    x = a.value
    d1 = 0.0 if c == 0.0 else c * x ** (c - 1.0)
    cc = c * (c - 1.0)
    if math.isfinite(cc):
        d2 = 0.0 if cc == 0.0 else cc * x ** (c - 2.0)
    else:  # |c| > 1.3e154: inf times x**(c-2) = 0 would be NaN
        d2 = c * ((c - 1.0) * x ** (c - 2.0))
    return chain(a, x**c, d1, d2)


def rule(op: str, a: Jet2, b: Jet2 | None, c: float, lib) -> Jet2:
    """The jet of tape op applied to a, or to a and b, unchecked.

    op is one of + - * / (b the right operand), "neg", "pow" with the
    constant exponent c, or one of FUNCTIONS, whose values lib (math for
    a point, numpy for a batch) supplies.
    """
    if op == "+":
        return Jet2(a.value + b.value, a.grad + b.grad, a.hess + b.hess)
    if op == "-":
        return Jet2(a.value - b.value, a.grad - b.grad, a.hess - b.hess)
    if op == "*":
        return mul(a, b)
    if op == "/":
        return mul(a, reciprocal(b))
    if op == "pow":
        return power(a, c)
    if op == "neg":
        return Jet2(-a.value, -a.grad, -a.hess)
    x = a.value
    if op in ("sin", "cos"):
        return trig(op, a, lib.sin(x), lib.cos(x))
    if op == "tan":
        t = lib.tan(x)
        sec2 = 1.0 + t * t
        return chain(a, t, sec2, 2.0 * t * sec2)
    if op in ("sinh", "cosh"):
        s, co = lib.sinh(x), lib.cosh(x)
        return chain(a, s, co, s) if op == "sinh" else chain(a, co, s, co)
    if op == "tanh":
        t = lib.tanh(x)
        sech2 = 1.0 - t * t
        return chain(a, t, sech2, -2.0 * t * sech2)
    if op == "exp":
        e = lib.exp(x)
        return chain(a, e, e, e)
    if op == "ln":
        inv = 1.0 / x
        return chain(a, lib.log(x), inv, -inv * inv)
    if op == "sqrt":
        root = lib.sqrt(x)
        d1 = 0.5 / root
        return chain(a, root, d1, -0.5 * d1 / x)  # not root * x: that is 0 below x = 1e-216
    raise ValueError(f"unknown op {op!r}")


def trig(op: str, a: Jet2, s, co) -> Jet2:
    """sin(a) or cos(a), from s = sin(a.value) and co = cos(a.value)."""
    return chain(a, s, co, -s) if op == "sin" else chain(a, co, -s, -co)


# The ops with a restricted domain, the only ones outside() tests
RESTRICTED = ("/", "ln", "sqrt", "pow")


def outside(op: str, a: Jet2, b: Jet2 | None, c: float):
    """Whether the operands of tape op are outside its domain, row by row for a batch.

    A quotient needs a denominator b above DENOM_FLOOR in magnitude.
    Integer powers accept any base a, nonzero for negative exponents c;
    fractional powers, ln and sqrt need a positive one; every op not in
    RESTRICTED accepts any operand.
    """
    if op not in RESTRICTED:
        return False
    if op == "/":
        return abs(b.value) <= DENOM_FLOOR
    x = a.value
    if op == "pow" and c.is_integer():
        return (x == 0.0) & (c < 0.0)
    return x <= 0.0
