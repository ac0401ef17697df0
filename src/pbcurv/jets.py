"""Order-2 jets in two parameters: exact values, gradients and Hessians.

A Jet2 carries the truncated Taylor data (f, grad f, Hess f) of a scalar
function of two parameters at one point.  Arithmetic and elementary
functions propagate that data exactly (Leibniz and chain rules), so no
finite differencing enters any derivative used downstream.  Jet1 is the
order-1 truncation; it is what a Poisson bracket of two Jet2 values can
still support, and it carries densities with their gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import JetDivisionByZero, JetDomainError

# Denominators at or below this magnitude raise instead of overflowing.
DENOM_FLOOR = 1e-300


def _check_finite(op: str, value: float, grad: np.ndarray, hess: np.ndarray) -> None:
    if not math.isfinite(value):
        raise JetDomainError(op, value, "is undefined" if math.isnan(value) else "overflows")
    for part, arr in (("gradient", grad), ("Hessian", hess)):
        # Python floats: a quarter of the cost of np.isfinite on four entries
        if not all(map(math.isfinite, arr.ravel().tolist())):
            raise JetDomainError(op, value, f"overflows in its {part}")


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
    """Order-2 jet: value, gradient (2,) and symmetric Hessian (2, 2)."""

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
        o = self._coerce(other)
        out = Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)
        _check_finite("add", out.value, out.grad, out.hess)
        return out

    __radd__ = __add__

    def __sub__(self, other: Jet2 | float | int) -> Jet2:
        o = self._coerce(other)
        out = Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)
        _check_finite("sub", out.value, out.grad, out.hess)
        return out

    def __rsub__(self, other: float | int) -> Jet2:
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Jet2 | float | int) -> Jet2:
        o = self._coerce(other)
        cross = self.grad[:, None] * o.grad  # np.outer, at half its cost
        out = Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + cross + cross.T,
        )
        _check_finite("mul", out.value, out.grad, out.hess)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Jet2 | float | int) -> Jet2:
        o = self._coerce(other)
        if abs(o.value) <= DENOM_FLOOR:
            raise JetDivisionByZero(o.value)
        inv_v = 1.0 / o.value
        inv_grad = -o.grad * inv_v * inv_v
        outer = o.grad[:, None] * o.grad
        inv_hess = -o.hess * inv_v * inv_v + 2.0 * outer * inv_v**3
        return self.__mul__(Jet2(inv_v, inv_grad, inv_hess))

    def __rtruediv__(self, other: float | int) -> Jet2:
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> Jet2:
        return Jet2(-self.value, -self.grad, -self.hess)


def _chain(fn: str, a: Jet2, value: float, d1: float, d2: float) -> Jet2:
    """Compose a scalar function with jet a given its derivatives at a.value."""
    out = Jet2(
        value,
        d1 * a.grad,
        d1 * a.hess + d2 * (a.grad[:, None] * a.grad),
    )
    _check_finite(fn, out.value, out.grad, out.hess)
    return out


def sin(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _chain("sin", a, s, c, -s)


def cos(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _chain("cos", a, c, -s, -c)


def tan(a: Jet2) -> Jet2:
    t = math.tan(a.value)
    sec2 = 1.0 + t * t
    return _chain("tan", a, t, sec2, 2.0 * t * sec2)


def sinh(a: Jet2) -> Jet2:
    return _chain("sinh", a, math.sinh(a.value), math.cosh(a.value), math.sinh(a.value))


def cosh(a: Jet2) -> Jet2:
    return _chain("cosh", a, math.cosh(a.value), math.sinh(a.value), math.cosh(a.value))


def tanh(a: Jet2) -> Jet2:
    t = math.tanh(a.value)
    sech2 = 1.0 - t * t
    return _chain("tanh", a, t, sech2, -2.0 * t * sech2)


def exp(a: Jet2) -> Jet2:
    e = math.exp(a.value)
    return _chain("exp", a, e, e, e)


def ln(a: Jet2) -> Jet2:
    if a.value <= 0.0:
        raise JetDomainError("ln", a.value)
    inv = 1.0 / a.value
    return _chain("ln", a, math.log(a.value), inv, -inv * inv)


def sqrt(a: Jet2) -> Jet2:
    if a.value <= 0.0:
        raise JetDomainError("sqrt", a.value)
    root = math.sqrt(a.value)
    cube = root * a.value  # 0 below a = 1e-216: the Hessian overflows, and _check_finite says so
    return _chain("sqrt", a, root, 0.5 / root, -0.25 / cube if cube else -math.inf)


def pow_const(a: Jet2, exponent: float) -> Jet2:
    """a**c for a constant exponent c.

    Integer exponents use the polynomial rule and accept any base
    (nonzero for negative exponents); fractional exponents require a
    positive base.
    """
    c = float(exponent)
    if c.is_integer():
        n = int(c)
        if a.value == 0.0 and n < 0:
            raise JetDomainError("pow", a.value)
        value = a.value**n
        d1 = 0.0 if n == 0 else n * a.value ** (n - 1)
        d2 = 0.0 if n * (n - 1) == 0 else n * (n - 1) * a.value ** (n - 2)
        return _chain("pow", a, value, d1, d2)
    if a.value <= 0.0:
        raise JetDomainError("pow", a.value)
    value = a.value**c
    return _chain("pow", a, value, c * a.value ** (c - 1), c * (c - 1) * a.value ** (c - 2))


# Dispatch table used by the expression evaluator.
ELEMENTARY = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "exp": exp,
    "ln": ln,
    "sqrt": sqrt,
}
