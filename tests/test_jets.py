import math
import re

import numpy as np
import pytest

from pbcurv import jets
from pbcurv.errors import EvalError, JetDivisionByZero, JetDomainError
from pbcurv.exprlang import compile_tape, eval_jet, parse_expression
from pbcurv.jets import Jet2, sqrt_abs_rows


def uv(at):
    return Jet2.variable(1, at), Jet2.variable(2, at)


def _jet(source, at):
    return eval_jet(parse_expression(source).tape, at)[0]


def _checked(op, a, b=None, c=0.0):
    """jets.rule at one point, checked as eval_jet checks it."""
    return jets.finite(op, jets.rule(op, a, b, c, math))


def test_seed_variables():
    u = Jet2.variable(1, (0.3, 0.7))
    assert u.value == 0.3
    assert np.array_equal(u.grad, [1.0, 0.0])
    assert np.array_equal(u.hess, np.zeros((2, 2)))

    v = Jet2.variable(2, (0.0, 0.0))
    assert v.value == 0.0
    assert np.array_equal(v.grad, [0.0, 1.0])
    assert np.array_equal(v.hess, np.zeros((2, 2)))

    assert Jet2.variable(1, (math.pi, 0.0)).value == math.pi

    with pytest.raises(ValueError):
        Jet2.variable(3, (0.0, 0.0))


def test_add():
    s = _jet("u + v", (1.0, 2.0))
    assert s.value == 3.0
    assert np.array_equal(s.grad, [1.0, 1.0])
    assert np.array_equal(s.hess, np.zeros((2, 2)))


def test_mul_square():
    sq = _jet("u*u", (3.0, 0.0))
    assert sq.value == 9.0
    assert np.array_equal(sq.grad, [6.0, 0.0])
    assert np.array_equal(sq.hess, [[2.0, 0.0], [0.0, 0.0]])


def test_mul_cross():
    prod = _jet("u*v", (2.0, 3.0))
    assert prod.value == 6.0
    assert np.array_equal(prod.grad, [3.0, 2.0])
    assert np.array_equal(prod.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_div():
    # d(u/v) by hand: value 1/2, grad (1/v, -u/v^2), second partials
    # f_uu = 0, f_uv = -1/v^2, f_vv = 2u/v^3.
    q = _jet("u/v", (1.0, 2.0))
    assert q.value == 0.5
    assert np.allclose(q.grad, [0.5, -0.25], atol=1e-15, rtol=0.0)
    assert np.allclose(
        q.hess, [[0.0, -0.25], [-0.25, 0.25]], atol=1e-15, rtol=0.0
    )
    assert q.hess[0][1] == q.hess[1][0]


def test_division_floor():
    for source, at in (("u/v", (1.0, 0.0)), ("u/1e-301", (1.0, 0.0))):
        with pytest.raises(EvalError, match="jet division by near-zero denominator") as exc:
            _jet(source, at)
        assert isinstance(exc.value.__cause__, JetDivisionByZero)


def test_sin_cos_at_zero():
    s = _jet("sin(u)", (0.0, 0.0))
    assert s.value == 0.0
    assert np.array_equal(s.grad, [1.0, 0.0])
    assert np.array_equal(s.hess, np.zeros((2, 2)))
    c = _jet("cos(u)", (0.0, 0.0))
    assert c.value == 1.0
    assert np.array_equal(c.grad, [0.0, 0.0])
    assert np.array_equal(c.hess, [[-1.0, 0.0], [0.0, 0.0]])


def test_cosh_at_zero():
    c = _jet("cosh(u)", (0.0, 0.0))
    assert c.value == 1.0
    assert np.array_equal(c.grad, [0.0, 0.0])
    assert np.array_equal(c.hess, [[1.0, 0.0], [0.0, 0.0]])


def test_exp_of_sum():
    e = _jet("exp(u + v)", (0.0, 0.0))
    assert e.value == 1.0
    assert np.array_equal(e.grad, [1.0, 1.0])
    assert np.array_equal(e.hess, np.ones((2, 2)))


def test_domain_errors():
    for source, at in (("ln(u)", (-1.0, 0.0)), ("sqrt(u)", (-1.0, 0.0)), ("u^0.5", (-1.0, 0.0)),
                       ("0^-2", (0.0, 0.0))):
        with pytest.raises(EvalError, match="is undefined at value") as exc:
            _jet(source, at)
        assert isinstance(exc.value.__cause__, JetDomainError)


def test_pow_const_integer():
    cube = _jet("u^3", (2.0, 0.0))
    assert cube.value == 8.0
    assert np.array_equal(cube.grad, [12.0, 0.0])
    assert cube.hess[0][0] == 12.0
    # zero base with small nonnegative integer exponents stays finite
    assert _jet("u^0", (0.0, 0.0)).value == 1.0
    assert _jet("u^1", (0.0, 0.0)).grad[0] == 1.0
    assert _jet("u^2", (0.0, 0.0)).hess[0][0] == 2.0


def test_polynomial_degree_two_exact():
    # jets reproduce a quadratic's coefficients exactly, not approximately
    for at in [(0.3, -1.2), (2.0, 0.5), (-0.7, -0.4)]:
        f = _jet("2*u*u - 3*u*v + v*v + 4*u - v + 7", at)
        a, b = at
        assert f.value == 2 * a * a - 3 * a * b + b * b + 4 * a - b + 7
        assert f.grad[0] == 4 * a - 3 * b + 4
        assert f.grad[1] == -3 * a + 2 * b - 1
        assert np.array_equal(f.hess, [[4.0, -3.0], [-3.0, 2.0]])


def test_mul_commutative_associative():
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        vals = rng.uniform(-2.0, 2.0, size=(3, 7))
        js = [
            Jet2(float(r[0]), r[1:3].copy(), _sym(r[3:7]))
            for r in vals
        ]
        a, b, c = js
        ab = _checked("*", a, b)
        ba = _checked("*", b, a)
        assert _close(ab, ba, 1e-15)
        abc1 = _checked("*", ab, c)
        abc2 = _checked("*", a, _checked("*", b, c))
        assert _close(abc1, abc2, 1e-15)


def _sym(four):
    h = np.array([[four[0], four[1]], [four[1], four[2]]])
    return h


def _close(x: Jet2, y: Jet2, tol: float) -> bool:
    scale = max(1.0, abs(x.value), float(np.abs(x.hess).max()))
    return (
        abs(x.value - y.value) <= tol * scale
        and np.abs(x.grad - y.grad).max() <= tol * scale
        and np.abs(x.hess - y.hess).max() <= tol * scale
    )


def test_finite_difference_agreement():
    # spot-check the chain rule against central differences
    h = 1e-5

    def f(a, b):
        return math.sin(a) * math.cosh(b) + math.exp(a * b) / (2.0 + math.cos(a))

    for at in [(0.4, -0.3), (1.1, 0.8), (-0.9, 0.25)]:
        a, b = at
        j = _jet("sin(u)*cosh(v) + exp(u*v)/(cos(u) + 2)", at)
        assert j.value == pytest.approx(f(a, b), rel=1e-14)
        fd_u = (f(a + h, b) - f(a - h, b)) / (2 * h)
        fd_v = (f(a, b + h) - f(a, b - h)) / (2 * h)
        assert j.grad[0] == pytest.approx(fd_u, rel=1e-6, abs=1e-8)
        assert j.grad[1] == pytest.approx(fd_v, rel=1e-6, abs=1e-8)
        fd_uu = (f(a + h, b) - 2 * f(a, b) + f(a - h, b)) / (h * h)
        fd_vv = (f(a, b + h) - 2 * f(a, b) + f(a, b - h)) / (h * h)
        fd_uv = (
            f(a + h, b + h) - f(a + h, b - h) - f(a - h, b + h) + f(a - h, b - h)
        ) / (4 * h * h)
        assert j.hess[0][0] == pytest.approx(fd_uu, rel=1e-4, abs=1e-4)
        assert j.hess[1][1] == pytest.approx(fd_vv, rel=1e-4, abs=1e-4)
        assert j.hess[0][1] == pytest.approx(fd_uv, rel=1e-4, abs=1e-4)


def test_sqrt_abs_jet1():
    # one row per jet: a = 4 and a = -4, both with gradient (2, 0)
    root, grad = sqrt_abs_rows(np.array([4.0, -4.0]), np.array([[2.0, 0.0], [2.0, 0.0]]))
    assert root.tolist() == [2.0, 2.0]
    assert np.allclose(grad, [[0.5, 0.0], [-0.5, 0.0]])


def test_derivative_overflow_names_the_derivative():
    huge = Jet2(1.0, np.array([1e308, 0.0]), np.zeros((2, 2)))
    with np.errstate(over="ignore"), pytest.raises(JetDomainError) as exc:
        _checked("*", huge, Jet2(2.0, np.array([1e308, 0.0]), np.zeros((2, 2))))
    assert str(exc.value) == "mul overflows in its gradient at value 2.0"
    big = Jet2(1.0, np.array([1e200, 0.0]), np.zeros((2, 2)))
    with np.errstate(over="ignore"), pytest.raises(JetDomainError) as exc:
        _checked("*", big, big)
    assert str(exc.value) == "mul overflows in its Hessian at value 1.0"
    with np.errstate(over="ignore"), pytest.raises(JetDomainError) as exc:
        _checked("exp", Jet2(1.0, np.array([1e300, 0.0]), np.zeros((2, 2))))
    assert str(exc.value) == f"exp overflows in its Hessian at value {math.e!r}"


def test_value_overflow_says_so():
    big = Jet2.constant(1e200)
    with pytest.raises(JetDomainError) as exc:
        _checked("*", big, big)
    assert str(exc.value) == "mul overflows at value inf"
    with pytest.raises(JetDomainError) as exc:  # a quotient is a product with the reciprocal
        _checked("/", Jet2.constant(1e308), Jet2.constant(0.5))
    assert str(exc.value) == "mul overflows at value inf"
    with pytest.raises(JetDomainError) as exc:
        _checked("+", Jet2.constant(1e308), Jet2.constant(1e308))
    assert str(exc.value) == "add overflows at value inf"
    inf = Jet2.constant(math.inf)
    with pytest.raises(JetDomainError) as exc:
        _checked("-", inf, inf)
    assert str(exc.value) == "sub is undefined at value nan"


def test_rule_covers_every_tape_op_in_both_layouts():
    # the ops a tape hands to rule, from an expression that uses every construct
    source = "-(u + v - u*v/u)^2 + " + " + ".join(f"{fn}(u)" for fn in jets.FUNCTIONS)
    ops = {op for op, _, _ in compile_tape([parse_expression(source)]).code} - {"const", "u", "v"}
    assert ops == {"+", "-", "*", "/", "neg", "pow", *jets.FUNCTIONS}
    at = np.array([[0.3, 0.7], [0.9, 0.4], [0.6, 0.5]])  # (u, v) rows
    seed, zero = np.eye(2)[:, :, None], np.zeros((2, 2, 1))
    for op in sorted(ops):
        c = 1.5 if op == "pow" else 0.0
        j = jets.rule(op, Jet2(at[:, 0], seed[0], zero), Jet2(at[:, 1], seed[1], zero), c, np)
        value = np.broadcast_to(j.value, (3,))
        grad, hess = np.broadcast_to(j.grad, (2, 3)), np.broadcast_to(j.hess, (2, 2, 3))
        for n, p in enumerate(at):
            point = _checked(op, *uv(tuple(p)), c)
            assert isinstance(point.value, float) and point.hess.shape == (2, 2), op
            assert point.value == pytest.approx(value[n], rel=1e-15), op
            assert np.allclose(point.grad, grad[:, n], rtol=1e-15, atol=0.0), op
            assert np.allclose(point.hess, hess[:, :, n], rtol=1e-15, atol=0.0), op
    u, v = uv((0.5, 0.5))
    for op in ("const", "u", "cot", "^"):
        with pytest.raises(ValueError, match=re.escape(f"unknown op {op!r}")):
            jets.rule(op, u, v, 0.0, math)


# --- the rules against a 50-digit reference ----------------------------------

_OPS = [*jets.FUNCTIONS, *(float(n) for n in range(-3, 5)), 0.5, 1.5, -0.5, 1.0 / 3.0, "quotient"]
_POINTS = np.random.default_rng(20260407).uniform(0.2, 1.0, size=(4, 2))  # every inner in [0.2, 1.3]
# value, gradient and Hessian entries in row-major order, as orders of d/du and d/dv
_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (0, 2)]


def _inner(name, u, v):
    """u, v or u*v + 0.3, of jets in either layout or of mpmath numbers."""
    if name in ("u", "v"):
        return u if name == "u" else v
    if isinstance(u, Jet2):
        return jets.rule("+", jets.rule("*", u, v, 0.0, math), _constant(0.3, u), 0.0, math)
    return u * v + 0.3


def _constant(c, like):
    return Jet2(c + 0.0 * like.value, 0.0 * like.grad, 0.0 * like.hess)


def _rule(op, a, lib):
    """jets.rule for a test op on the jet a: "quotient" is (a + 2)/a, a float c is a**c."""
    if op == "quotient":
        return jets.rule("/", jets.rule("+", a, _constant(2.0, a), 0.0, lib), a, 0.0, lib)
    if isinstance(op, float):
        return jets.rule("pow", a, None, op, lib)
    return jets.rule(op, a, None, 0.0, lib)


def _reference(op, mpmath):
    """op as a function of one mpmath number."""
    if op == "quotient":
        return lambda x: (x + 2) / x
    if isinstance(op, float):
        return lambda x: x ** mpmath.mpf(op)
    return getattr(mpmath, op)


@pytest.mark.parametrize("layout", ["point", "batch"])
@pytest.mark.parametrize("op", _OPS, ids=str)
def test_rules_match_a_50_digit_reference(op, layout):
    # the formulas themselves: the tape's tests only hold the batch to the point
    mpmath = pytest.importorskip("mpmath")
    n = len(_POINTS)
    for inner in ("u", "v", "uv+0.3"):
        if layout == "point":
            rows = [_rule(op, _inner(inner, *uv(tuple(p))), math) for p in _POINTS]
            rows = [(j.value, j.grad, j.hess) for j in rows]
        else:
            seed, zero = np.eye(2)[:, :, None], np.zeros((2, 2, 1))
            u, v = (Jet2(_POINTS[:, i], seed[i], zero) for i in (0, 1))
            j = _rule(op, _inner(inner, u, v), np)
            value = np.broadcast_to(j.value, (n,))
            grad, hess = np.broadcast_to(j.grad, (2, n)), np.broadcast_to(j.hess, (2, 2, n))
            rows = [(value[k], grad[:, k], hess[:, :, k]) for k in range(n)]
        fn = _reference(op, mpmath)
        with mpmath.workdps(50):
            for (pu, pv), (value, grad, hess) in zip(_POINTS, rows):
                at = (mpmath.mpf(pu), mpmath.mpf(pv))
                for order, got in zip(_ORDERS, [value, *grad, *hess.ravel()]):
                    ref = float(mpmath.diff(lambda a, b: fn(_inner(inner, a, b)), at, order))
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (inner, order, got, ref)
