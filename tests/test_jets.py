import math

import numpy as np
import pytest

from pbcurv import jets
from pbcurv.errors import JetDivisionByZero, JetDomainError
from pbcurv.jets import Jet1, Jet2, pow_const, sqrt_abs_rows


def uv(at):
    return Jet2.variable(1, at), Jet2.variable(2, at)


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
    u, v = uv((1.0, 2.0))
    s = u + v
    assert s.value == 3.0
    assert np.array_equal(s.grad, [1.0, 1.0])
    assert np.array_equal(s.hess, np.zeros((2, 2)))


def test_mul_square():
    u, _ = uv((3.0, 0.0))
    sq = u * u
    assert sq.value == 9.0
    assert np.array_equal(sq.grad, [6.0, 0.0])
    assert np.array_equal(sq.hess, [[2.0, 0.0], [0.0, 0.0]])


def test_mul_cross():
    u, v = uv((2.0, 3.0))
    prod = u * v
    assert prod.value == 6.0
    assert np.array_equal(prod.grad, [3.0, 2.0])
    assert np.array_equal(prod.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_div():
    # d(u/v) by hand: value 1/2, grad (1/v, -u/v^2), second partials
    # f_uu = 0, f_uv = -1/v^2, f_vv = 2u/v^3.
    u, v = uv((1.0, 2.0))
    q = u / v
    assert q.value == 0.5
    assert np.allclose(q.grad, [0.5, -0.25], atol=1e-15, rtol=0.0)
    assert np.allclose(
        q.hess, [[0.0, -0.25], [-0.25, 0.25]], atol=1e-15, rtol=0.0
    )
    assert q.hess[0][1] == q.hess[1][0]


def test_scalar_mixing():
    u, v = uv((1.5, -0.5))
    w = 2.0 * u - v / 2.0 + 1.0
    assert w.value == 2.0 * 1.5 + 0.25 + 1.0
    assert np.allclose(w.grad, [2.0, -0.5], atol=1e-15, rtol=0.0)
    r = 1.0 / v
    assert r.value == -2.0
    assert np.allclose(r.grad, [0.0, -4.0], atol=1e-15, rtol=0.0)


def test_division_floor():
    u, v = uv((1.0, 0.0))
    with pytest.raises(JetDivisionByZero):
        u / v
    with pytest.raises(JetDivisionByZero):
        u / Jet2.constant(1e-301)


def test_sin_cos_at_zero():
    u, _ = uv((0.0, 0.0))
    s = jets.sin(u)
    assert s.value == 0.0
    assert np.array_equal(s.grad, [1.0, 0.0])
    assert np.array_equal(s.hess, np.zeros((2, 2)))
    c = jets.cos(u)
    assert c.value == 1.0
    assert np.array_equal(c.grad, [0.0, 0.0])
    assert np.array_equal(c.hess, [[-1.0, 0.0], [0.0, 0.0]])


def test_cosh_at_zero():
    u, _ = uv((0.0, 0.0))
    c = jets.cosh(u)
    assert c.value == 1.0
    assert np.array_equal(c.grad, [0.0, 0.0])
    assert np.array_equal(c.hess, [[1.0, 0.0], [0.0, 0.0]])


def test_exp_of_sum():
    u, v = uv((0.0, 0.0))
    e = jets.exp(u + v)
    assert e.value == 1.0
    assert np.array_equal(e.grad, [1.0, 1.0])
    assert np.array_equal(e.hess, np.ones((2, 2)))


def test_domain_errors():
    u, _ = uv((-1.0, 0.0))
    with pytest.raises(JetDomainError):
        jets.ln(u)
    with pytest.raises(JetDomainError):
        jets.sqrt(u)
    with pytest.raises(JetDomainError):
        pow_const(u, 0.5)
    with pytest.raises(JetDomainError):
        pow_const(Jet2.constant(0.0), -2)


def test_pow_const_integer():
    u, _ = uv((2.0, 0.0))
    cube = pow_const(u, 3)
    assert cube.value == 8.0
    assert np.array_equal(cube.grad, [12.0, 0.0])
    assert cube.hess[0][0] == 12.0
    # zero base with small nonnegative integer exponents stays finite
    z = Jet2.variable(1, (0.0, 0.0))
    assert pow_const(z, 0).value == 1.0
    assert pow_const(z, 1).grad[0] == 1.0
    assert pow_const(z, 2).hess[0][0] == 2.0


def test_polynomial_degree_two_exact():
    # jets reproduce a quadratic's coefficients exactly, not approximately
    for at in [(0.3, -1.2), (2.0, 0.5), (-0.7, -0.4)]:
        u, v = uv(at)
        f = 2.0 * u * u - 3.0 * u * v + v * v + 4.0 * u - v + 7.0
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
        ab = a * b
        ba = b * a
        assert _close(ab, ba, 1e-15)
        abc1 = (a * b) * c
        abc2 = a * (b * c)
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

    def jet_f(at):
        u, v = uv(at)
        return jets.sin(u) * jets.cosh(v) + jets.exp(u * v) / (jets.cos(u) + 2.0)

    for at in [(0.4, -0.3), (1.1, 0.8), (-0.9, 0.25)]:
        a, b = at
        j = jet_f(at)
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
        huge * Jet2(2.0, np.array([1e308, 0.0]), np.zeros((2, 2)))
    assert str(exc.value) == "mul overflows in its gradient at value 2.0"
    big = Jet2(1.0, np.array([1e200, 0.0]), np.zeros((2, 2)))
    with np.errstate(over="ignore"), pytest.raises(JetDomainError) as exc:
        big * big
    assert str(exc.value) == "mul overflows in its Hessian at value 1.0"
    with np.errstate(over="ignore"), pytest.raises(JetDomainError) as exc:
        jets.exp(Jet2(1.0, np.array([1e300, 0.0]), np.zeros((2, 2))))
    assert str(exc.value) == f"exp overflows in its Hessian at value {math.e!r}"


def test_value_overflow_says_so():
    big = Jet2.constant(1e200)
    with pytest.raises(JetDomainError) as exc:
        big * big
    assert str(exc.value) == "mul overflows at value inf"
    inf = Jet2.constant(math.inf)
    with pytest.raises(JetDomainError) as exc:
        inf - inf
    assert str(exc.value) == "sub is undefined at value nan"


def test_lower_truncates():
    u, v = uv((1.0, 2.0))
    j = (u * v).lower()
    assert isinstance(j, Jet1)
    assert j.value == 2.0
    assert np.array_equal(j.grad, [2.0, 1.0])
    assert not hasattr(j, "hess")



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
        return jets.add(jets.mul(u, v), _constant(0.3, u))
    return u * v + 0.3


def _constant(c, like):
    return Jet2(c + 0.0 * like.value, 0.0 * like.grad, 0.0 * like.hess)


def _apply(op, a, lib):
    """The shared rule for op applied to the jet a."""
    if op == "quotient":
        return jets.mul(jets.add(a, _constant(2.0, a)), jets.reciprocal(a))
    if isinstance(op, float):
        return jets.power(a, op)
    return jets.elementary(op, a, lib)


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
            rows = [_apply(op, _inner(inner, *uv(tuple(p))), math) for p in _POINTS]
            rows = [(j.value, j.grad, j.hess) for j in rows]
        else:
            seed, zero = np.eye(2)[:, :, None], np.zeros((2, 2, 1))
            u, v = (Jet2(_POINTS[:, i], seed[i], zero) for i in (0, 1))
            j = _apply(op, _inner(inner, u, v), np)
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
