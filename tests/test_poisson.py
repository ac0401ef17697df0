import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pbcurv import poisson, tensor
from pbcurv.classical import (
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    normal_projector,
    second_fundamental,
)
from pbcurv.errors import (
    DimensionCapError,
    FrameConstructionError,
    NonFiniteCurvatureError,
    UsageError,
    ZeroDensityError,
)
from pbcurv.exprlang import Exprs, eval_jet, parse_expression
from pbcurv.jets import Jet1, Jet2
from pbcurv.poisson import (
    DensityChoice,
    build_bracket_table,
    build_z,
    density_jet,
    double_trace_check,
    frame_with_derivatives,
    gauss_full,
    gauss_full_from_table,
    gauss_via_frame,
    mean_full,
    mean_full_from_table,
    mean_via_frame,
    nested_bracket_tensor,
    normal_frame_from_z,
    p2_trace,
    poisson_bracket,
    ps_traces,
    s_operator,
    s2_traces,
    weingarten_frame,
    zmap_invariants,
)
from pbcurv.surfaces import CATALOG, load_spec, parse_config
from pbcurv.tensor import AmbientSignature

import helpers
from helpers import (
    arc_sphere,
    clear_of_degeneracy,
    det_g_jet,
    error_scales,
    gauss_naive,
    interior_points,
    mean_naive,
    metric_jets,
    midpoint,
    natural_sphere,
    point_setup,
    random_embedding,
    rel,
    vec_rel,
)


UNIT = DensityChoice.unit()
SQRTG = DensityChoice.sqrt_abs_g()
EPS = np.finfo(float).eps


def test_density_choice_parsing():
    assert DensityChoice.from_string("unit").kind == "unit"
    assert DensityChoice.from_string("1").kind == "unit"
    assert DensityChoice.from_string("sqrtg").kind == "sqrt_abs_g"
    assert DensityChoice.from_string("sqrt_abs_g").kind == "sqrt_abs_g"
    expr = DensityChoice.from_string("expr:1 + u")
    assert expr.kind == "expression"
    assert expr.source == "expr:1 + u"
    with pytest.raises(UsageError):
        DensityChoice.from_string("bogus")


def test_density_jet_values():
    spec, emb, met, _ = point_setup("torus", (1.1, 0.7))
    assert density_jet(UNIT, emb).value == 1.0
    assert np.array_equal(density_jet(UNIT, emb).grad, [0.0, 0.0])
    rho = density_jet(SQRTG, emb)
    assert rho.value == pytest.approx(math.sqrt(abs(met.det_g)), rel=1e-14)
    dj = det_g_jet(emb)
    assert np.allclose(rho.grad, dj.grad / (2.0 * rho.value), rtol=1e-12, atol=0.0)
    with pytest.raises(ZeroDensityError):
        density_jet(DensityChoice.expression("u - u"), emb)


def test_sqrt_density_of_a_null_metric_vanishes_without_a_warning():
    # det g = 0 on (u, u, v) in R^3_1: sqrt|det g| has no gradient there
    spec = parse_config('m = 3\nnu = 1\ncoords = ["u", "u", "v"]\ndomain = [0, 1, 0, 1]\n')
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.3, 0.4))
    with pytest.raises(ZeroDensityError, match="sqrt_abs_g"):
        density_jet(SQRTG, emb)


def test_bracket_of_square_against_coordinate():
    # {u^2, v} with rho = 1: value 2u, gradient (2, 0)
    at = (3.0, 1.5)
    f = eval_jet(parse_expression("u*u").tape, at)[0]
    g = Jet2.variable(2, at)
    br = poisson_bracket(f, g, Jet1.constant(1.0))
    assert isinstance(br, Jet1)
    assert br.value == 6.0
    assert np.array_equal(br.grad, [2.0, 0.0])


def test_bracket_antisymmetry_and_density_scaling():
    at = (0.7, -0.4)
    f = parse_expression("sin(u)*cosh(v)")
    g = parse_expression("u*v^2")
    jf, jg = eval_jet(Exprs([f, g]).tape, at)
    one = Jet1.constant(1.0)
    ab = poisson_bracket(jf, jg, one)
    ba = poisson_bracket(jg, jf, one)
    assert ab.value == -ba.value
    # gradient antisymmetry only up to summation order
    assert np.allclose(ab.grad, -ba.grad, rtol=1e-14, atol=1e-14)
    # constant density just rescales value and gradient
    two = Jet1.constant(2.0)
    half = poisson_bracket(jf, jg, two)
    assert half.value == pytest.approx(ab.value / 2.0, rel=1e-15)
    assert np.allclose(half.grad, ab.grad / 2.0, rtol=1e-15, atol=0.0)


def test_bracket_result_carries_no_second_order():
    # a first-level bracket is an order-1 jet: downstream nested brackets
    # can only read value and gradient, never a Hessian
    at = (0.3, 0.9)
    f = Jet2.variable(1, at)
    g = Jet2.variable(2, at)
    br = poisson_bracket(f, g, Jet1.constant(1.0))
    assert not hasattr(br, "hess")


def test_zero_density_rejected():
    f = Jet2.variable(1, (0.0, 0.0))
    g = Jet2.variable(2, (0.0, 0.0))
    with pytest.raises(ZeroDensityError):
        poisson_bracket(f, g, Jet1.constant(0.0))
    with pytest.raises(ZeroDensityError) as info:
        poisson_bracket(f, g, Jet1(np.float64(0.0), np.zeros(2)))
    assert "np.float64" not in str(info.value)
    assert "density value 0.0 " in str(info.value)


def test_plane_bracket_table():
    spec, emb, met, table = point_setup("plane", (0.2, 0.3), rho="unit")
    # the table scales rho = 1 to 1/2, a power of two
    assert table.rho.value == 0.5
    expected = np.zeros((3, 3))
    expected[0, 1] = 2.0
    expected[1, 0] = -2.0
    assert np.allclose(table.P, expected, atol=1e-15, rtol=0.0)
    assert np.array_equal(table.P, -table.P.T)
    assert np.abs(table.Pgrad).max() == 0.0


def test_bracket_table_matches_raw_jets():
    for name in ("torus", "de-sitter", "lorentz-graph-r41", "r5-product"):
        spec, emb, met, table = point_setup(name)
        # table.rho is sqrt|g| times the power of two that puts it in [1/2, 1)
        rho = density_jet(SQRTG, emb)
        scale = table.rho.value / rho.value
        assert math.frexp(scale)[0] == 0.5 and np.array_equal(table.rho.grad, scale * rho.grad)
        m = spec.m
        for i in range(m):
            for j in range(m):
                direct = poisson_bracket(emb.x[i], emb.x[j], table.rho)
                assert table.P[i, j] == pytest.approx(
                    direct.value, rel=1e-13, abs=1e-13
                )
                assert np.allclose(
                    table.Pgrad[i, j], direct.grad, rtol=1e-13, atol=1e-13
                )
        assert np.array_equal(table.P, -table.P.T)


@settings(max_examples=60)
@given(
    dims=st.integers(3, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from(["unit", "sqrtg", "expr:1.7 + sin(1.3*u - v)"]),
)
def test_bracket_table_matches_scalar_bracket_on_random_jets(dims, seed, density):
    emb = random_embedding(*dims, seed)
    table = build_bracket_table(emb, DensityChoice.from_string(density))
    P, Pgrad, rho = table.P, table.Pgrad, table.rho
    # exact: each is an array minus its transpose
    assert np.array_equal(P, -P.T)
    assert np.array_equal(Pgrad, -Pgrad.transpose(1, 0, 2))
    # term sizes: the same products as the bracket, in absolute value
    eu, ev = np.abs(emb.e)
    axx = np.abs(emb.xdd)
    rv = abs(rho.value)
    wabs = np.outer(eu, ev) + np.outer(ev, eu)
    half = axx[:, None, 0, :] * ev[None, :, None] + eu[:, None, None] * axx[None, :, 1, :]
    p_size = wabs / rv
    grad_size = (half + half.transpose(1, 0, 2)) / rv + wabs[:, :, None] * np.abs(rho.grad) / rv**2
    m = emb.sig.m
    for i in range(m):
        for j in range(m):
            direct = poisson_bracket(emb.x[i], emb.x[j], rho)
            assert abs(P[i, j] - direct.value) <= 1e-13 * p_size[i, j], (i, j)
            assert np.all(np.abs(Pgrad[i, j] - direct.grad) <= 1e-13 * grad_size[i, j]), (i, j)


@settings(max_examples=60)
@given(
    dims=st.integers(3, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
)
def test_det_g_jet_matches_metric_jets_oracle_on_random_jets(dims, seed):
    emb = random_embedding(*dims, seed)
    (g00, g01), (_, g11) = metric_jets(emb)  # product rule on the oracle's entries
    oracle_value = g00.value * g11.value - g01.value * g01.value
    oracle_grad = g00.value * g11.grad + g11.value * g00.grad - 2.0 * g01.value * g01.grad
    dj = det_g_jet(emb)
    # term sizes: the same sums and products in absolute value
    ae, axx = np.abs(emb.e), np.abs(emb.xdd)
    gabs = ae @ ae.T
    half = np.einsum("iac,bi->abc", axx, ae)
    dgabs = half + half.transpose(1, 0, 2)
    value_size = gabs[0, 0] * gabs[1, 1] + gabs[0, 1] ** 2
    grad_size = gabs[0, 0] * dgabs[1, 1] + gabs[1, 1] * dgabs[0, 0] + 2.0 * gabs[0, 1] * dgabs[0, 1]
    assert abs(dj.value - oracle_value) <= 1e-13 * value_size
    assert np.all(np.abs(dj.grad - oracle_grad) <= 1e-13 * grad_size)


def test_bracket_table_makes_no_bracket_calls(monkeypatch):
    def boom(*args):
        raise AssertionError("per-pair bracket called")

    monkeypatch.setattr(poisson, "poisson_bracket", boom)
    for name in CATALOG:
        for rho in ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)"):
            spec, emb, met, table = point_setup(name, rho=rho)
            assert np.isfinite(table.P).all() and np.isfinite(table.Pgrad).all()
            assert np.abs(table.P).max() > 0.0


def test_nested_bracket_tensor_antisymmetry():
    spec, emb, met, table = point_setup("graph-surface-r4")
    T = nested_bracket_tensor(table, emb)
    assert T.shape == (4, 4, 4)
    # exact, not approximate: the closed-form contraction relies on it
    assert np.array_equal(T, -np.swapaxes(T, 1, 2))
    assert np.array_equal(table.P, -table.P.T)


def test_p2_trace_identity():
    # with rho = sqrt(g) on the unit sphere the trace is exactly -2
    spec, emb, met, table = point_setup("sphere", (0.9, 1.3))
    assert p2_trace(table, spec.signature) == pytest.approx(-2.0, rel=1e-13)
    # with rho = 1 on the hyperbolic plane it is -2 sinh^2(u) at u = 1; the
    # table takes rho = 1/2, which multiplies the trace by 4
    spec, emb, met, table = point_setup("hyperbolic-plane", (1.0, 2.1), rho="unit")
    assert table.rho.value == 0.5
    assert p2_trace(table, spec.signature) == pytest.approx(
        4.0 * -2.762195691083631, rel=1e-13
    )
    # general statement: tr P^2 = -2 g / rho^2
    for name in CATALOG:
        spec, emb, met, table = point_setup(name)
        rv = table.rho.value
        assert p2_trace(table, spec.signature) == pytest.approx(
            -2.0 * met.det_g / (rv * rv), rel=1e-11, abs=1e-11
        ), name


def _classical_builder(spec):
    def build(at):
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        return classical_normal_frame(emb, induced_metric(emb))

    return build


def _z_builder(spec):
    def build(at):
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        table = build_bracket_table(emb, SQRTG)
        return normal_frame_from_z(build_z(table, emb, met), spec.signature)

    return build


def _weingarten(emb, met, frame=None):
    """The Weingarten frame field of a frame (default: the classical one)."""
    frame = classical_normal_frame(emb, met) if frame is None else frame
    return weingarten_frame(emb, met, frame, second_fundamental(emb, frame))


def _tangential(emb, met, vectors):
    """Tangential part gbar(w, e_b) g^{bc} e_c of each vector w[..., i]."""
    dots = np.einsum("i,...i,bi->...b", emb.sig.gbar, vectors, emb.e)
    return np.einsum("...b,bc,ci->...i", dots, met.ginv, emb.e)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fd_oracle_tangential_part_matches_weingarten_frame(name):
    # the stencil's own accuracy: fourth order in FRAME_STEP = 1e-3
    spec = CATALOG[name]
    points = interior_points(spec, (4, 4))
    for at in points:
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        builders = [(_classical_builder(spec), None)]
        if at == points[0]:  # the Z frame too, once per surface
            builders.append((_z_builder(spec), _z_builder(spec)(at)))
        for build, frame in builders:
            fd = frame_with_derivatives(build, at, spec.signature)
            exact = _weingarten(emb, met, frame)
            assert np.array_equal(exact.vectors, fd.vectors), name
            got = _tangential(emb, met, np.moveaxis(fd.grads, 2, 1))
            want = np.moveaxis(exact.grads, 2, 1)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) <= 1e-6 * scale, name


@settings(max_examples=60)
@given(
    dims=st.integers(3, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
)
def test_weingarten_frame_pairs_to_minus_h(dims, seed):
    emb = random_embedding(*dims, seed)
    assume(clear_of_degeneracy(emb))
    met = induced_metric(emb)
    try:
        frame = classical_normal_frame(emb, met)
    except FrameConstructionError:
        assume(False)
    h = second_fundamental(emb, frame)
    ff = weingarten_frame(emb, met, frame, h)
    assert ff.vectors is frame.vectors and ff.sigma is frame.sigma
    gbar = emb.sig.gbar
    # gbar(d_a N_A, e_b) = -h_{A,ab}; size = sum of |terms| of h g^{-1} gbar(e, e)
    lhs = np.einsum("i,Aia,bi->Aab", gbar, ff.grads, emb.e)
    ae = np.abs(emb.e)
    size = np.einsum("Aac,cd,di,bi->Aab", np.abs(h), np.abs(met.ginv), ae, ae)
    assert np.all(np.abs(lhs + h) <= 1e-12 * size)


def test_s_operator_trace_identities():
    for name in CATALOG:
        spec, emb, met, table = point_setup(name)
        frame = classical_normal_frame(emb, met)
        h = second_fundamental(emb, frame)
        ff = weingarten_frame(emb, met, frame, h)
        rv = table.rho.value
        S = s_operator(table, emb, ff)
        s2 = s2_traces(spec.signature, S)
        dets = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        for A in range(spec.signature.codim):
            assert s2[A] == pytest.approx(
                -2.0 * dets[A] / (rv * rv), rel=1e-12, abs=1e-12
            ), (name, A)
        ps = ps_traces(table, spec.signature, S)
        weingarten = np.einsum("ab,Aab->A", met.ginv, h)
        for A in range(spec.signature.codim):
            assert ps[A] == pytest.approx(
                met.det_g * weingarten[A] / (rv * rv), rel=1e-12, abs=1e-12
            ), (name, A)


def test_z_single_normal_for_m3():
    for name in ("sphere", "hyperbolic-plane", "de-sitter", "catenoid"):
        spec, emb, met, table = point_setup(name)
        zd = build_z(table, emb, met)
        assert zd.Zmat.shape == (1, 1)
        assert zd.Zmat[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert zd.indices == [()]


def test_z_trace_counts_codimension():
    spec, emb, met, table = point_setup("flat-torus-r4")
    zd = build_z(table, emb, met)
    assert zd.Zmat.shape == (4, 4)
    assert float(np.trace(zd.Zmat)) == pytest.approx(2.0, abs=1e-12)

    spec, emb, met, table = point_setup("r5-product")
    zd = build_z(table, emb, met)
    assert zd.Zmat.shape == (10, 10)
    assert float(np.trace(zd.Zmat)) == pytest.approx(3.0, abs=1e-12)


def test_plane_z_points_along_third_axis():
    spec, emb, met, table = point_setup("plane", (0.1, -0.2), rho="unit")
    zd = build_z(table, emb, met)
    direction = zd.Z_lower[0] / np.linalg.norm(zd.Z_lower[0])
    assert np.allclose(np.abs(direction), [0.0, 0.0, 1.0], atol=1e-14)


def test_z_invariants_all_surfaces():
    for name in CATALOG:
        spec, emb, met, table = point_setup(name)
        zd = build_z(table, emb, met)
        res = zmap_invariants(zd, table, emb, met)
        for key, value in res.items():
            assert value <= 1e-9, (name, key, value)


def test_z_sum_equals_normal_projector_on_sphere():
    spec, emb, met, table = point_setup("sphere")
    zd = build_z(table, emb, met)
    lhs = zd.Z_lower.T @ zd.Z_upper
    frame = classical_normal_frame(emb, met)
    assert np.abs(lhs - normal_projector(spec.signature, frame)).max() < 1e-10


def test_z_frame_matches_classical_projector():
    for name in CATALOG:
        spec, emb, met, table = point_setup(name)
        zd = build_z(table, emb, met)
        zframe = normal_frame_from_z(zd, spec.signature)
        assert zframe.vectors.shape == (spec.signature.codim, spec.m)
        cframe = classical_normal_frame(emb, met)
        diff = normal_projector(spec.signature, zframe) - normal_projector(
            spec.signature, cframe
        )
        assert np.abs(diff).max() <= 1e-8, name
        assert sorted(zframe.sigma.tolist()) == sorted(cframe.sigma.tolist()), name
        assert int(np.sum(zframe.sigma == -1)) == zd.delta, name


def test_z_frame_sphere_is_radial():
    spec, emb, met, table = point_setup("sphere", (0.9, 1.3))
    zframe = normal_frame_from_z(build_z(table, emb, met), spec.signature)
    assert zframe.sigma.tolist() == [1]
    radial = emb.values
    cross = np.cross(zframe.vectors[0], radial)
    assert np.abs(cross).max() < 1e-12
    assert np.linalg.norm(zframe.vectors[0]) == pytest.approx(1.0, rel=1e-12)


def test_z_frame_hyperbolic_is_timelike():
    spec, emb, met, table = point_setup("hyperbolic-plane")
    zd = build_z(table, emb, met)
    assert zd.delta == 1
    zframe = normal_frame_from_z(zd, spec.signature)
    assert zframe.sigma.tolist() == [-1]


def test_de_sitter_delta_is_zero():
    spec, emb, met, table = point_setup("de-sitter")
    zd = build_z(table, emb, met)
    assert zd.delta == 0
    assert met.ind_g == 1
    zframe = normal_frame_from_z(zd, spec.signature)
    assert zframe.sigma.tolist() == [1]


def test_gauss_full_sphere_all_paths():
    spec = CATALOG["sphere"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.9, 1.3))
    met = induced_metric(emb)
    for rho in (UNIT, SQRTG):
        table = build_bracket_table(emb, rho)
        for contraction, k in (
            ("naive", gauss_naive(table, emb, met)),
            ("reduced", gauss_full(emb, rho)),
        ):
            assert k == pytest.approx(1.0, rel=1e-8), (rho.kind, contraction)


def test_gauss_full_signed_anchors():
    spec = CATALOG["hyperbolic-plane"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (1.0, 2.1))
    assert gauss_full(emb, SQRTG) == pytest.approx(-1.0, rel=1e-8)

    spec = CATALOG["de-sitter"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.8, 5.0))
    assert gauss_full(emb, SQRTG) == pytest.approx(1.0, rel=1e-8)

    spec = CATALOG["helicoid"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (1.0, 2.0))
    assert gauss_full(emb, SQRTG) == pytest.approx(-0.25, rel=1e-8)


def test_mean_full_anchors():
    spec = CATALOG["plane"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.1, 0.2))
    assert np.abs(mean_full(emb, UNIT)).max() == 0.0

    # unit sphere: H is the inward radial vector, gbar(H, H) = 1
    spec = CATALOG["sphere"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.9, 1.3))
    H = mean_full(emb, SQRTG)
    assert np.allclose(H, -emb.values, atol=1e-10, rtol=0.0)
    assert float(H @ H) == pytest.approx(1.0, rel=1e-10)

    spec = CATALOG["catenoid"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.4, 2.0))
    assert np.linalg.norm(mean_full(emb, SQRTG)) <= 1e-8


def test_full_curvature_matches_oracle_at_midpoints():
    for name, spec in CATALOG.items():
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        frame = classical_normal_frame(emb, met)
        h = second_fundamental(emb, frame)
        k_classical = classical_gauss(met, frame, h)
        h_classical = classical_mean(met, frame, h)
        assert rel(gauss_full(emb, SQRTG), k_classical) <= 1e-10, name
        assert vec_rel(mean_full(emb, SQRTG), h_classical) <= 1e-10, name


def test_contraction_paths_agree_in_curvature():
    for name in ("sphere", "flat-torus-r4", "lorentz-graph-r41", "r5-product"):
        spec, emb, met, table = point_setup(name)
        k_n = gauss_naive(table, emb, met)
        k_r = gauss_full_from_table(table, emb, met)
        assert rel(k_n, k_r) <= 1e-12, name
        h_n = mean_naive(table, emb, met)
        h_r = mean_full_from_table(table, emb, met)
        assert vec_rel(h_n, h_r) <= 1e-12, name


@settings(max_examples=40)
@given(
    dims=st.integers(3, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from(["unit", "sqrtg", "expr:1.7 + sin(1.3*u - v)", "expr:0.2 + u^2"]),
)
# the paths are 1.3e-12 apart relative to K on the first (0.061 eps S_K), and
# 0.28 eps S_H apart in H on the second, whose terms cancel by 6.5e4
@example(dims=(6, 2), seed=582440, density="sqrtg")
@example(dims=(4, 2), seed=91957719, density="sqrtg")
def test_reduced_contraction_matches_naive_on_random_jets(dims, seed, density):
    m, nu = dims
    emb = random_embedding(m, nu, seed)
    # keep clear of degenerate metrics, where both sums lose all digits
    assume(clear_of_degeneracy(emb))
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(density))
    k_n = gauss_naive(table, emb, met)
    k_r = gauss_full_from_table(table, emb, met)
    h_n = mean_naive(table, emb, met)
    h_r = mean_full_from_table(table, emb, met)
    assert np.isfinite(k_r) and np.all(np.isfinite(h_r))
    # both are plain float sums: each is within a few eps S of the exact
    # value (test_reference), so they agree to the same bound
    s_k, s_h = error_scales(table, emb, met, k_n, h_n)
    assert abs(k_n - k_r) <= 64 * EPS * s_k, (k_n, k_r, s_k)
    assert np.all(np.abs(h_n - h_r) <= 64 * EPS * s_h), (h_n, h_r, s_h)


def test_reduced_contraction_makes_no_symbol_calls(monkeypatch):
    def boom(*args):
        raise AssertionError("per-triple symbol contraction called")

    monkeypatch.setattr(poisson, "eps_contract_naive", boom)
    monkeypatch.setattr(helpers, "eps_contract_naive", boom)
    monkeypatch.setattr(poisson, "eps_contract_reduced", boom, raising=False)
    monkeypatch.setattr(tensor, "eps_contract_naive", boom)
    monkeypatch.setattr(tensor, "eps_table", boom)
    for name in CATALOG:
        spec, emb, met, table = point_setup(name)
        assert math.isfinite(gauss_full_from_table(table, emb, met))
        assert np.all(np.isfinite(mean_full_from_table(table, emb, met)))
    with pytest.raises(AssertionError, match="per-triple"):
        gauss_naive(table, emb, met)


def test_reduced_contraction_runs_above_cap():
    coords = [
        "u", "v", "u*v", "u^2", "v^2", "sin(u)", "cos(v)", "u + v^2",
        "exp(0.3*u*v)", "sin(u + v)", "cos(u - 2*v)", "u^3 - v",
    ]
    m = len(coords)
    assert m > tensor.MAX_M
    sig = AmbientSignature(m, 0)
    emb = evaluate_embedding(sig, Exprs(parse_expression(c) for c in coords), (0.4, 0.6))
    met = induced_metric(emb)
    table = build_bracket_table(emb, SQRTG)
    k_full = gauss_full_from_table(table, emb, met)
    h_full = mean_full_from_table(table, emb, met)
    assert math.isfinite(k_full) and np.all(np.isfinite(h_full))
    frame = classical_normal_frame(emb, met)
    h = second_fundamental(emb, frame)
    assert rel(k_full, classical_gauss(met, frame, h)) <= 1e-10
    assert vec_rel(h_full, classical_mean(met, frame, h)) <= 1e-10
    with pytest.raises(DimensionCapError):
        gauss_naive(table, emb, met)


def test_rho_independence():
    expr = DensityChoice.expression("1 + 0.3*sin(u)")
    for name, spec in CATALOG.items():
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        results = [
            (gauss_full(emb, rho), mean_full(emb, rho))
            for rho in (UNIT, SQRTG, expr)
        ]
        for a in range(len(results)):
            for b in range(a + 1, len(results)):
                assert rel(results[a][0], results[b][0]) <= 1e-8, name
                assert vec_rel(results[a][1], results[b][1]) <= 1e-8, name


@pytest.mark.parametrize("rho", ["sqrtg", "unit", "expr:1 + 0.3*sin(u)"])
def test_normalised_point_gives_the_same_bits(rho):
    # powers of two scale every term of every sum alike, so gauss_full and
    # mean_full, which run on the normalised point, equal the raw path
    density = DensityChoice.from_string(rho)
    for name, spec in CATALOG.items():
        emb = evaluate_embedding(spec.signature, spec.coord_asts, midpoint(spec))
        met = induced_metric(emb)
        table = build_bracket_table(emb, density)
        assert gauss_full(emb, density) == gauss_full_from_table(table, emb, met), name
        assert np.array_equal(mean_full(emb, density), mean_full_from_table(table, emb, met)), name
        unit = emb.normalised()
        assert 0.5 <= np.abs(unit.e).max() < 1.0, name
        x_top = np.abs(unit.xdd).max()  # 0 on the plane
        assert x_top == 0.0 or 0.5 <= x_top < 1.0, name


def test_frame_paths_match_full_formulas():
    for name, spec in CATALOG.items():
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        table = build_bracket_table(emb, SQRTG)
        k_full = gauss_full_from_table(table, emb, met)
        h_full = mean_full_from_table(table, emb, met)

        ff = _weingarten(emb, met)
        assert rel(gauss_via_frame(table, emb, met, ff), k_full) <= 1e-12, name
        assert vec_rel(mean_via_frame(table, emb, met, ff), h_full) <= 1e-12, name

        zframe = normal_frame_from_z(build_z(table, emb, met), spec.signature)
        ffz = _weingarten(emb, met, zframe)
        assert rel(gauss_via_frame(table, emb, met, ffz), k_full) <= 1e-12, name
        assert vec_rel(mean_via_frame(table, emb, met, ffz), h_full) <= 1e-12, name


@pytest.mark.parametrize("rho", ["1e150", "1e-150"])
def test_frame_paths_keep_their_digits_at_extreme_density(rho):
    # on a sphere of radius 1e10 in parameters scaled by it, S ~ 1e-10 / rho:
    # taken at rho = 1e150 without the density scale, S S and P S underflow
    spec = parse_config(arc_sphere("1e10"))
    emb = evaluate_embedding(spec.signature, spec.coord_asts, midpoint(spec))
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(f"expr:{rho}"))
    k, h = gauss_full_from_table(table, emb, met), mean_full_from_table(table, emb, met)
    assert abs(k - 1e-20) <= 1e-12 * 1e-20
    ff = _weingarten(emb, met)
    assert abs(gauss_via_frame(table, emb, met, ff) - k) <= 1e-12 * k
    hf = mean_via_frame(table, emb, met, ff)
    assert np.linalg.norm(hf - h) <= 1e-12 * np.linalg.norm(h)


def _raw_midpoint(text: str):
    spec = parse_config(text)
    emb = evaluate_embedding(spec.signature, spec.coord_asts, midpoint(spec))
    met = induced_metric(emb)
    return emb, met, build_bracket_table(emb, UNIT)


def test_contractions_fail_closed_when_det_g_squared_overflows():
    # det g ~ 1e156 on the raw jets, so (det g)^2 leaves the float range
    emb, met, table = _raw_midpoint(natural_sphere("1e39"))
    with pytest.raises(NonFiniteCurvatureError, match="K is not finite"):
        gauss_full_from_table(table, emb, met)
    with pytest.raises(NonFiniteCurvatureError, match="H is not finite"):
        mean_full_from_table(table, emb, met)


def test_gauss_contraction_fails_closed_on_a_subnormal_k():
    # K = 1e-320 on the raw jets: subnormal, so only a few digits survive
    emb, met, table = _raw_midpoint(arc_sphere("1e160"))
    with pytest.raises(NonFiniteCurvatureError, match="underflow"):
        gauss_full_from_table(table, emb, met)


def test_double_trace_scaling():
    one = parse_expression("1")
    spec, emb, met, table = point_setup("sphere")
    ff = _weingarten(emb, met)
    assert double_trace_check(table, emb, ff, 0, 0, one, one) == 0.0
    fa = parse_expression("u")
    ha = parse_expression("sin(v) + 2")
    assert double_trace_check(table, emb, ff, 0, 0, fa, ha) <= 1e-9

    spec, emb, met, table = point_setup("torus", (1.1, 0.7))
    ff = _weingarten(emb, met)
    assert double_trace_check(
        table, emb, ff, 0, 0, parse_expression("exp(u)"), one
    ) <= 1e-9

    # two distinct normals on a codimension-2 surface
    spec, emb, met, table = point_setup("flat-torus-r4")
    ff = _weingarten(emb, met)
    assert double_trace_check(
        table, emb, ff, 0, 1, parse_expression("exp(u)"), parse_expression("cosh(v)")
    ) <= 1e-9


def _reversed_signature_config(spec) -> tuple[str, list[int]]:
    """Config text of spec in R^m with nu -> m - nu, and the new coordinate order.

    The old spacelike coordinates come first, so each keeps its metric
    sign flipped: gbar' = -gbar up to that permutation, g' = -g.
    """
    order = list(range(spec.nu, spec.m)) + list(range(spec.nu))
    coords = ", ".join(f'"{spec.coords[i]}"' for i in order)
    domain = ", ".join(repr(x) for x in spec.domain)
    text = f"m = {spec.m}\nnu = {spec.m - spec.nu}\ncoords = [{coords}]\ndomain = [{domain}]\n"
    return text, order


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_reversed_signature_negates_k_and_h(name, tmp_path):
    # g -> -g keeps the Christoffel symbols and flips R_abcd and g^ab, so
    # K and H change sign; det g, the brackets and every density do not
    spec = CATALOG[name]
    text, order = _reversed_signature_config(spec)
    path = tmp_path / f"{name}-reversed.surface"
    path.write_text(text)
    flipped = load_spec(str(path))
    assert flipped.nu == spec.m - spec.nu
    for at in interior_points(spec, (6, 6)):
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        emb_f = evaluate_embedding(flipped.signature, flipped.coord_asts, at)
        met, met_f = induced_metric(emb), induced_metric(emb_f)
        for rho in ("sqrt_abs_g", "unit", "expr:1 + 0.3*sin(u)"):
            density = DensityChoice.from_string(rho)
            table = build_bracket_table(emb, density)
            table_f = build_bracket_table(emb_f, density)
            k = gauss_full_from_table(table, emb, met)
            k_f = gauss_full_from_table(table_f, emb_f, met_f)
            h = mean_full_from_table(table, emb, met)
            h_f = np.empty_like(h)
            h_f[order] = mean_full_from_table(table_f, emb_f, met_f)
            assert rel(k_f, -k) <= 1e-13, (at, rho, k, k_f)
            assert vec_rel(h_f, -h) <= 1e-13, (at, rho, h, h_f)
