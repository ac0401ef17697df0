import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbcurv import classical
from pbcurv.classical import (
    _NullPivot,
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    normal_projector,
    pivoted_orthonormalize,
    second_fundamental,
)
from pbcurv.errors import DegenerateMetricError, EvalError, FrameConstructionError
from pbcurv.exprlang import Exprs, parse_expression
from pbcurv.surfaces import CATALOG
from pbcurv.tensor import AmbientSignature

from helpers import (
    clear_of_degeneracy,
    det_g_jet,
    interior_points,
    looped_orthonormalize,
    metric_jets,
    midpoint,
    random_embedding,
    tangent_projector,
)


def embed(name, at):
    spec = CATALOG[name]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
    return emb, induced_metric(emb)


def test_plane_metric():
    emb, met = embed("plane", (0.3, -0.4))
    assert np.allclose(met.gab, np.eye(2), atol=1e-15, rtol=0.0)
    assert met.det_g == 1.0
    assert met.ind_g == 0


def test_sphere_metric():
    # round metric diag(1, sin^2 u) at u = 0.9
    emb, met = embed("sphere", (0.9, 1.3))
    assert met.gab[0][0] == pytest.approx(1.0, abs=1e-15)
    assert met.gab[0][1] == pytest.approx(0.0, abs=1e-15)
    assert met.gab[1][1] == pytest.approx(0.6136010473465435, abs=1e-15)
    assert met.ind_g == 0


def test_hyperbolic_metric():
    # induced metric diag(1, sinh^2 u) is Riemannian although nu = 1
    emb, met = embed("hyperbolic-plane", (1.0, 2.1))
    assert met.gab[0][0] == pytest.approx(1.0, abs=1e-14)
    assert met.gab[0][1] == pytest.approx(0.0, abs=1e-14)
    assert met.gab[1][1] == pytest.approx(1.3810978455418155, rel=1e-14)
    assert met.ind_g == 0
    assert met.det_g > 0


def test_de_sitter_metric_is_lorentzian():
    emb, met = embed("de-sitter", (0.8, 5.0))
    assert met.gab[0][0] == pytest.approx(-1.0, rel=1e-14)
    assert met.gab[1][1] == pytest.approx(1.7887322355974429, rel=1e-14)
    assert met.det_g < 0
    assert met.ind_g == 1


def test_metric_jets_match_value_and_fd():
    emb, met = embed("torus", (1.1, 0.7))
    gj = metric_jets(emb)
    for a in range(2):
        for b in range(2):
            assert gj[a][b].value == pytest.approx(met.gab[a][b], rel=1e-14, abs=1e-14)
    # gradient slot against central differences of the metric entries
    h = 1e-6
    spec = CATALOG["torus"]
    for c, delta in ((0, (h, 0.0)), (1, (0.0, h))):
        up = induced_metric(
            evaluate_embedding(spec.signature, spec.coord_asts, (1.1 + delta[0], 0.7 + delta[1]))
        )
        dn = induced_metric(
            evaluate_embedding(spec.signature, spec.coord_asts, (1.1 - delta[0], 0.7 - delta[1]))
        )
        fd = (up.gab - dn.gab) / (2 * h)
        for a in range(2):
            for b in range(2):
                assert gj[a][b].grad[c] == pytest.approx(fd[a][b], rel=1e-8, abs=1e-8)
    dj = det_g_jet(emb)
    assert dj.value == pytest.approx(met.det_g, rel=1e-14)


def test_degenerate_metric_raises():
    sig = AmbientSignature(3, 1)
    coords = Exprs(parse_expression(s) for s in ("u", "u", "v"))
    emb = evaluate_embedding(sig, coords, (0.5, 0.5))
    with pytest.raises(DegenerateMetricError) as err:
        induced_metric(emb)
    # the command line names the point; the library message states the failure
    assert str(err.value) == "induced metric is singular: det g = 0.0"


def test_overflowing_coordinate_raises_without_a_numpy_warning():
    # the jet of the product overflows in numpy arrays; only the EvalError may leave
    coords = Exprs(parse_expression(s) for s in ("u", "v", "exp(400*u)*exp(400*u)"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvalError) as err:
            evaluate_embedding(AmbientSignature(3, 0), coords, (1.0, 0.5))
    assert str(err.value) == "mul overflows at value inf (expression offset 10)"


def test_sphere_frame_and_second_form():
    # the normal line is radial; the first seed wins the pivot, so the
    # frame is +x here (x_1 > 0), and then h = -g
    at = (0.9, 1.3)
    emb, met = embed("sphere", at)
    frame = classical_normal_frame(emb, met)
    assert frame.vectors.shape == (1, 3)
    assert frame.sigma.tolist() == [1]
    radial = np.array(
        [0.2095390307554698, 0.7547810556291155, 0.6216099682706644]
    )
    assert np.allclose(frame.vectors[0], radial, atol=1e-12, rtol=0.0)
    h = second_fundamental(emb, frame)
    assert np.allclose(h[0], -met.gab, atol=1e-12, rtol=0.0)
    assert h[0][0][1] == h[0][1][0]


def test_cylinder_second_form():
    at = (0.9, 0.4)
    emb, met = embed("cylinder", at)
    frame = classical_normal_frame(emb, met)
    sign = float(np.sign(frame.vectors[0] @ [math.cos(0.9), math.sin(0.9), 0.0]))
    h = second_fundamental(emb, frame)
    assert np.allclose(h[0], sign * np.diag([-1.0, 0.0]), atol=1e-14, rtol=0.0)
    assert classical_gauss(met, frame, h) == pytest.approx(0.0, abs=1e-14)
    H = classical_mean(met, frame, h)
    # unit cylinder has |H| = 1/2, pointing along the axis-normal
    assert float(H @ H) == pytest.approx(0.25, rel=1e-12)


def test_de_sitter_second_form():
    # for a central quadric gbar(x, x) = c the normal is x up to sign
    # and h = -gbar(N, x) g
    at = (0.8, 5.0)
    emb, met = embed("de-sitter", at)
    frame = classical_normal_frame(emb, met)
    assert frame.sigma.tolist() == [1]
    gb = emb.sig.gbar
    pairing = float(np.sum(gb * frame.vectors[0] * emb.values))
    assert abs(pairing) == pytest.approx(1.0, rel=1e-12)
    h = second_fundamental(emb, frame)
    assert np.allclose(h[0], -pairing * met.gab, atol=1e-12, rtol=0.0)
    assert classical_gauss(met, frame, h) == pytest.approx(1.0, rel=1e-12)


def test_hyperbolic_frame_timelike_normal():
    emb, met = embed("hyperbolic-plane", (1.0, 2.1))
    frame = classical_normal_frame(emb, met)
    assert frame.sigma.tolist() == [-1]
    gb = emb.sig.gbar
    gram = float(np.sum(gb * frame.vectors[0] * frame.vectors[0]))
    assert gram == pytest.approx(-1.0, rel=1e-12)
    h = second_fundamental(emb, frame)
    assert classical_gauss(met, frame, h) == pytest.approx(-1.0, rel=1e-12)


def test_completeness_relation():
    # tangent and normal projectors assemble the inverse ambient metric
    for name, spec in CATALOG.items():
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        frame = classical_normal_frame(emb, met)
        total = tangent_projector(emb, met) + normal_projector(spec.signature, frame)
        assert np.allclose(
            total, np.diag(spec.signature.gbar), atol=1e-9, rtol=0.0
        ), name


def test_frame_orthonormality_everywhere():
    for name, spec in CATALOG.items():
        for at in interior_points(spec, (4, 4)):
            emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
            met = induced_metric(emb)
            frame = classical_normal_frame(emb, met)
            assert frame.vectors.shape[0] == spec.signature.codim
            gb = spec.signature.gbar
            gram = np.einsum("Ai,i,Bi->AB", frame.vectors, gb, frame.vectors)
            assert np.allclose(
                gram, np.diag(frame.sigma.astype(float)), atol=1e-9, rtol=0.0
            ), (name, at)
            # all normals must really be normal to both tangents
            pairing = np.einsum("ai,i,Ai->aA", emb.e, gb, frame.vectors)
            assert np.abs(pairing).max() < 1e-9, (name, at)


def test_gauge_independence_of_curvature():
    # any permuted or reflected seed basis gives the same K, H, projector
    rng = np.random.default_rng(7)
    for name in ("sphere", "flat-torus-r4", "lorentz-graph-r41", "r5-product"):
        spec = CATALOG[name]
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        base_frame = classical_normal_frame(emb, met)
        h = second_fundamental(emb, base_frame)
        k_base = classical_gauss(met, base_frame, h)
        h_base = classical_mean(met, base_frame, h)
        proj_base = normal_projector(spec.signature, base_frame)
        m = spec.m
        perm = rng.permutation(np.eye(m))
        reflect = np.diag(np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0))
        for seed in (perm, reflect @ perm):
            frame = classical_normal_frame(emb, met, seed_basis=seed)
            h2 = second_fundamental(emb, frame)
            assert classical_gauss(met, frame, h2) == pytest.approx(k_base, rel=1e-9, abs=1e-9)
            assert np.allclose(classical_mean(met, frame, h2), h_base, atol=1e-9, rtol=0.0)
            assert np.allclose(
                normal_projector(spec.signature, frame), proj_base, atol=1e-9, rtol=0.0
            )
            assert sorted(frame.sigma.tolist()) == sorted(base_frame.sigma.tolist())


def test_index_bookkeeping():
    # nu = ind of the induced metric plus the count of timelike normals
    for name, spec in CATALOG.items():
        at = midpoint(spec)
        emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
        met = induced_metric(emb)
        frame = classical_normal_frame(emb, met)
        timelike = int(np.sum(frame.sigma == -1))
        assert spec.nu == met.ind_g + timelike, name


def test_null_tangents_nondegenerate_metric():
    # both tangents are null but the metric is not: det g = -1/4, and
    # the frame construction still finds a spacelike normal
    sig = AmbientSignature(3, 1)
    coords = Exprs(parse_expression(s) for s in ("(u + v)/2", "(u - v)/2", "0"))
    emb = evaluate_embedding(sig, coords, (0.4, 0.1))
    met = induced_metric(emb)
    assert met.det_g == pytest.approx(-0.25, rel=1e-14)
    assert met.ind_g == 1
    frame = classical_normal_frame(emb, met)
    assert frame.sigma.tolist() == [1]
    assert np.allclose(np.abs(frame.vectors[0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_rank_deficient_seed_basis_detected():
    spec = CATALOG["flat-torus-r4"]
    emb = evaluate_embedding(spec.signature, spec.coord_asts, midpoint(spec))
    met = induced_metric(emb)
    with pytest.raises(FrameConstructionError):
        classical_normal_frame(emb, met, seed_basis=np.ones((4, 4)))


def test_null_pivot_rejected():
    from pbcurv.classical import _NullPivot, pivoted_orthonormalize

    minkowski = np.array([-1.0, 1.0, 1.0])
    null_only = np.array([[1.0, 1.0, 0.0]])
    with pytest.raises(_NullPivot):
        pivoted_orthonormalize(null_only, minkowski, 1, null_tol=1e-10)
    # a healthy candidate is taken before the null one ends the search
    mixed = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    vecs, signs = pivoted_orthonormalize(mixed, minkowski, 1, null_tol=1e-10)
    assert vecs.shape == (1, 3)
    assert signs.tolist() == [1]
    assert np.allclose(vecs[0], [0.0, 0.0, 1.0], atol=1e-15)


def _pivot_or_raise(fn, candidates, inner_diag, max_count):
    try:
        return fn(candidates, inner_diag, max_count, null_tol=1e-10)
    except _NullPivot as exc:
        return f"null pivot after {exc.args[0]} vectors"


def _assert_same_vectors(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-13 * scale


@settings(max_examples=300)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(2, 8)),
    rank=st.integers(1, 8),
    max_count=st.integers(1, 8),
    with_null=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivoted_orthonormalize_matches_looped_oracle(shape, rank, max_count, with_null, seed):
    n, dim = shape
    rank = min(rank, dim)
    rng = np.random.default_rng(seed)
    inner_diag = rng.choice([-1.0, 1.0], dim)
    basis = rng.normal(size=(rank, dim))
    if with_null:
        # e_0 + e_1 is null and gbar-orthogonal to e_2, e_3, ...: once the
        # other directions are accepted only a null residual remains
        inner_diag[:2] = (1.0, -1.0)
        rank = min(rank, dim - 1)
        basis = np.eye(dim)[np.r_[0, 2 + rng.permutation(dim - 2)[: rank - 1]]]
        basis[0, 1] = 1.0
    # dependent rows, rows spread over six decades, and an exact zero row
    candidates = rng.normal(size=(n, rank)) @ basis
    candidates *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    candidates[rng.integers(n)] *= float(rng.integers(2))
    got = _pivot_or_raise(pivoted_orthonormalize, candidates, inner_diag, max_count)
    want = _pivot_or_raise(looped_orthonormalize, candidates, inner_diag, max_count)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got[1].tolist() == want[1].tolist()
    _assert_same_vectors(got[0], want[0])


def _assert_frame_matches_looped(emb, met) -> None:
    """Same pivot order and signs as the looped Gram-Schmidt, vectors within 1e-13."""
    try:
        frame = classical_normal_frame(emb, met)
    except FrameConstructionError:
        frame = None
    with mock.patch.object(classical, "pivoted_orthonormalize", looped_orthonormalize):
        try:
            oracle = classical_normal_frame(emb, met)
        except FrameConstructionError:
            assert frame is None
            return
    assert frame is not None
    assert frame.sigma.tolist() == oracle.sigma.tolist()
    _assert_same_vectors(frame.vectors, oracle.vectors)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_classical_frame_matches_looped_oracle_on_catalog(name):
    for at in interior_points(CATALOG[name], (5, 5)):
        _assert_frame_matches_looped(*embed(name, at))


@settings(max_examples=60)
@given(
    dims=st.integers(3, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
)
def test_classical_frame_matches_looped_oracle_on_random_jets(dims, seed):
    emb = random_embedding(*dims, seed)
    assume(clear_of_degeneracy(emb))
    _assert_frame_matches_looped(emb, induced_metric(emb))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_candidates_rejected(bad):
    candidates = np.eye(3)
    candidates[2, 1] = bad
    with pytest.raises(FrameConstructionError, match="non-finite"):
        pivoted_orthonormalize(candidates, np.ones(3), 1, null_tol=1e-10)
    emb, met = embed("torus", (1.0, 0.5))
    emb.e[0, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(FrameConstructionError, match="non-finite"):
        classical_normal_frame(emb, met)
