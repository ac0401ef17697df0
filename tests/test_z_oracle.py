"""The bracket normal projector and frame against the constructions they replaced.

build_z has one row per sorted multi-index J, C(m, 3) rows.  The oracle
here is the construction it replaced: one row per ordered multi-index,
m**(m-3) rows, each the contraction of the dense permutation symbol
eps_{iklJ} with the coordinate-bracket matrix.  Rows of permuted
multi-indices are +-1 times each other, so both builds share the trace,
Z_lower^T Z_upper and the normal space their frames span.

The production code carries the projector on its m x m core,
Pi = delta_sign M gbar with M = Z_lower^T Z_upper.  The C(m, 3) x C(m, 3)
matrix it replaced, Zmat = delta_sign Z_upper gbar Z_lower^T, is built
here as an oracle: the cyclic products share their trace and their
nonzero eigenvalues.

normal_frame_from_z orthonormalizes the columns of Pi under gbar.  Its
oracles are the frames it replaced: the rows of Z_lower under gbar, and
the rows of Zmat under the multi-index metric with the looped
Gram-Schmidt, contracted with Z_upper.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    clear_of_degeneracy,
    interior_points,
    looped_orthonormalize,
    point_setup,
    random_embedding,
    z_projector,
)
from pbcurv.classical import (
    NormalFrame,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    normal_projector,
    pivoted_orthonormalize,
)
from pbcurv.errors import FrameConstructionError
from pbcurv.exprlang import Exprs, parse_expression
from pbcurv.poisson import (
    Z_TOL,
    DensityChoice,
    ZData,
    build_bracket_table,
    build_z,
    normal_frame_from_z,
    zmap_invariants,
)
from pbcurv.surfaces import CATALOG
from pbcurv.tensor import MAX_M, AmbientSignature, ensure_within_cap, eps_table


def multi_indices(m: int, length: int):
    """All 1-based multi-indices of the given length, lexicographic."""
    return itertools.product(range(1, m + 1), repeat=length)


def build_z_ordered(table, emb, met) -> ZData:
    """The projector over all ordered multi-indices of length codim-1.

    Each row contracts the rank-m permutation symbol with the
    coordinate-bracket matrix, scaled by rho / (2 sqrt(|g| (codim-1)!)).
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    ensure_within_cap(m, "the ordered-multi-index projector")
    gb = sig.gbar
    scale = table.rho.value / (2.0 * math.sqrt(abs(met.det_g) * math.factorial(p - 1)))
    tab = eps_table(m)
    idxs = list(multi_indices(m, p - 1))
    ZL = np.zeros((len(idxs), m))
    for row, J in enumerate(idxs):
        jsel = tuple(j - 1 for j in J)
        sub = tab[(slice(None),) * 3 + jsel]  # eps with trailing slots at J
        ZL[row] = scale * gb * np.einsum("ikl,kl->i", sub, table.P)
    gJ = np.array([sig.product_over(J) for J in idxs])
    ZU = ZL * gJ[:, None]
    delta = sig.nu - met.ind_g
    return ZData(idxs, gJ, ZL, ZU, delta, (-1) ** delta)


def zmat(zd: ZData, sig: AmbientSignature) -> np.ndarray:
    """The mixed-index projector delta_sign Z_upper gbar Z_lower^T on the multi-indices."""
    return zd.delta_sign * np.einsum("Ii,i,Ji->IJ", zd.Z_upper, sig.gbar, zd.Z_lower)


def assert_core_matches_zmat(zd: ZData, sig: AmbientSignature) -> None:
    """Zmat = A B and Pi = B A share their trace and their nonzero spectrum.

    Both are projectors of rank codim: codim eigenvalues 1, the rest 0.
    Neither is symmetric where gbar is indefinite, and their entries reach
    the hundreds there, so each bound is relative to the larger of them.
    """
    big, core = zmat(zd, sig), z_projector(zd, sig)
    scale = 1e-12 * max(1.0, float(np.abs(big).max()), float(np.abs(core).max()))
    assert abs(np.trace(big) - np.trace(core)) <= scale
    p = sig.codim
    spectra = [np.sort_complex(np.linalg.eigvals(x))[::-1] for x in (big, core)]
    assert np.abs(spectra[0][:p] - spectra[1][:p]).max() <= scale
    assert np.abs(spectra[0][p:]).max(initial=0.0) <= scale
    assert np.abs(spectra[1][p:]).max() <= scale


def normal_frame_from_z_lower(zd: ZData, sig: AmbientSignature) -> NormalFrame:
    """The frame from the C(m, 3) rows of Z_lower, orthonormalized under gbar."""
    normals, sigma = pivoted_orthonormalize(zd.Z_lower, sig.gbar, sig.m, null_tol=Z_TOL)
    assert normals.shape[0] == sig.codim
    return NormalFrame(normals, sigma)


def normal_frame_from_zmat(zd: ZData, sig: AmbientSignature) -> NormalFrame:
    """The frame from the rows of Zmat, orthonormalized under the multi-index metric.

    Contracting the orthonormal image covectors with the raised normal
    vectors gives the normals; their signs carry the factor delta_sign.
    """
    big = zmat(zd, sig)
    vecs, signs = looped_orthonormalize(big, zd.weights, big.shape[0], null_tol=1e-8)
    assert vecs.shape[0] == sig.codim
    normals = vecs @ zd.Z_upper
    sigma = zd.delta_sign * signs
    gram = np.einsum("Ai,i,Bi->AB", normals, sig.gbar, normals)
    assert float(np.abs(gram - np.diag(sigma)).max()) <= 1e-8
    # One more looped pass under gbar takes out the orthonormality defect
    # that the multi-index rounds leave: 1.9e-12 at m=8, nu=5, where Zmat's
    # entries reach 60, which alone would exceed the 1e-12 agreement bound.
    normals, refined = looped_orthonormalize(normals, sig.gbar, sig.codim, null_tol=1e-8)
    assert sorted(refined.tolist()) == sorted(sigma.tolist())
    return NormalFrame(normals, refined)


def _scaled(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(diff).max()) / max(1.0, float(np.abs(ref).max()))


def assert_builds_agree(table, emb, met) -> None:
    sig = emb.sig
    zs = build_z(table, emb, met)
    zo = build_z_ordered(table, emb, met)
    assert len(zs.indices) == math.comb(sig.m, 3)
    assert abs(np.trace(zmat(zs, sig)) - np.trace(zmat(zo, sig))) <= 1e-12
    assert_core_matches_zmat(zs, sig)
    assert_core_matches_zmat(zo, sig)
    zz = zo.Z_lower.T @ zo.Z_upper
    assert _scaled(zs.Z_lower.T @ zs.Z_upper - zz, zz) <= 1e-12
    frame_s = normal_frame_from_z(zs, sig)
    frame_o = normal_frame_from_z(zo, sig)
    proj = normal_projector(sig, frame_o)
    assert _scaled(normal_projector(sig, frame_s) - proj, proj) <= 1e-12
    assert sorted(frame_s.sigma.tolist()) == sorted(frame_o.sigma.tolist())
    if sig.m <= 4:  # the same rows in the same order
        assert np.array_equal(zmat(zs, sig), zmat(zo, sig))


def test_multi_indices():
    idx = list(multi_indices(3, 2))
    assert len(idx) == 9
    assert idx[0] == (1, 1)
    assert idx[-1] == (3, 3)
    assert list(multi_indices(5, 0)) == [()]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sorted_build_matches_ordered_oracle_on_catalog(name):
    for at in interior_points(CATALOG[name], (4, 4)):
        spec, emb, met, table = point_setup(name, at)
        assert_builds_agree(table, emb, met)


@settings(max_examples=40)
@given(
    dims=st.integers(3, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from(["unit", "sqrtg", "expr:1.7 + sin(1.3*u - v)"]),
)
def test_sorted_build_matches_ordered_oracle_on_random_jets(dims, seed, density):
    m, nu = dims
    emb = random_embedding(m, nu, seed)
    assume(clear_of_degeneracy(emb))
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(density))
    assert_builds_agree(table, emb, met)


def test_projector_above_the_cap():
    coords = ["u", "v", "u*v", "u^2", "v^2", "sin(u)", "cos(v)", "u + v^2", "exp(0.3*u*v)"]
    sig = AmbientSignature(len(coords), 0)
    assert sig.m > MAX_M
    emb = evaluate_embedding(sig, Exprs(parse_expression(c) for c in coords), (0.4, 0.6))
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.sqrt_abs_g())
    zd = build_z(table, emb, met)
    assert len(zd.indices) == 84
    assert_core_matches_zmat(zd, sig)
    for key, value in zmap_invariants(zd, table, emb, met).items():
        assert value <= 1e-12, (key, value)
    proj = normal_projector(sig, classical_normal_frame(emb, met))
    assert _scaled(normal_projector(sig, normal_frame_from_z(zd, sig)) - proj, proj) <= 1e-12


def assert_frame_matches_oracles(table, emb, met, z_lower_tol: float = 1e-12) -> None:
    sig = emb.sig
    zd = build_z(table, emb, met)
    frame = normal_frame_from_z(zd, sig)
    oracles = (normal_frame_from_zmat(zd, sig), normal_frame_from_z_lower(zd, sig))
    for oracle, tol in zip(oracles, (1e-12, z_lower_tol)):
        proj = normal_projector(sig, oracle)
        assert _scaled(normal_projector(sig, frame) - proj, proj) <= tol
        assert sorted(frame.sigma.tolist()) == sorted(oracle.sigma.tolist())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_z_frame_matches_zmat_oracle_on_catalog(name):
    for at in interior_points(CATALOG[name], (5, 5)):
        for rho in ("unit", "sqrt_abs_g"):
            spec, emb, met, table = point_setup(name, at, rho)
            assert_frame_matches_oracles(table, emb, met)


@settings(max_examples=60)
@given(
    dims=st.integers(3, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from(["unit", "sqrtg", "expr:1.7 + sin(1.3*u - v)"]),
)
def test_z_frame_matches_zmat_oracle_on_random_jets(dims, seed, density):
    m, nu = dims
    emb = random_embedding(m, nu, seed)
    assume(clear_of_degeneracy(emb))
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(density))
    # The greedy pivot over the C(m, 3) rows of Z_lower is the less accurate
    # oracle here: at m=8, nu=6 (seed 43707) its projector is 1.2e-11 from a
    # long-double evaluation of gbar - e^T g^-1 e, where the frame's is 2e-14.
    assert_frame_matches_oracles(table, emb, met, z_lower_tol=1e-10)


def test_z_frame_rejects_non_finite_rows():
    spec, emb, met, table = point_setup("r5-product")
    zd = build_z(table, emb, met)
    zd.Z_lower[1, 0] = math.nan
    with pytest.raises(FrameConstructionError, match="non-finite"):
        normal_frame_from_z(zd, emb.sig)
