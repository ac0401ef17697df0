"""The bracket path's K and H against a 50-digit reference on the same jets."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbcurv.classical import evaluate_embedding, induced_metric
from pbcurv.poisson import (
    DensityChoice,
    build_bracket_table,
    gauss_full_from_table,
    mean_full_from_table,
)
from pbcurv.surfaces import CATALOG

from helpers import clear_of_degeneracy, interior_points, random_embedding
from reference import error_scales, reference_curvature

EPS = np.finfo(float).eps
# Allowed error in units of eps times reference.error_scales.  Measured worst
# over 60000 random draws: 2.5 for K and 13 for H; 1.1 and 3.2 on the catalog.
C = 64.0


def _check_against_reference(emb, density: str) -> None:
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(density))
    k = gauss_full_from_table(table, emb, met)
    h = mean_full_from_table(table, emb, met)
    k_ref, h_ref = reference_curvature(emb)
    s_k, s_h = error_scales(table, emb, met, k_ref, h_ref)
    assert abs(k - k_ref) <= C * EPS * s_k, (k, k_ref, s_k)
    assert np.all(np.abs(h - h_ref) <= C * EPS * s_h), (h, h_ref, s_h)


@settings(max_examples=200)
@given(
    dims=st.integers(3, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from(["unit", "sqrtg"]),
)
def test_kh_within_rounding_of_reference_on_random_jets(dims, seed, density):
    m, nu = dims
    emb = random_embedding(m, nu, seed)
    assume(clear_of_degeneracy(emb))
    _check_against_reference(emb, density)


@pytest.mark.parametrize("density", ["sqrt_abs_g", "unit"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_kh_within_rounding_of_reference(name, density):
    spec = CATALOG[name]
    for at in interior_points(spec, (5, 5)):
        _check_against_reference(
            evaluate_embedding(spec.signature, spec.coord_asts, at), density
        )
