import itertools
import math

import numpy as np
import pytest

from pbcurv import tensor
from pbcurv.errors import DimensionCapError
from pbcurv.tensor import (
    AmbientSignature,
    ensure_within_cap,
    eps_contract_naive,
    eps_table,
)

from helpers import eps_contract_reduced, eps_symbol


def test_eps_symbol_small():
    assert eps_symbol((1, 2, 3)) == 1
    assert eps_symbol((2, 1, 3)) == -1
    assert eps_symbol((1, 1, 3)) == 0
    assert eps_symbol((3, 1, 2)) == 1
    assert eps_symbol((1, 2, 3, 4)) == 1
    assert eps_symbol((2, 1, 3, 4)) == -1


def test_eps_symbol_antisymmetry():
    for perm in itertools.permutations((1, 2, 3, 4)):
        swapped = (perm[1], perm[0]) + perm[2:]
        assert eps_symbol(perm) == -eps_symbol(swapped)


def test_eps_table_matches_symbol():
    for m in (3, 4):
        table = eps_table(m)
        assert table.shape == (m,) * m
        for idx in itertools.product(range(m), repeat=m):
            expected = eps_symbol(tuple(i + 1 for i in idx))
            assert table[idx] == expected
    assert not eps_table(4).flags.writeable


def test_contract_identity_triple():
    # m=3 leaves no trailing indices: the sum is a single product
    assert eps_contract_naive((1, 2, 3), (1, 2, 3), 3) == 1
    assert eps_contract_naive((1, 2, 3), (2, 1, 3), 3) == -1
    # one trailing slot at m=4
    assert eps_contract_naive((1, 2, 3), (1, 2, 3), 4) == 1
    assert eps_contract_naive((1, 2, 3), (2, 1, 3), 4) == -1
    # two trailing slots at m=5 give (5-3)! = 2 on the diagonal
    assert eps_contract_naive((1, 2, 3), (1, 2, 3), 5) == 2
    assert eps_contract_reduced((1, 2, 3), (1, 2, 3), 5) == 2


def test_contract_repeated_index_vanishes():
    assert eps_contract_naive((1, 1, 3), (1, 2, 3), 5) == 0
    assert eps_contract_reduced((1, 1, 3), (1, 2, 3), 5) == 0


def test_contract_paths_agree_exhaustively():
    # every ordered pair of distinct triples, m up to 6
    for m in (3, 4, 5, 6):
        triples = list(itertools.permutations(range(1, m + 1), 3))
        for jkl in triples:
            for irn in triples:
                assert eps_contract_naive(jkl, irn, m) == eps_contract_reduced(
                    jkl, irn, m
                ), (jkl, irn, m)


def test_contract_symmetry_properties():
    # swapping the two triples leaves the sum unchanged; swapping two
    # entries inside one triple flips its sign
    for m in (4, 5):
        for jkl, irn in [((1, 2, 3), (2, 4, 1)), ((3, 1, 4), (1, 2, 4))]:
            assert eps_contract_reduced(jkl, irn, m) == eps_contract_reduced(
                irn, jkl, m
            )
            flipped = (jkl[1], jkl[0], jkl[2])
            assert eps_contract_reduced(flipped, irn, m) == -eps_contract_reduced(
                jkl, irn, m
            )


def test_reduced_path_needs_no_table(monkeypatch):
    # the closed form must not touch the dense symbol table; the naive
    # path must (this is what makes it constant work per call)
    def boom(m):
        raise AssertionError("dense table requested")

    monkeypatch.setattr(tensor, "eps_table", boom)
    assert eps_contract_reduced((1, 2, 3), (1, 2, 3), 7) == math.factorial(4)
    with pytest.raises(AssertionError):
        eps_contract_naive((1, 2, 3), (1, 2, 3), 4)


def test_reduced_path_beyond_any_table_size():
    # constant work regardless of m: these would need m**(m-3) terms
    assert eps_contract_reduced((1, 2, 3), (1, 2, 3), 30) == math.factorial(27)
    assert eps_contract_reduced((5, 9, 2), (9, 5, 2), 30) == -math.factorial(27)


def test_index_validation():
    with pytest.raises(ValueError):
        eps_contract_reduced((0, 1, 2), (1, 2, 3), 4)
    with pytest.raises(ValueError):
        eps_contract_naive((1, 2, 5), (1, 2, 3), 4)
    with pytest.raises(ValueError):
        eps_symbol((1, 5, 3))


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        ensure_within_cap(9, "test path")
    ensure_within_cap(8, "test path")


def test_ambient_signature():
    sig = AmbientSignature(4, 1)
    assert np.array_equal(sig.gbar, [-1.0, 1.0, 1.0, 1.0])
    assert sig.codim == 2
    assert sig.product_over((1, 2)) == -1.0
    assert sig.product_over((2, 3)) == 1.0
    assert sig.product_over(()) == 1.0
    with pytest.raises(ValueError):
        AmbientSignature(2, 0)
    with pytest.raises(ValueError):
        AmbientSignature(3, 4)
