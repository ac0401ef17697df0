"""Flat ambient signatures and the brute-force permutation-symbol contraction.

The curvature formulas contract two rank-m permutation symbols over all
but three slots: eps_{jklL} eps^{irnL} = (m-3)! delta^{irn}_{jkl}.
Production code (poisson.gauss_full_from_table and mean_full_from_table)
applies this identity to whole (m, m, m) tensors.  eps_contract_naive
sums the left side over every multi-index on plain integers; it feeds
the brute-force oracles gauss_naive and mean_naive in tests/helpers.py.
The tests keep the scalar closed form and the symbol itself as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionCapError

# Cap on m for the oracle paths whose cost grows like m**(m-3).
MAX_M = 8


def ensure_within_cap(m: int, what: str) -> None:
    if m > MAX_M:
        raise DimensionCapError(
            f"{what} needs ambient dimension m={m} but the cap is {MAX_M}"
        )


@dataclass(frozen=True)
class AmbientSignature:
    """Diagonal metric of R^m with the first nu entries equal to -1."""

    m: int
    nu: int

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"ambient dimension must be at least 3, got {self.m}")
        if not 0 <= self.nu <= self.m:
            raise ValueError(f"index nu must lie in [0, {self.m}], got {self.nu}")

    @property
    def gbar(self) -> np.ndarray:
        """The diagonal (m,), one read-only array per signature."""
        return _gbar(self.m, self.nu)

    @property
    def codim(self) -> int:
        return self.m - 2

    def product_over(self, indices: tuple[int, ...]) -> float:
        """Product of metric entries over a 1-based multi-index."""
        out = 1.0
        for i in indices:
            if i <= self.nu:
                out = -out
        return out


@lru_cache(maxsize=None)
def _gbar(m: int, nu: int) -> np.ndarray:
    diag = np.ones(m)
    diag[:nu] = -1.0
    diag.setflags(write=False)
    return diag


def _validate_indices(indices: tuple[int, ...], m: int) -> None:
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range 1..{m}")


def permutation_sign(seq: tuple[int, ...]) -> int:
    """Sign of the permutation that sorts seq, whose entries are distinct."""
    inversions = sum(x > y for a, x in enumerate(seq) for y in seq[a + 1:])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def eps_table(m: int) -> np.ndarray:
    """Dense rank-m permutation symbol, entries in {-1, 0, 1}."""
    ensure_within_cap(m, "the dense permutation-symbol table")
    table = np.zeros((m,) * m, dtype=np.int8)
    for perm in itertools.permutations(range(m)):
        table[perm] = permutation_sign(perm)
    table.setflags(write=False)
    return table


def eps_contract_naive(jkl: tuple[int, int, int], irn: tuple[int, int, int], m: int) -> int:
    """Sum of eps[jkl + L] * eps[irn + L] over every multi-index L.

    Literal enumeration of all m**(m-3) values of L.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    _validate_indices(jkl, m)
    _validate_indices(irn, m)
    table = eps_table(m)
    j, k, l = (i - 1 for i in jkl)
    i_, r, n = (i - 1 for i in irn)
    left = table[j, k, l]
    right = table[i_, r, n]
    if m == 3:
        return int(left) * int(right)
    return int(np.sum(left * right, dtype=np.int64))
