"""Flat ambient signatures, permutation symbols, and symbol contractions.

The curvature formulas contract two rank-m permutation symbols over all
but three slots: eps_{jklL} eps^{irnL} = (m-3)! delta^{irn}_{jkl}.
Production code (poisson.gauss_full_from_table and mean_full_from_table)
applies this identity to whole (m, m, m) tensors and never calls the
scalar functions here.  Two scalar versions stay for tests and for the
"naive" oracle path: a brute-force sum over every multi-index and the
closed form with six signed Kronecker-delta pairings times (m-3)!.  Both
work on plain integers, so their agreement is exact, not approximate.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionCapError

DEFAULT_MAX_M = 8
_ENV_CAP = "PBCURV_MAX_M"


def max_dimension() -> int:
    """Cap on m for paths whose cost grows like m**(m-3)."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_M
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"{_ENV_CAP} must be an integer, got {raw!r}") from exc
    if cap < 3:
        raise DimensionCapError(f"{_ENV_CAP} must be at least 3, got {cap}")
    return cap


def ensure_within_cap(m: int, what: str) -> None:
    cap = max_dimension()
    if m > cap:
        raise DimensionCapError(
            f"{what} needs ambient dimension m={m} but the cap is {cap} "
            f"(set {_ENV_CAP} to raise it)"
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
        diag = np.ones(self.m)
        diag[: self.nu] = -1.0
        return diag

    @property
    def codim(self) -> int:
        return self.m - 2

    def det_sign(self) -> int:
        return (-1) ** self.nu

    def product_over(self, indices: tuple[int, ...]) -> float:
        """Product of metric entries over a 1-based multi-index."""
        out = 1.0
        for i in indices:
            if i <= self.nu:
                out = -out
        return out


def _validate_indices(indices: tuple[int, ...], m: int) -> None:
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range 1..{m}")


def eps_symbol(indices: tuple[int, ...]) -> int:
    """Permutation symbol on len(indices) letters, 1-based entries."""
    m = len(indices)
    _validate_indices(indices, m)
    if len(set(indices)) != m:
        return 0
    sign = 1
    seq = list(indices)
    for a in range(m):
        for b in range(a + 1, m):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def eps_table(m: int) -> np.ndarray:
    """Dense rank-m permutation symbol, entries in {-1, 0, 1}."""
    ensure_within_cap(m, "the dense permutation-symbol table")
    table = np.zeros((m,) * m, dtype=np.int8)
    for perm in itertools.permutations(range(m)):
        sign = 1
        for a in range(m):
            for b in range(a + 1, m):
                if perm[a] > perm[b]:
                    sign = -sign
        table[perm] = sign
    table.setflags(write=False)
    return table


def multi_indices(m: int, length: int):
    """All 1-based multi-indices of the given length, lexicographic."""
    return itertools.product(range(1, m + 1), repeat=length)


def eps_contract_naive(jkl: tuple[int, int, int], irn: tuple[int, int, int], m: int) -> int:
    """Sum of eps[jkl + L] * eps[irn + L] over every multi-index L.

    Literal enumeration of all m**(m-3) values of L; kept as the oracle
    for the closed form below.
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


def eps_contract_reduced(jkl: tuple[int, int, int], irn: tuple[int, int, int], m: int) -> int:
    """Closed form: (m-3)! times the 3x3 determinant of index deltas.

    Constant work per call; no enumeration over trailing multi-indices.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    _validate_indices(jkl, m)
    _validate_indices(irn, m)
    d = [[1 if a == b else 0 for b in irn] for a in jkl]
    det = (
        d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
        - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
        + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0])
    )
    return math.factorial(m - 3) * det
