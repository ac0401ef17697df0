"""Classical curvature of a parametrized surface from fundamental forms.

This module never touches Poisson brackets.  It evaluates the embedding
through order-2 jets, builds the induced metric, a pseudo-orthonormal
normal frame by pivoted Gram-Schmidt, and the second fundamental form,
and from those the Gauss curvature and mean curvature vector.  The
bracket-based module is checked against these values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateMetricError, FrameConstructionError, NonFiniteCurvatureError
from .exprlang import Exprs, eval_jet
from .jets import Jet2
from .tensor import AmbientSignature

# Relative floor on |det g| before the metric counts as singular.
DEGENERACY_TOL = 1e-10
# Relative size below which a Gram-Schmidt residual counts as dependent.
DROP_TOL = 1e-8


@dataclass(eq=False)
class EmbeddingEval:
    """Jet data of the embedding at one parameter point.

    x holds the m coordinate jets; e[a, i] and xdd[i, a, b] are views of
    their gradient and Hessian slots, so tangents and second derivatives
    are consistent with the jets by construction.  l and p are 0 unless
    the point is normalised (see normalised).  unit_tables keeps, per
    density, what poisson.gauss_full and mean_full build on the normalised
    point, so the two share it.
    """

    sig: AmbientSignature
    x: list[Jet2]
    at: tuple[float, float]
    e: np.ndarray = field(init=False)
    xdd: np.ndarray = field(init=False)
    l: int = 0
    p: int = 0
    unit_tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != self.sig.m:
            raise ValueError(
                f"expected {self.sig.m} coordinate jets, got {len(self.x)}"
            )
        self.e = np.array([jet.grad for jet in self.x]).T  # (2, m)
        self.xdd = np.array([jet.hess for jet in self.x])  # (m, 2, 2)

    @property
    def values(self) -> np.ndarray:
        return np.ldexp(np.array([jet.value for jet in self.x]), self.l)

    def normalised(self) -> EmbeddingEval:
        """The same point moved to unit size by exact powers of two.

        With E and X the frexp exponents of max|e| and max|x_ab| (X = E
        where x_ab = 0), the result is 2^l x in the parameters 2^p (u, v),
        l = X - 2E and p = X - E: e' = 2^-E e and x'_ab = 2^-X x_ab, both
        with their largest entry in [1/2, 1).  K and H are homogeneous,
        so K' = 2^-2l K and H' = 2^-l H, and unscale_gauss and
        unscale_mean take them back.  The jets in x are not rescaled.
        """
        e, xdd, l, p = normalise_rows(self.e[None], self.xdd[None])
        out = object.__new__(EmbeddingEval)  # copy.copy, at a quarter of its cost
        out.__dict__.update(vars(self), e=e[0], xdd=xdd[0], unit_tables={})
        out.l, out.p = self.l + int(l[0]), self.p + int(p[0])
        return out

    def unscale_gauss(self, k: float) -> float:
        """K of the evaluated surface from K' of this point: 2^2l K'."""
        y, over, under = unscaled_rows(np.float64(k), 2 * self.l)  # numpy scalars: no arrays
        fail_closed("Gauss curvature K", over, under)
        return float(y)

    def unscale_mean(self, h: np.ndarray) -> np.ndarray:
        """H of the evaluated surface from H' of this point: 2^l H'."""
        y, over, under = unscaled_rows(h, self.l)
        fail_closed("mean curvature vector H", over, under)
        return y


def normalise_rows(e: np.ndarray, xdd: np.ndarray):
    """EmbeddingEval.normalised for N points at once.

    e is (N, 2, m) and xdd (N, m, 2, 2); returns e', xdd' and the
    exponents l and p, one per row.
    """
    E = np.frexp(np.abs(e).max(axis=(1, 2)))[1]
    top = np.abs(xdd).max(axis=(1, 2, 3))
    X = np.frexp(top)[1] + (top == 0.0) * E  # frexp(0) = (0, 0)
    return np.ldexp(e, -E[:, None, None]), np.ldexp(xdd, -X[:, None, None, None]), X - 2 * E, X - E


def unscaled_rows(x: np.ndarray, n):
    """2^n x entry by entry, and the entries where that leaves the float range.

    Returns 2^n x, where it is infinite (over), and where a nonzero x
    lands on a subnormal or on zero (under); exact zeros and NaN pass.
    n broadcasts against x.
    """
    y = np.ldexp(x, n)
    size = np.abs(y)
    return y, size > sys.float_info.max, underflowed(size, x)


def underflowed(size: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Where |2^n x| = size fell below the normal range although x is nonzero."""
    return (size < sys.float_info.min) & (x != 0.0)


def fail_closed(name: str, over: np.ndarray, under: np.ndarray) -> None:
    """Raise for a flagged entry: over (not finite) first, then under (underflow).

    The masks are arrays or numpy booleans of one value.
    """
    if _flagged(over):
        raise NonFiniteCurvatureError(f"{name} is not finite")
    if _flagged(under):
        raise NonFiniteCurvatureError("bracket products underflow the float range")


def _flagged(mask) -> bool:
    # a tenth of the cost of mask.any() on a few entries
    return bool(mask) if mask.ndim == 0 else any(mask.tolist())


def evaluate_embedding(
    sig: AmbientSignature, coords: Exprs, at: tuple[float, float]
) -> EmbeddingEval:
    """Evaluate coordinate expressions to jets at a parameter point: one walk of their tape."""
    return EmbeddingEval(sig, eval_jet(coords.tape, at), at)


@dataclass(eq=False)
class InducedMetric:
    """First fundamental form at one point."""

    gab: np.ndarray  # (2, 2)
    det_g: float
    ind_g: int
    ginv: np.ndarray  # (2, 2)


def induced_metric(emb: EmbeddingEval) -> InducedMetric:
    gab, det, non_finite, singular = metric_rows(emb.sig.gbar, emb.e[None])
    gab, det = gab[0], det[0]
    det_g = float(det)
    if non_finite[0]:
        raise DegenerateMetricError(f"induced metric is not finite: det g = {det_g!r}")
    if singular[0]:
        raise DegenerateMetricError(f"induced metric is singular: det g = {det_g!r}")
    return InducedMetric(gab, det_g, int(index_rows(gab, det_g)), inverse_rows(gab, det))


def _gram_rows(gbar: np.ndarray, e: np.ndarray):
    """g_ab = gbar(e_a, e_b) (N, 2, 2) and det g (N,) per row of e (N, 2, m)."""
    gab = (e * gbar) @ e.transpose(0, 2, 1)
    return gab, gab[:, 0, 0] * gab[:, 1, 1] - gab[:, 0, 1] * gab[:, 1, 0]


def metric_rows(gbar: np.ndarray, e: np.ndarray):
    """g_ab and det g per row, and the rows whose metric is not finite or is singular.

    Singular means |det g| < DEGENERACY_TOL max(1, max|g_ab|)^2.  A NaN or
    infinite g_ab leaves det g NaN or infinite, so det g alone tells
    whether the metric is finite.
    """
    gab, det = _gram_rows(gbar, e)
    scale = np.maximum(np.abs(gab).max(axis=(1, 2)), 1.0)
    return gab, det, ~np.isfinite(det), np.abs(det) < DEGENERACY_TOL * scale * scale


# adj g = _ADJUGATE_SIGNS * g[::-1, ::-1] for a 2x2 g
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inverse_rows(gab: np.ndarray, det: np.ndarray) -> np.ndarray:
    """g^ab = adj g / det g, per row (N, 2, 2) or for one point (2, 2)."""
    return gab[..., ::-1, ::-1] * _ADJUGATE_SIGNS / det[..., None, None]


def index_rows(gab: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The index of g, its count of negative eigenvalues (0, 1 or 2), per row or for one point.

    det g < 0 means one negative eigenvalue; otherwise g_00 gives the sign of both.
    """
    return (det < 0.0) + 2 * ((det >= 0.0) & (gab[..., 0, 0] <= 0.0))


def det_g_rows(gbar: np.ndarray, e: np.ndarray, xdd: np.ndarray, gram=None):
    """det g and its parameter gradient per row.

    gram is the rows' (g_ab, det g) where the caller has them (metric_rows),
    or None to compute them here.

    By Jacobi's formula d_c det g = tr(adj g d_c g), and d_c g_ab =
    gbar(d_c e_a, e_b) + gbar(e_a, d_c e_b), so with adj g symmetric
    d_c det g = 2 sum_ai M[a, i] x^i_ac where M = gbar (adj g) e.
    """
    n = len(e)
    gab, det = _gram_rows(gbar, e) if gram is None else gram
    M = (gab[:, ::-1, ::-1] * _ADJUGATE_SIGNS @ e) * gbar  # (N, 2, m)
    grad = 2.0 * (M.reshape(n, 1, -1) @ xdd.transpose(0, 2, 1, 3).reshape(n, -1, 2))[:, 0]
    return det, grad


@dataclass(eq=False)
class NormalFrame:
    """Pseudo-orthonormal basis of the normal space.

    vectors[A] is the A-th normal; sigma[A] = gbar(N_A, N_A) = +-1.
    """

    vectors: np.ndarray  # (p, m)
    sigma: np.ndarray  # (p,) entries +-1


class _NullPivot(Exception):
    pass


# |<w, w>| / |w|^2 at or below this makes a classical normal candidate null.
FRAME_NULL_TOL = 1e-10


def orthonormal_rows(
    candidates: np.ndarray,
    inner_diag: np.ndarray,
    max_count: int,
    *,
    null_tol,
):
    """Greedy Gram-Schmidt under a diagonal +-1 inner product, for N rows of candidates.

    candidates is (N, c, m).  Each row runs the rule of
    pivoted_orthonormalize on its own: all its residuals sit in one
    array, each round projects them against the newest accepted vector
    only (modified Gram-Schmidt), picks the residual w with the largest
    |<w, w>| / |w|^2 and normalizes it by sqrt(|<w, w>|).  Near-ties go to
    the lowest candidate index, so the pivot order does not jitter under
    tiny parameter perturbations (definite signatures tie every candidate
    at quality one).  Residuals much shorter than the round's longest are
    left out of the tie: they are dominated by cancellation noise from the
    projections, and normalizing one would contaminate the frame even
    though its quality still looks perfect.  Candidates whose residual
    shrinks below DROP_TOL times their original size are treated as
    dependent and skipped, so zero rows pad a pool without changing it.
    Lengths are compared squared.  null_tol is one float or one per row.

    Returns the accepted vectors (N, max_count, m), valid up to each
    row's count (N,), and their signs (N, max_count), 0 past the count;
    the rows that stopped because only null residuals remained while
    independent candidates still existed (count is then the number
    accepted before); and the rows with a non-finite candidate, whose
    other outputs mean nothing.  Each row picks its own pivots, and every
    sum runs over one residual alone (add.reduce over the last axis, as
    np.sum sums one vector), so no row's rounding depends on the other
    rows of its batch.
    """
    n, c, m = candidates.shape
    first = np.arange(0, n * c, c)  # each row's first candidate in the flattened pool
    vectors = np.zeros((n, max_count, m))
    pivots = np.zeros((n, max_count))  # <w, w> of each round's pivot
    tops = np.empty((n, max_count))  # the best quality of each round
    non_finite = ~np.logical_and.reduce(np.isfinite(candidates.reshape(n, -1)), axis=1)
    null_tol = np.reshape(null_tol, (-1,))
    resid = candidates
    # a row that stopped is still computed, and ignored, until every row has stopped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = pre = np.add.reduce(candidates * candidates, axis=2)  # squared lengths
        # inf or NaN where a candidate is dropped: it is never live
        floor = DROP_TOL**2 * pre / (pre > DROP_TOL**2)
        for k in range(max_count):
            if k:
                sq = np.add.reduce(resid * resid, axis=2)
            weighted = inner_diag * resid
            ips = np.add.reduce(weighted * resid, axis=2)
            live = sq > floor  # others are numerically inside the accepted span
            live &= sq >= 1e-6 * np.maximum.reduce(sq, axis=1, where=live, initial=0.0)[:, None]
            quality = np.abs(ips) / sq
            quality[~live] = -1.0
            top = tops[:, k] = np.maximum.reduce(quality, axis=1)  # below 0: nothing is live
            if not _flagged(top > null_tol):
                break
            best = first + (quality >= (top - 1e-9)[:, None]).argmax(axis=1)
            ip = pivots[:, k] = ips.take(best)
            # take, not fancy indexing: a quarter of its cost on a few rows
            pivot = resid.reshape(-1, m).take(best, axis=0)
            vec = vectors[:, k] = pivot / np.sqrt(np.abs(ip))[:, None]
            if k + 1 < max_count:  # the last vector projects nothing
                proj = np.add.reduce(weighted * vec[:, None], axis=2)  # <w, vec> of each residual
                resid = resid - proj[:, :, None] * (np.sign(ip)[:, None] * vec)[:, None]
    # a row keeps its pivots up to its first round with no quality above null_tol
    rounds = k + 1
    accepted = np.logical_and.accumulate(tops[:, :rounds] > null_tol[:, None], axis=1)
    count = np.add.reduce(accepted, axis=1)
    signs = np.zeros((n, max_count), dtype=int)
    signs[:, :rounds] = np.copysign(accepted, pivots[:, :rounds])  # +-1, or 0 past the count
    stopped = tops[np.arange(n), np.minimum(count, rounds - 1)]  # the stopping round's best
    return vectors, signs, count, (count < rounds) & (stopped >= 0.0), non_finite


def pivoted_orthonormalize(
    candidates: np.ndarray,
    inner_diag: np.ndarray,
    max_count: int,
    *,
    null_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """orthonormal_rows on one row of candidates (c, m): the vectors and their signs.

    Raises _NullPivot, carrying the number accepted, if only null
    residuals remain while independent candidates still exist, and
    FrameConstructionError if a candidate is not finite.
    """
    vectors, signs, count, null, non_finite = orthonormal_rows(
        candidates[None], inner_diag, max_count, null_tol=null_tol
    )
    if non_finite[0]:
        raise FrameConstructionError("normal candidates are non-finite")
    k = int(count[0])
    if null[0]:
        raise _NullPivot(k)
    return vectors[0, :k], signs[0, :k]


def normal_candidate_rows(sig: AmbientSignature, e: np.ndarray, ginv: np.ndarray, basis=None):
    """The normal candidates (N, m, m) of N points, or (m, m) of one point.

    Each is a seed vector, a row of basis (the identity by default), less
    its tangential part: v -> v - g^{ab} gbar(v, e_a) e_b.  e is (N, 2, m)
    and ginv (N, 2, 2), or (2, m) and (2, 2).
    """
    if basis is None:  # gbar(e_i, e_a) of the coordinate basis, read off e
        return _identity(sig.m) - (e * sig.gbar).swapaxes(-1, -2) @ ginv @ e
    return basis - (basis * sig.gbar) @ e.swapaxes(-1, -2) @ ginv @ e


@lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    out = np.eye(m)
    out.setflags(write=False)
    return out


def classical_normal_frame(
    emb: EmbeddingEval,
    met: InducedMetric,
    seed_basis: np.ndarray | None = None,
) -> NormalFrame:
    """Normal frame from Gram-Schmidt on the ambient coordinate basis.

    Each seed vector is first projected off the tangent plane using the
    inverse induced metric (normal_candidate_rows), then the pool is
    orthonormalized under gbar with greedy pivoting on |gbar(w, w)| / |w|^2.
    The result satisfies gbar(N_A, N_B) = sigma_A delta_AB with sigma_A = +-1.
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    basis = None if seed_basis is None else np.asarray(seed_basis, dtype=float)
    if basis is not None and basis.shape != (m, m):
        raise ValueError(f"seed basis must be {m}x{m}, got {basis.shape}")
    candidates = normal_candidate_rows(sig, emb.e, met.ginv, basis)
    try:
        vectors, signs = pivoted_orthonormalize(candidates, sig.gbar, p, null_tol=FRAME_NULL_TOL)
    except _NullPivot as exc:
        raise FrameConstructionError(
            f"only null normal candidates remain after {exc.args[0]} vectors"
        ) from exc
    if vectors.shape[0] != p:
        raise FrameConstructionError(
            f"found {vectors.shape[0]} independent normals, expected {p}"
        )
    return NormalFrame(vectors, signs)


def second_fundamental(emb: EmbeddingEval, frame: NormalFrame) -> np.ndarray:
    """h[A, a, b] = gbar(d_a d_b x, N_A); symmetric in (a, b) exactly."""
    return second_fundamental_rows(emb.sig.gbar, emb.xdd[None], frame.vectors[None])[0]


def second_fundamental_rows(gbar: np.ndarray, xdd: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """second_fundamental of N points: xdd (N, m, 2, 2) and normals (N, k, m) give (N, k, 2, 2)."""
    n, k, m = vectors.shape
    return ((vectors * gbar) @ xdd.reshape(n, m, 4)).reshape(n, k, 2, 2)


def form_dets(h: np.ndarray) -> np.ndarray:
    """det h_A over the last two axes, one per normal."""
    return h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]


def form_traces(ginv: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g^{ab} h_{A,ab} (N, p) for ginv (N, 2, 2) and h (N, p, 2, 2)."""
    n, p = h.shape[:2]
    return (h.reshape(n, p, 4) @ ginv.reshape(n, 4, 1))[:, :, 0]


def classical_gauss(met: InducedMetric, frame: NormalFrame, h: np.ndarray) -> float:
    return float(classical_gauss_rows(np.array([met.det_g]), frame.sigma[None], h[None])[0])


def classical_gauss_rows(det_g: np.ndarray, sigma: np.ndarray, h: np.ndarray) -> np.ndarray:
    """K = sum_A sigma_A det h_A / det g for N points."""
    return np.add.reduce(sigma * form_dets(h), axis=1) / det_g


def classical_mean(met: InducedMetric, frame: NormalFrame, h: np.ndarray) -> np.ndarray:
    return classical_mean_rows(met.ginv[None], frame.sigma[None], frame.vectors[None], h[None])[0]


def classical_mean_rows(ginv, sigma, vectors, h) -> np.ndarray:
    """H = 1/2 sum_A sigma_A (g^{ab} h_{A,ab}) N_A for N points: (N, m)."""
    weights = sigma * form_traces(ginv, h)
    return 0.5 * (weights[:, None, :] @ vectors)[:, 0]


def normal_projector(sig: AmbientSignature, frame: NormalFrame) -> np.ndarray:
    """Sum of sigma_A N_A^k N_A^l: the normal block of the inverse metric.

    Frame independent, so it is the natural object for comparing two
    normal frames of the same surface.
    """
    return normal_projector_rows(frame.sigma[None], frame.vectors[None])[0]


def normal_projector_rows(sigma: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """normal_projector of N frames: sigma (N, p) and vectors (N, p, m) give (N, m, m)."""
    return (vectors * sigma[:, :, None]).transpose(0, 2, 1) @ vectors
