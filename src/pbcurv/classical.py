"""Classical curvature of a parametrized surface from fundamental forms.

This module never touches Poisson brackets.  It evaluates the embedding
through order-2 jets, builds the induced metric, a pseudo-orthonormal
normal frame by pivoted Gram-Schmidt, and the second fundamental form,
and from those the Gauss curvature and mean curvature vector.  The
bracket-based module is checked against these values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError, FrameConstructionError
from .exprlang import Ast, eval_jet
from .jets import Jet1, Jet2
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
    are consistent with the jets by construction.
    """

    sig: AmbientSignature
    x: list[Jet2]
    at: tuple[float, float]
    e: np.ndarray = field(init=False)
    xdd: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if len(self.x) != self.sig.m:
            raise ValueError(
                f"expected {self.sig.m} coordinate jets, got {len(self.x)}"
            )
        self.e = np.array([jet.grad for jet in self.x]).T  # (2, m)
        self.xdd = np.array([jet.hess for jet in self.x])  # (m, 2, 2)

    @property
    def values(self) -> np.ndarray:
        return np.array([jet.value for jet in self.x])


def evaluate_embedding(
    sig: AmbientSignature, coords: list[Ast], at: tuple[float, float]
) -> EmbeddingEval:
    """Evaluate coordinate expressions to jets at a parameter point."""
    return EmbeddingEval(sig, [eval_jet(ast, at) for ast in coords], at)


@dataclass(eq=False)
class InducedMetric:
    """First fundamental form at one point."""

    gab: np.ndarray  # (2, 2)
    det_g: float
    ind_g: int
    ginv: np.ndarray  # (2, 2)


def induced_metric(emb: EmbeddingEval) -> InducedMetric:
    gbar = emb.sig.gbar
    gab = np.einsum("i,ai,bi->ab", gbar, emb.e, emb.e)
    (g00, g01), (g10, g11) = gab.tolist()
    det_g = g00 * g11 - g01 * g10  # Python floats: no numpy warning on overflow
    if not (np.isfinite(gab).all() and np.isfinite(det_g)):
        raise DegenerateMetricError(f"induced metric is not finite: det g = {det_g!r}")
    scale = max(float(np.abs(gab).max()), 1.0)
    if abs(det_g) < DEGENERACY_TOL * scale * scale:
        raise DegenerateMetricError(f"induced metric is singular: det g = {det_g!r}")
    ginv = (
        np.array([[gab[1, 1], -gab[0, 1]], [-gab[1, 0], gab[0, 0]]]) / det_g
    )
    if det_g < 0.0:
        ind_g = 1
    else:
        ind_g = 0 if gab[0, 0] > 0.0 else 2
    return InducedMetric(gab, det_g, ind_g, ginv)


def det_g_jet(emb: EmbeddingEval) -> Jet1:
    """det g with its parameter gradient, for the sqrt|det g| density.

    half[a, b, c] = gbar(d_c e_a, e_b), so d_c g_ab = half[a, b, c] + half[b, a, c]
    and d det g = g00 d g11 + g11 d g00 - 2 g01 d g01.
    """
    gbar = emb.sig.gbar
    (g00, g01), (_, g11) = np.einsum("i,ai,bi->ab", gbar, emb.e, emb.e).tolist()
    half = np.einsum("i,iac,bi->abc", gbar, emb.xdd, emb.e)
    dg = half + half.transpose(1, 0, 2)
    return Jet1(g00 * g11 - g01 * g01, g00 * dg[1, 1] + g11 * dg[0, 0] - 2.0 * g01 * dg[0, 1])


@dataclass(eq=False)
class NormalFrame:
    """Pseudo-orthonormal basis of the normal space.

    vectors[A] is the A-th normal; sigma[A] = gbar(N_A, N_A) = +-1.
    """

    vectors: np.ndarray  # (p, m)
    sigma: np.ndarray  # (p,) entries +-1


class _NullPivot(Exception):
    pass


def pivoted_orthonormalize(
    candidates: np.ndarray,
    inner_diag: np.ndarray,
    max_count: int,
    *,
    null_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy Gram-Schmidt under a diagonal +-1 inner product.

    All residuals sit in one array; each round projects them against the
    newest accepted vector only (modified Gram-Schmidt), picks the residual
    w with the largest |<w, w>| / |w|^2 and normalizes it by sqrt(|<w, w>|).
    Near-ties go to the lowest candidate index, so the pivot order does not
    jitter under tiny parameter perturbations (definite signatures tie
    every candidate at quality one).  Residuals much shorter than the
    round's longest are left out of the tie: they are dominated by
    cancellation noise from the projections, and normalizing one would
    contaminate the frame even though its quality still looks perfect.
    Candidates whose residual shrinks below DROP_TOL times their original
    size are treated as dependent and skipped.  Raises _NullPivot if only
    null residuals remain while independent candidates still exist, and
    FrameConstructionError if a candidate is not finite.
    """
    if not np.isfinite(candidates).all():
        raise FrameConstructionError("normal candidates are non-finite")
    pre = np.sqrt(np.einsum("ij,ij->i", candidates, candidates))
    keep = pre > DROP_TOL
    resid, floor = candidates[keep], DROP_TOL * pre[keep]
    accepted: list[np.ndarray] = []
    signs: list[int] = []
    while len(accepted) < max_count:
        sq = np.einsum("ij,ij->i", resid, resid)
        norms = np.sqrt(sq)
        live = norms > floor  # others are numerically inside the accepted span
        if not live.any():
            break  # pool exhausted: the span is fully captured
        live &= norms >= 1e-3 * norms[live].max()
        # add.reduce sums each row as np.sum sums it alone: no rounding depends on the batch
        weighted = inner_diag * resid
        ips = np.add.reduce(weighted * resid, axis=1)
        quality = np.divide(np.abs(ips), sq, out=np.full(len(sq), -1.0), where=live)
        top = quality.max()
        if top <= null_tol:
            raise _NullPivot(len(accepted))
        best = int(np.argmax(quality >= top - 1e-9))
        sign = 1 if ips[best] > 0 else -1
        vec = resid[best] / np.sqrt(abs(ips[best]))
        resid = resid - (sign * np.add.reduce(weighted * vec, axis=1))[:, None] * vec
        accepted.append(vec)
        signs.append(sign)
    return np.reshape(accepted, (len(accepted), candidates.shape[1])), np.array(signs, dtype=int)


def classical_normal_frame(
    emb: EmbeddingEval,
    met: InducedMetric,
    seed_basis: np.ndarray | None = None,
) -> NormalFrame:
    """Normal frame from Gram-Schmidt on the ambient coordinate basis.

    Each seed vector is first projected off the tangent plane using the
    inverse induced metric, then the pool is orthonormalized under gbar
    with greedy pivoting on |gbar(w, w)| / |w|^2.  The result satisfies
    gbar(N_A, N_B) = sigma_A delta_AB with sigma_A = +-1.
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    gbar = sig.gbar
    basis = np.eye(m) if seed_basis is None else np.asarray(seed_basis, dtype=float)
    if basis.shape != (m, m):
        raise ValueError(f"seed basis must be {m}x{m}, got {basis.shape}")
    # v -> v - g^{ab} gbar(v, e_a) e_b removes the tangential part.
    pairings = np.einsum("ji,i,ai->ja", basis, gbar, emb.e)  # (m, 2)
    candidates = basis - pairings @ met.ginv @ emb.e
    try:
        vectors, signs = pivoted_orthonormalize(
            candidates, gbar, p, null_tol=1e-10
        )
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
    return np.einsum("i,iab,Ai->Aab", emb.sig.gbar, emb.xdd, frame.vectors)


def classical_gauss(met: InducedMetric, frame: NormalFrame, h: np.ndarray) -> float:
    dets = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    return float(np.sum(frame.sigma * dets) / met.det_g)


def classical_mean(met: InducedMetric, frame: NormalFrame, h: np.ndarray) -> np.ndarray:
    traces = np.einsum("ab,Aab->A", met.ginv, h)
    return 0.5 * np.einsum("A,A,Ai->i", frame.sigma.astype(float), traces, frame.vectors)


def normal_projector(sig: AmbientSignature, frame: NormalFrame) -> np.ndarray:
    """Sum of sigma_A N_A^k N_A^l: the normal block of the inverse metric.

    Frame independent, so it is the natural object for comparing two
    normal frames of the same surface.
    """
    return np.einsum("A,Ak,Al->kl", frame.sigma.astype(float), frame.vectors, frame.vectors)
