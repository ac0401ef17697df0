"""Curvature of embedded surfaces from Poisson brackets of coordinates.

The parameter plane carries a symplectic form rho du dv; the bracket of
two functions is (d_u f d_v g - d_v f d_u g) / rho.  Brackets of the
embedding coordinates x^i among themselves and against a normal frame
assemble into operators whose traces reproduce the classical curvature
data, and a projector built purely from coordinate brackets recovers
the normal space with no frame input at all.  The two headline entry
points are gauss_full and mean_full: Gauss curvature and the mean
curvature vector from nested coordinate brackets alone.

One structural point is load bearing: a bracket of two order-2 jets is
only an order-1 jet, and the nested bracket consumes that remaining
order.  Nothing here ever reads a third derivative of the embedding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    EmbeddingEval,
    InducedMetric,
    NormalFrame,
    _NullPivot,
    det_g_jet,
    induced_metric,
    pivoted_orthonormalize,
)
from .errors import (
    FrameConstructionError,
    RankDeficiencyError,
    UsageError,
    ZeroDensityError,
)
from .exprlang import Ast, eval_jet, parse_expression
from .jets import DENOM_FLOOR, Jet1, Jet2, sqrt_abs1
from .tensor import (
    AmbientSignature,
    ensure_within_cap,
    eps_contract_naive,
    eps_table,
    multi_indices,
)

# Central-difference step for parameter derivatives of pointwise frames.
FRAME_STEP = 1e-3


# --- Density choices ----------------------------------------------------

@dataclass(frozen=True)
class DensityChoice:
    """Which symplectic density rho to use.

    kind is one of "unit", "sqrt_abs_g", "expression"; expression mode
    carries a parsed expression in u and v.  All curvature outputs are
    independent of this choice; varying it is a consistency check.
    """

    kind: str
    expr: Ast | None = None
    source: str = ""

    @staticmethod
    def unit() -> DensityChoice:
        return DensityChoice("unit", None, "unit")

    @staticmethod
    def sqrt_abs_g() -> DensityChoice:
        return DensityChoice("sqrt_abs_g", None, "sqrt_abs_g")

    @staticmethod
    def expression(source: str) -> DensityChoice:
        return DensityChoice("expression", parse_expression(source), f"expr:{source}")

    @staticmethod
    def from_string(text: str) -> DensityChoice:
        if text in ("unit", "1"):
            return DensityChoice.unit()
        if text in ("sqrt_abs_g", "sqrtg"):
            return DensityChoice.sqrt_abs_g()
        if text.startswith("expr:"):
            return DensityChoice.expression(text[len("expr:"):])
        raise UsageError(
            f"unknown density choice {text!r} (want unit, sqrtg, or expr:<source>)"
        )


def density_jet(choice: DensityChoice, emb: EmbeddingEval) -> Jet1:
    """Evaluate the density with its parameter gradient at emb's point."""
    if choice.kind == "unit":
        return Jet1.constant(1.0)
    if choice.kind == "sqrt_abs_g":
        return sqrt_abs1(det_g_jet(emb))
    assert choice.expr is not None
    rho = eval_jet(choice.expr, emb.at).lower()
    if abs(rho.value) <= DENOM_FLOOR:
        raise ZeroDensityError(
            f"density {choice.source!r} vanishes at (u, v) = {emb.at}"
        )
    return rho


# --- Brackets -----------------------------------------------------------

def poisson_bracket(f: Jet2, g: Jet2, rho: Jet1) -> Jet1:
    """Bracket of two order-2 jets; the result is an order-1 jet."""
    rv = rho.value
    if abs(rv) <= DENOM_FLOOR:
        raise ZeroDensityError(f"density value {float(rv)!r} too close to zero")
    w = f.grad[0] * g.grad[1] - f.grad[1] * g.grad[0]
    dw = np.array(
        [
            f.hess[0, a] * g.grad[1]
            + f.grad[0] * g.hess[1, a]
            - f.hess[1, a] * g.grad[0]
            - f.grad[1] * g.hess[0, a]
            for a in (0, 1)
        ]
    )
    return Jet1(w / rv, dw / rv - w * rho.grad / (rv * rv))


def nested_bracket_value(f: Jet2, b: Jet1, rho_value: float) -> float:
    """Bracket of a jet against an order-1 jet; value only.

    This is the second bracket level.  It reads nothing beyond b.grad,
    which is why order-2 jets of the embedding suffice throughout.
    """
    return (f.grad[0] * b.grad[1] - f.grad[1] * b.grad[0]) / rho_value


@dataclass(eq=False)
class BracketTable:
    """All coordinate brackets at one point.

    P[i, j] = {x^i, x^j} (exactly antisymmetric); Pgrad[i, j] is the
    parameter gradient of that bracket; rho is the density jet used.
    """

    P: np.ndarray
    Pgrad: np.ndarray
    rho: Jet1


def build_bracket_table(emb: EmbeddingEval, rho_choice: DensityChoice) -> BracketTable:
    rho = density_jet(rho_choice, emb)
    m = emb.sig.m
    P = np.zeros((m, m))
    Pgrad = np.zeros((m, m, 2))
    for i in range(m):
        for j in range(i + 1, m):
            br = poisson_bracket(emb.x[i], emb.x[j], rho)
            P[i, j] = br.value
            P[j, i] = -br.value
            Pgrad[i, j] = br.grad
            Pgrad[j, i] = -br.grad
    return BracketTable(P, Pgrad, rho)


def nested_bracket_tensor(table: BracketTable, emb: EmbeddingEval) -> np.ndarray:
    """T[i, k, l] = {x^i, {x^k, x^l}} for all coordinate triples."""
    rv = table.rho.value
    e = emb.e
    return (
        np.einsum("i,kl->ikl", e[0], table.Pgrad[:, :, 1])
        - np.einsum("i,kl->ikl", e[1], table.Pgrad[:, :, 0])
    ) / rv


# --- Frames with parameter derivatives ----------------------------------

@dataclass(eq=False)
class FrameField:
    """A pointwise normal frame plus finite-difference derivatives.

    vectors[A, i] and sigma match NormalFrame; grads[A, i, a] holds
    d_a N_A^i from central differences in the projector-transport
    gauge of frame_with_derivatives.
    """

    vectors: np.ndarray
    grads: np.ndarray
    sigma: np.ndarray


def _transported(center: NormalFrame, target: NormalFrame, gbar: np.ndarray, at) -> np.ndarray:
    """Carry the center frame into the normal space of a nearby point.

    Each center vector is pushed through the target normal projector
    (gauge invariant, so any frame of the target space serves), then the
    images are orthonormalized in fixed center order.  The map depends
    smoothly on the target point even where the pointwise pivoting rule
    switches candidates, which keeps difference quotients of the frame
    field well behaved.
    """
    coeffs = np.einsum("Ak,k,Bk->AB", center.vectors, gbar, target.vectors)
    images = np.einsum("AB,B,Bk->Ak", coeffs, target.sigma.astype(float), target.vectors)
    out = np.zeros_like(images)
    for A, w in enumerate(images):
        w = w.copy()
        for B in range(A):
            w -= center.sigma[B] * float(np.sum(gbar * w * out[B])) * out[B]
        ip = float(np.sum(gbar * w * w))
        if abs(ip) < 0.25 or (ip > 0) != (center.sigma[A] > 0):
            raise FrameConstructionError(
                f"normal frame changed character across the difference stencil at {at}"
            )
        out[A] = w / math.sqrt(abs(ip))
    return out


def frame_with_derivatives(
    build, at: tuple[float, float], sig: AmbientSignature, step: float = FRAME_STEP
) -> FrameField:
    """Differentiate a pointwise frame constructor by central differences.

    build maps a parameter point to a NormalFrame.  Frames at the
    stencil points are replaced by projector transports of the center
    frame (see _transported), then combined with fourth-order weights.
    The transported field is exactly the center frame at the center and
    stays smooth in the stencil parameter, so the quotients converge at
    full order even where the pointwise construction picks pivots
    non-smoothly.
    """
    u, v = at
    center = build((u, v))
    gbar = sig.gbar
    grads = np.zeros(center.vectors.shape + (2,))
    for axis, (du, dv) in enumerate(((1.0, 0.0), (0.0, 1.0))):

        def shifted(k: float) -> np.ndarray:
            q = (u + k * step * du, v + k * step * dv)
            return _transported(center, build(q), gbar, at)

        grads[:, :, axis] = (
            shifted(-2.0) - 8.0 * shifted(-1.0) + 8.0 * shifted(1.0) - shifted(2.0)
        ) / (12.0 * step)
    return FrameField(center.vectors, grads, center.sigma)


def s_operator(table: BracketTable, emb: EmbeddingEval, frame: FrameField) -> np.ndarray:
    """S[A, i, j] = {x^i, N_A^j} for every frame vector."""
    rv = table.rho.value
    e = emb.e
    return (
        np.einsum("i,Aj->Aij", e[0], frame.grads[:, :, 1])
        - np.einsum("i,Aj->Aij", e[1], frame.grads[:, :, 0])
    ) / rv


# --- Trace identities ---------------------------------------------------

def p2_trace(table: BracketTable, sig: AmbientSignature) -> float:
    """Trace of the squared coordinate-bracket operator; equals -2g/rho^2."""
    gb = sig.gbar
    return float(np.einsum("i,j,ij,ji->", gb, gb, table.P, table.P))


def s2_traces(sig: AmbientSignature, S: np.ndarray) -> np.ndarray:
    """Traces of the squared mixed-bracket operators, one per normal."""
    gb = sig.gbar
    return np.einsum("i,j,Aij,Aji->A", gb, gb, S, S)


def ps_traces(table: BracketTable, sig: AmbientSignature, S: np.ndarray) -> np.ndarray:
    """Traces of (coordinate bracket) o (mixed bracket), one per normal."""
    gb = sig.gbar
    return np.einsum("i,j,ij,Aji->A", gb, gb, table.P, S)


# --- Curvature through an explicit frame ---------------------------------

def gauss_via_frame(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    frame: FrameField,
) -> float:
    """Gauss curvature from brackets of coordinates against a frame."""
    S = s_operator(table, emb, frame)
    traces = s2_traces(emb.sig, S)
    rv = table.rho.value
    return float(-(rv * rv) / (2.0 * met.det_g) * np.sum(frame.sigma * traces))


def mean_via_frame(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    frame: FrameField,
) -> np.ndarray:
    """Mean curvature vector from brackets against a frame."""
    S = s_operator(table, emb, frame)
    traces = ps_traces(table, emb.sig, S)
    rv = table.rho.value
    weights = (rv * rv) / (2.0 * met.det_g) * frame.sigma * traces
    return np.einsum("A,Ai->i", weights, frame.vectors)


# --- The bracket-built normal projector ----------------------------------

@dataclass(eq=False)
class ZData:
    """Normal-direction data built from coordinate brackets only.

    Z_lower[K] is the normal vector attached to multi-index K (length
    codim-1); Z_upper raises the multi-index with the ambient metric.
    Zmat is the mixed-index projector matrix acting on those
    multi-indices; delta counts timelike normal directions.
    """

    indices: list[tuple[int, ...]]
    Z_lower: np.ndarray  # (n, m)
    Z_upper: np.ndarray  # (n, m)
    Zmat: np.ndarray  # (n, n)
    delta: int
    delta_sign: int

    def lower(self, J: tuple[int, ...]) -> np.ndarray:
        return self.Z_lower[self.indices.index(J)]

    def upper(self, J: tuple[int, ...]) -> np.ndarray:
        return self.Z_upper[self.indices.index(J)]


def build_z(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> ZData:
    """Build the bracket-only normal vectors and their projector matrix.

    Each multi-index K of length codim-1 picks out the contraction of
    the rank-m permutation symbol with the coordinate-bracket matrix,
    scaled by rho / (2 sqrt(|g| (codim-1)!)).  The matrix Zmat is the
    induced map on multi-index slots; it is an orthogonal projector of
    rank codim onto the normal space.
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    ensure_within_cap(m, "the bracket-built normal projector")
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
    delta_sign = (-1) ** delta
    Zmat = delta_sign * np.einsum("Ii,i,Ji->IJ", ZU, gb, ZL)
    return ZData(idxs, ZL, ZU, Zmat, delta, delta_sign)


def zmap_invariants(
    zd: ZData, table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> dict[str, float]:
    """Normalized residuals of the projector identities.

    Keys: z_idempotent (Zmat^2 = Zmat), z_trace (trace = codim),
    z_self_adjoint (symmetry under the multi-index metric), z_sum
    (completeness: the squared bracket matrix recovers the normal block
    of the inverse ambient metric).  Each residual is divided by
    max(1, magnitude of the terms involved).
    """
    sig = emb.sig
    p = sig.codim
    gb = sig.gbar
    Zmat = zd.Zmat
    zscale = max(1.0, float(np.abs(Zmat).max()))
    idem = float(np.abs(Zmat @ Zmat - Zmat).max()) / zscale
    trace = abs(float(np.trace(Zmat)) - p) / max(1.0, float(p))
    gI = np.array([sig.product_over(I) for I in zd.indices])
    gz = gI[:, None] * Zmat
    selfadj = float(np.abs(gz - gz.T).max()) / zscale
    lhs = zd.Z_lower.T @ zd.Z_upper
    rv = table.rho.value
    p2 = table.P @ np.diag(gb) @ table.P
    rhs = zd.delta_sign * (np.diag(gb) + (rv * rv / met.det_g) * p2)
    zsum = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
    return {
        "z_idempotent": idem,
        "z_trace": trace,
        "z_self_adjoint": selfadj,
        "z_sum": zsum,
    }


def normal_frame_from_z(zd: ZData, sig: AmbientSignature) -> NormalFrame:
    """Extract a pseudo-orthonormal normal frame from the projector.

    The rows of Zmat span the projector's image; greedy Gram-Schmidt
    under the multi-index metric yields codim orthonormal image
    covectors, and contracting them against the raised normal vectors
    gives the frame.  Raises RankDeficiencyError when the image rank
    is not exactly codim at tolerance 1e-8.
    """
    p = sig.codim
    gI = np.array([sig.product_over(I) for I in zd.indices])
    try:
        vecs, signs = pivoted_orthonormalize(
            zd.Zmat, gI, zd.Zmat.shape[0], null_tol=1e-8, drop_tol=1e-8
        )
    except _NullPivot as exc:
        raise RankDeficiencyError(
            f"projector image contains only null directions after {exc.args[0]} vectors"
        ) from exc
    if vecs.shape[0] != p:
        raise RankDeficiencyError(
            f"projector image has rank {vecs.shape[0]}, expected {p}"
        )
    normals = vecs @ zd.Z_upper
    sigma = zd.delta_sign * signs
    gram = np.einsum("Ai,i,Bi->AB", normals, sig.gbar, normals)
    residual = float(np.abs(gram - np.diag(sigma)).max())
    if residual > 1e-8:
        raise RankDeficiencyError(
            f"extracted frame fails orthonormality by {residual!r}"
        )
    return NormalFrame(normals, sigma)


# --- Frame-free curvature ------------------------------------------------
#
# Both curvatures contract two rank-m permutation symbols over their m-3
# trailing slots.  The "reduced" path applies
# eps_{jklL} eps^{irnL} = (m-3)! delta^{irn}_{jkl} to whole tensors.  The
# six signed pairings of the generalized delta collapse to two sums after
# relabelling, because T, G and P are exactly antisymmetric in their last
# two slots (build_bracket_table writes P[j, i] = -P[i, j]).  The "naive"
# path is the oracle: it tabulates the symbol contraction by brute force,
# one eps_contract_naive call per pair of index triples.


def _naive_symbol_pairs(m: int) -> np.ndarray:
    """D[j, k, l, i, r, n] = sum over L of eps_{jklL} eps^{irnL}."""
    ensure_within_cap(m, "the brute-force symbol contraction")
    D = np.zeros((m,) * 6)
    triples = list(itertools.permutations(range(1, m + 1), 3))
    for jkl in triples:
        for irn in triples:
            D[tuple(a - 1 for a in jkl + irn)] = eps_contract_naive(jkl, irn, m)
    return D


def _check_contraction(contraction: str) -> None:
    if contraction not in ("naive", "reduced"):
        raise ValueError(f"contraction must be 'naive' or 'reduced', got {contraction!r}")


def gauss_full_from_table(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    contraction: str = "reduced",
) -> float:
    """Gauss curvature from nested coordinate brackets, no frame input.

    acc = gbar_i gbar_r gbar_n T[i,k,l] T[j,r,n] eps_{jklL} eps^{irnL},
    summed over all indices, reduces to
    (m-3)! (2 gbar_i gbar_r gbar_n T[i,r,n]^2 - 4 gbar_n v_n^2)
    with v_n = gbar_i T[i,i,n].
    """
    _check_contraction(contraction)
    sig = emb.sig
    m, p = sig.m, sig.codim
    T = nested_bracket_tensor(table, emb)
    gb = sig.gbar
    if contraction == "naive":
        D = _naive_symbol_pairs(m)
        acc = float(np.einsum("jklirn,i,r,n,ikl,jrn->", D, gb, gb, gb, T, T))
    else:
        v = np.einsum("i,iin->n", gb, T)
        acc = math.factorial(m - 3) * float(
            2.0 * np.einsum("i,r,n,irn,irn->", gb, gb, gb, T, T)
            - 4.0 * np.einsum("n,n,n->", gb, v, v)
        )
    rv = table.rho.value
    return -(rv**4) * acc / (8.0 * met.det_g**2 * math.factorial(p - 1))


def mean_full_from_table(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    contraction: str = "reduced",
) -> np.ndarray:
    """Mean curvature vector from coordinate brackets, no frame input.

    out_k = G[i,r,n] W[a,b] eps_{irnL} eps^{kabL}, summed over all other
    indices, with G[i,r,n] = gbar_j {x^i, x^j} {x^j, {x^r, x^n}} and
    W[a,b] = gbar_a gbar_b {x^a, x^b}, reduces to
    2 (m-3)! (G[k,r,n] W[r,n] + 2 G[i,r,k] W[i,r]).
    """
    _check_contraction(contraction)
    sig = emb.sig
    m, p = sig.m, sig.codim
    T = nested_bracket_tensor(table, emb)
    gb = sig.gbar
    G = np.einsum("ij,j,jrn->irn", table.P, gb, T)
    W = gb[:, None] * table.P * gb[None, :]
    if contraction == "naive":
        out = np.einsum("irnkab,irn,ab->k", _naive_symbol_pairs(m), G, W)
    else:
        out = (2.0 * math.factorial(m - 3)) * (
            np.einsum("krn,rn->k", G, W) + 2.0 * np.einsum("irk,ir->k", G, W)
        )
    rv = table.rho.value
    factor = rv**4 / (8.0 * met.det_g**2 * math.factorial(p - 1))
    return factor * out


def gauss_full(
    emb: EmbeddingEval, rho_choice: DensityChoice, contraction: str = "reduced"
) -> float:
    met = induced_metric(emb)
    table = build_bracket_table(emb, rho_choice)
    return gauss_full_from_table(table, emb, met, contraction)


def mean_full(
    emb: EmbeddingEval, rho_choice: DensityChoice, contraction: str = "reduced"
) -> np.ndarray:
    met = induced_metric(emb)
    table = build_bracket_table(emb, rho_choice)
    return mean_full_from_table(table, emb, met, contraction)


# --- Scaling behavior of mixed brackets ----------------------------------

def double_trace_check(
    table: BracketTable,
    emb: EmbeddingEval,
    frame: FrameField,
    A: int,
    B: int,
    f_ast: Ast,
    h_ast: Ast,
) -> float:
    """Residual of the scaling identity for brackets against scaled normals.

    Scaling two normal fields by scalar functions f and h multiplies the
    double trace of the mixed bracket operators by f h pointwise; the
    derivative terms cancel.  Returns the normalized residual.
    """
    sig = emb.sig
    gb = sig.gbar
    rv = table.rho.value
    e = emb.e
    f = eval_jet(f_ast, emb.at)
    h = eval_jet(h_ast, emb.at)

    def scaled_bracket(scalar: Jet2, idx: int) -> np.ndarray:
        nvec = frame.vectors[idx]
        ngrad = frame.grads[idx]
        d = np.array(
            [scalar.grad[a] * nvec + scalar.value * ngrad[:, a] for a in (0, 1)]
        )  # (2, m)
        return (np.einsum("i,j->ij", e[0], d[1]) - np.einsum("i,j->ij", e[1], d[0])) / rv

    bf = scaled_bracket(f, A)
    bh = scaled_bracket(h, B)
    lhs = float(np.einsum("i,j,ij,ji->", gb, gb, bf, bh))
    S = s_operator(table, emb, frame)
    rhs = f.value * h.value * float(np.einsum("i,j,ij,ji->", gb, gb, S[A], S[B]))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
