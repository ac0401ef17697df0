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
from dataclasses import dataclass, field
from functools import lru_cache

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
    NonFiniteCurvatureError,
    RankDeficiencyError,
    UsageError,
    ZeroDensityError,
)
from .exprlang import Ast, eval_jet, parse_expression
from .jets import DENOM_FLOOR, Jet1, Jet2, sqrt_abs1
from .tensor import AmbientSignature, ensure_within_cap, eps_contract_naive, permutation_sign

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
        raise ZeroDensityError(f"density {choice.source!r} vanishes")
    return rho


# --- Brackets -----------------------------------------------------------

def _density_value(rho: Jet1) -> float:
    if abs(rho.value) <= DENOM_FLOOR:
        raise ZeroDensityError(f"density value {float(rho.value)!r} too close to zero")
    return rho.value


def poisson_bracket(f: Jet2, g: Jet2, rho: Jet1) -> Jet1:
    """Bracket of two order-2 jets; the result is an order-1 jet."""
    rv = _density_value(rho)
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


@dataclass(eq=False)
class BracketTable:
    """All coordinate brackets at one point.

    P[i, j] = {x^i, x^j} = (e_u ^ e_v)[i, j] / rho, with parameter gradient
    Pgrad[i, j, a] and density jet rho; T caches
    nested_bracket_tensor(table, emb, scale), the nested brackets times
    scale^2, for the K and H contractions.  P and Pgrad are exactly
    antisymmetric in (i, j): each is a difference of an array and its
    transpose, and fl(a - b) = -fl(b - a).
    """

    P: np.ndarray
    Pgrad: np.ndarray
    rho: Jet1
    T: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def scale(self) -> float:
        """The power of two s with |rho / s| in [1/2, 1).

        P scales like 1 / rho and the nested brackets like 1 / rho^2, so
        P * s and T * s^2 keep the size they have at rho = 1, and
        (rho / s)^4 cannot overflow.  Scaling by a power of two is exact,
        so K and H do not change.
        """
        return math.ldexp(1.0, math.frexp(self.rho.value)[1])


def build_bracket_table(emb: EmbeddingEval, rho_choice: DensityChoice) -> BracketTable:
    """Every bracket {x^i, x^j} at once, as an antisymmetrised outer product.

    With A = e_u (x) e_v and B[i, j, a] = d_a e_u^i e_v^j + e_u^i d_a e_v^j,
    w = A - A^T and dw = B - B^T are the bracket numerators and their
    gradients; P = w / rho and Pgrad = dw / rho - w d(rho) / rho^2, the
    expression poisson_bracket evaluates for one pair.  rho^2 leaves the
    float range once |rho| passes 2^512 or drops below 2^-512, so a
    density beyond 2^500, about 3e150, or below 2^-500 raises
    NonFiniteCurvatureError.
    """
    rho = density_jet(rho_choice, emb)
    rv = _density_value(rho)
    if abs(math.frexp(rv)[1]) > 500:
        raise NonFiniteCurvatureError(f"nested brackets leave the float range at rho = {rv!r}")
    eu, ev = emb.e
    xdd = emb.xdd
    A = np.multiply.outer(eu, ev)
    B = xdd[:, None, 0, :] * ev[None, :, None] + eu[:, None, None] * xdd[None, :, 1, :]
    w = A - A.T
    dw = B - B.transpose(1, 0, 2)
    return BracketTable(w / rv, dw / rv - w[:, :, None] * rho.grad / (rv * rv), rho)


def nested_bracket_tensor(
    table: BracketTable, emb: EmbeddingEval, s: float = 1.0
) -> np.ndarray:
    """T[i, k, l] = {x^i, {x^k, x^l}} * s^2 for all coordinate triples.

    s, a power of two, multiplies Pgrad and divides rho before they meet,
    so T * s^2 is formed without T, which leaves the float range for a
    density far from 1.  Where T is a normal float the result is T * s^2
    bit for bit.
    """
    rv = table.rho.value / s
    e = emb.e
    Pgrad = table.Pgrad * s
    return (
        np.einsum("i,kl->ikl", e[0], Pgrad[:, :, 1])
        - np.einsum("i,kl->ikl", e[1], Pgrad[:, :, 0])
    ) / rv


def _nested(table: BracketTable, emb: EmbeddingEval) -> np.ndarray:
    """T * s^2 at s = table.scale, built once per table and range-checked."""
    if table.T is None:
        _ensure_no_underflow(table, emb)
        table.T = nested_bracket_tensor(table, emb, table.scale)
    return table.T


# Below 2^-969 an entry can be off by 2^-1075 to underflow, more than
# eps^2 of its size.
_UNDERFLOW_LOG2 = -969


def _log2_top(a: np.ndarray) -> float:
    """log2 of the largest |entry|; -inf for an all-zero array."""
    top = max(map(abs, a.ravel().tolist()))  # lists beat numpy at this size
    return math.log2(top) if top else -math.inf


def _ensure_no_underflow(table: BracketTable, emb: EmbeddingEval) -> None:
    """Fail closed where the products behind K and H underflow.

    From the largest first and second derivatives e and x_ab, d(rho) and
    rho, bound log2 of the largest entry of P = e e / rho, of
    Pgrad = (x_ab e - P d(rho)) / rho, of T s^2 = e Pgrad s^2 / rho and of
    the Gauss products T T and the mean products (P s) T and (P s) T (P s).
    These sizes depend on the surface's size and parametrisation as well
    as on rho, and an underflowed product can vanish and leave a finite,
    wrong K or H.  A zero factor (log2 = -inf) makes its products exactly
    zero, which loses nothing.
    """
    rv = table.rho.value
    r, rho = math.frexp(rv)[1], math.log2(abs(rv))  # table.scale = 2^r
    e, x, g = _log2_top(emb.e), _log2_top(emb.xdd), _log2_top(table.rho.grad)
    p = 2 * e - rho
    pg = max(x + e, p + g) - rho
    t = e + pg + 2 * r - rho
    ps = p + r
    if any(-math.inf < b < _UNDERFLOW_LOG2 for b in (p, pg, 2 * t, ps + t, 2 * ps + t)):
        raise NonFiniteCurvatureError("bracket products underflow the float range")


# --- Frames with parameter derivatives ----------------------------------

@dataclass(eq=False)
class FrameField:
    """A pointwise normal frame plus the tangential part of its derivatives.

    vectors[A, i] and sigma match NormalFrame; grads[A, i, a] holds only
    the tangential part of d_a N_A^i.  Every consumer pairs grads with a
    tangent vector, so the normal part (the normal connection) never
    enters, and weingarten_frame does not compute it.
    """

    vectors: np.ndarray
    grads: np.ndarray
    sigma: np.ndarray


def weingarten_frame(
    emb: EmbeddingEval, met: InducedMetric, frame: NormalFrame, h: np.ndarray
) -> FrameField:
    """Exact frame derivatives from the Weingarten equation.

    gbar(N_A, e_b) = 0 gives gbar(d_a N_A, e_b) = -h_{A,ab}, so the
    tangential part of d_a N_A is -h_{A,ab} g^{bc} e_c; h is
    second_fundamental(emb, frame).
    """
    grads = -np.einsum("Aab,bc,ci->Aia", h, met.ginv, emb.e)
    return FrameField(frame.vectors, grads, frame.sigma)


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


def frame_with_derivatives(build, at: tuple[float, float], sig: AmbientSignature) -> FrameField:
    """Finite-difference oracle for the Weingarten equation (weingarten_frame).

    Differentiates a pointwise frame constructor by central differences;
    unlike weingarten_frame, the result carries the normal part of the
    derivatives too.  No production path calls it: it stays here because
    the benchmark probe looks it up by name, and it belongs in the tests.
    build maps a parameter point to a NormalFrame, and the step is
    FRAME_STEP.  Frames at the stencil points are replaced by projector
    transports of the center frame (see _transported), then combined
    with fourth-order weights.
    The transported field is exactly the center frame at the center and
    stays smooth in the stencil parameter, so the quotients converge at
    full order even where the pointwise construction picks pivots
    non-smoothly.
    """
    u, v = at
    center = build(at)
    gbar = sig.gbar
    grads = np.zeros(center.vectors.shape + (2,))
    for axis, (du, dv) in enumerate(((1.0, 0.0), (0.0, 1.0))):

        def shifted(k: float) -> np.ndarray:
            q = (u + k * FRAME_STEP * du, v + k * FRAME_STEP * dv)
            return _transported(center, build(q), gbar, at)

        grads[:, :, axis] = (
            shifted(-2.0) - 8.0 * shifted(-1.0) + 8.0 * shifted(1.0) - shifted(2.0)
        ) / (12.0 * FRAME_STEP)
    return FrameField(center.vectors, grads, center.sigma)


def s_operator(
    table: BracketTable, emb: EmbeddingEval, frame: FrameField, s: float = 1.0
) -> np.ndarray:
    """S[A, i, j] = {x^i, N_A^j} * s for every frame vector.

    s is a power of two that divides rho, as in nested_bracket_tensor.
    """
    rv = table.rho.value / s
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
    """Gauss curvature from brackets of coordinates against a frame.

    S is taken at table.scale, so S^2 keeps its digits for any density.
    """
    s = table.scale
    traces = s2_traces(emb.sig, s_operator(table, emb, frame, s))
    rv = table.rho.value / s
    return float(-(rv * rv) / (2.0 * met.det_g) * np.sum(frame.sigma * traces))


def mean_via_frame(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    frame: FrameField,
) -> np.ndarray:
    """Mean curvature vector from brackets against a frame, at table.scale."""
    s = table.scale
    traces = ps_traces(table, emb.sig, s_operator(table, emb, frame, s)) * s
    rv = table.rho.value / s
    weights = (rv * rv) / (2.0 * met.det_g) * frame.sigma * traces
    return np.einsum("A,Ai->i", weights, frame.vectors)


# --- The bracket-built normal projector ----------------------------------

@dataclass(eq=False)
class ZData:
    """Normal-direction data built from coordinate brackets only.

    Z_lower[K] is the normal vector attached to the sorted multi-index K
    of length codim-1; Z_upper raises K with its metric sign weights[K].
    The rows of Z_lower feed the normal frame.  Zmat, the mixed-index
    projector matrix acting on those multi-indices, feeds only the
    z_idempotent, z_trace and z_self_adjoint identity rows; delta counts
    timelike normal directions.
    """

    indices: list[tuple[int, ...]]
    weights: np.ndarray  # (n,)
    Z_lower: np.ndarray  # (n, m)
    Z_upper: np.ndarray  # (n, m)
    Zmat: np.ndarray  # (n, n)
    delta: int
    delta_sign: int


@lru_cache(maxsize=None)
def _z_rows(sig: AmbientSignature):
    """Sorted multi-indices J, their metric signs, and their rows' entries.

    Row J holds s gbar_a P[b, c], s gbar_b P[c, a] and s gbar_c P[a, b] at
    the sorted complement (a, b, c) of J, s = sign of (a, b, c, J).
    """
    m, gb = sig.m, sig.gbar
    indices = list(itertools.combinations(range(1, m + 1), m - 3))
    entries = []
    for row, J in enumerate(indices):
        a, b, c = (i for i in range(m) if i + 1 not in J)
        s = permutation_sign((a + 1, b + 1, c + 1, *J))
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            entries.append((row * m + i, j * m + k, s * gb[i]))
    z_at, p_at, coef = (np.array(x) for x in zip(*entries))
    weights = np.array([sig.product_over(J) for J in indices])
    weights.setflags(write=False)  # shared by every ZData of this signature
    return indices, weights, z_at, p_at, coef


def build_z(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> ZData:
    """Build the bracket-only normal vectors and their projector matrix.

    Row K, one per sorted multi-index, is eps_{iklK} {x^k, x^l} times
    rho / (2 sqrt|g|): the Hodge dual of the tangent bivector.  The rows
    of all (codim-1)! orderings of K, scaled by 1 / sqrt((codim-1)!),
    have the same Z_lower^T Z_upper and a projector with the same trace.
    Zmat is an orthogonal projector of rank codim onto the normal space.
    """
    sig = emb.sig
    indices, weights, z_at, p_at, coef = _z_rows(sig)
    ZL = np.zeros((len(indices), sig.m))
    ZL.flat[z_at] = table.rho.value / math.sqrt(abs(met.det_g)) * (coef * table.P.flat[p_at])
    ZU = ZL * weights[:, None]
    delta = sig.nu - met.ind_g
    delta_sign = (-1) ** delta
    Zmat = delta_sign * np.einsum("Ii,i,Ji->IJ", ZU, sig.gbar, ZL)
    return ZData(list(indices), weights, ZL, ZU, Zmat, delta, delta_sign)


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
    gz = zd.weights[:, None] * Zmat
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
    """Extract a pseudo-orthonormal normal frame from the bracket rows.

    Every row of Z_lower lies in the normal space and together they span
    it, so greedy Gram-Schmidt under gbar on those C(m, 3) length-m rows
    yields the frame and its signs directly; Zmat is not used.  Raises
    RankDeficiencyError when the rows do not span exactly codim
    directions at tolerance 1e-8.
    """
    p = sig.codim
    try:
        normals, sigma = pivoted_orthonormalize(
            zd.Z_lower, sig.gbar, sig.m, null_tol=1e-8
        )
    except _NullPivot as exc:
        raise RankDeficiencyError(
            f"projector image contains only null directions after {exc.args[0]} vectors"
        ) from exc
    if normals.shape[0] != p:
        raise RankDeficiencyError(
            f"projector image has rank {normals.shape[0]}, expected {p}"
        )
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
# trailing slots.  gauss_full_from_table and mean_full_from_table apply
# eps_{jklL} eps^{irnL} = (m-3)! delta^{irn}_{jkl} to whole tensors.  The
# six signed pairings of the generalized delta collapse to two sums after
# relabelling, because T, G and P are exactly antisymmetric in their last
# two slots (see BracketTable).  The tests
# compare them against the oracles _gauss_naive and _mean_naive, which
# tabulate the symbol contraction by brute force, one eps_contract_naive
# call per pair of index triples.
#
# Closed form and oracle add their terms with math.fsum, which rounds
# once.  The terms cancel heavily: on random Lorentzian jets the sum of
# their magnitudes reaches 6e4 times the result, so even the one rounding
# of each product can leave errors above 1e-12 relative, in the oracle as
# much as in the closed form.  Where the terms of a sum cancel by more
# than _CANCEL_MAX, each product a * b is split exactly into p + e
# (Dekker's two-product) and the e are added too; elsewhere the product
# roundings move the sum by at most _CANCEL_MAX * eps = 1.1e-13 relative.
# Given the same T, G and P, the closed form and the oracle therefore
# agree to within about 2.5e-13 relative.


def _naive_symbol_pairs(m: int) -> np.ndarray:
    """D[j, k, l, i, r, n] = sum over L of eps_{jklL} eps^{irnL}."""
    ensure_within_cap(m, "the brute-force symbol contraction")
    D = np.zeros((m,) * 6)
    triples = list(itertools.permutations(range(1, m + 1), 3))
    for jkl in triples:
        for irn in triples:
            D[tuple(a - 1 for a in jkl + irn)] = eps_contract_naive(jkl, irn, m)
    return D


def _gauss_naive(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> float:
    """Oracle for gauss_full_from_table: the symbol contraction in full."""
    sig = emb.sig
    T = _nested(table, emb)
    gb = sig.gbar
    D = _naive_symbol_pairs(sig.m)
    j, k, l, i, r, n = np.nonzero(D)
    c = D[j, k, l, i, r, n] * gb[i] * gb[r] * gb[n]  # gbar = +-1: still integers
    left = _int_times(c, T[i, k, l])
    acc = _row_dots(left[None], np.tile(T[j, r, n], 2)[None])[0]
    rv = table.rho.value / table.scale
    return -(rv**4) * acc / (8.0 * met.det_g**2 * math.factorial(sig.codim - 1))


def _mean_naive(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> np.ndarray:
    """Oracle for mean_full_from_table: the symbol contraction in full."""
    sig = emb.sig
    m = sig.m
    T = _nested(table, emb)
    P = table.P * table.scale
    gb = sig.gbar
    G = np.einsum("ij,j,jrn->irn", P, gb, T)
    W = gb[:, None] * P * gb[None, :]
    D = np.moveaxis(_naive_symbol_pairs(m), 3, 0)  # D[k, i, r, n, a, b]
    k, i, r, n, a, b = np.nonzero(D)
    left = _int_times(D[k, i, r, n, a, b], G[i, r, n])
    right = np.tile(W[a, b], 2)
    rows = np.tile(k, 2)
    out = np.array(
        [_row_dots(left[None, rows == kk], right[None, rows == kk])[0] for kk in range(m)]
    )
    rv = table.rho.value / table.scale
    factor = rv**4 / (8.0 * met.det_g**2 * math.factorial(sig.codim - 1))
    return factor * out


_SPLITTER = 134217729.0  # 2**27 + 1
_CANCEL_MAX = 1024.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _fsum(terms: list[float]) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # the float sum gives inf or nan here
        return float(np.sum(terms))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a * b over the last axis of two 2-D arrays, see above."""
    p = a * b
    sums = [_fsum(row) for row in p.tolist()]
    sizes = np.abs(p).sum(axis=1).tolist()
    if all(size <= _CANCEL_MAX * abs(s) for size, s in zip(sizes, sums)):
        return np.array(sums)
    hi, lo = _split(np.concatenate([a, b]))
    n = len(a)
    ah, al, bh, bl = hi[:n], lo[:n], hi[n:], lo[n:]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # p + e == a * b exactly
    rows = np.concatenate([p, e.sum(axis=1, keepdims=True)], axis=1)
    return np.array([_fsum(row) for row in rows.tolist()])


def _int_times(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Two arrays, joined on the last axis, that sum exactly to c * x.

    c holds integers of at most 27 bits, so c times a 26-bit half of x is
    exact, and _row_dots can split its products with it exactly.
    """
    hi, lo = _split(x)
    return np.concatenate([c * hi, c * lo], axis=-1)


@lru_cache(maxsize=None)
def _gauss_terms(sig: AmbientSignature) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into T and weights of the closed-form Gauss sum.

    acc / (m-3)! is the sum of w * T.flat[left] * T.flat[right].  Terms
    with T[i, r, r] = 0 are left out and mirror terms are merged by
    doubling their weight, so every weight is a signed power of two.
    """
    m, gb = sig.m, sig.gbar
    left, right, w = [], [], []
    for i, r, n in itertools.product(range(m), repeat=3):
        if r < n:  # 2 gbar_i gbar_r gbar_n T[i,r,n]^2, with (r, n) and (n, r)
            left.append((i * m + r) * m + n)
            right.append((i * m + r) * m + n)
            w.append(4.0 * gb[i] * gb[r] * gb[n])
    for i, j, n in itertools.product(range(m), repeat=3):
        if i <= j and n not in (i, j):  # -4 gbar_n v_n^2, v_n = gbar_i T[i,i,n]
            left.append((i * m + i) * m + n)
            right.append((j * m + j) * m + n)
            w.append((-4.0 if i == j else -8.0) * gb[n] * gb[i] * gb[j])
    return np.array(left), np.array(right), np.array(w)


@lru_cache(maxsize=None)
def _mean_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into G and W, one row per output k, of the closed-form H.

    out_k / (4 (m-3)!) is the row sum of G.flat[left] * W.flat[right]:
    G[k,r,n] W[r,n] over r < n (the mirror term is equal) and
    G[i,r,k] W[i,r] over i != r (W[i,i] = 0).
    """
    rows = []
    for k in range(m):
        pairs = [((k * m + r) * m + n, r * m + n) for r in range(m) for n in range(r + 1, m)]
        pairs += [((i * m + r) * m + k, i * m + r) for i in range(m) for r in range(m) if i != r]
        rows.append(pairs)
    idx = np.array(rows)
    return idx[:, :, 0], idx[:, :, 1]


def gauss_full_from_table(
    table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> float:
    """Gauss curvature from nested coordinate brackets, no frame input.

    acc = gbar_i gbar_r gbar_n T[i,k,l] T[j,r,n] eps_{jklL} eps^{irnL},
    summed over all indices, reduces to
    (m-3)! (2 gbar_i gbar_r gbar_n T[i,r,n]^2 - 4 gbar_n v_n^2)
    with v_n = gbar_i T[i,i,n].
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    rv = table.rho.value / table.scale
    Tf = _nested(table, emb).ravel()
    left, right, w = _gauss_terms(sig)
    # w is a signed power of two, so w * T is exact
    acc = math.factorial(m - 3) * _row_dots((w * Tf[left])[None], Tf[right][None])[0]
    try:
        k = -(rv**4) * acc / (8.0 * met.det_g**2 * math.factorial(p - 1))
    except OverflowError:  # det g^2 leaves the float range
        k = math.nan
    if not math.isfinite(k):
        raise NonFiniteCurvatureError("Gauss curvature K is not finite")
    return k


def mean_full_from_table(
    table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> np.ndarray:
    """Mean curvature vector from coordinate brackets, no frame input.

    out_k = G[i,r,n] W[a,b] eps_{irnL} eps^{kabL}, summed over all other
    indices, with G[i,r,n] = gbar_j {x^i, x^j} {x^j, {x^r, x^n}} and
    W[a,b] = gbar_a gbar_b {x^a, x^b}, reduces to
    2 (m-3)! (G[k,r,n] W[r,n] + 2 G[i,r,k] W[i,r]).
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    s = table.scale
    rv = table.rho.value / s
    P = table.P * s
    gb = sig.gbar
    G = np.einsum("ij,j,jrn->irn", P, gb, _nested(table, emb))
    W = gb[:, None] * P * gb[None, :]
    left, right = _mean_terms(m)
    out = (4.0 * math.factorial(m - 3)) * _row_dots(G.ravel()[left], W.ravel()[right])
    try:
        factor = rv**4 / (8.0 * met.det_g**2 * math.factorial(p - 1))
    except OverflowError:  # det g^2 leaves the float range
        factor = math.nan
    out = factor * out
    if not np.isfinite(out).all():
        raise NonFiniteCurvatureError("mean curvature vector H is not finite")
    return out


def gauss_full(emb: EmbeddingEval, rho_choice: DensityChoice) -> float:
    met = induced_metric(emb)
    table = build_bracket_table(emb, rho_choice)
    return gauss_full_from_table(table, emb, met)


def mean_full(emb: EmbeddingEval, rho_choice: DensityChoice) -> np.ndarray:
    met = induced_metric(emb)
    table = build_bracket_table(emb, rho_choice)
    return mean_full_from_table(table, emb, met)


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
