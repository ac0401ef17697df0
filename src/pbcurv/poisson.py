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
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .classical import (
    EmbeddingEval,
    InducedMetric,
    NormalFrame,
    _NullPivot,
    det_g_rows,
    fail_closed,
    induced_metric,
    pivoted_orthonormalize,
    underflowed,
)
from .errors import (
    FrameConstructionError,
    RankDeficiencyError,
    UsageError,
    ZeroDensityError,
)
from .exprlang import Ast, eval_jet, parse_expression
from .jets import DENOM_FLOOR, Jet1, Jet2, sqrt_abs_rows
from .tensor import AmbientSignature, permutation_sign
# benchmark/probe.py counts contraction calls through this name; no code here calls it
from .tensor import eps_contract_naive  # noqa: F401

# Central-difference step for parameter derivatives of pointwise frames.
FRAME_STEP = 1e-3


# --- Density choices ----------------------------------------------------

@dataclass(frozen=True)
class DensityChoice:
    """Which symplectic density rho to use.

    kind is one of "unit", "sqrt_abs_g", "expression"; expression mode
    carries a parsed expression in u and v, the parameters of the surface,
    or with normalised set those of its normalised point, 2^p (u, v) (see
    EmbeddingEval.normalised), so that it varies on the scale of the
    surface whatever the scale of its parameters.  All curvature outputs
    are independent of this choice; varying it is a consistency check.
    """

    kind: str
    expr: Ast | None = None
    source: str = ""
    normalised: bool = False

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
    """Evaluate the density with its gradient in emb's parameters.

    An expression is evaluated at emb.at, and its gradient times 2^-p, or
    with choice.normalised at 2^p emb.at (see density_rows).
    """
    expr = None
    if choice.kind == "expression":
        assert choice.expr is not None
        (jet,) = eval_jet(choice.expr.tape, normalised_at(emb) if choice.normalised else emb.at)
        expr = (np.array([jet.value]), jet.grad[None])
    value, grad, vanishes = density_rows(
        choice, emb.sig.gbar, emb.e[None], emb.xdd[None], np.array([emb.p]), None, expr
    )
    if vanishes[0]:
        raise ZeroDensityError(f"density {choice.source!r} vanishes")
    return Jet1(float(value[0]), grad[0])


def density_rows(choice: DensityChoice, gbar, e, xdd, p, gram, expr=None):
    """density_jet for N points: rho (N,), its gradient (N, 2), and the rows where it vanishes.

    e, xdd and p are the points' normalised jets and exponents, and gram
    their (g_ab, det g), or None to compute them here; expr is the
    expression's value (N,) and gradient (N, 2) at the original (u, v), or
    with choice.normalised at 2^p (u, v), where the gradient is already
    one in the normalised parameters.
    """
    n = len(e)
    if choice.kind == "unit":
        return np.ones(n), np.zeros((n, 2)), np.zeros(n, dtype=bool)
    if choice.kind == "sqrt_abs_g":
        value, grad = det_g_rows(gbar, e, xdd, gram)
        root, root_grad = sqrt_abs_rows(value, grad)
        return root, root_grad, np.abs(value) <= DENOM_FLOOR
    value, grad = expr
    if not choice.normalised:
        grad = np.ldexp(grad, -p[:, None])
    return value, grad, np.abs(value) <= DENOM_FLOOR


def normalised_at(emb: EmbeddingEval) -> tuple[float, float]:
    """2^p (u, v): the parameters of a normalised point (EmbeddingEval.normalised)."""
    return math.ldexp(emb.at[0], emb.p), math.ldexp(emb.at[1], emb.p)


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
    nested_bracket_tensor(table, emb) for the K and H contractions.  P and
    Pgrad are exactly antisymmetric in (i, j): each is a difference of an
    array and its transpose, and fl(a - b) = -fl(b - a).
    """

    P: np.ndarray
    Pgrad: np.ndarray
    rho: Jet1
    T: np.ndarray | None = field(default=None, init=False, repr=False)


def build_bracket_table(emb: EmbeddingEval, rho_choice: DensityChoice) -> BracketTable:
    """Every bracket {x^i, x^j} at once; see bracket_rows.

    The brackets are formed at the scale of emb, as given.
    """
    rho = density_jet(rho_choice, emb)  # raises where rho vanishes
    P, Pgrad, rv, rho_grad = bracket_rows(
        emb.e[None], emb.xdd[None], np.array([rho.value]), rho.grad[None]
    )
    return BracketTable(P[0], Pgrad[0], Jet1(float(rv[0]), rho_grad[0]))


def bracket_rows(e, xdd, rho_value, rho_grad):
    """The bracket table of N points: P, Pgrad and the scaled density jet.

    With A = e_u (x) e_v and B[i, j, a] = d_a e_u^i e_v^j + e_u^i d_a e_v^j,
    w = A - A^T and dw = B - B^T are the bracket numerators and their
    gradients; P = w / rho and Pgrad = dw / rho - w d(rho) / rho^2, the
    expression poisson_bracket evaluates for one pair.  K and H do not
    depend on rho, so each row uses rho times the power of two that puts
    |rho| in [1/2, 1): exact, and no density can push rho^2 out of the
    float range.  Returns P (N, m, m), Pgrad (N, m, m, 2), and that rho
    (N,) with its gradient (N, 2).
    """
    c = -np.frexp(rho_value)[1]
    rv, rho_grad = np.ldexp(rho_value, c), np.ldexp(rho_grad, c[:, None])
    eu, ev = e[:, 0], e[:, 1]
    A = eu[:, :, None] * ev[:, None, :]
    B = xdd[:, :, None, 0, :] * ev[:, None, :, None] + eu[:, :, None, None] * xdd[:, None, :, 1, :]
    w = A - A.transpose(0, 2, 1)
    dw = B - B.transpose(0, 2, 1, 3)
    r = rv[:, None, None]
    Pgrad = dw / r[..., None] - w[..., None] * rho_grad[:, None, None, :] / (r * r)[..., None]
    return w / r, Pgrad, rv, rho_grad


def nested_bracket_tensor(table: BracketTable, emb: EmbeddingEval) -> np.ndarray:
    """T[i, k, l] = {x^i, {x^k, x^l}} for all coordinate triples."""
    return bracket_with_rows(emb.e[None], table.Pgrad[None], np.array([table.rho.value]))[0]


def bracket_with_rows(e, grad, rv):
    """{x^i, F} for N points: (e_u^i d_v F - e_v^i d_u F) / rho, batch axis first.

    grad (N, ..., 2) is the parameter gradient of F, of any shape, and rv
    (N,) the density; the result is (N, m, ...), i first.
    """
    axes = (slice(None), slice(None)) + (None,) * (grad.ndim - 2)
    return (e[:, 0][axes] * grad[:, None, ..., 1] - e[:, 1][axes] * grad[:, None, ..., 0]) / rv[
        axes[:1] + (None,) * (grad.ndim - 1)
    ]


def _nested(table: BracketTable, emb: EmbeddingEval) -> np.ndarray:
    """nested_bracket_tensor, built once per table."""
    if table.T is None:
        table.T = nested_bracket_tensor(table, emb)
    return table.T


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
    grads = weingarten_rows(h[None], met.ginv[None], emb.e[None])[0]
    return FrameField(frame.vectors, grads, frame.sigma)


def weingarten_rows(h, ginv, e):
    """weingarten_frame's derivatives of N points: -h_{A,ab} g^{bc} e_c, as (N, p, m, 2)."""
    return -(h @ ginv[:, None] @ e[:, None]).transpose(0, 1, 3, 2)


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


def s_operator(table: BracketTable, emb: EmbeddingEval, frame: FrameField) -> np.ndarray:
    """S[A, i, j] = {x^i, N_A^j} for every frame vector."""
    return s_rows(emb.e[None], frame.grads[None], np.array([table.rho.value]))[0]


def s_rows(e, grads, rv):
    """s_operator of N points from their frame derivatives (N, p, m, 2): (N, p, m, m)."""
    return bracket_with_rows(e, grads, rv).transpose(0, 2, 1, 3)


# --- Trace identities ---------------------------------------------------

def trace_rows(gbar, X, Y):
    """tr(X gbar Y gbar) = gbar_i gbar_j X[..., i, j] Y[..., j, i], over the last two axes.

    X and Y broadcast against each other; each trace sums its own m^2
    products alone.
    """
    terms = gbar[:, None] * gbar * X * np.swapaxes(Y, -1, -2)
    return np.add.reduce(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def p2_trace(table: BracketTable, sig: AmbientSignature) -> float:
    """Trace of the squared coordinate-bracket operator; equals -2g/rho^2."""
    return float(trace_rows(sig.gbar, table.P, table.P))


def s2_traces(sig: AmbientSignature, S: np.ndarray) -> np.ndarray:
    """Traces of the squared mixed-bracket operators, one per normal."""
    return trace_rows(sig.gbar, S, S)


def ps_traces(table: BracketTable, sig: AmbientSignature, S: np.ndarray) -> np.ndarray:
    """Traces of (coordinate bracket) o (mixed bracket), one per normal."""
    return trace_rows(sig.gbar, table.P, S)


# --- Curvature through an explicit frame ---------------------------------

def gauss_via_frame(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    frame: FrameField,
) -> float:
    """Gauss curvature from brackets of coordinates against a frame, at emb's scale."""
    traces = s2_traces(emb.sig, s_operator(table, emb, frame))
    rv, det_g = np.array([table.rho.value]), np.array([met.det_g])
    return float(frame_gauss_rows(rv, det_g, frame.sigma[None], traces[None])[0])


def frame_gauss_rows(rv, det_g, sigma, s2):
    """gauss_via_frame of N points from their s2_traces (N, p)."""
    return -(rv * rv) / (2.0 * det_g) * np.add.reduce(sigma * s2, axis=1)


def mean_via_frame(
    table: BracketTable,
    emb: EmbeddingEval,
    met: InducedMetric,
    frame: FrameField,
) -> np.ndarray:
    """Mean curvature vector from brackets against a frame, at emb's scale."""
    traces = ps_traces(table, emb.sig, s_operator(table, emb, frame))
    rv = table.rho.value
    weights = (rv * rv) / (2.0 * met.det_g) * frame.sigma * traces
    return np.einsum("A,Ai->i", weights, frame.vectors)


# --- The bracket-built normal projector ----------------------------------

@dataclass(eq=False)
class ZData:
    """Normal-direction data built from coordinate brackets only.

    Z_lower[K] is the normal vector attached to the sorted multi-index K
    of length codim-1; Z_upper raises K with its metric sign weights[K].
    Their m x m product M = Z_lower^T Z_upper gives the normal projector
    Pi = delta_sign M gbar, which feeds the normal frame and the projector
    identity rows; delta counts timelike normal directions.
    """

    indices: list[tuple[int, ...]]
    weights: np.ndarray  # (n,)
    Z_lower: np.ndarray  # (n, m)
    Z_upper: np.ndarray  # (n, m)
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
    """Build the bracket-only normal vectors.

    Row K, one per sorted multi-index, is eps_{iklK} {x^k, x^l} times
    rho / (2 sqrt|g|): the Hodge dual of the tangent bivector.  The rows
    of all (codim-1)! orderings of K, scaled by 1 / sqrt((codim-1)!),
    have the same M = Z_lower^T Z_upper; delta_sign M gbar is the
    gbar-orthogonal projector of rank codim onto the normal space.
    """
    sig = emb.sig
    indices = _z_rows(sig)[0]
    delta = sig.nu - met.ind_g
    rv, det_g = np.array([table.rho.value]), np.array([met.det_g])
    ZL, ZU, weights = z_rows(sig, table.P[None], rv, det_g)
    return ZData(list(indices), weights, ZL[0], ZU[0], delta, (-1) ** delta)


def z_rows(sig: AmbientSignature, P, rv, det_g):
    """build_z of N points: Z_lower, Z_upper (N, n, m) and weights (n,).

    n = C(m, 3), and weights are the metric signs of the multi-indices.
    """
    _, weights, z_at, p_at, coef = _z_rows(sig)
    n = len(P)
    ZL = np.zeros((n, len(weights) * sig.m))
    ZL[:, z_at] = (rv / np.sqrt(np.abs(det_g)))[:, None] * (coef * P.reshape(n, -1)[:, p_at])
    ZL = ZL.reshape(n, len(weights), sig.m)
    return ZL, ZL * weights[:, None], weights


def zmap_invariants(
    zd: ZData, table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> dict[str, float]:
    """Normalized residuals of the projector identities; see zmap_rows."""
    res = zmap_rows(
        emb.sig,
        (zd.Z_lower.T @ zd.Z_upper)[None],
        np.array([zd.delta_sign]),
        table.P[None],
        np.array([table.rho.value]),
        np.array([met.det_g]),
    )
    return {key: float(x[0]) for key, x in res.items()}


def zmap_rows(sig: AmbientSignature, M, delta_sign, P, rv, det_g) -> dict[str, np.ndarray]:
    """The projector identities of N points, one residual (N,) per key.

    M = Z_lower^T Z_upper (N, m, m), delta_sign (N,) is (-1)^(nu - ind g),
    and Pi = delta_sign M gbar.  Keys: z_idempotent (Pi^2 = Pi), z_trace
    (trace = codim), z_self_adjoint (gbar Pi symmetric: M is, for any
    weights, so this fails only on NaN), z_sum (completeness: M recovers
    the normal block of the inverse ambient metric from the squared
    bracket matrix).  Each residual is divided by max(1, magnitude of the
    terms involved).
    """
    gb, p = sig.gbar, sig.codim
    Pi = delta_sign[:, None, None] * M * gb
    zscale = np.maximum(1.0, _abs_max(Pi))
    gp = gb[:, None] * Pi
    p2 = (rv * rv / det_g)[:, None, None] * ((P * gb) @ P)
    rhs = delta_sign[:, None, None] * (np.diag(gb) + p2)
    return {
        "z_idempotent": _abs_max(Pi @ Pi - Pi) / zscale,
        "z_trace": np.abs(np.trace(Pi, axis1=1, axis2=2) - p) / max(1.0, float(p)),
        "z_self_adjoint": _abs_max(gp - gp.transpose(0, 2, 1)) / zscale,
        "z_sum": _abs_max(M - rhs) / np.maximum(1.0, _abs_max(rhs)),
    }


def _abs_max(x: np.ndarray) -> np.ndarray:
    """max |x| over the last two axes; NaN if any entry is NaN."""
    return np.abs(x).max(axis=(-2, -1))


# Null pivots, rank and orthonormality of the frame from the Z rows.
Z_TOL = 1e-8


def normal_frame_from_z(zd: ZData, sig: AmbientSignature) -> NormalFrame:
    """Extract a pseudo-orthonormal normal frame from the bracket projector.

    The m columns of Pi (see ZData) lie in the normal space and span it;
    as M is symmetric they are delta_sign times the rows of gbar M, so
    greedy Gram-Schmidt under gbar on those rows yields the frame and its
    signs directly.  Raises RankDeficiencyError when the rows do not span
    exactly codim directions at tolerance Z_TOL, or when the frame fails
    orthonormality (frame_defect_rows) by more than Z_TOL.
    """
    p = sig.codim
    columns = sig.gbar[:, None] * (zd.Z_lower.T @ zd.Z_upper)
    try:
        normals, sigma = pivoted_orthonormalize(columns, sig.gbar, sig.m, null_tol=Z_TOL)
    except _NullPivot as exc:
        raise RankDeficiencyError(
            f"projector image contains only null directions after {exc.args[0]} vectors"
        ) from exc
    if normals.shape[0] != p:
        raise RankDeficiencyError(
            f"projector image has rank {normals.shape[0]}, expected {p}"
        )
    defect = frame_defect_rows(sig, normals[None], sigma[None])[0]
    if defect > Z_TOL:
        raise RankDeficiencyError(
            f"extracted frame fails orthonormality by {float(defect)!r}"
        )
    return NormalFrame(normals, sigma)


def frame_defect_rows(sig: AmbientSignature, vectors, signs):
    """max |gbar(N_A, N_B) - sigma_A delta_AB| of N frames: vectors (N, p, m), signs (N, p)."""
    gram = (vectors * sig.gbar) @ vectors.transpose(0, 2, 1)
    return _abs_max(gram - signs[:, :, None] * np.eye(vectors.shape[1]))


# --- Frame-free curvature ------------------------------------------------
#
# Both curvatures contract two rank-m permutation symbols over their m-3
# trailing slots.  gauss_rows and mean_rows apply
# eps_{jklL} eps^{irnL} = (m-3)! delta^{irn}_{jkl} to whole tensors.  The
# six signed pairings of the generalized delta collapse to two sums after
# relabelling, because T, G and P are exactly antisymmetric in their last
# two slots (see BracketTable).  The (m-3)! cancels against the 1/(p-1)!
# of the normalisation, as p - 1 = m - 3.  The sums are plain float sums:
# their error comes from rounding T and P, not from the summation, and the
# tests hold them to a few eps times the sums of |terms|.  Every row's
# sums are its own stacked matrix products, so no row's rounding depends
# on the other rows of its batch.

# |det g| above this puts (det g)^2 past the float range.
_SQRT_MAX = math.sqrt(sys.float_info.max)


@lru_cache(maxsize=None)
def _gauss_weights(sig: AmbientSignature) -> np.ndarray:
    """-gbar_i gbar_r gbar_n / 4 then gbar_n / 2, read-only: K's two sums as one product."""
    cube = np.multiply.outer(np.multiply.outer(sig.gbar, sig.gbar), sig.gbar)
    weights = np.concatenate([-0.25 * cube.ravel(), 0.5 * sig.gbar])[:, None]
    weights.setflags(write=False)
    return weights


def _rho4_over_g2(rv: np.ndarray, det_g: np.ndarray) -> np.ndarray:
    """rho^4 / (det g)^2 per row, dividing by det g twice."""
    r2 = rv * rv
    return r2 * r2 / det_g / det_g


def _contraction_fails(x: np.ndarray, det_g: np.ndarray):
    """Where K or H fails closed: (not finite, subnormal), per entry.

    Both divide by det g twice; where (det g)^2 itself leaves the float
    range the entry counts as not finite too.  det_g broadcasts against x.
    """
    return ~np.isfinite(x) | (np.abs(det_g) > _SQRT_MAX), underflowed(np.abs(x), x)


def gauss_full_from_table(
    table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> float:
    """Gauss curvature from nested coordinate brackets, no frame input.

    See gauss_rows.  K is computed at emb's scale, as given; gauss_full
    normalises the point first.
    """
    k, over, under = gauss_rows(
        emb.sig, _nested(table, emb)[None], np.array([table.rho.value]), np.array([met.det_g])
    )
    fail_closed("Gauss curvature K", over, under)
    return float(k[0])


def gauss_rows(sig: AmbientSignature, T, rv, det_g):
    """K of N points from their nested-bracket tensors, with _contraction_fails.

    acc = gbar_i gbar_r gbar_n T[i,k,l] T[j,r,n] eps_{jklL} eps^{irnL},
    summed over all indices, reduces to
    (m-3)! (2 gbar_i gbar_r gbar_n T[i,r,n]^2 - 4 gbar_n v_n^2)
    with v_n = gbar_i T[i,i,n], and K = -rho^4 acc / (8 (p-1)! (det g)^2).
    """
    n, m = len(T), sig.m
    v = sig.gbar @ T.reshape(n, m * m, m)[:, :: m + 1]  # rows T[i, i, :]
    terms = np.concatenate([(T * T).reshape(n, -1), v * v], axis=1)
    k = _rho4_over_g2(rv, det_g) * (terms[:, None, :] @ _gauss_weights(sig))[:, 0, 0]
    return (k, *_contraction_fails(k, det_g))


def mean_full_from_table(
    table: BracketTable, emb: EmbeddingEval, met: InducedMetric
) -> np.ndarray:
    """Mean curvature vector from coordinate brackets, no frame input.

    See mean_rows.  H is computed at emb's scale, as given; mean_full
    normalises the point first.
    """
    h, over, under = mean_rows(
        emb.sig,
        _nested(table, emb)[None],
        table.P[None],
        np.array([table.rho.value]),
        np.array([met.det_g]),
    )
    fail_closed("mean curvature vector H", over[0], under[0])
    return h[0]


def mean_rows(sig: AmbientSignature, T, P, rv, det_g):
    """H (N, m) of N points, with _contraction_fails per entry.

    out_k = G[i,r,n] W[a,b] eps_{irnL} eps^{kabL}, summed over all other
    indices, with G[i,r,n] = gbar_j {x^i, x^j} {x^j, {x^r, x^n}} and
    W[a,b] = gbar_a gbar_b {x^a, x^b}, reduces to
    2 (m-3)! (G[k,r,n] W[r,n] + 2 G[i,r,k] W[i,r]), and
    H = rho^4 out / (8 (p-1)! (det g)^2).
    """
    n, m = len(T), sig.m
    gb = sig.gbar
    Pg = P * gb
    G = Pg @ T.reshape(n, m, m * m)
    w = (gb[:, None] * Pg).reshape(n, m * m)
    out = (G @ w[:, :, None])[:, :, 0] + 2.0 * (w[:, None, :] @ G.reshape(n, m * m, m))[:, 0]
    out *= (0.25 * _rho4_over_g2(rv, det_g))[:, None]
    return (out, *_contraction_fails(out, det_g[:, None]))


def _unit_table(emb: EmbeddingEval, rho_choice: DensityChoice):
    """emb.normalised(), its metric and its bracket table, built once per point and density."""
    hit = emb.unit_tables.get(rho_choice)
    if hit is None:
        unit = emb.normalised()
        met = induced_metric(unit)
        hit = emb.unit_tables[rho_choice] = (unit, met, build_bracket_table(unit, rho_choice))
    return hit


def gauss_full(emb: EmbeddingEval, rho_choice: DensityChoice) -> float:
    """K at emb's point, computed on the normalised point and scaled back."""
    unit, met, table = _unit_table(emb, rho_choice)
    return unit.unscale_gauss(gauss_full_from_table(table, unit, met))


def mean_full(emb: EmbeddingEval, rho_choice: DensityChoice) -> np.ndarray:
    """H at emb's point, computed on the normalised point and scaled back."""
    unit, met, table = _unit_table(emb, rho_choice)
    return unit.unscale_mean(mean_full_from_table(table, unit, met))


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
    derivative terms cancel.  f and h are functions of emb's parameters,
    2^p (u, v) on a normalised point.  Returns the normalized residual;
    see double_trace_rows.
    """
    at = normalised_at(emb)
    (f,) = eval_jet(f_ast.tape, at)
    (h,) = eval_jet(h_ast.tape, at)
    S = s_operator(table, emb, frame)
    res = double_trace_rows(
        emb.sig,
        emb.e[None],
        np.array([table.rho.value]),
        (frame.vectors[None], frame.grads[None], S[None]),
        (A, B),
        (np.array([f.value]), f.grad[None]),
        (np.array([h.value]), h.grad[None]),
    )
    return float(res[0])


def double_trace_rows(sig: AmbientSignature, e, rv, frame, pair, f, h):
    """double_trace_check of N points.

    frame is the normals (N, p, m), their derivatives (N, p, m, 2) and S
    (N, p, m, m); pair the normals (A, B) scaled by f and h, each a value
    (N,) and gradient (N, 2) in the normalised parameters.
    """
    vectors, grads, S = frame
    A, B = pair

    def scaled_bracket(jet, idx: int) -> np.ndarray:
        value, grad = jet
        d = grad[:, None, :] * vectors[:, idx, :, None] + value[:, None, None] * grads[:, idx]
        return bracket_with_rows(e, d, rv)  # {x^i, s N^j}, d (N, m, 2) its gradient

    lhs = trace_rows(sig.gbar, scaled_bracket(f, A), scaled_bracket(h, B))
    rhs = f[0] * h[0] * trace_rows(sig.gbar, S[:, A], S[:, B])
    return relative(lhs - rhs, lhs, rhs)


def relative(diff, *scales):
    """|diff| / max(1, |scales|...), for rows or one point; NaN in, NaN out."""
    bound = 1.0
    for scale in scales:
        bound = np.maximum(bound, np.abs(scale))
    return np.abs(diff) / bound
