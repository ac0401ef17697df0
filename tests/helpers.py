"""Shared test utilities: point sampling, residual measures and oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np

from pbcurv import jets
from pbcurv.classical import (
    EmbeddingEval,
    InducedMetric,
    _NullPivot,
    det_g_rows,
    evaluate_embedding,
    induced_metric,
)
from pbcurv.errors import EvalError, JetDivisionByZero, JetDomainError
from pbcurv.exprlang import VARIABLES, Ast, BinOp, Call, Constant, Neg, PowConst, Variable
from pbcurv.jets import DENOM_FLOOR, Jet1, Jet2
from pbcurv.poisson import BracketTable, DensityChoice, build_bracket_table, nested_bracket_tensor
from pbcurv.surfaces import CATALOG, SurfaceSpec, grid_points
from pbcurv.tensor import (
    AmbientSignature,
    _validate_indices,
    ensure_within_cap,
    eps_contract_naive,
    permutation_sign,
)


def rel(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def vec_rel(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) / max(
        1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b))
    )


def interior_points(spec: SurfaceSpec, grid=(8, 8)):
    """Interior (u, v) pairs of the sample grid."""
    return [(u, v) for _, _, u, v in grid_points(spec, grid)]


def arc_sphere(radius: str) -> str:
    """Config text: the sphere of this radius in parameters scaled by it.

    e ~ 1 and x_ab ~ 1 / radius, so K = radius^-2 while det g stays near 1.
    """
    r = float(radius)
    x = [f"{radius}*sin(u/{radius})*cos(v/{radius})", f"{radius}*sin(u/{radius})*sin(v/{radius})"]
    return (
        f'm = 3\nnu = 0\ncoords = ["{x[0]}", "{x[1]}", "{radius}*cos(u/{radius})"]\n'
        f"domain = [{0.3 * r!r}, {2.8 * r!r}, {0.1 * r!r}, {6.0 * r!r}]\n"
    )


def natural_sphere(radius: str) -> str:
    """Config text: the sphere of this radius in its angle parameters.

    e ~ radius and x_ab ~ radius, so K = radius^-2 and det g ~ radius^4.
    """
    x = [f"{radius}*sin(u)*cos(v)", f"{radius}*sin(u)*sin(v)", f"{radius}*cos(u)"]
    return (
        f'm = 3\nnu = 0\ncoords = ["{x[0]}", "{x[1]}", "{x[2]}"]\n'
        "domain = [0.3, 2.8, 0.1, 6.0]\n"
    )


def midpoint(spec: SurfaceSpec):
    """A generic off-axis point inside the domain."""
    u0, u1, v0, v1 = spec.domain
    return (u0 + 0.6 * (u1 - u0), v0 + 0.55 * (v1 - v0))


def point_setup(name: str, at=None, rho: str = "sqrt_abs_g"):
    """Embedding, metric, and bracket table for a catalog surface."""
    spec = CATALOG[name]
    if at is None:
        at = midpoint(spec)
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(rho))
    return spec, emb, met, table


def random_embedding(m: int, nu: int, seed: int) -> EmbeddingEval:
    """Embedding jets with random gradients and Hessians at one point."""
    rng = np.random.default_rng(seed)
    jets = []
    for _ in range(m):
        hess = rng.uniform(-2.0, 2.0, (2, 2))
        jets.append(Jet2(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0, 2), hess + hess.T))
    return EmbeddingEval(AmbientSignature(m, nu), jets, (0.3, 0.7))


def clear_of_degeneracy(emb: EmbeddingEval) -> bool:
    """|det g| is at least 0.05 times the squared size of the metric."""
    gab = np.einsum("i,ai,bi->ab", emb.sig.gbar, emb.e, emb.e)
    det = gab[0, 0] * gab[1, 1] - gab[0, 1] ** 2
    return abs(det) >= 0.05 * max(1.0, float(np.abs(gab).max())) ** 2


def det_g_jet(emb: EmbeddingEval) -> Jet1:
    """det g with its parameter gradient at emb's point (classical.det_g_rows, one row)."""
    value, grad = det_g_rows(emb.sig.gbar, emb.e[None], emb.xdd[None])
    return Jet1(float(value[0]), grad[0])


def metric_jets(emb: EmbeddingEval) -> list[list[Jet1]]:
    """Oracle for pbcurv.classical.det_g_rows: each g_ab as an order-1 jet, one loop per entry."""
    gbar = emb.sig.gbar
    out: list[list[Jet1]] = []
    for a in range(2):
        row = []
        for b in range(2):
            value = float(np.sum(gbar * emb.e[a] * emb.e[b]))
            grad = np.array(
                [
                    float(
                        np.sum(
                            gbar
                            * (emb.xdd[:, a, c] * emb.e[b] + emb.e[a] * emb.xdd[:, b, c])
                        )
                    )
                    for c in range(2)
                ]
            )
            row.append(Jet1(value, grad))
        out.append(row)
    return out


def looped_orthonormalize(
    candidates: np.ndarray,
    inner_diag: np.ndarray,
    max_count: int,
    *,
    null_tol: float,
    drop_tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for pbcurv.classical.pivoted_orthonormalize: one loop per candidate.

    Each round re-projects every candidate from scratch against all the
    accepted vectors, then applies the same pivot rule: the largest
    |<w, w>| / |w|^2 among residuals at least 1e-3 times the round's
    longest, the lowest index within 1e-9, drop_tol relative to the
    candidate's own norm, and _NullPivot when only null residuals remain.
    """
    dim = candidates.shape[1]
    pre_norms = np.linalg.norm(candidates, axis=1)
    accepted: list[np.ndarray] = []
    signs: list[int] = []

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(inner_diag * a * b))

    while len(accepted) < max_count:
        entries: list[tuple[np.ndarray, float, float]] = []
        for cand, pre in zip(candidates, pre_norms):
            if pre <= drop_tol:
                continue
            w = cand.copy()
            for q, s in zip(accepted, signs):
                w -= s * inner(w, q) * q
            norm = float(np.linalg.norm(w))
            if norm <= drop_tol * pre:
                continue  # numerically inside the accepted span
            unit = w / norm
            entries.append((w, norm, abs(inner(unit, unit))))
        if not entries:
            break  # pool exhausted: the span is fully captured
        longest = max(norm for _, norm, _ in entries)
        entries = [e for e in entries if e[1] >= 1e-3 * longest]
        top = max(quality for _, _, quality in entries)
        if top <= null_tol:
            raise _NullPivot(len(accepted))
        best_vec = next(w for w, _, quality in entries if quality >= top - 1e-9)
        ip = inner(best_vec, best_vec)
        accepted.append(best_vec / np.sqrt(abs(ip)))
        signs.append(1 if ip > 0 else -1)
    if not accepted:
        return np.zeros((0, dim)), np.zeros(0, dtype=int)
    return np.array(accepted), np.array(signs, dtype=int)


def walk_jet(node: Ast, at: tuple[float, float]) -> Jet2:
    """Oracle for pbcurv.exprlang.eval_jet and eval_tape: a recursive walk of the AST.

    Left operand first, each node through jets.outside, jets.rule with math
    and jets.finite; the first failing node raises EvalError at its offset.
    """
    if isinstance(node, Constant):
        return Jet2.constant(node.value)
    if isinstance(node, Variable):
        return Jet2.variable(VARIABLES.index(node.name) + 1, at)
    b, c = None, 0.0
    if isinstance(node, BinOp):
        op, a, b = node.op, walk_jet(node.left, at), walk_jet(node.right, at)
    elif isinstance(node, PowConst):
        op, a, c = "pow", walk_jet(node.base, at), node.exponent
    elif isinstance(node, Call):
        op, a = node.fn, walk_jet(node.arg, at)
    elif isinstance(node, Neg):
        op, a = "neg", walk_jet(node.child, at)
    else:
        raise TypeError(f"not an AST node: {node!r}")
    try:
        if jets.outside(op, a, b, c):
            raise JetDivisionByZero(b.value) if op == "/" else JetDomainError(op, a.value)
        return jets.finite(op, jets.rule(op, a, b, c, math))
    except (JetDomainError, JetDivisionByZero) as exc:
        raise EvalError(str(exc), node.pos) from exc
    except OverflowError as exc:
        raise EvalError(f"{op} overflows the float range", node.pos) from exc


def eval_value(node: Ast, at: tuple[float, float]) -> float:
    """Oracle for pbcurv.exprlang.eval_jet: plain float evaluation, no jet arithmetic."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        return float(at[VARIABLES.index(node.name)])
    if isinstance(node, Neg):
        return -eval_value(node.child, at)
    if isinstance(node, BinOp):
        left = eval_value(node.left, at)
        right = eval_value(node.right, at)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if abs(right) <= DENOM_FLOOR:
            raise EvalError(f"division by near-zero value {right!r}", node.pos)
        return left / right
    if isinstance(node, PowConst):
        base = eval_value(node.base, at)
        c = node.exponent
        if c.is_integer():
            if base == 0.0 and c < 0:
                raise EvalError("zero base with negative exponent", node.pos)
            return base ** int(c)
        if base <= 0.0:
            raise EvalError(f"fractional power of non-positive base {base!r}", node.pos)
        return base**c
    if isinstance(node, Call):
        arg = eval_value(node.arg, at)
        try:
            return _FLOAT_FNS[node.fn](arg)
        except ValueError as exc:
            raise EvalError(f"{node.fn} undefined at {arg!r}", node.pos) from exc
    raise TypeError(f"not an AST node: {node!r}")


_FLOAT_FNS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def tangent_projector(emb: EmbeddingEval, met: InducedMetric) -> np.ndarray:
    """Sum of g^{ab} e_a^k e_b^l: the tangent block of the inverse metric."""
    return np.einsum("ab,ak,bl->kl", met.ginv, emb.e, emb.e)


def z_projector(zd, sig: AmbientSignature) -> np.ndarray:
    """Pi = delta_sign Z_lower^T Z_upper gbar: the bracket normal projector of a ZData on R^m."""
    return zd.delta_sign * (zd.Z_lower.T @ zd.Z_upper) * sig.gbar


def eps_symbol(indices: tuple[int, ...]) -> int:
    """Permutation symbol on len(indices) letters, 1-based entries."""
    m = len(indices)
    _validate_indices(indices, m)
    return permutation_sign(indices) if len(set(indices)) == m else 0


def eps_contract_reduced(jkl: tuple[int, int, int], irn: tuple[int, int, int], m: int) -> int:
    """Oracle for pbcurv.tensor.eps_contract_naive: (m-3)! times a 3x3 delta determinant.

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


def naive_symbol_pairs(m: int) -> np.ndarray:
    """D[j, k, l, i, r, n] = sum over L of eps_{jklL} eps^{irnL}, one call per pair."""
    ensure_within_cap(m, "the brute-force symbol contraction")
    D = np.zeros((m,) * 6)
    triples = list(itertools.permutations(range(1, m + 1), 3))
    for jkl in triples:
        for irn in triples:
            D[tuple(a - 1 for a in jkl + irn)] = eps_contract_naive(jkl, irn, m)
    return D


def gauss_naive(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> float:
    """Oracle for pbcurv.poisson.gauss_full_from_table: the symbol contraction in full."""
    sig = emb.sig
    gb = sig.gbar
    T = nested_bracket_tensor(table, emb)
    D = naive_symbol_pairs(sig.m)
    acc = float(np.einsum("jklirn,i,r,n,ikl,jrn->", D, gb, gb, gb, T, T))
    rv = table.rho.value
    return -(rv**4) * acc / (8.0 * met.det_g**2 * math.factorial(sig.codim - 1))


def mean_naive(table: BracketTable, emb: EmbeddingEval, met: InducedMetric) -> np.ndarray:
    """Oracle for pbcurv.poisson.mean_full_from_table: the symbol contraction in full."""
    sig = emb.sig
    gb = sig.gbar
    T = nested_bracket_tensor(table, emb)
    G = np.einsum("ij,j,jrn->irn", table.P, gb, T)
    W = gb[:, None] * table.P * gb[None, :]
    out = np.einsum("irnkab,irn,ab->k", naive_symbol_pairs(sig.m), G, W)
    rv = table.rho.value
    return rv**4 / (8.0 * met.det_g**2 * math.factorial(sig.codim - 1)) * out


def error_scales(
    table: BracketTable, emb: EmbeddingEval, met: InducedMetric, k_ref: float, h_ref: np.ndarray
) -> tuple[float, np.ndarray]:
    """S_K and S_H[k]: errors of one eps in the bracket path's inputs move K and H this much.

    With pref = rho^4 / (8 (det g)^2 (p-1)!), the sums of |terms| are
    S_K = pref (m-3)! (2 sum T^2 + 4 sum_n (sum_i |T[i,i,n]|)^2) and
    S_H[k] = pref 4 (m-3)! (1/2 sum_rn |G[k,r,n] W[r,n]| + sum_ir |G[i,r,k] W[i,r]|).
    det g also cancels: its relative error is up to kappa eps, with
    kappa = (|g|_00 |g|_11 + |g|_01^2) / |det g| and |g|_ab = sum_i |e_a^i e_b^i|,
    and K and H divide by (det g)^2, so each scale adds 2 kappa |K*| or
    2 kappa |H*[k]|.  Near a degenerate metric this term dominates.
    """
    sig = emb.sig
    m, p = sig.m, sig.codim
    gb = sig.gbar
    rv = table.rho.value
    T = nested_bracket_tensor(table, emb)
    G = np.einsum("ij,j,jrn->irn", table.P, gb, T)
    W = gb[:, None] * table.P * gb[None, :]
    pref = rv**4 / (8.0 * met.det_g**2 * math.factorial(p - 1))
    diag = np.abs(np.einsum("iin->in", T)).sum(axis=0)
    s_k = pref * math.factorial(m - 3) * (2.0 * np.sum(T * T) + 4.0 * np.sum(diag * diag))
    s_h = pref * 4.0 * math.factorial(m - 3) * (
        0.5 * np.einsum("krn,rn->k", np.abs(G), np.abs(W))
        + np.einsum("irk,ir->k", np.abs(G), np.abs(W))
    )
    ga = np.abs(emb.e) @ np.abs(emb.e).T
    kappa = (ga[0, 0] * ga[1, 1] + ga[0, 1] ** 2) / abs(met.det_g)
    return float(s_k + 2.0 * kappa * abs(k_ref)), s_h + 2.0 * kappa * np.abs(h_ref)
