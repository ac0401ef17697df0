"""Shared test utilities: point sampling, residual measures and oracles."""

from __future__ import annotations

import numpy as np

from pbcurv.classical import EmbeddingEval, _NullPivot, evaluate_embedding, induced_metric
from pbcurv.jets import Jet1, Jet2
from pbcurv.poisson import DensityChoice, build_bracket_table
from pbcurv.surfaces import CATALOG, SurfaceSpec, grid_points
from pbcurv.tensor import AmbientSignature


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


def metric_jets(emb: EmbeddingEval) -> list[list[Jet1]]:
    """Oracle for pbcurv.classical.det_g_jet: each g_ab as an order-1 jet, one loop per entry."""
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
