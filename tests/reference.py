"""A 50-digit reference for K and H, and the rounding scale of the bracket path.

reference_curvature takes the float jets of an EmbeddingEval as exact
and computes, in mpmath at 50 digits,

    K* = (gbar(x_uu, Pi_N x_vv) - gbar(x_uv, Pi_N x_uv)) / det g
    H* = 1/2 Pi_N(g^{ab} x_ab),   Pi_N x = x - g^{ab} gbar(x, e_a) e_b,

so the gap between K*, H* and the bracket path's K, H is that path's
own rounding error.  error_scales gives the sums of |terms| of the
bracket path's closed forms and the conditioning of det g; an error of
a few eps times these is the most its float arithmetic can leave.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pbcurv.classical import EmbeddingEval, InducedMetric
from pbcurv.poisson import BracketTable, nested_bracket_tensor

mpmath = pytest.importorskip("mpmath")

DIGITS = 50


def reference_curvature(emb: EmbeddingEval) -> tuple[float, np.ndarray]:
    """K* and H* at 50 digits from emb's jets, rounded to float once."""
    mp = mpmath.mp
    m = emb.sig.m
    with mp.workdps(DIGITS):
        gb = [mp.mpf(float(x)) for x in emb.sig.gbar]
        e = [[mp.mpf(float(x)) for x in row] for row in emb.e]
        xdd = [[[mp.mpf(float(emb.xdd[i, a, b])) for i in range(m)] for b in range(2)]
               for a in range(2)]

        def dot(x, y):
            return mp.fsum(s * p * q for s, p, q in zip(gb, x, y))

        g = [[dot(e[a], e[b]) for b in range(2)] for a in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        ginv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]

        def normal(x):
            c = [mp.fsum(ginv[a][b] * dot(x, e[a]) for a in range(2)) for b in range(2)]
            return [x[i] - c[0] * e[0][i] - c[1] * e[1][i] for i in range(m)]

        k = (dot(xdd[0][0], normal(xdd[1][1])) - dot(xdd[0][1], normal(xdd[0][1]))) / det
        trace = [mp.fsum(ginv[a][b] * xdd[a][b][i] for a in range(2) for b in range(2))
                 for i in range(m)]
        h = [x / 2 for x in normal(trace)]
        return float(k), np.array([float(x) for x in h])


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
