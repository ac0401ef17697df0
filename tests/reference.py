"""A 50-digit reference for K and H, and the rounding scale of the bracket path.

reference_curvature takes the float jets of an EmbeddingEval as exact
and computes, in mpmath at 50 digits,

    K* = (gbar(x_uu, Pi_N x_vv) - gbar(x_uv, Pi_N x_uv)) / det g
    H* = 1/2 Pi_N(g^{ab} x_ab),   Pi_N x = x - g^{ab} gbar(x, e_a) e_b,

so the gap between K*, H* and the bracket path's K, H is that path's
own rounding error.  error_scales (from helpers, where the mpmath-free
tests use it too) gives the sums of |terms| of the bracket path's closed
forms and the conditioning of det g; an error of a few eps times these
is the most its float arithmetic can leave.
"""

from __future__ import annotations

import numpy as np
import pytest

from pbcurv.classical import EmbeddingEval

from helpers import error_scales  # noqa: F401  (re-exported for test_reference)

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
