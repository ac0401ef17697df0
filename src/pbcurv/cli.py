"""Command line front end: curvature tables and identity checks.

Exit codes: 0 success, 1 invariant or comparison failure, 2 usage or
configuration error, 3 geometric error at a sample point.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .classical import (
    FRAME_NULL_TOL,
    classical_gauss,
    classical_gauss_rows,
    classical_mean,
    classical_mean_rows,
    classical_normal_frame,
    evaluate_embedding,
    form_dets,
    form_traces,
    index_rows,
    induced_metric,
    inverse_rows,
    metric_rows,
    normal_candidate_rows,
    normal_projector_rows,
    normalise_rows,
    orthonormal_rows,
    second_fundamental,
    second_fundamental_rows,
    unscaled_rows,
)
from .errors import GeometricError, PbcurvError, UsageError
from .poisson import (
    Z_TOL,
    DensityChoice,
    bracket_rows,
    bracket_with_rows,
    build_bracket_table,
    build_z,
    density_rows,
    double_trace_check,
    double_trace_rows,
    frame_defect_rows,
    frame_gauss_rows,
    gauss_full_from_table,
    gauss_rows,
    gauss_via_frame,
    mean_full_from_table,
    mean_rows,
    normal_frame_from_z,
    relative,
    s_operator,
    s_rows,
    trace_rows,
    weingarten_frame,
    weingarten_rows,
    z_rows,
    zmap_rows,
)
from .exprlang import Exprs, eval_tape, parse_expression
from .surfaces import SurfaceSpec, grid_points, load_spec

# Most floats in one per-point array of a chunk, (N, m, m, m) or the Z
# projector's (N, C(m, 3), C(m, 3)); this bounds the memory of a grid at any m.
CHUNK_FLOATS = 2**20

RHO_INDEPENDENCE_DENSITIES = ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)")

DOUBLE_TRACE_PAIRS = (
    ("u", "sin(v) + 2"),
    ("exp(u)", "cosh(v)"),
    ("u*v", "1 + v^2"),
)

# Parsed once per process, not once per point.  The check density and the
# double-trace functions read the normalised parameters 2^p (u, v), so
# they vary on the scale of the surface whatever the scale of (u, v); one
# tape evaluates them all for a chunk, the check density first.
_DENSITIES = [
    dataclasses.replace(d, normalised=d.kind == "expression")
    for d in map(DensityChoice.from_string, RHO_INDEPENDENCE_DENSITIES)
]
_DOUBLE_TRACE_ASTS = [
    (parse_expression(f), parse_expression(h)) for f, h in DOUBLE_TRACE_PAIRS
]
_NORMALISED_EXPRS = Exprs(
    [*(d.expr for d in _DENSITIES if d.expr is not None), *itertools.chain(*_DOUBLE_TRACE_ASTS)]
)

_IDENTITY_TOLERANCES = {
    "p2_trace": 1e-9,
    "s2_trace": 1e-9,
    "ps_trace": 1e-9,
    "z_idempotent": 1e-9,
    "z_trace": 1e-9,
    "z_self_adjoint": 1e-9,
    "z_sum": 1e-9,
    "z_projector": 1e-8,
    "sigma_multiset": 0.5,
    "double_trace": 1e-9,
    "rho_independence": 1e-7,
}

# curvature --compare column -> the invariants row it reports
_COMPARE_RESIDUALS = {
    "res_p2trace": "p2_trace",
    "res_satrace": "s2_trace",
    "res_zproj": "z_projector",
    "res_ztrace": "z_trace",
    "res_zsum": "z_sum",
}
_RESIDUAL_COLUMNS = (*_COMPARE_RESIDUALS, "res_rho_indep")


# The residual formulas take rows (arrays with the batch axis first) or one
# point (floats and vectors), and propagate NaN, as poisson.relative does.

def _norm(x):
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _vec_rel(a, b):
    """|a - b| / max(1, |a|, |b|), norms over the last axis."""
    return relative(_norm(a - b), _norm(a), _norm(b))


def _kh_spread(kh):
    """Worst pairwise disagreement among (K, H) pairs that should agree."""
    spread = 0.0
    for (ka, ha), (kb, hb) in itertools.combinations(kh, 2):
        spread = np.maximum(spread, np.maximum(relative(ka - kb, ka, kb), _vec_rel(ha, hb)))
    return spread


def _oracle_res(k, h, k_oracle, h_oracle):
    """The K/H residual against the classical oracle that the --compare gate reads."""
    return np.maximum(relative(k - k_oracle, k_oracle), _vec_rel(h, h_oracle))


def _geometric(at: tuple[float, float], exc: GeometricError) -> GeometricError:
    return GeometricError(f"at (u, v) = ({at[0]!r}, {at[1]!r}): {exc}")


def _load(args) -> tuple[SurfaceSpec, DensityChoice, list]:
    """The surface, the density and the interior grid points a command runs on."""
    spec = load_spec(args.spec)
    rho = DensityChoice.from_string(args.rho) if args.rho else spec.density()
    points = grid_points(spec, _parse_grid(args.grid))
    if not points:
        raise UsageError("grid has no interior points")
    return spec, rho, points


def _alternative(rho: DensityChoice) -> DensityChoice:
    """The second density --compare checks K and H against."""
    return DensityChoice.unit() if rho.kind != "unit" else DensityChoice.sqrt_abs_g()


def _kh(table, emb, met):
    return gauss_full_from_table(table, emb, met), mean_full_from_table(table, emb, met)


def _identity_rows(sig, P, rv, det_g, ginv, h, S, z, delta, zframe, frame) -> dict:
    """The bracket identity residuals of N points, one array (N,) per key.

    Keys are the invariants rows from p2_trace to sigma_multiset; the
    --compare columns report a subset of them (_COMPARE_RESIDUALS).  h and
    S are the second fundamental form and the mixed brackets of the
    classical frame, z is z_rows' output and delta = nu - ind g; zframe
    and frame are the signs (N, p) and vectors (N, p, m) of the Z frame
    and of the classical frame.
    """
    gb = sig.gbar
    rv2 = rv * rv
    out = {}
    lhs = trace_rows(gb, P, P)
    rhs = -2.0 * det_g / rv2
    out["p2_trace"] = relative(lhs - rhs, lhs, rhs)
    s2 = trace_rows(gb, S, S)
    out["s2_trace"] = np.max(relative(s2 + 2.0 * form_dets(h) / rv2[:, None], s2), axis=1)
    ps = trace_rows(gb, P[:, None], S)
    weingarten = form_traces(ginv, h)
    out["ps_trace"] = np.max(relative(ps - det_g[:, None] * weingarten / rv2[:, None], ps), axis=1)
    out.update(zmap_rows(sig, z, (-1.0) ** delta, P, rv, det_g))
    proj_c = normal_projector_rows(*frame)
    out["z_projector"] = relative(
        np.abs(normal_projector_rows(*zframe) - proj_c).max(axis=(1, 2)),
        np.abs(proj_c).max(axis=(1, 2)),
    )
    negative = [np.add.reduce(signs < 0, axis=1) for signs, _ in (zframe, frame)]
    match = (negative[0] == negative[1]) & (negative[0] == delta)
    out["sigma_multiset"] = np.where(match, 0.0, 1.0)
    return out


def _record(
    spec: SurfaceSpec, rho: DensityChoice, at: tuple[float, float], level: str
) -> dict:
    """The values of one grid point at one level, through the per-point library calls.

    "plain": K and H; "compare": the --compare columns, plus "oracle_res",
    the K/H residual against the classical oracle that the gate reads;
    "invariants": the invariants rows, plus ind_g and sigma for the header.
    Every stage runs on the normalised point, so residuals are relative
    at any scale; only the printed K and H are scaled back.  Each stage
    raises the point's own geometric error.
    """
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at).normalised()
    met = induced_metric(emb)
    table = build_bracket_table(emb, rho)
    record: dict[str, object] = {"u": at[0], "v": at[1], "status": "ok"}
    if level != "invariants":
        k_full, h_full = _kh(table, emb, met)
        record["K_full"] = emb.unscale_gauss(k_full)
        record.update({f"H_full_{i}": x for i, x in enumerate(emb.unscale_mean(h_full), 1)})
        if level == "plain":
            return record
    frame = classical_normal_frame(emb, met)
    h = second_fundamental(emb, frame)
    ff = weingarten_frame(emb, met, frame, h)  # the frame with its derivatives
    zd = build_z(table, emb, met)
    zframe = normal_frame_from_z(zd, emb.sig)  # raises where the Z rows give no frame
    res = _identity_rows(
        emb.sig,
        table.P[None],
        np.array([table.rho.value]),
        np.array([met.det_g]),
        met.ginv[None],
        h[None],
        s_operator(table, emb, ff)[None],
        (zd.Z_lower[None], zd.Z_upper[None], zd.Zmat[None], zd.weights),
        np.array([zd.delta]),
        (zframe.sigma[None], zframe.vectors[None]),
        (ff.sigma[None], ff.vectors[None]),
    )
    res = {key: float(x[0]) for key, x in res.items()}
    if level == "invariants":
        res["double_trace"] = float(np.max([
            double_trace_check(table, emb, ff, 0, emb.sig.codim - 1, fa, ha)
            for fa, ha in _DOUBLE_TRACE_ASTS
        ]))
        tables = [table if d == rho else build_bracket_table(emb, d) for d in _DENSITIES]
        res["rho_independence"] = float(_kh_spread([_kh(t, emb, met) for t in tables]))
        return {**record, **res, "ind_g": met.ind_g, "sigma": sorted(frame.sigma.tolist())}
    k_oracle, h_oracle = classical_gauss(met, frame, h), classical_mean(met, frame, h)
    record["K_frame"] = emb.unscale_gauss(gauss_via_frame(table, emb, met, ff))
    record["K_oracle"] = emb.unscale_gauss(k_oracle)
    record.update({f"H_oracle_{i}": x for i, x in enumerate(emb.unscale_mean(h_oracle), 1)})
    record.update({column: res[key] for column, key in _COMPARE_RESIDUALS.items()})
    kh_alt = _kh(build_bracket_table(emb, _alternative(rho)), emb, met)
    record["res_rho_indep"] = float(_kh_spread([(k_full, h_full), kh_alt]))
    record["oracle_res"] = float(_oracle_res(k_full, h_full, k_oracle, h_oracle))
    return record


def _table_rows(d: DensityChoice, sig, e, xdd, p, expr=None):
    """The bracket_rows of density d for N points, and the rows where d vanishes."""
    rv, grad, vanishes = density_rows(d, sig.gbar, e, xdd, p, expr)
    return bracket_rows(e, xdd, rv, grad), vanishes


def _kh_rows(sig, e, table, det_g):
    """K (N,) and H (N, m) from one bracket_rows table, and the rows where either fails closed."""
    P, Pgrad, rv, _ = table
    T = bracket_with_rows(e, Pgrad, rv)  # T[i, k, l] = {x^i, {x^k, x^l}}
    k, *k_fails = gauss_rows(sig, T, rv, det_g)
    h, *h_fails = mean_rows(sig, T, P, rv, det_g)
    return k, h, np.logical_or.reduce([*k_fails, *(f.any(axis=1) for f in h_fails)])


def _unscaled(x, n):
    """unscaled_rows, and the rows where an entry leaves the float range."""
    y, over, under = unscaled_rows(x, n)
    out = over | under
    return y, out if out.ndim == 1 else out.any(axis=1)


def _chunk(spec: SurfaceSpec, rho: DensityChoice, u, v, level: str):
    """The columns of N points at one level, batch axis first, and the rows to recompute.

    Runs the stages of _record on arrays, walking the same tapes as its
    points do, and flags every row where one of the checks of _record
    could refuse the point, so that the point's own error, or its record,
    comes from the per-point path.  Returns a dict of arrays, one per
    record key; sigma holds (N, p) sorted signs.
    """
    sig = spec.signature
    gb, m = sig.gbar, sig.m
    _, grads, hessians, bad = eval_tape(spec.coord_asts.tape, u, v)
    e = np.ascontiguousarray(grads.transpose(1, 2, 0))  # (N, 2, m)
    xdd = np.ascontiguousarray(hessians.transpose(1, 0, 2, 3))  # (N, m, 2, 2)
    e, xdd, l, p = normalise_rows(e, xdd)
    gab, det_g, non_finite, singular = metric_rows(gb, e)
    bad |= non_finite | singular
    expr = None
    if rho.kind == "expression":
        expr_values, expr_grads, _, expr_bad = eval_tape(rho.expr.tape, u, v)
        expr = (expr_values[0], expr_grads[0])
        bad |= expr_bad
    table, vanishes = _table_rows(rho, sig, e, xdd, p, expr)
    bad |= vanishes
    P, _, rv, _ = table
    cols = {}
    if level != "invariants":
        k, h, fails = _kh_rows(sig, e, table, det_g)
        cols["K_full"], k_range = _unscaled(k, 2 * l)
        h_full, h_range = _unscaled(h, l[:, None])
        cols.update(zip(_names("H_full", m), h_full.T))
        bad |= fails | k_range | h_range
        if level == "plain":
            return cols, bad
    codim = sig.codim
    ginv = inverse_rows(gab, det_g)
    ind_g = index_rows(gab, det_g)
    delta = sig.nu - ind_g
    z = z_rows(sig, P, rv, det_g, (-1.0) ** delta)
    frame, zframe, frames_bad = _frame_rows(sig, normal_candidate_rows(sig, e, ginv), z[0])
    bad |= frames_bad
    sigma, vectors = frame
    sff = second_fundamental_rows(gb, xdd, vectors)
    frame_grads = weingarten_rows(sff, ginv, e)
    S = s_rows(e, frame_grads, rv)
    res = _identity_rows(sig, P, rv, det_g, ginv, sff, S, z, delta, zframe, frame)
    if level == "invariants":
        at = np.ldexp(u, p), np.ldexp(v, p)
        values, jet_grads, _, jets_bad = eval_tape(_NORMALISED_EXPRS.tape, *at)
        bad |= jets_bad
        jets = list(zip(values, jet_grads))  # the check density, then f and h of each pair
        frame = (vectors, frame_grads, S)
        res["double_trace"] = np.max(
            [
                double_trace_rows(sig, e, rv, frame, (0, codim - 1), jets[i], jets[i + 1])
                for i in range(1, len(jets), 2)
            ],
            axis=0,
        )
        kh = []
        for d in _DENSITIES:
            d_table = table
            if d != rho:
                d_table, vanishes = _table_rows(d, sig, e, xdd, p, jets[0])
                bad |= vanishes
            k_d, h_d, fails = _kh_rows(sig, e, d_table, det_g)
            bad |= fails
            kh.append((k_d, h_d))
        res["rho_independence"] = _kh_spread(kh)
        return {**res, "ind_g": ind_g, "sigma": np.sort(sigma, axis=1)}, bad
    k_oracle = classical_gauss_rows(det_g, sigma, sff)
    h_oracle = classical_mean_rows(ginv, sigma, vectors, sff)
    k_frame = frame_gauss_rows(rv, det_g, sigma, trace_rows(gb, S, S))
    cols["K_frame"], k_frame_range = _unscaled(k_frame, 2 * l)
    cols["K_oracle"], k_oracle_range = _unscaled(k_oracle, 2 * l)
    h_oracle_full, h_oracle_range = _unscaled(h_oracle, l[:, None])
    cols.update(zip(_names("H_oracle", m), h_oracle_full.T))
    bad |= k_frame_range | k_oracle_range | h_oracle_range
    cols.update({column: res[key] for column, key in _COMPARE_RESIDUALS.items()})
    alt_table, vanishes = _table_rows(_alternative(rho), sig, e, xdd, p)
    k_alt, h_alt, fails = _kh_rows(sig, e, alt_table, det_g)
    bad |= vanishes | fails
    cols["res_rho_indep"] = _kh_spread([(k, h), (k_alt, h_alt)])
    cols["oracle_res"] = _oracle_res(k, h, k_oracle, h_oracle)
    return cols, bad


def _frame_rows(sig, candidates, z_lower):
    """The classical frame and the Z frame of N points, and the rows where either fails.

    One orthonormal_rows call runs both pools, padded with zero rows
    (never live) to one size, for codim + 1 rounds: the classical frame
    keeps its first codim vectors, as classical_normal_frame does, and the
    Z rows must span exactly codim directions, as normal_frame_from_z
    requires.  Returns each frame as (signs (N, p), vectors (N, p, m)).
    """
    n, codim, m = len(candidates), sig.codim, sig.m
    pool = np.zeros((2 * n, max(m, z_lower.shape[1]), m))
    pool[:n, :m] = candidates
    pool[n:, : z_lower.shape[1]] = z_lower
    vectors, signs, count, null, non_finite = orthonormal_rows(
        pool, sig.gbar, codim + 1, null_tol=_NULL_TOLS.repeat(n)
    )
    signs, vectors = signs[:, :codim], vectors[:, :codim]
    bad = non_finite | (count < codim)
    bad[n:] |= null[n:] | (count[n:] > codim)
    bad[n:] |= frame_defect_rows(sig, vectors[n:], signs[n:]) > Z_TOL
    return (signs[:n], vectors[:n]), (signs[n:], vectors[n:]), bad[:n] | bad[n:]


# the null tolerances of the classical frame and of the Z frame, as _frame_rows pools them
_NULL_TOLS = np.array([FRAME_NULL_TOL, Z_TOL])


@functools.lru_cache(maxsize=None)
def _names(prefix: str, m: int) -> tuple[str, ...]:
    return tuple(f"{prefix}_{i}" for i in range(1, m + 1))


def _chunk_size(m: int, level: str) -> int:
    """Points per chunk: CHUNK_FLOATS over the largest per-point array of the level."""
    largest = m**3 if level == "plain" else max(m**3, math.comb(m, 3) ** 2)
    return max(1, CHUNK_FLOATS // largest)


def _records(spec, rho, points, level: str, skip_degenerate: bool = False) -> dict[str, list]:
    """The columns of all grid points at one level, {key: list over the points}, in grid order.

    Every level runs batched over the grid, in chunks (_chunk); a row it
    flags runs through _record, which raises the point's own error, and
    its values replace the row's slot in every column.  A geometric error
    is a skipped row, None after u, v and status, or exit 3.
    """
    size = _chunk_size(spec.m, level)
    table: dict[str, list] = {
        "u": [pt[2] for pt in points],
        "v": [pt[3] for pt in points],
        "status": ["ok"] * len(points),
    }
    flagged: list[int] = []
    for start in range(0, len(points), size):
        u = np.array(table["u"][start:start + size])
        v = np.array(table["v"][start:start + size])
        with np.errstate(all="ignore"):  # flagged rows are recomputed, not warned about
            cols, bad = _chunk(spec, rho, u, v, level)
        for key, col in cols.items():
            table.setdefault(key, []).extend(col.tolist())
        flagged += (np.flatnonzero(bad) + start).tolist()
    for i in flagged:
        at = table["u"][i], table["v"][i]
        try:
            record = _record(spec, rho, at, level)
        except GeometricError as exc:
            if not skip_degenerate:
                raise _geometric(at, exc) from exc
            record = {"u": at[0], "v": at[1], "status": f"skipped: {exc}"}
        for key, col in table.items():
            col[i] = record.get(key)
    return table


def _columns(m: int, compare: bool) -> list[str]:
    cols = ["u", "v", "status", "K_full"]
    cols += [f"H_full_{i}" for i in range(1, m + 1)]
    if compare:
        cols += ["K_frame", "K_oracle"]
        cols += [f"H_oracle_{i}" for i in range(1, m + 1)]
        cols += _RESIDUAL_COLUMNS
    return cols


def _cell(value) -> str:
    """One CSV cell of a skipped row: None is empty, a status holding a comma is quoted."""
    if value is None:
        return ""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"' if "," in value else value
    return format(float(value), ".17g")


def _emit(table: dict[str, list], columns: list[str], args, spec: SurfaceSpec, out) -> None:
    rows = zip(*(table[col] for col in columns))
    if args.format == "json":
        payload = {
            "surface": spec.name,
            "m": spec.m,
            "nu": spec.nu,
            "rho": args.rho if args.rho else spec.rho,
            "points": [
                {col: x for col, x in zip(columns, row) if x is not None} for row in rows
            ],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    out.write(",".join(columns) + "\n")
    ok_row = ",".join("%s" if col == "status" else "%.17g" for col in columns) + "\n"
    out.writelines(
        ok_row % row if status == "ok" else ",".join(map(_cell, row)) + "\n"
        for status, row in zip(table["status"], rows)
    )


def cmd_curvature(args) -> int:
    spec, rho, points = _load(args)
    level = "compare" if args.compare else "plain"
    table = _records(spec, rho, points, level, args.skip_degenerate)
    columns = _columns(spec.m, args.compare)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _emit(table, columns, args, spec, fh)
    else:
        _emit(table, columns, args, spec, sys.stdout)
    if level == "plain":
        return 0
    tol = args.tolerance if args.tolerance is not None else 1e-8
    ok = np.flatnonzero([status == "ok" for status in table["status"]])
    gate = np.array([table[key] for key in ("oracle_res", *_RESIDUAL_COLUMNS)], dtype=float)
    # finite identity residuals are reported, not gated; NaN fails
    failed = ~(gate[0, ok] <= tol) | ~np.isfinite(gate[1:, ok]).all(axis=0)
    if failed.any():
        i = ok[np.argmax(failed)]
        at = table["u"][i], table["v"][i]
        print(f"comparison failure at (u, v) = {at!r}", file=sys.stderr)
        return 1
    if not len(ok):
        print("comparison failure: no point was compared", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(args) -> int:
    spec, rho, points = _load(args)
    table = _records(spec, rho, points, "invariants")
    tolerances = dict(_IDENTITY_TOLERANCES)
    if args.tolerance is not None:
        tolerances = {key: args.tolerance for key in tolerances}
    # np.max, not nanmax: a NaN residual fails its row
    maxima = np.max([table[key] for key in tolerances], axis=1, initial=0.0)
    worst = dict(zip(tolerances, maxima.tolist()))
    ind_g, sigma = table["ind_g"][0], table["sigma"][0]
    print(f"surface: {spec.name}  m={spec.m}  nu={spec.nu}  rho={rho.source}")
    print(
        f"ind_g={ind_g}  delta={spec.nu - ind_g}  "
        f"sigma multiset={sigma}  points={len(points)}"
    )
    print(f"{'identity':<18}{'max residual':>14}{'tolerance':>12}  status")
    passed = {key: worst[key] <= tol for key, tol in tolerances.items()}
    for key, tol in tolerances.items():
        status = "PASS" if passed[key] else "FAIL"
        print(f"{key:<18}{worst[key]:>14.3e}{tol:>12.1e}  {status}")
    return 0 if all(passed.values()) else 1


def _parse_grid(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"grid must look like 8x8, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"grid must look like 8x8, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbcurv",
        description="Curvature of embedded surfaces from Poisson brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="catalog surface name or config file path")
        p.add_argument(
            "--rho",
            default=None,
            help="density choice: unit | sqrtg | expr:<expression>",
        )
        p.add_argument("--grid", default=None, help="sample grid, e.g. 8x8")

    def tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tolerance", type=float, default=None, help="override tolerances"
        )

    p_curv = sub.add_parser("curvature", help="curvature table over the grid")
    common(p_curv)
    tolerance(p_curv)
    p_curv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curv.add_argument(
        "--compare",
        action="store_true",
        help="also compute the classical values and residuals",
    )
    p_curv.add_argument(
        "--skip-degenerate",
        action="store_true",
        help="record geometric failures as skipped points",
    )
    p_curv.add_argument("--output", default=None, help="write to a file instead of stdout")
    p_curv.set_defaults(fn=cmd_curvature)

    p_inv = sub.add_parser("invariants", help="identity checks over the grid")
    common(p_inv)
    tolerance(p_inv)
    p_inv.set_defaults(fn=cmd_invariants)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tolerance", None)
        if tol is not None and not math.isfinite(tol):
            raise UsageError(f"--tolerance must be finite, got {tol!r}")
        if tol is not None and tol < 0.0:
            raise UsageError(f"--tolerance must be non-negative, got {tol!r}")
        # overflow to inf/nan is reported by the finite checks, not as numpy warnings
        with np.errstate(all="ignore"):
            code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is left of stdout to
        # devnull so the exit-time flush cannot fail again (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometricError as exc:
        print(f"geometric error: {exc}", file=sys.stderr)
        return 3
    except PbcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
