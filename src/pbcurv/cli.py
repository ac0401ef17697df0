"""Command line front end: curvature tables and identity checks.

Exit codes: 0 success, 1 invariant or comparison failure, 2 usage or
configuration error, 3 geometric error at a sample point.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from .classical import (
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    metric_rows,
    normal_projector,
    normalise_rows,
    second_fundamental,
    unscaled_rows,
)
from .classical import NormalFrame
from .errors import GeometricError, PbcurvError, UsageError
from .poisson import (
    DensityChoice,
    bracket_rows,
    build_bracket_table,
    build_z,
    density_rows,
    double_trace_check,
    gauss_full_from_table,
    gauss_rows,
    gauss_via_frame,
    mean_full_from_table,
    mean_rows,
    nested_bracket_rows,
    normal_frame_from_z,
    p2_trace,
    ps_traces,
    s_operator,
    s2_traces,
    weingarten_frame,
    zmap_invariants,
)
from .exprlang import eval_tape, parse_expression
from .surfaces import SurfaceSpec, grid_points, load_spec

# Most floats in one (N, m, m, m) array of a plain curvature chunk; this
# bounds the memory of a grid at any m.
CHUNK_FLOATS = 2**20

RHO_INDEPENDENCE_DENSITIES = ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)")

DOUBLE_TRACE_PAIRS = (
    ("u", "sin(v) + 2"),
    ("exp(u)", "cosh(v)"),
    ("u*v", "1 + v^2"),
)

# parsed once per process, not once per point
_DENSITIES = [DensityChoice.from_string(s) for s in RHO_INDEPENDENCE_DENSITIES]
_DOUBLE_TRACE_ASTS = [
    (parse_expression(f), parse_expression(h)) for f, h in DOUBLE_TRACE_PAIRS
]

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rel(diff: float, *scales: float) -> float:
    return abs(diff) / max(1.0, *(abs(s) for s in scales))


def _vec_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(
        1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b))
    )


def _worst(residuals) -> float:
    """Largest residual; NaN if any is NaN, which max() would drop."""
    values = list(residuals)
    return math.nan if any(math.isnan(r) for r in values) else max(values)


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


def _kh(table, emb, met):
    return gauss_full_from_table(table, emb, met), mean_full_from_table(table, emb, met)


def _kh_spread(kh) -> float:
    """Worst pairwise disagreement among (K, H) pairs that should agree."""
    return _worst(
        r
        for (ka, ha), (kb, hb) in itertools.combinations(kh, 2)
        for r in (_rel(ka - kb, ka, kb), _vec_rel(ha, hb))
    )


def _identity_residuals(table, emb, met, ff, h) -> dict[str, float]:
    """Normalised residuals of the bracket identities at one point.

    Keys are the invariants rows from p2_trace to sigma_multiset; the
    --compare columns report a subset of them (_COMPARE_RESIDUALS).
    """
    sig = emb.sig
    rv2 = table.rho.value * table.rho.value
    out: dict[str, float] = {}
    lhs = p2_trace(table, sig)
    rhs = -2.0 * met.det_g / rv2
    out["p2_trace"] = _rel(lhs - rhs, lhs, rhs)
    S = s_operator(table, emb, ff)
    s2 = s2_traces(sig, S)
    dets = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    out["s2_trace"] = _worst(
        _rel(s2[A] + 2.0 * dets[A] / rv2, s2[A]) for A in range(sig.codim)
    )
    ps = ps_traces(table, sig, S)
    weingarten = np.einsum("ab,Aab->A", met.ginv, h)
    out["ps_trace"] = _worst(
        _rel(ps[A] - met.det_g * weingarten[A] / rv2, ps[A]) for A in range(sig.codim)
    )
    zd = build_z(table, emb, met)
    out.update(zmap_invariants(zd, table, emb, met))
    zframe = normal_frame_from_z(zd, sig)
    proj_z = normal_projector(sig, zframe)
    proj_c = normal_projector(sig, NormalFrame(ff.vectors, ff.sigma))
    out["z_projector"] = float(np.abs(proj_z - proj_c).max()) / max(
        1.0, float(np.abs(proj_c).max())
    )
    match = sorted(zframe.sigma.tolist()) == sorted(ff.sigma.tolist())
    match = match and int(np.sum(zframe.sigma == -1)) == zd.delta
    out["sigma_multiset"] = 0.0 if match else 1.0
    return out


def _record(
    spec: SurfaceSpec, rho: DensityChoice, at: tuple[float, float], level: str
) -> dict:
    """The values of one grid point at one level.

    "plain": K and H; "compare": the --compare columns, plus "oracle_res",
    the K/H residual against the classical oracle that the gate reads;
    "invariants": the invariants rows, plus ind_g and sigma for the header.
    Every stage runs on the normalised point, so residuals are relative
    at any scale; only the printed K and H are scaled back.
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
    res = _identity_residuals(table, emb, met, ff, h)
    if level == "invariants":
        res["double_trace"] = _worst(
            double_trace_check(table, emb, ff, 0, emb.sig.codim - 1, fa, ha)
            for fa, ha in _DOUBLE_TRACE_ASTS
        )
        tables = [table if d == rho else build_bracket_table(emb, d) for d in _DENSITIES]
        res["rho_independence"] = _kh_spread([_kh(t, emb, met) for t in tables])
        return {**record, **res, "ind_g": met.ind_g, "sigma": sorted(frame.sigma.tolist())}
    k_oracle, h_oracle = classical_gauss(met, frame, h), classical_mean(met, frame, h)
    record["K_frame"] = emb.unscale_gauss(gauss_via_frame(table, emb, met, ff))
    record["K_oracle"] = emb.unscale_gauss(k_oracle)
    record.update({f"H_oracle_{i}": x for i, x in enumerate(emb.unscale_mean(h_oracle), 1)})
    record.update({column: res[key] for column, key in _COMPARE_RESIDUALS.items()})
    alt = DensityChoice.unit() if rho.kind != "unit" else DensityChoice.sqrt_abs_g()
    kh_alt = _kh(build_bracket_table(emb, alt), emb, met)
    record["res_rho_indep"] = _kh_spread([(k_full, h_full), kh_alt])
    k_res = _rel(k_full - k_oracle, k_oracle)
    record["oracle_res"] = _worst((k_res, _vec_rel(h_full, h_oracle)))
    return record


def _plain_chunk(spec: SurfaceSpec, rho: DensityChoice, u, v):
    """K (N,) and H (N, m) of the "plain" level for N points, batch axis first.

    Runs the stages of _record on arrays, walking the same tapes as its
    points do.  Also returns the rows to recompute through _record: every
    row where one of its checks could refuse the point, so that the
    point's own error, or its record, comes from the per-point path.
    """
    sig = spec.signature
    _, grads, hessians, bad = eval_tape(spec.coord_asts.tape, u, v)
    e = np.ascontiguousarray(grads.transpose(1, 2, 0))  # (N, 2, m)
    xdd = np.ascontiguousarray(hessians.transpose(1, 0, 2, 3))  # (N, m, 2, 2)
    e, xdd, l, p = normalise_rows(e, xdd)
    _, det_g, non_finite, singular = metric_rows(sig.gbar, e)
    expr = None
    if rho.kind == "expression":
        expr_values, expr_grads, _, expr_bad = eval_tape(rho.expr.tape, u, v)
        expr = (expr_values[0], expr_grads[0])
        bad |= expr_bad
    rv, rho_grad, vanishes = density_rows(rho, sig.gbar, e, xdd, p, expr)
    P, Pgrad, rv, _ = bracket_rows(e, xdd, rv, rho_grad)
    T = nested_bracket_rows(e, Pgrad, rv)
    k, *k_fails = gauss_rows(sig, T, rv, det_g)
    h, *h_fails = mean_rows(sig, T, P, rv, det_g)
    k, *k_range = unscaled_rows(k, 2 * l)
    h, *h_range = unscaled_rows(h, l[:, None])
    bad |= non_finite | singular | vanishes | np.logical_or.reduce([*k_fails, *k_range])
    bad |= np.logical_or.reduce([*h_fails, *h_range]).any(axis=1)
    return k, h, bad


def _plain_records(spec: SurfaceSpec, rho: DensityChoice, points) -> list[dict | None]:
    """The "plain" records of all points, in chunks; None for a row to recompute."""
    h_cols = [f"H_full_{i}" for i in range(1, spec.m + 1)]
    size = max(1, CHUNK_FLOATS // spec.m**3)
    records: list[dict | None] = []
    for start in range(0, len(points), size):
        chunk = points[start:start + size]
        u = np.array([pt[2] for pt in chunk])
        v = np.array([pt[3] for pt in chunk])
        with np.errstate(all="ignore"):  # flagged rows are recomputed, not warned about
            k, h, bad = _plain_chunk(spec, rho, u, v)
        for (_, _, pu, pv), kk, hh, flagged in zip(chunk, k.tolist(), h.tolist(), bad.tolist()):
            record = {"u": pu, "v": pv, "status": "ok", "K_full": kk, **dict(zip(h_cols, hh))}
            records.append(None if flagged else record)
    return records


def _records(spec, rho, points, level: str, skip_degenerate: bool = False) -> list[dict]:
    """One record per grid point: a geometric error is a skipped row or exit 3.

    The "plain" level runs batched over the grid (_plain_records); a row
    it flags, and every row of the other levels, runs through _record.
    """
    batch = _plain_records(spec, rho, points) if level == "plain" else [None] * len(points)
    records = []
    for (_, _, u, v), record in zip(points, batch):
        if record is None:
            try:
                record = _record(spec, rho, (u, v), level)
            except GeometricError as exc:
                if not skip_degenerate:
                    raise _geometric((u, v), exc) from exc
                record = {"u": u, "v": v, "status": f"skipped: {exc}"}
        records.append(record)
    return records


def _columns(m: int, compare: bool) -> list[str]:
    cols = ["u", "v", "status", "K_full"]
    cols += [f"H_full_{i}" for i in range(1, m + 1)]
    if compare:
        cols += ["K_frame", "K_oracle"]
        cols += [f"H_oracle_{i}" for i in range(1, m + 1)]
        cols += _RESIDUAL_COLUMNS
    return cols


def _emit(records: list[dict], columns: list[str], args, spec: SurfaceSpec, out) -> None:
    if args.format == "json":
        payload = {
            "surface": spec.name,
            "m": spec.m,
            "nu": spec.nu,
            "rho": args.rho if args.rho else spec.rho,
            "points": [
                {col: rec.get(col) for col in columns if col in rec} for rec in records
            ],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    out.write(",".join(columns) + "\n")
    for rec in records:
        cells = []
        for col in columns:
            value = rec.get(col)
            if value is None:
                cells.append("")
            elif isinstance(value, str):
                cells.append('"' + value.replace('"', '""') + '"' if "," in value else value)
            else:
                cells.append(_fmt(value))
        out.write(",".join(cells) + "\n")


def cmd_curvature(args) -> int:
    spec, rho, points = _load(args)
    level = "compare" if args.compare else "plain"
    records = _records(spec, rho, points, level, args.skip_degenerate)
    columns = _columns(spec.m, args.compare)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _emit(records, columns, args, spec, fh)
    else:
        _emit(records, columns, args, spec, sys.stdout)
    tol = args.tolerance if args.tolerance is not None else 1e-8
    for rec in records:
        if level == "plain" or rec["status"] != "ok":
            continue
        # finite identity residuals are reported, not gated
        finite = all(math.isfinite(rec[col]) for col in _RESIDUAL_COLUMNS)
        if not (rec["oracle_res"] <= tol and finite):
            at = f"({rec['u']!r}, {rec['v']!r})"
            print(f"comparison failure at (u, v) = {at}", file=sys.stderr)
            return 1
    if level == "compare" and all(rec["status"] != "ok" for rec in records):
        print("comparison failure: no point was compared", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(args) -> int:
    spec, rho, points = _load(args)
    records = _records(spec, rho, points, "invariants")
    tolerances = dict(_IDENTITY_TOLERANCES)
    if args.tolerance is not None:
        tolerances = {key: args.tolerance for key in tolerances}
    worst = {key: _worst([0.0, *(rec[key] for rec in records)]) for key in tolerances}
    ind_g, sigma = records[0]["ind_g"], records[0]["sigma"]
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
