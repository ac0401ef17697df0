"""Command line front end: curvature tables, identity checks, benchmarks.

Exit codes: 0 success, 1 invariant or comparison failure, 2 usage or
configuration error, 3 geometric error at a sample point.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import statistics
import sys
import time

import numpy as np

from .classical import (
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    normal_projector,
    second_fundamental,
)
from .classical import NormalFrame
from .errors import GeometricError, PbcurvError, UsageError
from .poisson import (
    DensityChoice,
    build_bracket_table,
    build_z,
    double_trace_check,
    frame_with_derivatives,
    gauss_full_from_table,
    gauss_via_frame,
    mean_full_from_table,
    normal_frame_from_z,
    p2_trace,
    ps_traces,
    s_operator,
    s2_traces,
    zmap_invariants,
)
from .exprlang import parse_expression
from .surfaces import SurfaceSpec, grid_points, load_spec

RHO_INDEPENDENCE_DENSITIES = ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)")

DOUBLE_TRACE_PAIRS = (
    ("u", "sin(v) + 2"),
    ("exp(u)", "cosh(v)"),
    ("u*v", "1 + v^2"),
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


def _tables(spec: SurfaceSpec, rho: DensityChoice, at: tuple[float, float]):
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
    met = induced_metric(emb)
    return emb, met, build_bracket_table(emb, rho)


def _classical_frame(spec: SurfaceSpec, at: tuple[float, float]) -> NormalFrame:
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
    return classical_normal_frame(emb, induced_metric(emb))


def _frame(spec: SurfaceSpec, emb, met, at: tuple[float, float]):
    """Classical frame with FD derivatives, and its second fundamental forms."""
    build = functools.partial(_classical_frame, spec)
    ff = frame_with_derivatives(build, at, spec.signature, center=classical_normal_frame(emb, met))
    frame = NormalFrame(ff.vectors, ff.sigma)
    return ff, frame, second_fundamental(emb, frame)


def _kh(table, emb, met, contraction: str = "reduced"):
    return (
        gauss_full_from_table(table, emb, met, contraction),
        mean_full_from_table(table, emb, met, contraction),
    )


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


def _curvature_record(
    spec: SurfaceSpec, rho: DensityChoice, at: tuple[float, float], compare: bool
) -> dict:
    emb, met, table = _tables(spec, rho, at)
    k_full, h_full = _kh(table, emb, met)
    record: dict[str, object] = {
        "u": at[0],
        "v": at[1],
        "status": "ok",
        "K_full": k_full,
    }
    for i, value in enumerate(h_full, start=1):
        record[f"H_full_{i}"] = float(value)
    if not compare:
        return record
    ff, frame, h = _frame(spec, emb, met, at)
    record["K_frame"] = gauss_via_frame(table, emb, met, ff)
    record["K_oracle"] = classical_gauss(met, frame, h)
    for i, value in enumerate(classical_mean(met, frame, h), start=1):
        record[f"H_oracle_{i}"] = float(value)
    res = _identity_residuals(table, emb, met, ff, h)
    for column, key in _COMPARE_RESIDUALS.items():
        record[column] = res[key]
    alt = DensityChoice.unit() if rho.kind != "unit" else DensityChoice.sqrt_abs_g()
    kh_alt = _kh(build_bracket_table(emb, alt), emb, met)
    record["res_rho_indep"] = _kh_spread([(k_full, h_full), kh_alt])
    return record


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
    records = []
    for _, _, u, v in points:
        try:
            records.append(_curvature_record(spec, rho, (u, v), args.compare))
        except GeometricError as exc:
            if not args.skip_degenerate:
                raise _geometric((u, v), exc) from exc
            records.append({"u": u, "v": v, "status": f"skipped: {exc}"})
    _write_output(records, _columns(spec.m, args.compare), args, spec)
    if args.compare:
        tol = args.tolerance if args.tolerance is not None else 1e-8
        for rec in records:
            if rec["status"] != "ok":
                continue
            k_res = _rel(rec["K_full"] - rec["K_oracle"], rec["K_oracle"])
            h_full = np.array([rec[f"H_full_{i}"] for i in range(1, spec.m + 1)])
            h_oracle = np.array([rec[f"H_oracle_{i}"] for i in range(1, spec.m + 1)])
            # finite identity residuals are reported, not gated: the FD frame
            # stencil alone puts res_satrace near 1e-6 on wiggly surfaces
            finite = all(math.isfinite(rec[col]) for col in _RESIDUAL_COLUMNS)
            if not (_worst((k_res, _vec_rel(h_full, h_oracle))) <= tol and finite):
                print(
                    f"comparison failure at (u, v) = ({rec['u']!r}, {rec['v']!r})",
                    file=sys.stderr,
                )
                return 1
    return 0


def _write_output(records, columns, args, spec) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _emit(records, columns, args, spec, fh)
    else:
        _emit(records, columns, args, spec, sys.stdout)


def cmd_invariants(args) -> int:
    spec, rho, points = _load(args)
    tolerances = dict(_IDENTITY_TOLERANCES)
    if args.tolerance is not None:
        tolerances = {key: args.tolerance for key in tolerances}
    worst: dict[str, float] = {key: 0.0 for key in tolerances}
    densities = [DensityChoice.from_string(s) for s in RHO_INDEPENDENCE_DENSITIES]
    pairs = [
        (parse_expression(f), parse_expression(h)) for f, h in DOUBLE_TRACE_PAIRS
    ]
    codim = spec.signature.codim
    info = None
    for _, _, u, v in points:
        at = (u, v)
        try:
            emb, met, table = _tables(spec, rho, at)
            ff, frame, h = _frame(spec, emb, met, at)
            out = _identity_residuals(table, emb, met, ff, h)
            out["double_trace"] = _worst(
                double_trace_check(table, emb, ff, 0, codim - 1, fa, ha)
                for fa, ha in pairs
            )
            tables = [table if d == rho else build_bracket_table(emb, d) for d in densities]
            out["rho_independence"] = _kh_spread([_kh(t, emb, met) for t in tables])
        except GeometricError as exc:
            raise _geometric(at, exc) from exc
        if info is None:
            info = (
                f"ind_g={met.ind_g}  delta={spec.nu - met.ind_g}  "
                f"sigma multiset={sorted(frame.sigma.tolist())}"
            )
        for key, value in out.items():
            worst[key] = _worst((worst[key], value))

    print(f"surface: {spec.name}  m={spec.m}  nu={spec.nu}  rho={rho.source}")
    print(f"{info}  points={len(points)}")
    failed = False
    print(f"{'identity':<18}{'max residual':>14}{'tolerance':>12}  status")
    for key in tolerances:
        ok = worst[key] <= tolerances[key]
        failed = failed or not ok
        print(
            f"{key:<18}{worst[key]:>14.3e}{tolerances[key]:>12.1e}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


def cmd_bench(args) -> int:
    spec, rho, points = _load(args)
    naive_times: list[int] = []
    reduced_times: list[int] = []
    for _, _, u, v in points:
        try:
            emb, met, table = _tables(spec, rho, (u, v))
        except GeometricError as exc:
            raise _geometric((u, v), exc) from exc
        paths = [_kh(table, emb, met, "naive"), _kh(table, emb, met, "reduced")]
        if not _kh_spread(paths) <= 1e-12:
            print(
                f"contraction paths disagree at (u, v) = ({u!r}, {v!r})",
                file=sys.stderr,
            )
            return 1
        naive_times.append(
            _time_once(lambda: _kh(table, emb, met, "naive"), args.repetitions)
        )
        reduced_times.append(
            _time_once(lambda: _kh(table, emb, met, "reduced"), args.repetitions)
        )
    naive_ns = statistics.median(naive_times)
    reduced_ns = statistics.median(reduced_times)
    m = spec.m
    print(
        f"surface: {spec.name}  m={m}  points={len(points)}  "
        f"repetitions={args.repetitions}"
    )
    print(
        f"naive contraction: one symbol call per pair of index triples, "
        f"each summing {m ** (m - 3)} multi-index terms"
    )
    print(
        f"reduced contraction: a compensated sum of products over the whole ({m}, {m}, {m}) "
        f"nested-bracket tensor"
    )
    print(f"naive:   {naive_ns:.0f} ns/point (median of per-point bests)")
    print(f"reduced: {reduced_ns:.0f} ns/point (median of per-point bests)")
    print(f"ratio:   {naive_ns / reduced_ns:.2f}")
    return 0


def _time_once(fn, repetitions: int) -> int:
    best: int | None = None
    for _ in range(max(1, repetitions)):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


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

    p_bench = sub.add_parser("bench", help="time the two contraction paths")
    common(p_bench)
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tolerance", None)
        if tol is not None and not math.isfinite(tol):
            raise UsageError(f"--tolerance must be finite, got {tol!r}")
        return args.fn(args)
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
