"""Command line front end: curvature tables, identity checks, benchmarks.

Exit codes: 0 success, 1 invariant or comparison failure, 2 usage or
configuration error, 3 geometric error at a sample point.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

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
    BracketTable,
    DensityChoice,
    build_bracket_table,
    build_z,
    double_trace_check,
    frame_with_derivatives,
    gauss_full_from_table,
    gauss_via_frame,
    mean_full_from_table,
    mean_via_frame,
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


class _PointContext:
    """Everything the per-point workers need, shared and immutable."""

    def __init__(self, spec: SurfaceSpec, rho: DensityChoice, contraction: str) -> None:
        self.spec = spec
        self.sig = spec.signature
        self.rho = rho
        self.contraction = contraction

    def embed(self, at: tuple[float, float]):
        return evaluate_embedding(self.sig, self.spec.coord_asts, at)

    def classical_frame(self, at: tuple[float, float]) -> NormalFrame:
        emb = self.embed(at)
        return classical_normal_frame(emb, induced_metric(emb))

    def tables(self, at: tuple[float, float]):
        emb = self.embed(at)
        met = induced_metric(emb)
        table = build_bracket_table(emb, self.rho)
        return emb, met, table


def _geometric(at: tuple[float, float], exc: GeometricError) -> GeometricError:
    return GeometricError(f"at (u, v) = ({at[0]!r}, {at[1]!r}): {exc}")


def _curvature_record(
    ctx: _PointContext, at: tuple[float, float], compare: bool
) -> dict:
    emb, met, table = ctx.tables(at)
    k_full = gauss_full_from_table(table, emb, met, ctx.contraction)
    record: dict[str, object] = {
        "u": at[0],
        "v": at[1],
        "status": "ok",
        "K_full": k_full,
    }
    h_full = mean_full_from_table(table, emb, met, ctx.contraction)
    for i, value in enumerate(h_full, start=1):
        record[f"H_full_{i}"] = float(value)
    if not compare:
        return record
    ff = frame_with_derivatives(ctx.classical_frame, at, ctx.sig)
    frame = NormalFrame(ff.vectors, ff.sigma)
    h = second_fundamental(emb, frame)
    k_oracle = classical_gauss(met, frame, h)
    h_oracle = classical_mean(met, frame, h)
    record["K_frame"] = gauss_via_frame(table, emb, met, ff)
    record["K_oracle"] = k_oracle
    for i, value in enumerate(h_oracle, start=1):
        record[f"H_oracle_{i}"] = float(value)
    record.update(_point_residuals(ctx, emb, met, table, ff, h, k_full, h_full))
    return record


def _point_residuals(ctx, emb, met, table, ff, h, k_full, h_full) -> dict[str, float]:
    sig = ctx.sig
    rv = table.rho.value
    res: dict[str, float] = {}
    lhs = p2_trace(table, sig)
    rhs = -2.0 * met.det_g / (rv * rv)
    res["res_p2trace"] = _rel(lhs - rhs, lhs, rhs)
    S = s_operator(table, emb, ff)
    s2 = s2_traces(sig, S)
    dets = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    res["res_satrace"] = _worst(
        _rel(s2[A] + 2.0 * dets[A] / (rv * rv), s2[A], 2.0 * dets[A] / (rv * rv))
        for A in range(sig.codim)
    )
    zd = build_z(table, emb, met)
    zres = zmap_invariants(zd, table, emb, met)
    res["res_ztrace"] = zres["z_trace"]
    res["res_zsum"] = zres["z_sum"]
    zframe = normal_frame_from_z(zd, sig)
    proj_z = normal_projector(sig, zframe)
    proj_c = normal_projector(sig, NormalFrame(ff.vectors, ff.sigma))
    res["res_zproj"] = float(np.abs(proj_z - proj_c).max()) / max(
        1.0, float(np.abs(proj_c).max())
    )
    alt = DensityChoice.unit() if ctx.rho.kind != "unit" else DensityChoice.sqrt_abs_g()
    table_alt = build_bracket_table(emb, alt)
    k_alt = gauss_full_from_table(table_alt, emb, met, ctx.contraction)
    h_alt = mean_full_from_table(table_alt, emb, met, ctx.contraction)
    res["res_rho_indep"] = _worst(
        (_rel(k_full - k_alt, k_full, k_alt), _vec_rel(h_full, h_alt))
    )
    return res


def _columns(m: int, compare: bool) -> list[str]:
    cols = ["u", "v", "status", "K_full"]
    cols += [f"H_full_{i}" for i in range(1, m + 1)]
    if compare:
        cols += ["K_frame", "K_oracle"]
        cols += [f"H_oracle_{i}" for i in range(1, m + 1)]
        cols += [
            "res_p2trace",
            "res_satrace",
            "res_zproj",
            "res_ztrace",
            "res_zsum",
            "res_rho_indep",
        ]
    return cols


def _emit(records: list[dict], columns: list[str], args, spec: SurfaceSpec, out) -> None:
    if args.format == "json":
        payload = {
            "surface": spec.name,
            "m": spec.m,
            "nu": spec.nu,
            "rho": args.rho if args.rho else spec.rho,
            "contraction": args.contraction,
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
    spec = load_spec(args.spec)
    rho = DensityChoice.from_string(args.rho) if args.rho else spec.density()
    ctx = _PointContext(spec, rho, args.contraction)
    points = grid_points(spec, _parse_grid(args.grid))

    def worker(point):
        i, j, u, v = point
        try:
            return _curvature_record(ctx, (u, v), args.compare)
        except GeometricError as exc:
            if args.skip_degenerate:
                rec = {"u": u, "v": v, "status": f"skipped: {exc}"}
                return rec
            raise _geometric((u, v), exc) from exc

    records = _run_parallel(worker, points, args.threads)
    columns = _columns(spec.m, args.compare)
    _write_output(records, columns, args, spec)
    if args.compare:
        tol = args.tolerance if args.tolerance is not None else 1e-8
        for rec in records:
            if rec["status"] != "ok":
                continue
            k_res = _rel(rec["K_full"] - rec["K_oracle"], rec["K_oracle"])
            h_full = np.array([rec[f"H_full_{i}"] for i in range(1, spec.m + 1)])
            h_oracle = np.array([rec[f"H_oracle_{i}"] for i in range(1, spec.m + 1)])
            if not _worst((k_res, _vec_rel(h_full, h_oracle))) <= tol:
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


def _run_parallel(worker, points, threads: int) -> list:
    if threads <= 1:
        return [worker(pt) for pt in points]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, points))


def cmd_invariants(args) -> int:
    spec = load_spec(args.spec)
    rho = DensityChoice.from_string(args.rho) if args.rho else spec.density()
    ctx = _PointContext(spec, rho, args.contraction)
    points = grid_points(spec, _parse_grid(args.grid))
    if not points:
        raise UsageError("grid has no interior points")
    tolerances = dict(_IDENTITY_TOLERANCES)
    if args.tolerance is not None:
        tolerances = {key: args.tolerance for key in tolerances}
    worst: dict[str, float] = {key: 0.0 for key in tolerances}
    densities = [DensityChoice.from_string(s) for s in RHO_INDEPENDENCE_DENSITIES]
    pairs = [
        (parse_expression(f), parse_expression(h)) for f, h in DOUBLE_TRACE_PAIRS
    ]
    info: dict[str, object] | None = None

    def visit(point):
        i, j, u, v = point
        at = (u, v)
        try:
            emb, met, table = ctx.tables(at)
            sig = ctx.sig
            rv = table.rho.value
            out: dict[str, float] = {}
            lhs = p2_trace(table, sig)
            rhs = -2.0 * met.det_g / (rv * rv)
            out["p2_trace"] = _rel(lhs - rhs, lhs, rhs)
            ff = frame_with_derivatives(ctx.classical_frame, at, ctx.sig)
            frame = NormalFrame(ff.vectors, ff.sigma)
            h = second_fundamental(emb, frame)
            S = s_operator(table, emb, ff)
            s2 = s2_traces(sig, S)
            dets = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
            out["s2_trace"] = _worst(
                _rel(s2[A] + 2.0 * dets[A] / (rv * rv), s2[A]) for A in range(sig.codim)
            )
            ps = ps_traces(table, sig, S)
            weingarten = np.einsum("ab,Aab->A", met.ginv, h)
            out["ps_trace"] = _worst(
                _rel(ps[A] - met.det_g * weingarten[A] / (rv * rv), ps[A])
                for A in range(sig.codim)
            )
            zd = build_z(table, emb, met)
            out.update(
                (k, v)
                for k, v in zmap_invariants(zd, table, emb, met).items()
            )
            zframe = normal_frame_from_z(zd, sig)
            proj_z = normal_projector(sig, zframe)
            proj_c = normal_projector(sig, frame)
            out["z_projector"] = float(np.abs(proj_z - proj_c).max()) / max(
                1.0, float(np.abs(proj_c).max())
            )
            match = sorted(zframe.sigma.tolist()) == sorted(frame.sigma.tolist())
            match = match and int(np.sum(zframe.sigma == -1)) == zd.delta
            out["sigma_multiset"] = 0.0 if match else 1.0
            out["double_trace"] = _worst(
                double_trace_check(table, emb, ff, 0, sig.codim - 1, fa, ha)
                for fa, ha in pairs
            )
            kh = []
            for density in densities:
                t = build_bracket_table(emb, density)
                kh.append(
                    (
                        gauss_full_from_table(t, emb, met, ctx.contraction),
                        mean_full_from_table(t, emb, met, ctx.contraction),
                    )
                )
            out["rho_independence"] = _worst(
                r
                for (ka, ha), (kb, hb) in itertools.combinations(kh, 2)
                for r in (_rel(ka - kb, ka, kb), _vec_rel(ha, hb))
            )
            extra = {
                "ind_g": met.ind_g,
                "delta": zd.delta,
                "sigma": sorted(frame.sigma.tolist()),
            }
            return out, extra
        except GeometricError as exc:
            raise _geometric(at, exc) from exc

    for point in points:
        out, extra = visit(point)
        if info is None:
            info = extra
        for key, value in out.items():
            worst[key] = _worst((worst[key], value))

    assert info is not None
    print(f"surface: {spec.name}  m={spec.m}  nu={spec.nu}  rho={rho.source}")
    print(
        f"ind_g={info['ind_g']}  delta={info['delta']}  "
        f"sigma multiset={info['sigma']}  points={len(points)}"
    )
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
    spec = load_spec(args.spec)
    rho = DensityChoice.from_string(args.rho) if args.rho else spec.density()
    ctx = _PointContext(spec, rho, "reduced")
    points = grid_points(spec, _parse_grid(args.grid))
    if not points:
        raise UsageError("grid has no interior points")
    naive_times: list[int] = []
    reduced_times: list[int] = []
    for i, j, u, v in points:
        try:
            emb, met, table = ctx.tables((u, v))
        except GeometricError as exc:
            raise _geometric((u, v), exc) from exc
        k_naive = gauss_full_from_table(table, emb, met, "naive")
        h_naive = mean_full_from_table(table, emb, met, "naive")
        k_reduced = gauss_full_from_table(table, emb, met, "reduced")
        h_reduced = mean_full_from_table(table, emb, met, "reduced")
        if _rel(k_naive - k_reduced, k_naive, k_reduced) > 1e-12 or (
            _vec_rel(h_naive, h_reduced) > 1e-12
        ):
            print(
                f"contraction paths disagree at (u, v) = ({u!r}, {v!r})",
                file=sys.stderr,
            )
            return 1
        naive_times.append(
            _time_once(lambda: (gauss_full_from_table(table, emb, met, "naive"),
                                mean_full_from_table(table, emb, met, "naive")),
                       args.repetitions)
        )
        reduced_times.append(
            _time_once(lambda: (gauss_full_from_table(table, emb, met, "reduced"),
                                mean_full_from_table(table, emb, met, "reduced")),
                       args.repetitions)
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
        f"reduced contraction: a few einsums over the whole ({m}, {m}, {m}) "
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
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument(
            "--contraction",
            choices=("naive", "reduced"),
            default="reduced",
            help="symbol contraction path",
        )
        p.add_argument(
            "--tolerance", type=float, default=None, help="override tolerances"
        )

    p_curv = sub.add_parser("curvature", help="curvature table over the grid")
    common(p_curv)
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
        if args.tolerance is not None and not math.isfinite(args.tolerance):
            raise UsageError(f"--tolerance must be finite, got {args.tolerance!r}")
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
