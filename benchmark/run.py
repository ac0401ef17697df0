"""pbcurv benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload bulk-m3 --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no
tracing: set-up in fresh interpreters, then rounds of in-process CLI
requests (`pbcurv.cli.main`), the same requests as `python -m pbcurv.cli`
subprocesses, and point requests through the README library calls.
--trace 1 is the separate traced run: it replays the workload through
the public functions of each layer (see probe.py) and reports the
per-layer metrics.  Every output is checked against the classical oracle
(see workloads.py); the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 1 when an
output check failed and 2 when the program or an argument is missing.

Times are reported at a reference machine speed: each timed call is
bracketed by a fixed calibration loop and scaled by its slowdown (see
scaled()).  On the shared host this was built on, the speed of the same
code swings by up to 2x within seconds; raw times are kept in the record.

Everything runs in one process with one BLAS thread, plus one CLI child
at a time.  Records of each run go to .bench_work/results/.
"""

from __future__ import annotations

import os

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_VARS:  # one worker; must be set before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
# Calibration loop time at the reference speed (fast state of a 2-CPU
# x86_64 host with Python 3.11, numpy 2.4).
CAL_REF_S = 0.35e-3
CAL_REPEATS = 9
MIN_ROUNDS = 3
MIN_TRACE_LATENCIES = 20
CHILD_TIMEOUT_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A fresh interpreter imports the CLI and loads the generated specs.
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import pbcurv.cli
t1 = time.perf_counter()
from pbcurv.surfaces import load_spec
for path in sys.argv[1:]:
    load_spec(path)
print(json.dumps([t1 - t0, time.perf_counter() - t1]))
"""


def fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, ordered[rank], n
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    text: str


def run_child(args: list[str], out_path: Path, read_path: Path | None = None) -> ChildResult:
    """One child process; RSS and CPU time come from its own wait4 record."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text_path = read_path if read_path is not None else out_path
    text = text_path.read_text(encoding="utf-8") if text_path.exists() else ""
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       usage.ru_utime + usage.ru_stime, text)


class Bench:
    """One run of one workload: inputs, oracles, requests and tallies."""

    def __init__(self, workload_name: str, seed: int) -> None:
        from pbcurv import classical, cli, exprlang, poisson, surfaces
        from workloads import Oracle, interior_grid, make_workload, write_config

        self.mods = argparse.Namespace(
            classical=classical, cli=cli, exprlang=exprlang, poisson=poisson, surfaces=surfaces
        )
        self.seed = seed
        self.wl = make_workload(workload_name, seed)
        self.inputs = WORK / "inputs" / f"{workload_name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.config_paths = {}
        for key, fields in self.wl.surfaces.items():
            path = self.inputs / f"{key}.conf"
            write_config(path, f"{workload_name}-{key}", fields)
            self.config_paths[key] = path
        (self.inputs / "points.json").write_text(json.dumps(self.wl.points), encoding="utf-8")
        self.specs = {k: surfaces.load_spec(str(p)) for k, p in self.config_paths.items()}
        self.oracles = {k: Oracle(spec) for k, spec in self.specs.items()}
        density = poisson.DensityChoice.from_string
        self.points = [(k, (u, v), density(d)) for k, u, v, d in self.wl.points]
        # Before any timing: every sampled point must be non-degenerate.
        # A seed that breaks this is reported, never replaced by another.
        for key, fields in self.wl.surfaces.items():
            for at in interior_grid(fields):
                self.oracles[key](at)
        for key, at, _ in self.points:
            self.oracles[key](at)
        self.attempted = 0
        self.failures: list[str] = []
        self.max_residual = 0.0
        self.known_fd_fails = 0
        self.fd_residual = 0.0

    def close(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)

    # --- requests -----------------------------------------------------------

    def argv(self, req, out_path: Path | None) -> list[str]:
        argv = [req.command, str(self.config_paths[req.surface]), *req.flags]
        if out_path is not None:
            argv += ["--output", str(out_path)]
        return argv

    def cli_inprocess(self, index: int, req) -> tuple[int, float, str]:
        out_path = self.inputs / f"inproc-{index}.out" if req.output_file else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.mods.cli.main(self.argv(req, out_path))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed request
                print(repr(exc), file=sys.stderr)
                rc = -1
        elapsed = time.perf_counter() - start
        if out_path is None:
            text = out.getvalue()
        else:
            text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        return rc, elapsed, text

    def cli_child(self, index: int, req) -> ChildResult:
        result_path = self.inputs / f"child-{index}.result" if req.output_file else None
        if result_path is not None and result_path.exists():
            result_path.unlink()
        return run_child(["-m", "pbcurv.cli", *self.argv(req, result_path)],
                         self.inputs / f"child-{index}.out", result_path)

    def point_request(self, key: str, at, rho) -> tuple[float, object, float]:
        """The README library sequence at one point; returns K, H, seconds."""
        c, p = self.mods.classical, self.mods.poisson
        spec = self.specs[key]
        start = time.perf_counter()
        emb = c.evaluate_embedding(spec.signature, spec.coord_asts, at)
        k = p.gauss_full(emb, rho)
        h = p.mean_full(emb, rho)
        if self.wl.point_oracle:
            met = c.induced_metric(emb)
            frame = c.classical_normal_frame(emb, met)
            sf = c.second_fundamental(emb, frame)
            c.classical_gauss(met, frame, sf)
            c.classical_mean(met, frame, sf)
        return k, h, time.perf_counter() - start

    # --- checks -------------------------------------------------------------

    def record(self, what: str, check) -> None:
        """Count one attempted request; run its check; count a failure."""
        from workloads import CheckError

        self.attempted += 1
        try:
            check()
        except CheckError as exc:
            self.failures.append(f"{what}: {exc}")
        except Exception as exc:  # unreadable output: a failed request, reported
            self.failures.append(f"{what}: {exc!r}")

    def check_output(self, req, rc: int, text: str) -> None:
        from workloads import CheckError, check_curvature, check_invariants, grid_size

        if req.command == "invariants":
            known, fd = check_invariants(text, rc, req)
            self.known_fd_fails += known
            self.fd_residual = max(self.fd_residual, fd)
            return
        if rc != 0:
            raise CheckError(f"exit code {rc}")
        fields = self.wl.surfaces[req.surface]
        worst = check_curvature(text, req.fmt, self.oracles[req.surface], fields["m"],
                                grid_size(fields))
        self.max_residual = max(self.max_residual, worst)

    def check_point(self, key: str, at, k, h) -> None:
        from workloads import residual

        self.max_residual = max(self.max_residual, residual(self.oracles[key], at, k, h))

    def same_digest(self, inproc: str, child: ChildResult) -> None:
        from workloads import CheckError

        a = hashlib.sha256(inproc.encode()).hexdigest()
        b = hashlib.sha256(child.text.encode()).hexdigest()
        if a != b:
            raise CheckError(f"subprocess output differs from in-process (rc {child.rc})")

    def run_points(self, start: int, count: int, latencies: list[float]) -> None:
        for n in range(start, start + count):
            key, at, rho = self.points[n % len(self.points)]
            try:
                k, h, elapsed = self.point_request(key, at, rho)
            except Exception as exc:  # any raise is a failed request
                self.attempted += 1
                self.failures.append(f"point request {key} {at}: {exc!r}")
                continue
            latencies.append(elapsed)
            self.record(f"point request {key} {at}", lambda: self.check_point(key, at, k, h))

    def cli_round(self) -> dict:
        """Each request in-process, then as a child; checks after timing.

        Returns raw and speed-scaled in-process and child wall seconds,
        the peak child RSS (MB) and the child CPU seconds.
        """
        inproc, children = [], []
        for index, req in enumerate(self.wl.requests):
            inproc.append(scaled(lambda: self.cli_inprocess(index, req)))
        for index, req in enumerate(self.wl.requests):
            children.append(scaled(lambda: self.cli_child(index, req)))
        for req, ((rc, _, text), _), (child, _) in zip(self.wl.requests, inproc, children):
            name = f"{req.command} {req.surface}"
            self.record(f"in-process {name}", lambda: self.check_output(req, rc, text))
            self.record(f"subprocess {name}", lambda: self.same_digest(text, child))
        return {
            "inproc_s": sum(r[1] for r, _ in inproc),
            "inproc_scaled_s": sum(r[1] * f for r, f in inproc),
            "wall_s": sum(c.wall_s for c, _ in children),
            "wall_scaled_s": sum(c.wall_s * f for c, f in children),
            "rss_mb": max(c.rss_mb for c, _ in children),
            "cpu_s": sum(c.cpu_s for c, _ in children),
        }

    @property
    def points_per_cli_round(self) -> int:
        from workloads import grid_size

        return sum(grid_size(self.wl.surfaces[r.surface]) for r in self.wl.requests)


def measure_setup(bench: Bench) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"wall_s": [], "scaled_s": [], "import_s": [], "load_specs_s": []}
    paths = [str(p) for p in bench.config_paths.values()]
    for n in range(SETUP_REPEATS):
        child, factor = scaled(
            lambda: run_child(["-c", SETUP_CHILD, *paths], bench.inputs / f"setup-{n}.out")
        )
        if child.rc != 0:
            raise RuntimeError(f"set-up child exited {child.rc}")
        import_s, load_s = json.loads(child.text)
        out["wall_s"].append(child.wall_s)
        out["scaled_s"].append(child.wall_s * factor)
        out["import_s"].append(import_s)
        out["load_specs_s"].append(load_s)
    return out


def calibration_s() -> float:
    """Median time of a fixed interpreter-bound loop that uses no pbcurv code."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        acc, vec, table = 0.0, np.arange(3.0), {}
        for i in range(120):
            table[i % 7] = vec * 0.5 + vec
            acc += float(np.dot(table[i % 7], vec))
            for j in range(12):
                acc += (i * j) * 1e-3 - acc * 1e-9
        times.append(time.perf_counter() - start)
    return median(times)


def scaled(fn):
    """Run fn between two calibrations; returns (result, speed factor).

    The factor is CAL_REF_S over the mean calibration time around the
    call: multiply a time by it to express it at the reference speed.
    """
    before = calibration_s()
    result = fn()
    after = calibration_s()
    return result, 2.0 * CAL_REF_S / (before + after)


def fits_another_round(started: float, seconds: float, done: int) -> bool:
    """Whether one more round of average length still ends by the deadline."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / max(done, 1) <= seconds


def timed_run(bench: Bench, seconds: float, setup: dict) -> tuple[dict, dict]:
    """Closed-loop rounds until the deadline (at least MIN_ROUNDS).

    Every time is also scaled to the reference machine speed (see
    scaled()); the end-to-end metrics are the scaled medians, the raw
    medians go to the notes.
    """
    rounds: list[dict] = []
    latencies, scaled_latencies = [], []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or fits_another_round(started, seconds, len(rounds)):
        times = bench.cli_round()
        batch: list[float] = []
        start = len(rounds) * bench.wl.points_per_round
        _, factor = scaled(lambda: bench.run_points(start, bench.wl.points_per_round, batch))
        latencies += batch
        scaled_latencies += [t * factor for t in batch]
        rounds.append(times)
    points = bench.points_per_cli_round

    def med(key):
        return median([r[key] for r in rounds])

    metrics = {
        "setup_s": median(setup["scaled_s"]),
        "throughput_pts_per_s": median([points / r["inproc_scaled_s"] for r in rounds]),
        "cli_wall_s": med("wall_scaled_s"),
        "cli_peak_rss_mb": med("rss_mb"),
        "latency_p50_ms": median(scaled_latencies) * 1e3,
    }
    notes = {
        "rounds": len(rounds),
        "raw": {
            "setup_s": median(setup["wall_s"]),
            "throughput_pts_per_s": median([points / r["inproc_s"] for r in rounds]),
            "cli_wall_s": med("wall_s"),
            "latency_p50_ms": median(latencies) * 1e3,
        },
        "cli_child_cpu_s": med("cpu_s"),
        "point_requests": len(latencies),
        "per_round": rounds,
    }
    t = tail(scaled_latencies)
    if t is not None:
        notes["latency_tail"] = {"percentile": t[0], "ms": t[1] * 1e3, "samples": t[2]}
    return metrics, notes


def micro(fn, args, repeat: int = 21) -> float:
    """Median seconds of one call."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return median(times)


def traced_run(bench: Bench, seconds: float, setup: dict) -> tuple[dict, dict]:
    import probe

    deadline = time.perf_counter() + seconds
    mods = bench.mods
    metrics: dict[str, object] = {}

    def check(key, at, k, h):
        bench.record(f"replay {key} {at}", lambda: bench.check_point(key, at, k, h))

    def run_replay(tracer):
        start = time.perf_counter()
        points, failures = probe.replay(tracer, bench.wl, bench.config_paths, check)
        elapsed = time.perf_counter() - start
        bench.attempted += len(bench.wl.requests)
        bench.failures.extend(failures)
        return points, elapsed

    def run_main():
        outputs = [bench.cli_inprocess(index, req) for index, req in enumerate(bench.wl.requests)]
        return sum(elapsed for _, elapsed, _ in outputs), outputs

    def main_step():
        (main_s, outputs), factor = scaled(run_main)
        main_times.append(main_s * factor)
        for req, (rc, _, text) in zip(bench.wl.requests, outputs):
            bench.record(f"in-process {req.command} {req.surface}",
                         lambda: bench.check_output(req, rc, text))
        output_bytes.append(sum(len(text.encode()) for _, _, text in outputs))

    def plain_step():
        (count, plain_s), factor = scaled(lambda: run_replay(plain))
        points.append(count)
        plain_times.append(plain_s * factor)

    def traced_step():
        with probe.nested_spans(traced):
            (_, traced_s), factor = scaled(lambda: run_replay(traced))
        traced_times.append(traced_s * factor)
        traced_factors.append(factor)

    # Rounds of cli.main on every request, the untraced replay and the
    # traced replay, each scaled to the reference speed like the timed run;
    # the order flips every round so that neither always runs first.  Their
    # medians give the CLI overhead and the tracing overhead.
    plain = probe.Tracer(mods, enabled=False)
    traced = probe.Tracer(mods, enabled=True)
    main_times, plain_times, traced_times, traced_factors = [], [], [], []
    output_bytes, points = [], []
    steps = [main_step, plain_step, traced_step]
    rounds_until = time.perf_counter() + 0.6 * seconds
    while len(main_times) < 2 or time.perf_counter() < rounds_until:
        for step in steps:
            step()
        steps.reverse()
    points, output_bytes = points[0], output_bytes[0]
    cpu_s = bench.cli_round()["cpu_s"]
    counting = probe.Tracer(mods, enabled=False)
    with probe.counted_contractions(counting):
        run_replay(counting)
    main_s, plain_s, traced_s = median(main_times), median(plain_times), median(traced_times)

    totals = probe.stage_totals(traced.spans)
    absent = {**traced.absent, **counting.absent}
    per_pt = max(points, 1)
    traced_pts = max(points * len(traced_times), 1)
    for name in probe.STAGES:
        metrics[f"{name}.errors"] = traced.errors[name] + plain.errors[name] + counting.errors[name]
    for name in probe.POINT_STAGES:
        if name in absent and totals[name] == 0:
            metrics[f"{name}.us_per_pt"] = probe.Missing(absent[name])
        else:
            metrics[f"{name}.us_per_pt"] = (
                totals[name] * median(traced_factors) / 1e3 / traced_pts
            )
    metrics["cli.main.errors"] = sum(1 for f in bench.failures if f.startswith("in-process"))
    frames = traced.counts["classical.classical_normal_frame"]
    metrics["classical.classical_normal_frame.calls_per_pt"] = frames / traced_pts
    metrics["tensor.contract_calls_per_pt"] = (
        probe.Missing(absent["tensor.contract"]) if "tensor.contract" in absent
        else counting.counts["tensor.contract"] / per_pt
    )
    metrics["poisson.build_z.rows"] = traced.counts["poisson.build_z.rows"]

    paths = [str(p) for p in bench.config_paths.values()]
    exprs = [c for f in bench.wl.surfaces.values() for c in f["coords"]]
    spec = next(iter(bench.specs.values()))
    load, grid = plain.fn("surfaces.load_spec"), plain.fn("surfaces.grid_points")
    metrics["surfaces.load_spec.ms"] = (
        load if isinstance(load, probe.Missing) else micro(load, (paths[0],)) * 1e3
    )
    metrics["surfaces.grid_points.us"] = (
        grid if isinstance(grid, probe.Missing) else micro(grid, (spec,)) * 1e6
    )
    parse = plain.fn("exprlang.parse_expression")
    metrics["exprlang.parse_expression.us"] = (
        parse if isinstance(parse, probe.Missing)
        else micro(lambda: [parse(e) for e in exprs], ()) * 1e6 / len(exprs)
    )
    metrics["cli.import_s"] = median(setup["import_s"])
    metrics["cli.main_s"] = main_s
    metrics["cli.output_bytes"] = output_bytes
    metrics["cli.overhead_frac"] = 1.0 - plain_s / main_s
    metrics["cli.child_cpu_s"] = cpu_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.spans"] = len(traced.spans)
    metrics["machine.calibration_us"] = median([calibration_s() for _ in range(9)]) * 1e6

    latencies: list[float] = []
    start = 0
    while len(latencies) < MIN_TRACE_LATENCIES or time.perf_counter() < deadline:
        batch: list[float] = []
        _, factor = scaled(lambda: bench.run_points(start, bench.wl.points_per_round, batch))
        latencies += [t * factor for t in batch]
        start += bench.wl.points_per_round
        if start > 100 * MIN_TRACE_LATENCIES and not latencies:
            break
    t = tail(latencies)
    metrics["points.latency_p50_ms"] = median(latencies) * 1e3
    metrics["points.latency_tail_ms"] = t[1] * 1e3 if t else probe.Missing("too few samples")
    metrics["points.latency_tail_pct"] = t[0] if t else probe.Missing("too few samples")
    metrics["points.latency_samples"] = len(latencies)

    spans_path = WORK / "results" / f"{bench.wl.name}-s{bench.seed}-trace1.spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(
        {"fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
         "spans": traced.spans}), encoding="utf-8")
    notes = {"shares": probe.group_shares(traced.spans), "replayed_points": points,
             "absent": absent, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, notes


def load_metric_list(trace: int) -> list[tuple[str, str]]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail_usage(f"cannot read BENCHMARK.json: {exc}")
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pbcurv" / "cli.py").is_file():
        fail_usage(f"no pbcurv sources under {SRC.relative_to(ROOT)}/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_usage(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wanted = load_metric_list(args.trace)
    # One CPU for this process and its children, so that the calibration
    # runs on the CPU that does the measured work.  Nothing runs in
    # parallel: the parent waits while a child runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    bench = Bench(args.workload, args.seed)
    try:
        setup = measure_setup(bench)
        if args.trace:
            metrics, notes = traced_run(bench, args.seconds, setup)
            metrics["check.max_residual"] = bench.max_residual
            metrics["check.known_fd_fails"] = bench.known_fd_fails
            metrics["check.fd_trace_residual"] = bench.fd_residual
            metrics["fail_frac"] = len(bench.failures) / max(bench.attempted, 1)
        else:
            metrics, notes = timed_run(bench, args.seconds, setup)
    finally:
        bench.close()

    missing = [name for name, _ in wanted if name not in metrics]
    extra = sorted(set(metrics) - {name for name, _ in wanted})
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    out_metrics = {}
    for name, unit in wanted:
        value = metrics[name]
        if hasattr(value, "reason"):
            out_metrics[name] = {"value": None, "unit": unit, "absent": value.reason}
        else:
            out_metrics[name] = {"value": value, "unit": unit}

    correct = not bench.failures
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": len(bench.failures), "metrics": out_metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "notes": notes,
              "setup": setup,
              "known_fd_fails": bench.known_fd_fails, "fd_trace_residual": bench.fd_residual,
              "max_residual": bench.max_residual, "failures": bench.failures, **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for name, unit in wanted:
        value = out_metrics[name]["value"]
        shown = out_metrics[name].get("absent", "absent") if value is None else f"{value:.6g}"
        print(f"{args.workload}  {name:<48} {shown} {unit}")
    print(f"{args.workload}  fail_frac {len(bench.failures)}/{bench.attempted}  "
          f"max_residual {bench.max_residual:.3g}  known FD false FAILs "
          f"{bench.known_fd_fails} (worst FD row residual {bench.fd_residual:.3g})")
    if "latency_tail" in notes:
        lt = notes["latency_tail"]
        print(f"{args.workload}  latency tail p{lt['percentile']:g} {lt['ms']:.4g} ms "
              f"over {lt['samples']} point requests")
    if "shares" in notes:
        shares = sorted(notes["shares"].items(), key=lambda kv: -kv[1])
        print(f"{args.workload}  stage shares: "
              + ", ".join(f"{g} {s:.1%}" for g, s in shares))
    print(f"{args.workload}  environment {json.dumps(environment())}")
    for failure in bench.failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
