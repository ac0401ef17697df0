"""The traced replay of benchmark/probe.py still finds every stage it times.

The probe reaches pbcurv through module attributes (stage functions, and
the globals it wraps such as poisson.eps_contract_naive).  A stage whose
name or signature changes is reported as absent, and the benchmark then
prints a metric without a value.  This replays a small torus and a small
m=7 surface through the probe and requires every stage to be present.
It also passes real `invariants`, `curvature --compare` and plain
`curvature` output through the benchmark's own output checks.
"""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pbcurv import classical, cli, exprlang, poisson, surfaces

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

if not (BENCHMARK / "probe.py").is_file():
    pytest.skip("benchmark/ is not part of this tree", allow_module_level=True)


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_finds_every_stage(tmp_path, monkeypatch):
    probe, workloads = _load("probe", monkeypatch), _load("workloads", monkeypatch)
    fields = {
        "torus": workloads._torus(random.Random("1:torus"), 4),
        "synth7": workloads._synthetic_m7(random.Random("1:synth7"), 3),
    }
    paths = {}
    for key, config in fields.items():
        paths[key] = tmp_path / f"{key}.conf"
        workloads.write_config(paths[key], key, config)
    compare = ("--compare",)
    requests = [
        workloads.Request("curvature", "torus", compare),
        workloads.Request("invariants", "torus"),
        workloads.Request("curvature", "synth7", compare),
    ]
    workload = workloads.Workload("probe", fields, requests, [], 0, False)
    oracles = {key: workloads.Oracle(surfaces.load_spec(str(p))) for key, p in paths.items()}

    def check(key, at, k, h):
        workloads.residual(oracles[key], at, k, h)

    mods = SimpleNamespace(
        classical=classical, cli=cli, exprlang=exprlang, poisson=poisson, surfaces=surfaces
    )
    tracer = probe.Tracer(mods, enabled=True)
    with probe.nested_spans(tracer), probe.counted_contractions(tracer):
        points, failures = probe.replay(tracer, workload, paths, check)

    assert failures == []
    assert points == 4 + 4 + 1
    assert tracer.absent == {}
    traced = {span[1] for span in tracer.spans}
    assert [name for name in probe.POINT_STAGES if name not in traced] == []


def test_invariants_table_meets_the_benchmark_contract(capsys, monkeypatch):
    # the benchmark reads only rows of exactly four whitespace-separated fields
    workloads = _load("workloads", monkeypatch)
    rc = cli.main(["invariants", "torus", "--grid", "4x4"])
    text = capsys.readouterr().out
    rows = workloads.parse_invariants(text)
    assert rows == {key: (rows[key][0], "PASS") for key in cli._IDENTITY_TOLERANCES}
    request = workloads.Request("invariants", "torus")
    assert workloads.check_invariants(text, rc, request)[0] == 0


@pytest.mark.parametrize(
    ("surface", "flags"),
    [
        ("torus", ("--grid", "4x4", "--compare", "--format", "json")),
        # the bulk-m3 request: plain CSV over the 34x34 torus, batched
        ("bulk-torus", ()),
        ("synth7", ()),
    ],
    ids=["compare-json", "plain-csv-bulk-torus", "plain-csv-synth7"],
)
def test_compare_json_meets_the_benchmark_contract(surface, flags, tmp_path, capsys, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    target = surface
    if surface != "torus":
        fields = {
            "bulk-torus": workloads._torus(random.Random("1:torus"), 34),
            "synth7": workloads._synthetic_m7(random.Random("1:synth7"), 6),
        }[surface]
        target = str(tmp_path / f"{surface}.conf")
        workloads.write_config(Path(target), surface, fields)
    assert cli.main(["curvature", target, *flags]) == 0
    spec = surfaces.load_spec(target)
    rows = len(surfaces.grid_points(spec, (4, 4) if surface == "torus" else None))
    fmt = "json" if "json" in flags else "csv"
    oracle = workloads.Oracle(spec)
    worst = workloads.check_curvature(capsys.readouterr().out, fmt, oracle, spec.m, rows)
    assert worst <= workloads.TOLERANCE
