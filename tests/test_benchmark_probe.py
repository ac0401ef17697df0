"""The traced replay of benchmark/probe.py still finds every stage it times.

The probe reaches pbcurv through module attributes (stage functions, and
the globals it wraps such as poisson.eps_contract_naive).  A stage whose
name or signature changes is reported as absent, and the benchmark then
prints a metric without a value.  This replays a small torus and a small
m=7 surface through the probe and requires every stage to be present.
It also passes real `invariants` and `curvature --compare` output through
the benchmark's own output checks.
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


def test_compare_json_meets_the_benchmark_contract(capsys, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    args = ["curvature", "torus", "--grid", "4x4", "--compare", "--format", "json"]
    assert cli.main(args) == 0
    oracle = workloads.Oracle(surfaces.load_spec("torus"))
    worst = workloads.check_curvature(capsys.readouterr().out, "json", oracle, 3, 4)
    assert worst <= workloads.TOLERANCE
