import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbcurv
from pbcurv import cli, poisson
from pbcurv.classical import evaluate_embedding, induced_metric
from pbcurv.cli import main
from pbcurv.errors import ConfigError, DegenerateMetricError
from pbcurv.surfaces import CATALOG, grid_points, load_spec, parse_config


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for cells in reader:
        if not cells:
            continue
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return header, rows


# --- load_spec and the config format --------------------------------------


def test_load_spec_catalog():
    spec = load_spec("sphere")
    assert spec.m == 3
    assert spec.nu == 0
    assert spec.coords == ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)"]
    assert spec.domain[0] == 0.2
    assert spec.domain[1] == pytest.approx(math.pi - 0.2)
    assert spec.domain[2:] == (0.0, 2.0 * math.pi)


def test_load_spec_all_catalog_names():
    expected = {
        "plane", "sphere", "sphere-r2", "cylinder", "catenoid", "helicoid",
        "torus", "hyperbolic-plane", "de-sitter", "flat-torus-r4",
        "graph-surface-r4", "lorentz-graph-r41", "r5-product",
    }
    assert expected <= set(CATALOG)
    for name in expected:
        spec = load_spec(name)
        assert len(spec.coords) == spec.m


def test_load_spec_unknown_target():
    with pytest.raises(ConfigError):
        load_spec("no-such-surface")


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "tilted.surface"
    cfg.write_text(
        """
# a tilted plane in Minkowski space
name = "tilted"
m = 3
nu = 1
coords = ["u", "v", "0.5*u"]
domain = [-1, 1, -1, 1]
grid = [5, 5]
rho = "unit"
excluded_margins = 0.1
"""
    )
    spec = load_spec(str(cfg))
    assert spec.name == "tilted"
    assert spec.m == 3 and spec.nu == 1
    assert spec.grid == (5, 5)
    assert spec.rho == "unit"
    assert spec.excluded_margins == 0.1
    points = grid_points(spec)
    assert len(points) == 9
    # margins inset the sampled rectangle by a tenth of the span per side
    us = sorted({u for _, _, u, _ in points})
    assert us[0] == pytest.approx(-0.8 + 1.6 / 4)


def test_config_name_defaults_to_filename(tmp_path):
    cfg = tmp_path / "myplane.cfg"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "0"]\ndomain = [0, 1, 0, 1]\n'
    )
    assert load_spec(str(cfg)).name == "myplane"


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config('m = 3\nbogus_key = 1\n')
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config('m = 3\nm = 4\n')
    assert "duplicate" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("just some text\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config('m = 3\nnu = 0\ncoords = ["u", "v", "0"]\n')  # no domain


def test_config_rejects_nu_above_m():
    with pytest.raises(ConfigError):
        parse_config(
            'm = 3\nnu = 4\ncoords = ["u", "v", "0"]\ndomain = [0, 1, 0, 1]\n'
        )


def test_config_rejects_bad_expression():
    with pytest.raises(ConfigError) as err:
        parse_config(
            'm = 3\nnu = 0\ncoords = ["u", "v", "sin(u"]\ndomain = [0, 1, 0, 1]\n'
        )
    assert "offset" in str(err.value)


# --- curvature -------------------------------------------------------------


def test_curvature_sphere_all_ones(capsys):
    code, out, _ = run_cli(["curvature", "sphere"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["u", "v", "status", "K_full"]
    assert len(rows) == 36
    for row in rows:
        assert row["status"] == "ok"
        assert abs(row["K_full"] - 1.0) <= 1e-8
        h = np.array([row["H_full_1"], row["H_full_2"], row["H_full_3"]])
        assert float(h @ h) == pytest.approx(1.0, rel=1e-8)


def test_curvature_hyperbolic_minus_one(capsys):
    code, out, _ = run_cli(["curvature", "hyperbolic-plane", "--grid", "5x5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows
    for row in rows:
        assert abs(row["K_full"] + 1.0) <= 1e-8


def test_curvature_compare_exit_zero(capsys):
    code, out, _ = run_cli(
        ["curvature", "lorentz-graph-r41", "--grid", "5x5", "--compare"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert "K_oracle" in header and "res_zsum" in header
    for row in rows:
        assert abs(row["K_full"] - row["K_oracle"]) <= 1e-8 * max(
            1.0, abs(row["K_oracle"])
        )
        assert row["res_rho_indep"] <= 1e-7


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_nested_bracket_tensor_built_once_per_table(capsys, monkeypatch):
    tables = _count_calls(monkeypatch, cli, "build_bracket_table")
    tensors = _count_calls(monkeypatch, poisson, "nested_bracket_tensor")
    assert run_cli(["curvature", "torus", "--grid", "3x3"], capsys)[0] == 0
    assert (len(tables), len(tensors)) == (1, 1)
    assert run_cli(["curvature", "torus", "--grid", "3x3", "--compare"], capsys)[0] == 0
    # --compare builds the run's table and one for another density
    assert (len(tables), len(tensors)) == (3, 3)


def test_invariants_reuses_the_run_table(capsys, monkeypatch):
    tables = _count_calls(monkeypatch, cli, "build_bracket_table")
    tensors = _count_calls(monkeypatch, poisson, "nested_bracket_tensor")
    assert run_cli(["invariants", "torus", "--grid", "3x3"], capsys)[0] == 0
    # the run's sqrt_abs_g table serves the density loop too: unit and expr: are new
    assert (len(tables), len(tensors)) == (3, 3)


@pytest.mark.parametrize(
    "args", [["invariants", "torus"], ["curvature", "torus", "--compare"]]
)
def test_centre_point_evaluated_once(args, capsys, monkeypatch):
    evaluations = _count_calls(monkeypatch, cli, "evaluate_embedding")
    assert run_cli(args + ["--grid", "3x3"], capsys)[0] == 0
    # one interior point: the centre plus the 8 points of the FD frame stencil
    assert len(evaluations) == 9


def test_curvature_csv_json_same_numbers(capsys):
    args = ["curvature", "helicoid", "--grid", "4x4", "--compare"]
    code, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    header, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert payload["surface"] == "helicoid"
    assert payload["m"] == 3
    assert len(payload["points"]) == len(rows)
    for row, point in zip(rows, payload["points"]):
        for key, value in row.items():
            if isinstance(value, float):
                assert point[key] == value, key
            else:
                assert point[key] == value


def test_curvature_deterministic_across_runs(tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    base = ["curvature", "torus", "--grid", "6x6", "--compare"]
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    ("surface", "nu"), [("torus", 0), ("lorentz-graph-r41", 1)]
)
def test_compare_columns_match_invariants_rows(surface, nu, capsys):
    # a 3x3 grid has one interior point, so each invariants row is that
    # point's residual, printed to 3 significant digits
    code, out, _ = run_cli(
        ["curvature", surface, "--grid", "3x3", "--compare", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == nu
    (point,) = payload["points"]
    _, table, _ = run_cli(["invariants", surface, "--grid", "3x3"], capsys)
    rows = {
        line.split()[0]: line.split()[1]
        for line in table.splitlines()
        if line.endswith(("PASS", "FAIL"))
    }
    columns = {
        "res_p2trace": "p2_trace",
        "res_satrace": "s2_trace",
        "res_zproj": "z_projector",
        "res_ztrace": "z_trace",
        "res_zsum": "z_sum",
    }
    for column, row in columns.items():
        assert format(point[column], ".3e") == rows[row], (column, row)


def test_curvature_grid_without_interior_points_exit_two(capsys):
    code, out, err = run_cli(["curvature", "sphere", "--grid", "2x2"], capsys)
    assert code == 2
    assert out == ""
    assert "no interior points" in err


@pytest.mark.parametrize(
    "args",
    [
        ["curvature", "sphere", "--threads", "2"],
        ["invariants", "sphere", "--threads", "2"],
        ["bench", "sphere", "--threads", "2"],
        ["curvature", "sphere", "--contraction", "naive"],
        ["invariants", "sphere", "--contraction", "naive"],
        ["bench", "sphere", "--contraction", "naive"],
        ["bench", "sphere", "--tolerance", "5"],
    ],
)
def test_removed_options_are_usage_errors(args, capsys):
    # argparse rejects unknown options by raising SystemExit(2)
    with pytest.raises(SystemExit) as info:
        main(args + ["--grid", "3x3"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_curvature_rho_flag_changes_nothing(capsys):
    code, out_unit, _ = run_cli(
        ["curvature", "catenoid", "--grid", "4x4", "--rho", "unit"], capsys
    )
    assert code == 0
    code, out_expr, _ = run_cli(
        ["curvature", "catenoid", "--grid", "4x4", "--rho", "expr:1 + 0.3*sin(u)"],
        capsys,
    )
    assert code == 0
    _, rows_u = parse_csv(out_unit)
    _, rows_e = parse_csv(out_expr)
    for ru, re_ in zip(rows_u, rows_e):
        assert abs(ru["K_full"] - re_["K_full"]) <= 1e-7


def test_degenerate_surface_exit_three(tmp_path, capsys):
    cfg = tmp_path / "null.surface"
    cfg.write_text(
        'm = 3\nnu = 1\ncoords = ["u", "u", "v"]\ndomain = [0, 1, 0, 1]\n'
    )
    code, _, err = run_cli(["curvature", str(cfg)], capsys)
    assert code == 3
    assert "at (u, v)" in err  # the failing point is named

    code, out, _ = run_cli(["curvature", str(cfg), "--skip-degenerate"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows and all(row["status"].startswith("skipped") for row in rows)


def test_degenerate_metric_message_prints_plain_floats():
    spec = load_spec("sphere")
    emb = evaluate_embedding(spec.signature, spec.coord_asts, (0.0, 0.5))
    with pytest.raises(DegenerateMetricError) as info:
        induced_metric(emb)
    message = str(info.value)
    assert "np.float64" not in message
    assert "det g = 0.0" in message


def test_usage_errors_exit_two(capsys):
    assert run_cli(["curvature", "no-such-surface"], capsys)[0] == 2
    assert run_cli(["curvature", "sphere", "--grid", "8"], capsys)[0] == 2
    assert run_cli(["curvature", "sphere", "--rho", "bogus"], capsys)[0] == 2
    assert run_cli(["curvature", "sphere", "--rho", "expr:u @ v"], capsys)[0] == 2


def test_dimension_cap_exit_two(tmp_path, capsys, monkeypatch):
    # only the naive contraction (bench) is capped; the projector is not
    monkeypatch.setenv("PBCURV_MAX_M", "3")
    code, _, err = run_cli(["bench", "flat-torus-r4", "--grid", "3x3"], capsys)
    assert code == 2
    assert "PBCURV_MAX_M" in err
    code, _, _ = run_cli(
        ["curvature", "flat-torus-r4", "--grid", "3x3", "--compare"], capsys
    )
    assert code == 0
    monkeypatch.setenv("PBCURV_MAX_M", "4")
    code, _, _ = run_cli(["bench", "flat-torus-r4", "--grid", "3x3"], capsys)
    assert code == 0


def test_bench_cap_on_large_m(tmp_path, capsys):
    coords = ["u", "v", "u*v", "u^2", "v^2", "sin(u)", "cos(v)", "u + v", "u - v"]
    quoted = ", ".join(f'"{c}"' for c in coords)
    cfg = tmp_path / "m9.surface"
    cfg.write_text(
        f"m = 9\nnu = 0\ncoords = [{quoted}]\ndomain = [0.1, 1, 0.1, 1]\n"
    )
    code, _, err = run_cli(["bench", str(cfg), "--grid", "3x3"], capsys)
    assert code == 2
    assert "m=9" in err


# --- invariants ------------------------------------------------------------


def test_invariants_pass_on_catalog_samples(capsys):
    for name in ("sphere", "de-sitter", "flat-torus-r4", "r5-product"):
        code, out, _ = run_cli(["invariants", name, "--grid", "4x4"], capsys)
        assert code == 0, (name, out)
        assert "FAIL" not in out
        assert "PASS" in out


def test_invariants_reports_sign_bookkeeping(capsys):
    code, out, _ = run_cli(["invariants", "de-sitter", "--grid", "3x3"], capsys)
    assert code == 0
    assert "ind_g=1" in out
    assert "delta=0" in out
    code, out, _ = run_cli(["invariants", "hyperbolic-plane", "--grid", "3x3"], capsys)
    assert code == 0
    assert "delta=1" in out
    assert "[-1]" in out


def test_invariants_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(
        ["invariants", "sphere", "--grid", "3x3", "--tolerance=-1"], capsys
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["curvature", "invariants"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_usage_error(command, value, capsys):
    args = [command, "sphere", "--grid", "3x3", f"--tolerance={value}"]
    if command == "curvature":
        args.append("--compare")
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "--tolerance must be finite" in err


def test_compare_fails_closed_on_nan_curvature(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gauss_full_from_table", lambda *args: math.nan)
    code, _, err = run_cli(["curvature", "sphere", "--grid", "3x3", "--compare"], capsys)
    assert code == 1
    assert "comparison failure" in err


def test_compare_fails_closed_on_nan_residual(capsys, monkeypatch):
    real = cli.zmap_invariants

    def nan_trace(*args):
        return {**real(*args), "z_trace": math.nan}

    monkeypatch.setattr(cli, "zmap_invariants", nan_trace)
    code, out, err = run_cli(["curvature", "torus", "--grid", "3x3", "--compare"], capsys)
    assert code == 1
    assert "comparison failure" in err
    _, (row,) = parse_csv(out)
    assert math.isnan(row["res_ztrace"])
    assert abs(row["K_full"] - row["K_oracle"]) <= 1e-8 * max(1.0, abs(row["K_oracle"]))


def test_compare_negative_tolerance_fails(capsys):
    code, _, err = run_cli(
        ["curvature", "sphere", "--grid", "3x3", "--compare", "--tolerance=-1"], capsys
    )
    assert code == 1
    assert "comparison failure" in err


def test_invariants_fail_closed_on_nan_residual(capsys, monkeypatch):
    real = cli.mean_full_from_table
    calls = []

    def nan_on_second_call(table, emb, met, contraction="reduced"):
        calls.append(None)
        out = real(table, emb, met, contraction)
        return out * math.nan if len(calls) == 2 else out

    monkeypatch.setattr(cli, "mean_full_from_table", nan_on_second_call)
    code, out, _ = run_cli(["invariants", "sphere", "--grid", "3x3"], capsys)
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("rho_independence"))
    assert "nan" in row and "FAIL" in row
    assert "FAIL" not in out.replace(row, "")


# --- bench -----------------------------------------------------------------


def test_bench_reports_both_paths(capsys):
    code, out, _ = run_cli(
        ["bench", "sphere", "--grid", "3x3", "--repetitions", "1"], capsys
    )
    assert code == 0
    assert "naive:" in out
    assert "reduced:" in out
    assert "ratio:" in out
    # m = 3 has no trailing indices at all
    assert "1 multi-index terms" in out
    assert "(median of per-point bests)" in out
    assert "whole (3, 3, 3) nested-bracket tensor" in out


def test_bench_r5_ratio_positive(capsys):
    code, out, _ = run_cli(
        ["bench", "r5-product", "--grid", "3x3", "--repetitions", "1"], capsys
    )
    assert code == 0
    ratio = float(out.strip().splitlines()[-1].split()[-1])
    assert ratio > 0.0


# --- console entry point -----------------------------------------------------


def run_module(args):
    """Run `python -m pbcurv.cli` on the pbcurv this process imports, installed or not."""
    src = str(Path(pbcurv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pbcurv.cli", *args], capture_output=True, text=True, env=env
    )


def test_module_entry_point_subprocess():
    proc = run_module(["curvature", "plane", "--grid", "3x3"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("u,v,status,K_full")

    proc = run_module(["curvature", "nope"])
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [["curvature", "--compare"], ["invariants"]])
def test_non_finite_frame_candidates_exit_three(args, tmp_path):
    cfg = tmp_path / "steep.surface"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "exp(800*u)"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    proc = run_module([args[0], str(cfg), "--grid", "3x3", *args[1:]])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "normal candidates are non-finite" in proc.stderr
