import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbcurv
from pbcurv import classical, cli, exprlang, poisson, surfaces
from pbcurv.classical import evaluate_embedding, induced_metric
from pbcurv.cli import main
from pbcurv.errors import ConfigError, DegenerateMetricError, RankDeficiencyError
from pbcurv.exprlang import MAX_DEPTH
from pbcurv.jets import FUNCTIONS
from pbcurv.surfaces import CATALOG, grid_points, load_spec, parse_config

from helpers import arc_sphere, error_scales, natural_sphere


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


_SPHERE_CONFIG = 'm = 3\nnu = 0\ncoords = ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)"]\ndomain = [0.3, 2.8, 0, 6]\n'


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


def test_grid_points_hold_the_linspace_floats():
    spec = dataclasses.replace(CATALOG["torus"], excluded_margins=0.15)
    u0, u1, v0, v1 = spec.domain
    du, dv = u1 - u0, v1 - v0
    us = np.linspace(u0 + 0.15 * du, u1 - 0.15 * du, 7)
    vs = np.linspace(v0 + 0.15 * dv, v1 - 0.15 * dv, 9)
    expected = [(i, j, float(us[i]), float(vs[j])) for i in range(1, 6) for j in range(1, 8)]
    points = grid_points(spec, (7, 9))
    assert points == expected
    assert all(type(u) is float and type(v) is float for _, _, u, v in points)


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


def test_parser_faults_are_not_hidden_as_config_errors(monkeypatch):
    # only the package's own errors become "bad coordinate expression"
    def crash(source):
        raise ZeroDivisionError("fault inside the parser")

    monkeypatch.setattr(surfaces, "parse_expression", crash)
    with pytest.raises(ZeroDivisionError, match="fault inside the parser"):
        parse_config('m = 3\nnu = 0\ncoords = ["u", "v", "u"]\ndomain = [0, 1, 0, 1]\n')


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

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_nested_bracket_tensor_built_once_per_table(capsys, monkeypatch):
    # cli's own bracket_with_rows calls build T; s_rows and the double traces call poisson's
    chunks = _count_calls(monkeypatch, cli, "bracket_with_rows")
    tables = _count_calls(monkeypatch, cli, "build_bracket_table")
    tensors = _count_calls(monkeypatch, poisson, "nested_bracket_tensor")
    # plain curvature builds T once per chunk of points and no per-point table
    assert run_cli(["curvature", "torus", "--grid", "10x10"], capsys)[0] == 0
    assert (len(chunks), len(tables), len(tensors)) == (1, 0, 0)
    assert len(chunks[0][0]) == 64
    monkeypatch.setattr(cli, "CHUNK_FLOATS", 7 * 3**3)  # chunks of 7 points
    assert run_cli(["curvature", "torus", "--grid", "10x10"], capsys)[0] == 0
    assert [len(args[0]) for args in chunks[1:]] == [7] * 9 + [1]
    del chunks[:]
    assert run_cli(["curvature", "torus", "--grid", "10x10", "--compare"], capsys)[0] == 0
    # --compare builds T for the run's density and for another one, once per
    # chunk of points, and no per-point table
    assert [len(args[0]) for args in chunks] == [7, 7] * 9 + [1, 1]
    assert (len(tables), len(tensors)) == (0, 0)


@pytest.mark.parametrize(
    ("rho", "expected"),
    [
        ([], 3),
        (["--rho", "unit"], 3),
        (["--rho", "expr:2 + sin(v)"], 4),
        (["--rho", "expr:1 + 0.3*sin(u)"], 4),
    ],
    ids=["default", "unit", "expr", "expr-as-check-density"],
)
def test_invariants_reuses_the_run_table(rho, expected, capsys, monkeypatch):
    tables = _count_calls(monkeypatch, cli, "bracket_rows")
    tensors = _count_calls(monkeypatch, cli, "bracket_with_rows")  # T, as above
    points = _count_calls(monkeypatch, cli, "build_bracket_table")
    monkeypatch.setattr(cli, "CHUNK_FLOATS", 5 * 3**3)  # chunks of 5 points
    assert run_cli(["invariants", "torus", "--grid", "6x6", *rho], capsys)[0] == 0
    # per chunk, the run density unit or sqrt_abs_g serves the density loop
    # too; any other density adds a table of its own, which only the
    # identities read, so T is built for the three densities alone.  The
    # check density 1 + 0.3 sin(u) reads the normalised parameters, so a run
    # density of the same text is not it
    assert (len(tables), len(tensors), len(points)) == (4 * expected, 4 * 3, 0)
    assert [len(args[0]) for args in tensors] == [5] * 9 + [1] * 3


@pytest.mark.parametrize(
    "args", [["invariants", "torus"], ["curvature", "torus", "--compare"]]
)
def test_centre_point_evaluated_once(args, capsys, monkeypatch):
    evaluations = _count_calls(monkeypatch, cli, "eval_tape")
    residuals = _count_calls(monkeypatch, cli, "_identity_rows")
    points = _count_calls(monkeypatch, cli, "_record")
    frames = _count_calls(monkeypatch, cli, "orthonormal_rows")
    assert run_cli(args + ["--grid", "3x3"], capsys)[0] == 0
    # one Gram-Schmidt pivots both normal frames: the classical candidates and the Z rows
    assert [len(pools) for pools, *_ in frames] == [2]
    # one interior point: the frame derivatives come from its own jets, and
    # both commands compute its identity residuals once, in one batch; the
    # coordinates' tape is walked once (invariants also walks the tape of its
    # check density and double-trace functions once)
    assert [len(u) for _, u, _ in evaluations] == [1] * (2 if args[0] == "invariants" else 1)
    assert evaluations[0][0] is CATALOG["torus"].coord_asts.tape
    assert (len(residuals), len(points)) == (1, 0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_compare_k_frame_matches_oracle_on_catalog(name, capsys):
    code, out, _ = run_cli(["curvature", name, "--grid", "6x6", "--compare"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 16
    for row in rows:
        scale = max(1.0, abs(row["K_oracle"]))
        assert abs(row["K_frame"] - row["K_oracle"]) <= 1e-13 * scale, (row["u"], row["v"])


M8_COORDS = [
    "sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)", "0.3*sin(u + 0.3*v) + 0.1*u*v",
    "0.2*cos(2*u - v)", "0.25*sin(3*v + 0.5*u)", "0.15*u^2 - 0.1*v", "0.1*sin(4*u + 1.2*v)",
]


@pytest.mark.parametrize(
    ("m", "nu", "coords", "domain", "grid"),
    [
        (3, 0, ["u", "v", "0.05*sin(20*u)*cos(20*v)"], [-0.8, 0.8, -0.8, 0.8], "6x6"),
        (3, 0, ["u", "v", "0.05*sin(40*u)*cos(40*v)"], [-0.8, 0.8, -0.8, 0.8], "6x6"),
        (8, 1, M8_COORDS, [0.4, 2.6, 0.2, 6.0], "4x4"),
    ],
    ids=["wiggle-20", "wiggle-40", "m8-nu1"],
)
def test_invariants_pass_on_surfaces_the_fd_stencil_failed(
    m, nu, coords, domain, grid, tmp_path, capsys
):
    # a finite-difference frame stencil put s2_trace and ps_trace at 2e-8 to 3e-6 here
    cfg = tmp_path / "smooth.surface"
    cfg.write_text(f"m = {m}\nnu = {nu}\ncoords = {json.dumps(coords)}\ndomain = {domain}\n")
    code, out, _ = run_cli(["invariants", str(cfg), "--grid", grid], capsys)
    assert code == 0, out
    assert "FAIL" not in out


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


# the shapes of the benchmark's bulk-m3 torus and m=7 surface, fixed constants
BULK_TORUS = (
    'm = 3\nnu = 0\ncoords = ["(2.2718 + 0.6393*cos(u))*cos(v)", '
    '"(2.2718 + 0.6393*cos(u))*sin(v)", "0.6393*sin(u)"]\n'
    "domain = [0.0, 6.283185307179586, 0.0, 6.283185307179586]\ngrid = [34, 34]\n"
)
SYNTH7 = (
    'm = 7\nnu = 0\ncoords = ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)", '
    '"0.23*sin(u + 1.1)*cos(v + 4.2)", "0.31*cos(2*u + 0.7)", '
    '"0.17*sin(u + 2*v + 5.9)", "0.29*cos(u - v + 2.5)"]\n'
    "domain = [0.2, 2.941592653589793, 0.0, 6.283185307179586]\ngrid = [12, 12]\n"
)


@pytest.mark.parametrize("config", [BULK_TORUS, SYNTH7], ids=["bulk-torus", "synth7"])
@pytest.mark.parametrize(
    ("fmt", "level"),
    [("csv", "plain"), ("json", "plain"), ("csv", "compare"), ("json", "compare"), (None, "invariants")],
    ids=["csv", "json", "compare-csv", "compare-json", "invariants"],
)
def test_plain_rows_do_not_depend_on_the_chunk_size(config, fmt, level, tmp_path, capsys, monkeypatch):
    # one chunk, chunks of 7 points, and every point a batch of its own, at
    # each level: the frames, the Z projector and every residual of a row
    # are computed from that row alone
    cfg = tmp_path / "surface.conf"
    cfg.write_text(config)
    m = load_spec(str(cfg)).m
    largest = m**3 if level == "plain" else max(m**3, math.comb(m, 3) ** 2)
    command = ["invariants"] if level == "invariants" else ["curvature", "--format", fmt]
    command += ["--compare"] * (level == "compare")
    outputs = []
    for floats in (cli.CHUNK_FLOATS, 7 * largest, 1):
        monkeypatch.setattr(cli, "CHUNK_FLOATS", floats)
        code, out, _ = run_cli([command[0], str(cfg), *command[1:]], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("compare", [[], ["--compare"]], ids=["plain", "compare"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_skipped_rows_do_not_depend_on_the_chunk_size(fmt, compare, tmp_path, capsys, monkeypatch):
    # ln(u) fails for u <= 0: 12 of the 20 rows are skipped, spread over several chunks
    cfg = tmp_path / "log.surface"
    cfg.write_text('m = 3\nnu = 0\ncoords = ["u", "v", "ln(u)"]\ndomain = [-1, 1, 0, 1]\n')
    argv = ["curvature", str(cfg), "--grid", "7x6", "--format", fmt, *compare]
    skipped, failed = [], []
    for floats in (cli.CHUNK_FLOATS, 7 * 3**3, 1):  # one chunk, 7 points, 1 point
        monkeypatch.setattr(cli, "CHUNK_FLOATS", floats)
        skipped.append(run_cli(argv + ["--skip-degenerate"], capsys))
        failed.append(run_cli(argv, capsys))
    assert skipped[0] == skipped[1] == skipped[2]
    assert failed[0] == failed[1] == failed[2]
    code, out, err = skipped[0]
    assert (code, err) == (0, "")
    if fmt == "csv":
        statuses = [row["status"] for row in parse_csv(out)[1]]
    else:
        points = json.loads(out)["points"]
        statuses = [point["status"] for point in points]
        # a skipped row holds u, v and its status alone
        assert all(point.keys() == {"u", "v", "status"} for point in points if point["status"] != "ok")
    assert len(statuses) == 20 and statuses.count("ok") == 8
    code, out, err = failed[0]
    assert (code, out) == (3, "")
    message = "ln is undefined at value -0.6666666666666667 (expression offset 0)"
    assert err == f"geometric error: at (u, v) = (-0.6666666666666667, 0.2): {message}\n"


def test_csv_cells_of_ok_and_skipped_rows():
    assert cli._cell(None) == ""
    assert cli._cell("skipped: no comma") == "skipped: no comma"
    assert cli._cell('skipped: at (u, v), "x"') == '"skipped: at (u, v), ""x"""'
    assert [cli._cell(x) for x in (-0.0, math.inf, math.nan)] == ["-0", "inf", "nan"]
    # an ok row goes through one template, a skipped row cell by cell: the
    # same numbers give the bytes of format(x, ".17g") either way
    columns = cli._columns(4, False)
    values = [-0.0, math.inf, math.nan, -math.inf, 0.1, 5e-324, -1.25e300]
    table = {key: [x, x, None] for key, x in zip([c for c in columns if c != "status"], values)}
    table["u"][2], table["v"][2] = 2.0, 3.0
    table["status"] = ["ok", 'skipped: a, "b"', "skipped"]
    out = io.StringIO()
    cli._emit(table, columns, argparse.Namespace(format="csv", rho=None), None, out)
    cells = [format(float(x), ".17g") for x in values]
    assert out.getvalue().splitlines() == [
        ",".join(columns),
        ",".join([*cells[:2], "ok", *cells[2:]]),
        ",".join([*cells[:2], '"skipped: a, ""b"""', *cells[2:]]),
        "2,3,skipped,,,,,",
    ]


def _dumped(table, columns, args, spec):
    """The JSON table as json.dumps writes it: the oracle of cli._emit's JSON writer."""
    payload = {
        "surface": spec.name,
        "m": spec.m,
        "nu": spec.nu,
        "rho": args.rho if args.rho else spec.rho,
        "points": [
            {col: x for col, x in zip(columns, row) if x is not None}
            for row in zip(*(table[col] for col in columns))
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("rho", [None, 'expr:1 + "\u00e9\u2202" \\ u'])
def test_json_rows_match_json_dumps(rho):
    spec = argparse.Namespace(name='tor"us \u00e9\u03c0', m=3, nu=0, rho="sqrtg\u00e9")
    args = argparse.Namespace(format="json", rho=rho)
    columns = cli._columns(3, True)
    numeric = [col for col in columns if col != "status"]
    # the first row takes the template; each other ok row holds one cell it must not take
    base = [[-0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300, 3.0][i % 7] for i in range(len(numeric))]
    specials = [math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(math.nan)]
    rows = [base] + [[*base[:3], x, *base[4:]] for x in specials]
    rows += [[1.5, -2.5] + [None] * (len(numeric) - 2)] * 3
    statuses = ["ok"] * (1 + len(specials)) + [
        'skipped: at (u, v) = (1.5, -2.5), "quoted" \\ back\nslash \u00e9',
        "skipped",
        "skipped: \u2202 vanishes, twice",
    ]
    table = dict(zip(numeric, map(list, zip(*rows))))
    table["status"] = statuses
    for rows_kept in (slice(None), slice(0, 1), slice(6, 7), slice(0, 0)):
        part = {key: col[rows_kept] for key, col in table.items()}
        out = io.StringIO()
        cli._emit(part, columns, args, spec, out)
        assert out.getvalue() == _dumped(part, columns, args, spec)
    assert '"points": []' in out.getvalue()


@pytest.mark.parametrize(
    "z_lower",
    [
        [[0.0, 0.0, 1.0]],  # the normal
        [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],  # the normal, then only a null direction
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],  # rank 2
        [[1.0, 1.0, 0.0]],  # only a null direction
        [[0.0, 0.0, 0.0]],  # rank 0
    ],
    ids=["normal", "null-after-one", "rank-2", "null-only", "rank-0"],
)
def test_frame_rows_flag_the_z_rows_normal_frame_from_z_refuses(z_lower):
    # gbar = (-1, 1, 1) and codim 1; the classical candidates are fine, so
    # the flag is the Z frame's alone, and it must match the per-point raise.
    # Both frames pivot over the rows of gbar M, M = Z_lower^T Z_upper.
    sig = poisson.AmbientSignature(3, 1)
    rows = np.array(z_lower)
    zd = poisson.ZData([(1,)] * len(rows), np.ones(len(rows)), rows, rows, 0, 1)
    try:
        poisson.normal_frame_from_z(zd, sig)
        refused = False
    except RankDeficiencyError:
        refused = True
    with np.errstate(all="ignore"):  # as in cli._records: flagged rows hold garbage
        *_, bad = cli._frame_rows(sig, np.eye(3)[None], (rows.T @ rows)[None])
    assert bad.tolist() == [refused]
    assert refused == (z_lower != [[0.0, 0.0, 1.0]])


def test_an_m10_compare_chunk_bounds_its_z_rows(capsys, monkeypatch, tmp_path):
    # Z_lower has C(10, 3) * 10 = 1200 floats per point, more than the m^3 = 1000 of T
    coords = ["u", "v", *(f"sin({k}*u + {0.3 * k!r}*v) + {0.1 * k!r}*u*v" for k in range(1, 9))]
    cfg = tmp_path / "m10.surface"
    cfg.write_text(f"m = 10\nnu = 0\ncoords = {json.dumps(coords)}\ndomain = [0.2, 1.2, 0.3, 1.3]\n")
    sizes = []
    real = cli.z_rows

    def recorded(*args):
        out = real(*args)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(cli, "z_rows", recorded)
    for floats in (cli.CHUNK_FLOATS, 3 * 1200 + 1199, 1200):
        monkeypatch.setattr(cli, "CHUNK_FLOATS", floats)
        del sizes[:]
        assert run_cli(["curvature", str(cfg), "--grid", "6x6", "--compare"], capsys)[0] == 0
        assert sum(sizes) == 16 * 1200 and max(sizes) <= floats
    assert sizes == [1200] * 16


def _scaled_first_z_row(real):
    """z_rows with its first row scaled by 1 + 1e-6 in Z_lower and Z_upper."""

    def z_rows(*args):
        ZL, ZU, weights = real(*args)
        ZL[:, 0] *= 1.0 + 1e-6
        ZU[:, 0] *= 1.0 + 1e-6
        return ZL, ZU, weights

    return z_rows


@pytest.mark.parametrize("name", ["torus", "r5-product"])
def test_invariants_fail_on_a_scaled_z_row(name, capsys, monkeypatch):
    monkeypatch.setattr(cli, "z_rows", _scaled_first_z_row(cli.z_rows))
    monkeypatch.setattr(poisson, "z_rows", _scaled_first_z_row(poisson.z_rows))
    code, out, _ = run_cli(["invariants", name, "--grid", "6x6"], capsys)
    assert code == 1
    rows = {line.split()[0]: line.split() for line in out.splitlines()[3:]}
    failed = {key for key, row in rows.items() if row[-1] == "FAIL"}
    assert failed == {"z_idempotent", "z_trace", "z_sum"}, out
    for key in failed:  # the defect's size, far above the 1e-9 tolerance
        assert float(rows[key][1]) >= 1e-7, out
    # M = Z_lower^T diag(w) Z_lower is symmetric for any row scale, so
    # z_self_adjoint reads 0 here; it can fail only on NaN
    assert float(rows["z_self_adjoint"][1]) == 0.0


_CHECK_LEVEL_DENSITIES = [
    (rho, level) for level in ("plain", "compare", "invariants")
    for rho in ("sqrtg", "unit", "expr:1 + 0.3*sin(u)")
]


@pytest.mark.parametrize(
    ("rho", "level"),
    _CHECK_LEVEL_DENSITIES,
    ids=[rho if level == "plain" else f"{level}-{rho}" for rho, level in _CHECK_LEVEL_DENSITIES],
)
def test_plain_rows_match_the_library_point_calls(rho, level, capsys, monkeypatch):
    # the grid's jets come from the tape (numpy), a point's from eval_jet
    # (math): K and H agree to within 64 eps of the closed forms' rounding scale
    eps = np.finfo(float).eps
    density = poisson.DensityChoice.from_string(rho)
    if level != "plain":
        _assert_check_rows_match_the_point_path(density, level, monkeypatch)
        return
    for name, spec in CATALOG.items():
        code, out, _ = run_cli(["curvature", name, "--grid", "6x6", "--rho", rho], capsys)
        assert code == 0
        for row in parse_csv(out)[1]:
            emb = evaluate_embedding(spec.signature, spec.coord_asts, (row["u"], row["v"]))
            k, h = poisson.gauss_full(emb, density), poisson.mean_full(emb, density)
            h_row = np.array([row[f"H_full_{i}"] for i in range(1, spec.m + 1)])
            met = induced_metric(emb)
            s_k, s_h = error_scales(poisson.build_bracket_table(emb, density), emb, met, k, h)
            assert abs(row["K_full"] - k) <= 64 * eps * s_k, (name, row["u"], row["v"])
            assert np.all(np.abs(h_row - h) <= 64 * eps * s_h), (name, row["u"], row["v"])


def _assert_check_rows_match_the_point_path(density, level, monkeypatch):
    """Every batched row of the level agrees with cli._record at its point.

    K, H and the frame and oracle values within 64 eps of the row's largest
    K or H entry (at least 1), the residuals within 64 eps, and the signs
    and the index of g exactly.
    """
    eps = np.finfo(float).eps
    record = cli._record
    recomputed = _count_calls(monkeypatch, cli, "_record")
    for name, spec in CATALOG.items():
        points = grid_points(spec, (6, 6))
        table = cli._records(spec, density, points, level)
        assert recomputed == [], name  # every row comes from the batch
        for i, (_, _, u, v) in enumerate(points):
            row = {key: col[i] for key, col in table.items()}
            point = record(spec, density, (u, v), level)
            assert row.keys() == point.keys()
            scale = max([1.0] + [abs(x) for key, x in row.items() if key[0] in "KH"])
            for key, x in row.items():
                y = point[key]
                if key in ("u", "v", "status", "ind_g", "sigma", "sigma_multiset"):
                    assert x == y, (name, key)
                else:
                    bound = 64 * eps * (scale if key[0] in "KH" else 1.0)
                    assert abs(x - y) <= bound, (name, u, v, key, x, y)


@pytest.mark.parametrize("command", [["curvature", "--compare"], ["invariants"]], ids=["compare", "invariants"])
def test_clean_catalog_runs_recompute_no_row(command, capsys, monkeypatch):
    # every catalog point passes the batch's checks, so none is recomputed point by point
    points = _count_calls(monkeypatch, cli, "_record")
    for name in sorted(CATALOG):
        code, _, err = run_cli([command[0], name, "--grid", "8x8", *command[1:]], capsys)
        assert (code, err) == (0, ""), name
    assert points == []


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
    # argparse rejects unknown options and subcommands by raising SystemExit(2)
    with pytest.raises(SystemExit) as info:
        main(args + ["--grid", "3x3"])
    assert info.value.code == 2
    expected = "invalid choice" if args[0] == "bench" else "unrecognized arguments"
    assert expected in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "args", [["curvature"], ["curvature", "--compare"], ["invariants"]],
    ids=["curvature", "compare", "invariants"],
)
def test_degenerate_surface_exit_three(args, tmp_path, capsys):
    cfg = tmp_path / "null.surface"
    cfg.write_text(
        'm = 3\nnu = 1\ncoords = ["u", "u", "v"]\ndomain = [0, 1, 0, 1]\n'
    )
    code, _, err = run_cli([args[0], str(cfg), *args[1:]], capsys)
    assert code == 3
    # the failing point is named once, by the command line's prefix
    assert err.count("(u, v)") == 1
    point = "(0.14285714285714285, 0.14285714285714285)"
    assert err == f"geometric error: at (u, v) = {point}: induced metric is singular: det g = 0.0\n"
    if args[0] == "invariants":
        return  # --skip-degenerate is a curvature option

    # every row is skipped: the gate of --compare compared nothing and fails
    code, out, err = run_cli([args[0], str(cfg), *args[1:], "--skip-degenerate"], capsys)
    compare = "--compare" in args
    assert code == (1 if compare else 0)
    assert err == ("comparison failure: no point was compared\n" if compare else "")
    _, rows = parse_csv(out)
    assert rows and all(row["status"].startswith("skipped") for row in rows)


def test_compare_gate_passes_over_some_skipped_rows(tmp_path, capsys):
    # det g = 0 on the line u = 0 only: 3 of 9 rows are skipped, 6 compared
    cfg = tmp_path / "cubic.surface"
    cfg.write_text('m = 3\nnu = 0\ncoords = ["u^3", "v", "0"]\ndomain = [-1, 1, -1, 1]\n')
    argv = ["curvature", str(cfg), "--grid", "5x5", "--compare", "--skip-degenerate"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    _, rows = parse_csv(out)
    statuses = [row["status"] for row in rows]
    assert len(statuses) == 9 and statuses.count("ok") == 6


@pytest.mark.parametrize(
    "rho", ["1e80", "1e-100", "1e150", "1e-150", "1e200", "1e-200", "1e300"]
)
@pytest.mark.parametrize("mode", ["plain", "compare", "invariants"])
def test_constant_density_far_from_one_keeps_k_finite(rho, mode, capsys):
    # the bracket table scales rho into [1/2, 1) by a power of two
    command = "invariants" if mode == "invariants" else "curvature"
    argv = [command, "sphere", "--grid", "3x3", "--rho", f"expr:{rho}"]
    code, out, err = run_cli(argv + ["--compare"] * (mode == "compare"), capsys)
    assert code == 0, err
    if mode == "invariants":
        return
    _, rows = parse_csv(out)
    assert rows and all(abs(row["K_full"] - 1.0) <= 1e-12 for row in rows)


@pytest.mark.parametrize("rho", ["1e150", "1e-150", "1e250"])
@pytest.mark.parametrize("radius", ["1e10", "1e100"])
def test_large_sphere_at_extreme_density_keeps_its_digits(radius, rho, tmp_path, capsys):
    # the nested brackets scale like 1 / (radius rho^2) here, and the
    # frame brackets like 1 / (radius rho): formed at rho = 1e150 without
    # normalising the point and the density, they underflow and K_full and
    # K_frame read 0
    cfg = tmp_path / "arc.surface"
    cfg.write_text(arc_sphere(radius))
    argv = ["curvature", str(cfg), "--grid", "3x3", "--rho", f"expr:{rho}", "--compare"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    _, (row,) = parse_csv(out)
    k = float(radius) ** -2  # relative to k: K is far below 1
    assert abs(row["K_full"] - k) <= 1e-12 * k and abs(row["K_frame"] - k) <= 1e-12 * k


def test_residuals_are_relative_on_small_brackets(tmp_path, capsys):
    # S ~ 1e-160 at the surface's own scale, so S^2 is subnormal there and
    # res_satrace read 0; on the normalised point it shows its rounding
    cfg = tmp_path / "arc.surface"
    cfg.write_text(arc_sphere("1e10"))
    argv = ["curvature", str(cfg), "--grid", "3x3", "--rho", "expr:1e150", "--compare"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    _, (row,) = parse_csv(out)
    assert 0.0 < row["res_satrace"] <= 1e-14


@pytest.mark.parametrize("radius", ["1e-3", "1e-10", "1e5", "1e39", "1e100"])
def test_sphere_far_from_unit_size_passes_compare_and_invariants(radius, tmp_path, capsys):
    # every stage runs on the point moved to unit size by powers of two:
    # the metric is not refused as singular below radius 3e-3, and
    # (det g)^2 does not overflow at radius 1e39
    cfg = tmp_path / "sphere.surface"
    cfg.write_text(natural_sphere(radius))
    code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3", "--compare"], capsys)
    assert code == 0, err
    _, (row,) = parse_csv(out)
    k = float(radius) ** -2
    assert abs(row["K_full"] - k) <= 1e-12 * k and abs(row["K_oracle"] - k) <= 1e-12 * k
    code, out, err = run_cli(["invariants", str(cfg), "--grid", "3x3"], capsys)
    assert code == 0, out + err


@pytest.mark.parametrize("plant", ["off-by-1e-6", "zero"])
@pytest.mark.parametrize("radius", ["1e-3", "1e5", "1e39"])
def test_compare_gate_catches_a_wrong_k_at_any_scale(radius, plant, tmp_path, capsys, monkeypatch):
    # the gate divides by max(1, |K|): at the surface's own scale K = 1e-10
    # on the 1e5 sphere, so a K off by 1e-6, or 0, passed
    cfg = tmp_path / "sphere.surface"
    cfg.write_text(natural_sphere(radius))
    argv = ["curvature", str(cfg), "--grid", "3x3", "--compare"]
    assert run_cli(argv, capsys)[0] == 0
    gauss = cli.gauss_rows
    wrong = {"off-by-1e-6": lambda k: k * (1.0 + 1e-6), "zero": lambda k: k * 0.0}[plant]
    monkeypatch.setattr(cli, "gauss_rows", lambda *a: (wrong(gauss(*a)[0]), *gauss(*a)[1:]))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("comparison failure at (u, v)")


def test_compare_gate_catches_density_roundoff_on_a_large_sphere(tmp_path, capsys):
    # rho = 1 + 0.3 sin(u) varies 1e10 times faster than the surface here,
    # and the bracket K (about 1e-19) misses K = 1e-20 entirely
    cfg = tmp_path / "arc.surface"
    cfg.write_text(arc_sphere("1e10"))
    argv = ["curvature", str(cfg), "--grid", "3x3", "--rho", "expr:1 + 0.3*sin(u)", "--compare"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("comparison failure at (u, v)")
    _, (row,) = parse_csv(out)
    assert abs(row["K_oracle"] - 1e-20) <= 1e-12 * 1e-20


def test_invariants_on_large_parameters(tmp_path, capsys):
    # exp(u) of the double-trace pairs overflowed at u ~ 1e10, and the check
    # density 1 + 0.3 sin(u) varied 1e10 times faster than the surface, as in
    # the test above, so rho_independence failed; f, h and the check
    # densities now take the normalised parameters
    cfg = tmp_path / "arc.surface"
    cfg.write_text(arc_sphere("1e10"))
    for grid in ("3x3", "6x6"):
        code, out, err = run_cli(["invariants", str(cfg), "--grid", grid], capsys)
        assert (code, err) == (0, ""), grid
        rows = {line.split()[0]: line.split() for line in out.splitlines()[3:]}
        assert float(rows["double_trace"][1]) <= 1e-14
        assert float(rows["rho_independence"][1]) <= 1e-12
        assert len(rows) == len(cli._IDENTITY_TOLERANCES)
        assert all(row[-1] == "PASS" for row in rows.values()), grid
    # the per-point path of a recomputed row agrees
    spec = load_spec(str(cfg))
    (_, _, u, v), = grid_points(spec, (3, 3))
    record = cli._record(spec, spec.density(), (u, v), "invariants")
    assert record["rho_independence"] <= 1e-12 and record["double_trace"] <= 1e-14


@pytest.mark.parametrize("rho", ["1", "1e150"])
def test_bracket_products_below_the_float_range_exit_three(rho, tmp_path, capsys):
    # at radius 1e160 the Gauss sum multiplies nested brackets of about
    # 1e-160: their products underflow, so K would come out 0 or subnormal
    cfg = tmp_path / "arc.surface"
    cfg.write_text(arc_sphere("1e160"))
    argv = ["curvature", str(cfg), "--grid", "3x3", "--rho", f"expr:{rho}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.endswith("bracket products underflow the float range\n")


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
    assert run_cli(["curvature", "sphere", "--rho", "expr:1e400"], capsys)[0] == 2
    # an empty --rho names no density; it does not fall back to the surface's own
    for command in ("curvature", "invariants"):
        assert run_cli([command, "sphere", "--grid", "3x3", "--rho", ""], capsys) == (
            2, "", "error: unknown density choice '' (want unit, sqrtg, or expr:<source>)\n"
        )


def test_unreadable_config_exit_two_naming_the_path(tmp_path, capsys):
    binary = tmp_path / "binary.surface"
    binary.write_bytes(_SPHERE_CONFIG.encode() + b"# \xff\n")
    cases = [
        (str(tmp_path), "cannot read: Is a directory"),
        (str(binary), "not UTF-8 text: invalid start byte"),
    ]
    for target, reason in cases:
        for command in ("curvature", "invariants"):
            assert run_cli([command, target], capsys) == (2, "", f"error: {target}: {reason}\n")
    # and without a traceback from a fresh process
    proc = run_module(["curvature", str(tmp_path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {tmp_path}: cannot read: Is a directory\n")


@pytest.mark.parametrize(
    "grid, message",
    [
        ("-5x3", "must be non-negative"),
        ("3x-1", "must be non-negative"),
        ("100000x100000", "more than 1000000 interior points"),
        ("1003x1003", "more than 1000000 interior points"),
    ],
)
def test_grid_size_checked_before_sampling(grid, message, capsys):
    code, out, err = run_cli(["curvature", "sphere", f"--grid={grid}"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_config_grid_size_checked_before_sampling(tmp_path, capsys):
    cfg = tmp_path / "huge.surface"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "u*v"]\ndomain = [0, 1, 0, 1]\n'
        "grid = [100000, 100000]\n"
    )
    code, _, err = run_cli(["invariants", str(cfg)], capsys)
    assert code == 2
    assert "more than 1000000 interior points" in err


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
        ["invariants", "torus", "--grid", "4x4", "--tolerance=0"], capsys
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
    gauss = cli.gauss_rows
    monkeypatch.setattr(cli, "gauss_rows", lambda *a: (gauss(*a)[0] * math.nan, *gauss(*a)[1:]))
    code, _, err = run_cli(["curvature", "sphere", "--grid", "3x3", "--compare"], capsys)
    assert code == 1
    assert "comparison failure" in err


def test_compare_fails_closed_on_nan_residual(capsys, monkeypatch):
    real = cli.zmap_rows

    def nan_trace(*args):
        res = real(*args)
        return {**res, "z_trace": res["z_trace"] * math.nan}

    monkeypatch.setattr(cli, "zmap_rows", nan_trace)
    code, out, err = run_cli(["curvature", "torus", "--grid", "3x3", "--compare"], capsys)
    assert code == 1
    assert "comparison failure" in err
    _, (row,) = parse_csv(out)
    assert math.isnan(row["res_ztrace"])
    assert abs(row["K_full"] - row["K_oracle"]) <= 1e-8 * max(1.0, abs(row["K_oracle"]))


def test_compare_negative_tolerance_is_usage_error(capsys):
    code, out, err = run_cli(
        ["curvature", "sphere", "--grid", "3x3", "--compare", "--tolerance=-1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--tolerance must be non-negative, got -1.0" in err


def test_invariants_negative_tolerance_is_usage_error(capsys):
    code, out, err = run_cli(
        ["invariants", "sphere", "--grid", "3x3", "--tolerance=-1e-12"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--tolerance must be non-negative, got -1e-12" in err


def test_invariants_fail_closed_on_nan_residual(capsys, monkeypatch):
    real = cli.mean_rows
    calls = []

    def nan_on_second_call(*args):
        calls.append(None)
        h, *fails = real(*args)
        return (h * math.nan if len(calls) == 2 else h, *fails)

    monkeypatch.setattr(cli, "mean_rows", nan_on_second_call)
    code, out, _ = run_cli(["invariants", "sphere", "--grid", "3x3"], capsys)
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("rho_independence"))
    assert "nan" in row and "FAIL" in row
    assert "FAIL" not in out.replace(row, "")


# --- console entry point -----------------------------------------------------


def run_python(args):
    """Run this interpreter on the pbcurv this process imports, installed or not."""
    src = str(Path(pbcurv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(args):
    """Run `python -m pbcurv.cli`, as run_python does."""
    return run_python(["-m", "pbcurv.cli", *args])


def run_captured(args):
    """(exit code, stdout, stderr) of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_reuses_one_parser_and_no_flag_leaks():
    calls = [
        ["curvature", "torus", "--no-such-flag"],
        ["curvature", "torus", "--grid", "3x3", "--compare", "--tolerance", "1e-3"],
        ["curvature", "torus", "--grid", "3x3", "--compare"],
        ["invariants", "sphere", "--grid", "3x3"],
        ["curvature", "torus", "--grid", "3x3", "--format", "json"],
    ]
    fresh = []
    for args in calls:
        cli._parser.cache_clear()
        fresh.append(run_captured(args))
    parser = cli._parser()
    assert [run_captured(args) for args in calls] == fresh
    assert cli._parser() is parser
    assert fresh[0][0] == 2 and "unrecognized arguments: --no-such-flag" in fresh[0][2]
    assert [code for code, _, _ in fresh[1:]] == [0, 0, 0, 0]
    assert json.loads(fresh[4][1])["surface"] == "torus"


def test_load_spec_parses_each_file_text_once(tmp_path):
    cfg, twin, broken = tmp_path / "memo.surface", tmp_path / "twin.surface", tmp_path / "broken.surface"
    cfg.write_text(_SPHERE_CONFIG)
    first = load_spec(str(cfg))
    assert load_spec(str(cfg)) is first
    # an edited file is parsed again, and the old spec keeps its values
    cfg.write_text(_SPHERE_CONFIG + "grid = [5, 5]\n")
    edited = load_spec(str(cfg))
    assert edited is not first
    assert (edited.grid, first.grid) == ((5, 5), (8, 8))
    # the default name comes from the path, so equal texts at two paths are two specs
    twin.write_text(cfg.read_text())
    assert load_spec(str(twin)) is not edited
    assert (load_spec(str(twin)).name, load_spec(str(cfg)).name) == ("twin", "memo")
    # a file that does not parse raises on every call, and is parsed every time
    broken.write_text(_SPHERE_CONFIG.replace("nu = 0", "nu = 4"))
    misses = surfaces._file_spec.cache_info().misses
    for _ in range(3):
        with pytest.raises(ConfigError, match="nu must lie in"):
            load_spec(str(broken))
    assert surfaces._file_spec.cache_info().misses == misses + 3


def test_main_on_a_rewritten_config_prints_what_fresh_processes_print(tmp_path):
    cfg = tmp_path / "rewritten.surface"
    texts = [
        _SPHERE_CONFIG,
        'name = "scaled"\n' + _SPHERE_CONFIG.replace('["sin', '["2*sin').replace(', "cos', ', "2*cos'),
        _SPHERE_CONFIG + "excluded_margins = 0.1\n",
        _SPHERE_CONFIG.replace("m = 3", "m = 4"),
        _SPHERE_CONFIG,
    ]
    args = ["curvature", str(cfg), "--grid", "4x4", "--format", "json"]
    inproc, fresh = [], []
    for text in texts:
        cfg.write_text(text)
        inproc.append(run_captured(args))
        proc = run_module(args)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert inproc == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
    names = [json.loads(out)["surface"] for _, out, _ in fresh[:3]]
    assert names == ["rewritten", "scaled", "rewritten"]
    assert fresh[1][1] != fresh[0][1] == fresh[4][1] != fresh[2][1]


def test_closed_stdout_exits_one_without_a_traceback():
    # `pbcurv curvature torus --grid 60x60 | head -1`: the reader leaves early
    src = str(Path(pbcurv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pbcurv.cli", "curvature", "torus", "--grid", "60x60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"u,v,status,K_full")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read().decode()
    assert "Traceback" not in err
    assert err == ""


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
    # at unit size g_vv / g_uu is about 1e-388, below the float range
    assert "induced metric is singular: det g = 0.0" in proc.stderr


def test_non_finite_metric_exit_three_or_skipped(tmp_path):
    cfg = tmp_path / "steep.surface"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "exp(800*u)"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    proc = run_module(["curvature", str(cfg), "--grid", "3x3"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("geometric error:")
    assert "induced metric is singular: det g = 0.0" in proc.stderr
    assert "Warning" not in proc.stderr

    proc = run_module(["curvature", str(cfg), "--grid", "3x3", "--skip-degenerate"])
    assert proc.returncode == 0
    _, (row,) = parse_csv(proc.stdout)
    assert row["status"].startswith("skipped: induced metric is singular: det g = 0.0")
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "coord, fn", [("cosh(2000*u)", "cosh"), ("exp(exp(exp(exp(10*u))))", "exp")]
)
def test_jet_overflow_exit_three(coord, fn, tmp_path):
    cfg = tmp_path / "overflow.surface"
    cfg.write_text(
        f'm = 3\nnu = 0\ncoords = ["u", "v", "{coord}"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    proc = run_module(["curvature", str(cfg), "--grid", "3x3"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"{fn} overflows the float range" in proc.stderr


@pytest.mark.parametrize(
    ("coord", "message"),
    [("exp(700)*exp(700)*u", "mul overflows at value inf"), ("1/(u^-300)^2", "mul overflows")],
    ids=["exp(700)*exp(700)*u", "1/(u^-300)^2"],
)
def test_jet_overflow_prints_no_numpy_warning(coord, message, tmp_path):
    cfg = tmp_path / "overflow.surface"
    cfg.write_text(
        f'm = 3\nnu = 0\ncoords = ["u", "v", "{coord}"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    proc = run_module(["curvature", str(cfg), "--grid", "3x3"])
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert line.startswith("geometric error:")
    assert message in line


TINY_SPHERE = natural_sphere("1e-160")


@pytest.mark.parametrize(
    "args",
    [["curvature"], ["curvature", "--rho", "unit"], ["curvature", "--compare"], ["invariants"]],
    ids=["curvature", "unit", "compare", "invariants"],
)
def test_non_finite_curvature_exit_three_or_skipped(args, tmp_path, capsys):
    # K = 1e320 leaves the float range at radius 1e-160; the identities,
    # checked on the normalised point, hold
    cfg = tmp_path / "big.surface"
    cfg.write_text(TINY_SPHERE)
    argv = [args[0], str(cfg), "--grid", "3x3", *args[1:]]
    code, out, err = run_cli(argv, capsys)
    if args[0] == "invariants":
        assert code == 0, err
        return
    assert code == 3
    assert out == ""
    assert err == (
        "geometric error: at (u, v) = (1.55, 3.0500000000000003): "
        "Gauss curvature K is not finite\n"
    )
    code, out, err = run_cli(argv + ["--skip-degenerate"], capsys)
    compare = "--compare" in args
    assert code == (1 if compare else 0)
    assert err == ("comparison failure: no point was compared\n" if compare else "")
    _, (row,) = parse_csv(out)
    assert row["status"] == "skipped: Gauss curvature K is not finite"


def test_sqrt_of_a_tiny_value_exit_three(tmp_path, capsys):
    # sqrt(a) has a'' = -a^-1.5 / 4: root * a underflowed to 0 and raised ZeroDivisionError
    cfg = tmp_path / "tiny.surface"
    cfg.write_text('m = 3\nnu = 0\ncoords = ["u", "v", "sqrt(u*1e-300)"]\ndomain = [0.1, 1, 0.1, 1]\n')
    for extra in ([], ["--compare"]):
        code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3", *extra], capsys)
        assert code == 3
        assert out == ""
        assert "sqrt overflows in its Hessian" in err


def test_jet_derivative_overflow_names_the_derivative(tmp_path, capsys):
    # the value 1.65e-156 is finite; the Hessian of the product is not
    cfg = tmp_path / "overflow.surface"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "1/(u^-300)^2"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3"], capsys)
    assert code == 3
    assert out == ""
    assert "mul overflows in its Hessian at value 1.6504930371952425e-156" in err
    assert "undefined" not in err


def _graph_config(tmp_path, coord, name="graph"):
    """The graph (u, v, coord) over [0.1, 1]^2, whose 4x4 grid starts at (0.4, 0.4)."""
    cfg = tmp_path / f"{name}.surface"
    cfg.write_text(
        f'm = 3\nnu = 0\ncoords = ["u", "v", "{coord}"]\n'
        "domain = [0.1, 1, 0.1, 1]\ngrid = [4, 4]\n"
    )
    return str(cfg)


@pytest.mark.parametrize(
    ("coord", "fault"),
    [("ln(u - 0.5) + sqrt(v - 0.5)", "ln"), ("sqrt(v - 0.5)*ln(u - 0.5)", "sqrt")],
)
@pytest.mark.parametrize("extra", [[], ["--compare"]], ids=["plain", "compare"])
def test_two_faults_at_one_point_name_the_leftmost(coord, fault, extra, tmp_path, capsys):
    # both operands leave their domain at (0.4, 0.4); the error names the one read first
    code, out, err = run_cli(["curvature", _graph_config(tmp_path, coord), *extra], capsys)
    assert (code, out) == (3, "")
    assert err == (
        f"geometric error: at (u, v) = (0.4, 0.4): {fault} is undefined at value "
        "-0.09999999999999998 (expression offset 0)\n"
    )


def test_equal_coordinates_report_their_own_offsets(tmp_path, capsys):
    # the two ASTs compare equal (equality ignores offsets), and each run
    # of one process reports its own
    for spaces in (0, 3):
        cfg = _graph_config(tmp_path, " " * spaces + "ln(u - 0.5)", f"spaces{spaces}")
        code, out, err = run_cli(["curvature", cfg], capsys)
        assert (code, out) == (3, "")
        assert err.endswith(f"-0.09999999999999998 (expression offset {spaces})\n")


def test_each_parsed_root_compiles_once(tmp_path, capsys, monkeypatch):
    compiled = _count_calls(monkeypatch, exprlang, "compile_tape")
    batched = _count_calls(monkeypatch, cli, "eval_tape")
    evaluated = _count_calls(monkeypatch, classical, "eval_jet")
    cfg = _graph_config(tmp_path, "sin(u)*cos(v)")
    code, _, err = run_cli(["curvature", cfg, "--grid", "6x6", "--compare"], capsys)
    assert (code, err) == (0, "")
    # one compile of the 3 coordinates, then one walk of their tape for the
    # chunk of 16 points, and none point by point
    assert [len(exprs) for (exprs,) in compiled] == [3]
    assert [len(u) for _, u, _ in batched] == [16]
    assert len(evaluated) == 0


_IMPORT_COMPILES = """
import sys
calls = []

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "compile_tape" and code.co_filename.endswith("exprlang.py"):
        calls.append(1)

sys.setprofile(profile)
import pbcurv.cli
sys.setprofile(None)
print(len(calls))
"""


def test_one_compile_per_tape_owner(tmp_path, capsys, monkeypatch):
    # importing the catalog and the CLI's own densities compiles nothing
    proc = run_python(["-c", _IMPORT_COMPILES])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    compiled = _count_calls(monkeypatch, exprlang, "compile_tape")
    batched = _count_calls(monkeypatch, cli, "eval_tape")
    coords = _count_calls(monkeypatch, classical, "eval_jet")
    densities = _count_calls(monkeypatch, poisson, "eval_jet")
    # the 5x3 grid's middle row, u = 0.55, is flagged by the batch and recomputed per point
    grid = ["--grid", "5x3", "--skip-degenerate"]
    code, out, err = run_cli(["curvature", _graph_config(tmp_path, "1/(u - 0.55)"), *grid], capsys)
    assert (code, err) == (0, "")
    assert [row["status"][:8] for row in parse_csv(out)[1]] == ["ok", "skipped:", "ok"]
    assert [len(exprs) for (exprs,) in compiled] == [3]
    assert (len(batched), len(coords), len(densities)) == (1, 1, 0)
    assert coords[0][0] is batched[0][0]  # the recomputed row walks the batch's tape
    # an expr: density is one more tape, walked by both layouts
    for calls in (compiled, batched, coords):
        calls.clear()
    rho = ["--rho", "expr:1/(u - 0.55)"]
    code, out, err = run_cli(["curvature", _graph_config(tmp_path, "u*v"), *grid, *rho], capsys)
    assert (code, err) == (0, "")
    assert [row["status"][:8] for row in parse_csv(out)[1]] == ["ok", "skipped:", "ok"]
    assert [len(exprs) for (exprs,) in compiled] == [3, 1]
    assert (len(batched), len(coords), len(densities)) == (2, 1, 1)
    assert coords[0][0] is batched[0][0] and densities[0][0] is batched[1][0]


def test_a_config_density_compiles_on_the_first_request_only(tmp_path, capsys, monkeypatch):
    # the spec keeps its parsed rho, as it keeps coord_asts, so the density
    # tape compiles with the coordinates' and never again
    cfg = tmp_path / "rho.surface"
    cfg.write_text(
        'm = 3\nnu = 0\ncoords = ["u", "v", "u*v"]\ndomain = [0.1, 1, 0.1, 1]\n'
        'rho = "expr:1 + 0.3*sin(u)"\n'
    )
    compiled = _count_calls(monkeypatch, exprlang, "compile_tape")
    counts = []
    for _ in range(4):
        before = len(compiled)
        assert run_cli(["curvature", str(cfg), "--grid", "4x4"], capsys)[0] == 0
        counts.append(len(compiled) - before)
    assert counts == [2, 0, 0, 0]


@pytest.mark.parametrize(
    "coord",
    [
        "+".join(["u"] * 5000),
        "(" * 3000 + "u" + ")" * 3000,
        "sin(" * 2000 + "u" + ")" * 2000,
    ],
    ids=["long-sum", "nested-parens", "nested-calls"],
)
def test_deep_expression_exit_two_names_the_limit(coord, tmp_path):
    cfg = tmp_path / "deep.surface"
    cfg.write_text(
        f'm = 3\nnu = 0\ncoords = ["u", "v", "{coord}"]\ndomain = [0.1, 1, 0.1, 1]\n'
    )
    proc = run_module(["curvature", str(cfg), "--grid", "3x3"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"nested more than {MAX_DEPTH} levels deep" in proc.stderr


@pytest.mark.parametrize(
    ("coord", "message"),
    [
        ("(u+2)^1e300", "pow overflows the float range (expression offset 5)"),
        ("u^-1e300", "pow overflows the float range (expression offset 1)"),
    ],
    ids=["(u+2)^1e300", "u^-1e300"],
)
def test_huge_exponent_exit_three_with_one_message_in_every_command(coord, message, tmp_path, capsys):
    # the integer rule once turned the exponent into a 300-digit int, which
    # failed to convert back to a float in plain curvature's batch
    cfg = tmp_path / "huge.surface"
    cfg.write_text(f'm = 3\nnu = 0\ncoords = ["u", "v", "{coord}"]\ndomain = [0.1, 1, 0.1, 1]\n')
    expected = f"geometric error: at (u, v) = (0.55, 0.55): {message}\n"
    for args in (["curvature"], ["curvature", "--compare"], ["invariants"]):
        code, out, err = run_cli([args[0], str(cfg), "--grid", "3x3", *args[1:]], capsys)
        assert (code, out, err) == (3, "", expected), args
    code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3", "--skip-degenerate"], capsys)
    assert (code, err) == (0, "")
    _, (row,) = parse_csv(out)
    assert row["status"] == f"skipped: {message}"


def test_huge_exponent_on_a_base_below_one_gives_a_plane(tmp_path, capsys):
    # u^1e300 and both its derivatives underflow to 0 on [0.1, 1]; c*(c-1) = inf
    # times that 0 once made the Hessian NaN, and every command exited 3
    cfg = tmp_path / "huge.surface"
    cfg.write_text('m = 3\nnu = 0\ncoords = ["u", "v", "u^1e300"]\ndomain = [0.1, 1, 0.1, 1]\n')
    for extra in ([], ["--compare"], ["--skip-degenerate"]):
        code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3", *extra], capsys)
        assert (code, err) == (0, ""), extra
        _, (row,) = parse_csv(out)
        assert row["status"] == "ok"
        assert [row[k] for k in ("K_full", "H_full_1", "H_full_2", "H_full_3")] == [0.0] * 4
    code, out, err = run_cli(["invariants", str(cfg), "--grid", "3x3"], capsys)
    assert (code, err) == (0, "")


def test_complex_constant_exponent_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "complex.surface"
    cfg.write_text('m = 3\nnu = 0\ncoords = ["u", "v", "u^((-8)^(1/3))"]\ndomain = [0.1, 1, 0.1, 1]\n')
    code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3"], capsys)
    assert (code, out) == (2, "")
    assert "constant exponent is not a real number" in err


@pytest.mark.parametrize(
    ("expr", "message"),
    [
        ("u^(1e300*1e300)", "constant exponent is outside the float range (at offset 8)"),
        ("u^(1e300*1e300-1e300*1e300)", "constant exponent is outside the float range (at offset 8)"),
        ("u^2^1e300", "constant exponent is outside the float range (at offset 3)"),
        ("u^(0^-1)", "division by zero in constant exponent (at offset 4)"),
    ],
)
def test_folded_exponent_outside_the_float_range_is_a_usage_error(expr, message, tmp_path, capsys):
    # these folded to inf or NaN and exited 3, raised OverflowError or
    # ZeroDivisionError, and printed a traceback on the --rho path
    cfg = tmp_path / "fold.surface"
    cfg.write_text(f'm = 3\nnu = 0\ncoords = ["u", "v", "{expr}"]\ndomain = [0.1, 1, 0.1, 1]\n')
    code, out, err = run_cli(["curvature", str(cfg), "--grid", "3x3"], capsys)
    assert (code, out, err) == (2, "", f"error: bad coordinate expression: {message}\n")
    for command in ("curvature", "invariants"):
        code, out, err = run_cli([command, "sphere", "--grid", "3x3", "--rho", f"expr:{expr}"], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), command


# --- fuzzing the command line -------------------------------------------------

# Configs and --rho densities from the expression grammar, with constants
# and exponents at the edges of the float range.  Each runs in-process
# through every command.
_FUZZ_LEAVES = st.sampled_from(["u", "v", "0", "1e-300", "1e300", "700", "2", "0.3"])
_FUZZ_CONSTANTS = st.sampled_from(["2", "3", "-1", "-2", "0", "0.5", "-0.5", "1e300", "-1e300", "1e19"])
_FUZZ_EXPONENTS = st.one_of(
    _FUZZ_CONSTANTS,
    st.builds("({}{}{})".format, _FUZZ_CONSTANTS, st.sampled_from("+-*/"), _FUZZ_CONSTANTS),
    st.builds("{}^{}".format, _FUZZ_CONSTANTS, _FUZZ_CONSTANTS),
)


def _fuzz_extend(child):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), child),
        st.builds("({}{}{})".format, child, st.sampled_from("+-*/"), child),
        st.builds("({})^{}".format, child, _FUZZ_EXPONENTS),
        st.builds("-{}".format, child),
    )


_FUZZ_EXPR = st.recursive(_FUZZ_LEAVES, _fuzz_extend, max_leaves=8)
_FUZZ_COMMANDS = (
    ["curvature"], ["curvature", "--skip-degenerate"], ["curvature", "--compare"], ["invariants"],
    ["curvature", "--skip-degenerate", "--compare"],
    ["curvature", "--skip-degenerate", "--format", "json"],
    ["curvature", "--skip-degenerate", "--compare", "--format", "json"],
)


def _assert_csv_json_agree(csv_text, json_text):
    """The same rows, statuses and bits; a skipped row's empty CSV cells are absent in JSON."""
    _, rows = parse_csv(csv_text)
    points = json.loads(json_text)["points"]
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        cells = {key: x for key, x in row.items() if x != ""}
        assert cells.keys() == point.keys(), (row, point)
        assert cells.pop("status") == point["status"]
        assert all(x.hex() == float(point[key]).hex() for key, x in cells.items()), (row, point)


@settings(max_examples=500)
@given(
    coords=st.tuples(st.just("u") | _FUZZ_EXPR, st.just("v") | _FUZZ_EXPR, _FUZZ_EXPR),
    domain=st.sampled_from(["[0.1, 1, 0.1, 1]", "[-1, 1, -2, 2]"]),
    rho=st.none() | _FUZZ_EXPR,
)
def test_fuzzed_configs_exit_with_a_documented_code(coords, domain, rho, tmp_path_factory):
    cfg = tmp_path_factory.mktemp("fuzz") / "fuzz.surface"
    quoted = ", ".join(f'"{c}"' for c in coords)
    cfg.write_text(f"m = 3\nnu = 0\ncoords = [{quoted}]\ndomain = {domain}\ngrid = [4, 4]\n")
    density = [] if rho is None else ["--rho", f"expr:{rho}"]
    runs = {}
    for args in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([args[0], str(cfg), *args[1:], *density])
        runs[tuple(args)] = code, out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), (args, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: "), (args, line)
        # exit 1 comes only from a gate: the --compare comparison, or an invariants row
        if code == 1:
            assert args[0] == "invariants" or "--compare" in args, args
        if "--compare" in args and code == 1:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("comparison failure"), (args, line)
        if args[0] == "invariants" and code in (0, 1):
            rows = [line.split() for line in out.getvalue().splitlines()[3:]]
            assert len(rows) == len(cli._IDENTITY_TOLERANCES)
            assert all(row[-1] == "FAIL" for row in rows if math.isnan(float(row[1]))), rows
            assert any(row[-1] == "FAIL" for row in rows) == (code == 1), rows
        if "json" in args and code in (0, 1):
            text = out.getvalue()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", args
        if args[0] == "curvature" and "json" not in args and code in (0, 1):
            _, rows = parse_csv(out.getvalue())
            for row in rows:
                if row["status"] == "ok":
                    assert all(math.isfinite(x) for x in row.values() if isinstance(x, float)), row
    # the CSV and JSON writers agree, with and without --compare
    for args in (["--skip-degenerate"], ["--skip-degenerate", "--compare"]):
        (code, csv_out, err), (json_code, json_out, json_err) = (
            runs[("curvature", *args, *fmt)] for fmt in ([], ["--format", "json"])
        )
        assert (json_code, json_err) == (code, err), args
        if code in (0, 1):
            _assert_csv_json_agree(csv_out, json_out)
