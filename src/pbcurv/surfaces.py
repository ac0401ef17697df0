"""Surface descriptions: the built-in catalog and the config file format.

A surface is m coordinate expressions in u and v, an ambient signature,
a parameter rectangle, and sampling controls.  Config files use one
`key = value` pair per line; values are numbers, barewords, quoted
strings, or bracketed comma-separated lists of those.  `#` starts a
comment.  Keys match the SurfaceSpec fields exactly.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PbcurvError, UsageError
from .exprlang import Exprs, parse_expression
from .poisson import DensityChoice
from .tensor import AmbientSignature

# Most interior grid points one command samples; checked before any allocation.
MAX_GRID_POINTS = 10**6


@dataclass(eq=False)
class SurfaceSpec:
    """Everything needed to sample one surface."""

    name: str
    m: int
    nu: int
    coords: list[str]
    domain: tuple[float, float, float, float]  # u_min, u_max, v_min, v_max
    grid: tuple[int, int] = (8, 8)
    rho: str = "sqrt_abs_g"
    excluded_margins: float = 0.0
    coord_asts: Exprs = field(init=False)
    _density: DensityChoice = field(init=False, repr=False)  # rho, parsed once

    def __post_init__(self) -> None:
        if self.m != len(self.coords):
            raise ConfigError(
                f"m = {self.m} but {len(self.coords)} coordinate expressions given"
            )
        if self.m < 3:
            raise ConfigError(f"ambient dimension must be at least 3, got {self.m}")
        if not 0 <= self.nu <= self.m:
            raise ConfigError(f"nu must lie in [0, {self.m}], got {self.nu}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ConfigError(f"grid counts must be at least 2, got {self.grid}")
        if not 0.0 <= self.excluded_margins < 0.5:
            raise ConfigError(
                f"excluded_margins must lie in [0, 0.5), got {self.excluded_margins}"
            )
        u0, u1, v0, v1 = self.domain
        if not (u0 < u1 and v0 < v1):
            raise ConfigError(f"empty parameter domain {self.domain}")
        try:
            self.coord_asts = Exprs(parse_expression(c) for c in self.coords)
        except PbcurvError as exc:
            raise ConfigError(f"bad coordinate expression: {exc}") from exc
        try:
            self._density = DensityChoice.from_string(self.rho)
        except PbcurvError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def signature(self) -> AmbientSignature:
        return AmbientSignature(self.m, self.nu)

    def density(self) -> DensityChoice:
        return self._density


def grid_points(
    spec: SurfaceSpec, grid: tuple[int, int] | None = None
) -> list[tuple[int, int, float, float]]:
    """Interior sample points (i, j, u, v) in row-major order.

    The full grid spans the domain inclusively after insetting each side
    by excluded_margins times the span; only points with indices
    1..n-2 in both directions are returned.  Negative counts and grids
    with more than MAX_GRID_POINTS interior points raise UsageError.
    """
    nu_, nv_ = grid if grid is not None else spec.grid
    if nu_ < 0 or nv_ < 0:
        raise UsageError(f"grid counts must be non-negative, got {nu_}x{nv_}")
    if max(nu_ - 2, 0) * max(nv_ - 2, 0) > MAX_GRID_POINTS:
        raise UsageError(
            f"grid {nu_}x{nv_} has more than {MAX_GRID_POINTS} interior points"
        )
    u0, u1, v0, v1 = spec.domain
    f = spec.excluded_margins
    du, dv = u1 - u0, v1 - v0
    us = np.linspace(u0 + f * du, u1 - f * du, nu_).tolist()
    vs = np.linspace(v0 + f * dv, v1 - f * dv, nv_).tolist()
    return [
        (i, j, us[i], vs[j])
        for i in range(1, nu_ - 1)
        for j in range(1, nv_ - 1)
    ]


def _entry(name: str, m: int, nu: int, coords: list[str], domain) -> SurfaceSpec:
    return SurfaceSpec(name=name, m=m, nu=nu, coords=coords, domain=domain)


CATALOG: dict[str, SurfaceSpec] = {
    s.name: s
    for s in [
        _entry("plane", 3, 0, ["u", "v", "0"], (-1.0, 1.0, -1.0, 1.0)),
        _entry(
            "sphere",
            3,
            0,
            ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)"],
            (0.2, math.pi - 0.2, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "sphere-r2",
            3,
            0,
            ["2*sin(u)*cos(v)", "2*sin(u)*sin(v)", "2*cos(u)"],
            (0.2, math.pi - 0.2, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "cylinder",
            3,
            0,
            ["cos(u)", "sin(u)", "v"],
            (0.0, 2.0 * math.pi, -1.0, 1.0),
        ),
        _entry(
            "catenoid",
            3,
            0,
            ["cosh(u)*cos(v)", "cosh(u)*sin(v)", "u"],
            (-1.0, 1.0, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "helicoid",
            3,
            0,
            ["u*cos(v)", "u*sin(v)", "v"],
            (0.3, 1.7, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "torus",
            3,
            0,
            ["(2 + cos(u))*cos(v)", "(2 + cos(u))*sin(v)", "sin(u)"],
            (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "hyperbolic-plane",
            3,
            1,
            ["cosh(u)", "sinh(u)*cos(v)", "sinh(u)*sin(v)"],
            (0.2, 1.5, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "de-sitter",
            3,
            1,
            ["sinh(u)", "cosh(u)*cos(v)", "cosh(u)*sin(v)"],
            (-1.0, 1.0, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "flat-torus-r4",
            4,
            0,
            ["cos(u)", "sin(u)", "cos(v)", "sin(v)"],
            (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi),
        ),
        _entry(
            "graph-surface-r4",
            4,
            0,
            ["u", "v", "u*v", "u^2 - v^2"],
            (-0.8, 0.8, -0.8, 0.8),
        ),
        _entry(
            "lorentz-graph-r41",
            4,
            1,
            ["0.3*sin(u)*cos(v)", "u", "v", "0.2*u*v"],
            (-1.0, 1.0, -1.0, 1.0),
        ),
        _entry(
            "r5-product",
            5,
            0,
            ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)", "cos(v)", "sin(v)"],
            (0.2, math.pi - 0.2, 0.0, 2.0 * math.pi),
        ),
    ]
}


# --- Config files --------------------------------------------------------

_REQUIRED_KEYS = ("m", "nu", "coords", "domain")
_KNOWN_KEYS = _REQUIRED_KEYS + ("name", "grid", "rho", "excluded_margins")


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigError(f"line {lineno}: empty value")
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise ConfigError(f"line {lineno}: unterminated string {text!r}")
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text  # bareword


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated list {text!r}")
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(part, lineno) for part in _split_list(body, lineno)]
    return _parse_scalar(text, lineno)


def _split_list(body: str, lineno: int) -> list[str]:
    parts = []
    depth = 0
    in_string = False
    current = []
    for ch in body:
        if ch == '"':
            in_string = not in_string
            current.append(ch)
        elif ch == "," and not in_string and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            if ch == "[" and not in_string:
                depth += 1
            elif ch == "]" and not in_string:
                depth -= 1
            current.append(ch)
    if in_string:
        raise ConfigError(f"line {lineno}: unterminated string in list")
    parts.append("".join(current))
    return parts


def parse_config(text: str, source: str = "<config>") -> SurfaceSpec:
    """Parse a surface description file."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(rhs, lineno)
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"{source}: missing required key {key!r}")

    def _as_float_list(key: str, expected: int) -> list[float]:
        raw = values[key]
        if not isinstance(raw, list) or len(raw) != expected:
            raise ConfigError(f"{source}: {key} must be a list of {expected} numbers")
        try:
            return [float(x) for x in raw]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: {key} must contain numbers") from exc

    coords_raw = values["coords"]
    if not isinstance(coords_raw, list) or not all(
        isinstance(c, str) for c in coords_raw
    ):
        raise ConfigError(f"{source}: coords must be a list of quoted expressions")
    name = values.get("name", os.path.splitext(os.path.basename(source))[0])
    grid_raw = values.get("grid", [8, 8])
    if not isinstance(grid_raw, list) or len(grid_raw) != 2:
        raise ConfigError(f"{source}: grid must be a list of two integers")
    domain = _as_float_list("domain", 4)
    margins = values.get("excluded_margins", 0.0)
    if not isinstance(margins, (int, float)) or isinstance(margins, bool):
        raise ConfigError(f"{source}: excluded_margins must be a number")
    rho = values.get("rho", "sqrt_abs_g")
    if not isinstance(rho, str):
        raise ConfigError(f"{source}: rho must be a string")
    try:
        mm = int(values["m"])  # type: ignore[arg-type]
        nn = int(values["nu"])  # type: ignore[arg-type]
        grid = (int(grid_raw[0]), int(grid_raw[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: m, nu and grid entries must be integers") from exc
    return SurfaceSpec(
        name=str(name),
        m=mm,
        nu=nn,
        coords=list(coords_raw),
        domain=(domain[0], domain[1], domain[2], domain[3]),
        grid=grid,
        rho=rho,
        excluded_margins=float(margins),
    )


# one parsed, tape-compiled spec per recent (text, path), as re keeps its patterns
_file_spec = functools.lru_cache(maxsize=64)(parse_config)


def load_spec(target: str) -> SurfaceSpec:
    """Resolve a catalog name or read a config file.

    The file is read on every call and parsed once per (path, text) per
    process; like a catalog entry, the spec returned is shared.
    """
    if target in CATALOG:
        return CATALOG[target]
    if os.path.exists(target):
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{target}: cannot read: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{target}: not UTF-8 text: {exc.reason}") from exc
        return _file_spec(text, source=target)
    raise ConfigError(
        f"{target!r} is neither a catalog surface nor a readable file; "
        f"catalog: {', '.join(sorted(CATALOG))}"
    )
