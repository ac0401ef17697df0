"""Traced replay of a workload through the public functions of each layer.

The replay calls the pbcurv layer functions in the order `pbcurv.cli`
calls them for `curvature` (with and without --compare) and
`invariants`, and records a span around each call: name, start, end,
parent and request.  Spans stay in memory and are written out when the
run ends.  Nested layers are reached by wrapping, from this file only,
the module globals the outer layer calls (`eval_jet` in classical and
poisson, `nested_bracket_tensor` and `eps_contract_*` in poisson); the
wrappers are removed when the replay ends.

A function that no longer exists or no longer takes these arguments
makes its stage absent: the stage, and every stage that needs its
result, is reported as absent with a reason instead of crashing.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Stage name -> (module, attribute).  Stages whose attribute is None are
# compositions written in this file from public calls.
STAGES = {
    "surfaces.load_spec": ("surfaces", "load_spec"),
    "surfaces.grid_points": ("surfaces", "grid_points"),
    "exprlang.parse_expression": ("exprlang", "parse_expression"),
    "exprlang.eval_jet": ("exprlang", "eval_jet"),
    "classical.evaluate_embedding": ("classical", "evaluate_embedding"),
    "classical.induced_metric": ("classical", "induced_metric"),
    "classical.classical_normal_frame": ("classical", "classical_normal_frame"),
    "classical.oracle": (None, None),
    "poisson.build_bracket_table": ("poisson", "build_bracket_table"),
    "poisson.nested_bracket_tensor": ("poisson", "nested_bracket_tensor"),
    "poisson.gauss_full_from_table": ("poisson", "gauss_full_from_table"),
    "poisson.mean_full_from_table": ("poisson", "mean_full_from_table"),
    "poisson.frame_with_derivatives": ("poisson", "frame_with_derivatives"),
    "poisson.build_z": ("poisson", "build_z"),
    "poisson.zmap_invariants": ("poisson", "zmap_invariants"),
    "poisson.normal_frame_from_z": ("poisson", "normal_frame_from_z"),
    "poisson.identity_traces": (None, None),
}

# Stages that run once or more per sampled point.
POINT_STAGES = [
    name for name in STAGES
    if not name.startswith("surfaces.") and name != "exprlang.parse_expression"
]

# Top-level stages of a point, grouped for the share table.
GROUPS = {
    "embedding+metric": ("classical.evaluate_embedding", "classical.induced_metric"),
    "brackets": ("poisson.build_bracket_table",),
    "K/H from table": ("poisson.gauss_full_from_table", "poisson.mean_full_from_table"),
    "FD frame": ("poisson.frame_with_derivatives",),
    "Z projector": ("poisson.build_z", "poisson.zmap_invariants", "poisson.normal_frame_from_z"),
    "identity traces": ("poisson.identity_traces",),
    "oracle": ("classical.oracle",),
}

RHO_DENSITIES = ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)")
DOUBLE_TRACE_PAIRS = (("u", "sin(v) + 2"), ("exp(u)", "cosh(v)"), ("u*v", "1 + v^2"))


class Missing:
    """Result of a stage that could not run; stages fed one are skipped."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


class Tracer:
    """Spans and counts recorded around calls into pbcurv layers."""

    def __init__(self, mods, enabled: bool) -> None:
        self.mods = mods
        self.enabled = enabled
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, request]
        self._stack: list[int] = []
        self.request: int | None = None
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}

    def fn(self, name: str):
        mod, attr = STAGES[name]
        found = getattr(getattr(self.mods, mod), attr, None)
        return found if found is not None else Missing(f"pbcurv.{mod} has no {attr}")

    def call(self, name: str, fn, *args):
        """Run one stage; returns Missing instead of raising when it is absent."""
        if isinstance(fn, Missing):
            self.absent.setdefault(name, fn.reason)
            return fn
        for arg in args:
            if isinstance(arg, Missing):
                self.absent.setdefault(name, f"needs an absent input: {arg.reason}")
                return arg
        span = None
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), name, perf_counter_ns(), 0, parent, self.request]
            self.spans.append(span)
            self._stack.append(span[0])
        try:
            return fn(*args)
        except TypeError as exc:
            self.errors[name] += 1
            if not _accepts(fn, args):
                reason = f"{name} no longer accepts these arguments: {exc}"
                self.absent.setdefault(name, reason)
                return Missing(reason)
            raise
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            if span is not None:
                span[3] = perf_counter_ns()
                self._stack.pop()

    def stage(self, name: str, *args):
        return self.call(name, self.fn(name), *args)


def _accepts(fn, args) -> bool:
    try:
        inspect.signature(fn).bind(*args)
    except TypeError:
        return False
    except ValueError:  # no signature available
        return True
    return True


@contextlib.contextmanager
def wrapped(module, attr: str, make):
    """Replace module.attr by make(original) for the duration of the block."""
    original = getattr(module, attr, None)
    if original is None:
        yield False
        return
    setattr(module, attr, make(original))
    try:
        yield True
    finally:
        setattr(module, attr, original)


@contextlib.contextmanager
def nested_spans(tr: Tracer):
    """Spans for layers the outer layers call through module globals."""
    m = tr.mods

    def traced(name):
        return lambda original: (lambda *a: tr.call(name, original, *a))

    with contextlib.ExitStack() as stack:
        stack.enter_context(wrapped(m.classical, "eval_jet", traced("exprlang.eval_jet")))
        stack.enter_context(wrapped(m.poisson, "eval_jet", traced("exprlang.eval_jet")))
        stack.enter_context(
            wrapped(m.poisson, "nested_bracket_tensor", traced("poisson.nested_bracket_tensor"))
        )
        yield


@contextlib.contextmanager
def counted_contractions(tr: Tracer):
    """Count calls of eps_contract_* as the poisson module makes them."""

    def counting(original):
        def wrapper(*a):
            tr.counts["tensor.contract"] += 1
            return original(*a)

        return wrapper

    with wrapped(tr.mods.poisson, "eps_contract_reduced", counting) as a, \
            wrapped(tr.mods.poisson, "eps_contract_naive", counting) as b:
        if not (a or b):
            tr.absent.setdefault("tensor.contract", "pbcurv.poisson has no eps_contract_*")
        yield


# --- compositions of public calls ------------------------------------------

def _oracle(mods):
    c = mods.classical

    def oracle(emb, met, frame):
        h = c.second_fundamental(emb, frame)
        return c.classical_gauss(met, frame, h), c.classical_mean(met, frame, h)

    return oracle


def _second_fundamental(mods):
    return lambda emb, frame: mods.classical.second_fundamental(emb, frame)


def _compare_traces(mods):
    p = mods.poisson

    def traces(table, emb, met, ff):
        p.p2_trace(table, emb.sig)
        p.s2_traces(emb.sig, p.s_operator(table, emb, ff))
        return p.gauss_via_frame(table, emb, met, ff)

    return traces


def _invariant_traces(mods, pairs):
    p = mods.poisson

    def traces(table, emb, met, ff, h):
        sig = emb.sig
        p.p2_trace(table, sig)
        S = p.s_operator(table, emb, ff)
        p.s2_traces(sig, S)
        p.ps_traces(table, sig, S)
        np.einsum("ab,Aab->A", met.ginv, h)
        for fa, ha in pairs:
            p.double_trace_check(table, emb, ff, 0, sig.codim - 1, fa, ha)

    return traces


def _projectors(mods):
    c = mods.classical

    def projectors(sig, zframe, frame):
        return c.normal_projector(sig, zframe) - c.normal_projector(sig, frame)

    return projectors


def _frame_builder(tr: Tracer, sig, asts):
    """The `build` callable handed to frame_with_derivatives; counts frames."""

    def build(q):
        tr.counts["classical.classical_normal_frame"] += 1
        emb = tr.stage("classical.evaluate_embedding", sig, asts, q)
        met = tr.stage("classical.induced_metric", emb)
        frame = tr.stage("classical.classical_normal_frame", emb, met)
        if isinstance(frame, Missing):
            raise RuntimeError(frame.reason)
        return frame

    return build


def _normal_frame(mods, ff):
    if isinstance(ff, Missing):
        return ff
    return mods.classical.NormalFrame(ff.vectors, ff.sigma)


# --- per-point pipelines, in the order pbcurv.cli runs them ----------------

def _kh(tr, table, emb, met):
    k = tr.stage("poisson.gauss_full_from_table", table, emb, met)
    h = tr.stage("poisson.mean_full_from_table", table, emb, met)
    return k, h


def _build_z(tr, table, emb, met):
    """build_z, recording the largest number of projector rows seen."""
    zd = tr.stage("poisson.build_z", table, emb, met)
    rows = getattr(zd, "indices", None)
    if rows is not None:
        tr.counts["poisson.build_z.rows"] = max(tr.counts["poisson.build_z.rows"], len(rows))
    return zd


def curvature_point(tr: Tracer, spec, rho, at, compare: bool):
    sig, asts = spec.signature, spec.coord_asts
    emb = tr.stage("classical.evaluate_embedding", sig, asts, at)
    met = tr.stage("classical.induced_metric", emb)
    table = tr.stage("poisson.build_bracket_table", emb, rho)
    k, h = _kh(tr, table, emb, met)
    if not compare:
        return k, h
    mods = tr.mods
    ff = tr.stage("poisson.frame_with_derivatives", _frame_builder(tr, sig, asts), at, sig)
    frame = _normal_frame(mods, ff)
    tr.call("classical.oracle", _oracle(mods), emb, met, frame)
    tr.call("poisson.identity_traces", _compare_traces(mods), table, emb, met, ff)
    zd = _build_z(tr, table, emb, met)
    tr.stage("poisson.zmap_invariants", zd, table, emb, met)
    zframe = tr.stage("poisson.normal_frame_from_z", zd, sig)
    tr.call("classical.normal_projector", _projectors(mods), sig, zframe, frame)
    density = mods.poisson.DensityChoice
    alt = density.unit() if rho.kind != "unit" else density.sqrt_abs_g()
    table_alt = tr.stage("poisson.build_bracket_table", emb, alt)
    _kh(tr, table_alt, emb, met)
    tr.stage("poisson.gauss_full_from_table", table, emb, met)
    return k, h


def invariants_point(tr: Tracer, spec, rho, at, densities, pairs):
    sig, asts = spec.signature, spec.coord_asts
    mods = tr.mods
    emb = tr.stage("classical.evaluate_embedding", sig, asts, at)
    met = tr.stage("classical.induced_metric", emb)
    table = tr.stage("poisson.build_bracket_table", emb, rho)
    ff = tr.stage("poisson.frame_with_derivatives", _frame_builder(tr, sig, asts), at, sig)
    frame = _normal_frame(mods, ff)
    h = tr.call("classical.oracle", _second_fundamental(mods), emb, frame)
    tr.call("poisson.identity_traces", _invariant_traces(mods, pairs), table, emb, met, ff, h)
    zd = _build_z(tr, table, emb, met)
    tr.stage("poisson.zmap_invariants", zd, table, emb, met)
    zframe = tr.stage("poisson.normal_frame_from_z", zd, sig)
    tr.call("classical.normal_projector", _projectors(mods), sig, zframe, frame)
    for density in densities:
        t = tr.stage("poisson.build_bracket_table", emb, density)
        _kh(tr, t, emb, met)


def replay(tr: Tracer, workload, config_paths, check) -> tuple[int, list[str]]:
    """Replay every request of the workload.

    check(surface_key, at, K, H) verifies the K/H of each curvature point.
    Returns the points replayed and one message per failed request.
    """
    points = 0
    failures = []
    for index, req in enumerate(workload.requests):
        tr.request = index
        try:
            points += _replay_request(tr, req, config_paths, check)
        except Exception as exc:  # a failed request is counted, not fatal
            failures.append(f"replay of {req.command} {req.surface}: {exc!r}")
    tr.request = None
    return points, failures


def _replay_request(tr: Tracer, req, config_paths, check) -> int:
    spec = tr.stage("surfaces.load_spec", str(config_paths[req.surface]))
    if isinstance(spec, Missing):
        return 0
    rho = spec.density()
    grid = tr.stage("surfaces.grid_points", spec)
    if isinstance(grid, Missing):
        return 0
    if req.command == "invariants":
        density = tr.mods.poisson.DensityChoice
        densities = [density.from_string(s) for s in RHO_DENSITIES]
        pairs = [
            (tr.stage("exprlang.parse_expression", f), tr.stage("exprlang.parse_expression", g))
            for f, g in DOUBLE_TRACE_PAIRS
        ]
    for _, _, u, v in grid:
        at = (u, v)
        if req.command == "curvature":
            k, h = tr.call("replay.point", curvature_point, tr, spec, rho, at,
                           "--compare" in req.flags)
            if not isinstance(k, Missing) and not isinstance(h, Missing):
                check(req.surface, at, k, h)
        else:
            tr.call("replay.point", invariants_point, tr, spec, rho, at, densities, pairs)
    return len(grid)


def stage_totals(spans) -> dict[str, int]:
    """Inclusive nanoseconds per span name."""
    out: Counter = Counter()
    for _, name, start, end, _, _ in spans:
        out[name] += end - start
    return out


def group_shares(spans) -> dict[str, float]:
    """Share of replayed point time taken by each group of top-level stages."""
    point_ids = {s[0] for s in spans if s[1] == "replay.point"}
    total = sum(s[3] - s[2] for s in spans if s[0] in point_ids)
    by_name: Counter = Counter()
    for _, name, start, end, parent, _ in spans:
        if parent in point_ids:
            by_name[name] += end - start
    shares = {g: sum(by_name[n] for n in names) / total for g, names in GROUPS.items()}
    grouped = {n for names in GROUPS.values() for n in names}
    shares["other"] = sum(v for n, v in by_name.items() if n not in grouped) / total
    shares["untraced glue"] = 1.0 - sum(shares.values())
    return shares
