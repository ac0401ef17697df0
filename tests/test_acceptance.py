"""End-to-end checks of the package guarantees, one test per guarantee.

Every test sweeps the surface catalog, measures the worst residual of
the property it guards, and prints a single PASS/FAIL line with the
numbers next to their tolerances (run with -s to see the lines for
passing tests).
"""

import itertools
import math

import numpy as np

from helpers import (
    eps_contract_reduced,
    eval_value,
    gauss_naive,
    mean_naive,
    midpoint,
    rel,
    vec_rel,
    z_projector,
)
from pbcurv import cli, tensor
from pbcurv.classical import (
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    metric_rows,
    normal_projector,
    second_fundamental,
)
from pbcurv.exprlang import eval_jet, eval_tape, parse_expression
from pbcurv.poisson import (
    DensityChoice,
    build_bracket_table,
    build_z,
    double_trace_check,
    gauss_full_from_table,
    mean_full_from_table,
    normal_frame_from_z,
    p2_trace,
    ps_traces,
    s_operator,
    s2_traces,
    weingarten_frame,
    zmap_invariants,
)
from pbcurv.surfaces import CATALOG, grid_points, load_spec
from pbcurv.tensor import eps_contract_naive


def _specs():
    return [load_spec(name) for name in CATALOG]


def _points(spec, grid):
    return [(u, v) for _, _, u, v in grid_points(spec, grid)]


def _setup(spec, at, rho="sqrt_abs_g"):
    emb = evaluate_embedding(spec.signature, spec.coord_asts, at)
    met = induced_metric(emb)
    table = build_bracket_table(emb, DensityChoice.from_string(rho))
    return emb, met, table


def _verdict(label, checks):
    """checks: (name, worst observed, tolerance) triples; one line out."""
    ok = all(worst <= tol for _, worst, tol in checks)
    detail = ", ".join(f"{name} {worst:.2e} (tol {tol:.0e})" for name, worst, tol in checks)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# Closed-form Gauss curvatures, confirmed against the classical oracle
# inside the tests before the bracket path is held to them.
CLOSED_FORM_K = {
    "sphere": lambda u, v: 1.0,
    "sphere-r2": lambda u, v: 0.25,
    "hyperbolic-plane": lambda u, v: -1.0,
    "de-sitter": lambda u, v: 1.0,
    "helicoid": lambda u, v: -1.0 / (1.0 + u * u) ** 2,
    "flat-torus-r4": lambda u, v: 0.0,
}


def test_bracket_curvature_matches_classical_oracle():
    worst_k = worst_h = worst_anchor_oracle = worst_anchor_full = 0.0
    n_points = 0
    for spec in _specs():
        anchor = CLOSED_FORM_K.get(spec.name)
        for at in _points(spec, (8, 8)):
            emb, met, table = _setup(spec, at)
            k_full = gauss_full_from_table(table, emb, met)
            h_full = mean_full_from_table(table, emb, met)
            frame = classical_normal_frame(emb, met)
            h2 = second_fundamental(emb, frame)
            k_oracle = classical_gauss(met, frame, h2)
            h_oracle = classical_mean(met, frame, h2)
            worst_k = max(worst_k, abs(k_full - k_oracle) / max(1.0, abs(k_oracle)))
            worst_h = max(
                worst_h,
                float(np.linalg.norm(h_full - h_oracle))
                / max(1.0, float(np.linalg.norm(h_oracle))),
            )
            n_points += 1
            if anchor is not None:
                expected = anchor(*at)
                worst_anchor_oracle = max(worst_anchor_oracle, rel(k_oracle, expected))
                worst_anchor_full = max(worst_anchor_full, rel(k_full, expected))
            if spec.name == "catenoid":
                worst_anchor_oracle = max(
                    worst_anchor_oracle, float(np.linalg.norm(h_oracle))
                )
                worst_anchor_full = max(worst_anchor_full, float(np.linalg.norm(h_full)))
            if spec.name == "flat-torus-r4":
                gb = spec.signature.gbar
                worst_anchor_oracle = max(
                    worst_anchor_oracle, rel(float(h_oracle @ (gb * h_oracle)), 0.5)
                )
                worst_anchor_full = max(
                    worst_anchor_full, rel(float(h_full @ (gb * h_full)), 0.5)
                )
    _verdict(
        f"bracket curvature vs classical oracle ({n_points} points)",
        [
            ("K", worst_k, 1e-8),
            ("H", worst_h, 1e-8),
            ("anchors via oracle", worst_anchor_oracle, 1e-10),
            ("anchors via brackets", worst_anchor_full, 1e-8),
        ],
    )


DOUBLE_TRACE_PAIRS = (("u", "sin(v) + 2"), ("exp(u)", "cosh(v)"), ("u*v", "1 + v^2"))


def test_trace_and_projector_identities_hold():
    pairs = [(parse_expression(f), parse_expression(h)) for f, h in DOUBLE_TRACE_PAIRS]
    worst = {"P2": 0.0, "S2": 0.0, "PS": 0.0, "Z": 0.0, "Zsum": 0.0, "2tr": 0.0}
    n_points = 0
    for spec in _specs():
        sig = spec.signature
        for at in _points(spec, (6, 6)):
            emb, met, table = _setup(spec, at)
            rv = table.rho.value
            n_points += 1
            worst["P2"] = max(
                worst["P2"], rel(p2_trace(table, sig), -2.0 * met.det_g / rv**2)
            )
            frame = classical_normal_frame(emb, met)
            h2 = second_fundamental(emb, frame)
            ff = weingarten_frame(emb, met, frame, h2)
            dets = h2[:, 0, 0] * h2[:, 1, 1] - h2[:, 0, 1] * h2[:, 1, 0]
            s_op = s_operator(table, emb, ff)
            s2 = s2_traces(sig, s_op)
            ps = ps_traces(table, sig, s_op)
            weingarten = np.einsum("ab,Aab->A", met.ginv, h2)
            for A in range(sig.codim):
                worst["S2"] = max(worst["S2"], rel(s2[A], -2.0 * dets[A] / rv**2))
                worst["PS"] = max(
                    worst["PS"], rel(ps[A], met.det_g * weingarten[A] / rv**2)
                )
            zd = build_z(table, emb, met)
            zres = zmap_invariants(zd, table, emb, met)
            worst["Zsum"] = max(worst["Zsum"], zres.pop("z_sum"))
            worst["Z"] = max(worst["Z"], max(zres.values()))
            for fa, ha in pairs:
                worst["2tr"] = max(
                    worst["2tr"],
                    double_trace_check(table, emb, ff, 0, sig.codim - 1, fa, ha),
                )
    _verdict(
        f"trace and projector identities ({n_points} points)",
        [(name, value, 1e-9) for name, value in worst.items()],
    )


def test_z_frame_spans_normal_space_with_correct_signs():
    worst_proj = 0.0
    worst_rank = worst_multiset = worst_count = 0.0
    n_points = 0
    for spec in _specs():
        sig = spec.signature
        p = sig.codim
        for at in _points(spec, (6, 6)):
            emb, met, table = _setup(spec, at)
            zd = build_z(table, emb, met)
            if np.linalg.matrix_rank(z_projector(zd, sig)) != p:
                worst_rank = 1.0
            zframe = normal_frame_from_z(zd, sig)
            classical = classical_normal_frame(emb, met)
            proj_z = normal_projector(sig, zframe)
            proj_c = normal_projector(sig, classical)
            worst_proj = max(
                worst_proj,
                float(np.abs(proj_z - proj_c).max()) / max(1.0, float(np.abs(proj_c).max())),
            )
            if sorted(zframe.sigma.tolist()) != sorted(classical.sigma.tolist()):
                worst_multiset = 1.0
            if int(np.sum(zframe.sigma == -1)) != sig.nu - met.ind_g:
                worst_count = 1.0
            n_points += 1
    _verdict(
        f"bracket-built normal frame ({n_points} points)",
        [
            ("image rank mismatches", worst_rank, 0.0),
            ("projector", worst_proj, 1e-8),
            ("sign multiset mismatches", worst_multiset, 0.0),
            ("timelike count mismatches", worst_count, 0.0),
        ],
    )


DENSITIES = ("unit", "sqrt_abs_g", "expr:1 + 0.3*sin(u)")


def test_curvature_independent_of_density_choice():
    worst = 0.0
    n_points = 0
    for spec in _specs():
        for at in _points(spec, (6, 6)):
            results = []
            for rho in DENSITIES:
                emb, met, table = _setup(spec, at, rho)
                results.append(
                    (
                        gauss_full_from_table(table, emb, met),
                        mean_full_from_table(table, emb, met),
                    )
                )
            for (ka, ha), (kb, hb) in itertools.combinations(results, 2):
                worst = max(worst, rel(ka, kb), vec_rel(ha, hb))
            n_points += 1
    _verdict(
        f"density independence across {DENSITIES} ({n_points} points)",
        [("K and H spread", worst, 1e-7)],
    )


def test_contraction_paths_agree(monkeypatch):
    mismatches = 0
    for m in (3, 4, 5, 6):
        triples = list(itertools.product(range(1, m + 1), repeat=3))
        for jkl in triples:
            for irn in triples:
                if eps_contract_naive(jkl, irn, m) != eps_contract_reduced(jkl, irn, m):
                    mismatches += 1
    worst_assembled = 0.0
    for spec in _specs():
        emb, met, table = _setup(spec, midpoint(spec))
        k_n = gauss_naive(table, emb, met)
        k_r = gauss_full_from_table(table, emb, met)
        h_n = mean_naive(table, emb, met)
        h_r = mean_full_from_table(table, emb, met)
        worst_assembled = max(worst_assembled, rel(k_n, k_r), vec_rel(h_n, h_r))

    # the closed form must never touch the dense m-indexed symbol table
    def _boom(m):
        raise AssertionError("dense permutation-symbol table consulted")

    monkeypatch.setattr(tensor, "eps_table", _boom)
    table_free = 0.0
    assert eps_contract_reduced((1, 2, 3), (1, 2, 3), 12) == math.factorial(9)
    spec = load_spec("r5-product")
    emb, met, table = _setup(spec, midpoint(spec))
    gauss_full_from_table(table, emb, met)
    mean_full_from_table(table, emb, met)
    try:
        gauss_naive(table, emb, met)
        table_free = 1.0  # the naive path must consult the table
    except AssertionError:
        pass
    monkeypatch.undo()
    _verdict(
        "contraction path equivalence",
        [
            ("exact mismatches (m<=6, exhaustive)", float(mismatches), 0.0),
            ("assembled K and H", worst_assembled, 1e-12),
            ("reduced-path table accesses", table_free, 0.0),
        ],
    )


EUCLIDEAN_ANCHORS = {
    "sphere": lambda u, v: 1.0,
    "torus": lambda u, v: math.cos(u) / (2.0 + math.cos(u)),
    "catenoid": lambda u, v: -1.0 / math.cosh(u) ** 4,
    "helicoid": lambda u, v: -1.0 / (1.0 + u * u) ** 2,
}


def test_euclidean_anchors_reproduce_textbook_values():
    worst_oracle = worst_full = 0.0
    n_points = 0
    for name, formula in EUCLIDEAN_ANCHORS.items():
        spec = load_spec(name)
        assert spec.nu == 0
        for at in _points(spec, (8, 8)):
            emb, met, table = _setup(spec, at)
            expected = formula(*at)
            frame = classical_normal_frame(emb, met)
            k_oracle = classical_gauss(met, frame, second_fundamental(emb, frame))
            k_full = gauss_full_from_table(table, emb, met)
            worst_oracle = max(worst_oracle, rel(k_oracle, expected))
            worst_full = max(worst_full, rel(k_full, expected))
            n_points += 1
    _verdict(
        f"Euclidean textbook anchors ({n_points} points)",
        [
            ("closed form via oracle", worst_oracle, 1e-10),
            ("closed form via brackets", worst_full, 1e-8),
        ],
    )


def test_jets_match_finite_differences():
    rng = np.random.default_rng(20240817)
    step = 1e-5
    worst_grad = worst_hess = 0.0
    n_checks = 0
    for spec in _specs():
        u0, u1, v0, v1 = spec.domain
        for ast in spec.coord_asts:
            for _ in range(25):
                u = rng.uniform(u0, u1)
                v = rng.uniform(v0, v1)
                jet = eval_jet(ast.tape, (u, v))[0]

                def f(uu, vv):
                    return eval_value(ast, (uu, vv))

                fd_grad = np.array(
                    [
                        (f(u + step, v) - f(u - step, v)) / (2 * step),
                        (f(u, v + step) - f(u, v - step)) / (2 * step),
                    ]
                )
                fd_hess = np.array(
                    [
                        [
                            (f(u + step, v) - 2 * jet.value + f(u - step, v)) / step**2,
                            (
                                f(u + step, v + step)
                                - f(u + step, v - step)
                                - f(u - step, v + step)
                                + f(u - step, v - step)
                            )
                            / (4 * step**2),
                        ],
                        [
                            0.0,
                            (f(u, v + step) - 2 * jet.value + f(u, v - step)) / step**2,
                        ],
                    ]
                )
                fd_hess[1, 0] = fd_hess[0, 1]
                for a in range(2):
                    worst_grad = max(
                        worst_grad,
                        abs(fd_grad[a] - jet.grad[a]) / max(1.0, abs(jet.grad[a])),
                    )
                    for b in range(2):
                        worst_hess = max(
                            worst_hess,
                            abs(fd_hess[a, b] - jet.hess[a, b])
                            / max(1.0, abs(jet.hess[a, b])),
                        )
                n_checks += 1
    _verdict(
        f"jet derivatives vs finite differences ({n_checks} samples)",
        [("gradients", worst_grad, 1e-6), ("Hessians", worst_hess, 1e-4)],
    )


# The integral of K dA over the whole domain: 0 on the closed torus by
# Gauss-Bonnet, closed forms on the bands.  (expected, periodic in u,
# periodic in v); the trapezoid rule converges spectrally in a periodic
# direction, Gauss-Legendre in the others.
TOTAL_CURVATURE = {
    "torus": (0.0, True, True),
    "sphere": (4.0 * math.pi * math.cos(0.2), False, True),
    "sphere-r2": (4.0 * math.pi * math.cos(0.2), False, True),
    "catenoid": (-4.0 * math.pi * math.tanh(1.0), False, True),
    "hyperbolic-plane": (-2.0 * math.pi * (math.cosh(1.5) - math.cosh(0.2)), False, True),
    "de-sitter": (4.0 * math.pi * math.sinh(1.0), False, True),
}


def _quadrature(lo, hi, periodic, n=16):
    """Nodes and weights on [lo, hi]: the trapezoid rule if periodic, else Gauss-Legendre."""
    if periodic:
        return lo + (hi - lo) * np.arange(n) / n, np.full(n, (hi - lo) / n)
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def _total_curvature_error(name, plant=lambda k: k):
    """|sum of K dA - expected| / sum of |K dA|, K from the batched plain level at 16x16 nodes.

    dA = sqrt|det g| comes from the coordinates' jets and metric_rows,
    not from the bracket path; plant alters K before it is integrated.
    """
    spec = load_spec(name)
    expected, *periodic = TOTAL_CURVATURE[name]
    u0, u1, v0, v1 = spec.domain
    (us, wu), (vs, wv) = _quadrature(u0, u1, periodic[0]), _quadrature(v0, v1, periodic[1])
    u, v = (x.ravel() for x in np.meshgrid(us, vs, indexing="ij"))
    cols, bad = cli._chunk(spec, spec.density(), u, v, "plain")
    assert not bad.any(), name
    _, grads, _, _ = eval_tape(spec.coord_asts.tape, u, v)
    _, det_g, _, _ = metric_rows(spec.signature.gbar, grads.transpose(1, 2, 0))
    terms = np.outer(wu, wv).ravel() * plant(cols["K_full"]) * np.sqrt(np.abs(det_g))
    return abs(terms.sum() - expected) / np.abs(terms).sum()


def test_total_curvature_matches_gauss_bonnet_and_closed_forms():
    _verdict(
        "total curvature through the batched plain level (16x16 nodes)",
        [(name, _total_curvature_error(name), 1e-12) for name in TOTAL_CURVATURE],
    )
    # a K with its sign flipped, or off by one part in 1e9, fails the same check
    assert _total_curvature_error("de-sitter", np.negative) > 1e-12
    assert _total_curvature_error("sphere", lambda k: k * (1.0 + 1e-9)) > 1e-12


def _minkowski_error(name, plant=lambda h: h, n=32):
    """|sum of (1 + gbar(x, H)) dA| / (sum of |dA| + |gbar(x, H) dA|), periodic trapezoid rule.

    On a closed surface Delta_g x = 2H, so the integral of (1 + gbar(x, H)) dA
    vanishes (Minkowski); it pins the factor 1/2 and the sign of H.  H comes
    from the plain-level columns of cli._records at n x n nodes, x and
    dA = sqrt|det g| from the coordinates' jets and metric_rows; plant alters
    H before it is integrated.
    """
    spec = load_spec(name)
    u0, u1, v0, v1 = spec.domain
    (us, wu), (vs, wv) = _quadrature(u0, u1, True, n), _quadrature(v0, v1, True, n)
    points = [(i, j, u, v) for i, u in enumerate(us.tolist()) for j, v in enumerate(vs.tolist())]
    table = cli._records(spec, spec.density(), points, "plain")
    assert set(table["status"]) == {"ok"}, name
    h = plant(np.array([table[f"H_full_{i}"] for i in range(1, spec.m + 1)]))
    x, grads, _, _ = eval_tape(spec.coord_asts.tape, np.array(table["u"]), np.array(table["v"]))
    _, det_g, _, _ = metric_rows(spec.signature.gbar, grads.transpose(1, 2, 0))
    da = np.outer(wu, wv).ravel() * np.sqrt(np.abs(det_g))
    xh = da * (spec.signature.gbar @ (x * h))
    return abs(da.sum() + xh.sum()) / (da.sum() + np.abs(xh).sum())


def test_minkowski_formula_on_closed_surfaces():
    closed = ("torus", "flat-torus-r4")
    _verdict(
        "Minkowski formula through the batched plain level (32x32 nodes)",
        [(name, _minkowski_error(name), 1e-12) for name in closed],
    )
    # an H off by one part in 1e9, twice as large, or with its sign flipped fails the same check
    for plant in (lambda h: h * (1.0 + 1e-9), lambda h: 2.0 * h, np.negative):
        assert all(_minkowski_error(name, plant) > 1e-12 for name in closed)
