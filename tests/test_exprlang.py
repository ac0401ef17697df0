import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcurv.errors import EvalError, LexError, ParseError
from pbcurv.exprlang import (
    MAX_DEPTH,
    BinOp,
    Call,
    Constant,
    Exprs,
    Neg,
    PowConst,
    Variable,
    compile_tape,
    eval_jet,
    eval_tape,
    parse_expression,
    tokenize,
)
from pbcurv.jets import FUNCTIONS
from pbcurv.surfaces import CATALOG

from helpers import eval_value, walk_jet


def test_tokenize_basic():
    kinds = [(t.kind, t.text) for t in tokenize("sin(u)*v")]
    assert kinds == [
        ("ident", "sin"),
        ("lparen", "("),
        ("ident", "u"),
        ("rparen", ")"),
        ("star", "*"),
        ("ident", "v"),
    ]


def test_tokenize_number_with_exponent():
    toks = tokenize("1.5e-2")
    assert len(toks) == 1
    assert toks[0].kind == "number"
    assert float(toks[0].text) == 0.015


def test_tokenize_positions_increase():
    toks = tokenize("cos(u) + 2.5*v")
    positions = [t.pos for t in toks]
    assert positions == sorted(positions)
    assert all(
        later > earlier for earlier, later in zip(positions, positions[1:])
    )


def test_lex_error_offset():
    with pytest.raises(LexError) as err:
        tokenize("u @ v")
    assert err.value.position == 2


def test_precedence():
    ast = parse_expression("u + v * u")
    assert ast == BinOp("+", Variable("u"), BinOp("*", Variable("v"), Variable("u")))


def test_unary_minus_binds_below_power():
    ast = parse_expression("-u^2")
    assert ast == Neg(PowConst(Variable("u"), 2.0))
    assert eval_value(ast, (3.0, 0.0)) == -9.0


def test_power_right_associative():
    assert eval_value(parse_expression("2 ^ 3 ^ 2"), (0.0, 0.0)) == 512.0


def test_power_requires_constant_exponent():
    with pytest.raises(ParseError):
        parse_expression("u ^ v")
    with pytest.raises(ParseError):
        parse_expression("2 ^ sin(v)")
    # constant arithmetic in the exponent folds at parse time
    ast = parse_expression("u^(3-1)")
    assert ast == PowConst(Variable("u"), 2.0)


def test_unknown_identifier_rejected_at_parse():
    with pytest.raises(ParseError) as err:
        parse_expression("w + 1")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_expression("u + sinc(v)")


@pytest.mark.parametrize(
    "make",
    [
        lambda n: "+".join(["u"] * n),
        lambda n: "(" * (n - 1) + "u" + ")" * (n - 1),
        lambda n: "sin(" * (n - 1) + "u" + ")" * (n - 1),
        lambda n: "-" * (n - 1) + "u",
    ],
    ids=["sum", "parens", "calls", "negations"],
)
def test_depth_limit_is_exact(make):
    # MAX_DEPTH levels parse and evaluate; one more is a ParseError naming the limit
    assert eval_jet(parse_expression(make(MAX_DEPTH)).tape, (0.3, 0.4))[0].value != 0.0
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels"):
        parse_expression(make(MAX_DEPTH + 1))


def test_out_of_range_literal_rejected_at_parse():
    with pytest.raises(ParseError) as err:
        parse_expression("2 + 1e400*u")
    assert err.value.position == 4
    assert str(err.value) == "number 1e400 is outside the float range (at offset 4)"


def test_parse_error_positions_in_range():
    for src in ["sin(u", "u +", "()", "u u", "sin(u, v)", "1 + * 2"]:
        with pytest.raises(ParseError) as err:
            parse_expression(src)
        assert 0 <= err.value.position <= len(src)


def test_predefined_constants():
    assert eval_value(parse_expression("pi"), (0.0, 0.0)) == math.pi
    assert eval_value(parse_expression("2*e"), (0.0, 0.0)) == 2.0 * math.e
    assert parse_expression("pi") == Constant(math.pi)


def test_eval_jet_product():
    (j,) = eval_jet(parse_expression("u*v").tape, (2.0, 3.0))
    assert j.value == 6.0
    assert np.array_equal(j.grad, [3.0, 2.0])
    assert np.array_equal(j.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_eval_jet_cosh():
    (j,) = eval_jet(parse_expression("cosh(u)").tape, (0.0, 0.0))
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0, 0.0])
    assert np.array_equal(j.hess, [[1.0, 0.0], [0.0, 0.0]])


def test_eval_domain_error_carries_position():
    ast = parse_expression("1 + sqrt(u)")
    with pytest.raises(EvalError) as err:
        eval_jet(ast.tape, (-1.0, 0.0))
    assert err.value.position == 4
    with pytest.raises(EvalError):
        eval_jet(parse_expression("1/u").tape, (0.0, 1.0))


def test_eval_jet_rejects_a_non_ast():
    # compiling the tree meets the bad operand
    with pytest.raises(TypeError, match="not an AST node"):
        eval_jet(BinOp("+", Variable("u"), "v").tape, (0.0, 1.0))


def test_eval_value_matches_eval_jet():
    rng = np.random.default_rng(4)
    sources = [c for spec in CATALOG.values() for c in spec.coords]
    sources += ["1 + 0.3*sin(u)", "exp(u)*cosh(v) - tan(0.3*u)/2", "u^2 - v^3"]
    for src in sources:
        ast = parse_expression(src)
        for _ in range(5):
            at = tuple(rng.uniform(-1.2, 1.2, size=2))
            plain = eval_value(ast, at)
            jet = eval_jet(ast.tape, at)[0].value
            assert jet == pytest.approx(plain, rel=1e-15, abs=1e-15)


def test_call_structure():
    ast = parse_expression("sin(u + v)")
    assert ast == Call("sin", BinOp("+", Variable("u"), Variable("v")))


@pytest.mark.parametrize(
    "source, tree",
    [
        ("-(u + v)^2", Neg(PowConst(BinOp("+", Variable("u"), Variable("v")), 2.0))),
        (
            "1/(2 + cos(u))",
            BinOp("/", Constant(1.0), BinOp("+", Constant(2.0), Call("cos", Variable("u")))),
        ),
        ("u^(-2)", PowConst(Variable("u"), -2.0)),
        ("-sin(u)*-v", BinOp("*", Neg(Call("sin", Variable("u"))), Neg(Variable("v")))),
    ],
)
def test_grouping_and_signs_parse_to_their_tree(source, tree):
    assert parse_expression(source) == tree


# --- the compiled tape against the recursive walk ---------------------------

# Constants and coordinates of moderate size: the batch and a point differ
# in the last place of a function value, and at coordinates like 1e-105
# cos(v^0.5) cancels 1e104-sized Hessian terms, which magnifies that to
# any size.  The property holds where the jets are well conditioned.
# Each node gets its own offset, so an error names which node failed.
_POS = st.integers(0, 999)
_LEAVES = st.one_of(
    st.builds(Variable, st.sampled_from(["u", "v"]), _POS),
    st.builds(Constant, st.integers(-300, 300).map(lambda k: k / 100), _POS),
)
_EXPONENTS = st.integers(-3, 4).map(float) | st.sampled_from([0.5, 1.5, -0.5, 1.0 / 3.0])
_COORDINATE = st.floats(0.1, 1.5) | st.floats(-1.5, -0.1)
_POINTS = st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1, max_size=6)


def _grammar(arithmetic_only: bool):
    """ASTs from the expression grammar: + - * and unary minus, or all of it."""

    def extend(child):
        ops = "+-*" if arithmetic_only else "+-*/"
        nodes = [
            st.builds(BinOp, st.sampled_from(list(ops)), child, child, _POS),
            st.builds(Neg, child, _POS),
        ]
        if not arithmetic_only:
            nodes.append(st.builds(PowConst, child, _EXPONENTS, _POS))
            nodes.append(st.builds(Call, st.sampled_from(FUNCTIONS), child, _POS))
        return st.one_of(nodes)

    return st.recursive(_LEAVES, extend, max_leaves=10)


def _roots(arithmetic_only: bool):
    """1-3 roots that share a subtree on purpose.

    Each root is the shared tree (the same object, or an equal copy with its
    own offset), another tree, or the two joined by an operator.
    """
    grammar = _grammar(arithmetic_only)
    ops = list("+-*" if arithmetic_only else "+-*/")

    @st.composite
    def roots(draw):
        shared = draw(grammar)

        def root():
            how = draw(st.sampled_from(["shared", "copy", "other", "left", "right"]))
            if how == "shared":
                return shared
            if how == "copy":
                return replace(shared, pos=draw(_POS))
            other = draw(grammar)
            if how == "other":
                return other
            pair = (shared, other) if how == "left" else (other, shared)
            return BinOp(draw(st.sampled_from(ops)), *pair, draw(_POS))

        return [root() for _ in range(draw(st.integers(1, 3)))]

    return roots()


def _tape_rows(tape, points):
    return eval_tape(tape, np.array([p[0] for p in points]), np.array([p[1] for p in points]))


def _walk_or_error(ast, at):
    """The oracle's jet, or its EvalError as (message, offset)."""
    try:
        with np.errstate(all="ignore"):  # jets.finite checks every node
            return walk_jet(ast, at)
    except EvalError as exc:
        return str(exc), exc.position


def _same_bits(jet, value, grad, hess):
    return (
        np.float64(jet.value).tobytes() == np.float64(value).tobytes()
        and np.asarray(jet.grad).tobytes() == np.asarray(grad).tobytes()
        and np.asarray(jet.hess).tobytes() == np.asarray(hess).tobytes()
    )


def _check_point_layout(tape, at, refs):
    """eval_jet gives each root the oracle's bits, or the first failing root's error."""
    errors = [ref for ref in refs if isinstance(ref, tuple)]
    if errors:
        with pytest.raises(EvalError) as err:
            eval_jet(tape, at)
        assert (str(err.value), err.value.position) == errors[0], at
    else:
        outs = eval_jet(tape, at)
        assert len(outs) == len(refs)
        for jet, ref in zip(outs, refs):
            assert _same_bits(jet, ref.value, ref.grad, ref.hess), at


@settings(max_examples=400)
@given(roots=_roots(arithmetic_only=False), points=_POINTS)
def test_tape_flags_every_eval_jet_error_and_agrees_elsewhere(roots, points):
    tape = Exprs(roots).tape
    values, grads, hessians, bad = _tape_rows(tape, points)
    for n, at in enumerate(points):
        refs = [_walk_or_error(root, at) for root in roots]
        _check_point_layout(tape, at, refs)
        assert bad[n] == any(isinstance(ref, tuple) for ref in refs), (roots, at)
        for j, ref in enumerate(refs):
            if isinstance(ref, tuple):
                continue
            rows = ((values[j, n], ref.value), (grads[j, n], ref.grad), (hessians[j, n], ref.hess))
            for ours, want in rows:
                err = np.abs(np.asarray(ours) - want)
                assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want))), (roots, at, ours, want)


@settings(max_examples=300)
@given(roots=_roots(arithmetic_only=True), points=_POINTS)
def test_tape_gives_eval_jet_bits_on_sums_and_products(roots, points):
    tape = Exprs(roots).tape
    values, grads, hessians, bad = _tape_rows(tape, points)
    for n, at in enumerate(points):
        refs = [_walk_or_error(root, at) for root in roots]
        _check_point_layout(tape, at, refs)
        assert bad[n] == any(isinstance(ref, tuple) for ref in refs), (roots, at)
        for j, ref in enumerate(refs):
            if not isinstance(ref, tuple):
                assert _same_bits(ref, values[j, n], grads[j, n], hessians[j, n]), (roots, at)


@pytest.mark.parametrize(
    "source",
    [
        "exp(-(1e200*1e200))*u",
        "u + tanh(1e200*1e200)",
        "u/(1e200*1e200)",
        "u + (1e200*1e200)^-1",
        "u + (1e200*1e200)^0",
    ],
)
def test_tape_flags_an_overflow_that_a_saturating_op_hides(source):
    # the product overflows with zero derivatives, and the op after it
    # returns a finite value: only the check at that op's operand sees it
    tape = parse_expression(source).tape
    with pytest.raises(EvalError, match="mul overflows"):
        eval_jet(tape, (0.5, 0.25))
    values, _, _, bad = _tape_rows(tape, [(0.5, 0.25), (1.5, -2.0)])
    assert bad.tolist() == [True, True]
    assert np.isfinite(values).all()


def test_tape_shares_equal_subtrees():
    ring = "(2 + cos(u))"
    asts = [parse_expression(f"{ring}*cos(v)"), parse_expression(f"{ring}*sin(v)")]
    tape = compile_tape(asts)
    # left operand first: 2, u, cos(u), 2 + cos(u), v, cos(v), product, sin(v), product
    assert [op for op, _, _ in tape.code] == ["const", "u", "cos", "+", "v", "cos", "*", "sin", "*"]
    # a shared slot keeps the offset of its first occurrence
    assert tape.pos == (1, 9, 5, 3, 17, 13, 12, 13, 12)
