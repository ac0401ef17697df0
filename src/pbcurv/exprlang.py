"""A small expression language for surface coordinates and densities.

Grammar (precedence climbing, loosest to tightest):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | 'u' | 'v' | 'pi' | 'e'
             | FUNC '(' expr ')' | '(' expr ')'

The only variables are u and v.  Functions are the fixed set sin, cos,
tan, sinh, cosh, tanh, exp, ln, sqrt.  '^' requires a constant right
operand (no u or v inside); the exponent subtree is folded to a number
at parse time, so -u^2 parses as -(u^2) and 2^3^2 is 512.  Unknown
identifiers are rejected while parsing, not at evaluation.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jets
from .errors import EvalError, JetDivisionByZero, JetDomainError, LexError, ParseError
from .jets import Jet2

VARIABLES = ("u", "v")
CONSTANTS = {"pi": math.pi, "e": math.e}
# Deepest AST, and parser recursion, that parse accepts; the parser and the dataclass
# __hash__/__eq__ recurse once per level, compile_tape and evaluation do not.
MAX_DEPTH = 200

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SINGLE = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, tracking character offsets."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER.match(source, i)
            assert m is not None
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(source, i)
            assert m is not None
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise LexError(f"unexpected character {ch!r}", i)
        tokens.append(Token(kind, ch, i))
        i += 1
    return tokens


# --- AST ---------------------------------------------------------------

class _Node:
    @cached_property
    def tape(self) -> Tape:
        """The tree this node roots, compiled once per node object (not per equal tree)."""
        return compile_tape([self])


@dataclass(frozen=True)
class Constant(_Node):
    value: float
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Variable(_Node):
    name: str  # "u" or "v"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Neg(_Node):
    child: Ast
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * /
    left: Ast
    right: Ast
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PowConst(_Node):
    base: Ast
    exponent: float
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: Ast
    pos: int = field(compare=False, default=0)


Ast = Constant | Variable | Neg | BinOp | PowConst | Call

_ADD, _MUL, _UNARY, _POW = 1, 2, 3, 4
# How _fold_constant folds each operator of a constant exponent.
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
         "^": operator.pow}
_BINARY_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}


class _Parser:
    def __init__(self, tokens: list[Token], length: int) -> None:
        self.tokens = tokens
        self.i = 0
        self.end = length
        self.open = 0  # parse_expr calls in progress: the parser's own recursion

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.end)
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok is not None else self.end
            raise ParseError(f"expected {what}", pos)
        return self.next()

    def deeper(self, depth: int, pos: int) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression is nested more than {MAX_DEPTH} levels deep", pos)
        return depth + 1

    def parse_expr(self, min_prec: int) -> tuple[Ast, int]:
        """The expression and the depth of its AST."""
        tok = self.peek()
        self.open = self.deeper(self.open, self.end if tok is None else tok.pos)
        lhs, depth = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok is None:
                break
            prec = _BINARY_PREC.get(tok.text) if tok.kind in (
                "plus", "minus", "star", "slash", "caret") else None
            if prec is None or prec < min_prec:
                break
            self.next()
            if tok.kind == "caret":
                rhs, _ = self.parse_expr(_POW)  # right associative
                lhs, rhs_depth = PowConst(lhs, _fold_constant(rhs, tok.pos), tok.pos), 0
            else:
                rhs, rhs_depth = self.parse_expr(prec + 1)
                lhs = BinOp(tok.text, lhs, rhs, tok.pos)
            depth = self.deeper(max(depth, rhs_depth), tok.pos)
        self.open -= 1
        return lhs, depth

    def parse_prefix(self) -> tuple[Ast, int]:
        tok = self.next()
        if tok.kind == "minus":
            child, depth = self.parse_expr(_UNARY)
            return Neg(child, tok.pos), self.deeper(depth, tok.pos)
        if tok.kind == "number":
            value = float(tok.text)
            if math.isinf(value):
                raise ParseError(f"number {tok.text} is outside the float range", tok.pos)
            return Constant(value, tok.pos), 1
        if tok.kind == "lparen":
            inner = self.parse_expr(0)
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name in VARIABLES:
                return Variable(name, tok.pos), 1
            if name in CONSTANTS:
                return Constant(CONSTANTS[name], tok.pos), 1
            if name in jets.FUNCTIONS:
                self.expect("lparen", f"'(' after function {name}")
                arg, depth = self.parse_expr(0)
                nxt = self.peek()
                if nxt is not None and nxt.kind == "comma":
                    raise ParseError(f"{name} takes exactly one argument", nxt.pos)
                self.expect("rparen", "')'")
                return Call(name, arg, tok.pos), self.deeper(depth, tok.pos)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _fold_constant(node: Ast, caret_pos: int) -> float:
    """Reduce an exponent subtree to a finite number; reject variables.

    A folded operation that leaves the float range is a parse error at its
    own offset, as a literal beyond the range is.
    """
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Neg):
        return -_fold_constant(node.child, caret_pos)
    if isinstance(node, BinOp):
        left, right = _fold_constant(node.left, caret_pos), _fold_constant(node.right, caret_pos)
        op, args = node.op, (left, right)
    elif isinstance(node, PowConst):
        op, args = "^", (_fold_constant(node.base, caret_pos), node.exponent)
    else:
        raise ParseError("exponent must be a constant expression", caret_pos)
    try:
        value = _FOLD[op](*args)
    except ZeroDivisionError:  # x/0, or 0 to a negative power
        raise ParseError("division by zero in constant exponent", node.pos) from None
    except OverflowError:  # float ** raises it
        value = math.inf
    if isinstance(value, complex):  # a negative base to a fractional power
        raise ParseError("constant exponent is not a real number", node.pos)
    if math.isinf(value):
        raise ParseError("constant exponent is outside the float range", node.pos)
    return value


def parse(tokens: list[Token], length: int = 0) -> Ast:
    """Parse a token list produced by tokenize."""
    parser = _Parser(tokens, length)
    ast, _ = parser.parse_expr(0)
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(f"unexpected token {leftover.text!r}", leftover.pos)
    return ast


def parse_expression(source: str) -> Ast:
    return parse(tokenize(source), len(source))


# --- Evaluation -----------------------------------------------------------

@dataclass(frozen=True)
class Tape:
    """Expressions compiled into one post-order instruction list.

    code[k] = (op, operand slots, constant) computes slot k, left operand
    first; op is "const", "u", "v", "neg", one of + - * /, "pow", or a
    function name.  Equal subtrees (ASTs compare without positions) share
    one slot, and pos[k] is the offset of the first.  outputs[j] is the slot
    of the j-th expression; dead[k] lists the slots no instruction after k
    reads.  A parsed root keeps its own tape, and an Exprs one tape for all
    its roots; eval_jet walks it at one point, eval_tape at N.
    """

    code: tuple[tuple[str, tuple[int, ...], float], ...]
    pos: tuple[int, ...]
    outputs: tuple[int, ...]
    dead: tuple[tuple[int, ...], ...]


def _decompose(node: Ast) -> tuple[str, tuple[Ast, ...], float]:
    """A node's tape op, its operand subtrees and its constant."""
    if isinstance(node, Constant):
        return "const", (), node.value
    if isinstance(node, Variable):
        return node.name, (), 0.0
    if isinstance(node, Neg):
        return "neg", (node.child,), 0.0
    if isinstance(node, BinOp):
        return node.op, (node.left, node.right), 0.0
    if isinstance(node, PowConst):
        return "pow", (node.base,), node.exponent
    if isinstance(node, Call):
        return node.fn, (node.arg,), 0.0
    raise TypeError(f"not an AST node: {node!r}")


def compile_tape(exprs: Sequence[Ast]) -> Tape:
    """One tape for all of exprs, built without recursion."""
    slots: dict[int, int] = {}  # id(node) -> slot
    # instruction (op, operand slots, constant) -> (slot, offset of its first node):
    # equal subtrees have equal instructions, which hash in O(1) where an AST does not
    first: dict[tuple, tuple[int, int]] = {}
    for root in exprs:
        stack = [(root, None)]  # (node, None) to visit, (node, its parts) to emit
        while stack:
            node, parts = stack.pop()
            if parts is None:
                if id(node) not in slots:
                    parts = _decompose(node)
                    stack.append((node, parts))
                    stack.extend((kid, None) for kid in reversed(parts[1]))  # left on top
                continue
            op, kids, constant = parts
            key = (op, tuple(slots[id(kid)] for kid in kids), constant)
            slots[id(node)] = first.setdefault(key, (len(first), node.pos))[0]
    code = tuple(first)
    outputs = tuple(slots[id(root)] for root in exprs)
    last = {arg: k for k, (_, args, _) in enumerate(code) for arg in args}
    dead = [[] for _ in code]
    for slot, k in last.items():
        if slot not in outputs:
            dead[k].append(slot)
    return Tape(code, tuple(p for _, p in first.values()), outputs, tuple(map(tuple, dead)))


class Exprs(tuple):
    """Parsed roots that share one tape, compiled on first use and kept."""

    @cached_property
    def tape(self) -> Tape:
        return compile_tape(self)


def eval_jet(tape: Tape, at: tuple[float, float]) -> list[Jet2]:
    """The order-2 jets of the tape's expressions at the point `at`, walked with math.

    The first instruction outside its domain, or not finite, raises EvalError at its offset.
    """
    slots: list[Jet2] = []
    with np.errstate(all="ignore"):  # jets.finite checks every instruction
        for (op, args, c), pos in zip(tape.code, tape.pos):
            if op == "const":
                slots.append(Jet2.constant(c))
                continue
            if op in VARIABLES:
                slots.append(Jet2.variable(VARIABLES.index(op) + 1, at))
                continue
            a, b = slots[args[0]], slots[args[1]] if len(args) == 2 else None
            try:
                if jets.outside(op, a, b, c):
                    raise JetDivisionByZero(b.value) if op == "/" else JetDomainError(op, a.value)
                slots.append(jets.finite(op, jets.rule(op, a, b, c, math)))
            except (JetDomainError, JetDivisionByZero) as exc:
                raise EvalError(str(exc), pos) from exc
            except OverflowError as exc:  # math.exp, math.cosh and float ** raise it
                raise EvalError(f"{op} overflows the float range", pos) from exc
    return [slots[k] for k in tape.outputs]


# A batch jet over N points (jets.py's layout, N last); constants and
# variables carry N = 1 and broadcast.
_ZERO_GRAD = np.zeros((2, 1))
_ZERO_HESS = np.zeros((2, 2, 1))
_SEEDS = {"u": np.array([[1.0], [0.0]]), "v": np.array([[0.0], [1.0]])}


def eval_tape(tape: Tape, u: np.ndarray, v: np.ndarray):
    """Jets of the tape's expressions at the N points (u[n], v[n]).

    Returns values (k, N), gradients (k, N, 2) and Hessians (k, N, 2, 2)
    of the k expressions, and a mask of the rows where eval_jet could
    raise: a node outside its domain (jets.outside) or with a non-finite
    value, gradient or Hessian.  Values in those rows are meaningless.
    Each node applies jets.rule with numpy where eval_jet applies it with
    math, so + - * and negation give eval_jet's bits; the functions and
    powers may differ from math in the last place.

    Values and derivatives are checked at the outputs: every node feeds
    an output, and every rule multiplies or adds its operands' values and
    derivatives into its own, so a non-finite entry stays non-finite (inf
    or NaN, as 0 * inf is NaN) up to an output.  The one exception is an
    operand value that a saturating op (_SATURATING) takes back to a
    finite one, and those operands are checked where they are read.
    """
    n = len(u)
    bad = np.zeros(n, dtype=bool)
    slots: list = [None] * len(tape.code)
    with np.errstate(all="ignore"):  # out-of-domain rows are flagged, not warned about
        for k, (op, args, c) in enumerate(tape.code):
            a, b = [slots[arg] for arg in args] + [None] * (2 - len(args))
            if op == "const":
                jet = Jet2(np.full(1, c), _ZERO_GRAD, _ZERO_HESS)
            elif op in _SEEDS:
                jet = Jet2(np.asarray(u if op == "u" else v, dtype=float), _SEEDS[op], _ZERO_HESS)
            else:
                if op in _SATURATING or (op == "pow" and c <= 0.0):
                    bad |= ~np.isfinite((b if op == "/" else a).value)
                jet = jets.rule(op, a, b, c, np)
                outside = jets.outside(op, a, b, c)
                if outside is not False:
                    bad |= outside
            slots[k] = jet
            for slot in tape.dead[k]:
                slots[slot] = None
    outs = [slots[k] for k in tape.outputs]
    values, grads, hessians = (np.empty((len(outs), n, *shape)) for shape in ((), (2,), (2, 2)))
    for out, jet in enumerate(outs):  # assignment broadcasts a constant over the rows
        values[out] = jet.value
        grads[out] = jet.grad.T
        hessians[out] = jet.hess.transpose(2, 0, 1)
    finite = _all(np.isfinite(values), axis=0)
    finite &= _all(np.isfinite(grads.reshape(len(outs), n, -1)), axis=(0, 2))
    finite &= _all(np.isfinite(hessians.reshape(len(outs), n, -1)), axis=(0, 2))
    return values, grads, hessians, bad | ~finite


_all = np.logical_and.reduce
# The ops that can take a non-finite operand value to a finite one: exp(-inf)
# = 0, tanh(inf) = 1, x / inf = 0, and inf**c = 0 or 1 for c <= 0 (pow)
_SATURATING = ("exp", "tanh", "/")
