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
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import EvalError, JetDivisionByZero, JetDomainError, LexError, ParseError
from .jets import DENOM_FLOOR, Jet2

VARIABLES = ("u", "v")
CONSTANTS = {"pi": math.pi, "e": math.e}
# Deepest AST, and deepest parser recursion, that parse accepts; evaluation
# recurses once per AST level, so this stays far inside Python's limit.
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

@dataclass(frozen=True)
class Constant:
    value: float
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Variable:
    name: str  # "u" or "v"
    pos: int = field(compare=False, default=0)

    @property
    def index(self) -> int:
        return VARIABLES.index(self.name)


@dataclass(frozen=True)
class Neg:
    child: Ast
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: Ast
    right: Ast
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PowConst:
    base: Ast
    exponent: float
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Ast
    pos: int = field(compare=False, default=0)


Ast = Constant | Variable | Neg | BinOp | PowConst | Call

_ADD, _MUL, _UNARY, _POW = 1, 2, 3, 4
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
            if name in jets.ELEMENTARY:
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
    """Reduce an exponent subtree to a number; reject variables."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Neg):
        return -_fold_constant(node.child, caret_pos)
    if isinstance(node, BinOp):
        left = _fold_constant(node.left, caret_pos)
        right = _fold_constant(node.right, caret_pos)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if abs(right) == 0.0:
            raise ParseError("division by zero in constant exponent", node.pos)
        return left / right
    if isinstance(node, PowConst):
        return _fold_constant(node.base, caret_pos) ** node.exponent
    raise ParseError("exponent must be a constant expression", caret_pos)


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


# --- Evaluation at one point -------------------------------------------

def eval_jet(node: Ast, at: tuple[float, float]) -> Jet2:
    """Evaluate to an order-2 jet at the parameter point `at`."""
    if isinstance(node, Constant):
        return Jet2.constant(node.value)
    if isinstance(node, Variable):
        return Jet2.variable(node.index + 1, at)
    if isinstance(node, Neg):
        return -eval_jet(node.child, at)
    try:
        if isinstance(node, BinOp):
            left = eval_jet(node.left, at)
            right = eval_jet(node.right, at)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        if isinstance(node, PowConst):
            return jets.pow_const(eval_jet(node.base, at), node.exponent)
        if isinstance(node, Call):
            return jets.ELEMENTARY[node.fn](eval_jet(node.arg, at))
    except (JetDomainError, JetDivisionByZero) as exc:
        raise EvalError(str(exc), node.pos) from exc
    except OverflowError as exc:  # math.exp, math.cosh and float ** raise it
        fn = node.fn if isinstance(node, Call) else getattr(node, "op", "pow")
        raise EvalError(f"{fn} overflows the float range", node.pos) from exc
    raise TypeError(f"not an AST node: {node!r}")


# --- Evaluation over many points ---------------------------------------

@dataclass(frozen=True)
class Tape:
    """Expressions compiled into one post-order instruction list.

    code[k] = (op, operand slots, constant) computes slot k; op is "const",
    "u", "v", "neg", one of + - * /, "pow", or a function name.  Equal
    subtrees (ASTs compare without positions) share one slot.  outputs[j]
    is the slot of the j-th expression, and dead[k] lists the slots no
    instruction after k reads.
    """

    code: tuple[tuple[str, tuple[int, ...], float], ...]
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
    slots: dict[Ast, int] = {}
    code = []
    for root in exprs:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in slots:
                stack.pop()
                continue
            op, kids, constant = _decompose(node)
            todo = [kid for kid in kids if kid not in slots]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            slots[node] = len(code)
            code.append((op, tuple(slots[kid] for kid in kids), constant))
    outputs = tuple(slots[root] for root in exprs)
    last = {arg: k for k, (_, args, _) in enumerate(code) for arg in args}
    dead = [[] for _ in code]
    for slot, k in last.items():
        if slot not in outputs:
            dead[k].append(slot)
    return Tape(tuple(code), outputs, tuple(map(tuple, dead)))


# A jet over N points: value (N,), gradient (N, 2) and Hessian (N, 2, 2);
# constants and variables carry N = 1 and broadcast.
_ZERO_GRAD = np.zeros((1, 2))
_ZERO_HESS = np.zeros((1, 2, 2))
_SEEDS = {"u": np.array([[1.0, 0.0]]), "v": np.array([[0.0, 1.0]])}


def _mul(a, b):
    """Jet2.__mul__, row by row."""
    (av, ag, ah), (bv, bg, bh) = a, b
    cross = ag[:, :, None] * bg[:, None, :]
    return (
        av * bv,
        av[:, None] * bg + bv[:, None] * ag,
        av[:, None, None] * bh + bv[:, None, None] * ah + cross + cross.transpose(0, 2, 1),
    )


def _chain(a, value, d1, d2):
    """jets._chain, row by row."""
    _, ag, ah = a
    outer = ag[:, :, None] * ag[:, None, :]
    return value, d1[:, None] * ag, d1[:, None, None] * ah + d2[:, None, None] * outer


def _elementary(fn: str, a):
    """A function of jets.ELEMENTARY applied to a, and the rows outside its domain."""
    x = a[0]
    outside = None  # every real argument
    if fn == "sin":
        s, c = np.sin(x), np.cos(x)
        return _chain(a, s, c, -s), outside
    if fn == "cos":
        s, c = np.sin(x), np.cos(x)
        return _chain(a, c, -s, -c), outside
    if fn == "tan":
        t = np.tan(x)
        sec2 = 1.0 + t * t
        return _chain(a, t, sec2, 2.0 * t * sec2), outside
    if fn == "sinh":
        return _chain(a, np.sinh(x), np.cosh(x), np.sinh(x)), outside
    if fn == "cosh":
        return _chain(a, np.cosh(x), np.sinh(x), np.cosh(x)), outside
    if fn == "tanh":
        t = np.tanh(x)
        sech2 = 1.0 - t * t
        return _chain(a, t, sech2, -2.0 * t * sech2), outside
    if fn == "exp":
        e = np.exp(x)
        return _chain(a, e, e, e), outside
    if fn == "ln":
        inv = 1.0 / x
        return _chain(a, np.log(x), inv, -inv * inv), x <= 0.0
    if fn == "sqrt":
        root = np.sqrt(x)
        return _chain(a, root, 0.5 / root, -0.25 / (root * x)), x <= 0.0
    raise ValueError(f"unknown function {fn!r}")


def _pow(a, c: float):
    """jets.pow_const, row by row, and the rows outside its domain."""
    x = a[0]
    if c.is_integer():
        n = int(c)
        d1 = np.zeros_like(x) if n == 0 else n * x ** (n - 1)
        d2 = np.zeros_like(x) if n * (n - 1) == 0 else n * (n - 1) * x ** (n - 2)
        return _chain(a, x**n, d1, d2), (x == 0.0) & (n < 0)
    return _chain(a, x**c, c * x ** (c - 1), c * (c - 1) * x ** (c - 2)), x <= 0.0


def _divide(a, b):
    """Jet2.__truediv__, row by row, and the rows whose denominator is too small."""
    bv, bg, bh = b
    inv = 1.0 / bv
    outer = bg[:, :, None] * bg[:, None, :]
    inv_g = -bg * inv[:, None] * inv[:, None]
    inv_h = -bh * inv[:, None, None] * inv[:, None, None] + 2.0 * outer * (inv**3)[:, None, None]
    return _mul(a, (inv, inv_g, inv_h)), np.abs(bv) <= DENOM_FLOOR


def eval_tape(tape: Tape, u: np.ndarray, v: np.ndarray):
    """Jets of the tape's expressions at the N points (u[n], v[n]).

    Returns values (k, N), gradients (k, N, 2) and Hessians (k, N, 2, 2)
    of the k expressions, and a mask of the rows where eval_jet could
    raise: a node outside its domain (the jets.py rules) or with a
    non-finite value, gradient or Hessian.  Values in those rows are
    meaningless.  Every operation follows its jets.py counterpart step by
    step, so + - * and negation give eval_jet's bits; the functions and
    powers come from numpy and may differ from math in the last place.
    """
    n = len(u)
    bad = np.zeros(n, dtype=bool)
    slots: list = [None] * len(tape.code)
    with np.errstate(all="ignore"):  # out-of-domain rows are flagged, not warned about
        for k, (op, args, c) in enumerate(tape.code):
            a, b = [slots[arg] for arg in args] + [None] * (2 - len(args))
            outside = None
            if op == "const":
                jet = (np.full(1, c), _ZERO_GRAD, _ZERO_HESS)
            elif op in _SEEDS:
                jet = (np.asarray(u if op == "u" else v, dtype=float), _SEEDS[op], _ZERO_HESS)
            elif op == "neg":
                jet = (-a[0], -a[1], -a[2])
            elif op == "+":
                jet = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            elif op == "-":
                jet = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
            elif op == "*":
                jet = _mul(a, b)
            elif op == "/":
                jet, outside = _divide(a, b)
            elif op == "pow":
                jet, outside = _pow(a, c)
            else:
                jet, outside = _elementary(op, a)
            if args:
                value, grad, hess = jet
                finite = np.isfinite(value) & np.isfinite(grad).all(axis=1)
                finite &= np.isfinite(hess).all(axis=(1, 2))
                bad |= ~finite if outside is None else ~finite | outside
            slots[k] = jet
            for slot in tape.dead[k]:
                slots[slot] = None
    jets_out = [slots[k] for k in tape.outputs]
    values = np.stack([np.broadcast_to(j[0], (n,)) for j in jets_out])
    grads = np.stack([np.broadcast_to(j[1], (n, 2)) for j in jets_out])
    hessians = np.stack([np.broadcast_to(j[2], (n, 2, 2)) for j in jets_out])
    return values, grads, hessians, bad
