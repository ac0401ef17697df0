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
from dataclasses import dataclass, field

from . import jets
from .errors import EvalError, JetDivisionByZero, JetDomainError, LexError, ParseError
from .jets import Jet2

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


# --- Evaluation --------------------------------------------------------

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
