"""Closed-form scalar functions of one variable t, evaluated as 2-jets.

Grammar (this is the contract for expression fields in config files):

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' exponent)*          # exponent: optionally signed integer
    atom    :=  NUMBER | 't' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    :=  sin | cos | exp | log | sqrt

'^' binds tightest, then unary minus, then '*' '/', then '+' '-'; binary
operators associate to the left.  Exponents must be integer literals;
fractional powers have to be spelled with sqrt or exp/log.  'pi' is the only
reserved constant.

Evaluation returns a :class:`Jet2` carrying (value, first, second derivative),
propagated by truncated Taylor arithmetic, so derivatives are exact up to
rounding (no finite differences).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


class ParseError(ValueError):
    """Syntax error, with the character position where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """Domain error during evaluation, reporting the offending subexpression."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __call__(self, t: float) -> float:
        return eval_jet2(self, t).v

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(src, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        kind_here, text, at = self.peek()
        if kind_here != kind:
            if kind_here == "end":
                raise ParseError("unexpected end of input", at)
            raise ParseError(f"expected {what}, got {text!r}", at)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", at)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        kind, text, at = self.peek()
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        if kind != "num":
            raise ParseError(f"expected integer exponent, got {text!r}", at)
        self.advance()
        value = float(text)
        if value != int(value):
            raise ParseError(f"exponent must be an integer, got {text!r}", at)
        return sign * int(value)

    def atom(self) -> Expr:
        kind, text, at = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if text == "t":
                return Var()
            if text == "pi":
                return Pi()
            if text in FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", at)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected token {text!r}", at)


def parse(src: str) -> Expr:
    """Parse expression text into an immutable AST."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Unparsing (used for error messages and the reparse round trip)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def unparse(e: Expr) -> str:
    def wrap(child: Expr, minimum: int) -> str:
        text = unparse(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(e, Num):
        return format(e.value, ".17g")
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, _PREC_NEG)
    if isinstance(e, Add):
        return f"{wrap(e.lhs, _PREC_ADD)} + {wrap(e.rhs, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{wrap(e.lhs, _PREC_ADD)} - {wrap(e.rhs, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{wrap(e.lhs, _PREC_MUL)}*{wrap(e.rhs, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{wrap(e.lhs, _PREC_MUL)}/{wrap(e.rhs, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({unparse(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# 2-jets


@dataclass(frozen=True)
class Jet2:
    """Truncated Taylor triple (value, first, second derivative)."""

    v: float
    d1: float
    d2: float

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return Jet2(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        if other.v == 0.0:
            raise ZeroDivisionError("jet division by zero")
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.v
        return Jet2(q, q1, q2)


def jet_constant(c: float) -> Jet2:
    return Jet2(float(c), 0.0, 0.0)


def jet_variable(t: float) -> Jet2:
    return Jet2(float(t), 1.0, 0.0)


def _jet_pow(a: Jet2, k: int) -> Jet2:
    if k == 0:
        return jet_constant(1.0)
    if k < 0:
        if a.v == 0.0:
            raise ZeroDivisionError("zero base with negative exponent")
        return jet_constant(1.0) / _jet_pow(a, -k)
    v = a.v ** k
    d1 = k * a.v ** (k - 1) * a.d1
    d2 = k * (k - 1) * a.v ** (k - 2) * a.d1 ** 2 + k * a.v ** (k - 1) * a.d2
    return Jet2(v, d1, d2)


def _jet_call(name: str, a: Jet2) -> Jet2:
    if name == "sin":
        s, c = math.sin(a.v), math.cos(a.v)
        return Jet2(s, c * a.d1, -s * a.d1 ** 2 + c * a.d2)
    if name == "cos":
        s, c = math.sin(a.v), math.cos(a.v)
        return Jet2(c, -s * a.d1, -c * a.d1 ** 2 - s * a.d2)
    if name == "exp":
        e = math.exp(a.v)
        return Jet2(e, e * a.d1, e * (a.d1 ** 2 + a.d2))
    if name == "log":
        if a.v <= 0.0:
            raise ValueError(f"log of non-positive value {a.v}")
        return Jet2(
            math.log(a.v),
            a.d1 / a.v,
            a.d2 / a.v - (a.d1 / a.v) ** 2,
        )
    if name == "sqrt":
        if a.v < 0.0:
            raise ValueError(f"sqrt of negative value {a.v}")
        if a.v == 0.0:
            raise ValueError("sqrt derivative singular at 0")
        s = math.sqrt(a.v)
        d1 = a.d1 / (2.0 * s)
        d2 = (a.d2 - 2.0 * d1 ** 2) / (2.0 * s)
        return Jet2(s, d1, d2)
    raise ValueError(f"unknown function {name!r}")


def eval_jet2(e: Expr, t: float) -> Jet2:
    """Evaluate e and its first two derivatives at t (exact jet arithmetic)."""
    if isinstance(e, Num):
        return jet_constant(e.value)
    if isinstance(e, Pi):
        return jet_constant(math.pi)
    if isinstance(e, Var):
        return jet_variable(t)
    if isinstance(e, Neg):
        return -eval_jet2(e.arg, t)
    if isinstance(e, Add):
        return eval_jet2(e.lhs, t) + eval_jet2(e.rhs, t)
    if isinstance(e, Sub):
        return eval_jet2(e.lhs, t) - eval_jet2(e.rhs, t)
    if isinstance(e, Mul):
        return eval_jet2(e.lhs, t) * eval_jet2(e.rhs, t)
    if isinstance(e, Div):
        try:
            return eval_jet2(e.lhs, t) / eval_jet2(e.rhs, t)
        except ZeroDivisionError:
            raise EvalError(f"division by zero in '{unparse(e)}' at t={t}") from None
    if isinstance(e, Pow):
        try:
            return _jet_pow(eval_jet2(e.base, t), e.exponent)
        except ZeroDivisionError:
            raise EvalError(f"zero base with negative exponent in '{unparse(e)}' at t={t}") from None
        except OverflowError:
            raise EvalError(f"overflow in '{unparse(e)}' at t={t}") from None
    if isinstance(e, Call):
        try:
            return _jet_call(e.name, eval_jet2(e.arg, t))
        except ValueError as err:
            raise EvalError(f"{err} in '{unparse(e)}' at t={t}") from None
        except OverflowError:
            raise EvalError(f"overflow in '{unparse(e)}' at t={t}") from None
    raise TypeError(f"not an Expr node: {e!r}")
