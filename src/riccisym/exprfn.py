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
rounding (no finite differences).  The derivative order is a property of
what is evaluated: an expression gives all three, and its first_order gives
(value, first derivative) only, never computing a d2 term, so a failure
that lies only in d2 (an overflowing square of a steep slope, say) does not
raise.  Each expression is compiled once per order, on its first
evaluation, into one closure per node over jet tuples, and the kernel is
kept on the instance.  The closures share one Taylor rule per operation,
which computes d2 only when its operands carry one, so the order is set at
the leaves alone, and each node has one error wrap, which names the failing
subexpression.  x^-k is 1 / x^k by the one quotient rule, the division's;
for a finite nonzero x it raises overflow wherever its value is infinite,
as math.pow does, and a zero base raises.  Values and error messages are
those of node-by-node jet arithmetic to that order, bit for bit, and the
(v, d1) of a first-order jet equal those of the second-order one.  Here and
below, "bit for bit" and "bit-identical" leave aside the sign bit of a NaN,
which may differ from call to call: CPython's adaptive specialisation of
float arithmetic can change which NaN operand an operation returns.

sample(ts, *exprs) is the one way to evaluate expressions over a grid: it
returns the jet arrays of each expression over ts, bit-identical to
eval_jet2 at each t, and raises the EvalError eval_jet2 would raise at the
first failing abscissa.  Underneath, it runs the same kernels over a 1-d
ndarray of abscissae: the jet arithmetic is numpy operations, and only the
calls into math (sin, cos, exp, log, sqrt) go element by element.  An
integer power is IEEE products by square-and-multiply, on floats and arrays
alike, so it calls no math function.
A kernel over an array raises exactly where eval_jet2 raises at one of its
abscissae, and only then does sample go point by point, to raise the
scalar EvalError; that error carries the jets of the abscissae before the
failing one, so a caller that scans for the first failure need not
evaluate them again.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np


class ParseError(ValueError):
    """Syntax error, with the character position where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """Domain error during evaluation, reporting the offending subexpression.

    One raised by sample has jets: what sample returns for the abscissae
    before the failing one (their number is jets.shape[2]); else None.
    """

    jets = None


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __call__(self, t: float) -> float:
        return eval_jet2(self.first_order, t).v

    def __str__(self) -> str:
        return unparse(self)

    @cached_property
    def _kernel(self):  # see eval_jet2 and sample
        return _compile(self, 2)

    @cached_property
    def first_order(self) -> FirstOrder:
        """This expression to first order, for eval_jet2 and sample."""
        return FirstOrder(self)

    def __getstate__(self):  # the kernels are rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k not in ("_kernel", "first_order")}


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


class FirstOrder:
    """An expression evaluated to first order: eval_jet2 gives its value and
    first derivative with a NaN d2, and sample its (v, d1) arrays.  The d2
    terms are never computed, so a failure that lies only in them raises
    nothing.  Get one from Expr.first_order, which keeps it."""

    __slots__ = ("_kernel",)

    def __init__(self, e: Expr):
        self._kernel = _compile(e, 1)


# Precedence, loosest first, and the one table of binary operators: node,
# precedence and the text unparse writes between the operands.  The parser
# reads each of their precedences as one left-associative level.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_INFIX = {
    Add: (_PREC_ADD, " + "),
    Sub: (_PREC_ADD, " - "),
    Mul: (_PREC_MUL, "*"),
    Div: (_PREC_MUL, "/"),
}
_PREC = {Neg: _PREC_NEG, Pow: _PREC_POW} | {node: prec for node, (prec, _) in _INFIX.items()}
_BINARY = {text.strip(): node for node, (_, text) in _INFIX.items()}  # by token

# ---------------------------------------------------------------------------
# Tokenizer / parser

# One token after any whitespace: a number, a name, an operator, the end, or
# else the one character that starts no token, so every position matches.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokenize(src: str):
    """(kind, text, position) of each token of src, by the one pattern
    _TOKEN; an operator's kind is its text, and the last token is
    ("end", "", len(src))."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text, at = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", at)
        tokens.append((text if kind == "op" else kind, text, at))
        if kind == "end":
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

    def expr(self, prec: int = _PREC_ADD) -> Expr:
        """The left-associative chain of the binary operators of precedence
        prec, over operands that bind tighter."""
        operand = self.factor if prec == _PREC_MUL else lambda: self.expr(prec + 1)
        node = operand()
        while (op := _BINARY.get(self.peek()[0])) and _PREC[op] == prec:
            self.advance()
            node = op(node, operand())
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
        _, text, at = self.expect("num", "integer exponent")
        value = float(text)
        if not value.is_integer():  # inf, from a literal past the float range, included
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

def unparse(e: Expr) -> str:
    def wrap(child: Expr, minimum: int) -> str:
        text = unparse(child)
        return f"({text})" if _PREC.get(type(child), _PREC_ATOM) < minimum else text

    if isinstance(e, Num):  # a literal past the float range is inf, and 1e999 reads back as inf
        return format(e.value, ".17g").replace("inf", "1e999")
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, _PREC_NEG)
    if type(e) in _INFIX:
        prec, text = _INFIX[type(e)]
        return f"{wrap(e.lhs, prec)}{text}{wrap(e.rhs, prec + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({unparse(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# 2-jets


@dataclass(frozen=True)
class Jet2:
    """Truncated Taylor triple (value, first, second derivative); d2 is NaN
    for an expression evaluated to first order."""

    v: float
    d1: float
    d2: float = math.nan


# Taylor arithmetic on jets of floats or ndarrays: one rule per operation,
# each a function of jet tuples, (v, d1) to first order and (v, d1, d2) to
# second.  The order is set at the leaves alone: a rule computes its d2
# terms only when its operands carry one, after its v and d1.  Each rule is
# written once, in the operation order of node-by-node jet arithmetic, so
# array and scalar results are bit-identical to it.  A rule fails by
# raising an ArithmeticError or a ValueError, which _compile's one wrap
# turns into an EvalError.  Only the math (libm) calls of the functions go
# element by element: numpy's exp and log differ from them in the last bit
# on up to 3% of arguments.  Powers are products (_ipow).


def _libm(fn, x):
    """fn(x) for a float x; fn of each element for an ndarray x."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def _any(mask) -> bool:
    """Whether a float comparison (a bool) or an array one holds anywhere."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def _ipow(x, k: int):
    """x ** k for k >= 0 by square-and-multiply, the same IEEE products for
    a float and an ndarray: k = 2 is correctly rounded, and 3 <= k <= 8 err
    by less than k - 1 ulp.  A finite base whose power overflows raises
    OverflowError, as math.pow does."""
    if k < 2:
        return x if k else 1.0
    p, square = None, x
    while k:
        if k & 1:
            p = square if p is None else p * square
        k >>= 1
        if k:
            square = square * square
    overflow = abs(p) == math.inf
    if _any(overflow) and _any(overflow & (abs(x) < math.inf)):
        raise OverflowError("integer power overflow")
    return p


def _neg(a):
    first = -a[0], -a[1]
    return first if len(a) == 2 else (*first, -a[2])


def _add(a, b):
    first = a[0] + b[0], a[1] + b[1]
    return first if len(a) == 2 else (*first, a[2] + b[2])


def _sub(a, b):
    first = a[0] - b[0], a[1] - b[1]
    return first if len(a) == 2 else (*first, a[2] - b[2])


def _mul(a, b):
    av, a1, bv, b1 = a[0], a[1], b[0], b[1]
    first = av * bv, a1 * bv + av * b1
    return first if len(a) == 2 else (*first, a[2] * bv + 2.0 * a1 * b1 + av * b[2])


def _div(a, b):
    bv, b1 = b[0], b[1]
    if _any(bv == 0.0):  # on arrays, inf / 0 and NaN / 0 raise nothing
        raise ZeroDivisionError("division by zero")
    q = a[0] / bv
    q1 = (a[1] - q * b1) / bv
    return (q, q1) if len(a) == 2 else (q, q1, (a[2] - 2.0 * q1 * b1 - q * b[2]) / bv)


def _pow(k: int, x):
    """x^k by the power rule, and for k < 0 the quotient 1 / x^-k, which
    raises OverflowError for a finite nonzero x wherever it is infinite."""
    if k < 0:
        if _any(x[0] == 0.0):
            raise ZeroDivisionError("zero base with negative exponent")
        p = _pow(-k, x)
        if _any(abs(p[0]) <= 2.0**-1024):  # 1 / p[0] is infinite, p[0] = 0 included
            raise OverflowError("integer power overflow")
        return _div((1.0, 0.0, 0.0)[: len(x)], p)
    if k < 2:
        return x if k else (1.0, 0.0, 0.0)[: len(x)]
    v, d1 = x[0], x[1]
    vk1 = _ipow(v, k - 1)
    first = _ipow(v, k), k * vk1 * d1
    if len(x) == 2:
        return first
    return *first, k * (k - 1) * _ipow(v, k - 2) * _ipow(d1, 2) + k * vk1 * x[2]


def _sin(x):
    v, d1 = x[0], x[1]
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return (s, c * d1) if len(x) == 2 else (s, c * d1, -s * _ipow(d1, 2) + c * x[2])


def _cos(x):
    v, d1 = x[0], x[1]
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return (c, -s * d1) if len(x) == 2 else (c, -s * d1, -c * _ipow(d1, 2) - s * x[2])


def _exp(x):
    v, d1 = x[0], x[1]
    e = _libm(math.exp, v)
    return (e, e * d1) if len(x) == 2 else (e, e * d1, e * (_ipow(d1, 2) + x[2]))


def _log(x):
    v, d1 = x[0], x[1]
    if _any(v <= 0.0):  # NaN passes
        raise ValueError(f"log of non-positive value {v}")
    first = _libm(math.log, v), d1 / v
    return first if len(x) == 2 else (*first, x[2] / v - _ipow(d1 / v, 2))


def _sqrt(x):
    v, d1 = x[0], x[1]
    if _any(v < 0.0):
        raise ValueError(f"sqrt of negative value {v}")
    if _any(v == 0.0):
        raise ValueError("sqrt derivative singular at 0")
    s = _libm(math.sqrt, v)
    q1 = d1 / (2.0 * s)
    return (s, q1) if len(x) == 2 else (s, q1, (x[2] - 2.0 * _ipow(q1, 2)) / (2.0 * s))


# the rule of each node type, and of each Call by its function's name
_RULES = {
    Neg: _neg, Add: _add, Sub: _sub, Mul: _mul, Div: _div, Pow: _pow,
    "sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt,
}
FUNCTIONS = tuple(name for name in _RULES if isinstance(name, str))  # the grammar's FUNC


def _compile(e: Expr, order: int):
    """One closure per node, mapping t to the jet of e at t: (v, d1) for
    order 1, (v, d1, d2) for order 2.

    The order is set at the leaves; every other node evaluates its children
    left to right and runs its rule from _RULES in one wrap, which turns
    the rule's failure into an EvalError naming the node.  A Call's wrap
    also holds its argument, whose EvalError (a ValueError) it names in
    turn.  So a failure raises the same EvalError text, nested messages
    included, as evaluating the tree node by node to that order, and a
    success returns its values, bit for bit but for a NaN's sign (see the
    module docstring).

    t is a number or a 1-d ndarray, and only the Var leaf tells them apart:
    over an array all jet arithmetic is numpy operations in the scalar order
    (IEEE makes them bit-equal), and only the math calls inside the
    functions go element by element.
    """
    if isinstance(e, (Num, Pi)):
        const = (math.pi if isinstance(e, Pi) else float(e.value), 0.0, 0.0)[: order + 1]
        return lambda t: const
    if isinstance(e, Var):
        slope = (1.0, 0.0)[:order]
        return lambda t: (t if isinstance(t, np.ndarray) and t.ndim else float(t), *slope)
    rule = _RULES[e.name if isinstance(e, Call) else type(e)]
    if isinstance(e, Pow):
        rule, operands = partial(rule, e.exponent), (e.base,)
    else:
        operands = (e.lhs, e.rhs) if type(e) in _INFIX else (e.arg,)
    caught = (ArithmeticError, ValueError) if isinstance(e, Call) else ArithmeticError
    # the children, left to right; b is None for a node of one operand
    a, b = (*(_compile(child, order) for child in operands), None)[:2]

    def node(t):
        try:
            return rule(a(t)) if b is None else rule(a(t), b(t))
        except caught as err:
            text = "overflow" if isinstance(err, OverflowError) else err
            raise EvalError(f"{text} in '{unparse(e)}' at t={t}") from None

    return node


def eval_jet2(e: Expr | FirstOrder, t: float) -> Jet2:
    """Evaluate e and its first two derivatives at t (exact jet arithmetic),
    or only the first one for e.first_order.

    The first call compiles e into a kernel that is kept on the instance;
    later calls only run it.
    """
    return Jet2(*e._kernel(t))


def _jets_into(out: np.ndarray, exprs, ts: np.ndarray) -> bool:
    """Write the jet arrays of each of exprs over ts into out[i], or return
    False as soon as one kernel raises, which it does exactly where eval_jet2
    raises at some t of ts: every raising case is an explicit check or a
    math call, and numpy runs the rest as Python floats do, raising on no
    overflow, underflow or invalid operation.  sample then goes point by
    point."""
    try:
        with np.errstate(all="ignore"):
            for i, e in enumerate(exprs):
                for j, x in enumerate(e._kernel(ts)):
                    out[i, j] = x  # a constant component broadcasts
    except EvalError:
        return False
    return True


def sample(ts, *exprs) -> np.ndarray:
    """Jets of exprs over the 1-d abscissae ts, shape (len(exprs), 3, len(ts)),
    or (len(exprs), 2, len(ts)) when every expression is a first_order.

    Entry [i] holds the jet arrays of exprs[i], bit-identical to eval_jet2
    at each t but for a NaN's sign (see the module docstring); a first_order
    among second-order expressions has a NaN d2.
    Every kernel runs over ts into one array; if one raises, as it does
    only where eval_jet2 raises at some t, all are evaluated to their own
    order as eval_jet2 does, abscissa by abscissa and in argument order, so
    the first failing (t, expression) raises its EvalError with the scalar
    text, its jets holding the result for the abscissae before t.  A ts
    that is not 1-d raises ValueError.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"abscissae must be a 1-d array, got shape {ts.shape}")
    first = all(isinstance(e, FirstOrder) for e in exprs)
    out = np.empty((len(exprs), 2 if first else 3, ts.size))
    if not first:
        out[:, 2] = math.nan
    if not _jets_into(out, exprs, ts):
        for j, t in enumerate(ts.tolist()):
            for i, e in enumerate(exprs):
                try:
                    jet = e._kernel(t)
                except EvalError as err:
                    err.jets = out[:, :, :j]
                    raise
                out[i, : len(jet), j] = jet
    return out
