import collections
import copy
import math
import pickle
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccisym import exprfn
from riccisym.exprfn import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    EvalError,
    Jet2,
    Mul,
    Neg,
    Num,
    ParseError,
    Pi,
    Pow,
    Sub,
    Var,
    eval_jet2,
    parse,
    sample,
    unparse,
)


def test_parse_precedence_shapes():
    assert parse("1 + t^2") == Add(Num(1.0), Pow(Var(), 2))
    assert parse("sin(t)*exp(t)") == Mul(Call("sin", Var()), Call("exp", Var()))
    # '^' binds tighter than unary minus
    assert parse("-t^2") == exprfn.Neg(Pow(Var(), 2))
    # left associativity
    assert parse("1 - 2 - 3") == exprfn.Sub(exprfn.Sub(Num(1.0), Num(2.0)), Num(3.0))
    assert parse("2*t + 1") == Add(Mul(Num(2.0), Var()), Num(1.0))


def test_parse_errors_report_position():
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse("1 +")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("2*x")
    with pytest.raises(ParseError) as err:
        parse("(1 + t")
    assert "')'" in str(err.value) or "end of input" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="integer"):
        parse("t^0.5")
    # a literal past the float range reads as inf, no integer
    for src, at in (("t^1e400", 2), ("t^-1e400", 3), ("2*t^ 1e999", 5)):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert str(err.value) == f"exponent must be an integer, got '{src[at:]}' (at position {at})"
    assert parse("t^1e308") == Pow(Var(), int(1e308))


def test_pi_is_reserved():
    e = parse("sin(pi*t)")
    assert abs(e(0.5) - 1.0) < 1e-15


def test_jet_polynomial():
    j = eval_jet2(parse("t^2"), 3.0)
    assert (j.v, j.d1, j.d2) == (9.0, 6.0, 2.0)


def test_jet_sin_at_zero():
    j = eval_jet2(parse("sin(t)"), 0.0)
    assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)


def test_jet_matches_finite_difference_of_value():
    e = parse("exp(2*t)")
    t0, h = 0.5, 1e-5
    j = eval_jet2(e, t0)
    fd = (e(t0 + h) - e(t0 - h)) / (2 * h)
    assert abs(j.d1 - fd) / abs(fd) < 1e-8


def test_negative_exponent():
    j = eval_jet2(parse("t^-2"), 2.0)
    assert abs(j.v - 0.25) < 1e-15
    assert abs(j.d1 + 2 / 8) < 1e-15
    assert abs(j.d2 - 6 / 16) < 1e-15


def test_domain_errors_report_subexpression():
    with pytest.raises(EvalError, match="log"):
        eval_jet2(parse("log(t - 2)"), 1.0)
    with pytest.raises(EvalError, match="division by zero"):
        eval_jet2(parse("1/(t - 1)"), 1.0)
    with pytest.raises(EvalError, match="sqrt"):
        eval_jet2(parse("sqrt(t)"), -1.0)
    with pytest.raises(EvalError, match=r"overflow in 'exp\(t\^3\)' at t=20"):
        eval_jet2(parse("1 + exp(t^3)"), 20.0)
    with pytest.raises(EvalError, match=r"overflow in '\(t\*10\^100\)\^4' at t=1"):
        eval_jet2(parse("(t*10^100)^4"), 1.0)


# ---------------------------------------------------------------------------
# randomized properties


def _random_expr(rng, depth):
    """Random AST over safe building blocks (bounded magnitudes)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            # parser-canonical literals are nonnegative; sign comes from Neg
            return Num(float(rng.uniform(0, 3)))
        return Var() if choice == 1 else Num(float(rng.integers(1, 4)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return Add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:
        return exprfn.Sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:
        return Mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 3:
        return Pow(_random_expr(rng, depth - 1), int(rng.integers(0, 4)))
    if kind == 4:
        return exprfn.Neg(_random_expr(rng, depth - 1))
    name = ("sin", "cos", "exp")[rng.integers(0, 3)]
    return Call(name, _random_expr(rng, depth - 1))


def test_jets_agree_with_central_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 200:
        e = _random_expr(rng, 3)
        t0 = float(rng.uniform(-1.5, 1.5))
        try:
            j = eval_jet2(e, t0)
        except EvalError:
            continue
        vals = [j.v, j.d1, j.d2]
        if any(not math.isfinite(v) or abs(v) > 1e6 for v in vals):
            continue
        h1 = 1e-5
        fd1 = (e(t0 + h1) - e(t0 - h1)) / (2 * h1)
        # wider step for the second difference: keeps rounding below 1e-6 rel
        h2 = 1e-4
        fd2 = (e(t0 + h2) - 2 * e(t0) + e(t0 - h2)) / h2**2
        scale1 = max(1.0, abs(j.d1))
        scale2 = max(1.0, abs(j.d2))
        assert abs(j.d1 - fd1) / scale1 < 1e-6
        assert abs(j.d2 - fd2) / scale2 < 1e-5
        checked += 1


def test_chain_rule_composition():
    # jet of f(g(t)) equals the composition of the two jets
    cases = [
        ("sin(exp(t))", "exp(t)", "sin"),
        ("exp(t^2)", "t^2", "exp"),
        ("cos(2*t + 1)", "2*t + 1", "cos"),
    ]
    for whole_src, inner_src, outer in cases:
        whole, inner = parse(whole_src), parse(inner_src)
        for t0 in (-0.7, 0.0, 0.4, 1.3):
            gj = eval_jet2(inner, t0)
            outer_at = eval_jet2(parse(f"{outer}(t)"), gj.v)
            composed = Jet2(
                outer_at.v,
                outer_at.d1 * gj.d1,
                outer_at.d2 * gj.d1**2 + outer_at.d1 * gj.d2,
            )
            direct = eval_jet2(whole, t0)
            assert abs(direct.v - composed.v) < 1e-12 * max(1, abs(composed.v))
            assert abs(direct.d1 - composed.d1) < 1e-12 * max(1, abs(composed.d1))
            assert abs(direct.d2 - composed.d2) < 1e-11 * max(1, abs(composed.d2))


def test_unparse_refuses_what_is_not_a_node():
    with pytest.raises(TypeError, match=r"^not an Expr node: 't\^2'$"):
        unparse(Add(Num(1.0), "t^2"))


def test_unparse_reparse_roundtrip():
    rng = np.random.default_rng(99)
    for _ in range(150):
        e = _random_expr(rng, 4)
        assert parse(unparse(e)) == e
    for src in ("1 + t^2", "sin(t)*exp(t)", "-(1 - t)/(2 + t)", "t^-3", "(t^2)^2"):
        e = parse(src)
        assert parse(unparse(e)) == e


# random text from the grammar's characters and names, whitespace the
# tokenizer skips (a no-break space among it) and numbers and exponents at
# and past the float range
_TEXT = st.lists(
    st.sampled_from(
        (*"0123456789.eE+-*/^()t", *FUNCTIONS, "pi", " ", "\t", "\n", "\xa0",
         "1e400", "1e308", "^1e400", "^-1e400", "^1e308")
    ),
    max_size=24,
).map("".join)


@settings(max_examples=1000)
@given(_TEXT)
def test_parse_raises_nothing_but_parse_error(src):
    # t^1e400 used to raise OverflowError from int(float('1e400'))
    try:
        e = parse(src)
    except ParseError:
        return
    assert parse(unparse(e)) == e


def test_deterministic_evaluation():
    e = parse("sin(t)*exp(t) - t^3/7")
    assert eval_jet2(e, 0.8314) == eval_jet2(e, 0.8314)


# ---------------------------------------------------------------------------
# compiled kernels against the recursive walk they replaced


@dataclass(frozen=True)
class _Jet:
    """The jet arithmetic the compiled kernels follow, operator by operator
    (reference); the walk's results are compared by value with eval_jet2's.
    A d2 of None is a first-order jet: no d2 term is computed, each after
    the v and d1 terms of its rule."""

    v: float
    d1: float
    d2: float | None

    def __add__(self, other):
        d2 = None if self.d2 is None else self.d2 + other.d2
        return _Jet(self.v + other.v, self.d1 + other.d1, d2)

    def __sub__(self, other):
        d2 = None if self.d2 is None else self.d2 - other.d2
        return _Jet(self.v - other.v, self.d1 - other.d1, d2)

    def __neg__(self):
        return _Jet(-self.v, -self.d1, None if self.d2 is None else -self.d2)

    def __mul__(self, other):
        v, d1 = self.v * other.v, self.d1 * other.v + self.v * other.d1
        if self.d2 is None:
            return _Jet(v, d1, None)
        return _Jet(v, d1, self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2)

    def __truediv__(self, other):
        if other.v == 0.0:
            raise ZeroDivisionError("jet division by zero")
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        if self.d2 is None:
            return _Jet(q, q1, None)
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.v
        return _Jet(q, q1, q2)


def _const(x, a):
    """The jet of the constant x, of a's order."""
    return _Jet(x, 0.0, None if a.d2 is None else 0.0)


def _powi(x, k):
    """x ** k for k >= 0 by square-and-multiply: p = 1, and for each bit of
    k from the lowest, p *= x^(2^i) where it is set.  A finite x whose power
    overflows raises OverflowError, as float ** does."""
    p, square = 1.0, x
    while k:
        if k & 1:
            p *= square
        square *= square
        k >>= 1
    if math.isinf(p) and math.isfinite(x):
        raise OverflowError("power overflow")
    return p


def _walk_pow(a, k):
    if k == 0:
        return _const(1.0, a)
    if k == 1:
        return a  # the general rule would take v ** -1 and d1 ** 2, which may raise
    if k < 0:
        if a.v == 0.0:
            raise ZeroDivisionError("zero base with negative exponent")
        p = _walk_pow(a, -k)
        if p.v == 0.0 or math.isinf(1.0 / p.v):  # x^k out of range; an infinite x gives 0
            raise OverflowError("power overflow")
        return _const(1.0, a) / p
    v = _powi(a.v, k)
    d1 = k * _powi(a.v, k - 1) * a.d1
    if a.d2 is None:
        return _Jet(v, d1, None)
    d2 = k * (k - 1) * _powi(a.v, k - 2) * _powi(a.d1, 2) + k * _powi(a.v, k - 1) * a.d2
    return _Jet(v, d1, d2)


def _walk_call(name, a):
    first = a.d2 is None
    if name == "sin":
        s, c = math.sin(a.v), math.cos(a.v)
        return _Jet(s, c * a.d1, None if first else -s * _powi(a.d1, 2) + c * a.d2)
    if name == "cos":
        s, c = math.sin(a.v), math.cos(a.v)
        return _Jet(c, -s * a.d1, None if first else -c * _powi(a.d1, 2) - s * a.d2)
    if name == "exp":
        e = math.exp(a.v)
        return _Jet(e, e * a.d1, None if first else e * (_powi(a.d1, 2) + a.d2))
    if name == "log":
        if a.v <= 0.0:
            raise ValueError(f"log of non-positive value {a.v}")
        v, d1 = math.log(a.v), a.d1 / a.v
        return _Jet(v, d1, None if first else a.d2 / a.v - _powi(a.d1 / a.v, 2))
    if name == "sqrt":
        if a.v < 0.0:
            raise ValueError(f"sqrt of negative value {a.v}")
        if a.v == 0.0:
            raise ValueError("sqrt derivative singular at 0")
        s = math.sqrt(a.v)
        d1 = a.d1 / (2.0 * s)
        return _Jet(s, d1, None if first else (a.d2 - 2.0 * _powi(d1, 2)) / (2.0 * s))
    raise ValueError(f"unknown function {name!r}")


def _walk(e, t, order=2):
    """The node-by-node evaluator that compiled kernels replaced (reference),
    to the given derivative order."""
    zero = 0.0 if order == 2 else None
    if isinstance(e, Num):
        return _Jet(float(e.value), 0.0, zero)
    if isinstance(e, Pi):
        return _Jet(math.pi, 0.0, zero)
    if isinstance(e, Var):
        return _Jet(float(t), 1.0, zero)
    if isinstance(e, Neg):
        return -_walk(e.arg, t, order)
    if isinstance(e, Add):
        return _walk(e.lhs, t, order) + _walk(e.rhs, t, order)
    if isinstance(e, Sub):
        return _walk(e.lhs, t, order) - _walk(e.rhs, t, order)
    if isinstance(e, Mul):
        return _walk(e.lhs, t, order) * _walk(e.rhs, t, order)
    if isinstance(e, Div):
        try:
            return _walk(e.lhs, t, order) / _walk(e.rhs, t, order)
        except ZeroDivisionError:
            raise EvalError(f"division by zero in '{unparse(e)}' at t={t}") from None
    if isinstance(e, Pow):
        try:
            return _walk_pow(_walk(e.base, t, order), e.exponent)
        except ZeroDivisionError:
            raise EvalError(f"zero base with negative exponent in '{unparse(e)}' at t={t}") from None
        except OverflowError:
            raise EvalError(f"overflow in '{unparse(e)}' at t={t}") from None
    if isinstance(e, Call):
        try:
            return _walk_call(e.name, _walk(e.arg, t, order))
        except ValueError as err:
            raise EvalError(f"{err} in '{unparse(e)}' at t={t}") from None
        except OverflowError:
            raise EvalError(f"overflow in '{unparse(e)}' at t={t}") from None
    raise TypeError(f"not an Expr node: {e!r}")


def _outcome(evaluate, e, t):
    """Bit pattern of the jet (NaNs, and a first-order walk's None d2, read
    "nan"), or the error raised."""
    try:
        j = evaluate(e, t)
    except Exception as err:  # the walk's exception type and text are the contract
        return type(err), str(err)
    return tuple("nan" if x is None or math.isnan(x) else float.hex(x) for x in (j.v, j.d1, j.d2))


# parser literals are nonnegative; 1e999 parses to inf.  A steep t (slope
# 1e160) makes squared derivatives overflow, which a power raises on.
_leaves = st.one_of(
    st.builds(Num, st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 1e-200, 1e200, math.inf])),
    st.builds(Num, st.floats(min_value=0.0, max_value=1e3)),
    st.just(Var()),
    st.just(Mul(Num(1e160), Var())),
    st.just(Pi()),
)


def _nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(min_value=-4, max_value=5)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


_exprs = st.recursive(_leaves, _nodes, max_leaves=12)
_ts = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-20.0, max_value=20.0),
)


@settings(max_examples=500)
@given(_exprs, st.lists(_ts, min_size=1, max_size=4))
def test_compiled_kernel_matches_recursive_walk(e, ts):
    # the first t compiles the kernel, the others reuse it
    for t in ts:
        assert _outcome(eval_jet2, e, t) == _outcome(_walk, e, t)


def _first_order(e, t):
    return eval_jet2(e.first_order, t)


@settings(max_examples=500)
@given(_exprs, st.lists(_ts, min_size=1, max_size=4))
def test_first_order_jets_are_the_leading_terms(e, ts):
    # to first order the kernel follows the walk without its d2 terms; its
    # v and d1 are eval_jet2's wherever that succeeds, and it raises only
    # where eval_jet2 raises too
    for t in ts:
        first = _outcome(_first_order, e, t)
        assert first == _outcome(lambda e, t: _walk(e, t, order=1), e, t)
        full = _outcome(eval_jet2, e, t)
        if isinstance(first[0], type):
            assert full[0] is first[0]
        elif not isinstance(full[0], type):
            assert first == full[:2] + ("nan",)
    # over arrays: bit-equal, or the first scalar error
    ts = [float(t) for t in ts]
    scalar = [_outcome(_first_order, e, t) for t in ts]
    error = next((o for o in scalar if isinstance(o[0], type)), None)
    if error is None:
        got = sample(ts, e.first_order)
        assert got.shape == (1, 2, len(ts))
        rows = [tuple(map(_bits, got[0, :, k].tolist())) + ("nan",) for k in range(len(ts))]
        assert rows == scalar
    else:
        with pytest.raises(error[0]) as err:
            sample(ts, e.first_order)
        assert str(err.value) == error[1]


def test_a_failure_only_in_d2_does_not_stop_a_first_order_jet():
    # d1^2 = 4e320 overflows in d2 alone
    e = parse("(1e160*t)^2")
    j = eval_jet2(e.first_order, 1e-160)
    assert (j.v, j.d1) == (1.0, 2e160) and math.isnan(j.d2)
    with pytest.raises(EvalError, match=r"^overflow in '\(1e\+160\*t\)\^2' at t=1e-160$"):
        eval_jet2(e, 1e-160)
    assert sample([1e-160], e.first_order).tolist() == [[[1.0], [2e160]]]
    assert _array_jets(e, [1e-160]) is None


def test_the_value_of_an_expression_needs_no_d2():
    # e(t) is the value of the first-order jet: the d2 term of
    # (1e160*t)^3 squares d1 = 3e160 and overflows, the value does not
    e = parse("(1e160*t)^3")
    assert e(1e-160) == eval_jet2(e.first_order, 1e-160).v == 1.0
    with pytest.raises(EvalError, match=r"^overflow in '\(1e\+160\*t\)\^3' at t=1e-160$"):
        eval_jet2(e, 1e-160)
    with pytest.raises(EvalError, match=r"^log of non-positive value"):  # a value's failure still raises
        parse("log(t)")(0.0)


def test_evaluated_expr_pickles_copies_and_hashes_like_a_fresh_parse():
    for src in ("3*cos(t)^2 + t^4/(1+t^2)", "t", "1e999"):
        used, fresh = parse(src), parse(src)
        eval_jet2(used, 0.3)
        sample([0.3, 0.4], used)
        eval_jet2(used.first_order, 0.3)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        for other in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used), copy.copy(used)):
            assert other == fresh and hash(other) == hash(fresh)
            assert eval_jet2(other, 0.3) == eval_jet2(used, 0.3)


# the array kernel against the scalar one


def _bits(x):
    return "nan" if math.isnan(x) else float.hex(x)


def _array_jets(e, ts):
    """The jet arrays of e over ts from the array kernel that sample tries
    first, or None where it declines and sample goes point by point."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((1, 2 if isinstance(e, exprfn.FirstOrder) else 3, ts.size))
    return tuple(out[0]) if exprfn._jets_into(out, (e,), ts) else None


@settings(max_examples=500)
@given(_exprs, st.lists(_ts, min_size=1, max_size=16))
def test_grid_kernel_is_bit_equal_or_declines(e, ts):
    jet = _array_jets(e, ts)
    if jet is None:
        return  # sample evaluates point by point with eval_jet2
    for x in jet:
        assert x.shape == (len(ts),)
    for i, t in enumerate(ts):
        j = eval_jet2(e, t)  # an array result promises the scalar kernel does not raise
        assert tuple(_bits(float(x[i])) for x in jet) == tuple(map(_bits, (j.v, j.d1, j.d2)))


@pytest.mark.parametrize(
    "src, t_max",
    [
        ("12", 0.5),
        ("12 - 8*t^2", 0.5),
        ("1", 10.0),
        ("-1", 10.0),
        ("3*exp(-t^2)", 2.0),
        ("3*cos(t)^2 + t^4/(1+t^2)", 2.0),
        ("2 + sin(t)^2", 2.0),
        ("2 + t*log(1+t^2)", 2.0),
        # every node kind with nonzero second derivatives on both operands,
        # where a reordered sum would show in the last bit
        ("sin(t)*cos(3*t) - exp(t/2)*log(2 + t^2)/(1.5 + sin(t)) + sqrt(1 + t^4)", 3.0),
        ("-(t^3 - t)*(t^2 + 0.3)^-2 + (t - 0.7)^5/(1 + exp(-t))", 3.0),
    ],
)
def test_grid_kernel_serves_the_reference_targets(src, t_max):
    # the fast path must not switch itself off on the benchmark targets
    ts = np.linspace(-t_max, t_max, 2001)
    jet = _array_jets(parse(src), ts)
    assert jet is not None
    ref = np.array([tuple(vars(eval_jet2(parse(src), t)).values()) for t in ts])
    assert np.array_equal(np.column_stack(jet), ref)


def test_grid_kernel_declines_where_the_scalar_kernel_raises():
    cases = (
        ("1/(t - 1)", 1.0),
        # inf / 0 raises no floating-point exception, and with divisor jet
        # (0, 1, -1) neither does the rest of the quotient rule
        ("1e999/(t - t^2/2)", 0.0),
        ("sqrt((t - 1)^2)", 1.0),
        ("t^-2", 0.0),
        ("log(t)", -1.0),
        # overflow: math.exp, and the square d1^2 = 1e320 in a cube's d2
        # (which already overflows at t = 0.5)
        ("exp(t)", 710.0),
        ("(1e160*t)^3", 1.0),
    )
    for src, t in cases:
        ts = [0.5, t, 2.0]
        assert _array_jets(parse(src), ts) is None
        with pytest.raises(EvalError):
            eval_jet2(parse(src), t)
        first = next(o for o in (_outcome(eval_jet2, parse(src), x) for x in ts) if o[0] is EvalError)
        with pytest.raises(EvalError) as err:
            sample(ts, parse(src))
        assert str(err.value) == first[1]


# Abscissae over nine decades, plus the stretch just below exp's overflow
# point log(DBL_MAX) = 709.78 and a neighbourhood of 1, where log is near 0.
# 100k points, because numpy's substitutes for libm differ from it on only
# 0.16% (np.log) to 3% (np.exp) of these arguments.
_DENSE = np.concatenate([
    np.geomspace(1e-6, 700.0, 80_000),
    np.linspace(709.0, 709.78, 10_000),
    1.0 + np.linspace(-1e-3, 1e-3, 10_000),
])


class _CountingMath:
    """The math module, counting the calls of each of its functions."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        fn = getattr(math, name)
        if not callable(fn):
            return fn

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)

        return counted


def _libm_values(src):
    """The value of a dense-test expression at each abscissa, from Python's
    math and _powi alone (the jet helpers play no part)."""
    if "^" not in src:
        return [getattr(math, src[: src.index("(")])(t) for t in _DENSE.tolist()]
    k = int(src[src.index("^") + 1 :])
    return [_powi(x, k) if k >= 0 else 1.0 / _powi(x, -k) for x in (0.5 * _DENSE - 0.7).tolist()]


# each case with the math functions its jet must call on every element:
# a power, the d2 squares of the functions included, is products and calls
# none
@pytest.mark.parametrize(
    "src, libm",
    [("sin(t)", {"sin", "cos"}), ("cos(t)", {"sin", "cos"}), ("exp(t)", {"exp"}),
     ("log(t)", {"log"}), ("sqrt(t)", {"sqrt"})]
    + [(f"(0.5*t - 0.7)^{k}", set()) for k in range(-3, 6)],
)
def test_grid_kernel_calls_libm_on_every_element(src, libm, monkeypatch):
    e = parse(src)
    grid = np.column_stack(_array_jets(e, _DENSE))
    scalar = np.array([(j.v, j.d1, j.d2) for j in map(eval_jet2, repeat(e), _DENSE.tolist())])
    assert np.isfinite(grid).all()
    for i, c in zip(*np.nonzero(grid.view(np.int64) != scalar.view(np.int64))):
        pytest.fail(f"t={_DENSE[i]!r}: array kernel {float.hex(grid[i, c])} != eval_jet2 {float.hex(scalar[i, c])}")
    values = np.array(_libm_values(src))
    for i in np.flatnonzero(grid[:, 0].view(np.int64) != values.view(np.int64)):
        pytest.fail(f"t={_DENSE[i]!r}: value {float.hex(grid[i, 0])} != libm {float.hex(values[i])}")
    # numpy's sin and cos can match libm bit for bit, and sqrt always does,
    # so only the calls show that libm, not a ufunc, computed each element
    spy = _CountingMath()
    monkeypatch.setattr(exprfn, "math", spy)
    _array_jets(parse(src), _DENSE)
    assert {name for name, count in spy.calls.items() if count >= _DENSE.size} == libm
    assert "pow" not in spy.calls


def test_first_power_is_the_base_jet():
    # the general rule for k = 1 took v ** -1 and d1 ** 2, which raised at a
    # zero base and overflowed on steep or tiny bases; x^-1 is 1/x
    cases = (
        ("t^1", "t", 0.0),
        ("(1e160*t)^1", "1e160*t", 1.0),
        ("t^1", "t", 1e-320),
        ("(1e160*t)^-1", "1/(1e160*t)", 1.0),
    )
    for src, same, t in cases:
        assert eval_jet2(parse(src), t) == eval_jet2(parse(same), t)
        grid, ref = _array_jets(parse(src), [t, 2.0]), _array_jets(parse(same), [t, 2.0])
        assert grid is not None and all(map(np.array_equal, grid, ref))


_MAX = Fraction(sys.float_info.max)


def _power_bases():
    """2,000 bases in +-[1e-3, 1e3], log-uniform, then the edge cases."""
    rng = np.random.default_rng(2026)
    bases = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    return bases.tolist() + [0.0, -0.0, 1.0, 5e-324, 1e154]


@pytest.mark.parametrize("k", range(-3, 9))
def test_a_power_is_within_its_ulp_bound_of_the_exact_power(k):
    # x^k is IEEE products by square-and-multiply, and x^-k is 1/x^k: a
    # square is correctly rounded, and each further product adds about an
    # ulp at most (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 3).  Worst cases measured over 20,000 bases in +-[0.01, 10]:
    # 1.26, 1.85, 2.86 and 4.60 ulp for k = 3, 4, 5 and 8.
    e = parse(f"t^{k}")
    kept = []
    for x in _power_bases():  # a zero base of k < 0, and an x^|k| or x^k out of range, raise
        power = abs(Fraction(x)) ** abs(k)
        if k < 0 and x == 0.0:
            text = "zero base with negative exponent"
        elif abs(k) >= 2 and power > _MAX or k < 0 and 1 / power > _MAX:
            text = "overflow"
        else:
            kept.append(x)
            continue
        with pytest.raises(EvalError) as err:
            eval_jet2(e, x)
        assert str(err.value) == f"{text} in 't^{k}' at t={x!r}"
        assert _array_jets(e, [x]) is None
    scalar = [eval_jet2(e, x).v for x in kept]
    array = _array_jets(e, kept)
    assert array is not None
    bound = k - 1 if k >= 3 else abs(k) if k < 0 else 0
    for path in (scalar, array[0].tolist()):
        for x, got in zip(kept, path):
            exact = Fraction(x) ** k
            if k == 2:
                assert got.hex() == float(exact).hex(), x
            else:
                assert abs(Fraction(got) - exact) <= bound * Fraction(math.ulp(float(exact))), x


def test_a_finite_base_whose_power_overflows_raises_on_both_paths():
    for k, x in ((2, 1e155), (2, -1e155), (3, 1e154), (8, 1e39), (-3, 1e154)):
        e = parse(f"t^{k}")
        text = f"overflow in 't^{k}' at t={x!r}"
        for order in (e, e.first_order):
            with pytest.raises(EvalError) as err:
                eval_jet2(order, x)
            assert str(err.value) == text
            assert _array_jets(order, [2.0, x]) is None  # sample declines
            with pytest.raises(EvalError) as err:
                sample([2.0, x], order)
            assert str(err.value) == text and err.value.jets.shape[2] == 1
    # an infinite base is no overflow, as for math.pow
    assert eval_jet2(parse("1e999^2"), 0.0).v == math.inf
    assert sample([math.inf, -math.inf], parse("t^3"))[0, 0].tolist() == [math.inf, -math.inf]


def test_a_negative_power_out_of_range_raises_overflow():
    # x^-k of a finite nonzero x raises overflow wherever its value is
    # infinite, as math.pow does: where x^k underflows to 0 (t^-2 at
    # 1e-200) and where 1/x^k rounds to inf (t^-1 at 5e-324)
    for src, x in (("t^-2", 1e-200), ("t^-1", 5e-324)):
        e = parse(src)
        text = f"overflow in '{src}' at t={x!r}"
        for order in (e, e.first_order):
            with pytest.raises(EvalError) as err:
                eval_jet2(order, x)
            assert str(err.value) == text
            with pytest.raises(EvalError) as err:
                sample([2.0, x], order)
            assert str(err.value) == text and err.value.jets.shape[2] == 1
    # a zero base keeps its text, and 1/t stays IEEE division
    with pytest.raises(EvalError) as err:
        eval_jet2(parse("t^-2"), 0.0)
    assert str(err.value) == "zero base with negative exponent in 't^-2' at t=0.0"
    assert eval_jet2(parse("1/t"), 5e-324).v == math.inf
    assert sample([2.0, 5e-324], parse("1/t"))[0, 0].tolist() == [0.5, math.inf]


# the one grid sampler


@settings(max_examples=500)
@given(st.lists(_exprs, min_size=1, max_size=2), st.lists(_ts, min_size=1, max_size=8))
def test_sample_is_bit_equal_or_raises_the_first_scalar_error(exprs, ts):
    ts = [float(t) for t in ts]
    # scalar order: abscissa by abscissa, the expressions in argument order
    scalar = [[_outcome(eval_jet2, e, t) for e in exprs] for t in ts]
    error = next((o for row in scalar for o in row if isinstance(o[0], type)), None)
    if error is None:
        got = sample(ts, *exprs)
        assert got.shape == (len(exprs), 3, len(ts))
        assert [[tuple(map(_bits, got[i, :, k].tolist())) for i in range(len(exprs))]
                for k in range(len(ts))] == scalar
    else:
        with pytest.raises(error[0]) as err:
            sample(ts, *exprs)
        assert str(err.value) == error[1]
        # with the jets of the abscissae before the failing one
        k = next(j for j, row in enumerate(scalar) if error in row)
        jets = err.value.jets
        assert jets.shape == (len(exprs), 3, k)
        assert [[tuple(map(_bits, jets[i, :, j].tolist())) for i in range(len(exprs))]
                for j in range(k)] == scalar[:k]


def test_sample_raises_at_the_first_failing_abscissa():
    # phi fails at t = 3 and psi at t = 2: the earlier abscissa wins, whatever
    # the argument order; alone, each raises its own error
    phi, psi = parse("1/(t - 3)"), parse("log(2 - t)")
    ts = np.linspace(0.0, 4.0, 5)
    psi_error = "log of non-positive value 0.0 in 'log(2 - t)' at t=2.0"
    for exprs in ((phi, psi), (psi, phi)):
        with pytest.raises(EvalError) as err:
            sample(ts, *exprs)
        assert str(err.value) == psi_error
    with pytest.raises(EvalError) as err:
        sample(ts, phi)
    assert str(err.value) == "division by zero in '1/(t - 3)' at t=3.0"


def test_a_raising_sample_keeps_the_jets_of_one_and_of_two_expressions():
    # the jets before the failing abscissa are eval_jet2's, bit for bit, to
    # each expression's own order
    phi, psi = parse("1/(t - 3)"), parse("log(2 - t)")
    ts = np.linspace(0.0, 4.0, 5)
    for exprs, first_failing in (((phi,), 3), ((phi.first_order,), 3), ((psi, phi), 2),
                                 ((phi.first_order, psi), 2)):
        with pytest.raises(EvalError) as err:
            sample(ts, *exprs)
        jets = err.value.jets
        assert jets.shape == (len(exprs), 2 if exprs == (phi.first_order,) else 3, first_failing)
        for i, e in enumerate(exprs):
            for k, t in enumerate(ts[:first_failing].tolist()):
                got = tuple(map(_bits, jets[i, :, k].tolist()))
                assert got + ("nan",) * (3 - len(got)) == _outcome(eval_jet2, e, t)
    assert EvalError("text").jets is None


@pytest.mark.parametrize("ts", [[0.5, 1.0], [0.5, 1.0, 0.0]], ids=["arrays", "point by point"])
def test_a_first_order_among_second_order_expressions_has_a_nan_d2(ts):
    # 1/t raises at t = 0, so there sample goes point by point, and its
    # EvalError carries the jets of the two abscissae before
    e, f = parse("1e-200*t^2 + 1/t"), parse("sin(t)")
    assert (_array_jets(e, ts) is None) == (0.0 in ts)
    if 0.0 in ts:
        with pytest.raises(EvalError, match=r"^division by zero in '1/t' at t=0.0$") as err:
            sample(ts, e, f.first_order)
        got = err.value.jets
    else:
        got = sample(ts, e, f.first_order)
    assert got.shape == (2, 3, 2)
    for k, t in enumerate(ts[:2]):
        j, jf = eval_jet2(e, t), eval_jet2(f.first_order, t)
        assert got[0, :, k].tolist() == [j.v, j.d1, j.d2]
        assert got[1, :2, k].tolist() == [jf.v, jf.d1] and math.isnan(got[1, 2, k])


@pytest.mark.parametrize(
    "src, ts",
    [("1e-200*t^2", [0.5, 1e-200]), ("1 + exp(-t^4)", [1.0, 5.2, 6.0, 30.0])],
)
def test_an_underflow_stays_on_the_array_path(src, ts):
    # a subnormal or zero result raises nothing with Python floats, so the
    # array kernel does not decline there either, and its jets are eval_jet2's
    e = parse(src)
    jet = _array_jets(e, ts)
    assert jet is not None
    for k, t in enumerate(ts):
        j = eval_jet2(e, t)
        assert tuple(_bits(float(x[k])) for x in jet) == tuple(map(_bits, (j.v, j.d1, j.d2)))


@pytest.mark.parametrize(
    "call, shape",
    [
        (lambda: sample(0.5, parse("exp(t)")), "()"),
        (lambda: sample(0.5, parse("t")), "()"),
        (lambda: sample([[0.1, 0.2]], parse("t")), "(1, 2)"),
    ],
)
def test_sample_rejects_abscissae_that_are_not_1d(call, shape):
    with pytest.raises(ValueError, match=rf"1-d array, got shape {re.escape(shape)}$"):
        call()


def test_numbers_and_arrays_share_one_compiled_kernel():
    e = parse("sin(t)*t^2 - 1/(2 + t)")
    sample([0.1, 0.2], e)
    kernel = e._kernel
    assert eval_jet2(e, 0.2) == Jet2(*sample([0.1, 0.2], e)[0, :, 1].tolist())
    assert e._kernel is kernel and set(vars(e)) == {"lhs", "rhs", "_kernel"}
    # the leaf for t keeps a scalar abscissa as given in error texts
    with pytest.raises(EvalError, match=r"at t=0$"):
        eval_jet2(parse("1/t"), 0)
