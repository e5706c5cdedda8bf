"""A fixed reference kernel that measures how fast the machine runs the
solver's kind of code right now.

On a shared machine the same solve can take twice as long from one half
minute to the next, and the solver slows down together with this kernel,
though less: over 40 runs of the four workloads, log solve time rose 0.35
to 0.8 times as fast as log kernel time.  The benchmark times the kernel
next to every operation and reports times at reference speed:

    raw seconds * (REF_SECONDS / kernel seconds measured alongside) ** SPEED_EXPONENT

i.e. about the time the run would have taken on a machine where the kernel
takes exactly REF_SECONDS.  The kernel is a small stand-alone copy of the solver's
hot path (a recursive 2-jet evaluator over frozen dataclass nodes, then a
few small numpy calls).  It imports nothing from riccisym, so a change to
the program cannot move it.
"""

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REF_SECONDS = 0.01
SPEED_EXPONENT = 0.5


@dataclass(frozen=True)
class _Jet:
    v: float
    d1: float
    d2: float

    def __add__(self, o):
        return _Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __mul__(self, o):
        return _Jet(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                    self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)


@dataclass(frozen=True)
class _Num:
    c: float


@dataclass(frozen=True)
class _Var:
    pass


@dataclass(frozen=True)
class _Add:
    a: object
    b: object


@dataclass(frozen=True)
class _Mul:
    a: object
    b: object


@dataclass(frozen=True)
class _Exp:
    a: object


def _eval(e, t):
    if isinstance(e, _Num):
        return _Jet(e.c, 0.0, 0.0)
    if isinstance(e, _Var):
        return _Jet(t, 1.0, 0.0)
    if isinstance(e, _Add):
        return _eval(e.a, t) + _eval(e.b, t)
    if isinstance(e, _Mul):
        return _eval(e.a, t) * _eval(e.b, t)
    a = _eval(e.a, t)
    x = math.exp(a.v)
    return _Jet(x, x * a.d1, x * (a.d1 * a.d1 + a.d2))


# 3 exp(-t^2) + t/2
_EXPR = _Add(_Mul(_Num(3.0), _Exp(_Mul(_Num(-1.0), _Mul(_Var(), _Var())))), _Mul(_Var(), _Num(0.5)))


def kernel():
    values = np.array([_eval(_EXPR, 1e-3 * i).v for i in range(450)])
    return float(np.max(np.abs(np.diff(values))))


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
