"""Rotationally symmetric graph hypersurfaces of R^{n+1} and their curvature.

The embedding is the graph y_{n+1} = h(y_1^2 + ... + y_n^2).  In spherical
coordinates the induced metric is

    g = f(r) dr^2 + r^2 dTheta^2,        f(r) = 1 + 4 r^2 h'(r^2)^2,

the Ricci tensor has radial component (n-1) f'/(2 r f) and tangential
component (per unit sphere direction)

    r f'/(2 f^2) - (n-2)/f + (n-2).

The tangential coefficient is sometimes quoted with (n+2) in place of the
middle (n-2); that variant fails the flat-space gate (it evaluates to -4 on
Euclidean space for every n) as well as the sphere and paraboloid oracles,
while the (n-2) form agrees identically with the principal-curvature frame
algebra.  The variant stays available behind ``legacy_coefficient`` so the
regression is documented by tests.

Chart factors: in the spherical chart the theta_i coordinate rows carry
cumulative cos^2 weights; components here are reported per unit-length
sphere direction, where those weights drop out.

Each formula is written once, in graph_terms, for floats and ndarrays
alike; the functions of one radius call it on h's jet at r^2, and
curvature_table on one sample of h over its whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprfn import Expr, eval_jet2, sample
from .rotsym import check_dimension
from . import tensorlab


@dataclass(frozen=True)
class GraphEmbedding:
    """Graph y_{n+1} = h(u), u = squared radius, over the ball r <= r_max."""

    n: int
    h: Expr
    r_max: float

    def __post_init__(self):
        check_dimension(self.n)
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")


def graph_terms(n: int, r, d1, d2, legacy_coefficient: bool = False):
    """(f, Ric_rr, Ric_tt_unit, h1, h2, radial, tangential) at radius r from
    d1 = h'(r^2) and d2 = h''(r^2), floats or broadcast ndarrays; powers are
    IEEE products and square roots, which round the same in both.

    h1 = (2h' + 4r^2 h'') / f^{3/2} and h2 = 2h' / f^{1/2} (upward normal);
    radial and tangential are the frame Ricci eigenvalues h_i sum(h) - h_i^2.
    legacy_coefficient puts -(n+2)/f for -(n-2)/f (module docstring).
    """
    d1d1 = d1 * d1
    f = 1.0 + 4.0 * r * r * d1d1
    fprime = 8.0 * r * d1d1 + 16.0 * (r * r * r) * d1 * d2
    coef = n + 2 if legacy_coefficient else n - 2
    # the r = 0 limits: f'/r -> 8 h'^2, and the tangential term r f' vanishes;
    # the masked quotient divides by 1 there, and [()] makes a 0-d result a scalar
    origin = r == 0
    ric_rr = np.where(origin, (n - 1) * 8.0 * d1d1 / 2.0,
                      (n - 1) * fprime / (2.0 * np.where(origin, 1.0, r) * f))[()]
    ric_tt = np.where(origin, n - 2 - coef, r * fprime / (2.0 * f * f) - coef / f + (n - 2))[()]
    root = np.sqrt(f)
    h1 = (2.0 * d1 + 4.0 * r * r * d2) / (f * root)
    h2 = 2.0 * d1 / root
    total = h1 + (n - 1) * h2
    return f, ric_rr, ric_tt, h1, h2, h1 * total - h1 * h1, h2 * total - h2 * h2


def _terms_at(E: GraphEmbedding, r: float, legacy_coefficient: bool = False):
    hj = eval_jet2(E.h, r * r)
    return graph_terms(E.n, r, hj.d1, hj.d2, legacy_coefficient)


def induced_metric(E: GraphEmbedding, r: float) -> tuple[float, float, float]:
    """(f, g_rr, g_ThetaTheta) of the first fundamental form at radius r."""
    f = _terms_at(E, r)[0]
    return f, f, r * r


def ricci_graph(E: GraphEmbedding, r: float, legacy_coefficient: bool = False):
    """(Ric_rr, Ric_ThetaTheta per unit direction) of the induced metric;
    legacy_coefficient as in graph_terms."""
    return _terms_at(E, r, legacy_coefficient)[1:3]


def principal_curvatures(E: GraphEmbedding, r: float) -> tuple[float, float]:
    """(h1, h2) with h2 the common value of the n-1 tangential curvatures."""
    return _terms_at(E, r)[3:5]


def gauss_curvatures(principal) -> tuple[np.ndarray, np.ndarray, float]:
    """(riemann, ricci_frame, scalar) from principal curvatures in the
    orthonormal principal frame.

    R_ijkl = h_i h_j (d_ik d_jl - d_jk d_il); the Ricci matrix is its
    contraction and equals diag(h_i sum(h) - h_i^2); the scalar is the trace,
    (sum h)^2 - sum h^2.  Mutual consistency is enforced.
    """
    h = np.asarray(principal, dtype=float)
    n = h.size
    if n < 2:
        raise ValueError("need at least 2 principal curvatures")
    eye = np.eye(n)
    R4 = np.einsum("i,j,ik,jl->ijkl", h, h, eye, eye)
    R4 = R4 - np.swapaxes(R4, 2, 3)
    ricci = np.einsum("ijkj->ik", R4)
    closed = np.diag(h * np.sum(h) - h * h)
    if not np.allclose(ricci, closed, atol=1e-12 * max(1.0, float(np.max(np.abs(h)))) ** 2):
        raise AssertionError("frame Ricci contraction inconsistent with closed form")
    scalar = float(np.trace(ricci))
    return R4, ricci, scalar


def frame_diagonal(E: GraphEmbedding, r: float) -> tuple[float, float]:
    """Ricci eigenvalues in the orthonormal frame: (radial, tangential)."""
    return _terms_at(E, r)[5:]


def cartesian_field(E: GraphEmbedding) -> tensorlab.MetricField:
    """Induced metric as a Cartesian chart field for the numeric oracle."""
    return tensorlab.rotsym_to_cartesian(lambda t: induced_metric(E, t)[0], lambda t: t * t, E.n)


def curvature_table(E: GraphEmbedding, rs) -> np.ndarray:
    """Rows (r, f, Ric_rr, Ric_tt_unit, h1, h2, scalar) as one (len(rs), 7)
    float array, from one second-order sample of h at rs^2.  The scalar is
    the frame Ricci trace, radial + (n-1) tangential, with no n^4 Riemann
    tensor.  A cell that overflows holds inf or NaN, and no warning is given.
    """
    rs = np.asarray(rs, dtype=float)
    with np.errstate(all="ignore"):
        _, d1, d2 = sample(rs * rs, E.h)[0]
        f, ric_rr, ric_tt, h1, h2, radial, tangential = graph_terms(E.n, rs, d1, d2)
        return np.stack((rs, f, ric_rr, ric_tt, h1, h2, radial + (E.n - 1) * tangential), axis=1)
