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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprfn import Expr, Jet2, eval_jet2
from . import tensorlab


@dataclass(frozen=True)
class GraphEmbedding:
    """Graph y_{n+1} = h(u), u = squared radius, over the ball r <= r_max."""

    n: int
    h: Expr
    r_max: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")


def _h_jet(E: GraphEmbedding, r: float):
    """h's jet at r^2 in numpy floats, whose ** overflows to inf, not raising."""
    hj = eval_jet2(E.h, r * r)
    return Jet2(np.float64(hj.v), np.float64(hj.d1), np.float64(hj.d2))


def induced_metric(E: GraphEmbedding, r: float) -> tuple[float, float, float]:
    """(f, g_rr, g_ThetaTheta) of the first fundamental form at radius r."""
    hj = _h_jet(E, r)
    f = 1.0 + 4.0 * r * r * hj.d1**2
    return f, f, r * r


def ricci_graph(E: GraphEmbedding, r: float, legacy_coefficient: bool = False):
    """(Ric_rr, Ric_ThetaTheta per unit direction) of the induced metric.

    legacy_coefficient swaps the corrected -(n-2)/f term for the -(n+2)/f
    variant; see the module docstring.
    """
    n = E.n
    hj = _h_jet(E, r)
    f = 1.0 + 4.0 * r * r * hj.d1**2
    fprime = 8.0 * r * hj.d1**2 + 16.0 * r**3 * hj.d1 * hj.d2
    coef = float(n + 2) if legacy_coefficient else float(n - 2)
    if r == 0.0:
        # limits: f' / r -> 8 h'(0)^2, the tangential coefficient vanishes
        ric_rr = (n - 1) * 8.0 * hj.d1**2 / 2.0
        ric_tt = 0.0 if not legacy_coefficient else float(n - 2) - coef
        return ric_rr, ric_tt
    ric_rr = (n - 1) * fprime / (2.0 * r * f)
    ric_tt = r * fprime / (2.0 * f * f) - coef / f + (n - 2)
    return ric_rr, ric_tt


def principal_curvatures(E: GraphEmbedding, r: float) -> tuple[float, float]:
    """(h1, h2) with h2 the common value of the n-1 tangential curvatures.

    h1 = (2h' + 4r^2 h'') / f^{3/2},  h2 = 2h' / f^{1/2}; signs follow the
    upward normal.
    """
    hj = _h_jet(E, r)
    f = 1.0 + 4.0 * r * r * hj.d1**2
    h1 = (2.0 * hj.d1 + 4.0 * r * r * hj.d2) / f**1.5
    h2 = 2.0 * hj.d1 / f**0.5
    return h1, h2


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
    R4 = np.einsum("i,j,ik,jl->ijkl", h, h, eye, eye) - np.einsum(
        "i,j,jk,il->ijkl", h, h, eye, eye
    )
    ricci = np.einsum("ijkj->ik", R4)
    closed = np.diag(h * np.sum(h) - h * h)
    if not np.allclose(ricci, closed, atol=1e-12 * max(1.0, float(np.max(np.abs(h)))) ** 2):
        raise AssertionError("frame Ricci contraction inconsistent with closed form")
    scalar = float(np.trace(ricci))
    return R4, ricci, scalar


def frame_diagonal(E: GraphEmbedding, r: float) -> tuple[float, float]:
    """Ricci eigenvalues in the orthonormal frame: (radial, tangential)."""
    h1, h2 = principal_curvatures(E, r)
    total = h1 + (E.n - 1) * h2
    return h1 * total - h1 * h1, h2 * total - h2 * h2


def cartesian_field(E: GraphEmbedding) -> tensorlab.MetricField:
    """Induced metric as a Cartesian chart field for the numeric oracle."""

    def A(t):
        hj = _h_jet(E, t)
        return 1.0 + 4.0 * t * t * hj.d1**2

    return tensorlab.rotsym_to_cartesian(A, lambda t: t * t, E.n)


def curvature_table(E: GraphEmbedding, rs) -> np.ndarray:
    """Rows (r, f, Ric_rr, Ric_tt_unit, h1, h2, scalar) for CSV emission, as
    one (len(rs), 7) float array filled row by row.

    The scalar is the trace of the frame Ricci matrix, radial + (n-1)
    tangential, from frame_diagonal's closed form: gauss_curvatures would
    build an n^4 Riemann tensor on every row to read it.  A cell that
    overflows holds inf or NaN, and no warning is given.
    """
    table = np.empty((len(rs), 7))
    with np.errstate(all="ignore"):
        for i, r in enumerate(np.asarray(rs, dtype=float)):
            f, _, _ = induced_metric(E, r)
            ric_rr, ric_tt = ricci_graph(E, r)
            h1, h2 = principal_curvatures(E, r)
            radial, tangential = frame_diagonal(E, r)
            table[i] = r, f, ric_rr, ric_tt, h1, h2, radial + (E.n - 1) * tangential
    return table
