"""Numeric curvature oracle for arbitrary smooth metric fields on R^n.

Christoffel symbols and the Ricci tensor are computed from nothing but
point evaluations of the metric, via central differences.  This module is
deliberately independent of every specialized curvature formula in the
package so it can adjudicate them.

Conventions: metrics are callables x -> symmetric (n, n) array on a single
Cartesian-style chart; the Ricci tensor is taken in the Christoffel form

    R_ij = d_s Gamma^s_ij - d_j Gamma^s_is
           + Gamma^s_ij Gamma^t_st - Gamma^s_it Gamma^t_sj,

which vanishes on flat space and reproduces Ric = (n-1)/R^2 * g on round
spheres of radius R.

scipy is used here only, for the LU factorization in invert_spd, and is
imported on its first call: the solve, verify and CLI path needs numpy
only.  The oracle serves rotsym.forward_oracle_report, acceptance
criteria 5, 6 and 10, and demo 04.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-3
MAX_DIM = 8  # desk-scale O(n^4) oracle


class SingularMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class MetricField:
    """Dimension plus a callable returning the metric matrix at a point."""

    n: int
    g: Callable[[np.ndarray], np.ndarray]


def metric_at(mf: MetricField, x) -> np.ndarray:
    """Evaluate the metric, enforce symmetry, return the symmetrized matrix."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(mf.g(x), dtype=float)
    if m.shape != (mf.n, mf.n):
        raise ValueError(f"metric returned shape {m.shape}, expected {(mf.n, mf.n)}")
    asym = np.max(np.abs(m - m.T))
    if asym > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"metric not symmetric at {x} (asymmetry {asym:.3e})")
    return 0.5 * (m + m.T)


def invert_spd(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric matrix; raises SingularMatrixError on tiny pivots."""
    from scipy.linalg import lu_factor, lu_solve  # loaded on first use, off the solve path

    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds oracle cap {MAX_DIM}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pivot check below handles singularity
        lu, piv = lu_factor(m)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < 1e-14:
        raise SingularMatrixError(f"singular matrix: pivot {np.min(pivots):.3e} < 1e-14")
    inv = lu_solve((lu, piv), np.eye(n))
    return 0.5 * (inv + inv.T)


def christoffel(mf: MetricField, x, h: float = DEFAULT_STEP) -> np.ndarray:
    """Gamma^k_ij of the metric at x, partials by central differences.

    Returned array is indexed [k, i, j] and is exactly symmetric in (i, j).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    n = mf.n
    g0 = metric_at(mf, x)
    ginv = invert_spd(g0)
    # dg[k] = d_k g_ij
    dg = np.array([metric_at(mf, x + e) - metric_at(mf, x - e) for e in h * np.eye(n)]) / (2.0 * h)
    # T[i, j, k] = d_i g_jk + d_j g_ik - d_k g_ij
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("lk,ijk->lij", ginv, T)


def ricci_numeric(mf: MetricField, x, h: float = DEFAULT_STEP, with_asymmetry: bool = False):
    """Ricci tensor at x by nested differencing of Christoffel symbols.

    The raw result is symmetrized; pass with_asymmetry=True to also get the
    pre-symmetrization max |R - R^T| as a quality diagnostic.
    """
    x = np.asarray(x, dtype=float)
    n = mf.n
    gamma0 = christoffel(mf, x, h)
    # dgamma[m] = d_m Gamma^k_ij
    dgamma = np.array(
        [christoffel(mf, x + e, h) - christoffel(mf, x - e, h) for e in h * np.eye(n)]
    ) / (2.0 * h)
    term1 = np.einsum("ssij->ij", dgamma)
    term2 = np.einsum("jsis->ij", dgamma)
    term3 = np.einsum("sij,tst->ij", gamma0, gamma0)
    term4 = np.einsum("sit,tsj->ij", gamma0, gamma0)
    raw = term1 - term2 + term3 - term4
    ric = 0.5 * (raw + raw.T)
    if with_asymmetry:
        return ric, float(np.max(np.abs(raw - raw.T)))
    return ric


def scalar_curvature(mf: MetricField, x, h: float = DEFAULT_STEP) -> float:
    """Contraction g^{ij} R_ij at x."""
    x = np.asarray(x, dtype=float)
    ric = ricci_numeric(mf, x, h)
    ginv = invert_spd(metric_at(mf, x))
    return float(np.einsum("ij,ij->", ginv, ric))


def riemann_from_ricci_3d(ric: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Riemann tensor from Ricci in dimension 3 (algebraic identity).

    R_ijkl = g_ik R_jl - g_il R_jk - g_jk R_il + g_jl R_ik
             - (R/2) (g_ik g_jl - g_il g_jk)
    """
    ric = np.asarray(ric, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3) or ric.shape != (3, 3):
        raise ValueError("riemann_from_ricci_3d requires n = 3")
    scal = float(np.einsum("ij,ij->", invert_spd(g), ric))
    R4 = (
        np.einsum("ik,jl->ijkl", g, ric)
        - np.einsum("il,jk->ijkl", g, ric)
        - np.einsum("jk,il->ijkl", g, ric)
        + np.einsum("jl,ik->ijkl", g, ric)
        - 0.5 * scal * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
    )
    return R4


def riemann_symmetry_violations(R4: np.ndarray) -> dict:
    """Max violations of pair symmetry, antisymmetry and first Bianchi."""
    pair = np.max(np.abs(R4 - np.transpose(R4, (2, 3, 0, 1))))
    anti = np.max(np.abs(R4 + np.transpose(R4, (1, 0, 2, 3))))
    bianchi = np.max(
        np.abs(R4 + np.transpose(R4, (0, 3, 1, 2)) + np.transpose(R4, (0, 2, 3, 1)))
    )
    return {"pair": float(pair), "antisymmetry": float(anti), "bianchi": float(bianchi)}


def _as_value_fn(fn):
    if callable(fn):  # an Expr gives its value
        return fn
    raise TypeError(f"expected Expr or callable, got {type(fn)!r}")


def rotsym_to_cartesian(A, B, n: int) -> MetricField:
    """Cartesian realization of A(t) dt^2 + B(t) dTheta^2 with t = |x|.

    With P_ij = x_i x_j / t^2:  g_ij(x) = A(t) P_ij + (B(t)/t^2) (delta - P).
    A and B may be parsed expressions or plain float callables; only values
    are used, all differentiation happens in the oracle.
    """
    A_val = _as_value_fn(A)
    B_val = _as_value_fn(B)

    def g(x):
        x = np.asarray(x, dtype=float)
        t = float(np.linalg.norm(x))
        if t == 0.0:
            raise ValueError("rotationally symmetric chart metric undefined at x = 0")
        P = np.outer(x, x) / t**2
        return A_val(t) * P + (B_val(t) / t**2) * (np.eye(n) - P)

    return MetricField(n, g)


def radial_tangential_split(mat: np.ndarray, x) -> tuple[float, float]:
    """Radial and (averaged) tangential eigenvalue of a rotsym matrix at x."""
    x = np.asarray(x, dtype=float)
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    u = x / np.linalg.norm(x)
    radial = float(u @ mat @ u)
    tangential = float((np.trace(mat) - radial) / (n - 1))
    return radial, tangential


def frame_ratios(mat: np.ndarray, metric: np.ndarray, x) -> tuple[float, float]:
    """mat's radial/tangential components normalized by the metric's."""
    m_rad, m_tan = radial_tangential_split(mat, x)
    g_rad, g_tan = radial_tangential_split(metric, x)
    return m_rad / g_rad, m_tan / g_tan
