"""Recover the metric profile (r, f) from an integrated Ricci potential.

Given a potential curve w(t) with w' = p and a radial coefficient phi, the
profile follows from explicit quadratures:

    r(t) = t exp( int_0^t [ phi(s) / ((n-1) w'(s)) - 1/s ] ds )
    f(t) = - int_0^t (phi / (n-1)) (w / w') ds            (f(0) = 0)

Both integrands have removable singularities at s = 0; their limit values
come from the series coefficients w2, w3 carried by the curve.  The singular
ODE forms

    (n-1) w' r' - phi r = 0        (n-1) w' f' + w phi = 0

are not re-integrated; they are kept as residual checks on the output.
f' is returned from its defining expression, while r' is differentiated
numerically from the r samples so the first residual stays an independent
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .exprfn import Expr, eval_jet2
from .potential import PotentialCurve
from .rotsym import (
    MetricProfile,
    RotSymTensor,
    fourth_order_derivative,
    ricci_forward_samples,
)


class ReconstructionError(RuntimeError):
    pass


def _phi_at(phi: Expr, ts) -> np.ndarray:
    return np.array([eval_jet2(phi, t).v for t in ts])


def _check_sign(curve: PotentialCurve, phi0: float):
    pos = curve.t > 0
    early = curve.p[pos][: min(10, int(np.sum(pos)))]
    if early.size == 0 or np.any(early * np.sign(phi0) <= 0):
        raise ReconstructionError(
            "potential slope violates p * sign(phi(0)) > 0 near t = 0"
        )


def _profile_layout(curve: PotentialCurve):
    """Profile grid starting at 0 with a uniform tail.

    Returns (grid, start): grid[0] = 0 and grid[1:] = curve.t[start:].
    Direct-quadrature curves already start at t = 0 and map one to one
    (start = 1).  Lifted-field curves start at the seed offset delta; that
    sample is dropped (start = 1) unless it already lies on the uniform
    step grid (start = 0), so stencil code always sees equal spacing.
    """
    t = curve.t
    if t.size < 6:
        raise ReconstructionError("curve too short to reconstruct a profile")
    if t[0] == 0.0:
        grid = t.copy()
        start = 1
    elif abs((t[1] - t[0]) - (t[2] - t[1])) <= 1e-9 * (t[2] - t[1]):
        grid = np.concatenate([[0.0], t])
        start = 0
    else:
        grid = np.concatenate([[0.0], t[1:]])
        start = 1
    steps = np.diff(grid)
    if steps.size > 1 and abs(steps[-1] - steps[0]) > 1e-9 * abs(steps[0]):
        # t_end was not a multiple of the step; keep the profile uniform
        grid = grid[:-1]
        steps = steps[:-1]
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ReconstructionError(
            "profile grid is not uniform; the seed offset delta must be "
            "smaller than the step (or lie exactly on the step grid)"
        )
    return grid, start


def _to_grid(curve_values: np.ndarray, start: int, zero_value: float, size: int) -> np.ndarray:
    """Project a curve-aligned array onto the profile grid layout."""
    return np.concatenate([[zero_value], curve_values[start : start + size - 1]])


def _cumulative_potential_integral(curve: PotentialCurve, integrand: np.ndarray, limit0: float):
    """Cumulative integral from 0, curve-aligned.

    integrand is aligned with curve.t; when the curve starts at t = 0 its
    first entry must already hold the removable-singularity limit.  When it
    starts at delta > 0, the short [0, delta] piece is bridged with a
    trapezoid against the series limit, orders of magnitude below the
    target tolerances since delta is tiny.
    """
    vals = cumulative_simpson(integrand, x=curve.t, initial=0.0)
    if curve.t[0] == 0.0:
        return vals
    return vals + 0.5 * (limit0 + integrand[0]) * curve.delta


def solve_r(curve: PotentialCurve, phi: Expr, n: int):
    """Radius profile r(t) = t exp(J(t)); returns (grid, r, rp).

    J is the cumulative integral of phi/((n-1) w') - 1/s, whose singularity
    at 0 is removable because w' ~ w2 s there; r' comes from a fourth-order
    stencil so the defining ODE stays an independent residual check.
    """
    phi0j = eval_jet2(phi, 0.0)
    _check_sign(curve, phi0j.v)
    t = curve.t
    # limit at s = 0 from w ~ (w2/2) s^2 + (w3/6) s^3
    limit0 = phi0j.d1 / phi0j.v - curve.w3 / (2.0 * curve.w2) if curve.w2 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = _phi_at(phi, t) / ((n - 1) * curve.p) - 1.0 / t
    if t[0] == 0.0:
        integrand[0] = limit0
    J = _cumulative_potential_integral(curve, integrand, limit0)

    grid, start = _profile_layout(curve)
    r = grid * np.exp(_to_grid(J, start, 0.0, grid.size))
    r[0] = 0.0
    rp = fourth_order_derivative(r, float(grid[2] - grid[1]))
    rp[0] = 1.0  # exact by construction: r = t exp(J), J(0) = 0
    if np.any(rp <= 0):
        bad = grid[np.argmax(rp <= 0)]
        raise ReconstructionError(f"monotonicity lost: r'({bad:.6g}) <= 0")
    return grid, r, rp


def solve_f(curve: PotentialCurve, phi: Expr, n: int):
    """Conformal exponent f with f(0) = 0; returns (grid, f, fp).

    f' = -(phi/(n-1)) (w/w') is exact on the samples, so the second defining
    ODE holds to rounding by construction.
    """
    phi0j = eval_jet2(phi, 0.0)
    _check_sign(curve, phi0j.v)
    t = curve.t
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (_phi_at(phi, t) / (n - 1)) * (curve.w / curve.p)
    if t[0] == 0.0:
        integrand[0] = 0.0  # w/w' -> 0 at s = 0
    F = _cumulative_potential_integral(curve, integrand, 0.0)

    grid, start = _profile_layout(curve)
    f = -_to_grid(F, start, 0.0, grid.size)
    f[0] = 0.0
    fp = -_to_grid(integrand, start, 0.0, grid.size)
    fp[0] = 0.0
    return grid, f, fp


def assemble_metric(n: int, grid, f, fp, r, rp) -> MetricProfile:
    """Pack samples into a MetricProfile, enforcing the profile invariants."""
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    fp = np.asarray(fp, dtype=float)
    if grid[0] != 0.0:
        raise ReconstructionError(f"grid must start at 0, got {grid[0]}")
    if r[0] != 0.0:
        raise ReconstructionError(f"r(0) = {r[0]}, expected 0")
    if abs(rp[0] - 1.0) > 1e-8:
        raise ReconstructionError(f"r'(0) = {rp[0]}, expected 1")
    if f[0] != 0.0:
        raise ReconstructionError(f"f(0) = {f[0]}, expected 0")
    if np.any(rp <= 0):
        bad = grid[np.argmax(rp <= 0)]
        raise ReconstructionError(f"r' <= 0 at grid point t = {bad:.6g}")
    if not np.all(np.isfinite(f)):
        bad = grid[np.argmax(~np.isfinite(f))]
        raise ReconstructionError(f"f not finite at grid point t = {bad:.6g}")
    return MetricProfile(n=n, grid=grid, f=f, r=r, rp=rp, fp=fp)


def verify_ricci(profile: MetricProfile, T: RotSymTensor, t_lo: float, t_hi: float):
    """Componentwise defect of the forward map against the target tensor.

    Returns (res_rr, res_tt) = (max |alpha (r')^2 - phi|, max |r^2 beta - t^2 psi|)
    over grid points in [t_lo, t_hi]; t_lo > 0 keeps the removable coordinate
    singularity at the origin out of the scan.
    """
    if not 0 < t_lo < t_hi <= profile.grid[-1] + 1e-12:
        raise ValueError(f"need 0 < t_lo < t_hi <= {profile.grid[-1]}")
    alpha, beta = ricci_forward_samples(profile)
    mask = (profile.grid >= t_lo) & (profile.grid <= t_hi)
    ts = profile.grid[mask]
    phis = _phi_at(T.phi, ts)
    psis = np.array([eval_jet2(T.psi, t).v for t in ts])
    res_rr = float(np.max(np.abs(alpha[mask] * profile.rp[mask] ** 2 - phis)))
    res_tt = float(np.max(np.abs(profile.r[mask] ** 2 * beta[mask] - ts**2 * psis)))
    return res_rr, res_tt


def ricci_potential_from_profile(profile: MetricProfile) -> np.ndarray:
    """w = -r f'/r' on the profile grid (w(0) = 0 since r(0) = 0)."""
    return -profile.r * profile.fp / profile.rp


@dataclass
class ReconstructionResult:
    profile: MetricProfile
    residual_r: float
    residual_f: float
    ricci_residuals: tuple[float, float]
    w: np.ndarray  # potential samples aligned with profile.grid
    p: np.ndarray


FOLD_TRIM_SAMPLES = 4


def trim_fold_tail(curve: PotentialCurve, samples: int = FOLD_TRIM_SAMPLES) -> PotentialCurve:
    """Drop the last samples of a fold-halted curve.

    Approaching the fold, w' ~ sqrt(t* - t), so the quadrature integrands
    blow up like an inverse square root; the last few steps cannot be
    resolved on the uniform grid and are excluded from reconstruction.
    """
    if curve.halt_reason != "fold_contact" or curve.t.size <= samples:
        return curve
    return PotentialCurve(
        n=curve.n,
        t=curve.t[:-samples],
        w=curve.w[:-samples],
        p=curve.p[:-samples],
        delta=curve.delta,
        w2=curve.w2,
        w3=curve.w3,
        halt_reason=curve.halt_reason,
        halt_detail=curve.halt_detail,
        constraint_max=curve.constraint_max,
    )


def reconstruct_profile(
    curve: PotentialCurve,
    T: RotSymTensor,
    t_lo: float | None = None,
    t_hi: float | None = None,
) -> ReconstructionResult:
    """Run both quadratures, assemble the profile and evaluate all residuals."""
    n = T.n
    curve = trim_fold_tail(curve)
    grid, r_vals, rp = solve_r(curve, T.phi, n)
    _, f_vals, fp = solve_f(curve, T.phi, n)
    profile = assemble_metric(n, grid, f_vals, fp, r_vals, rp)

    _, start = _profile_layout(curve)
    w = _to_grid(curve.w, start, 0.0, grid.size)
    p = _to_grid(curve.p, start, 0.0, grid.size)
    phis = _phi_at(T.phi, grid)
    residual_r = float(np.max(np.abs((n - 1) * p * rp - phis * r_vals)))
    residual_f = float(np.max(np.abs((n - 1) * p * fp + w * phis)))

    if t_lo is None:
        t_lo = 0.05 * T.t_max
    if t_hi is None:
        t_hi = float(grid[-1])
    t_hi = min(t_hi, float(grid[-1]))
    ricci_res = verify_ricci(profile, T, t_lo, t_hi)
    return ReconstructionResult(
        profile=profile,
        residual_r=residual_r,
        residual_f=residual_f,
        ricci_residuals=ricci_res,
        w=w,
        p=p,
    )
