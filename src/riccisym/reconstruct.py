"""Recover the metric profile (r, f) from an integrated Ricci potential.

Given a potential curve w(t) with w' = p and a radial coefficient phi, the
profile follows from explicit quadratures:

    r(t) = t exp( int_0^t [ phi(s) / ((n-1) w'(s)) - 1/s ] ds )
    f(t) = - int_0^t (phi / (n-1)) (w / w') ds            (f(0) = 0)

Both integrands have removable singularities at s = 0; their limit values
come from the series coefficients w2, w3 carried by the curve.  solve_rf
runs both quadratures in one pass over one sample of phi on the curve, and
lays them out on the profile grid together with phi, w and w' there, so a
reconstruction samples phi once.  The singular ODE forms

    (n-1) w' r' - phi r = 0        (n-1) w' f' + w phi = 0

are not re-integrated.  r' and f' are both returned from them, on every
sample, so the Ricci identities never see a finite difference of r.  They
are also kept as residual checks on the output; for the first one r' is
differentiated numerically from the r samples by a fourth-order stencil
(only there), so it stays an independent consistency check of the
quadrature for r.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson

from .exprfn import Expr, eval_jet2, sample
from .potential import PotentialCurve
from .rotsym import (
    MetricProfile,
    RotSymTensor,
    fourth_order_derivative,
    ricci_forward_samples,
)


class ReconstructionError(RuntimeError):
    pass


class CurveTooShortError(ReconstructionError):
    """The curve has fewer samples than the profile stencils need."""


MIN_PROFILE_SAMPLES = 6


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
    The first sample (t = 0 for direct quadrature, the seed offset for
    lifted-field curves) is dropped (start = 1) unless it is positive and
    already lies on the uniform step grid (start = 0), so stencil code
    always sees equal spacing.
    """
    t = curve.t
    if t.size < MIN_PROFILE_SAMPLES:
        halt = curve.halt_reason + (f", {curve.halt_detail}" if curve.halt_detail else "")
        raise CurveTooShortError(
            f"curve too short to reconstruct a profile: {t.size} samples, "
            f"{MIN_PROFILE_SAMPLES} needed (halt: {halt})"
        )
    on_step_grid = abs((t[1] - t[0]) - (t[2] - t[1])) <= 1e-9 * (t[2] - t[1])
    start = 0 if t[0] > 0.0 and on_step_grid else 1
    grid = np.concatenate([[0.0], t[start:]])
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
    first entry must already hold the removable-singularity limit.  The
    short [0, t[0]] piece is bridged with a trapezoid against the series
    limit, orders of magnitude below the target tolerances since the seed
    offset is tiny (and zero when the curve starts at t = 0).
    """
    vals = cumulative_simpson(integrand, x=curve.t, initial=0.0)
    return vals + 0.5 * (limit0 + integrand[0]) * curve.t[0]


class Quadrature(NamedTuple):
    """Samples on the profile grid from one quadrature pass (see solve_rf)."""

    grid: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    phi: np.ndarray  # phi(0) at grid[0]
    w: np.ndarray
    p: np.ndarray


def solve_rf(curve: PotentialCurve, phi: Expr, n: int) -> Quadrature:
    """Radius r(t) = t exp(J(t)) and conformal exponent f with f(0) = 0.

    J is the cumulative integral of phi/((n-1) w') - 1/s, whose singularity
    at 0 is removable because w' ~ w2 s there.  r' is taken from the
    defining ODE (n-1) w' r' = phi r that the quadrature integrates; the
    stencil derivative of r is used only for residual_r in
    reconstruct_profile.  f' = -(phi/(n-1)) (w/w') is exact on the samples,
    so the second defining ODE holds to rounding by construction.  Every
    profile-grid point is 0 or a curve sample, so phi is sampled once, on
    curve.t, and its jet at 0.
    """
    phi0j = eval_jet2(phi, 0.0)
    _check_sign(curve, phi0j.v)
    t = curve.t
    # limit at s = 0 from w ~ (w2/2) s^2 + (w3/6) s^3
    limit0 = phi0j.d1 / phi0j.v - curve.w3 / (2.0 * curve.w2) if curve.w2 else 0.0
    phis = sample(t, phi)[0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand_r = phis / ((n - 1) * curve.p) - 1.0 / t
        integrand_f = (phis / (n - 1)) * (curve.w / curve.p)
    if t[0] == 0.0:
        integrand_r[0] = limit0
        integrand_f[0] = 0.0  # w/w' -> 0 at s = 0
    J = _cumulative_potential_integral(curve, integrand_r, limit0)
    F = _cumulative_potential_integral(curve, integrand_f, 0.0)

    grid, start = _profile_layout(curve)

    def on_grid(values, zero_value=0.0):
        return _to_grid(values, start, zero_value, grid.size)

    with np.errstate(over="ignore"):  # an overflow is reported by assemble_metric
        r = grid * np.exp(on_grid(J))
    r[0] = 0.0
    phi_g, p_g = on_grid(phis, phi0j.v), on_grid(curve.p)
    with np.errstate(divide="ignore", invalid="ignore"):
        rp = phi_g * r / ((n - 1) * p_g)
    rp[0] = 1.0  # exact by construction: r = t exp(J), J(0) = 0
    if np.any(rp <= 0):
        bad = grid[np.argmax(rp <= 0)]
        raise ReconstructionError(f"monotonicity lost: r'({bad:.6g}) <= 0")
    f = -on_grid(F)
    f[0] = 0.0
    fp = -on_grid(integrand_f)
    fp[0] = 0.0
    return Quadrature(grid, r, rp, f, fp, phi_g, on_grid(curve.w), p_g)


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
    for name, x in (("r", r), ("f", f)):
        if not np.all(np.isfinite(x)):
            bad = grid[np.argmax(~np.isfinite(x))]
            raise ReconstructionError(f"{name} not finite at grid point t = {bad:.6g}")
    return MetricProfile(n=n, grid=grid, f=f, r=r, rp=rp, fp=fp)


def _residual_window(grid: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    if not 0 < t_lo < t_hi <= grid[-1] + 1e-12:
        raise ValueError(f"need 0 < t_lo < t_hi <= {grid[-1]}")
    return (grid >= t_lo) & (grid <= t_hi)


def ricci_defects(profile: MetricProfile, mask, phis, psis):
    """Per-point (|alpha (r')^2 - phi|, |r^2 beta - t^2 psi|) on profile.grid[mask].

    phis and psis are the target values at those points; mask is a boolean
    array or a slice.
    """
    alpha, beta = ricci_forward_samples(profile)
    ts = profile.grid[mask]
    res_rr = np.abs(alpha[mask] * profile.rp[mask] ** 2 - phis)
    res_tt = np.abs(profile.r[mask] ** 2 * beta[mask] - ts**2 * psis)
    return res_rr, res_tt


def verify_ricci(profile: MetricProfile, T: RotSymTensor, t_lo: float, t_hi: float):
    """Componentwise defect of the forward map against the target tensor.

    Returns (res_rr, res_tt) = (max |alpha (r')^2 - phi|, max |r^2 beta - t^2 psi|)
    over grid points in [t_lo, t_hi]; t_lo > 0 keeps the removable coordinate
    singularity at the origin out of the scan.
    """
    mask = _residual_window(profile.grid, t_lo, t_hi)
    ts = profile.grid[mask]
    res_rr, res_tt = ricci_defects(profile, mask, sample(ts, T.phi)[0, 0], sample(ts, T.psi)[0, 0])
    return float(np.max(res_rr)), float(np.max(res_tt))


def ricci_potential_from_profile(profile: MetricProfile) -> np.ndarray:
    """w = -r f'/r' on the profile grid (w(0) = 0 since r(0) = 0)."""
    return -profile.r * profile.fp / profile.rp


@dataclass
class ReconstructionResult:
    profile: MetricProfile
    residual_r: float
    residual_f: float
    ricci_residuals: tuple[float, float]  # maxima of res_rr, res_tt over [t_lo, grid[-1]]
    w: np.ndarray  # potential samples aligned with profile.grid
    p: np.ndarray
    res_rr: np.ndarray  # per-point Ricci defects on profile.grid (see ricci_defects)
    res_tt: np.ndarray


FOLD_TRIM_SAMPLES = 4


def trim_fold_tail(curve: PotentialCurve) -> PotentialCurve:
    """Drop the last FOLD_TRIM_SAMPLES samples of a curve that ends at a fold contact.

    Approaching the fold, w' ~ sqrt(t* - t), so the quadrature integrands
    blow up like an inverse square root; the last few steps cannot be
    resolved on the uniform grid and are excluded from reconstruction.
    """
    k = FOLD_TRIM_SAMPLES
    if curve.halt_reason != "fold_contact" or curve.t.size <= k:
        return curve
    return replace(curve, t=curve.t[:-k], w=curve.w[:-k], p=curve.p[:-k])


def reconstruct_profile(
    curve: PotentialCurve, T: RotSymTensor, t_lo: float | None = None
) -> ReconstructionResult:
    """Run both quadratures, assemble the profile and evaluate all residuals.

    phi is sampled once, by solve_rf, and psi once on the profile grid; the
    Ricci residuals are the maxima of the per-point defects over
    [t_lo, grid[-1]], t_lo defaulting to 0.05 t_max.
    """
    n = T.n
    q = solve_rf(trim_fold_tail(curve), T.phi, n)
    grid, p = q.grid, q.p
    profile = assemble_metric(n, grid, q.f, q.fp, q.r, q.rp)

    # stencil r', not profile.rp: the ODE r' would make this 0 by construction
    rp_fd = fourth_order_derivative(q.r, float(grid[2] - grid[1]))
    residual_r = float(np.max(np.abs((n - 1) * p * rp_fd - q.phi * q.r)))
    residual_f = float(np.max(np.abs((n - 1) * p * q.fp + q.w * q.phi)))

    if t_lo is None:
        t_lo = 0.05 * T.t_max
    window = _residual_window(grid, t_lo, float(grid[-1]))
    res_rr, res_tt = ricci_defects(profile, slice(None), q.phi, sample(grid, T.psi)[0, 0])
    return ReconstructionResult(
        profile=profile,
        residual_r=residual_r,
        residual_f=residual_f,
        ricci_residuals=(float(np.max(res_rr[window])), float(np.max(res_tt[window]))),
        w=q.w,
        p=p,
        res_rr=res_rr,
        res_tt=res_tt,
    )
