"""Recover the metric profile (r, f) from an integrated Ricci potential.

Given a potential curve w(t) with w' = p and a radial coefficient phi, the
profile follows from explicit quadratures:

    r(t) = t exp( int_0^t [ phi(s) / ((n-1) w'(s)) - 1/s ] ds )
    f(t) = - int_0^t (phi / (n-1)) (w / w') ds            (f(0) = 0)

Both integrands have removable singularities at s = 0; their limit values
come from the series coefficients w2, w3 carried by the curve.  solve_rf
runs both quadratures in one pass over the phi values the curve carries
(the solve sampled them on its way), and lays them out on the profile grid
together with phi, w and w' there; reconstruct_profile takes psi from the
curve too, so a reconstruction evaluates the target only at t = 0.  The
singular ODE forms

    (n-1) w' r' - phi r = 0        (n-1) w' f' + w phi = 0

are not re-integrated.  r' and f' are both returned from them, on every
sample, so the Ricci identities never see a finite difference of r.  They
are also kept as residual checks on the output; for the first one r' is
differentiated numerically from the r samples by a fourth-order stencil
(only there), so it stays an independent consistency check of the
quadrature for r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exprfn import Expr, eval_jet2, sample
from .potential import PotentialCurve, cumulative_simpson
from .rotsym import (
    MetricProfile,
    RotSymTensor,
    fourth_order_derivative,
    ricci_pullback,
)


class ReconstructionError(RuntimeError):
    pass


class CurveTooShortError(ReconstructionError):
    """The curve has fewer samples than the profile stencils need."""


MIN_PROFILE_SAMPLES = 6


def _check_sign(t: np.ndarray, p: np.ndarray, phi0: float):
    pos = t > 0
    early = p[pos][: min(10, int(np.sum(pos)))]
    if early.size == 0 or np.any(early * np.sign(phi0) <= 0):
        raise ReconstructionError(
            "potential slope violates p * sign(phi(0)) > 0 near t = 0"
        )


def _halt_text(curve: PotentialCurve) -> str:
    return curve.halt_reason + (f", {curve.halt_detail}" if curve.halt_detail else "")


FOLD_TRIM_SAMPLES = 4


def _profile_layout(curve: PotentialCurve):
    """How a curve lies on the profile grid, as (stop, cols).

    The quadratures run over curve[:stop]: all of it, less the last
    FOLD_TRIM_SAMPLES at a fold contact, where w' ~ sqrt(t* - t) makes the
    integrands blow up beyond what the uniform grid resolves.  The grid is
    0, then curve.t[cols]: the first sample (0 at n = 2, else the seed) only
    if it lies on the step grid (delta = step), and no last sample off it
    (t_end no multiple of the step), so stencils see equal spacing.  Fewer
    than MIN_PROFILE_SAMPLES samples raise CurveTooShortError, a grid still
    not uniform ReconstructionError.
    """
    t = curve.t
    trim = curve.halt_reason == "fold_contact" and t.size > FOLD_TRIM_SAMPLES
    stop = t.size - FOLD_TRIM_SAMPLES * trim
    if stop < MIN_PROFILE_SAMPLES:
        raise CurveTooShortError(
            f"curve too short to reconstruct a profile: {stop} samples, "
            f"{MIN_PROFILE_SAMPLES} needed (halt: {_halt_text(curve)})"
        )
    on_step_grid = abs((t[1] - t[0]) - (t[2] - t[1])) <= 1e-9 * (t[2] - t[1])
    start = 0 if t[0] > 0.0 and on_step_grid else 1
    steps = np.diff(t[start:stop], prepend=0.0)
    end = stop - int(abs(steps[-1] - steps[0]) > 1e-9 * abs(steps[0]))  # t_end off the grid
    steps = steps[: end - start]
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ReconstructionError(
            "profile grid is not uniform: the curve's samples past the seed "
            "are not the multiples of one step"
        )
    return stop, slice(start, end)


def _cumulative_potential_integral(t: np.ndarray, integrand: np.ndarray, limit0: float):
    """Cumulative integral from 0, aligned with t.

    integrand is aligned with t; when t starts at 0 its first entry must
    already hold the removable-singularity limit.  The short [0, t[0]]
    piece is bridged with a trapezoid against the series limit, orders of
    magnitude below the target tolerances since the seed offset is tiny
    (and zero when t starts at 0).
    """
    vals = cumulative_simpson(integrand, t)
    return vals + 0.5 * (limit0 + integrand[0]) * t[0]


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
    cols: slice  # grid[1:] is curve.t[cols], as _profile_layout lays it out


def solve_rf(curve: PotentialCurve, phi: Expr, n: int) -> Quadrature:
    """Radius r(t) = t exp(J(t)) and conformal exponent f with f(0) = 0.

    J is the cumulative integral of phi/((n-1) w') - 1/s, whose singularity
    at 0 is removable because w' ~ w2 s there.  _profile_layout decides the
    samples both quadratures run over and the profile grid, before any
    quadrature.  r' is taken from the defining ODE (n-1) w' r' = phi r that
    the quadrature integrates; the stencil derivative of r is used only for
    residual_r in reconstruct_profile.  f' = -(phi/(n-1)) (w/w') is exact on
    the samples, so the second defining ODE holds to rounding by
    construction.  Every profile-grid point is 0 or a curve sample, so phi
    is read from curve.phi and evaluated only at 0, to first order.  An
    r' <= 0 or a non-finite r or f raises ReconstructionError, so the
    samples meet the MetricProfile invariants.
    """
    stop, cols = _profile_layout(curve)
    t, w, p, phis = curve.t[:stop], curve.w[:stop], curve.p[:stop], curve.phi[:stop]
    phi0j = eval_jet2(phi.first_order, 0.0)
    _check_sign(t, p, phi0j.v)
    # limit at s = 0 from w ~ (w2/2) s^2 + (w3/6) s^3
    limit0 = phi0j.d1 / phi0j.v - curve.w3 / (2.0 * curve.w2) if curve.w2 else 0.0
    with np.errstate(all="ignore"):  # a non-finite r or f is reported below
        integrand_r = phis / ((n - 1) * p) - 1.0 / t
        integrand_f = (phis / (n - 1)) * (w / p)
    if t[0] == 0.0:
        integrand_r[0] = limit0
        integrand_f[0] = 0.0  # w/w' -> 0 at s = 0
    J = _cumulative_potential_integral(t, integrand_r, limit0)
    F = _cumulative_potential_integral(t, integrand_f, 0.0)

    def on_grid(values, zero_value=0.0):  # curve-aligned values on the profile grid
        return np.concatenate([[zero_value], values[cols]])

    grid = on_grid(t)
    with np.errstate(over="ignore"):  # an overflow is reported below
        r = grid * np.exp(on_grid(J))
    r[0] = 0.0
    phi_g, p_g = on_grid(phis, phi0j.v), on_grid(p)
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
    for name, x in (("r", r), ("f", f)):
        if not np.all(np.isfinite(x)):
            bad = grid[np.argmax(~np.isfinite(x))]
            raise ReconstructionError(f"{name} not finite at grid point t = {bad:.6g}")
    return Quadrature(grid, r, rp, f, fp, phi_g, on_grid(w), p_g, cols)


def _residual_window(grid: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    if not 0 < t_lo < t_hi <= grid[-1] + 1e-12:
        raise ValueError(f"need 0 < t_lo < t_hi <= {grid[-1]}")
    return (grid >= t_lo) & (grid <= t_hi)


def window_start(t_lo: float | None, t_max: float) -> float:
    """The residual window starts at t_lo, by default at 0.05 t_max."""
    return 0.05 * t_max if t_lo is None else t_lo


def ricci_defects(profile: MetricProfile, mask, phis, psis):
    """Per-point (|alpha (r')^2 - phi|, |r^2 beta - t^2 psi|) on profile.grid[mask].

    phis and psis are the target values at those points; mask is a boolean
    array or a slice.  An overflow gives an inf or NaN defect, and no
    warning: the residual gates fail it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi_hat, t2_psi_hat = ricci_pullback(profile)
        ts = profile.grid[mask]
        return np.abs(phi_hat[mask] - phis), np.abs(t2_psi_hat[mask] - ts**2 * psis)


def verify_ricci(profile: MetricProfile, T: RotSymTensor, t_lo: float, t_hi: float):
    """Componentwise defect of the forward map against the target tensor.

    Returns (res_rr, res_tt) = (max |alpha (r')^2 - phi|, max |r^2 beta - t^2 psi|)
    over grid points in [t_lo, t_hi]; t_lo > 0 keeps the removable coordinate
    singularity at the origin out of the scan.
    """
    mask = _residual_window(profile.grid, t_lo, t_hi)
    ts = profile.grid[mask]
    phis, psis = sample(ts, T.phi.first_order, T.psi.first_order)[:, 0]
    res_rr, res_tt = ricci_defects(profile, mask, phis, psis)
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
    ricci_residual_t: tuple[float, float]  # the t of each (the first NaN if any)
    w: np.ndarray  # potential samples aligned with profile.grid
    p: np.ndarray
    res_rr: np.ndarray  # per-point Ricci defects on profile.grid (see ricci_defects)
    res_tt: np.ndarray


def reconstruct_profile(
    curve: PotentialCurve, T: RotSymTensor, t_lo: float | None = None
) -> ReconstructionResult:
    """Run both quadratures, build the profile and evaluate all residuals.

    phi and psi on the profile grid are the curve's values and their
    first-order values at 0, so no curve abscissa is sampled again; the
    Ricci residuals are the maxima of the per-point defects over
    [t_lo, grid[-1]], t_lo defaulting to 0.05 t_max.
    """
    n = T.n
    q = solve_rf(curve, T.phi, n)
    grid, p = q.grid, q.p
    profile = MetricProfile(n, grid, q.f, q.r, q.rp, q.fp)

    # stencil r', not profile.rp: the ODE r' would make this 0 by construction
    rp_fd = fourth_order_derivative(q.r, float(grid[2] - grid[1]))
    residual_r = float(np.max(np.abs((n - 1) * p * rp_fd - q.phi * q.r)))
    residual_f = float(np.max(np.abs((n - 1) * p * q.fp + q.w * q.phi)))

    t_lo = window_start(t_lo, T.t_max)
    if curve.halt_reason != "t_end" and grid[-1] <= t_lo < T.t_max:
        # the branch, not the window, is at fault: a t_lo past t_max stays a config error
        raise CurveTooShortError(
            f"profile ends at t = {grid[-1]:.6g}, before t_lo = {t_lo:.6g} "
            f"(halt: {_halt_text(curve)})"
        )
    window = _residual_window(grid, t_lo, float(grid[-1]))
    psi0 = eval_jet2(T.psi.first_order, 0.0).v
    psi = np.concatenate([[psi0], curve.psi[q.cols]])
    res_rr, res_tt = ricci_defects(profile, slice(None), q.phi, psi)
    at = [int(np.argmax(res[window])) for res in (res_rr, res_tt)]  # argmax finds NaN first
    return ReconstructionResult(
        profile=profile,
        residual_r=residual_r,
        residual_f=residual_f,
        ricci_residuals=(float(res_rr[window][at[0]]), float(res_tt[window][at[1]])),
        ricci_residual_t=(float(grid[window][at[0]]), float(grid[window][at[1]])),
        w=q.w,
        p=p,
        res_rr=res_rr,
        res_tt=res_tt,
    )
