"""End-to-end solver: validate the target tensor, integrate the potential,
reconstruct the metric profile and verify the result."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import potential, reconstruct
from .potential import GlobalReport, PotentialCurve, SaddleReport
from .reconstruct import ReconstructionResult
from .rotsym import DefinitenessError, DefinitenessVerdict, RotSymTensor, definiteness_check


@dataclass
class Solution:
    tensor: RotSymTensor
    verdict: DefinitenessVerdict
    saddle: SaddleReport | None
    curve: PotentialCurve
    recon: ReconstructionResult
    global_report: GlobalReport | None


def solve(
    T: RotSymTensor,
    step: float = 1e-3,
    delta: float | None = None,
    t_lo: float | None = None,
    constraint_tol: float = potential.PROJECTION_TOL,
) -> Solution:
    """Full pipeline for a validated tensor.

    n = 2 goes through direct quadrature (no saddle analysis); n > 2 seeds
    and integrates the folded-saddle branch, then both recover (r, f) by
    quadrature and report every residual.
    """
    verdict = definiteness_check(T)
    if not verdict.is_definite:
        raise DefinitenessError(verdict)

    if T.n == 2:
        sign = 1 if verdict.phi0 > 0 else -1
        curve = potential.solve_n2(T.phi, T.psi, sign, T.t_max, step)
        saddle = None
        global_report = None
    else:
        saddle, curve = potential.solve_branch(
            T, step, delta=delta, projection_tol=constraint_tol
        )
        global_report = potential.check_global(T, curve)

    try:
        recon = reconstruct.reconstruct_profile(curve, T, t_lo=t_lo)
    except reconstruct.CurveTooShortError as err:
        raise reconstruct.CurveTooShortError(
            f"{err}; step {step:g}, t_max {T.t_max:g}"
        ) from None
    return Solution(
        tensor=T,
        verdict=verdict,
        saddle=saddle,
        curve=curve,
        recon=recon,
        global_report=global_report,
    )


def solution_summary(sol: Solution) -> str:
    """Human-readable report: saddle data, halt reason, residuals, margins."""
    lines = [f"definiteness: {sol.verdict.kind}"]
    if sol.saddle is not None:
        s = sol.saddle
        lines.append(
            f"saddle eigenvalues: lam1 = {s.lam1:.12g}, lam2 = {s.lam2:.12g}"
        )
        lines.append(f"branch curvature w2 = {s.w2:.12g} (w'' at the origin)")
    lines.append(f"halt: {sol.curve.halt_reason}"
                 + (f" ({sol.curve.halt_detail})" if sol.curve.halt_detail else ""))
    lines.append(f"max |F| along curve: {sol.curve.constraint_max:.3e}")
    res = sol.recon
    lines.append(f"residual (n-1) w' r' - phi r : {res.residual_r:.3e}")
    lines.append(f"residual (n-1) w' f' + w phi : {res.residual_f:.3e}")
    lines.append(
        "ricci residuals: radial {0:.3e}, tangential {1:.3e}".format(
            *res.ricci_residuals
        )
    )
    if sol.global_report is not None:
        g = sol.global_report
        lines.append(
            f"continuation margins: |grad F| >= {g.grad_margin:.3e}, "
            f"fold margin {g.fold_margin:.3e}"
        )
        if g.fold_roots:
            lines.append(
                "fold regularity roots: "
                + ", ".join(f"{r:.6g}" for r in g.fold_roots)
            )
        if not math.isnan(g.curve_fold_distance):
            lines.append(f"min curve-to-fold distance: {g.curve_fold_distance:.3e}")
        lines.append(f"verdict: {g.verdict}")
        for note in g.notes:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
