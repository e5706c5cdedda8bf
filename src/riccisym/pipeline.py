"""End-to-end solver.  branch, the front half shared by solve and the CLI's
analyze, validates the target tensor and integrates the potential; solve
then reconstructs the metric profile and verifies the result.  branch_record
writes what branch returns: analyze's report, and solve's before its residuals."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import potential, reconstruct
from .potential import GlobalReport, PotentialCurve, SaddleReport
from .reconstruct import ReconstructionResult
from .rotsym import DefinitenessError, DefinitenessVerdict, RotSymTensor, definiteness_check


@dataclass
class Solution:
    verdict: DefinitenessVerdict
    saddle: SaddleReport | None
    curve: PotentialCurve
    recon: ReconstructionResult
    global_report: GlobalReport | None


def branch(
    T: RotSymTensor,
    step: float = 1e-3,
    delta: float | None = None,
) -> tuple[DefinitenessVerdict, SaddleReport | None, PotentialCurve, GlobalReport | None]:
    """(verdict, saddle, curve, global report) of a target that passes the
    definiteness scan; one that fails it raises DefinitenessError.

    A delta that seed_offset refuses raises ValueError before any work,
    also at n = 2, which goes through direct quadrature, with no saddle and
    no report; n > 2 seeds and integrates the folded-saddle branch and checks
    that it continues globally.
    """
    potential.seed_offset(T.t_max, step, delta)
    verdict = definiteness_check(T)
    if not verdict.is_definite:
        raise DefinitenessError(verdict)
    if T.n == 2:
        return verdict, None, potential.solve_n2(T, step), None
    saddle, curve = potential.solve_branch(T, step, delta=delta)
    return verdict, saddle, curve, potential.check_global(T, curve)


def solve(T: RotSymTensor, step: float = 1e-3, delta: float | None = None,
          t_lo: float | None = None) -> Solution:
    """branch, then recovery of (r, f) by quadrature with every residual.

    A delta seed_offset refuses, or a step that leaves a curve reaching
    t_max fewer samples than a profile needs, raises ValueError before any work.
    """
    samples = potential.curve_samples(T, step, delta)
    if samples < reconstruct.MIN_PROFILE_SAMPLES:
        raise ValueError(
            f"step {step:g} leaves {samples} samples up to t_max {T.t_max:g}, "
            f"fewer than the {reconstruct.MIN_PROFILE_SAMPLES} a profile needs"
        )
    verdict, saddle, curve, global_report = branch(T, step, delta)
    try:
        recon = reconstruct.reconstruct_profile(curve, T, t_lo=t_lo)
    except reconstruct.CurveTooShortError as err:
        raise reconstruct.CurveTooShortError(
            f"{err}; step {step:g}, t_max {T.t_max:g}"
        ) from None
    return Solution(verdict, saddle, curve, recon, global_report)


def branch_record(verdict: DefinitenessVerdict, saddle: SaddleReport | None,
                  curve: PotentialCurve, global_report: GlobalReport | None) -> str:
    """The lines of what branch returns: the definiteness, the saddle and
    the branch's series at the origin, the halt, the drift and the work,
    then for n > 2 the continuation check.  A line with nothing to report
    (no work counted, no fold root, a fold never real) is left out."""
    lines = [f"definiteness: {verdict.kind}"]
    if saddle is not None:
        lines.append(f"saddle eigenvalues: lam1 = {saddle.lam1:.12g}, lam2 = {saddle.lam2:.12g}")
        lines.append(f"branch series: w2 = {saddle.w2:.12g}, w3 = {saddle.w3:.12g}"
                     " (w'' and w''' at the origin)")
    lines.append(f"halt: {curve.halt_reason}"
                 + (f" ({curve.halt_detail})" if curve.halt_detail else ""))
    lines.append(f"max |F| along curve: {curve.constraint_max:.3e}")
    if curve.work is not None:
        lines.append("integration work: " + ", ".join(f"{k} = {v}" for k, v in curve.work.items()))
    if global_report is not None:
        g = global_report
        lines.append(f"fold margin: {g.fold_margin:.3e}")
        if g.fold_roots:
            lines.append("fold regularity roots: " + ", ".join(f"{r:.6g}" for r in g.fold_roots))
        if not math.isnan(g.fold_gap):
            lines.append(f"least relative fold gap: {g.fold_gap:.3e} at t = {g.fold_gap_t:.6g}")
        lines.append(f"verdict: {g.verdict}")
        lines.extend(f"note: {note}" for note in g.notes)
    return "\n".join(lines) + "\n"


def solution_summary(sol: Solution) -> str:
    """solve's report: the branch_record, then the residuals of the profile."""
    res = sol.recon
    radial, tangential = res.ricci_residuals
    return branch_record(sol.verdict, sol.saddle, sol.curve, sol.global_report) + (
        f"residual (n-1) w' r' - phi r : {res.residual_r:.3e}\n"
        f"residual (n-1) w' f' + w phi : {res.residual_f:.3e}\n"
        f"ricci residuals: radial {radial:.3e}, tangential {tangential:.3e}\n"
    )
