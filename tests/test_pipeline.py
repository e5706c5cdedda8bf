import hashlib

import numpy as np
import pytest

from riccisym import (
    DefinitenessError,
    EvalError,
    RotSymTensor,
    definiteness_check,
    parse,
    potential,
    reconstruct,
    rotsym,
    solution_summary,
    solve,
)


def test_solve_gold_end_to_end():
    T = RotSymTensor(3, parse("8"), parse("8 - 4*t^2"), 0.5)
    sol = solve(T, step=1e-3)
    assert sol.verdict.kind == "positive_definite"
    assert sol.saddle is not None and abs(sol.saddle.w2 - 4.0) < 1e-12
    assert sol.curve.halt_reason == "t_end"
    assert max(sol.recon.ricci_residuals) < 1e-6
    text = solution_summary(sol)
    for needle in ("lam1 = 16", "w2 = 4", "halt: t_end", "verdict:"):
        assert needle in text


def test_solve_rejects_singular_tensor():
    T = RotSymTensor(3, parse("t"), parse("t"), 1.0)
    with pytest.raises(DefinitenessError, match="singular tensor at t = 0"):
        solve(T)


def test_solve_rejects_inconsistent_tensor():
    T = RotSymTensor(3, parse("1"), parse("2"), 1.0)
    with pytest.raises(DefinitenessError, match="phi"):
        solve(T)


def test_solve_fold_contact_produces_partial_profile():
    # definite on [0, 0.46] but the branch meets the fold near t = 0.41
    T = RotSymTensor(3, parse("1"), parse("1 - 4*t^2"), 0.46)
    sol = solve(T, step=1e-3)
    assert sol.curve.halt_reason == "fold_contact"
    assert sol.global_report.verdict == "hypothesis_failed"
    # the fold regularity root 1/(2 sqrt(2)) is reported
    assert any(abs(r - 0.3535533906) < 1e-6 for r in sol.global_report.fold_roots)
    prof = sol.recon.profile
    assert prof.grid[-1] < sol.curve.t[-1]  # unresolvable tail trimmed
    assert np.all(prof.rp > 0)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("a", [1e-6, -1e-6, 1e-10])
def test_solve_a_small_target_reaches_t_end(n, a):
    # the fold threshold on |F_p| = 2|p| scales with phi(0) below 1
    T = RotSymTensor(n, parse(f"{a}"), parse(f"{a}"), 1.0)
    sol = solve(T, step=1e-3)
    assert sol.curve.halt_reason == "t_end"
    assert sol.global_report.verdict == "global_continuation_expected"
    assert max(sol.recon.ricci_residuals) < 1e-12 * abs(a)


def test_solve_negative_definite_mirror():
    T = RotSymTensor(3, parse("-1"), parse("-1"), 0.5)
    sol = solve(T, step=1e-3)
    assert sol.verdict.kind == "negative_definite"
    assert np.all(sol.curve.p < 0)
    assert max(sol.recon.ricci_residuals) < 1e-6


def test_solve_n2_path():
    T = RotSymTensor(2, parse("1"), parse("1"), 1.0)
    sol = solve(T, step=1e-3)
    assert sol.saddle is None and sol.global_report is None
    assert abs(sol.recon.w[-1] - 0.5) < 1e-12


def test_solve_samples_the_target_in_bulk(monkeypatch):
    # the integrator takes its jets from array evaluations; only the capped
    # steps near the origin and the halvings evaluate point by point
    calls = []
    scalar = potential.eval_jet2

    def counting(e, t):
        calls.append(t)
        return scalar(e, t)

    monkeypatch.setattr(potential, "eval_jet2", counting)
    sol = solve(RotSymTensor(3, parse("1"), parse("1"), 10.0))
    assert sol.curve.halt_reason == "t_end" and sol.curve.t.size == 10_001
    assert len(calls) < 1000


def test_error_inside_a_grid_block_keeps_its_text_and_abscissa():
    # the definiteness scan misses t = 1, so integration meets the singular
    # sqrt derivative there; sample raises for that block, so the general
    # path takes each of its targets, the sample of the target that reads
    # t = 1 raises too, and its row there raises the scalar error
    T = RotSymTensor(3, parse("2"), parse("1 + sqrt((t - 1)^2)"), 2.0)
    assert definiteness_check(T).is_definite
    with pytest.raises(EvalError) as err:
        solve(T)
    assert str(err.value) == "sqrt derivative singular at 0 in 'sqrt((t - 1)^2)' at t=1.0"
    assert any(entry.name == "integrate_separatrix" for entry in err.traceback)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_solve_classifies_the_saddle_once(monkeypatch, n):
    calls = []
    saddle_report = potential.saddle_report

    def counting(T):
        calls.append(T)
        return saddle_report(T)

    monkeypatch.setattr(potential, "saddle_report", counting)
    a = 4 * (n - 1)
    sol = solve(RotSymTensor(n, parse(f"{a}"), parse(f"{a} - {4 * (n - 2)}*t^2"), 0.5))
    assert len(calls) == 1
    assert sol.saddle.w2 == 4.0


def test_a_seed_offset_above_the_step_leaves_a_profile_grid_that_is_refused():
    # the CLI refuses delta > step; through the library it reaches reconstruction
    T = RotSymTensor(3, parse("1"), parse("1"), 1.0)
    with pytest.raises(reconstruct.ReconstructionError) as err:
        solve(T, step=1e-3, delta=5e-3)
    assert str(err.value) == (
        "profile grid is not uniform; the seed offset delta must be "
        "smaller than the step (or lie exactly on the step grid)"
    )


def test_definiteness_error_is_one_class():
    from riccisym import pipeline, rotsym

    assert DefinitenessError is pipeline.DefinitenessError is rotsym.DefinitenessError


@pytest.mark.parametrize(
    "n, phi, psi, t_max, digest",
    [
        (4, "12", "12 - 8*t^2", 0.5,
         "ddb173c7e784ea813e5c6e28fcfcc7c70fa73b649c3dffbfcaf994a511b82a07"),
        (3, "-1", "-1", 10.0,
         "ed259e08ce47d6f0cbadec65f30f05c53cf27aa860c5f5d12b99bd52da5dd4c8"),
    ],
    ids=["gold_n4", "const_neg_t10"],
)
def test_ricci_residual_bytes_are_pinned(n, phi, psi, t_max, digest):
    # the sampled forward map (stencil f_rr, pullback) stays bit-identical
    recon = solve(RotSymTensor(n, parse(phi), parse(psi), t_max)).recon
    assert hashlib.sha256(recon.res_rr.tobytes() + recon.res_tt.tobytes()).hexdigest() == digest


def test_a_solve_samples_each_abscissa_once(monkeypatch):
    # the definiteness scans, check_global's two grids and the integrator's
    # blocks are the only samples; the continuation check and the
    # reconstruction read the target values the curve carries
    calls, abscissae = [], []
    for module in (rotsym, potential, reconstruct):
        def counting(ts, *exprs, real=module.sample, name=module.__name__.split(".")[-1]):
            calls.append((name, len(ts)))
            abscissae.append(np.asarray(ts).tolist())
            return real(ts, *exprs)

        monkeypatch.setattr(module, "sample", counting)
    rows = []

    def row(T, t, real=potential._target_row):
        rows.append(t)
        return real(T, t)

    monkeypatch.setattr(potential, "_target_row", row)
    T = RotSymTensor(4, parse("3*exp(-t^2)"), parse("3*cos(t)^2 + t^4/(1+t^2)"), 2.0)
    sol = solve(T, step=1e-3)
    assert sol.curve.t.size == 2001
    # 2000 targets: blocks of 256 targets and their midpoints, the first
    # after the seed at 2e-4, each later one after the last target of the
    # block before it, whose row it takes from that block; the first four
    # targets are reached by capped sub-steps, and the first block's sample
    # also holds the 15, 7, 2 and 3 abscissae they read that it does not
    later = [("potential", 2 * 256)] * 6 + [("potential", 2 * 208)]
    blocks = [("potential", 2 * 256 + 1 + 15 + 7 + 2 + 3)] + later
    grids = [("potential", potential.GLOBAL_GRID)] * 2
    assert calls == [("rotsym", rotsym.DEFINITENESS_GRID)] * 2 + blocks + grids
    assert sol.curve.work["scalar_rows"] == 0
    # no abscissa is evaluated twice by the integrator, as an array or a
    # point-by-point row (the one row is the seed's, read before it starts)
    integrator = sum(abscissae[2:-2], [])
    assert rows == [2e-4] and len(set(integrator)) == len(integrator)


@pytest.mark.parametrize("n", [2, 3])
def test_solve_refuses_exactly_the_steps_that_leave_too_few_samples(n):
    # curve_samples counts the samples of each curve below, so a config that
    # solve refuses is one whose curve would be too short, and every other
    # config still solves
    refused = solved = 0
    for t_max in (0.3, 1.0, 2.0):
        for q in (4.0, 4.5, 5.0, 6.0):
            for nudge in (-1e-10, 0.0, 1e-10):
                step = t_max / (q + nudge)
                for delta in (None, 1e-2 * t_max):
                    T = RotSymTensor(n, parse("1"), parse("1"), t_max)
                    curve = potential.solve_n2(T, step) if n == 2 else potential.solve_branch(
                        T, step, delta=delta)[1]
                    assert curve.halt_reason == "t_end"
                    assert potential.curve_samples(T, step, delta) == curve.t.size
                    if curve.t.size < reconstruct.MIN_PROFILE_SAMPLES:
                        with pytest.raises(reconstruct.CurveTooShortError):
                            reconstruct.reconstruct_profile(curve, T)
                        with pytest.raises(ValueError, match=f"leaves {curve.t.size} samples"):
                            solve(T, step, delta)
                        refused += 1
                    else:
                        assert solve(T, step, delta).curve.t.size == curve.t.size
                        solved += 1
    assert refused and solved


# A manufactured solution (n = 3): the metric with r = t exp(t^2/8) and
# f = -t^2/2, whose potential is w = 4t^2/(4 + t^2), has these phi and psi,
# so the solve's error is measured against the exact profile.
_MANUFACTURED = RotSymTensor(
    3, parse("16/(t^2 + 4)"), parse("8*(32 - t^4)/(t^6 + 12*t^4 + 48*t^2 + 64)"), 1.0
)


@pytest.mark.parametrize(
    "step, r_rel, f_abs, w_rel",
    # measured: 2.142e-8 (at t = 0.001), 2.663e-12, 4.476e-9; then
    # 5.894e-9, 1.488e-14, 1.370e-9
    [(1e-3, 3e-8, 4e-12, 6e-9), (2.5e-4, 8e-9, 3e-14, 2e-9)],
)
def test_a_manufactured_solution_is_recovered(step, r_rel, f_abs, w_rel):
    sol = solve(_MANUFACTURED, step=step)
    profile = sol.recon.profile
    assert sol.curve.halt_reason == "t_end" and profile.grid[[0, -1]].tolist() == [0.0, 1.0]
    assert profile.r[0] == 0.0 and sol.recon.w[0] == 0.0
    t = profile.grid[1:]  # r and w vanish at 0: relative errors from the next sample
    assert np.max(np.abs(profile.r[1:] / (t * np.exp(t * t / 8)) - 1)) <= r_rel
    assert np.max(np.abs(profile.f + profile.grid**2 / 2)) <= f_abs
    assert np.max(np.abs(sol.recon.w[1:] / (4 * t * t / (4 + t * t)) - 1)) <= w_rel


def test_a_manufactured_solution_converges_in_the_step():
    # f's error falls 179-fold as the step shrinks 4-fold, from 1e-3 to 2.5e-4
    def f_error(step):
        profile = solve(_MANUFACTURED, step=step).recon.profile
        return np.max(np.abs(profile.f + profile.grid**2 / 2))

    assert f_error(1e-3) >= 100 * f_error(2.5e-4)
