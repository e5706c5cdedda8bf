import hashlib

import numpy as np
import pytest

from riccisym import (
    DefinitenessError,
    EvalError,
    RotSymTensor,
    definiteness_check,
    parse,
    pipeline,
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


def test_a_seed_offset_above_the_step_is_refused_before_any_work(monkeypatch):
    # the library refuses delta > step as the CLI does, on or off the step
    # grid, and delta > 1e-2 t_max too
    def no_work(*args, **kwargs):
        raise AssertionError("work started before delta was checked")

    monkeypatch.setattr(pipeline, "definiteness_check", no_work)
    T = RotSymTensor(3, parse("1"), parse("1"), 1.0)
    for delta in (5e-3, 2e-3):
        for run in (solve, pipeline.branch):
            with pytest.raises(ValueError) as err:
                run(T, step=1e-3, delta=delta)
            assert str(err.value) == "delta must lie in (0, step]"
    # within the step but above the series range (0, 1e-2 t_max] of the seed
    T = RotSymTensor(4, parse("12"), parse("12 - 8*t^2"), 0.5)
    for run in (solve, pipeline.branch):
        with pytest.raises(ValueError) as err:
            run(T, step=1e-2, delta=6e-3)
        assert str(err.value) == "delta must lie in (0, 0.005]"


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
    # the definiteness scans, check_global's grid and the integrator's
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
    # 2000 targets: blocks of _GRID_BLOCK targets and their midpoints, the
    # first after the seed at 2e-4, each later one after the last target of
    # the block before it, whose row it takes from that block; the first
    # four targets are reached by capped sub-steps, and the first block's
    # sample also holds the 15, 7, 2 and 3 abscissae they read that it does not
    sizes = [min(potential._GRID_BLOCK, 2000 - b) for b in range(0, 2000, potential._GRID_BLOCK)]
    blocks = [("potential", 2 * m) for m in sizes]
    blocks[0] = ("potential", 2 * sizes[0] + 1 + 15 + 7 + 2 + 3)
    grid = [("potential", potential.GLOBAL_GRID)]
    assert calls == [("rotsym", rotsym.DEFINITENESS_GRID)] * 2 + blocks + grid
    assert sol.curve.work["scalar_rows"] == 0
    # no abscissa is evaluated twice by the integrator, as an array or a
    # point-by-point row (the one row is the seed's, read before it starts)
    integrator = sum(abscissae[2:-1], [])
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


# Manufactured solutions: metrics with a closed-form r and f, whose
# potential w is closed-form too, have these phi and psi (derived with
# sympy), so the solve's error is measured against the exact profile.  Each
# entry is (target, r, f, w, the fold regularity roots to 4 decimals).
_MANUFACTURED = {
    # n = 3: r = t exp(t^2/8), f = -t^2/2, w = 4t^2/(4 + t^2)
    "n3": (
        RotSymTensor(
            3, parse("16/(t^2 + 4)"), parse("8*(32 - t^4)/(t^6 + 12*t^4 + 48*t^2 + 64)"), 1.0
        ),
        lambda t: t * np.exp(t * t / 8),
        lambda t: -t * t / 2,
        lambda t: 4 * t * t / (4 + t * t),
        (),
    ),
    # n = 4: r = t exp(t^2/5), f = t^4/10 - t^2, w = 2t^2(5 - t^2)/(5 + 2t^2);
    # phi (t^2 psi)' has a true root at t = 0.8322, so the continuation
    # hypothesis fails although the branch reaches t_max
    "n4": (
        RotSymTensor(
            4,
            parse("12*(-2*t^4 - 10*t^2 + 25)/(5*(2*t^2 + 5))"),
            parse("4*(-4*t^8 + 22*t^6 - 10*t^4 - 150*t^2 + 375)/(8*t^6 + 60*t^4 + 150*t^2 + 125)"),
            1.0,
        ),
        lambda t: t * np.exp(t * t / 5),
        lambda t: t**4 / 10 - t * t,
        lambda t: 2 * t * t * (5 - t * t) / (5 + 2 * t * t),
        (0.8322,),
    ),
    # n = 3: r = t(1 + t^2/6), f = -t^2/2, w = t^2(6 + t^2)/(3(2 + t^2))
    "n3_cubic_r": (
        RotSymTensor(
            3,
            parse("4*(t^4 + 4*t^2 + 12)/(t^4 + 8*t^2 + 12)"),
            parse("(-t^8 - 6*t^6 + 20*t^4 + 168*t^2 + 288)/(9*(t^6 + 6*t^4 + 12*t^2 + 8))"),
            1.0,
        ),
        lambda t: t * (1 + t * t / 6),
        lambda t: -t * t / 2,
        lambda t: t * t * (6 + t * t) / (3 * (2 + t * t)),
        (),
    ),
    # n = 3, negative definite: r = t, f = t^2, w = -2t^2, from
    # phi = -4(n-1), psi = -4(n-1) - 4(n-2)t^2
    "n3_negative": (
        RotSymTensor(3, parse("-8"), parse("-8 - 4*t^2"), 1.0),
        lambda t: t,
        lambda t: t * t,
        lambda t: -2 * t * t,
        (),
    ),
    # n = 5: r = t exp(t^2/8), f = -t^2/2, w = 4t^2/(4 + t^2), the n3 profile
    "n5": (
        RotSymTensor(5, parse("32/(t^2 + 4)"), parse("8*(64 - 3*t^4)/(t^2 + 4)^3"), 1.0),
        lambda t: t * np.exp(t * t / 8),
        lambda t: -t * t / 2,
        lambda t: 4 * t * t / (4 + t * t),
        (),
    ),
    # n = 6: the n3 profile again
    "n6": (
        RotSymTensor(6, parse("40/(t^2 + 4)"), parse("32*(20 - t^4)/(t^2 + 4)^3"), 1.0),
        lambda t: t * np.exp(t * t / 8),
        lambda t: -t * t / 2,
        lambda t: 4 * t * t / (4 + t * t),
        (),
    ),
}


@pytest.mark.parametrize(
    "target, step, r_rel, f_abs, w_rel",
    [
        # measured: 2.142e-8 (at t = 0.001), 2.663e-12, 4.476e-9; then
        # 5.894e-9, 1.488e-14, 1.370e-9
        ("n3", 1e-3, 3e-8, 4e-12, 6e-9),
        ("n3", 2.5e-4, 8e-9, 3e-14, 2e-9),
        # measured: 5.12e-8, 2.087e-11, 2.275e-8; then 1.397e-8, 1.078e-13, 2.625e-9
        ("n4", 1e-3, 7e-8, 3e-11, 3e-8),
        ("n4", 2.5e-4, 2e-8, 2e-13, 4e-9),
        # measured: 2.856e-8, 3.281e-12, 5.64e-9; then 7.859e-9, 1.887e-14, 1.826e-9
        ("n3_cubic_r", 1e-3, 4e-8, 5e-12, 8e-9),
        ("n3_cubic_r", 2.5e-4, 1e-8, 3e-14, 3e-9),
        # measured (at t): 1.333e-9 (1), 2.454e-12 (1), 1.968e-9 (0.006);
        # then 8.37e-11 (0.6108), 1.11e-14 (0.5815), 1.23e-10 (0.0015)
        ("n3_negative", 1e-3, 1.8e-9, 3.3e-12, 2.6e-9),
        ("n3_negative", 2.5e-4, 1.1e-10, 2e-14, 1.6e-10),
        # measured (at t): 2.117e-8 (0.001), 7.397e-12 (1), 1.68e-8 (0.005);
        # then 5.782e-9 (0.00025), 3.753e-14 (1), 1.087e-9 (0.00125)
        ("n5", 1e-3, 2.8e-8, 1e-11, 2.2e-8),
        ("n5", 2.5e-4, 7.5e-9, 5e-14, 1.5e-9),
        # measured (at t): 3.45e-8 (1), 1.091e-11 (1), 2.573e-8 (0.005);
        # then 5.753e-9 (0.00025), 5.407e-14 (0.9825), 1.64e-9 (0.00125)
        ("n6", 1e-3, 4.5e-8, 1.4e-11, 3.3e-8),
        ("n6", 2.5e-4, 7.5e-9, 7e-14, 2.1e-9),
    ],
    # the first target keeps the ids it had as the only one
    ids=["0.001-3e-08-4e-12-6e-09", "0.00025-8e-09-3e-14-2e-09",
         "n4-0.001", "n4-0.00025", "n3_cubic_r-0.001", "n3_cubic_r-0.00025",
         "n3_negative-0.001", "n3_negative-0.00025", "n5-0.001", "n5-0.00025",
         "n6-0.001", "n6-0.00025"],
)
def test_a_manufactured_solution_is_recovered(target, step, r_rel, f_abs, w_rel):
    T, r, f, w, roots = _MANUFACTURED[target]
    sol = solve(T, step=step)
    profile = sol.recon.profile
    assert sol.curve.halt_reason == "t_end" and profile.grid[[0, -1]].tolist() == [0.0, 1.0]
    assert tuple(round(root, 4) for root in sol.global_report.fold_roots) == roots
    assert sol.global_report.notes == ()
    assert sol.global_report.verdict == (
        "hypothesis_failed" if roots else "global_continuation_expected"
    )
    assert profile.r[0] == 0.0 and sol.recon.w[0] == 0.0
    t = profile.grid[1:]  # r and w vanish at 0: relative errors from the next sample
    assert np.max(np.abs(profile.r[1:] / r(t) - 1)) <= r_rel
    assert np.max(np.abs(profile.f - f(profile.grid))) <= f_abs
    assert np.max(np.abs(sol.recon.w[1:] / w(t) - 1)) <= w_rel


def test_a_manufactured_solution_converges_in_the_step():
    # f's error falls 179-, 194-, 174-, 221-, 197- and 202-fold as the step
    # shrinks 4-fold, from 1e-3 to 2.5e-4
    for T, _, f, _, _ in _MANUFACTURED.values():
        def f_error(step):
            profile = solve(T, step=step).recon.profile
            return np.max(np.abs(profile.f - f(profile.grid)))

        assert f_error(1e-3) >= 100 * f_error(2.5e-4)


@pytest.mark.parametrize(
    "step, size, f_abs, w_abs",
    # measured: 1.426e-12, 2.506e-13; 1.005e-10, 2.025e-11; 2.639e-9, 6.003e-10
    [(1e-3, 1001, 1.5e-12, 2.6e-13), (3e-3, 334, 1.05e-10, 2.1e-11),
     (7e-3, 143, 2.75e-9, 6.3e-10)],
)
def test_n2_takes_the_step_and_recovers_an_exact_family(step, size, f_abs, w_abs):
    # phi = psi = 2 + t^2 at n = 2: r = t, f = -t^2/2 - t^4/16, w = t^2 + t^4/4;
    # the profile grid is 0 and the multiples of step up to t_max, as for n > 2
    sol = solve(RotSymTensor(2, parse("2 + t^2"), parse("2 + t^2"), 1.0), step=step)
    grid = sol.recon.profile.grid
    assert grid.size == size and np.allclose(np.diff(grid), step, rtol=1e-9, atol=0.0)
    assert np.max(np.abs(sol.recon.profile.r - grid)) <= 1e-15
    assert np.max(np.abs(sol.recon.profile.f + grid**2 / 2 + grid**4 / 16)) <= f_abs
    assert np.max(np.abs(sol.recon.w - grid**2 - grid**4 / 4)) <= w_abs
