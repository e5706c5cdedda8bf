import numpy as np
import pytest

from riccisym import (
    DefinitenessError,
    EvalError,
    RotSymTensor,
    definiteness_check,
    parse,
    potential,
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
    # sqrt derivative there; the array block declines and the scalar path
    # raises the error at the same t
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


def test_definiteness_error_is_one_class():
    from riccisym import pipeline, rotsym

    assert DefinitenessError is pipeline.DefinitenessError is rotsym.DefinitenessError
