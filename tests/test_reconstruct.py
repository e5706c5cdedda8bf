import warnings

import numpy as np
import pytest

from riccisym.exprfn import parse
from riccisym.potential import PotentialCurve, solve_branch
from riccisym.reconstruct import (
    ReconstructionError,
    reconstruct_profile,
    ricci_potential_from_profile,
    solve_rf,
    verify_ricci,
)
from riccisym import reconstruct
from riccisym.rotsym import (
    MetricProfile,
    RotSymTensor,
    forward_tensor,
    fourth_order_derivative,
)


def _gold_curve(step=1e-3, t_end=0.5):
    S = RotSymTensor(3, parse("8"), parse("8 - 4*t^2"), t_end)
    return solve_branch(S, step=step, t_end=t_end)[1]


def _gold_tensor(t_max=0.5):
    return RotSymTensor(3, parse("8"), parse("8 - 4*t^2"), t_max)


def _synthetic_quadratic_curve(n, phi0, t_end=0.5, m=500):
    # exact potential of the family w = phi0 t^2 / (2(n-1)), for the target
    # phi = phi0, psi = phi0 - (n-2) phi0^2 t^2 / (4 (n-1)^2)
    w2 = phi0 / (n - 1)
    delta = 1e-4 * t_end
    step = t_end / m
    t = np.concatenate([[delta], np.arange(1, m + 1) * step])
    return PotentialCurve(
        t=t,
        w=w2 * t**2 / 2,
        p=w2 * t,
        phi=np.full_like(t, phi0),
        psi=phi0 - (n - 2) * w2**2 * t**2 / 4,
        w2=w2,
        w3=0.0,
        halt_reason="t_end",
    )


def test_solve_r_gold_is_identity():
    curve = _gold_curve()
    q = solve_rf(curve, parse("8"), 3)
    assert np.max(np.abs(q.r - q.grid)) < 1e-8
    assert np.max(np.abs(q.rp - 1.0)) < 1e-7


def test_solve_r_quadratic_potential_any_n():
    # w' = phi s/(n-1) makes the integrand vanish identically: r = t
    for n, phi0 in ((4, 2.0), (5, -3.0)):
        curve = _synthetic_quadratic_curve(n, phi0)
        q = solve_rf(curve, parse(f"{phi0}"), n)
        assert np.max(np.abs(q.r - q.grid)) < 1e-10
        assert np.max(np.abs(q.rp - 1.0)) < 1e-9


def test_solve_r_defining_ode_residual():
    S = RotSymTensor(3, parse("1"), parse("1"), 1.0)
    _, curve = solve_branch(S, step=1e-3)
    grid, r, rp = solve_rf(curve, parse("1"), 3)[:3]
    mask = grid > 0
    keep = curve.t >= grid[mask][0] - 1e-12
    res = np.abs(2 * curve.p[keep] * rp[mask] - r[mask])
    assert np.max(res) < 1e-6


def test_residual_r_uses_stencil_derivative_of_r(monkeypatch):
    # solve_rf takes r' from the defining ODE, so residual_r must measure the
    # stencil derivative of profile.r, not profile.rp, to stay a check
    T = RotSymTensor(3, parse("1"), parse("1"), 1.0)
    _, curve = solve_branch(T, step=1e-3)
    result = reconstruct_profile(curve, T)
    prof = result.profile
    h = float(prof.grid[2] - prof.grid[1])
    expected = np.max(np.abs(2 * result.p * fourth_order_derivative(prof.r, h) - prof.r))
    assert result.residual_r == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert result.residual_r <= 1e-6

    real_solve_rf = reconstruct.solve_rf

    def skewed_solve_rf(curve, phi, n):
        # r off its quadrature by a factor 1 + 1e-3 t^2; rp scaled alike
        # still satisfies (n-1) w' r' = phi r exactly on every sample
        q = real_solve_rf(curve, phi, n)
        k = 1.0 + 1e-3 * q.grid**2
        return q._replace(r=q.r * k, rp=q.rp * k)

    monkeypatch.setattr(reconstruct, "solve_rf", skewed_solve_rf)
    skewed = reconstruct_profile(curve, T)
    ode_rp = np.max(np.abs(2 * skewed.p * skewed.profile.rp - skewed.profile.r))
    assert ode_rp <= 1e-12
    assert skewed.residual_r > 1e-4


def test_reconstruction_samples_phi_and_psi_once(monkeypatch):
    # phi and psi on the profile grid are the values the curve carries
    calls = []
    real_sample = reconstruct.sample

    def counting(ts, *exprs):
        calls.append(exprs)
        return real_sample(ts, *exprs)

    monkeypatch.setattr(reconstruct, "sample", counting)
    T = _gold_tensor()
    reconstruct_profile(_gold_curve(), T)
    assert calls == []


def test_solve_f_gold():
    curve = _gold_curve()
    q = solve_rf(curve, parse("8"), 3)
    assert np.max(np.abs(q.f + q.grid**2)) < 1e-8
    assert np.max(np.abs(q.fp + 2 * q.grid)) < 1e-7


def test_solve_f_quadratic_potential():
    # w = phi0 s^2/(2(n-1)) with constant phi: f = -phi0 t^2 / (4(n-1)) ... wait
    # w/w' = s/2, so f = -(phi0/(n-1)) t^2/4
    n, phi0 = 3, 2.0
    curve = _synthetic_quadratic_curve(n, phi0)
    q = solve_rf(curve, parse(f"{phi0}"), n)
    expected = -phi0 * q.grid**2 / (4 * (n - 1))
    assert np.max(np.abs(q.f - expected)) < 1e-10


def test_sign_violation_detected():
    curve = _gold_curve()
    with pytest.raises(ReconstructionError):
        solve_rf(curve, parse("-8"), 3)  # phi(0) < 0 against p > 0


def _hand_built_curve(p):
    """A curve on t = 0, 0.05, ..., 1 with the given slopes, for the target phi = psi = 1."""
    t = np.linspace(0.0, 1.0, 21)
    ones = np.ones_like(t)
    curve = PotentialCurve(
        t=t, w=t * t / 2, p=p(t), phi=ones, psi=ones, w2=1.0, w3=0.0, halt_reason="t_end"
    )
    return curve, RotSymTensor(3, parse("1"), parse("1"), 1.0)


def test_overflowing_radius_is_refused():
    # J = int 1/(2 p) ds with p = 1e-300 overflows exp(J) at the first step
    curve, T = _hand_built_curve(lambda t: np.full_like(t, 1e-300))
    with pytest.raises(ReconstructionError, match=r"^r not finite at grid point t = 0\.05$"):
        reconstruct_profile(curve, T)


def test_slope_turning_negative_is_refused():
    # p keeps its sign over the 10 samples _check_sign reads, then turns
    curve, T = _hand_built_curve(lambda t: np.where(t < 0.625, t, -t))
    with pytest.raises(ReconstructionError, match=r"^monotonicity lost: r'\(0\.65\) <= 0$"):
        reconstruct_profile(curve, T)


def test_a_curve_off_one_step_grid_is_refused():
    # an inner sample moved off the multiples of the step
    curve, T = _hand_built_curve(lambda t: t)
    curve.t[10] += 0.01
    with pytest.raises(ReconstructionError, match=r"^profile grid is not uniform: the curve's samples "
                       r"past the seed are not the multiples of one step$"):
        reconstruct_profile(curve, T)


def test_verify_ricci_gold_pipeline():
    curve = _gold_curve()
    result = reconstruct_profile(curve, _gold_tensor())
    assert result.ricci_residuals[0] <= 1e-6
    assert result.ricci_residuals[1] <= 1e-6
    assert result.residual_r <= 1e-6
    assert result.residual_f <= 1e-10


def test_verify_ricci_flat_zero():
    profile = MetricProfile.from_exprs(3, parse("0"), parse("t"), 0.5)
    T = RotSymTensor(3, parse("0"), parse("0"), 0.5)
    res_rr, res_tt = verify_ricci(profile, T, 0.05, 0.5)
    assert res_rr < 1e-14 and res_tt < 1e-14


def test_verify_ricci_detects_perturbation():
    profile = MetricProfile.from_exprs(3, parse("-t^2 + 0.01*t^3"), parse("t"), 0.5)
    res_rr, _ = verify_ricci(profile, _gold_tensor(), 0.05, 0.5)
    assert res_rr > 1e-3


def test_an_overflowing_forward_map_gives_nan_defects_and_no_warning():
    # r' = 1e200 squares past the float range against alpha = 0, and r^2
    # against beta = 0: the defects are NaN, which the residual gates fail,
    # and numpy writes nothing to stderr
    grid = np.linspace(0.0, 1.0, 11)
    profile = MetricProfile(3, grid, np.zeros(11), 1e200 * grid, np.full(11, 1e200), np.zeros(11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defects = reconstruct.ricci_defects(profile, slice(1, None), np.ones(10), np.ones(10))
    assert all(np.isnan(d).all() for d in defects)


def test_ricci_potential_from_profile_gold():
    profile = MetricProfile.from_exprs(3, parse("-t^2"), parse("t"), 0.5)
    w = ricci_potential_from_profile(profile)
    assert np.max(np.abs(w - 2 * profile.grid**2)) < 1e-12
    assert w[0] == 0.0


def test_ricci_potential_from_profile_constant_f():
    profile = MetricProfile.from_exprs(3, parse("3"), parse("t"), 0.5)
    w = ricci_potential_from_profile(profile)
    assert np.max(np.abs(w)) < 1e-14


def test_roundtrip_generator_profiles():
    # forward map of (f, r) = (-c t^2, t) is phi = 4c(n-1),
    # psi = 4c(n-1) - 4c^2(n-2) t^2; the pipeline must recover f and r
    for n in (3, 4):
        for c in (0.5, 1.0):
            phi_src = f"{4 * c * (n - 1)}"
            psi_src = f"{4 * c * (n - 1)} - {4 * c * c * (n - 2)}*t^2"
            T = RotSymTensor(n, parse(phi_src), parse(psi_src), 0.4)
            gen = MetricProfile.from_exprs(n, parse(f"-{c}*t^2"), parse("t"), 0.4)
            phi_hat, psi_hat = forward_tensor(gen)
            assert np.max(np.abs(phi_hat - np.array([T.phi(t) for t in gen.grid]))) < 1e-9
            assert np.max(np.abs(psi_hat - np.array([T.psi(t) for t in gen.grid]))) < 1e-9

            _, curve = solve_branch(T, step=1e-3)
            result = reconstruct_profile(curve, T)
            grid = result.profile.grid
            assert np.max(np.abs(result.profile.f - (-c * grid**2))) < 1e-4
            assert np.max(np.abs(result.profile.r - grid)) < 1e-4
            # recovered profile reproduces the integrated potential
            w_back = ricci_potential_from_profile(result.profile)
            assert np.max(np.abs(w_back - result.w)) < 1e-5


def test_homothety_normalization():
    # shifting the generator f by a constant changes nothing downstream
    base = MetricProfile.from_exprs(3, parse("-t^2"), parse("t"), 0.5)
    shifted = MetricProfile.from_exprs(3, parse("-t^2 + 1"), parse("t"), 0.5)
    pb = forward_tensor(base)
    ps = forward_tensor(shifted)
    assert np.max(np.abs(pb[0] - ps[0])) < 1e-10
    assert np.max(np.abs(pb[1] - ps[1])) < 1e-10
    # and the recovered f is always normalized to f(0) = 0
    curve = _gold_curve()
    result = reconstruct_profile(curve, _gold_tensor())
    assert result.profile.f[0] == 0.0


def test_quadrature_fourth_order_convergence():
    # non-gold instance, reference from a much finer step
    T = RotSymTensor(3, parse("1"), parse("1"), 0.5)

    def f_end(step):
        _, curve = solve_branch(T, step=step, t_end=0.5)
        result = reconstruct_profile(curve, T)
        assert result.profile.grid[-1] == 0.5  # steps chosen to divide t_end
        return result.profile.f[-1]

    ref = f_end(2.5e-4)
    e_coarse = abs(f_end(1e-2) - ref)
    e_fine = abs(f_end(5e-3) - ref)
    assert e_fine <= e_coarse / 8


def test_n2_curve_reconstruction():
    from riccisym.potential import solve_n2

    curve = solve_n2(RotSymTensor(2, parse("1"), parse("1"), 1.0), 1e-3)
    T = RotSymTensor(2, parse("1"), parse("1"), 1.0)
    result = reconstruct_profile(curve, T)
    # n = 2: w = t^2/2, w' = t, integrand of J is phi/w' - 1/s = 0: r = t
    assert np.max(np.abs(result.profile.r - result.profile.grid)) < 1e-9
    assert result.ricci_residuals[0] < 1e-6
