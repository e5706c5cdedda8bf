import numpy as np
import pytest

from riccisym import rotsym
from riccisym.exprfn import EvalError, parse
from riccisym.rotsym import (
    MetricProfile,
    RotSymTensor,
    definiteness_check,
    forward_oracle_report,
    forward_tensor,
    fourth_order_derivative,
    ricci_forward,
    ricci_forward_samples,
)


def _tensor(n, phi, psi, t_max=1.0):
    return RotSymTensor(n, parse(phi), parse(psi), t_max)


def _profile(n, f_src, r_src, t_max=1.0, num=513):
    return MetricProfile.from_exprs(n, parse(f_src), parse(r_src), t_max, num)


# ---------------------------------------------------------------------------
# definiteness


def test_definiteness_positive():
    v = definiteness_check(_tensor(3, "1", "1"))
    assert v.kind == "positive_definite" and v.is_definite


def test_definiteness_negative():
    v = definiteness_check(_tensor(3, "-1", "-1"))
    assert v.kind == "negative_definite" and v.is_definite


def test_definiteness_singular_at_origin():
    v = definiteness_check(_tensor(3, "t", "t"))
    assert v.kind == "singular"
    assert v.t_star == 0.0
    assert "singular tensor at t = 0" in v.reason


def test_definiteness_inconsistent():
    v = definiteness_check(_tensor(3, "1", "2"))
    assert v.kind == "inconsistent"
    assert "phi(0) != psi(0)" in v.reason
    # phi(0) = psi(0) is tested relative to their scale
    assert definiteness_check(_tensor(3, "1e-150", "1e-170")).kind == "inconsistent"
    assert definiteness_check(_tensor(3, "1e9", "1e9 + 1e-3")).kind == "positive_definite"


def test_definiteness_interior_crossing_refined():
    v = definiteness_check(_tensor(3, "1 - t", "1 - t", t_max=2.0))
    assert v.kind == "singular"
    assert abs(v.t_star - 1.0) < 1e-9


@pytest.mark.parametrize(
    "phi, psi, reason",
    [
        ("1e999 - 1e999", "1", "phi = nan is not finite at t = 0"),
        ("1", "1 + t*1e308*1e308", "psi' = inf is not finite at t = 0"),
        ("1", "1e308*(1 + t)", "psi = inf is not finite at t = 0.8"),
    ],
)
def test_definiteness_rejects_non_finite_samples(phi, psi, reason):
    v = definiteness_check(_tensor(3, phi, psi, t_max=2.0))
    assert v.kind == "singular" and not v.is_definite
    assert v.reason == reason


def test_definiteness_raises_the_earliest_error():
    # psi fails at t > 2, phi only at t > 3: psi's error is raised
    with pytest.raises(EvalError, match=r"'sqrt\(2 - t\)' at t=2.0"):
        definiteness_check(_tensor(3, "sqrt(3 - t)", "sqrt(2 - t)", t_max=4.0))
    # an error before a zero is raised unchanged
    with pytest.raises(EvalError, match=r"log of non-positive value .* at t=0.50"):
        definiteness_check(_tensor(3, "1 - t", "1 + 0*log(0.5 - t)", t_max=2.0))


def test_definiteness_samples_each_component_once(monkeypatch):
    calls, scalar = [], []
    sample = rotsym.sample
    monkeypatch.setattr(rotsym, "sample", lambda ts, e: calls.append(e) or sample(ts, e))
    monkeypatch.setattr(rotsym, "eval_jet2", lambda e, t: scalar.append(t))
    T = _tensor(4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", t_max=2.0)
    assert definiteness_check(T).kind == "positive_definite"
    assert calls == [T.phi, T.psi] and scalar == []


# ---------------------------------------------------------------------------
# forward Ricci map


def test_forward_flat_profile():
    p = _profile(3, "0", "t")
    for t in (0.25, 0.5, 1.0):
        alpha, beta = ricci_forward(p, t)
        assert abs(alpha) < 1e-14 and abs(beta) < 1e-14


def test_forward_hand_values():
    # f = -t^2, r = t, n = 3 at t = 1: f_r = -2, f_rr = -2
    p = _profile(3, "-t^2", "t")
    alpha, beta = ricci_forward(p, 1.0)
    assert abs(alpha - 8.0) < 1e-12
    assert abs(beta - 4.0) < 1e-12


def test_forward_alpha_constant_in_t():
    for n in (3, 4, 5):
        p = _profile(n, "-t^2", "t")
        for t in (0.2, 0.6, 1.0):
            alpha, _ = ricci_forward(p, t)
            assert abs(alpha - 4.0 * (n - 1)) < 1e-11


def test_forward_tensor_gold_family():
    p = _profile(3, "-t^2", "t")
    phi_hat, psi_hat = forward_tensor(p)
    assert np.max(np.abs(phi_hat - 8.0)) < 1e-10
    assert np.max(np.abs(psi_hat - (8.0 - 4.0 * p.grid**2))) < 1e-10


def test_forward_tensor_flat_zero():
    p = _profile(4, "0", "t")
    phi_hat, psi_hat = forward_tensor(p)
    assert np.max(np.abs(phi_hat)) < 1e-14
    assert np.max(np.abs(psi_hat)) < 1e-14


def test_forward_tensor_origin_agreement():
    # phi_hat(0) = psi_hat(0) is forced for any smooth profile
    for f_src in ("-t^2/2", "-t^2 + t^4/8"):
        p = _profile(3, f_src, "t", t_max=0.8)
        phi_hat, psi_hat = forward_tensor(p)
        assert abs(phi_hat[0] - psi_hat[0]) < 1e-6


def test_forward_shift_invariance():
    base = _profile(3, "-t^2", "t")
    shifted = _profile(3, "-t^2 + 3", "t")
    for t in (0.3, 0.7):
        a0, b0 = ricci_forward(base, t)
        a1, b1 = ricci_forward(shifted, t)
        assert abs(a0 - a1) < 1e-12
        assert abs(b0 - b1) < 1e-12


def test_forward_sampled_matches_closed_form():
    closed = _profile(3, "-t^2/2", "t", num=801)
    sampled = MetricProfile(
        n=3, grid=closed.grid, f=closed.f, r=closed.r, rp=closed.rp, fp=closed.fp
    )
    a_c, b_c = ricci_forward_samples(closed)
    a_s, b_s = ricci_forward_samples(sampled)
    assert np.max(np.abs(a_c - a_s)) < 1e-8
    assert np.max(np.abs(b_c - b_s)) < 1e-8
    # a sampled profile has no off-grid values
    with pytest.raises(ValueError, match="ricci_forward_samples"):
        ricci_forward(sampled, 0.437)


def test_forward_precondition_violation():
    p = _profile(3, "0", "t")
    with pytest.raises(ValueError):
        ricci_forward(p, 0.0)
    shrink = _profile(3, "0", "t - t^2", t_max=1.0)  # r' < 0 past t = 0.5
    with pytest.raises(ValueError):
        ricci_forward(shrink, 0.9)


def test_fourth_order_derivative_accuracy():
    h = 1e-3
    t = np.arange(0, 1 + h / 2, h)
    y = np.sin(3 * t)
    d = fourth_order_derivative(y, h)
    assert np.max(np.abs(d - 3 * np.cos(3 * t))) < 1e-9


def test_forward_oracle_consistency():
    # the forward map coincides with the numeric Ricci of the conformal
    # metric e^{2f} [r'^2 dt^2 + r^2 dTheta^2]; the bracket-as-printed
    # variant does not.  Ratios are recorded as a diagnostic.
    p = _profile(3, "-t^2", "t")
    rep = forward_oracle_report(p, ts=[0.4, 0.6], h=2.5e-4)
    assert np.max(np.abs(rep.conformal[:, 1] - 1.0)) < 1e-4
    assert np.max(np.abs(rep.conformal[:, 2] - 1.0)) < 1e-4
    assert np.min(np.abs(rep.verbatim[:, 1] - 1.0)) > 1e-2


@pytest.mark.parametrize(
    "grid, reason",
    [
        ([0.0], "at least two samples"),
        ([0.0, 0.1, np.nan, 0.3], "not uniform"),
        ([np.nan, 0.1, 0.2], "not uniform"),
        ([0.0, 0.1, 0.2, 0.4], "not uniform"),
    ],
)
def test_uniform_step_rejects_short_nan_and_uneven_grids(grid, reason):
    with pytest.raises(ValueError, match=reason):
        rotsym._uniform_step(np.array(grid))
