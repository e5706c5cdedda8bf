import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccisym import potential, rotsym
from riccisym.exprfn import eval_jet2, parse
from riccisym.potential import (
    GlobalReport,
    PotentialCurve,
    check_global,
    fold_curve,
    integrate_separatrix,
    lie_cartan_field,
    saddle_report,
    seed_offset,
    seed_separatrix,
    solve_branch,
    solve_n2,
    surface_eval,
)
from riccisym.rotsym import DefinitenessError, RotSymTensor

GOLD = RotSymTensor(3, parse("8"), parse("8 - 4*t^2"), 0.5)
UNIT = RotSymTensor(3, parse("1"), parse("1"), 1.0)


def _surface(n, phi, psi, t_max=1.0):
    return RotSymTensor(n, parse(phi), parse(psi), t_max)


# ---------------------------------------------------------------------------
# surface and field


def test_surface_at_origin():
    for n in (3, 4, 5):
        S = _surface(n, "8", "8")
        F, F_t, F_w, F_p = surface_eval(S, 0.0, 0.0, 0.0)
        assert F == 0.0 and F_p == 0.0 and F_t == 0.0
        assert abs(F_w - (-2 * (n - 2) * 8.0 / (n - 1))) < 1e-14


def test_surface_gold_solution_on_surface():
    # w = 2 t^2, p = 4 t satisfies F = 0 identically
    for t in (0.05, 0.2, 0.35, 0.5):
        F, *_ = surface_eval(GOLD, t, 2 * t * t, 4 * t)
        assert abs(F) < 1e-12


def test_surface_second_root():
    F, *_ = surface_eval(GOLD, 0.0, 2.0, 0.0)
    assert F == 0.0


def _reference_surface_terms(n, t, w, p, phi, dphi, psi, dpsi):
    """surface_terms as written before the coefficient split."""
    ww = w * w - 2.0 * w
    tt = t * t * phi * psi
    F = ((n - 2) * phi * ww + tt) / (n - 1) - p * p
    dtt = 2.0 * t * phi * psi + t * t * (dphi * psi + phi * dpsi)
    F_t = ((n - 2) * dphi * ww + dtt) / (n - 1)
    F_w = (n - 2) * phi * (2.0 * w - 2.0) / (n - 1)
    F_p = -2.0 * p
    return F, F_t, F_w, F_p


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500)
@given(
    n=st.integers(3, 40),
    args=st.lists(_FINITE, min_size=7, max_size=7),
    as_arrays=st.booleans(),
)
def test_surface_terms_match_the_reference_bit_for_bit(n, args, as_arrays):
    if as_arrays:
        # broadcast (2, 1) against (3,): every entry is its own operation
        args = [np.array([[a], [-a]]) if i % 2 else np.array([a, 0.5 * a, -a])
                for i, a in enumerate(args)]
    with np.errstate(all="ignore"):  # overflow and inf - inf, as with Python floats
        got = potential.surface_terms(n, *args)
        ref = _reference_surface_terms(n, *args)
    for g, r in zip(got, ref):
        g, r = np.asarray(g), np.asarray(r)
        assert g.shape == r.shape
        assert np.array_equal(g, r, equal_nan=True)


def test_lie_cartan_origin_singular():
    assert np.array_equal(lie_cartan_field(GOLD, (0.0, 0.0, 0.0)), np.zeros(3))


def test_lie_cartan_structural_relation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = rng.uniform(-1, 1, size=3)
        X = lie_cartan_field(GOLD, state)
        assert abs(X[1] - state[2] * X[0]) < 1e-12 * max(1.0, abs(X[0]))


def test_lie_cartan_tangency():
    # X . grad F = 0 on the surface (50 random on-surface states)
    rng = np.random.default_rng(11)
    count = 0
    while count < 50:
        t = float(rng.uniform(-0.5, 0.5))
        w = float(rng.uniform(-0.5, 0.5))
        Q = surface_eval(GOLD, t, w, 0.0)[0]
        if Q <= 0:
            continue
        p = math.sqrt(Q) * (1 if rng.random() < 0.5 else -1)
        _, F_t, F_w, F_p = surface_eval(GOLD, t, w, p)
        X = lie_cartan_field(GOLD, (t, w, p))
        dot = X[0] * F_t + X[1] * F_w + X[2] * F_p
        assert abs(dot) < 1e-9
        count += 1


# ---------------------------------------------------------------------------
# saddle


def test_saddle_spot_values():
    rep = saddle_report(_surface(3, "8", "8"))
    assert abs(rep.lam1 - 16.0) < 1e-10
    assert abs(rep.lam2 + 8.0) < 1e-10
    rep = saddle_report(UNIT)
    assert abs(rep.lam1 - 2.0) < 1e-10
    assert abs(rep.lam2 + 1.0) < 1e-10


def test_saddle_w2_gold():
    rep = saddle_report(_surface(3, "8", "8"))
    assert abs(rep.w2 - 4.0) < 1e-12  # phi(0)/(n-1); other root is -8
    assert abs(rep.lam_seed + 8.0) < 1e-12


def test_saddle_eigen_identities_grid():
    for n in (3, 4, 5, 8):
        for a in (1.0, 8.0, -1.0, -8.0):
            rep = saddle_report(_surface(n, f"{a}", f"{a}"))
            assert abs(rep.lam1 * rep.lam2 + 4 * a * a / (n - 1)) < 1e-10
            assert abs(rep.lam1 + rep.lam2 - 2 * (n - 2) * a / (n - 1)) < 1e-10
            assert rep.lam1 > 0 > rep.lam2
            assert rep.w2 * a > 0
            assert abs(rep.w2 - a / (n - 1)) < 1e-12


def test_saddle_degenerate_cases():
    with pytest.raises(DefinitenessError, match="^n = 2 reduces to direct quadrature$"):
        saddle_report(_surface(2, "1", "1"))
    with pytest.raises(DefinitenessError, match=r"^phi\(0\) psi\(0\) = -1 <= 0$") as err:
        saddle_report(_surface(3, "1", "-1"))
    assert err.value.verdict.kind == "inconsistent"


@pytest.mark.parametrize(
    "phi, reason",
    [
        ("1e999 - 1e999", "phi(0) psi(0) = nan is not finite"),
        ("1e999", "phi(0) psi(0) = inf is not finite"),
        ("1 + t*1e308*1e308", "linearization at the origin is not finite"),
    ],
)
def test_saddle_non_finite_target_is_degenerate(phi, reason):
    with pytest.raises(DefinitenessError) as err:
        saddle_report(_surface(3, phi, phi))
    assert err.value.verdict.kind == "inconsistent"
    assert err.value.verdict.reason.startswith(reason)


def test_saddle_branch_curvature_of_a_tiny_product():
    # phi0 psi0 = 1e-320 is below rounding against phi0^2, so the textbook
    # root cancels to 0; the branch curvature is still ~ psi0 / (n - 2)
    rep = saddle_report(_surface(3, "1e-150", "1e-170"))
    assert rep.w2 == pytest.approx(1e-170, rel=1e-12)


def test_solve_branch_raises_on_a_degenerate_saddle():
    with pytest.raises(DefinitenessError, match=r"phi\(0\) psi\(0\) = 0 <= 0") as err:
        solve_branch(_surface(3, "1e-200", "1e-200"), step=1e-3)
    assert err.value.verdict.kind == "inconsistent"
    rep, curve = solve_branch(UNIT, step=1e-3, t_end=0.2)
    assert (rep.lam1, rep.lam2, rep.w2) == (2.0, -1.0, 0.5)
    assert (curve.w2, curve.w3) == (rep.w2, rep.w3) and curve.halt_reason == "t_end"


def test_solve_n2_rejects_an_overflowing_product():
    with pytest.raises(ValueError, match="phi \\* psi is not finite at t = 0"):
        solve_n2(RotSymTensor(2, parse("1e200"), parse("1e200"), 1.0), 1e-2)


def test_rotsym_does_not_import_potential():
    tree = ast.parse(Path(rotsym.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "potential" not in imported and "riccisym.potential" not in imported


def test_saddle_dx0_as_printed():
    S = _surface(3, "8 + 2*t", "8")
    rep = saddle_report(S)
    expected = np.array(
        [
            [0.0, 0.0, -2.0],
            [0.0, 0.0, 0.0],
            [-2 * 64 / 2, -2 * 1 * 2 / 2, 2 * 1 * 8 / 2],
        ]
    )
    assert np.allclose(rep.DX0, expected, atol=1e-14)
    # nonzero eigenvalues of DX0 match the reported pair
    eigs = sorted(np.linalg.eigvals(rep.DX0).real)
    assert abs(eigs[0] - rep.lam2) < 1e-9
    assert abs(eigs[-1] - rep.lam1) < 1e-9


# ---------------------------------------------------------------------------
# fold curve


def test_fold_at_origin():
    assert np.allclose(fold_curve(GOLD, 0.0), [0.0, 2.0])


def test_fold_series_lower_branch():
    # lower branch of the gold surface: w = 4 t^2 + 6 t^4 + O(t^6)
    for t in (0.01, 0.02, 0.05):
        lower = fold_curve(GOLD, t)[0]
        series = 4 * t**2 + 6 * t**4
        assert abs(lower - series) < 40 * t**6


def test_fold_double_root():
    # t^2 psi(t) = n - 2 gives the double root w = 1
    S = _surface(3, "1", "1", t_max=2.0)
    ws = fold_curve(S, 1.0)
    assert np.allclose(ws, [1.0, 1.0])
    assert fold_curve(S, 1.5).size == 0


def test_fold_needs_n3():
    with pytest.raises(ValueError):
        fold_curve(_surface(2, "1", "1"), 0.1)


def test_fold_separatrix_tangency_structure():
    # both the branch and the lower fold vanish to first order at 0; their
    # difference is quadratic with coefficient |psi(0)/(2(n-2)) - w2/2|
    rep = saddle_report(GOLD)
    expected = 8.0 / 2.0 - rep.w2 / 2.0  # 4 - 2 = 2 on this family
    for t in (0.01, 0.005):
        lower = fold_curve(GOLD, t)[0]
        sep = rep.w2 * t * t / 2.0
        coeff = (lower - sep) / t**2
        assert abs(coeff - expected) < 50 * t**2


# ---------------------------------------------------------------------------
# seeding


def test_seed_gold_values():
    rep = saddle_report(GOLD)
    t0, w0, p0 = seed_separatrix(GOLD, rep, 1e-3)
    assert t0 == 1e-3
    assert abs(w0 - 2e-6) < 1e-18
    assert abs(p0 - 4e-3) < 1e-8
    F, *_ = surface_eval(GOLD, t0, w0, p0)
    assert abs(F) < 1e-13


def test_seed_alignment_with_eigendirection():
    rep = saddle_report(GOLD)
    delta = 1e-4
    tangent = np.array([1.0, rep.w2 * delta, rep.w2])
    tangent /= np.linalg.norm(tangent)
    expected = rep.stable_dir if rep.lam_seed == rep.lam2 else rep.unstable_dir
    angle = math.acos(min(1.0, abs(float(tangent @ expected))))
    assert angle < 1e-3


def test_seed_delta_bounds():
    rep = saddle_report(GOLD)
    with pytest.raises(ValueError):
        seed_separatrix(GOLD, rep, 0.0)
    with pytest.raises(ValueError):
        seed_separatrix(GOLD, rep, 0.1)  # > 1e-2 * t_max


# ---------------------------------------------------------------------------
# integration


def test_integrate_gold_family():
    _, curve = solve_branch(GOLD, step=1e-3)
    assert curve.halt_reason == "t_end"
    assert abs(curve.t[-1] - 0.5) < 1e-12
    assert abs(curve.w[-1] - 0.5) < 1e-6
    assert np.max(np.abs(curve.w - 2 * curve.t**2)) < 1e-6
    assert curve.constraint_max <= 1e-9


# sha256 of t, w and p bytes at step 1e-3: every instance is pure
# arithmetic (no libm call), so a change to the integrator that claims
# bit-identical output must keep these.
@pytest.mark.parametrize(
    "phi, psi, t_max, reason, digest",
    [
        ("1", "1", 10.0, "t_end",
         "a5216ffcc28f6dea75eeea56199b05d0f3e28c264ab342fc29ad475aaa946ab8"),
        ("-1", "-1", 10.0, "t_end",
         "7f683a23fc94b910331c32f0c94fa97f303deee509d647b186f7105b916e56dd"),
        ("1", "1 - 4*t^2", 0.46, "fold_contact",
         "b081f814415042f4981314c1bc5f87e286b6d9f00e2dd92a9444248e551add1f"),
        ("8", "8 - 4*t^2", 0.5, "t_end",
         "5ffa2d906b932a42c3e43187684e3404a58c0adfcc613dd2410a80c6ff996770"),
    ],
    ids=["const_pos_t10", "const_neg_t10", "fold_contact", "gold_n3"],
)
def test_integrate_output_bytes_are_pinned(phi, psi, t_max, reason, digest):
    _, c = solve_branch(_surface(3, phi, psi, t_max), 1e-3)
    assert c.halt_reason == reason
    assert hashlib.sha256(c.t.tobytes() + c.w.tobytes() + c.p.tobytes()).hexdigest() == digest


def test_integrate_quadratic_coefficient_fit():
    _, curve = solve_branch(UNIT, step=1e-3, t_end=0.2)
    mask = curve.t <= 0.2
    t, w = curve.t[mask], curve.w[mask]
    basis = np.vstack([t**2, t**3, t**4]).T
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    assert abs(2 * coef[0] - 0.5) < 1e-3  # w''(0) = phi(0)/(n-1)


def test_integrate_mirror_negative():
    S = _surface(3, "-1", "-1")
    _, curve = solve_branch(S, step=1e-3, t_end=0.3)
    assert np.all(curve.p < 0)
    assert np.all(curve.w[1:] < 0)


def test_integrate_uniqueness_in_delta():
    rep = saddle_report(GOLD)
    a = integrate_separatrix(GOLD, seed_separatrix(GOLD, rep, 5e-5), 1e-3, 0.5)
    b = integrate_separatrix(GOLD, seed_separatrix(GOLD, rep, 2.5e-5), 1e-3, 0.5)
    common = np.intersect1d(np.round(a.t, 12), np.round(b.t, 12))
    ia = np.isin(np.round(a.t, 12), common)
    ib = np.isin(np.round(b.t, 12), common)
    assert common.size > 400
    assert np.max(np.abs(a.w[ia] - b.w[ib])) < 1e-8


def test_integrate_step_halving_fourth_order():
    rep = saddle_report(GOLD)
    seed = seed_separatrix(GOLD, rep, 5e-3)
    errs = []
    for step in (0.02, 0.01):
        curve = integrate_separatrix(GOLD, seed, step, 0.5, w2=rep.w2, w3=rep.w3)
        errs.append(abs(curve.w[-1] - 0.5))
    assert errs[1] <= errs[0] / 8


# One target per halt branch of integrate_separatrix; some are not definite,
# which the integrator does not check.
@pytest.mark.parametrize(
    "phi, psi, t_max, step, size, reason, detail",
    [
        ("100", "1-4*t^2", 1.0, 0.05, 8, "fold_contact",
         "w' sign change across t = 0.353553"),
        ("1-t", "1", 2.0, 1e-3, 1000, "fold_contact",
         "projected region boundary reached at t = 1"),
        ("1", "1-4*t^2", 1.0, 1e-3, 412, "fold_contact",
         "fold reached near t = 0.41197 (p = 3.822e-06, push = 1.474e-01)"),
        ("1", "8-4*t^2", 2.0, 1e-2, 137, "surface_exit",
         "F(t, w, 0) = -3.050e-08 < -1e-12 past t = 1.36681"),
        ("100", "1-40*t^2", 0.46, 1e-3, 112, "fold_contact",
         "|F_p| = 4.096e-09 < 1e-08 at t = 0.111798"),
        ("1e9", "1e9", 1.0, 1e-3, 34, "overflow",
         "w or p left the float range past t = 0.033; "
         "last sample t = 0.033, w = 2.78082e+146, p = 6.21811e+150"),
    ],
    ids=["sign_flip", "region_boundary", "fold_reached", "surface_exit", "small_F_p",
         "overflow"],
)
def test_integrate_halt_branches(phi, psi, t_max, step, size, reason, detail):
    _, curve = solve_branch(_surface(3, phi, psi, t_max=t_max), step=step)
    assert (curve.halt_reason, curve.halt_detail) == (reason, detail)
    assert curve.t.size == size


@pytest.mark.parametrize("a", ["1e6", "1e8", "1e12"])
def test_integrate_overflow_keeps_only_finite_samples(a):
    # w grows like exp(sqrt(phi/2) t) and leaves the float range before t = 1;
    # this used to end as a fold or a surface exit, with an infinite |F|
    _, curve = solve_branch(_surface(3, a, a), 1e-3)
    assert curve.halt_reason == "overflow"
    assert np.all(np.isfinite(curve.w)) and np.all(np.isfinite(curve.p))
    assert math.isfinite(curve.constraint_max)


def test_integrate_invalid_args():
    rep = saddle_report(GOLD)
    seed = seed_separatrix(GOLD, rep, 1e-4)
    with pytest.raises(ValueError):
        integrate_separatrix(GOLD, seed, -1e-3, 0.5)
    with pytest.raises(ValueError):
        integrate_separatrix(GOLD, seed, 1e-3, 1e-5)


# ---------------------------------------------------------------------------
# n = 2


def test_n2_quadrature_exact():
    curve = solve_n2(RotSymTensor(2, parse("1"), parse("1"), 1.0), 1e-3)
    assert np.max(np.abs(curve.w - curve.t**2 / 2)) < 1e-12
    minus = solve_n2(RotSymTensor(2, parse("-1"), parse("-1"), 1.0), 1e-3)
    assert np.max(np.abs(minus.w + minus.t**2 / 2)) < 1e-12


def test_n2_polynomial_case():
    # psi = (1+t^2)^2: w(1) = int s (1+s^2) ds = 3/4
    curve = solve_n2(RotSymTensor(2, parse("1"), parse("(1 + t^2)^2"), 1.0), 1e-3)
    assert abs(curve.w[-1] - 0.75) < 1e-10


def test_n2_negative_product_rejected():
    with pytest.raises(ValueError):
        solve_n2(RotSymTensor(2, parse("1"), parse("-1"), 1.0), 1e-2)


def test_n2_matches_generic_implicit_integration():
    # the lifted integration specialized to n = 2 (p^2 = t^2 phi psi)
    S = _surface(2, "1", "1")
    delta = 1e-4
    seed = (delta, delta**2 / 2, delta)
    curve = integrate_separatrix(S, seed, 1e-3, 1.0, w2=1.0, w3=0.0)
    ref = solve_n2(RotSymTensor(2, parse("1"), parse("1"), 1.0), 1e-3)
    common = np.intersect1d(np.round(curve.t, 12), np.round(ref.t, 12))
    ic = np.isin(np.round(curve.t, 12), common)
    ir = np.isin(np.round(ref.t, 12), common)
    assert np.max(np.abs(curve.w[ic] - ref.w[ir])) < 1e-8


# ---------------------------------------------------------------------------
# global continuation


def test_check_global_positive():
    S = _surface(3, "1", "1", t_max=3.0)
    _, curve = solve_branch(S, step=1e-3)
    rep = check_global(S, curve)
    assert rep.verdict == "global_continuation_expected"
    assert rep.grad_margin > 0
    assert rep.fold_margin > 0
    assert not rep.fold_roots


def test_check_global_detects_fold_degeneracy():
    # d/dt(t^2 psi) phi = 8 (16 t - 16 t^3) vanishes at t = 1
    S = _surface(3, "8", "8 - 4*t^2", t_max=2.0)
    _, curve = solve_branch(S, step=1e-3)
    rep = check_global(S, curve)
    assert rep.verdict == "hypothesis_failed"
    assert any(abs(r - 1.0) < 1e-6 for r in rep.fold_roots)


def test_check_global_zero_psi():
    S = _surface(3, "1", "0", t_max=1.0)
    curve = PotentialCurve(
        t=np.array([0.1, 0.2]),
        w=np.zeros(2),
        p=np.zeros(2),
        w2=0.0,
        w3=0.0,
        halt_reason="t_end",
    )
    rep = check_global(S, curve)
    assert rep.fold_margin == 0.0
    assert rep.verdict == "hypothesis_failed"


def _scalar_check_global(S, curve, grid=129):
    """Reference: the point-by-point scan that check_global broadcasts."""
    notes = []
    folds_all = []
    ts_scan = np.linspace(0.0, S.t_max, grid)
    if S.n > 2:
        for t in ts_scan:
            folds_all.extend(fold_curve(S, t))
    w_lo = min(float(np.min(curve.w)), min(folds_all, default=0.0), 0.0)
    w_hi = max(float(np.max(curve.w)), max(folds_all, default=2.0), 2.0)
    pad = 0.25 * (w_hi - w_lo + 1.0)
    grad_margin = math.inf
    for t in ts_scan:
        for w in np.linspace(w_lo - pad, w_hi + pad, grid):
            F, F_t, F_w, _ = surface_eval(S, t, w, 0.0)
            if F < 0:
                continue
            p = math.sqrt(F)
            norm = math.sqrt(F_t * F_t + F_w * F_w + 4.0 * p * p)
            grad_margin = min(grad_margin, norm)
    if not math.isfinite(grad_margin):
        grad_margin = 0.0
        notes.append("surface scan found no points with F >= 0")

    def fold_fn(t):
        phi = eval_jet2(S.phi, t)
        psi = eval_jet2(S.psi, t)
        return phi.v * (2.0 * t * psi.v + t * t * psi.d1)

    ts_pos = np.linspace(S.t_max / grid, S.t_max, grid)
    mvals = np.array([fold_fn(t) for t in ts_pos])
    roots = []
    scale = float(np.max(np.abs(mvals))) or 1.0
    if np.all(np.abs(mvals) < 1e-12 * scale) or scale < 1e-300:
        fold_margin = 0.0
        notes.append("fold regularity margin vanishes identically")
    else:
        for i in range(1, len(ts_pos)):
            if (mvals[i - 1] < 0) != (mvals[i] < 0) or mvals[i] == 0.0:
                roots.append(float(potential.bisect_root(fold_fn, ts_pos[i - 1], ts_pos[i])))
        fold_margin = 0.0 if roots else float(np.min(np.abs(mvals)))
        if roots:
            notes.append("fold regularity fails at t = " + ", ".join(f"{r:.6g}" for r in roots))

    dist = math.inf
    if S.n > 2:
        for t, w in zip(curve.t, curve.w):
            branches = fold_curve(S, t)
            if branches.size:
                dist = min(dist, float(np.min(np.abs(branches - w))))
    if not math.isfinite(dist):
        dist = math.nan

    ok = grad_margin > 1e-10 and fold_margin > 0 and curve.halt_reason == "t_end"
    if curve.halt_reason != "t_end":
        notes.append(f"integration halted early: {curve.halt_reason}")
    return GlobalReport(
        grad_margin=grad_margin,
        fold_margin=fold_margin,
        fold_roots=tuple(roots),
        curve_fold_distance=dist,
        verdict="global_continuation_expected" if ok else "hypothesis_failed",
        notes=tuple(notes),
    )


_NAN_ROW = float(np.linspace(0.0, 1.28e156, 129)[2])


def _hand_curve(t, w):
    t, w = np.asarray(t, dtype=float), np.asarray(w, dtype=float)
    return PotentialCurve(
        t=t, w=w, p=np.zeros_like(t), w2=0.0, w3=0.0,
        halt_reason="t_end",
    )


@pytest.mark.parametrize(
    "n, phi, psi, t_max, curve",
    [
        (3, "8", "8 - 4*t^2", 0.5, None),
        (4, "12", "12 - 8*t^2", 0.5, None),
        (5, "16", "16 - 12*t^2", 0.5, None),
        (3, "1", "1 - 4*t^2", 0.46, None),  # fold contact
        (3, "-1", "-1", 2.0, None),
        (4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", 2.0, None),
        (3, "1", "0", 1.0, ([0.1, 0.2], [0.0, 0.0])),
        # psi vanishes on the third scan row, where t^2 overflows: F = inf * 0 is
        # NaN on that row (and so is a fold discriminant), finite on the first two
        (3, "1e-160", f"1e-160*(t - {_NAN_ROW!r})", 1.28e156, ([0.1, 0.2], [0.0, 0.0])),
    ],
)
def test_check_global_matches_scalar_scan(n, phi, psi, t_max, curve):
    S = _surface(n, phi, psi, t_max)
    curve = solve_branch(S, step=1e-3)[1] if curve is None else _hand_curve(*curve)
    got = check_global(S, curve)
    with np.errstate(over="ignore", invalid="ignore"):  # numpy scalars warn, Python floats do not
        ref = _scalar_check_global(S, curve)
    assert got.grad_margin == ref.grad_margin
    assert got.fold_margin == ref.fold_margin
    assert got.fold_roots == ref.fold_roots
    d, d_ref = got.curve_fold_distance, ref.curve_fold_distance
    assert d == d_ref or (math.isnan(d) and math.isnan(d_ref))
    assert got.verdict == ref.verdict
    assert got.notes == ref.notes


@pytest.mark.parametrize(
    "n, phi, psi, t_max",
    [(4, "12", "12 - 8*t^2", 0.5), (3, "-1", "-1", 2.0)],
)
def test_integrate_evaluates_each_jet_once(monkeypatch, n, phi, psi, t_max):
    S = _surface(n, phi, psi, t_max)
    step = 1e-3
    rep = saddle_report(S)
    seed = seed_separatrix(S, rep, seed_offset(t_max, step))
    calls = []

    def counting(e, t):
        calls.append((id(e), t))
        return eval_jet2(e, t)

    monkeypatch.setattr(potential, "eval_jet2", counting)
    curve = integrate_separatrix(S, seed, step, t_max, w2=rep.w2, w3=rep.w3)
    assert curve.halt_reason == "t_end"
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "n, phi, psi, t_max",
    [
        (4, "12", "12 - 8*t^2", 0.5),
        (3, "-1", "-1", 2.0),
        (4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", 2.0),
        (3, "1", "1 - 4*t^2", 0.46),
    ],
)
def test_integrate_grid_path_matches_scalar_path(monkeypatch, n, phi, psi, t_max):
    S = _surface(n, phi, psi, t_max)
    _, fast = solve_branch(S, step=1e-3)
    monkeypatch.setattr(potential, "jet_grid", lambda e, ts: None)
    _, slow = solve_branch(S, step=1e-3)
    for name in ("t", "w", "p"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()
    assert (fast.halt_reason, fast.halt_detail) == (slow.halt_reason, slow.halt_detail)
    assert fast.constraint_max == slow.constraint_max


@pytest.mark.parametrize(
    "n, phi, psi, t_max",
    [
        (3, "1", "1", 10.0),
        (3, "-1", "-1", 10.0),
        (4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", 2.0),
    ],
)
def test_uniform_steps_read_the_grid_table(monkeypatch, n, phi, psi, t_max):
    # Only the capped steps near the origin miss the array blocks (20 and 28
    # scalar rows here); a uniform step that fell back to the scalar path
    # would keep the output but lose the array sampling.
    calls = []
    row = potential._target_row

    def counting(T, t):
        calls.append(t)
        return row(T, t)

    monkeypatch.setattr(potential, "_target_row", counting)
    _, curve = solve_branch(_surface(n, phi, psi, t_max), 1e-3)
    assert curve.halt_reason == "t_end"
    assert len(calls) <= 32


def test_constant_targets_never_halt_spuriously():
    # Near the saddle the p equation is stiff for large n; an overshooting
    # RK4 predictor used to end these solves with a false "w' sign change".
    failures = []
    for n in range(3, 41):
        for a in ("1", "8", "-1"):
            for step in (1e-3, 1e-2):
                S = _surface(n, a, a, 1.0)
                _, curve = solve_branch(S, step)
                verdict = check_global(S, curve).verdict
                if curve.halt_reason != "t_end" or verdict != "global_continuation_expected":
                    failures.append((n, a, step, curve.halt_reason, curve.halt_detail))
    assert not failures, failures
