"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is asserted exactly as stated; no criterion is
calibrated after the fact.
"""

import numpy as np

from riccisym import tensorlab
from riccisym.exprfn import parse
from riccisym.hypersurface import (
    GraphEmbedding,
    cartesian_field,
    frame_diagonal,
    gauss_curvatures,
    induced_metric,
    principal_curvatures,
    ricci_graph,
)
from riccisym.pipeline import solve
from riccisym.potential import (
    integrate_separatrix,
    saddle_report,
    seed_separatrix,
    solve_branch,
    solve_n2,
)
from riccisym.rotsym import RotSymTensor
from riccisym.tensorlab import (
    MetricField,
    christoffel,
    metric_at,
    ricci_numeric,
    scalar_curvature,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def _gold_tensor(n, t_max=0.5):
    phi = parse(f"{4 * (n - 1)}")
    psi = parse(f"{4 * (n - 1)} - {4 * (n - 2)}*t^2")
    return RotSymTensor(n, phi, psi, t_max)


def test_criterion_1_gold_family():
    worst = 0.0
    for n in (3, 4, 5):
        sol = solve(_gold_tensor(n), step=1e-3, t_lo=0.05)
        prof = sol.recon.profile
        i = int(np.argmin(np.abs(prof.grid - 0.5)))
        assert abs(prof.grid[i] - 0.5) < 1e-12
        errs = (
            abs(sol.recon.w[i] - 0.5),
            abs(prof.r[i] - 0.5),
            abs(prof.f[i] + 0.25),
            *sol.recon.ricci_residuals,
        )
        worst = max(worst, *errs)
    ok = _report(1, "gold closed-form family", worst <= 1e-6, f"worst error {worst:.2e}")
    assert ok


def test_criterion_2_saddle_spectrum():
    worst = 0.0
    for n in (3, 4, 5, 8):
        for a in (1.0, 8.0, -1.0, -8.0):
            S = RotSymTensor(n, parse(f"{a}"), parse(f"{a}"), 1.0)
            rep = saddle_report(S)
            B = 2 * (n - 2) * a / (n - 1)
            C = 4 * a * a / (n - 1)
            roots = sorted(np.roots([-1.0, B, C]).real)
            worst = max(
                worst,
                abs(rep.lam2 - roots[0]),
                abs(rep.lam1 - roots[1]),
                abs(rep.lam1 * rep.lam2 + C),
            )
    spot1 = saddle_report(RotSymTensor(3, parse("8"), parse("8"), 1.0))
    spot2 = saddle_report(RotSymTensor(3, parse("1"), parse("1"), 1.0))
    spots = max(
        abs(spot1.lam1 - 16), abs(spot1.lam2 + 8), abs(spot2.lam1 - 2), abs(spot2.lam2 + 1)
    )
    ok = _report(
        2, "saddle spectrum", worst <= 1e-10 and spots <= 1e-10, f"worst {max(worst, spots):.2e}"
    )
    assert ok


def test_criterion_3_branch_curvature_at_origin():
    worst = 0.0
    for n in (3, 4, 5):
        S = RotSymTensor(n, parse("1"), parse("1"), 1.0)
        _, curve = solve_branch(S, step=1e-3, t_end=0.2)
        basis = np.vstack([curve.t**2, curve.t**3, curve.t**4]).T
        coef, *_ = np.linalg.lstsq(basis, curve.w, rcond=None)
        worst = max(worst, abs(2 * coef[0] - 1.0 / (n - 1)))
    ok = _report(3, "separatrix regularity at 0", worst <= 1e-3, f"worst {worst:.2e}")
    assert ok


def test_criterion_4_roundtrip():
    worst = 0.0
    for n in (3, 4):
        for c in (0.5, 1.0):
            phi = parse(f"{4 * c * (n - 1)}")
            psi = parse(f"{4 * c * (n - 1)} - {4 * c * c * (n - 2)}*t^2")
            T = RotSymTensor(n, phi, psi, 0.4)
            sol = solve(T, step=1e-3)
            prof = sol.recon.profile
            mask = prof.grid <= 0.4 + 1e-12
            worst = max(
                worst,
                float(np.max(np.abs(prof.f[mask] + c * prof.grid[mask] ** 2))),
                float(np.max(np.abs(prof.r[mask] - prof.grid[mask]))),
            )
    ok = _report(4, "roundtrip generator profiles", worst <= 1e-4, f"sup error {worst:.2e}")
    assert ok


def test_criterion_5_hypersurface_oracle():
    sphere = GraphEmbedding(3, parse("sqrt(1 - t)"), 0.9)
    worst_sphere = 0.0
    for r in (0.3, 0.5, 0.7):
        f, g_rr, g_tt = induced_metric(sphere, r)
        ric_rr, ric_tt = ricci_graph(sphere, r)
        worst_sphere = max(
            worst_sphere, abs(ric_rr - 2 * g_rr), abs(ric_tt - 2 * g_tt)
        )
    ok_a = worst_sphere <= 1e-8

    mf = cartesian_field(sphere)
    worst_oracle = 0.0
    for r in (0.3, 0.5, 0.7):
        x = np.array([0.6 * r, 0.8 * r, 0.0])
        ric = ricci_numeric(mf, x, h=2.5e-4)
        g = metric_at(mf, x)
        rad, tan = tensorlab.frame_ratios(ric, g, x)
        frame_rad, frame_tan = frame_diagonal(sphere, r)
        worst_oracle = max(worst_oracle, abs(rad - frame_rad), abs(tan - frame_tan))
    ok_b = worst_oracle <= 1e-4

    scal = scalar_curvature(mf, np.array([0.3, 0.25, 0.2]), h=2.5e-4)
    ok_c = abs(scal - 6.0) <= 1e-3

    parab = GraphEmbedding(3, parse("t"), 2.0)
    ric_rr, ric_tt = ricci_graph(parab, 1.0)
    f, g_rr, g_tt = induced_metric(parab, 1.0)
    coord_diag = np.array([ric_rr / g_rr, ric_tt / g_tt, ric_tt / g_tt])
    h1, h2 = principal_curvatures(parab, 1.0)
    _, ric_frame, scal_frame = gauss_curvatures([h1, h2, h2])
    target = np.array([0.32, 0.96, 0.96])
    ok_d = (
        np.max(np.abs(coord_diag - target)) <= 1e-6
        and np.max(np.abs(np.diag(ric_frame) - target)) <= 1e-6
        and abs(scal_frame - 2.24) <= 1e-5
    )
    ok = _report(
        5,
        "hypersurface oracle",
        ok_a and ok_b and ok_c and ok_d,
        f"sphere {worst_sphere:.2e}, oracle {worst_oracle:.2e}, scalar {scal:.6f}",
    )
    assert ok


def test_criterion_6_flat_gates():
    euclid = MetricField(3, lambda x: np.eye(3))
    flat_graph = GraphEmbedding(3, parse("2"), 2.0)
    numeric = float(np.max(np.abs(ricci_numeric(euclid, [0.2, -0.4, 0.3]))))
    graph = max(abs(v) for v in ricci_graph(flat_graph, 0.8))
    gauss = float(np.max(np.abs(gauss_curvatures(np.zeros(3))[1])))
    ok_zero = max(numeric, graph, gauss) <= 1e-8
    # the legacy tangential coefficient must fail this gate
    _, legacy = ricci_graph(flat_graph, 0.8, legacy_coefficient=True)
    ok_legacy_fails = abs(legacy) > 1e-8
    ok = _report(
        6,
        "flat sanity gates",
        ok_zero and ok_legacy_fails,
        f"flat {max(numeric, graph, gauss):.2e}, legacy variant {legacy:+.3f}",
    )
    assert ok


def test_criterion_7_two_dimensional_branch():
    curve = solve_n2(RotSymTensor(2, parse("1"), parse("1"), 1.0), 1e-3)
    err = float(np.max(np.abs(curve.w - curve.t**2 / 2)))
    i = int(np.argmin(np.abs(curve.t - 1.0)))
    err_end = abs(curve.w[i] - 0.5)
    ok = _report(7, "n = 2 quadrature", err_end <= 1e-12, f"error at t=1 {err_end:.2e}, sup {err:.2e}")
    assert ok


def test_criterion_8_global_continuation():
    T = RotSymTensor(3, parse("1"), parse("1"), 10.0)
    sol = solve(T, step=1e-3)
    ok_halt = sol.curve.halt_reason == "t_end"
    ok_verdict = (
        sol.global_report is not None
        and sol.global_report.verdict == "global_continuation_expected"
    )
    res_rr, res_tt = sol.recon.ricci_residuals
    ok_ode = max(sol.recon.residual_r, sol.recon.residual_f) <= 1e-5
    _report(
        8,
        "global continuation margins",
        ok_halt and ok_verdict and max(res_rr, res_tt) <= 1e-5,
        f"halt {sol.curve.halt_reason}, verdict {sol.global_report.verdict}, "
        f"ode residuals {max(sol.recon.residual_r, sol.recon.residual_f):.2e}, "
        f"ricci residuals ({res_rr:.2e}, {res_tt:.2e})",
    )
    assert ok_halt
    assert ok_verdict
    assert ok_ode
    assert res_rr <= 1e-5
    assert res_tt <= 1e-5, (
        f"tangential ricci residual {res_tt:.3e} > 1e-5: r' has decayed to "
        "~5e-3 at large t, where the Ricci identities amplify any error in r'"
    )


def test_criterion_9_constraint_drift_and_order():
    drifts = []
    instances = [
        _gold_tensor(3), _gold_tensor(4), _gold_tensor(5),
        RotSymTensor(3, parse("1"), parse("1"), 0.5),
        RotSymTensor(3, parse("-1"), parse("-1"), 0.5),
    ]
    for T in instances:
        _, curve = solve_branch(T, step=1e-3)
        drifts.append(curve.constraint_max)
    ok_drift = max(drifts) <= 1e-9

    S = RotSymTensor(3, parse("8"), parse("8 - 4*t^2"), 0.5)
    rep = saddle_report(S)
    seed = seed_separatrix(S, rep, 5e-3)
    errs = []
    for step in (0.02, 0.01):
        curve = integrate_separatrix(S, seed, step, 0.5, w2=rep.w2, w3=rep.w3)
        errs.append(abs(curve.w[-1] - 0.5))
    ok_order = errs[1] <= errs[0] / 8
    ok = _report(
        9,
        "constraint drift and order",
        ok_drift and ok_order,
        f"max |F| {max(drifts):.2e}, halving ratio {errs[0] / errs[1]:.1f}",
    )
    assert ok


def test_criterion_10_tensor_identity_suite():
    # Riemann symmetries + first Bianchi on frame tensors
    h1, h2 = principal_curvatures(GraphEmbedding(3, parse("t"), 2.0), 0.8)
    R4, _, _ = gauss_curvatures([h1, h2, h2])
    sym = max(tensorlab.riemann_symmetry_violations(R4).values())
    ok_sym = sym <= 1e-12

    # Christoffel lower-index symmetry is exact
    mf = tensorlab.rotsym_to_cartesian(parse("1/(1 - t^2)"), parse("t^2"), 3)
    gamma = christoffel(mf, [0.3, 0.2, 0.1])
    ok_chris = bool(np.array_equal(gamma, np.transpose(gamma, (0, 2, 1))))

    # rotation equivariance of the numeric Ricci
    rng = np.random.default_rng(20240817)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x = np.array([0.28, 0.21, 0.14])
    ric_x = ricci_numeric(mf, x, h=2.5e-4)
    ric_qx = ricci_numeric(mf, q @ x, h=2.5e-4)
    equi = float(np.max(np.abs(ric_qx - q @ ric_x @ q.T)))
    ok_equi = equi <= 1e-5

    ok = _report(
        10,
        "tensor identity suite",
        ok_sym and ok_chris and ok_equi,
        f"symmetries {sym:.2e}, equivariance {equi:.2e}",
    )
    assert ok
