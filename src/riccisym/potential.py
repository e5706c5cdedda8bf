"""Ricci potential via the folded saddle of an implicit ODE.

The scalar reduction of the prescribed-curvature system is the implicit
differential equation

    (n-1) p^2 = (n-2) phi(t) (w^2 - 2w) + t^2 phi(t) psi(t),    p = dw/dt,

handled here as the zero set of

    F(t, w, p) = [(n-2) phi (w^2 - 2w) + t^2 phi psi] / (n-1) - p^2.

Instead of solving for p, the equation is lifted to the Lie-Cartan vector
field X = F_p d/dt + p F_p d/dw - (F_t + p F_w) d/dp, which is tangent to
F = 0; projections of its integral curves to the (t, w) plane solve the
implicit ODE.  The origin is a hyperbolic saddle of X sitting on the fold
curve {F = F_p = 0}; the physically selected solution branch leaves the
origin quadratically, w ~ w2 t^2 / 2, with w2 the sign-matched root of

    (n-1) w2^2 + (n-2) phi(0) w2 - phi(0) psi(0) = 0.

Integration runs in t (unit speed where F_p != 0) with a one-dimensional
Newton projection of p back onto the surface after every step; F is
quadratic in p, so the projection is a Babylonian iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .exprfn import Expr, eval_jet2

FOLD_TOL = 1e-8
EXIT_TOL = 1e-12
PROJECTION_TOL = 1e-13


class ProjectionError(RuntimeError):
    pass


class StepUnderflowError(RuntimeError):
    pass


@dataclass(frozen=True)
class SurfaceF:
    """The implicit surface F(t, w, p) = 0 for a target tensor on R^n.

    phi and psi extend smoothly to t < 0 through their closed forms, so the
    surface is defined in a full neighborhood of the origin.
    """

    n: int
    phi: Expr
    psi: Expr
    t_max: float


def target_jets(S: SurfaceF, t: float):
    """The (phi, psi) 2-jets at t; everything else on the surface is arithmetic."""
    return eval_jet2(S.phi, t), eval_jet2(S.psi, t)


def surface_terms(n: int, t, w, p, phi, dphi, psi, dpsi):
    """(F, F_t, F_w, F_p) from the target values phi, psi and their t-derivatives.

    Every argument may be a float or an ndarray; arrays broadcast together.
    """
    ww = w * w - 2.0 * w
    tt = t * t * phi * psi
    F = ((n - 2) * phi * ww + tt) / (n - 1) - p * p
    # d/dt of t^2 phi psi = 2 t phi psi + t^2 (phi' psi + phi psi')
    dtt = 2.0 * t * phi * psi + t * t * (dphi * psi + phi * dpsi)
    F_t = ((n - 2) * dphi * ww + dtt) / (n - 1)
    F_w = (n - 2) * phi * (2.0 * w - 2.0) / (n - 1)
    F_p = -2.0 * p
    return F, F_t, F_w, F_p


def surface_eval(S: SurfaceF, t: float, w: float, p: float, jets=None):
    """Return (F, F_t, F_w, F_p) at the phase point (t, w, p).

    jets are the (phi, psi) 2-jets at t when the caller already has them.
    """
    phi, psi = target_jets(S, t) if jets is None else jets
    return surface_terms(S.n, t, w, p, phi.v, phi.d1, psi.v, psi.d1)


def lie_cartan_field(S: SurfaceF, state) -> np.ndarray:
    """X = (F_p, p F_p, -(F_t + p F_w)); tangent to F = 0 by construction."""
    t, w, p = state
    _, F_t, F_w, F_p = surface_eval(S, t, w, p)
    return np.array([F_p, p * F_p, -(F_t + p * F_w)])


# ---------------------------------------------------------------------------
# saddle classification


@dataclass(frozen=True)
class SaddleReport:
    """Linearization of the Lie-Cartan field at the origin.

    lam1 > 0 > lam2 are the nonzero eigenvalues; eigenvectors are (1, 0,
    -lam/2), all tangent to the surface.  w2 is the curvature of the
    selected solution branch (sign matched to phi(0)); the branch leaves
    the origin along the eigenvector of lam_seed = -2 w2, and w3 is the
    cubic series coefficient used to bridge quadratures across t = 0.
    """

    DX0: np.ndarray
    lam1: float
    lam2: float
    unstable_dir: np.ndarray
    stable_dir: np.ndarray
    classification: str  # "folded_saddle" | "degenerate"
    w2: float
    w3: float
    lam_seed: float
    reason: str = ""


def _eigvec(lam: float) -> np.ndarray:
    v = np.array([1.0, 0.0, -lam / 2.0])
    return v / np.linalg.norm(v)


def saddle_report(S: SurfaceF) -> SaddleReport:
    n = S.n
    phi = eval_jet2(S.phi, 0.0)
    psi = eval_jet2(S.psi, 0.0)
    phi0, psi0 = phi.v, psi.v
    DX0 = np.array(
        [
            [0.0, 0.0, -2.0],
            [0.0, 0.0, 0.0],
            [
                -2.0 * phi0 * psi0 / (n - 1),
                -2.0 * (n - 2) * phi.d1 / (n - 1),
                2.0 * (n - 2) * phi0 / (n - 1),
            ],
        ]
    )
    if n == 2:
        return SaddleReport(
            DX0, math.nan, math.nan, np.zeros(3), np.zeros(3), "degenerate",
            math.nan, math.nan, math.nan, reason="n = 2 reduces to direct quadrature",
        )
    if phi0 * psi0 <= 0:
        return SaddleReport(
            DX0, math.nan, math.nan, np.zeros(3), np.zeros(3), "degenerate",
            math.nan, math.nan, math.nan,
            reason=f"phi(0) psi(0) = {phi0 * psi0:.6g} <= 0",
        )
    # nonzero eigenvalues solve  -lam^2 + B lam + C = 0
    B = 2.0 * (n - 2) * phi0 / (n - 1)
    C = 4.0 * phi0 * psi0 / (n - 1)
    disc = math.sqrt(B * B + 4.0 * C)
    lam1 = 0.5 * (B + disc)
    lam2 = 0.5 * (B - disc)
    # branch curvature: (n-1) x^2 + (n-2) phi0 x - phi0 psi0 = 0, sign(x) = sign(phi0)
    qa, qb, qc = float(n - 1), (n - 2) * phi0, -phi0 * psi0
    qd = math.sqrt(qb * qb - 4.0 * qa * qc)
    roots = ((-qb + qd) / (2 * qa), (-qb - qd) / (2 * qa))
    w2 = next(x for x in roots if x * phi0 > 0)
    w3 = 3.0 * (psi.d1 + phi.d1 / (n - 1)) / (n + 1)
    return SaddleReport(
        DX0=DX0,
        lam1=lam1,
        lam2=lam2,
        unstable_dir=_eigvec(lam1),
        stable_dir=_eigvec(lam2),
        classification="folded_saddle",
        w2=w2,
        w3=w3,
        lam_seed=-2.0 * w2,
    )


def fold_branches(n: int, t, psi):
    """Fold {F = F_p = 0} over t, from psi(t): w = 1 -+ sqrt(1 - t^2 psi / (n-2)).

    t and psi may be floats or ndarrays.  Returns (real, lower, upper); real
    is False where the discriminant is negative, and both branches are NaN
    there.  The lower branch expands as w = psi(0) t^2 / (2(n-2)) + O(t^4).
    """
    disc = 1.0 - t * t * psi / (n - 2)
    real = np.logical_not(disc < 0)
    s = np.sqrt(np.where(real, disc, np.nan))
    return real, 1.0 - s, 1.0 + s


def fold_curve(S: SurfaceF, t: float) -> np.ndarray:
    """w values (lower, upper) of the fold over t; empty when there is none."""
    if S.n == 2:
        raise ValueError("fold curve is defined for n > 2")
    real, lower, upper = fold_branches(S.n, t, eval_jet2(S.psi, t).v)
    return np.array([lower, upper]) if real else np.array([])


# ---------------------------------------------------------------------------
# separatrix integration


@dataclass
class PotentialCurve:
    """Samples (t_i, w_i, p_i) of the Ricci potential on F = 0.

    t starts at the seed offset delta; w2/w3 are the series coefficients of
    the branch at the origin (used to bridge [0, delta] in reconstruction).
    """

    n: int
    t: np.ndarray
    w: np.ndarray
    p: np.ndarray
    delta: float
    w2: float
    w3: float
    halt_reason: str  # "t_end" | "fold_contact" | "surface_exit"
    halt_detail: str = ""
    constraint_max: float = 0.0


def _project_p(t: float, Q: float, p: float, tol: float):
    """Newton iteration on p alone for Q - p^2 = 0, Q = F(t, w, 0) (Babylonian sqrt)."""
    scale = abs(Q) + p * p + 1e-300
    target = max(tol, 8.0 * np.finfo(float).eps * scale)
    for _ in range(20):
        F = Q - p * p
        if abs(F) <= target:
            return p, abs(F)
        if p == 0.0:
            break
        p = p + F / (2.0 * p)
    raise ProjectionError(
        f"surface projection did not converge at t = {t:.6g} (|F| = {abs(Q - p * p):.3e})"
    )


def seed_offset(t_max: float, step: float) -> float:
    """Default seed abscissa: deep in the series range, below half a step."""
    return min(1e-4 * t_max, 0.5 * step)


def seed_separatrix(S: SurfaceF, rep: SaddleReport, delta: float):
    """Second-order series seed (delta, w2 d^2/2, w2 d), p projected onto F = 0."""
    if rep.classification != "folded_saddle":
        raise ValueError(f"cannot seed a degenerate configuration: {rep.reason}")
    if not 0 < delta <= 1e-2 * S.t_max:
        raise ValueError(f"delta must lie in (0, {1e-2 * S.t_max:g}]")
    w0 = rep.w2 * delta * delta / 2.0
    p0 = rep.w2 * delta
    Q = surface_eval(S, delta, w0, 0.0)[0]
    p_proj, _ = _project_p(delta, Q, p0, PROJECTION_TOL)
    return delta, w0, p_proj


class _FoldContact(Exception):
    pass


def integrate_separatrix(
    S: SurfaceF,
    seed,
    step: float,
    t_end: float,
    fold_tol: float = FOLD_TOL,
    exit_tol: float = EXIT_TOL,
    projection_tol: float = PROJECTION_TOL,
    w2: float = math.nan,
    w3: float = math.nan,
) -> PotentialCurve:
    """Integrate the solution branch from the seed up to t_end.

    Classical 4th-order one-step method on (w, p) with t as the independent
    variable, each step followed by a Newton projection of p onto F = 0.
    Halts at t_end, at fold contact (|F_p| below fold_tol), or when the
    projected region F >= 0 is exited; the reason is recorded on the curve.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t0, w0, p0 = seed
    if t_end <= t0:
        raise ValueError("t_end must exceed the seed abscissa")

    # The RK4 stages, the region test and the projection of one step share
    # abscissae (k2/k3 at t + h/2; k4, Q, the projection and the next k1 at
    # t + h; a halved step reuses t + h/2), so each (phi, psi) jet is
    # evaluated once.  Four entries cover the current step and its halvings.
    cache = {}

    def jets(t):
        j = cache.pop(t, None)
        if j is None:
            j = target_jets(S, t)
            if len(cache) >= 4:
                del cache[next(iter(cache))]
        cache[t] = j
        return j

    def rhs(t, w, p):
        F, F_t, F_w, F_p = surface_eval(S, t, w, p, jets(t))
        if abs(F_p) < fold_tol:
            raise _FoldContact(f"|F_p| = {abs(F_p):.3e} < {fold_tol:g} at t = {t:.6g}")
        return p, -(F_t + p * F_w) / F_p

    # aligned targets: multiples of step, then exactly t_end
    k0 = int(math.floor(t0 / step + 1e-9)) + 1
    targets = [k * step for k in range(k0, int(math.floor(t_end / step + 1e-9)) + 1)]
    if not targets or targets[-1] < t_end - 1e-9 * step:
        targets.append(t_end)
    if abs(targets[-1] - t_end) <= 1e-9 * step:
        targets[-1] = t_end

    def rk4_step(t, w, p, h):
        k1w, k1p = rhs(t, w, p)
        k2w, k2p = rhs(t + h / 2, w + h / 2 * k1w, p + h / 2 * k1p)
        k3w, k3p = rhs(t + h / 2, w + h / 2 * k2w, p + h / 2 * k2p)
        k4w, k4p = rhs(t + h, w + h * k3w, p + h * k3p)
        return (
            w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w),
            p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
        )

    ts, ws, ps = [t0], [w0], [p0]
    drift = 0.0
    halt_reason, halt_detail = "t_end", ""
    t, w, p = t0, w0, p0
    min_h = 1e-6 * step
    halted = False
    try:
        for target in targets:
            # Sub-steps: capped by t/4 near the origin (the lifted field has
            # 1/t-scale derivatives there) and halved near the projected
            # region boundary; only uniform targets are recorded.
            while True:
                h = min(target - t, max(0.25 * t, 1e-3 * step))
                if h <= 1e-15 * max(1.0, abs(t)):
                    raise StepUnderflowError(f"step underflow at t = {t:.6g}")
                while True:
                    w_try, p_try = rk4_step(t, w, p, h)
                    Q = surface_eval(S, t + h, w_try, 0.0, jets(t + h))[0]
                    if Q > 0.0:
                        break
                    if -exit_tol <= Q <= 0.0:
                        halted = True
                        halt_reason = "fold_contact"
                        halt_detail = (
                            f"projected region boundary reached at t = {t + h:.6g}"
                        )
                        break
                    if h <= min_h:
                        halted = True
                        Q_here = surface_eval(S, t, w, 0.0, jets(t))[0]
                        scale = 1.0 + abs(Q_here) + p * p
                        if Q_here <= fold_tol * scale:
                            halt_reason = "fold_contact"
                            _, F_t, F_w, _ = surface_eval(S, t, w, p, jets(t))
                            push = -(F_t + p * F_w)
                            halt_detail = (
                                f"fold reached near t = {t:.6g} "
                                f"(p = {p:.3e}, push = {push:.3e})"
                            )
                        else:
                            halt_reason = "surface_exit"
                            halt_detail = (
                                f"F(t, w, 0) = {Q:.3e} < -{exit_tol:g} "
                                f"past t = {t:.6g}"
                            )
                        break
                    h /= 2.0
                if halted:
                    break
                p_try, resid = _project_p(t + h, Q, p_try, projection_tol)
                if p_try * p <= 0.0:
                    # w' changes sign only on the fold; never record past it
                    halted = True
                    halt_reason = "fold_contact"
                    halt_detail = f"w' sign change across t = {t + h:.6g}"
                    break
                drift = max(drift, resid)
                t, w, p = t + h, w_try, p_try
                if t >= target - 1e-12 * step:
                    ts.append(t)
                    ws.append(w)
                    ps.append(p)
                    break
            if halted:
                break
    except _FoldContact as fc:
        halt_reason = "fold_contact"
        halt_detail = str(fc)

    return PotentialCurve(
        n=S.n,
        t=np.array(ts),
        w=np.array(ws),
        p=np.array(ps),
        delta=t0,
        w2=w2,
        w3=w3,
        halt_reason=halt_reason,
        halt_detail=halt_detail,
        constraint_max=drift,
    )


def solve_branch(S: SurfaceF, step: float, t_end: float | None = None, delta: float | None = None) -> PotentialCurve:
    """Classify the saddle, seed the branch and integrate it in one call."""
    rep = saddle_report(S)
    if t_end is None:
        t_end = S.t_max
    if delta is None:
        delta = seed_offset(S.t_max, step)
    seed = seed_separatrix(S, rep, delta)
    return integrate_separatrix(S, seed, step, t_end, w2=rep.w2, w3=rep.w3)


# ---------------------------------------------------------------------------
# n = 2: direct quadrature


def solve_n2(phi: Expr, psi: Expr, sign: int, t_end: float, step: float) -> PotentialCurve:
    """w(t) = sign * integral of s sqrt(phi psi) ds, by composite Simpson."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m = max(2, int(round(t_end / step)))
    if m % 2:
        m += 1
    ts = np.linspace(0.0, t_end, m + 1)
    prod = np.array([eval_jet2(phi, t).v * eval_jet2(psi, t).v for t in ts])
    if np.any(prod < 0):
        bad = ts[np.argmax(prod < 0)]
        raise ValueError(f"phi * psi < 0 at t = {bad:.6g}")
    integrand = ts * np.sqrt(prod)
    w = sign * cumulative_simpson(integrand, x=ts, initial=0.0)
    p = sign * integrand
    phi0 = eval_jet2(phi, 0.0)
    psi0 = eval_jet2(psi, 0.0)
    w2 = sign * math.sqrt(max(phi0.v * psi0.v, 0.0))
    w3 = (
        sign * (phi0.d1 * psi0.v + phi0.v * psi0.d1) / math.sqrt(phi0.v * psi0.v)
        if phi0.v * psi0.v > 0
        else 0.0
    )
    return PotentialCurve(
        n=2, t=ts, w=w, p=p, delta=0.0, w2=w2, w3=w3, halt_reason="t_end"
    )


# ---------------------------------------------------------------------------
# global continuation check


@dataclass(frozen=True)
class GlobalReport:
    """Margins behind the global continuation criterion.

    The branch continues to every t once the surface stays regular and the
    fold stays a regular curve, i.e. d/dt(t^2 psi) phi does not vanish on
    (0, t_max].
    """

    grad_margin: float
    fold_margin: float
    fold_roots: tuple
    curve_fold_distance: float
    verdict: str  # "global_continuation_expected" | "hypothesis_failed"
    notes: tuple = ()


def _jet_columns(S: SurfaceF, ts: np.ndarray) -> np.ndarray:
    """Rows phi, phi', psi, psi' over ts, from one pair of jets per abscissa."""
    jets = (target_jets(S, t) for t in ts)
    return np.array([(phi.v, phi.d1, psi.v, psi.d1) for phi, psi in jets], dtype=float).T


@np.errstate(over="ignore", invalid="ignore")  # the scans meet inf and NaN like Python floats
def check_global(S: SurfaceF, curve: PotentialCurve, grid: int = 129) -> GlobalReport:
    """Margins of the global continuation criterion for a computed branch.

    (a) grad_margin: the least |grad F| on the surface over a grid x grid
        scan of (t, w), t in [0, t_max] and w spanning the curve and the
        fold with a 25% pad; each point with F(t, w, 0) = Q >= 0 is lifted
        to p = sqrt(Q), and points where |grad F| is NaN are skipped.
    (b) fold_margin: the least |phi d/dt(t^2 psi)| over grid samples of
        (0, t_max]; sign changes are bisected into fold_roots and make the
        margin 0.
    (c) curve_fold_distance: the least |w - fold| along the curve, NaN
        when the fold never exists over it.

    phi and psi are evaluated once per abscissa; the scans are broadcasts.
    """
    notes = []
    n = S.n
    # (a) regularity of F^{-1}(0): min |grad F| over an on-surface scan
    ts_scan = np.linspace(0.0, S.t_max, grid)
    jets = _jet_columns(S, ts_scan)
    folds_all = []
    if n > 2:
        real, lower, upper = fold_branches(n, ts_scan, jets[2])
        folds_all = np.column_stack((lower, upper))[real].ravel().tolist()
    w_lo = min(float(np.min(curve.w)), min(folds_all, default=0.0), 0.0)
    w_hi = max(float(np.max(curve.w)), max(folds_all, default=2.0), 2.0)
    pad = 0.25 * (w_hi - w_lo + 1.0)
    ws = np.linspace(w_lo - pad, w_hi + pad, grid)
    # rows: t, columns: w
    F, F_t, F_w, _ = surface_terms(n, ts_scan[:, None], ws, 0.0, *jets[:, :, None])
    # F(t, w, 0) = Q, on-surface p = sqrt(Q); NaN (and so skipped) where Q < 0
    p = np.sqrt(F)
    norm = np.sqrt(F_t * F_t + F_w * F_w + 4.0 * p * p)
    grad_margin = float(np.fmin.reduce(norm, axis=None, initial=math.inf))
    if not math.isfinite(grad_margin):
        grad_margin = 0.0
        notes.append("surface scan found no points with F >= 0")

    # (b) fold regularity margin m(t) = phi(t) d/dt(t^2 psi(t)) on (0, t_max]
    def fold_margin_at(t, phi, psi, dpsi):
        return phi * (2.0 * t * psi + t * t * dpsi)

    def fold_fn(t):
        phi, psi = target_jets(S, t)
        return fold_margin_at(t, phi.v, psi.v, psi.d1)

    ts_pos = np.linspace(S.t_max / grid, S.t_max, grid)
    phi, _, psi, dpsi = _jet_columns(S, ts_pos)
    mvals = fold_margin_at(ts_pos, phi, psi, dpsi)
    roots = []
    scale = float(np.max(np.abs(mvals))) or 1.0
    if np.all(np.abs(mvals) < 1e-12 * scale) or scale < 1e-300:
        fold_margin = 0.0
        notes.append("fold regularity margin vanishes identically")
    else:
        neg = mvals < 0
        for i in np.flatnonzero((neg[:-1] != neg[1:]) | (mvals[1:] == 0.0)) + 1:
            roots.append(float(bisect_root(fold_fn, ts_pos[i - 1], ts_pos[i])))
        fold_margin = 0.0 if roots else float(np.min(np.abs(mvals)))
        if roots:
            notes.append(
                "fold regularity fails at t = "
                + ", ".join(f"{r:.6g}" for r in roots)
            )

    # (c) distance from the computed branch to the fold branches
    dist = math.inf
    if n > 2:
        psi = np.array([eval_jet2(S.psi, t).v for t in curve.t])
        _, lower, upper = fold_branches(n, curve.t, psi)
        gap = np.minimum(np.abs(lower - curve.w), np.abs(upper - curve.w))
        dist = float(np.fmin.reduce(gap, initial=math.inf))
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


def bisect_root(fn, lo, hi, width=1e-10):
    """A sign change of fn on [lo, hi], bisected to the given width."""
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
