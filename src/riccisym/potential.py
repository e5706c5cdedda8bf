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

Every function takes the target as a rotsym.RotSymTensor.  phi and psi
extend smoothly to t < 0 through their closed forms, so the surface is
defined in a full neighborhood of the origin.

Integration runs in t (unit speed where F_p != 0) with a one-dimensional
Newton projection of p back onto the surface after every step; F is
quadratic in p, so the projection is a Babylonian iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .exprfn import eval_jet2, jet_grid, sample
from .rotsym import DefinitenessError, DefinitenessVerdict, RotSymTensor, bisect_root

FOLD_TOL = 1e-8
EXIT_TOL = 1e-12
PROJECTION_TOL = 1e-13
GLOBAL_GRID = 129  # check_global's scan resolution
_GRID_BLOCK = 256  # integration targets per array evaluation of the target
_EPS = float(np.finfo(float).eps)


class ProjectionError(RuntimeError):
    pass


class StepUnderflowError(RuntimeError):
    pass


def _target_row(T: RotSymTensor, t: float):
    """(phi, phi', psi, psi') at t; everything else on the surface is arithmetic."""
    phi, psi = eval_jet2(T.phi, t), eval_jet2(T.psi, t)
    return phi.v, phi.d1, psi.v, psi.d1


def _coeffs(n: int, t, phi, dphi, psi, dpsi):
    """The t-only part (A, B, C, D) of F = (A ww + B)/(n-1) - p^2 and
    F_t = (C ww + D)/(n-1), ww = w^2 - 2w; floats or ndarrays."""
    # D = d/dt of t^2 phi psi = 2 t phi psi + t^2 (phi' psi + phi psi')
    D = 2.0 * t * phi * psi + t * t * (dphi * psi + phi * dpsi)
    return (n - 2) * phi, t * t * phi * psi, (n - 2) * dphi, D


def surface_terms(n: int, t, w, p, phi, dphi, psi, dpsi):
    """(F, F_t, F_w, F_p) from the target values phi, psi and their t-derivatives.

    Every argument may be a float or an ndarray; arrays broadcast together.
    """
    A, B, C, D = _coeffs(n, t, phi, dphi, psi, dpsi)
    ww = w * w - 2.0 * w
    F = (A * ww + B) / (n - 1) - p * p
    F_t = (C * ww + D) / (n - 1)
    F_w = A * (2.0 * w - 2.0) / (n - 1)
    F_p = -2.0 * p
    return F, F_t, F_w, F_p


def surface_eval(T: RotSymTensor, t: float, w: float, p: float):
    """Return (F, F_t, F_w, F_p) at the phase point (t, w, p)."""
    return surface_terms(T.n, t, w, p, *_target_row(T, t))


def lie_cartan_field(T: RotSymTensor, state) -> np.ndarray:
    """X = (F_p, p F_p, -(F_t + p F_w)); tangent to F = 0 by construction."""
    t, w, p = state
    _, F_t, F_w, F_p = surface_eval(T, t, w, p)
    return np.array([F_p, p * F_p, -(F_t + p * F_w)])


# ---------------------------------------------------------------------------
# saddle classification


@dataclass(frozen=True)
class SaddleReport:
    """Linearization of the Lie-Cartan field at the origin, a folded saddle.

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
    w2: float
    w3: float
    lam_seed: float


def _degenerate_origin(reason: str) -> DefinitenessError:
    return DefinitenessError(DefinitenessVerdict("inconsistent", None, reason))


def _origin_jets(T: RotSymTensor):
    """The jets of phi and psi at 0; raises DefinitenessError unless
    phi(0) psi(0) lies in (0, inf), as there is no branch to follow otherwise."""
    phi, psi = eval_jet2(T.phi, 0.0), eval_jet2(T.psi, 0.0)
    prod = phi.v * psi.v
    if not 0 < prod < math.inf:
        raise _degenerate_origin(
            f"phi(0) psi(0) = {prod:.6g} " + ("<= 0" if prod <= 0 else "is not finite")
        )
    return phi, psi


def _eigvec(lam: float) -> np.ndarray:
    v = np.array([1.0, 0.0, -lam / 2.0])
    return v / np.linalg.norm(v)


def saddle_report(T: RotSymTensor) -> SaddleReport:
    """The folded saddle at the origin.  n = 2, a phi(0) psi(0) outside
    (0, inf) and a non-finite linearization raise DefinitenessError."""
    n = T.n
    if n == 2:
        raise _degenerate_origin("n = 2 reduces to direct quadrature")
    phi, psi = _origin_jets(T)
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
    # nonzero eigenvalues solve  -lam^2 + B lam + C = 0
    B = 2.0 * (n - 2) * phi0 / (n - 1)
    C = 4.0 * phi0 * psi0 / (n - 1)
    disc = math.sqrt(B * B + 4.0 * C)
    lam1 = 0.5 * (B + disc)
    lam2 = 0.5 * (B - disc)
    # branch curvature: (n-1) x^2 + (n-2) phi0 x - phi0 psi0 = 0, sign(x) = sign(phi0)
    qa, qb, qc = float(n - 1), (n - 2) * phi0, -phi0 * psi0
    qd = math.sqrt(qb * qb - 4.0 * qa * qc)
    w2 = (-qb + math.copysign(qd, phi0)) / (2 * qa)
    if w2 == 0.0:  # cancelled: phi0 psi0 is below rounding against qb^2
        w2 = 2.0 * phi0 * psi0 / (qb + math.copysign(qd, qb))
    w3 = 3.0 * (psi.d1 + phi.d1 / (n - 1)) / (n + 1)
    if not (np.all(np.isfinite(DX0)) and all(map(math.isfinite, (lam1, lam2, w2, w3)))):
        raise _degenerate_origin(
            f"linearization at the origin is not finite: "
            f"lam1 = {lam1:.6g}, w2 = {w2:.6g}, w3 = {w3:.6g}"
        )
    return SaddleReport(
        DX0=DX0,
        lam1=lam1,
        lam2=lam2,
        unstable_dir=_eigvec(lam1),
        stable_dir=_eigvec(lam2),
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


def fold_curve(T: RotSymTensor, t: float) -> np.ndarray:
    """w values (lower, upper) of the fold over t; empty when there is none."""
    if T.n == 2:
        raise ValueError("fold curve is defined for n > 2")
    real, lower, upper = fold_branches(T.n, t, eval_jet2(T.psi, t).v)
    return np.array([lower, upper]) if real else np.array([])


# ---------------------------------------------------------------------------
# separatrix integration


@dataclass
class PotentialCurve:
    """Samples (t_i, w_i, p_i) of the Ricci potential on F = 0.

    t starts at the seed offset (0 for direct quadrature); w2/w3 are the
    series coefficients of the branch at the origin (used to bridge [0, t[0]]
    in reconstruction).
    """

    t: np.ndarray
    w: np.ndarray
    p: np.ndarray
    w2: float
    w3: float
    halt_reason: str  # "t_end" | "fold_contact" | "surface_exit" | "overflow"
    halt_detail: str = ""
    constraint_max: float = 0.0


def _project_p(t: float, Q: float, p: float, tol: float):
    """Newton iteration on p alone for Q - p^2 = 0, Q = F(t, w, 0) (Babylonian sqrt)."""
    scale = abs(Q) + p * p + 1e-300
    target = max(tol, 8.0 * _EPS * scale)
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


def seed_separatrix(T: RotSymTensor, rep: SaddleReport, delta: float):
    """Second-order series seed (delta, w2 d^2/2, w2 d), p projected onto F = 0."""
    if not 0 < delta <= 1e-2 * T.t_max:
        raise ValueError(f"delta must lie in (0, {1e-2 * T.t_max:g}]")
    w0 = rep.w2 * delta * delta / 2.0
    p0 = rep.w2 * delta
    Q = surface_eval(T, delta, w0, 0.0)[0]
    p_proj, _ = _project_p(delta, Q, p0, PROJECTION_TOL)
    return delta, w0, p_proj


class _Halt(Exception):
    """A geometric end of the branch: args are (halt_reason, halt_detail)."""


def _grid_block(T: RotSymTensor, prev: float, targets) -> dict:
    """_coeffs rows keyed by the abscissae a uniform step visits on its way
    through targets: prev, then each midpoint prev + (target - prev)/2 and
    target in turn.

    Empty when either jet_grid declines: the block looks ahead, so it must
    not raise at a t the solve may never reach; the scalar path raises the
    EvalError, with its own text and t, if the solve does get there.
    """
    pts = [prev]
    for target in targets:
        pts.append(prev + (target - prev) / 2)
        pts.append(target)
        prev = target
    phi = jet_grid(T.phi, pts)
    psi = None if phi is None else jet_grid(T.psi, pts)
    if psi is None:
        return {}
    with np.errstate(over="ignore", invalid="ignore"):  # like Python floats
        rows = _coeffs(T.n, np.array(pts), phi[0], phi[1], psi[0], psi[1])
    return dict(zip(pts, zip(*(c.tolist() for c in rows))))


def integrate_separatrix(
    T: RotSymTensor,
    seed,
    step: float,
    t_end: float,
    projection_tol: float = PROJECTION_TOL,
    w2: float = math.nan,
    w3: float = math.nan,
) -> PotentialCurve:
    """Integrate the solution branch from the seed up to t_end.

    Classical 4th-order one-step method on (w, p) with t as the independent
    variable, each step followed by a Newton projection of p onto F = 0.
    Halts at t_end, at fold contact (|F_p| below FOLD_TOL min(1, |phi(0)|)),
    when the projected region F >= 0 is exited, or when w or p overflows;
    the reason is recorded on the curve.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t0, w0, p0 = seed
    if t_end <= t0:
        raise ValueError("t_end must exceed the seed abscissa")

    n = T.n
    # p, and so F_p = -2p, scales with phi(0): a small target is not the fold
    fold_tol = FOLD_TOL * min(1.0, abs(eval_jet2(T.phi, 0.0).v))
    # The RK4 stages, the region test and the projection of one step share
    # abscissae (k2/k3 at t + h/2; k4, Q, the projection and the next k1 at
    # t + h; a halved step reuses t + h/2), so each row of _coeffs is
    # computed once.  Once the step is uniform, h = target - t is exact
    # (Sterbenz), so every stage lands on a target or on the midpoint
    # prev + (target - prev)/2; those are sampled as arrays, a block of
    # targets at a time (see _grid_block), into one table of rows.  The
    # near-origin capped steps and the halvings miss the block and are
    # evaluated point by point into the same table, which starts afresh
    # with every block so it stays bounded.
    table = {}

    def coeffs(t):
        c = table.get(t)
        if c is None:
            c = table[t] = _coeffs(n, t, *_target_row(T, t))
        return c

    def rhs(t, c, w, p):  # (w', p') from t's row c of _coeffs; F is not needed
        A, _, C, D = c
        ww = w * w - 2.0 * w
        F_t = (C * ww + D) / (n - 1)
        F_w = A * (2.0 * w - 2.0) / (n - 1)
        F_p = -2.0 * p
        if abs(F_p) < fold_tol:
            raise _Halt("fold_contact", f"|F_p| = {abs(F_p):.3e} < {fold_tol:g} at t = {t:.6g}")
        return p, -(F_t + p * F_w) / F_p

    # aligned targets: multiples of step, then exactly t_end
    k0 = int(math.floor(t0 / step + 1e-9)) + 1
    targets = [k * step for k in range(k0, int(math.floor(t_end / step + 1e-9)) + 1)]
    if not targets or targets[-1] < t_end - 1e-9 * step:
        targets.append(t_end)
    if abs(targets[-1] - t_end) <= 1e-9 * step:
        targets[-1] = t_end

    min_h = 1e-6 * step
    ts, ws, ps = [t0], [w0], [p0]

    def overflow(t):
        return _Halt(
            "overflow",
            f"w or p left the float range past t = {t:.6g}; "
            f"last sample t = {ts[-1]:.6g}, w = {ws[-1]:.6g}, p = {ps[-1]:.6g}",
        )

    def advance(t, w, p, h):
        """One projected RK4 sub-step of at most h, halved near the region
        boundary or where p would flip sign: the accepted (h, w, p, |F|)."""
        k1w, k1p = rhs(t, coeffs(t), w, p)
        while True:
            mid = coeffs(t + h / 2)
            k2w, k2p = rhs(t + h / 2, mid, w + h / 2 * k1w, p + h / 2 * k1p)
            k3w, k3p = rhs(t + h / 2, mid, w + h / 2 * k2w, p + h / 2 * k2p)
            A, B, _, _ = end = coeffs(t + h)  # after k3: a fold halt wins over an EvalError
            k4w, k4p = rhs(t + h, end, w + h * k3w, p + h * k3p)
            w_try = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
            p_try = p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            Q = (A * (w_try * w_try - 2.0 * w_try) + B) / (n - 1)
            if Q > 0.0:
                p_try, resid = _project_p(t + h, Q, p_try, projection_tol)
                if p_try * p > 0.0:
                    return h, w_try, p_try, resid
                # Near the saddle the p equation is stiff: an RK4 predictor
                # can overshoot p through 0 and the projection then lands on
                # the wrong root.  w' changes sign only on the fold, so a
                # flip that survives down to min_h halts; never record past it.
                if h <= min_h:
                    raise _Halt("fold_contact", f"w' sign change across t = {t + h:.6g}")
            elif -EXIT_TOL <= Q:
                raise _Halt(
                    "fold_contact", f"projected region boundary reached at t = {t + h:.6g}"
                )
            elif h <= min_h:
                if not math.isfinite(Q):  # NaN or -inf: the trial step overflowed
                    raise overflow(t)
                # a halt: t is sampled again rather than its target row kept;
                # F_t and F_w do not depend on p
                Q_here, F_t, F_w, _ = surface_terms(n, t, w, 0.0, *_target_row(T, t))
                if Q_here <= FOLD_TOL * (1.0 + abs(Q_here) + p * p):
                    raise _Halt(
                        "fold_contact",
                        f"fold reached near t = {t:.6g} "
                        f"(p = {p:.3e}, push = {-(F_t + p * F_w):.3e})",
                    )
                raise _Halt(
                    "surface_exit", f"F(t, w, 0) = {Q:.3e} < -{EXIT_TOL:g} past t = {t:.6g}"
                )
            h /= 2.0

    drift = 0.0
    halt_reason, halt_detail = "t_end", ""
    t, w, p = t0, w0, p0
    use_grid = True
    try:
        for i, target in enumerate(targets):
            if i % _GRID_BLOCK == 0:
                # once a block declines, the rest of the solve goes point by
                # point, so no target is sampled twice
                prev = targets[i - 1] if i else t0
                table = _grid_block(T, prev, targets[i : i + _GRID_BLOCK]) if use_grid else {}
                use_grid = bool(table)
            # Sub-steps are capped by t/4 near the origin, where the lifted
            # field has 1/t-scale derivatives; only the targets are recorded.
            while t < target - 1e-12 * step:
                h = min(target - t, max(0.25 * t, 1e-3 * step))
                if h <= 1e-15 * max(1.0, abs(t)):
                    raise StepUnderflowError(f"step underflow at t = {t:.6g}")
                h, w, p, resid = advance(t, w, p, h)
                if resid > drift:  # rare once drift settles, so test inf only here
                    if resid == math.inf:  # _project_p met an infinite Q or p
                        raise overflow(t)
                    drift = resid
                t += h
            ts.append(t)
            ws.append(w)
            ps.append(p)
    except _Halt as halt:
        halt_reason, halt_detail = halt.args

    return PotentialCurve(
        t=np.array(ts),
        w=np.array(ws),
        p=np.array(ps),
        w2=w2,
        w3=w3,
        halt_reason=halt_reason,
        halt_detail=halt_detail,
        constraint_max=drift,
    )


def solve_branch(
    T: RotSymTensor,
    step: float,
    t_end: float | None = None,
    delta: float | None = None,
    projection_tol: float = PROJECTION_TOL,
) -> tuple[SaddleReport, PotentialCurve]:
    """Classify the saddle, seed the branch and integrate it in one call.

    A degenerate origin raises DefinitenessError (see saddle_report);
    otherwise the saddle report and the integrated curve are returned.
    """
    rep = saddle_report(T)
    if t_end is None:
        t_end = T.t_max
    if delta is None:
        delta = seed_offset(T.t_max, step)
    seed = seed_separatrix(T, rep, delta)
    return rep, integrate_separatrix(
        T, seed, step, t_end, projection_tol=projection_tol, w2=rep.w2, w3=rep.w3
    )


# ---------------------------------------------------------------------------
# n = 2: direct quadrature


def solve_n2(T: RotSymTensor, step: float) -> PotentialCurve:
    """w(t) = sign(phi(0)) * integral of s sqrt(phi psi) ds, by composite Simpson.

    phi(0) psi(0) outside (0, inf) raises DefinitenessError, as it makes the
    saddle of n > 2 degenerate.
    """
    m = max(2, int(round(T.t_max / step)))
    if m % 2:
        m += 1
    ts = np.linspace(0.0, T.t_max, m + 1)
    phis, psis = sample(ts, T.phi, T.psi)[:, 0]
    with np.errstate(all="ignore"):  # like Python float products, without warnings
        prod = phis * psis
    if np.any(prod < 0):
        bad = ts[np.argmax(prod < 0)]
        raise ValueError(f"phi * psi < 0 at t = {bad:.6g}")
    if not np.all(np.isfinite(prod)):
        bad = ts[np.argmin(np.isfinite(prod))]
        raise ValueError(f"phi * psi is not finite at t = {bad:.6g}")
    phi0, psi0 = _origin_jets(T)
    sign = 1 if phi0.v > 0 else -1
    integrand = ts * np.sqrt(prod)
    w = sign * cumulative_simpson(integrand, x=ts, initial=0.0)
    p = sign * integrand
    w2 = sign * math.sqrt(phi0.v * psi0.v)
    w3 = sign * (phi0.d1 * psi0.v + phi0.v * psi0.d1) / math.sqrt(phi0.v * psi0.v)
    return PotentialCurve(t=ts, w=w, p=p, w2=w2, w3=w3, halt_reason="t_end")


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


def _jet_columns(T: RotSymTensor, ts: np.ndarray) -> np.ndarray:
    """Rows phi, phi', psi, psi' over ts, from one pair of jets per abscissa."""
    return sample(ts, T.phi, T.psi)[:, :2].reshape(4, -1)


@np.errstate(over="ignore", invalid="ignore")  # the scans meet inf and NaN like Python floats
def check_global(T: RotSymTensor, curve: PotentialCurve) -> GlobalReport:
    """Margins of the global continuation criterion for a computed branch.

    (a) grad_margin: the least |grad F| on the surface over a 129 x 129
        scan of (t, w), t in [0, t_max] and w spanning the curve and the
        fold with a 25% pad; each point with F(t, w, 0) = Q >= 0 is lifted
        to p = sqrt(Q), and points where |grad F| is NaN are skipped.
    (b) fold_margin: the least |phi d/dt(t^2 psi)| over 129 samples of
        (0, t_max]; sign changes are bisected into fold_roots and make the
        margin 0.
    (c) curve_fold_distance: the least |w - fold| along the curve, NaN
        when the fold never exists over it.

    phi and psi are evaluated once per abscissa; the scans are broadcasts.
    """
    notes = []
    n = T.n
    # (a) regularity of F^{-1}(0): min |grad F| over an on-surface scan
    ts_scan = np.linspace(0.0, T.t_max, GLOBAL_GRID)
    jets = _jet_columns(T, ts_scan)
    folds_all = []
    if n > 2:
        real, lower, upper = fold_branches(n, ts_scan, jets[2])
        folds_all = np.column_stack((lower, upper))[real].ravel().tolist()
    w_lo = min(float(np.min(curve.w)), min(folds_all, default=0.0), 0.0)
    w_hi = max(float(np.max(curve.w)), max(folds_all, default=2.0), 2.0)
    pad = 0.25 * (w_hi - w_lo + 1.0)
    ws = np.linspace(w_lo - pad, w_hi + pad, GLOBAL_GRID)
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
        phi, _, psi, dpsi = _target_row(T, t)
        return fold_margin_at(t, phi, psi, dpsi)

    ts_pos = np.linspace(T.t_max / GLOBAL_GRID, T.t_max, GLOBAL_GRID)
    phi, _, psi, dpsi = _jet_columns(T, ts_pos)
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
        _, lower, upper = fold_branches(n, curve.t, sample(curve.t, T.psi)[0, 0])
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

