"""Rotationally symmetric tensors T = phi dt^2 + t^2 psi dTheta^2 and metric
profiles g = 2 e^f [r' dt^2 + r^2 dTheta^2], with the forward Ricci map.

For a profile (f, r) in the radial coordinate r the forward map is

    alpha(r) = -(n-1) [f_rr + f_r / r]
    beta(r)  = -[f_rr + (2n-3) f_r / r + (n-2) f_r^2]

with f_r = f'(t)/r'(t) and f_rr = f_r'(t)/r'(t), and the pullback
identities phi = alpha (r')^2, t^2 psi = r^2 beta recover tensor components
on the t grid.  Closed-form profiles are evaluated through exact jets;
sampled profiles use fourth-order stencils, on their grid only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorlab
from .exprfn import EvalError, Expr, eval_jet2, sample


# ---------------------------------------------------------------------------
# fourth-order differentiation on uniform grids


def fourth_order_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """d/dt of uniformly sampled y: 5-point central stencils, one-sided ends."""
    y = np.asarray(y, dtype=float)
    if y.size < 5:
        raise ValueError("need at least 5 samples for fourth-order stencils")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    return d


def _uniform_step(grid: np.ndarray) -> float:
    steps = np.diff(grid)
    if steps.size == 0:
        raise ValueError("grid needs at least two samples")
    h = steps[0]
    # a NaN step fails the comparison, so it is not uniform
    if not np.max(np.abs(steps - h)) <= 1e-9 * max(h, 1e-300):
        raise ValueError("grid is not uniform")
    return float(h)


# ---------------------------------------------------------------------------
# tensor type and definiteness validation


@dataclass(frozen=True)
class RotSymTensor:
    """T = phi(t) dt^2 + t^2 psi(t) dTheta^2 on R^n, defined for t in [0, t_max]."""

    n: int
    phi: Expr
    psi: Expr
    t_max: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")


@dataclass(frozen=True)
class DefinitenessVerdict:
    kind: str  # positive_definite | negative_definite | singular | inconsistent
    t_star: float | None = None
    reason: str = ""
    phi0: float = 0.0
    psi0: float = 0.0

    @property
    def is_definite(self) -> bool:
        return self.kind in ("positive_definite", "negative_definite")


class DefinitenessError(ValueError):
    """Target tensor failed the sign / origin-matching validation."""

    def __init__(self, verdict: DefinitenessVerdict):
        super().__init__(verdict.reason or verdict.kind)
        self.verdict = verdict


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


DEFINITENESS_GRID = 256  # definiteness_check's scan resolution


def _scan(name: str, e: Expr, ts: np.ndarray):
    """The value of e at ts[0] (NaN if e fails there) and e's first defect on ts.

    The defect is (t, what), what being the EvalError raised at t or the
    reason the tensor is singular at t: a non-finite value or first
    derivative, a zero, or a sign change (bisected to width 1e-10); it is
    None when e has none.  Only a failing sample evaluates e a second time,
    to find where it fails.
    """
    defect = None
    try:
        vals, d1 = sample(ts, e)[0, :2]
    except EvalError as err:
        jets = []
        for t in ts:
            try:
                jets.append(eval_jet2(e, t))
            except EvalError:
                break
        defect = (float(ts[len(jets)]), err)
        vals = np.array([j.v for j in jets])
        d1 = np.array([j.d1 for j in jets])
    neg = vals < 0
    hits = ~np.isfinite(vals) | ~np.isfinite(d1) | (vals == 0.0)
    hits[1:] |= neg[1:] != neg[:-1]
    v0 = float(vals[0]) if vals.size else math.nan
    if not hits.any():
        return v0, defect
    i = int(np.argmax(hits))
    t = float(ts[i])
    for label, x in ((name, vals[i]), (name + "'", d1[i])):
        if not math.isfinite(x):
            return v0, (t, f"{label} = {x} is not finite at t = {t:.10g}")
    if vals[i] != 0.0:
        t = float(bisect_root(lambda t: eval_jet2(e, t).v, ts[i - 1], ts[i]))
    return v0, (t, f"singular tensor at t = {t:.10g}")


def definiteness_check(T: RotSymTensor) -> DefinitenessVerdict:
    """Scan phi and psi on [0, t_max]: a nonsingular rotationally symmetric
    tensor is finite, keeps a single sign throughout and has phi(0) = psi(0).

    The defect with the least t wins, and at equal t an evaluation error
    wins; that error is raised unchanged.
    """
    ts = np.linspace(0.0, T.t_max, DEFINITENESS_GRID)
    phi0, phi_defect = _scan("phi", T.phi, ts)
    psi0, psi_defect = _scan("psi", T.psi, ts)
    defects = [d for d in (phi_defect, psi_defect) if d is not None]
    if phi0 * psi0 < 0:
        defects.append((0.0, "singular tensor at t = 0"))
    if defects:
        t_star, what = min(defects, key=lambda d: (d[0], not isinstance(d[1], EvalError)))
        if isinstance(what, EvalError):
            raise what
        return DefinitenessVerdict("singular", t_star, what, phi0, psi0)
    if abs(phi0 - psi0) > 1e-8 * max(abs(phi0), abs(psi0)):
        return DefinitenessVerdict(
            "inconsistent",
            None,
            f"phi(0) != psi(0): {phi0:.10g} vs {psi0:.10g}",
            phi0,
            psi0,
        )
    kind = "positive_definite" if phi0 > 0 else "negative_definite"
    return DefinitenessVerdict(kind, None, "", phi0, psi0)


# ---------------------------------------------------------------------------
# metric profiles


@dataclass
class MetricProfile:
    """Sampled profile of g = 2 e^f [r' dt^2 + r^2 dTheta^2].

    grid[0] must be 0 with r(0) = 0, r'(0) = 1, f(0) = 0 and r' > 0.
    Closed-form profiles keep their expressions so curvature uses exact jets.
    """

    n: int
    grid: np.ndarray
    f: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    fp: np.ndarray
    f_expr: Expr | None = field(default=None, repr=False)
    r_expr: Expr | None = field(default=None, repr=False)

    @classmethod
    def from_exprs(cls, n: int, f_expr: Expr, r_expr: Expr, t_max: float, num: int = 513):
        grid = np.linspace(0.0, t_max, num)
        (f, fp, _), (r, rp, _) = sample(grid, f_expr, r_expr)
        return cls(n=n, grid=grid, f=f, r=r, rp=rp, fp=fp, f_expr=f_expr, r_expr=r_expr)

    @property
    def closed_form(self) -> bool:
        return self.f_expr is not None and self.r_expr is not None


def _forward_closed_form(profile: MetricProfile, t: float):
    fj = eval_jet2(profile.f_expr, t)
    rj = eval_jet2(profile.r_expr, t)
    if rj.d1 <= 0:
        raise ValueError(f"r'(t) <= 0 at t = {t}")
    if rj.v == 0 and t > 0:
        raise ValueError(f"r(t) = 0 at t = {t} > 0")
    f_r = fj.d1 / rj.d1
    f_r_prime = (fj.d2 * rj.d1 - fj.d1 * rj.d2) / rj.d1**2
    f_rr = f_r_prime / rj.d1
    n = profile.n
    if t == 0.0:
        # removable: f_r / r -> f_rr as t -> 0
        alpha = -2.0 * (n - 1) * f_rr
        return alpha, alpha
    alpha = -(n - 1) * (f_rr + f_r / rj.v)
    beta = -(f_rr + (2 * n - 3) * f_r / rj.v + (n - 2) * f_r**2)
    return alpha, beta


def _forward_sampled_grid(profile: MetricProfile):
    """(alpha, beta) arrays over the profile grid, limits used at t = 0."""
    grid, r, rp, fp = profile.grid, profile.r, profile.rp, profile.fp
    n = profile.n
    if np.any(rp <= 0):
        bad = profile.grid[np.argmax(rp <= 0)]
        raise ValueError(f"r'(t) <= 0 at t = {bad}")
    h = _uniform_step(grid)
    f_r = fp / rp
    f_rr = fourth_order_derivative(f_r, h) / rp
    alpha = np.empty_like(f_r)
    beta = np.empty_like(f_r)
    pos = grid > 0
    alpha[pos] = -(n - 1) * (f_rr[pos] + f_r[pos] / r[pos])
    beta[pos] = -(
        f_rr[pos] + (2 * n - 3) * f_r[pos] / r[pos] + (n - 2) * f_r[pos] ** 2
    )
    if not pos[0]:
        alpha[0] = -2.0 * (n - 1) * f_rr[0]
        beta[0] = alpha[0]
    return alpha, beta


def ricci_forward(profile: MetricProfile, t: float) -> tuple[float, float]:
    """Ricci components (alpha, beta) of a closed-form profile metric at t > 0.

    alpha multiplies dr^2 and beta the r^2 dTheta^2 part; expressed as
    functions of t through r = r(t).  A sampled profile has values on its
    grid only: use ricci_forward_samples.
    """
    if not profile.closed_form:
        raise ValueError("ricci_forward needs a closed-form profile; use ricci_forward_samples")
    if t <= 0 or t > profile.grid[-1]:
        raise ValueError(f"t = {t} outside (0, t_max]")
    return _forward_closed_form(profile, t)


def ricci_forward_samples(profile: MetricProfile):
    """(alpha, beta) on the whole profile grid, with continuous limits at 0."""
    if profile.closed_form:
        pairs = [_forward_closed_form(profile, t) for t in profile.grid]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    return _forward_sampled_grid(profile)


def forward_tensor(profile: MetricProfile):
    """Pull the profile's Ricci tensor back to (phi_hat, psi_hat) on the grid.

    phi_hat = alpha (r')^2 and psi_hat = r^2 beta / t^2, the latter extended
    by continuity (value beta(0)) at t = 0.
    """
    alpha, beta = ricci_forward_samples(profile)
    phi_hat = alpha * profile.rp**2
    psi_hat = np.empty_like(phi_hat)
    pos = profile.grid > 0
    psi_hat[pos] = profile.r[pos] ** 2 * beta[pos] / profile.grid[pos] ** 2
    if not pos[0]:
        psi_hat[0] = beta[0] * profile.rp[0] ** 2
    return phi_hat, psi_hat


# ---------------------------------------------------------------------------
# cross-check against the numeric oracle


@dataclass(frozen=True)
class ForwardOracleReport:
    """Per-point comparison of the forward map with the numeric Ricci oracle.

    Two metric conventions are evaluated for the same profile:
      * conformal reading   e^{2f} [r'^2 dt^2 + r^2 dTheta^2]
      * bracket-as-printed  2 e^f  [r'  dt^2 + r^2 dTheta^2]
    Each row holds (t, ratio_radial, ratio_tangential) of numeric Ricci to
    the forward (alpha (r')^2, r^2 beta / t^2) components.
    """

    conformal: np.ndarray
    verbatim: np.ndarray


def forward_oracle_report(profile: MetricProfile, ts, h: float = 2.5e-4) -> ForwardOracleReport:
    if not profile.closed_form:
        raise ValueError("oracle comparison needs a closed-form profile")
    n = profile.n
    f_expr, r_expr = profile.f_expr, profile.r_expr

    def jets(t):
        return eval_jet2(f_expr, t), eval_jet2(r_expr, t)

    def a_conformal(t):
        fj, rj = jets(t)
        return np.exp(2 * fj.v) * rj.d1**2

    def b_conformal(t):
        fj, rj = jets(t)
        return np.exp(2 * fj.v) * rj.v**2

    def a_verbatim(t):
        fj, rj = jets(t)
        return 2.0 * np.exp(fj.v) * rj.d1

    def b_verbatim(t):
        fj, rj = jets(t)
        return 2.0 * np.exp(fj.v) * rj.v**2

    rows_c, rows_v = [], []
    for t in ts:
        alpha, beta = _forward_closed_form(profile, t)
        rj = eval_jet2(r_expr, t)
        phi_fwd = alpha * rj.d1**2
        psi_fwd = rj.v**2 * beta / t**2
        x = np.zeros(n)
        x[0] = t
        for (A, B), rows in (
            ((a_conformal, b_conformal), rows_c),
            ((a_verbatim, b_verbatim), rows_v),
        ):
            mf = tensorlab.rotsym_to_cartesian(A, B, n)
            ric = tensorlab.ricci_numeric(mf, x, h)
            rad, tan = tensorlab.radial_tangential_split(ric, x)
            rows.append((t, rad / phi_fwd, tan / psi_fwd))
    return ForwardOracleReport(np.array(rows_c), np.array(rows_v))
