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
quadratic in p, so the projection is a Babylonian iteration.  The target
enters a step only through the t-only coefficients of F (_coeffs), one row
per abscissa.  One RK4 kernel holds the stage formula and reads rows by
index: it runs the uniform steps of a block of targets in one loop over the
block's rows, sampled as arrays and made floats only for the steps it
takes, and the general path (the capped steps near the origin, halvings,
halts, and every step of a block whose sample raises) runs it one sub-step
at a time over rows it reads by abscissa, each once per block, on first
use: the block's, whose one sample also covers the capped sub-steps, or,
where that sample raises, the row the block before it carries; then
point by point for what is still missing.

Where a C compiler is at hand, the uniform steps run in _rk4.c, a compiled
mirror of that kernel's step: the same statements in the same order, with
no fused multiply-adds, so the same bits; it reads the block's rows and
writes each step into the curve's own arrays.  It hands back to the Python
kernel each step where a stage meets the fold test or F_p == 0, where Q is
not positive, the trial needs a Newton iteration, p changes sign or the
residual is infinite, so the halts and their texts, the projection, the
work counts and the error order stay in Python.  _native builds it on a
solve's first call, never at import, and caches it (see there); without it
the Python kernel takes every step, with the same output.  No setting
picks the kernel.

The target is evaluated to first order only, as no row reads a second
derivative.  The curve records the work done, and phi and psi at its
samples from those same rows, so the continuation check and the
reconstruction need not evaluate the target there again.

The n = 2 quadrature and both quadratures of the reconstruction run
cumulative_simpson, which follows scipy's cumulative Simpson formula in
scipy's order of operations, bit for bit, so the solve imports numpy only.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exprfn import EvalError, eval_jet2, sample
from .rotsym import DefinitenessError, DefinitenessVerdict, RotSymTensor, bisect_root

FOLD_TOL = 1e-8
EXIT_TOL = 1e-12
PROJECTION_TOL = 1e-13
GLOBAL_GRID = 129  # check_global's fold-margin grid
_GRID_BLOCK = 1024  # integration targets per sample of the target
MAX_SAMPLES = 10**7  # largest t_max / step a solve accepts
_RK4_ROWS = 64  # uniform steps per list of grid rows rk4 reads
_EPS = float(np.finfo(float).eps)


class ProjectionError(RuntimeError):
    pass


class StepUnderflowError(RuntimeError):
    pass


def _target_row(T: RotSymTensor, t: float):
    """(phi, phi', psi, psi') at t, from first-order jets; everything else on
    the surface is arithmetic."""
    phi, psi = eval_jet2(T.phi.first_order, t), eval_jet2(T.psi.first_order, t)
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
    return _row_terms(n, w, p, *_coeffs(n, t, phi, dphi, psi, dpsi))


def _row_terms(n: int, w, p, A, B, C, D):
    """(F, F_t, F_w, F_p) at (w, p) from the _coeffs row (A, B, C, D) of t."""
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
    """The first-order jets of phi and psi at 0; raises DefinitenessError unless
    phi(0) psi(0) lies in (0, inf), as there is no branch to follow otherwise."""
    phi, psi = eval_jet2(T.phi.first_order, 0.0), eval_jet2(T.psi.first_order, 0.0)
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
    real, lower, upper = fold_branches(T.n, t, eval_jet2(T.psi.first_order, t).v)
    return np.array([lower, upper]) if real else np.array([])


# ---------------------------------------------------------------------------
# separatrix integration


@dataclass
class PotentialCurve:
    """Samples (t_i, w_i, p_i) of the Ricci potential on F = 0.

    t starts at the seed offset (0 for direct quadrature); phi and psi hold
    the target's values at t, taken from the samples the solve already made,
    so that the continuation check and the reconstruction sample no curve
    abscissa again; w2/w3 are the series coefficients of the branch at the
    origin (used to bridge [0, t[0]] in reconstruction).
    """

    t: np.ndarray
    w: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    w2: float
    w3: float
    halt_reason: str  # "t_end" | "fold_contact" | "surface_exit" | "overflow"
    halt_detail: str = ""
    constraint_max: float = 0.0
    # integrate_separatrix's counts of uniform_steps (run by the kernel in
    # one loop), other_steps (general sub-steps), halvings,
    # newton_projections (those needing a Newton iteration) and scalar_rows
    # (_coeffs rows it evaluates point by point: rows of halved sub-steps and
    # halts, and the rows of a block whose sample raised, not sample's own
    # fallback); None for direct quadrature
    work: dict | None = None


def _project_p(t: float, Q: float, p: float):
    """Newton iteration on p alone for Q - p^2 = 0, Q = F(t, w, 0) (Babylonian sqrt)."""
    scale = abs(Q) + p * p + 1e-300
    target = max(PROJECTION_TOL, 8.0 * _EPS * scale)
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


def seed_offset(t_max: float, step: float, delta: float | None = None) -> float:
    """The seed abscissa: delta, or by default min(1e-4 t_max, step/2).
    The one check of delta's range, made before any work: outside (0, step],
    then outside the series range, it raises ValueError naming that range."""
    if delta is None:
        return min(1e-4 * t_max, 0.5 * step)
    if not 0 < delta <= step:
        raise ValueError("delta must lie in (0, step]")
    if t_max > 0:  # else RotSymTensor refuses t_max
        _check_series_range(t_max, delta)
    return delta


def _check_series_range(t_max: float, delta: float) -> None:
    """Refuse a delta outside the series range (0, 1e-2 t_max] of the seed."""
    if not 0 < delta <= 1e-2 * t_max:
        raise ValueError(f"delta must lie in (0, {1e-2 * t_max:g}]")


def seed_separatrix(T: RotSymTensor, rep: SaddleReport, delta: float):
    """Second-order series seed (delta, w2 d^2/2, w2 d), p projected onto F = 0."""
    _check_series_range(T.t_max, delta)
    w0 = rep.w2 * delta * delta / 2.0
    p0 = rep.w2 * delta
    Q = surface_eval(T, delta, w0, 0.0)[0]
    p_proj, _ = _project_p(delta, Q, p0)
    return delta, w0, p_proj


class _Halt(Exception):
    """A geometric end of the branch: args are (halt_reason, halt_detail)."""


def check_sample_count(t_max: float, step: float) -> None:
    """Raise ValueError when step is not positive or t_max / step exceeds
    MAX_SAMPLES, before any work."""
    if not step > 0:
        raise ValueError("step must be positive")
    if t_max / step > MAX_SAMPLES:
        raise ValueError(
            f"t_max / step = {t_max / step:.6g} exceeds the cap of {MAX_SAMPLES:.0e} samples"
        )


def _target_span(t0: float, t_end: float, step: float):
    """The targets past t0, as (k0, k1, end): the multiples k step for
    k0 <= k <= k1, then t_end itself if end."""
    k0 = int(math.floor(t0 / step + 1e-9)) + 1
    k1 = int(math.floor(t_end / step + 1e-9))
    return k0, k1, k1 < k0 or k1 * step < t_end - 1e-9 * step


def _targets(t0: float, t_end: float, step: float) -> np.ndarray:
    """The abscissae a curve records past t0: the multiples of step, then
    exactly t_end (a last multiple within 1e-9 step of it is t_end)."""
    k0, k1, end = _target_span(t0, t_end, step)
    targets = np.arange(k0, k1 + 1) * step
    if end:
        targets = np.append(targets, t_end)
    if abs(targets[-1] - t_end) <= 1e-9 * step:
        targets[-1] = t_end
    return targets


def curve_samples(T: RotSymTensor, step: float, delta: float | None = None) -> int:
    """The samples of a curve that reaches t_max: 0 at n = 2, else the seed
    at seed_offset(t_max, step, delta), then _targets.  A step that
    check_sample_count refuses, or a delta that seed_offset refuses (at
    n = 2 too, which does not use it), raises ValueError."""
    check_sample_count(T.t_max, step)
    t0 = seed_offset(T.t_max, step, delta)
    k0, k1, end = _target_span(0.0 if T.n == 2 else t0, T.t_max, step)
    return 1 + max(0, k1 + 1 - k0) + end


class _Memo(dict):
    """key -> fn(key), computed on first read and kept (lazy rows for rk4),
    from the given items on."""

    def __init__(self, fn, items=()):
        super().__init__(items)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _capped_step(t: float, target: float, step: float) -> float | None:
    """The general path's next sub-step from t towards target, before any
    halving, or None once t lies within 1e-12 step of target.  Sub-steps are
    capped by t/4 near the origin, where the lifted field has 1/t-scale
    derivatives; one below rounding at t raises StepUnderflowError."""
    if not t < target - 1e-12 * step:
        return None
    h = min(target - t, max(0.25 * t, 1e-3 * step))
    if h <= 1e-15 * max(1.0, abs(t)):
        raise StepUnderflowError(f"step underflow at t = {t:.6g}")
    return h


def _substep_abscissae(t: float, target: float, step: float) -> list:
    """The abscissae of the rows the general path reads from t to target if
    it halves no sub-step: t, then t + h/2 and t + h of each sub-step."""
    xs = [t]
    try:
        while (h := _capped_step(t, target, step)) is not None:
            xs += (t + h / 2, t + h)
            t += h
    except StepUnderflowError:
        pass  # raised again by the step that meets it
    return xs


def _grid_block(T: RotSymTensor, prev: float, targets: np.ndarray, step: float, start=None):
    """The rows that the steps through targets read, and where uniform
    steps run.

    Returns (P, grid, runs, others).  P holds the abscissae, in increasing
    order: P[0] = prev, then target k's midpoint
    prev_k + (target_k - prev_k)/2 at 2k+1 and target_k at 2k+2, prev_k
    being the target before it.  grid, a float64 array of shape (7, len(P))
    whose rows are C-contiguous, holds the row of P[j] in column j: P[j],
    its _coeffs (A, B, C, D), phi and psi.  A step is uniform when
    integrate_separatrix takes it as the one sub-step h = target_k - prev_k
    (not capped near the origin, no underflow) and t + h lands exactly on
    target_k; runs, an int array, holds at k the first target at or after k
    whose step is not uniform (len(targets) if none).  others maps the
    other abscissae the general path reads on its way to the targets it
    takes, if it halves no sub-step (those of the capped sub-steps), to
    their rows as lists.

    The rows come from one first-order sample over P and those abscissae;
    start, the row of the block before it at its last target, is column 0
    without sampling P[0] again.  The block looks ahead, so it must not
    raise at a t the solve may never reach: where sample raises, grid is
    None, others holds start alone (if given) and no step is uniform
    (runs[k] == k), so the general path takes every target of the block.
    """
    m = len(targets)
    P = np.empty(2 * m + 1)
    P[0] = prev
    P[2::2] = targets
    t = P[:-1:2]  # prev_k
    h = targets - t
    P[1::2] = t + h / 2
    # _capped_step's rule, over the whole block
    uniform = (
        (h <= np.maximum(0.25 * t, 1e-3 * step))
        & (h > 1e-15 * np.maximum(1.0, np.abs(t)))
        & (t < targets - 1e-12 * step)
        & (t + h == targets)
    )
    runs = np.minimum.accumulate(np.where(uniform, m, np.arange(m))[::-1])[::-1]
    # integrate_separatrix's walk through the block, without halvings: it
    # jumps over each run of uniform steps that starts on its target
    x, k, other = prev, 0, []
    while k < m:
        if runs[k] > k and x == P[2 * k]:
            k = int(runs[k])
            x = P.item(2 * k)
            continue
        other += _substep_abscissae(x, P.item(2 * k + 2), step)
        x = other[-1]
        k += 1
    other = np.array(list(dict.fromkeys(other)))  # increasing, as the walk is
    other = other[P[np.minimum(P.searchsorted(other), 2 * m)] != other]  # those not in P
    grid = np.empty((7, len(P) + len(other)))
    grid[0] = np.concatenate((P, other))
    first = int(start is not None)  # start holds the row at P[0]
    xs = grid[0, first:]
    try:
        phi, psi = jets = sample(xs, T.phi.first_order, T.psi.first_order)
    except EvalError:
        return P, None, np.arange(m), {prev: start} if start else {}
    with np.errstate(over="ignore", invalid="ignore"):  # like Python floats
        grid[1:5, first:] = _coeffs(T.n, xs, phi[0], phi[1], psi[0], psi[1])
    grid[5:, first:] = jets[:, 0]
    if start is not None:
        grid[:, 0] = start
    return P, grid[:, : len(P)], runs, dict(zip(other.tolist(), grid[:, len(P) :].T.tolist()))


# no -march=native and no -ffast-math: either can change the mirror's bits
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def _native():
    """rk4_run of _rk4.c, the compiled mirror of rk4's uniform step, or None.

    The first call in a process loads the library from $XDG_CACHE_HOME/riccisym
    (default ~/.cache/riccisym), under a name that checksums the source,
    _KERNEL_FLAGS, sysconfig's CC (or cc) and the platform, and builds it
    there first if it is missing, renaming the compiler's output into place
    whole.  With no compiler, a failed build or no writable directory it
    returns None, and rk4 takes every step, with the same output.  The
    checksums are zlib's, as hashlib would load OpenSSL (3.5 MiB of RSS).
    """
    import ctypes
    import shlex
    import sysconfig
    import zlib

    source = Path(__file__).with_name("_rk4.c")
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        key = repr((source.read_bytes(), _KERNEL_FLAGS, compiler, sysconfig.get_platform()))
        key = key.encode()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "riccisym")
        lib = cache / f"rk4-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
        if not (lib.exists() or _build(compiler, source, lib)):
            return None
        fn = ctypes.CDLL(str(lib)).rk4_run
    except (OSError, RuntimeError):  # RuntimeError: Path.home() found no home
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p)
    fn.restype = ctypes.c_long
    return fn


def _build(compiler: list, source: Path, lib: Path) -> bool:
    """Compile source into lib; False if the compiler fails or times out.
    An OSError (no compiler, no writable directory) propagates."""
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*compiler, *_KERNEL_FLAGS, "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, lib)
        return True
    except subprocess.SubprocessError:
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def integrate_separatrix(
    T: RotSymTensor,
    seed,
    step: float,
    t_end: float,
    w2: float = math.nan,
    w3: float = math.nan,
) -> PotentialCurve:
    """Integrate the solution branch from the seed up to t_end.

    Classical 4th-order one-step method on (w, p) with t as the independent
    variable, each step followed by a Newton projection of p onto F = 0.
    Halts at t_end, at fold contact (|F_p| below FOLD_TOL min(1, |phi(0)|)),
    when the projected region F >= 0 is exited, or when w or p overflows;
    the reason is recorded on the curve.  A step <= 0 or a t_end / step
    above MAX_SAMPLES raises ValueError.  phi and psi are read at the curve's abscissae from
    the samples of the target the steps used.
    """
    check_sample_count(t_end, step)
    t0, w0, p0 = seed
    if t_end <= t0:
        raise ValueError("t_end must exceed the seed abscissa")

    n = T.n
    n1 = float(n - 1)  # x / n1 is x / (n - 1): the int converts exactly
    # p, and so F_p = -2p, scales with phi(0): a small target is not the fold
    fold_tol = FOLD_TOL * min(1.0, abs(eval_jet2(T.phi.first_order, 0.0).v))
    neg_fold_tol = -fold_tol  # -fold_tol < F_p < fold_tol is |F_p| < fold_tol
    # The surface enters a step only through the _coeffs rows at t, t + h/2
    # and t + h (k1; k2 and k3; k4 and Q).  Once the step is uniform,
    # h = target - t is exact (Sterbenz), so every stage lands on a target
    # or a midpoint of the block (see _grid_block), and the compiled mirror
    # (see _native) or rk4 runs a block's consecutive uniform steps in one
    # loop.  Every other step (capped near the origin, halved, halting, or
    # in a block whose sample raised) runs rk4 over its three rows, read
    # lazily from the block's memo, which evaluates a row it lacks by
    # row_at: a fold halt at an earlier stage wins over an EvalError at a
    # later row.
    work = dict.fromkeys(
        ("uniform_steps", "other_steps", "halvings", "newton_projections", "scalar_rows"), 0
    )

    targets = _targets(t0, t_end, step)
    min_h = 1e-6 * step
    # the curve: its first `size` entries are the samples taken; a block
    # extends ts, ws and ps by its targets before its first step
    ts, ws, ps = array("d", [t0]), array("d", [w0]), array("d", [p0])
    phis, psis = array("d"), array("d")
    size = 1

    def overflow(t):
        return _Halt(
            "overflow",
            f"w or p left the float range past t = {t:.6g}; last sample "
            f"t = {ts[size - 1]:.6g}, w = {ws[size - 1]:.6g}, p = {ps[size - 1]:.6g}",
        )

    def fold(F_p, t):
        return _Halt("fold_contact", f"|F_p| = {abs(F_p):.3e} < {fold_tol:g} at t = {t:.6g}")

    def rk4(P, rows, i, stop, t, w, p, h, drift, record):
        """Projected RK4 steps from row i (t = P[i]) up to row stop: a step
        reads rows i, i+1 and i+2 (t, t + h/2, t + h) and ends on row i+2.
        The first step takes h as given, the next ones h = P[i+2] - t;
        record puts each step's end in the curve.

        Stops before the first step whose trial is not plain (Q > 0, and a
        projected p of unchanged sign and finite |F|) and returns
        (i, t, w, p, drift, trial), trial being that step's (p_try, Q), p_try
        projected if Q > 0 and not both are infinite, or None at stop.  A
        stage at the fold raises _Halt before the next row is read.
        """
        nonlocal size
        while True:
            a, _, c, d = rows[i]
            hh = h / 2
            ww = w * w - 2.0 * w
            F_p = -2.0 * p
            if neg_fold_tol < F_p < fold_tol:
                raise fold(F_p, P[i])
            k1 = -((c * ww + d) / n1 + p * (a * (2.0 * w - 2.0) / n1)) / F_p
            a, _, c, d = rows[i + 1]
            w2 = w + hh * p
            p2 = p + hh * k1
            ww = w2 * w2 - 2.0 * w2
            F_p = -2.0 * p2
            if neg_fold_tol < F_p < fold_tol:
                raise fold(F_p, P[i + 1])
            k2 = -((c * ww + d) / n1 + p2 * (a * (2.0 * w2 - 2.0) / n1)) / F_p
            w3 = w + hh * p2
            p3 = p + hh * k2
            ww = w3 * w3 - 2.0 * w3
            F_p = -2.0 * p3
            if neg_fold_tol < F_p < fold_tol:
                raise fold(F_p, P[i + 1])
            k3 = -((c * ww + d) / n1 + p3 * (a * (2.0 * w3 - 2.0) / n1)) / F_p
            a, b, c, d = rows[i + 2]
            w4 = w + h * p3
            p4 = p + h * k3
            ww = w4 * w4 - 2.0 * w4
            F_p = -2.0 * p4
            if neg_fold_tol < F_p < fold_tol:
                raise fold(F_p, P[i + 2])
            k4 = -((c * ww + d) / n1 + p4 * (a * (2.0 * w4 - 2.0) / n1)) / F_p
            h6 = h / 6
            w_try = w + h6 * (p + 2.0 * p2 + 2.0 * p3 + p4)
            p_try = p + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            Q = (a * (w_try * w_try - 2.0 * w_try) + b) / n1
            if not Q > 0.0:
                return i, t, w, p, drift, (p_try, Q)
            # _project_p's accept test, inlined: nearly every trial passes it
            pp = p_try * p_try
            resid = abs(Q - pp)
            if not (resid <= PROJECTION_TOL or resid <= 8.0 * _EPS * (abs(Q) + pp + 1e-300)):
                if resid != resid:  # inf - inf: an overflowed trial, as below
                    return i, t, w, p, drift, (p_try, Q)
                work["newton_projections"] += 1
                p_try, resid = _project_p(P[i + 2], Q, p_try)
            if not p_try * p > 0.0:
                return i, t, w, p, drift, (p_try, Q)
            if resid > drift:  # rare once drift settles, so test inf only here
                if resid == math.inf:
                    return i, t, w, p, drift, (p_try, Q)
                drift = resid
            t += h
            w = w_try
            p = p_try
            i += 2
            if record:
                ts[size], ws[size], ps[size] = t, w, p
                size += 1
            if i == stop:
                return i, t, w, p, drift, None
            h = P[i + 2] - t

    kernel = _native()
    if kernel is not None:  # rk4_run's s: (t, w, p, drift), then its constants
        s = array("d", (0.0, 0.0, 0.0, 0.0, n1, fold_tol, PROJECTION_TOL, _EPS))
        out = np.zeros(3, np.uintp)  # its out: where the next samples go
        s_at, out_at = s.buffer_info()[0], out.ctypes.data

    def record_values(grid, base, strays):
        """Append phi and psi at the samples taken since the last call:
        ts[base] lies at P[0], so ts[base + j] is P[2j] and takes the block's
        row there, unless the general path ended it off its target or the
        block's sample raised; then strays[j] holds them."""
        lo, hi = len(phis) - base, size - base
        new = np.empty((2, hi - lo)) if grid is None else grid[5:, 2 * lo : 2 * hi - 1 : 2].copy()
        for j, x in strays.items():
            new[:, j - lo] = x
        phis.frombytes(new[0].tobytes())
        psis.frombytes(new[1].tobytes())

    def row_at(P, grid, x):
        """The row [x, A, B, C, D, phi, psi] at x: the block's grid's, found
        by one search of P, or else sampled point by point."""
        j = int(P.searchsorted(x))
        if grid is not None and j < len(P) and P.item(j) == x:
            return grid[:, j].tolist()
        work["scalar_rows"] += 1
        phi, dphi, psi, dpsi = _target_row(T, x)
        return [x, *_coeffs(n, x, phi, dphi, psi, dpsi), phi, psi]

    def substep(t, w, p, h, drift):
        """One projected RK4 sub-step of at most h from t, halved near the
        region boundary or where p would flip sign: the accepted
        (t, w, p, drift)."""
        while True:
            P3 = (t, t + h / 2, t + h)
            i, t1, w1, p1, drift, trial = rk4(
                P3, _Memo(lambda j: memo[P3[j]][1:5]), 0, 2, t, w, p, h, drift, False
            )
            if i:
                return t1, w1, p1, drift
            p_try, Q = trial
            if Q > 0.0:
                if p_try * p > 0.0:  # an infinite Q or p_try
                    raise overflow(t)
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
                # a halt, from t's row, which the first stage read; F_t and
                # F_w do not depend on p
                Q_here, F_t, F_w, _ = _row_terms(n, w, 0.0, *memo[t][1:5])
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
            work["halvings"] += 1

    drift = 0.0
    # Without the mirror rk4 owes every step.  With it, rk4 takes each step
    # the mirror hands back and then owes it burst steps in all, doubled
    # each time the mirror takes no step in between, so that a run where
    # every step needs a Newton iteration stays in Python.
    burst, owed = 1, math.inf if kernel is None else 0
    halt_reason, halt_detail = "t_end", ""
    t, w, p = t0, w0, p0
    try:
        start = None
        for b in range(0, len(targets), _GRID_BLOCK):
            block = targets[b : b + _GRID_BLOCK]
            P, grid, runs, others = _grid_block(T, targets[b - 1] if b else t0, block, step, start)
            # the general path's rows by abscissa, each read once, on first use
            memo = _Memo(functools.partial(row_at, P, grid), others)
            m, base, strays = len(block), size - 1, {}
            for curve in (ts, ws, ps):  # room for the block's samples
                curve.frombytes(bytes(8 * m))
            if kernel is not None and grid is not None:  # the mirror's addresses for the block
                curve_at = np.array([curve.buffer_info()[0] for curve in (ts, ws, ps)], np.uintp)
                rows_at = grid.ctypes.data + grid.strides[0] * np.arange(5, dtype=np.uintp)
                grid_at = rows_at.ctypes.data  # of P, A, B, C and D
            k = 0
            while k < m:
                if runs[k] > k and t == P[2 * k]:
                    # rk4 takes the next `owed` steps, the mirror the rest
                    i, stop, trial = 2 * k, 2 * int(runs[k]), None
                    while trial is None and i < stop:
                        if not owed:  # the mirror's steps, recorded
                            j = i
                            s[0], s[1], s[2], s[3] = t, w, p, drift
                            out[:] = curve_at + 8 * size
                            i = kernel(grid_at, out_at, i, stop, s_at)
                            t, w, p, drift = s[:4]
                            size += (i - j) // 2
                            burst = 1 if i > j else 2 * burst
                            owed = burst if i < stop else 0
                        if i < stop:
                            j = i
                            end = min(stop, i + 2 * owed, i + 2 * _RK4_ROWS)
                            i, t, w, p, drift, trial = rk4(
                                grid[0, i : end + 1].tolist(), grid[1:5, i : end + 1].T.tolist(),
                                0, end - i, t, w, p, P.item(i + 2) - t, drift, True,
                            )
                            i += j
                            owed -= (i - j) // 2
                    if i > 2 * k:
                        work["uniform_steps"] += i // 2 - k
                        k = i // 2
                        if k == m:
                            break
                target = P.item(2 * k + 2)
                if grid is None and not (phis or k):  # the seed, whose row is read first
                    strays[0] = memo[t][5:]
                # only the targets are recorded
                while (h := _capped_step(t, target, step)) is not None:
                    t, w, p, drift = substep(t, w, p, h, drift)
                    work["other_steps"] += 1
                ts[size], ws[size], ps[size] = t, w, p
                size += 1
                if t != target or grid is None:  # from the last sub-step's row
                    strays[k + 1] = memo[t][5:]
                k += 1
            record_values(grid, base, strays)
            # the next block starts at this block's last target
            start = memo.get(P.item(2 * m)) if grid is None else grid[:, 2 * m].tolist()
            grid = memo = None  # freed before the next block is built
    except _Halt as halt:
        halt_reason, halt_detail = halt.args
        record_values(grid, base, strays)
    del ts[size:], ws[size:], ps[size:]

    # the arrays share the buffers: no copy of the curve at its largest
    return PotentialCurve(
        t=np.frombuffer(ts),
        w=np.frombuffer(ws),
        p=np.frombuffer(ps),
        phi=np.frombuffer(phis),
        psi=np.frombuffer(psis),
        w2=w2,
        w3=w3,
        halt_reason=halt_reason,
        halt_detail=halt_detail,
        constraint_max=drift,
        work=work,
    )


def solve_branch(
    T: RotSymTensor,
    step: float,
    t_end: float | None = None,
    delta: float | None = None,
) -> tuple[SaddleReport, PotentialCurve]:
    """Classify the saddle, seed the branch and integrate it in one call.

    A degenerate origin raises DefinitenessError (see saddle_report);
    otherwise the saddle report and the integrated curve are returned.
    """
    delta = seed_offset(T.t_max, step, delta)
    rep = saddle_report(T)
    if t_end is None:
        t_end = T.t_max
    seed = seed_separatrix(T, rep, delta)
    return rep, integrate_separatrix(T, seed, step, t_end, w2=rep.w2, w3=rep.w3)


# ---------------------------------------------------------------------------
# n = 2: direct quadrature


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through samples i, i+1, i+2.

    Eqn (8) of K. V. Cartwright, "Simpson's Rule Cumulative Integration
    with MS Excel and Irregularly-spaced Data", J. Math. Sci. Math. Educ.
    12(2), 1-9.  Reversed inputs give the integrals over [x_i+1, x_i+2].
    """
    x21 = dx[:-1]
    x32 = dx[1:]
    f1 = y[:-2]
    f2 = y[1:-1]
    f3 = y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of the samples y over x from x[0], by composite Simpson.

    The 1-d form of scipy.integrate.cumulative_simpson(y, x=x, initial=0.0),
    bit for bit: each interval but the last takes the parabola through its
    own samples and the next one (even intervals) or the previous one (odd
    intervals), the last takes the previous one, and the pieces are summed
    in order.  Like scipy, it takes the trapezoid rule below three samples.
    x must be strictly increasing (ValueError otherwise).
    """
    dx = np.diff(x)
    if y.size < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    elif np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    else:
        h1 = _simpson_first_halves(y, dx)
        h2 = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(dx.size)
        pieces[:-1:2] = h1[::2]
        pieces[1::2] = h2[::2]
        pieces[-1] = h2[-1]
    # scipy adds its initial value 0.0 to every sum, which turns -0.0 into 0.0
    return np.concatenate([[0.0], np.cumsum(pieces) + 0.0])


def solve_n2(T: RotSymTensor, step: float) -> PotentialCurve:
    """w(t) = sign(phi(0)) * integral of s sqrt(phi psi) ds, by composite Simpson.

    The samples are 0, then _targets(0, t_max, step), the grid of every
    curve.  phi(0) psi(0) outside (0, inf) raises DefinitenessError, as it
    makes the saddle of n > 2 degenerate, and a step that check_sample_count
    refuses raises ValueError.
    """
    check_sample_count(T.t_max, step)
    ts = np.concatenate(([0.0], _targets(0.0, T.t_max, step)))
    phis, psis = sample(ts, T.phi.first_order, T.psi.first_order)[:, 0]
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
    w = sign * cumulative_simpson(integrand, ts)
    p = sign * integrand
    w2 = sign * math.sqrt(phi0.v * psi0.v)
    w3 = sign * (phi0.d1 * psi0.v + phi0.v * psi0.d1) / math.sqrt(phi0.v * psi0.v)
    return PotentialCurve(t=ts, w=w, p=p, phi=phis, psi=psis, w2=w2, w3=w3, halt_reason="t_end")


# ---------------------------------------------------------------------------
# global continuation check


@dataclass(frozen=True)
class GlobalReport:
    """The global continuation check of a computed branch, n > 2.

    The branch continues to every t once the surface F = 0 stays regular and
    the fold stays a regular curve, i.e. m(t) = phi d/dt(t^2 psi) does not
    vanish on (0, t_max].  The second condition implies the first.  Take a
    point of F = 0 where grad F = 0, with phi != 0:
      1. F_p = -2p = 0 gives p = 0;
      2. F_w = A(2w - 2)/(n-1) = 0 gives w = 1;
      3. F = 0 then gives B = A, that is t^2 psi = n - 2;
      4. F_t = 0 then gives D = C, which at that t reads m(t) = 0;
      5. at t = 0, t^2 psi = 0 != n - 2.
    So a positive fold margin leaves no singular point of the surface with t
    in [0, t_max], and the fold margin is the whole a priori test.

    fold_gap is the least relative gap |w - w_fold| / |w| from the curve to
    the nearer fold branch, at the sample t = fold_gap_t; both are NaN when
    the fold is never real over the curve.  notes holds what no other field
    states: that the fold margin vanishes identically.
    """

    fold_margin: float
    fold_roots: tuple
    fold_gap: float
    fold_gap_t: float
    verdict: str  # "global_continuation_expected" | "hypothesis_failed"
    notes: tuple = ()


def _jet_columns(T: RotSymTensor, ts: np.ndarray) -> np.ndarray:
    """Rows phi, phi', psi, psi' over ts, from one pair of first-order jets per abscissa."""
    return sample(ts, T.phi.first_order, T.psi.first_order).reshape(4, -1)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and NaN pass through
def check_global(T: RotSymTensor, curve: PotentialCurve) -> GlobalReport:
    """The GlobalReport of a computed branch; n = 2 raises ValueError.

    fold_margin is the least |m| over 129 samples of (0, t_max]; sign changes
    are bisected into fold_roots and make the margin 0.  phi and psi are
    evaluated once per abscissa of that grid, to first order, and at no
    curve abscissa: fold_gap reads the psi values the curve carries.
    """
    n = T.n
    if n == 2:
        raise ValueError("continuation check is defined for n > 2")
    notes = ()

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
        notes = ("fold regularity margin vanishes identically",)
    else:
        neg = mvals < 0
        for i in np.flatnonzero((neg[:-1] != neg[1:]) | (mvals[1:] == 0.0)) + 1:
            roots.append(float(bisect_root(fold_fn, ts_pos[i - 1], ts_pos[i])))
        fold_margin = 0.0 if roots else float(np.min(np.abs(mvals)))

    _, lower, upper = fold_branches(n, curve.t, curve.psi)
    gap = np.minimum(np.abs(lower - curve.w), np.abs(upper - curve.w)) / np.abs(curve.w)
    gap[np.isnan(gap)] = math.inf  # no real fold there, or 0/0
    i = int(np.argmin(gap))
    fold_gap = fold_gap_t = math.nan
    if gap[i] < math.inf:
        fold_gap, fold_gap_t = float(gap[i]), float(curve.t[i])

    ok = fold_margin > 0 and curve.halt_reason == "t_end"
    return GlobalReport(
        fold_margin=fold_margin,
        fold_roots=tuple(roots),
        fold_gap=fold_gap,
        fold_gap_t=fold_gap_t,
        verdict="global_continuation_expected" if ok else "hypothesis_failed",
        notes=notes,
    )

