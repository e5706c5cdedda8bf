"""Batch driver: config ingestion, pipeline orchestration, file emission.

Invocation:

    riccisym <command> --config <path> [--out <prefix>] [--sweep <dir>]

Commands: solve, analyze, verify, hypersurface, portrait.  Configs are
line-oriented ``key = value`` text with '#' comments; expression values are
quoted and follow the grammar documented in :mod:`riccisym.exprfn`.

Exit codes: 0 success, 1 config or parse error, 2 tensor validation failure
(sign change, non-finite target, origin mismatch or degenerate saddle), 3
numerical failure (projection, monotonicity, sign).  Every failure prints
one machine-readable line ``riccisym: code=<N> reason="..."`` on stderr.
Outputs are deterministic: CSV with a header row, 17 significant digits,
'.' decimal separator and LF line endings.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import hypersurface as hs
from . import potential, reconstruct
from .exprfn import EvalError, Expr, ParseError, parse, sample
from .exprfn import eval_jet2  # noqa: F401  unused; bench/tracer.py patches cli.eval_jet2
from .pipeline import solution_summary, solve
from .rotsym import DefinitenessError, MetricProfile, RotSymTensor, definiteness_check

COMMANDS = ("solve", "analyze", "verify", "hypersurface", "portrait")

_NUMERIC_ERRORS = (
    potential.ProjectionError,
    potential.StepUnderflowError,
    reconstruct.ReconstructionError,
)


class ConfigError(ValueError):
    pass


@dataclass
class ProblemConfig:
    n: int = 0
    phi: Expr | None = None
    psi: Expr | None = None
    h: Expr | None = None
    t_max: float = 0.0
    r_max: float = 0.0
    step: float = 1e-3
    delta: float | None = None
    constraint_tol: float = 1e-13
    residual_tol: float = 1e-5
    t_lo: float | None = None
    t_hi: float | None = None
    samples: int = 101
    out: str = "riccisym_out"
    profile: str = ""


_EXPR_KEYS = {"phi", "psi", "h"}
_FLOAT_KEYS = {
    "t_max",
    "r_max",
    "step",
    "delta",
    "constraint_tol",
    "residual_tol",
    "t_lo",
    "t_hi",
}
_INT_KEYS = {"n", "samples"}
_STR_KEYS = {"out", "profile"}


def parse_config(path: Path) -> ProblemConfig:
    cfg = ProblemConfig()
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        if key in _EXPR_KEYS:
            try:
                setattr(cfg, key, parse(value))
            except ParseError as err:
                raise ConfigError(f"{path}:{lineno}: {key}: {err}") from None
        elif key in _FLOAT_KEYS:
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be a number") from None
            if not math.isfinite(number):
                raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {value}")
            setattr(cfg, key, number)
        elif key in _INT_KEYS:
            try:
                setattr(cfg, key, int(value))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from None
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return cfg


def _require(cfg: ProblemConfig, command: str, keys):
    for key in keys:
        value = getattr(cfg, key)
        if value is None or (isinstance(value, (int, float)) and value <= 0) or value == "":
            raise ConfigError(f"command {command!r} requires config key {key!r}")


def _validate_common(cfg: ProblemConfig):
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    for key in ("step", "constraint_tol", "residual_tol"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg.delta is not None and not 0 < cfg.delta <= cfg.step:
        raise ConfigError("delta must lie in (0, step]")


# ---------------------------------------------------------------------------
# deterministic CSV emission


def write_csv(path: Path, header, rows):
    """Write the CSV under a temporary name and rename it into place, so a
    failure while rows are produced leaves no partial file at path.

    The first row fixes one '%' template for the file: a str cell is copied
    and any other cell is written as '%.17g', which is format(float(x), '.17g').
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    rows = iter(rows)
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            first = next(rows, None)
            if first is not None:
                fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
                fh.write(fmt % tuple(first))
                fh.writelines(fmt % tuple(row) for row in rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _solution_rows(sol):
    recon = sol.recon
    profile = recon.profile
    columns = (
        profile.grid, recon.w, recon.p, profile.r, profile.rp, profile.f, profile.fp,
        recon.res_rr, recon.res_tt,
    )
    return zip(*(column.tolist() for column in columns))


SOLUTION_HEADER = ("t", "w", "p", "r", "rp", "f", "fp", "res_rr", "res_tt")


# ---------------------------------------------------------------------------
# commands


def _tensor_from(cfg: ProblemConfig) -> RotSymTensor:
    return RotSymTensor(cfg.n, cfg.phi, cfg.psi, cfg.t_max)


def _cmd_solve(cfg: ProblemConfig) -> int:
    _require(cfg, "solve", ("n", "phi", "psi", "t_max"))
    _validate_common(cfg)
    sol = solve(
        _tensor_from(cfg),
        step=cfg.step,
        delta=cfg.delta,
        t_lo=cfg.t_lo,
        constraint_tol=cfg.constraint_tol,
    )
    out = Path(cfg.out)
    write_csv(out.with_name(out.name + "_solution.csv"), SOLUTION_HEADER, _solution_rows(sol))
    report = out.with_name(out.name + "_report.txt")
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(solution_summary(sol))
    return 0


def _cmd_analyze(cfg: ProblemConfig) -> int:
    _require(cfg, "analyze", ("n", "phi", "psi", "t_max"))
    _validate_common(cfg)
    if cfg.n == 2:
        raise ConfigError("analyze needs n > 2 (n = 2 has no fold structure)")
    T = _tensor_from(cfg)
    verdict = definiteness_check(T)
    if not verdict.is_definite:
        raise DefinitenessError(verdict)
    rep, curve = potential.solve_branch(
        T, step=cfg.step, delta=cfg.delta, projection_tol=cfg.constraint_tol
    )
    glob = potential.check_global(T, curve)
    out = Path(cfg.out)
    lines = [
        f"definiteness: {verdict.kind}",
        f"classification: {rep.classification}",
        f"eigenvalues: lam1 = {rep.lam1:.12g}, lam2 = {rep.lam2:.12g}",
        f"w2 = {rep.w2:.12g}, w3 = {rep.w3:.12g}",
        f"halt: {curve.halt_reason}",
        f"grad margin: {glob.grad_margin:.6e}",
        f"fold margin: {glob.fold_margin:.6e}",
        f"fold roots: {', '.join(f'{r:.6g}' for r in glob.fold_roots) or 'none'}",
        f"verdict: {glob.verdict}",
    ]
    lines.extend(f"note: {note}" for note in glob.notes)
    path = out.with_name(out.name + "_analysis.txt")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    write_csv(
        out.with_name(out.name + "_fold.csv"),
        ("t", "w_lower", "w_upper"),
        zip(*(column.tolist() for column in _fold_points(T, cfg))),
    )
    return 0


def _fold_points(T: RotSymTensor, cfg: ProblemConfig):
    """(t, w_lower, w_upper) arrays where the fold is real, over `samples` abscissae."""
    ts = np.linspace(0.0, cfg.t_max, cfg.samples)
    real, lower, upper = potential.fold_branches(T.n, ts, sample(ts, T.psi)[0, 0])
    return ts[real], lower[real], upper[real]


def _cmd_portrait(cfg: ProblemConfig) -> int:
    _require(cfg, "portrait", ("n", "phi", "psi", "t_max"))
    _validate_common(cfg)
    if cfg.n == 2:
        raise ConfigError("portrait needs n > 2 (n = 2 has no fold structure)")
    T = _tensor_from(cfg)
    _, curve = potential.solve_branch(
        T, step=cfg.step, delta=cfg.delta, projection_tol=cfg.constraint_tol
    )
    (phi, dphi, _), (psi, dpsi, _) = sample(curve.t, T.phi, T.psi)
    F_sep = potential.surface_terms(T.n, curve.t, curve.w, curve.p, phi, dphi, psi, dpsi)[0]
    t_fold, lower, upper = _fold_points(T, cfg)
    (phi, dphi, _), (psi, dpsi, _) = sample(t_fold, T.phi, T.psi)
    F_lower = potential.surface_terms(T.n, t_fold, lower, 0.0, phi, dphi, psi, dpsi)[0]
    F_upper = potential.surface_terms(T.n, t_fold, upper, 0.0, phi, dphi, psi, dpsi)[0]

    def rows():
        sep = (curve.t, curve.w, curve.p, F_sep)
        yield from zip(repeat("separatrix"), *(column.tolist() for column in sep))
        fold = (t_fold, lower, upper, F_lower, F_upper)
        for t, w_lower, w_upper, F_l, F_u in zip(*(column.tolist() for column in fold)):
            yield ("fold_lower", t, w_lower, 0.0, F_l)
            yield ("fold_upper", t, w_upper, 0.0, F_u)

    out = Path(cfg.out)
    write_csv(out.with_name(out.name + "_portrait.csv"), ("branch", "t", "w", "p", "F"), rows())
    return 0


def _cmd_hypersurface(cfg: ProblemConfig) -> int:
    _require(cfg, "hypersurface", ("n", "h", "r_max"))
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    E = hs.GraphEmbedding(cfg.n, cfg.h, cfg.r_max)
    rs = np.linspace(0.0, cfg.r_max, cfg.samples)
    table = hs.curvature_table(E, rs)
    out = Path(cfg.out)
    write_csv(
        out.with_name(out.name + "_hypersurface.csv"),
        ("r", "f", "ric_rr", "ric_tt_unit", "h1", "h2", "scalar"),
        table,
    )
    return 0


def _cmd_verify(cfg: ProblemConfig) -> int:
    _require(cfg, "verify", ("n", "phi", "psi", "t_max"))
    _validate_common(cfg)
    if not cfg.profile:
        raise ConfigError("command 'verify' requires config key 'profile'")
    data = _read_solution_csv(Path(cfg.profile))
    profile = MetricProfile(
        n=cfg.n,
        grid=data["t"],
        f=data["f"],
        r=data["r"],
        rp=data["rp"],
        fp=data["fp"],
    )
    T = _tensor_from(cfg)
    t_lo = cfg.t_lo if cfg.t_lo is not None else 0.05 * cfg.t_max
    t_hi = cfg.t_hi if cfg.t_hi is not None else float(profile.grid[-1])
    # a finite profile can still divide by zero (r = 0 at t > 0); the gate
    # below fails the resulting inf or NaN residual
    with np.errstate(all="ignore"):
        res_rr, res_tt = reconstruct.verify_ricci(profile, T, t_lo, t_hi)
    worst = float(np.maximum(res_rr, res_tt))  # NaN if either is NaN
    out = Path(cfg.out)
    path = out.with_name(out.name + "_verify.txt")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f"profile: {cfg.profile}\n"
        f"interval: [{t_lo:.6g}, {t_hi:.6g}]\n"
        f"residual radial: {res_rr:.6e}\n"
        f"residual tangential: {res_tt:.6e}\n"
        f"tolerance: {cfg.residual_tol:.6e}\n"
    )
    if not worst <= cfg.residual_tol:
        _diag(3, f"ricci residuals exceed tolerance: {worst:.3e}")
        return 3
    return 0


PROFILE_COLUMNS = ("t", "f", "r", "rp", "fp")


def _read_solution_csv(path: Path) -> dict:
    """The PROFILE_COLUMNS of a solution CSV as float arrays.

    Raises ConfigError unless every data row has as many fields as the
    header and each cell parsed is a number, finite in PROFILE_COLUMNS.
    Only those columns and the last one, which bounds the row width, are
    parsed.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            missing = sorted(set(PROFILE_COLUMNS) - set(header))
            if missing:
                raise ConfigError(f"profile CSV missing columns {missing}")
            start = fh.tell()
            if all(line.isspace() for line in iter(fh.readline, "")):
                raise ConfigError(f"profile CSV {path} has no data rows")
            fh.seek(start)
            last = len(header) - 1
            usecols = [header.index(name) for name in PROFILE_COLUMNS] + [last]
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
            except ValueError as err:
                raise ConfigError(f"profile CSV {path}: {err}") from None
            # parsing the last column fails a row with too few fields, so a
            # comma count above the header's share is a row with too many
            fh.seek(start)
            if fh.read().count(",") != len(data) * last:
                fh.seek(start)
                lines = enumerate(filter(str.strip, fh), start=1)
                row = next(i for i, line in lines if line.count(",") != last)
                raise ConfigError(f"profile CSV {path}: data row {row} has more than {last + 1} fields")
    except OSError as err:
        raise ConfigError(f"cannot read profile CSV {path}: {err}") from None
    cols = dict(zip(PROFILE_COLUMNS, np.ascontiguousarray(data.T)))
    for name, col in cols.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ConfigError(
                f"profile CSV {path}: non-finite {name} = {col[bad[0]]} in data row {bad[0] + 1}"
            )
    return cols


_DISPATCH = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "hypersurface": _cmd_hypersurface,
    "portrait": _cmd_portrait,
}


def _diag(code: int, reason: str):
    print(f'riccisym: code={code} reason="{reason}"', file=sys.stderr)


def run_single(command: str, config_path: str, out_override: str | None = None) -> int:
    try:
        cfg = parse_config(Path(config_path))
        if out_override:
            cfg.out = out_override
        return _DISPATCH[command](cfg)
    except (ConfigError, ParseError, EvalError) as err:
        _diag(1, str(err))
        return 1
    except DefinitenessError as err:
        _diag(2, str(err))
        return 2
    except _NUMERIC_ERRORS as err:
        _diag(3, str(err))
        return 3
    except ValueError as err:
        _diag(1, str(err))
        return 1


def _sweep_job(args):
    command, config_path = args
    stem = Path(config_path).stem
    code = run_single(command, config_path, out_override=None)
    return stem, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="riccisym", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--out", help="override the output path prefix")
    ap.add_argument("--sweep", help="directory of .cfg files to run in parallel")
    args = ap.parse_args(argv)

    if args.sweep:
        configs = sorted(Path(args.sweep).glob("*.cfg"))
        if not configs:
            _diag(1, f"no .cfg files in {args.sweep}")
            return 1
        worst = 0
        with ProcessPoolExecutor() as pool:
            for stem, code in pool.map(
                _sweep_job, [(args.command, str(c)) for c in configs]
            ):
                print(f"{stem}: exit {code}")
                worst = max(worst, code)
        return worst

    if not args.config:
        _diag(1, "--config is required unless --sweep is given")
        return 1
    return run_single(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
