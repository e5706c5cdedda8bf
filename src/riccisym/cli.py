"""Batch driver: config ingestion and file emission around the pipeline.

solve runs pipeline.solve; analyze runs its front half, pipeline.branch,
so both share one definiteness scan, integration and continuation check.
portrait integrates the branch without the scan.  analyze, portrait and
hypersurface sample `samples` (at least 2) abscissae.

Invocation:

    riccisym <command> --config <path> [--out <prefix>]

One process runs one config; a shell loop or xargs -P runs many.
Commands: solve, analyze, verify, hypersurface, portrait.  Configs are
line-oriented ``key = value`` text with '#' comments; expression values are
quoted and follow the grammar documented in :mod:`riccisym.exprfn`.

Exit codes: 0 success, 1 usage error (a missing or unknown command, an
unknown option), config or parse error, or an output that cannot be
written, 2 tensor validation failure (sign change, non-finite target,
origin mismatch or degenerate saddle), 3 numerical failure (projection,
monotonicity, sign).  Every failure prints one machine-readable line
``riccisym: code=<N> reason="..."`` on stderr; a failing solve, analyze or
portrait leaves no output file.
Outputs are deterministic: CSV with a header row, 17 significant digits,
'.' decimal separator and LF line endings.

Tables stream: every CSV is written from its float64 columns CHUNK_ROWS rows
at a time, so the Python objects alive while a file is written do not grow
with its row count, and verify counts a profile's fields in READ_CHARS
reads.  What stays in memory is the arrays a command computes and, for
verify, the parsed columns it checks.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import hypersurface as hs
from . import potential, reconstruct
from .exprfn import EvalError, Expr, ParseError, parse, sample
from .exprfn import eval_jet2  # noqa: F401  unused; bench/tracer.py patches cli.eval_jet2
from .pipeline import branch, solution_summary, solve
from .rotsym import DefinitenessError, MetricProfile, RotSymTensor

COMMANDS = ("solve", "analyze", "verify", "hypersurface", "portrait")

_NUMERIC_ERRORS = (
    potential.ProjectionError,
    potential.StepUnderflowError,
    reconstruct.ReconstructionError,
)


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so they exit 1
    with one diagnostic line like any other config error."""

    def error(self, message):
        raise ConfigError(message)


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
    constraint_tol: float = potential.PROJECTION_TOL
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
                number = int(value)
                float(number)  # n and samples enter float arithmetic
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from None
            except OverflowError:
                raise ConfigError(f"{path}:{lineno}: {key} exceeds the float range") from None
            setattr(cfg, key, number)
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if cfg.step > 0:  # a step <= 0 is refused by the checks of each command
        try:
            potential.check_sample_count(cfg.t_max, cfg.step)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
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


# _rows converts this many rows to Python floats at a time; verify reads
# a profile this many characters at a time
CHUNK_ROWS = 4096
READ_CHARS = 1 << 16


def write_csv(path: Path, header, rows):
    """Write the CSV under a temporary name and rename it into place, so a
    failure while rows are produced leaves no partial file at path.

    rows may be any iterable and is consumed once, row by row, so a lazy
    source such as _rows keeps no more than its current chunk alive.  The
    first row fixes one '%' template for the file: a str cell is copied and
    any other cell is written as '%.17g', which is format(float(x), '.17g').
    """
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


def _rows(*columns):
    """The rows of equal-length 1-D arrays as tuples of Python floats,
    converted CHUNK_ROWS rows at a time."""
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        yield from zip(*(column[start:start + CHUNK_ROWS].tolist() for column in columns))


def _solution_rows(sol):
    recon = sol.recon
    profile = recon.profile
    return _rows(
        profile.grid, recon.w, recon.p, profile.r, profile.rp, profile.f, profile.fp,
        recon.res_rr, recon.res_tt,
    )


SOLUTION_HEADER = ("t", "w", "p", "r", "rp", "f", "fp", "res_rr", "res_tt")


# ---------------------------------------------------------------------------
# commands


def _tensor_from(cfg: ProblemConfig, command: str) -> RotSymTensor:
    """The target of a config that holds what `command` needs and passes the
    common checks."""
    _require(cfg, command, ("n", "phi", "psi", "t_max"))
    _validate_common(cfg)
    return RotSymTensor(cfg.n, cfg.phi, cfg.psi, cfg.t_max)


def _require_samples(cfg: ProblemConfig):
    if cfg.samples < 2:
        raise ConfigError(f"samples must be >= 2, got {cfg.samples}")
    if cfg.samples > potential.MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {potential.MAX_SAMPLES}, got {cfg.samples}")


def _output(cfg: ProblemConfig, suffix: str) -> Path:
    """The path <out><suffix>, its directory created."""
    out = Path(cfg.out)
    path = out.with_name(out.name + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(cfg: ProblemConfig) -> int:
    sol = solve(
        _tensor_from(cfg, "solve"),
        step=cfg.step,
        delta=cfg.delta,
        t_lo=cfg.t_lo,
        constraint_tol=cfg.constraint_tol,
    )
    write_csv(_output(cfg, "_solution.csv"), SOLUTION_HEADER, _solution_rows(sol))
    _output(cfg, "_report.txt").write_text(solution_summary(sol))
    return 0


def _cmd_analyze(cfg: ProblemConfig) -> int:
    T = _tensor_from(cfg, "analyze")
    if cfg.n == 2:
        raise ConfigError("analyze needs n > 2 (n = 2 has no fold structure)")
    _require_samples(cfg)
    verdict, rep, curve, glob = branch(T, cfg.step, cfg.delta, cfg.constraint_tol)
    lines = [
        f"definiteness: {verdict.kind}",
        "classification: folded_saddle",
        f"eigenvalues: lam1 = {rep.lam1:.12g}, lam2 = {rep.lam2:.12g}",
        f"w2 = {rep.w2:.12g}, w3 = {rep.w3:.12g}",
        f"halt: {curve.halt_reason}",
        f"grad margin: {glob.grad_margin:.6e}",
        f"fold margin: {glob.fold_margin:.6e}",
        f"fold roots: {', '.join(f'{r:.6g}' for r in glob.fold_roots) or 'none'}",
        f"verdict: {glob.verdict}",
    ]
    lines.extend(f"note: {note}" for note in glob.notes)
    fold = _fold_points(T, cfg)
    # both outputs are computed before either is written, so a failure leaves neither
    _output(cfg, "_analysis.txt").write_text("\n".join(lines) + "\n")
    write_csv(_output(cfg, "_fold.csv"), ("t", "w_lower", "w_upper"), _rows(*fold))
    return 0


def _fold_points(T: RotSymTensor, cfg: ProblemConfig):
    """(t, w_lower, w_upper) arrays where the fold is real, over `samples` abscissae."""
    ts = np.linspace(0.0, cfg.t_max, cfg.samples)
    real, lower, upper = potential.fold_branches(T.n, ts, sample(ts, T.psi.first_order)[0, 0])
    return ts[real], lower[real], upper[real]


def _cmd_portrait(cfg: ProblemConfig) -> int:
    T = _tensor_from(cfg, "portrait")
    if cfg.n == 2:
        raise ConfigError("portrait needs n > 2 (n = 2 has no fold structure)")
    _require_samples(cfg)
    _, curve = potential.solve_branch(
        T, step=cfg.step, delta=cfg.delta, projection_tol=cfg.constraint_tol
    )
    (phi, dphi), (psi, dpsi) = sample(curve.t, T.phi.first_order, T.psi.first_order)
    F_sep = potential.surface_terms(T.n, curve.t, curve.w, curve.p, phi, dphi, psi, dpsi)[0]
    t_fold, lower, upper = _fold_points(T, cfg)
    (phi, dphi), (psi, dpsi) = sample(t_fold, T.phi.first_order, T.psi.first_order)
    ws = np.stack((lower, upper))
    F_lower, F_upper = potential.surface_terms(T.n, t_fold, ws, 0.0, phi, dphi, psi, dpsi)[0]

    def rows():
        for row in _rows(curve.t, curve.w, curve.p, F_sep):
            yield ("separatrix", *row)
        for t, w_lower, w_upper, F_l, F_u in _rows(t_fold, lower, upper, F_lower, F_upper):
            yield ("fold_lower", t, w_lower, 0.0, F_l)
            yield ("fold_upper", t, w_upper, 0.0, F_u)

    write_csv(_output(cfg, "_portrait.csv"), ("branch", "t", "w", "p", "F"), rows())
    return 0


def _cmd_hypersurface(cfg: ProblemConfig) -> int:
    _require(cfg, "hypersurface", ("n", "h", "r_max"))
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    _require_samples(cfg)
    E = hs.GraphEmbedding(cfg.n, cfg.h, cfg.r_max)
    table = hs.curvature_table(E, np.linspace(0.0, cfg.r_max, cfg.samples))
    write_csv(
        _output(cfg, "_hypersurface.csv"),
        ("r", "f", "ric_rr", "ric_tt_unit", "h1", "h2", "scalar"),
        _rows(*table.T),
    )
    return 0


def _cmd_verify(cfg: ProblemConfig) -> int:
    T = _tensor_from(cfg, "verify")
    if not cfg.profile:
        raise ConfigError("command 'verify' requires config key 'profile'")
    data = _read_solution_csv(Path(cfg.profile))
    profile = MetricProfile(cfg.n, *(data[name] for name in PROFILE_COLUMNS))
    t_lo = reconstruct.window_start(cfg.t_lo, cfg.t_max)
    t_hi = cfg.t_hi if cfg.t_hi is not None else float(profile.grid[-1])
    # a finite profile can still divide by zero (r = 0 at t > 0); the gate
    # below fails the resulting inf or NaN residual
    with np.errstate(all="ignore"):
        res_rr, res_tt = reconstruct.verify_ricci(profile, T, t_lo, t_hi)
    worst = float(np.maximum(res_rr, res_tt))  # NaN if either is NaN
    _output(cfg, "_verify.txt").write_text(
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


# the columns verify reads, in the order of MetricProfile's fields after n
PROFILE_COLUMNS = ("t", "f", "r", "rp", "fp")


def _read_solution_csv(path: Path) -> dict:
    """The PROFILE_COLUMNS of a solution CSV as float arrays.

    Raises ConfigError unless every data row has as many fields as the
    header and each cell parsed is a number, finite in PROFILE_COLUMNS.
    Only those columns and the last one, which bounds the row width, are
    parsed, into one float64 table of six columns whose column views are
    returned; it is the only thing kept.  The fields are counted in
    READ_CHARS reads, and a bad row is found by reading the file again
    CHUNK_ROWS lines at a time, so no copy of the text is held.
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
            error = None
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
            except ValueError as err:
                error = err
            # parsing the last column fails a row with too few fields, so a
            # comma count above the header's share is a row with too many
            fh.seek(start)
            if error or _count_commas(fh) != len(data) * last:
                fh.seek(start)
                why = _unreadable_row(fh, header, usecols) or error
                raise ConfigError(f"profile CSV {path}: {why}")
    except OSError as err:
        raise ConfigError(f"cannot read profile CSV {path}: {err}") from None
    cols = dict(zip(PROFILE_COLUMNS, data.T))
    for name, col in cols.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ConfigError(
                f"profile CSV {path}: non-finite {name} = {col[bad[0]]} in data row {bad[0] + 1}"
            )
    return cols


def _count_commas(fh) -> int:
    """The commas from fh's position to its end, counted READ_CHARS at a time."""
    return sum(chunk.count(",") for chunk in iter(lambda: fh.read(READ_CHARS), ""))


def _unreadable_row(lines, header, usecols) -> str | None:
    """Why np.loadtxt fails the first data row it cannot read, or None if it
    reads each alone; data rows count from 1 and skip empty lines, as it does.

    The rows are parsed CHUNK_ROWS at a time, then those of the first chunk
    that fails one at a time, then the cells of its first failing row one at
    a time, so the search takes O(rows / CHUNK_ROWS + CHUNK_ROWS) parses.
    """
    rows = (line for line in lines if line != "\n")
    last = len(header) - 1
    start = 1
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if "".join(chunk).count(",") == len(chunk) * last and _reads(chunk, usecols):
            start += len(chunk)
            continue
        for row, line in enumerate(chunk, start=start):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                more = "more" if len(cells) > len(header) else "fewer"
                return f"data row {row} has {more} than {len(header)} fields"
            if _reads([line], usecols):
                continue
            for i in usecols:
                if not _reads([line], [i]):
                    return f"data row {row}: could not convert string {cells[i]!r} in column {header[i]}"
        start += len(chunk)
    return None


def _reads(lines, usecols) -> bool:
    """Whether np.loadtxt parses the columns usecols of every one of lines."""
    try:
        np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


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
        if out_override is not None:
            cfg.out = out_override
        if not Path(cfg.out).name:
            raise ConfigError(f"out must end in a file name, got {cfg.out!r}")
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
    except OSError as err:  # a config or profile that cannot be read is a ConfigError
        _diag(1, f"cannot write output: {err}")
        return 1
    except ValueError as err:
        _diag(1, str(err))
        return 1


def main(argv=None) -> int:
    ap = _ArgumentParser(prog="riccisym", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--out", help="override the output path prefix")
    try:
        args = ap.parse_args(argv)
    except ConfigError as err:
        _diag(1, str(err))
        return 1
    if not args.config:
        _diag(1, "--config is required")
        return 1
    return run_single(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
