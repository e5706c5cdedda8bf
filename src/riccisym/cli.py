"""Batch driver: config ingestion and file emission around the pipeline.

solve runs pipeline.solve; analyze runs its front half, pipeline.branch,
and writes pipeline.branch_record, the lines solve's report opens with.
portrait integrates the branch without the scan.  analyze and portrait
need n > 2; they and hypersurface sample `samples` (2 to 10^7) abscissae.

Invocation:

    riccisym <command> --config <path> [--out <prefix>]

One process runs one config; a shell loop or xargs -P runs many.
Commands: solve, analyze, verify, hypersurface, portrait.  Configs are
line-oriented ``key = value`` text with '#' comments; expression values are
quoted and follow the grammar documented in :mod:`riccisym.exprfn`.

Each input rule is stated once: the commands are _DISPATCH's keys, the
config keys and their kinds ProblemConfig's fields, delta's range is
potential.seed_offset's and the tokens are exprfn._TOKEN's.

Exit codes: 0 success, 1 usage error (a missing or unknown command, an
unknown option), config or parse error, or an output that cannot be
written, 2 tensor validation failure (sign change, non-finite target,
origin mismatch or degenerate saddle), 3 numerical failure (projection,
monotonicity, sign, a non-finite hypersurface cell, Ricci residuals above
residual_tol in solve or verify).  Every failure prints
one machine-readable line ``riccisym: code=<N> reason="..."`` on stderr; a
failing solve, analyze, portrait or hypersurface leaves no output file.
Outputs are deterministic: CSV with a header row, 17 significant digits,
'.' decimal separator and LF line endings.

Tables stream: every CSV is written from its columns by one numpy kernel,
CHUNK_ROWS rows at a time, each float cell byte for byte as
format(x, '.17g') and each label as its bytes, so what a file's writing
holds does not grow with its row count; verify counts a profile's fields
in READ_CHARS reads.  What stays in memory is the arrays a command computes
and, for verify, the parsed columns it checks.  The `samples` rows of
hypersurface, and the fold rows of analyze and portrait, are computed a
chunk at a time into the open file from one grid rule, _abscissae, so past
CHUNK_ROWS rows an output that cannot be written is found before a
failure in a later chunk.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import hypersurface as hs
from . import potential, reconstruct
from .exprfn import Expr, ParseError, parse, sample
from .exprfn import eval_jet2  # noqa: F401  unused; bench/tracer.py patches cli.eval_jet2
from .pipeline import branch, branch_record, solution_summary, solve
from .rotsym import DefinitenessError, MetricProfile, RotSymTensor, check_dimension

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
    n: int | None = None
    phi: Expr | None = None
    psi: Expr | None = None
    h: Expr | None = None
    t_max: float | None = None
    r_max: float | None = None
    step: float = 1e-3
    delta: float | None = None
    residual_tol: float = 1e-5
    t_lo: float | None = None
    t_hi: float | None = None
    samples: int = 101
    out: str = "riccisym_out"
    profile: str = ""


# every config key and the kind of its value: Expr, float, int or str
_KEY_KINDS = {f.name: f.type.partition(" ")[0] for f in fields(ProblemConfig)}


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
        kind = _KEY_KINDS.get(key)
        if kind == "Expr":
            try:
                setattr(cfg, key, parse(value))
            except ParseError as err:
                raise ConfigError(f"{path}:{lineno}: {key}: {err}") from None
        elif kind == "float":
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be a number") from None
            if not math.isfinite(number):
                raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {value}")
            setattr(cfg, key, number)
        elif kind == "int":
            try:
                number = int(value)
                float(number)  # n and samples enter float arithmetic
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from None
            except OverflowError:
                raise ConfigError(f"{path}:{lineno}: {key} exceeds the float range") from None
            setattr(cfg, key, number)
        elif kind == "str":
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if cfg.step > 0 and cfg.t_max is not None:  # else each command's checks refuse it
        try:
            potential.check_sample_count(cfg.t_max, cfg.step)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    return cfg


def _require(cfg: ProblemConfig, command: str, keys):
    """Raise ConfigError for the first of keys that the config leaves unset;
    a value that is set but out of range is left to the command's checks."""
    for key in keys:
        if getattr(cfg, key) in (None, ""):
            raise ConfigError(f"command {command!r} requires config key {key!r}")


def _validate_common(cfg: ProblemConfig):
    check_dimension(cfg.n)
    for key in ("step", "residual_tol"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    potential.seed_offset(cfg.t_max, cfg.step, cfg.delta)


# ---------------------------------------------------------------------------
# deterministic CSV emission


# write_csv formats this many rows at a time; verify reads a profile this
# many characters at a time
CHUNK_ROWS = 1024
READ_CHARS = 1 << 16


def _write_all_or_none(writes: dict):
    """Make each file of writes, a dict path -> write(tmp), by its write on
    the temporary name <path>.tmp, then rename each into place once all are
    made; a failure removes the temporary files and those already renamed."""
    tmps = [path.with_name(path.name + ".tmp") for path in writes]
    placed = []
    try:
        for tmp, write in zip(tmps, writes.values()):
            write(tmp)
        for tmp, path in zip(tmps, writes):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in tmps + placed:
            path.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header, blocks):
    """Write the CSV by _write_all_or_none, so a failure while blocks are
    produced leaves no partial file at path.

    blocks is an iterable of column tuples, consumed once; the rows of each
    block follow those of the block before it.  A block holds equal-length
    1-D columns: a label column is a numpy 'S' array, written as its bytes,
    and any other is read as float64 and written as format(float(x), '.17g').
    Each block is formatted CHUNK_ROWS rows at a time by _csv_rows.
    """
    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for block in blocks:
                columns = [c if c.dtype.kind == "S" else np.asarray(c, np.float64)
                           for c in map(np.asarray, block)]
                for start in range(0, len(columns[0]), CHUNK_ROWS):
                    fh.write(_csv_rows([c[start:start + CHUNK_ROWS] for c in columns]))

    _write_all_or_none({path: write})


# Each float cell is formatted into a 48-byte slot of six little-endian
# uint64 words: the sign and the "0.000" lead of 0.000ddd (bytes 0-5), 17
# digits each followed by a '.' slot (6-39), "e+ddd" (40-44), the separator
# (45) and two bytes of padding.  Bytes a cell does not use stay NUL, and a
# chunk's slots become its CSV text with one bytes.translate that deletes
# them: compacting cell by cell was several times slower.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_POW10_SPAN = 300  # the table holds 10**k for |k| <= _POW10_SPAN


def _word(text: bytes, at: int = 0) -> int:
    """The uint64 whose little-endian bytes hold text from byte at."""
    return int.from_bytes(text, "little") << 8 * at


@functools.cache  # built on the first write, not at import
def _tables():
    """(pow10, quads, zeros, keep, dots, first, lead, exps).

    pow10[:, _POW10_SPAN + k] holds hi, lo and hi's two Veltkamp halves,
    where hi + lo is 10**k to about 2**-106, relative; int true division
    rounds exactly.  For a 4-digit group g, quads[g] holds its digits in
    their slots of one word and zeros[g] its trailing zeros (4 for g = 0).
    Indexed by the last digit written, keep holds the masks of words 1-4;
    by the digit the point follows (17 for none), dots holds words 0-4 with
    that '.'; first[d] is word 0 with the leading digit d, lead[n] with the
    first n bytes of "0.000", and exps[x + 400] is the "e+ddd" word of the
    decimal exponent x.
    """
    pow10 = []
    for k in range(-_POW10_SPAN, _POW10_SPAN + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        m, d = hi.as_integer_ratio()
        t = _SPLIT * hi
        half = t - (t - hi)
        pow10.append((hi, (num * d - m * den) / (den * d), half, hi - half))
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.zeros((10_000, 8), np.uint8)
    quads[:, ::2] = ord("0") + digits
    zeros = np.full(10_000, 4)
    for c in range(4):  # the last nonzero digit decides
        zeros[digits[:, c] != 0] = 3 - c
    slots = np.arange(17)
    keep = np.zeros((17, 17, 2), np.uint8)  # digit i and its '.' slot, kept up to last
    keep[slots[:, None] >= slots] = 0xFF
    dots = np.zeros((18, 40), np.uint8)
    dots[slots, 7 + 2 * slots] = ord(".")
    u8 = np.dtype("<u8")
    return (
        np.array(pow10).T.copy(),
        quads.view(u8)[:, 0],
        zeros,
        keep.reshape(17, 34)[:, 2:].copy().view(u8),
        dots.view(u8),
        np.array([_word(b"%d" % d, 6) for d in range(10)], u8),
        np.array([_word(b"0.000"[:n], 1) for n in range(6)], u8),
        np.array([_word(b"e%+0*d" % (4 if abs(x) >= 100 else 3, x)) for x in range(-400, 401)], u8),
    )


def _scaled(a, X, pow10):
    """a * 10**(16 - X) as p + c: p = fl(a * hi) and c the rest, exact to
    about 1e-14 for p below 2**57, from Dekker's two-product."""
    hi, lo, bh, bl = np.take(pow10, _POW10_SPAN + 16 - X, axis=1)
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    p = a * hi
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl) + a * lo


def _decimal(x, pow10):
    """(N, X): the 17 significant digits of each |x| as an int64 and its
    decimal exponent, so |x| rounds to N * 10**(X - 16); (0, 0) for 0, inf
    and NaN.

    N is the product |x| * 10**(16 - X), held to about 1e-14 and rounded half
    to even.  A finite nonzero cell outside [1e-280, 1e280], where a factor
    of that product leaves the float range, or within 1e-9 of a half, where
    the rounding is not decided, takes its digits from '%.16e', which rounds
    the same 17 digits exactly.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    blank = ~(a > 0) | (a == math.inf)  # 0, inf and NaN
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    p, c = _scaled(a, X, pow10)
    # log10 may round across a power of ten: put the product in [1e16, 1e17)
    shift = ((p - 1e17) + c >= 0).astype(np.int64) - ((p - 1e16) + c < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        X[moved] += shift[moved]
        p[moved], c[moved] = _scaled(a[moved], X[moved], pow10)
    r = np.rint(c)  # p is an even integer, so p + rint(c) rounds p + c half to even
    N = p.astype(np.int64) + r.astype(np.int64)
    top = N == 10**17
    N[top] = 10**16
    X += top
    N[blank] = X[blank] = 0
    for i in np.flatnonzero(~fast & ~blank | (np.abs(np.abs(c - r) - 0.5) < 1e-9)):
        s = "%.16e" % abs(float(x[i]))
        N[i], X[i] = int(s[0] + s[2:18]), int(s[19:])
    return N, X


_NAN, _INF = _word(b"nan", 1), _word(b"inf", 1)
_MINUS, _NUL = np.uint64(ord("-")), np.uint64(0)


def _float_slots(x, seps):
    """The (rows, columns, 6) words of a (rows, columns) float64 chunk, each
    slot ending in its column's separator word in seps."""
    pow10, quads, zeros, keep, dots, first, lead, exps = _tables()
    shape, x = x.shape, x.ravel()
    N, X = _decimal(x, pow10)
    q, g4 = np.divmod(N, 10_000)
    q, g3 = np.divmod(q, 10_000)
    q, g2 = np.divmod(q, 10_000)
    d0, g1 = np.divmod(q, 10_000)
    tz = np.take(zeros, g4)
    for j, g in enumerate((g3, g2, g1), 1):
        tz = np.where(tz == 4 * j, 4 * j + np.take(zeros, g), tz)
    k = 16 - tz  # the last nonzero digit, 0 for a zero
    fixed = (X >= -4) & (X < 17)  # '%g' writes ddd.ddd or 0.000ddd, else d.ddde+XX
    point = np.where(fixed, X, 0)  # the digit the point follows
    words = np.empty((x.size, 6), np.dtype("<u8"))
    words[:, :5] = np.take(dots, np.where((k > point) & (point >= 0), point, 17), axis=0)
    sign = np.where(np.signbit(x) & (x == x), _MINUS, _NUL)  # '%g' writes NaN unsigned
    words[:, 0] |= np.take(lead, np.where(fixed & (X < 0), 1 - X, 0)) | np.take(first, d0) | sign
    words[:, 1:5] |= np.take(quads, np.stack((g1, g2, g3, g4), axis=1))
    words[:, 1:5] &= np.take(keep, np.maximum(k, point), axis=0)
    words[:, 5] = np.where(fixed, 0, np.take(exps, X + 400))
    odd = np.flatnonzero(~np.isfinite(x))  # laid out as 0: keep the sign, replace the "0"
    words[odd, 0] = (words[odd, 0] & 0xFF) | np.where(np.isnan(x[odd]), _NAN, _INF).astype(np.uint64)
    words = words.reshape(*shape, 6)
    words[..., 5] |= seps
    return words


def _csv_rows(columns) -> bytes:
    """The CSV lines of equal-length columns, float64 or 'S' labels."""
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    floats = [j for j, c in enumerate(columns) if c.dtype.kind != "S"]
    slots = [None] * len(columns)
    if floats:
        words = np.array([_word(seps[j], 5) for j in floats], np.dtype("<u8"))
        cells = _float_slots(np.stack([columns[j] for j in floats], axis=1), words).view(np.uint8)
        if len(floats) == len(columns):
            return cells.tobytes().translate(None, b"\0")
        for i, j in enumerate(floats):
            slots[j] = cells[:, i]
    for j, c in enumerate(columns):
        if slots[j] is None:  # a label: its NUL-padded bytes, then the separator
            slots[j] = np.char.add(c, seps[j]).view(np.uint8).reshape(len(c), -1)
    return np.concatenate(slots, axis=1).tobytes().translate(None, b"\0")


def _solution_columns(sol):
    recon = sol.recon
    profile = recon.profile
    return (
        profile.grid, recon.w, recon.p, profile.r, profile.rp, profile.f, profile.fp,
        recon.res_rr, recon.res_tt,
    )


SOLUTION_HEADER = ("t", "w", "p", "r", "rp", "f", "fp", "res_rr", "res_tt")


# ---------------------------------------------------------------------------
# commands


def _abscissae(stop: float, samples: int):
    """The abscissae of numpy's linspace(0, stop, samples), CHUNK_ROWS at a
    time, each chunk made by linspace's own rule, so byte for byte:
    i * (stop / (samples - 1)) + 0.0, or i / (samples - 1) * stop + 0.0
    where that step underflows to 0, the last set to stop."""
    step = stop / (samples - 1)
    for start in range(0, samples, CHUNK_ROWS):
        i = np.arange(start, min(start + CHUNK_ROWS, samples), dtype=float)
        xs = (i * step if step else i / (samples - 1) * stop) + 0.0
        if start + CHUNK_ROWS >= samples:
            xs[-1] = stop
        yield xs


def _started(blocks):
    """The blocks of a table with its first computed now, so a table of one
    chunk fails before its output is made."""
    first = next(blocks)
    return chain([first], blocks)


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


def _fold_target(cfg: ProblemConfig, command: str) -> RotSymTensor:
    """The target of analyze or portrait: n > 2, and `samples` fold abscissae."""
    T = _tensor_from(cfg, command)
    if cfg.n == 2:
        raise ConfigError(f"{command} needs n > 2 (n = 2 has no fold structure)")
    _require_samples(cfg)
    return T


def _output(cfg: ProblemConfig, suffix: str) -> Path:
    """The path <out><suffix>, its directory created."""
    out = Path(cfg.out)
    path = out.with_name(out.name + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _residual_gate(peaks, peak_t, tol: float) -> int:
    """solve's and verify's gate on the Ricci residual peaks (radial,
    tangential) at peak_t: 0, or 3 and a line naming the worse one, NaN
    first, its t and the bound."""
    worst = int(np.argmax(peaks))
    if peaks[worst] <= tol:
        return 0
    _diag(3, f"ricci residuals exceed tolerance: {('radial', 'tangential')[worst]} "
             f"{peaks[worst]:.3e} at t = {peak_t[worst]:.6g} > residual_tol {tol:.3e}")
    return 3


def _cmd_solve(cfg: ProblemConfig) -> int:
    sol = solve(_tensor_from(cfg, "solve"), step=cfg.step, delta=cfg.delta, t_lo=cfg.t_lo)
    if _residual_gate(sol.recon.ricci_residuals, sol.recon.ricci_residual_t, cfg.residual_tol):
        return 3
    _write_all_or_none({
        _output(cfg, "_solution.csv"): lambda tmp: write_csv(tmp, SOLUTION_HEADER,
                                                             [_solution_columns(sol)]),
        _output(cfg, "_report.txt"): lambda tmp: tmp.write_text(solution_summary(sol)),
    })
    return 0


def _cmd_analyze(cfg: ProblemConfig) -> int:
    T = _fold_target(cfg, "analyze")
    report = branch_record(*branch(T, cfg.step, cfg.delta))
    fold = _started(points[:3] for points in _fold_points(T, cfg))
    _write_all_or_none({
        _output(cfg, "_analysis.txt"): lambda tmp: tmp.write_text(report),
        _output(cfg, "_fold.csv"): lambda tmp: write_csv(tmp, ("t", "w_lower", "w_upper"), fold),
    })
    return 0


def _fold_points(T: RotSymTensor, cfg: ProblemConfig, *exprs):
    """Per chunk of the `samples` abscissae of [0, t_max]: the (t, w_lower,
    w_upper) arrays where the fold is real, then the values there of each of
    exprs and of psi, from one sample."""
    for ts in _abscissae(cfg.t_max, cfg.samples):
        values = sample(ts, *(e.first_order for e in exprs), T.psi.first_order)[:, 0]
        real, lower, upper = potential.fold_branches(T.n, ts, values[-1])
        yield ts[real], lower[real], upper[real], *values[:, real]


def _cmd_portrait(cfg: ProblemConfig) -> int:
    T = _fold_target(cfg, "portrait")
    _, curve = potential.solve_branch(T, step=cfg.step, delta=cfg.delta)
    # F reads phi and psi but no derivative (NaN here): the curve carries
    # them, and the fold rows take them from the sample that finds the fold
    nan = math.nan
    F_sep = potential.surface_terms(
        T.n, curve.t, curve.w, curve.p, curve.phi, nan, curve.psi, nan
    )[0]

    def fold_rows(t_fold, lower, upper, phi, psi):
        ws = np.stack((lower, upper))
        F_fold = potential.surface_terms(T.n, t_fold, ws, 0.0, phi, nan, psi, nan)[0]
        return (np.tile(np.array([b"fold_lower", b"fold_upper"]), t_fold.size),
                np.repeat(t_fold, 2), ws.T.ravel(), np.zeros(2 * t_fold.size), F_fold.T.ravel())

    # the separatrix rows, then a fold_lower and a fold_upper row at each fold t
    separatrix = (np.broadcast_to(np.array(b"separatrix"), curve.t.shape), curve.t, curve.w,
                  curve.p, F_sep)
    fold = _started(fold_rows(*points) for points in _fold_points(T, cfg, T.phi))
    write_csv(_output(cfg, "_portrait.csv"), ("branch", "t", "w", "p", "F"),
              chain([separatrix], fold))
    return 0


def _cmd_hypersurface(cfg: ProblemConfig) -> int:
    _require(cfg, "hypersurface", ("n", "h", "r_max"))
    check_dimension(cfg.n)
    _require_samples(cfg)
    E = hs.GraphEmbedding(cfg.n, cfg.h, cfg.r_max)
    blocks = _started(_curvature_blocks(E, cfg.samples))
    write_csv(_output(cfg, "_hypersurface.csv"), HYPERSURFACE_HEADER, blocks)
    return 0


def _curvature_blocks(E: hs.GraphEmbedding, samples: int):
    """The columns of one curvature_table per chunk of the `samples`
    abscissae of [0, r_max]; the first non-finite cell, row by row, raises
    ReconstructionError once the last block is computed, so an evaluation
    error in any block wins."""
    bad = None
    done = 0
    for rs in _abscissae(E.r_max, samples):
        table = hs.curvature_table(E, rs)
        cells = np.argwhere(~np.isfinite(table))
        if bad is None and cells.size:
            row, column = cells[0]
            bad = f"{HYPERSURFACE_HEADER[column]} not finite at grid point r = {table[row, 0]:.6g}"
        done += rs.size
        if bad is not None and done == samples:
            raise reconstruct.ReconstructionError(bad)
        yield table.T


HYPERSURFACE_HEADER = ("r", "f", "ric_rr", "ric_tt_unit", "h1", "h2", "scalar")


def _cmd_verify(cfg: ProblemConfig) -> int:
    T = _tensor_from(cfg, "verify")
    _require(cfg, "verify", ("profile",))
    data = _read_solution_csv(Path(cfg.profile))
    profile = MetricProfile(cfg.n, *(data[name] for name in PROFILE_COLUMNS))
    t_lo = reconstruct.window_start(cfg.t_lo, cfg.t_max)
    t_hi = cfg.t_hi if cfg.t_hi is not None else float(profile.grid[-1])
    # a finite profile can still divide by zero (r = 0 at t > 0); the gate
    # below fails the resulting inf or NaN residual
    with np.errstate(all="ignore"):
        peaks, peak_t = reconstruct.verify_ricci(profile, T, t_lo, t_hi)
    _output(cfg, "_verify.txt").write_text(
        f"profile: {cfg.profile}\n"
        f"interval: [{t_lo:.6g}, {t_hi:.6g}]\n"
        f"residual radial: {peaks[0]:.6e}\n"
        f"residual tangential: {peaks[1]:.6e}\n"
        f"tolerance: {cfg.residual_tol:.6e}\n"
    )
    return _residual_gate(peaks, peak_t, cfg.residual_tol)


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
COMMANDS = tuple(_DISPATCH)


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
    except DefinitenessError as err:  # the one ValueError of code 2
        _diag(2, str(err))
        return 2
    except _NUMERIC_ERRORS as err:
        _diag(3, str(err))
        return 3
    except OSError as err:  # a config or profile that cannot be read is a ConfigError
        _diag(1, f"cannot write output: {err}")
        return 1
    except ValueError as err:  # a config, parse or evaluation error among them
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
