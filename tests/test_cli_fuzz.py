"""Random targets, mutated configs and mutated profiles through the command line.

Every run of solve, analyze, portrait and hypersurface ends in a
documented exit code: silent on success, exactly one
``riccisym: code=<N> reason="..."`` line on stderr otherwise, never a
traceback or a Python warning, and a failure leaves no output file.  The
grammar reaches the float edge cases on purpose: underflow (1e-200),
overflow (1e999, 1e308*1e308) and the NaN of their differences.  A
config text that parse_config refuses exits 1.  verify holds to the same
contract, bar the file rule (a failed gate still writes its report), on a
gold solution CSV with one mutation applied.
"""

import contextlib
import functools
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riccisym.cli import ConfigError, main, parse_config
from riccisym.exprfn import FUNCTIONS

ATOMS = ("0", "1", "-1", "8", "1e-200", "1e999", "1e308*1e308", "t", "t^2", "pi")
DIAGNOSTIC = re.compile(r'riccisym: code=(\d) reason=".*"')


def expressions(depth):
    """Expression text of nesting depth at most `depth`."""
    leaf = st.sampled_from(ATOMS)
    if depth == 0:
        return leaf
    sub = expressions(depth - 1)
    return st.one_of(
        leaf,
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.integers(-2, 3)),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), sub),
    )


def _run(command, cfg_text, profile=None):
    """(exit code, stderr lines, recorded warnings, names of the output files
    left behind) of one in-process run; `profile` is the text of the
    solution CSV that the config names."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        if profile is not None:
            (Path(tmp) / "profile.csv").write_text(profile)
            cfg_text += f'profile = "{tmp}/profile.csv"\n'
        cfg.write_text(cfg_text + f'out = "{tmp}/fuzz"\n')
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg)])
        left = sorted(p.name for p in Path(tmp).glob("fuzz_*"))
    return code, err.getvalue().splitlines(), caught, left


@settings(max_examples=60)
@given(
    n=st.integers(2, 6),
    phi=expressions(3),
    psi=expressions(3),
    t_max=st.sampled_from((0.3, 0.5, 1, 2)),
    step=st.sampled_from((1e-2, 5e-2)),
)
def test_commands_end_in_one_documented_outcome(n, phi, psi, t_max, step):
    cfg_text = f'n = {n}\nphi = "{phi}"\npsi = "{psi}"\nt_max = {t_max}\nstep = {step}\n'
    for command in ("solve", "analyze", "portrait"):
        code, lines, caught, left = _run(command, cfg_text)
        _assert_one_outcome(command, code, lines, caught, codes=(0, 1, 2, 3))
        assert code == 0 or not left, (command, left)  # a failure writes no file


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    h=expressions(3),
    r_max=st.sampled_from((0.5, 2, 1e160, 1e300)),
)
def test_hypersurface_ends_in_one_documented_outcome(n, h, r_max):
    # r_max = 1e160 with h = t^2 used to write 100 rows of inf and NaN
    # after 8 RuntimeWarnings; a non-finite cell is a numerical failure
    code, lines, caught, left = _run("hypersurface", f'n = {n}\nh = "{h}"\nr_max = {r_max}\n')
    _assert_one_outcome("hypersurface", code, lines, caught, codes=(0, 1, 3))
    assert code == 0 or not left, left


def _assert_one_outcome(command, code, lines, caught, codes):
    assert code in codes, (command, code)
    assert not caught, (command, [str(w.message) for w in caught])
    if code == 0:
        assert lines == [], (command, lines)
    else:
        assert len(lines) == 1, (command, lines)
        match = DIAGNOSTIC.fullmatch(lines[0])
        assert match and int(match.group(1)) == code, (command, lines)


GOLD4 = 'n = 4\nphi = "12"\npsi = "12 - 8*t^2"\nt_max = 0.5\n'
CELLS = ("", " ", "x", "1.2.3", "-", "nan", "inf", "-inf", "0", "-1", "1e308", "1e999")


@functools.cache
def _gold4_lines():
    """The lines of the gold n = 4 solution CSV (header and 501 rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "g4.cfg"
        cfg.write_text(GOLD4 + f'out = "{tmp}/g4"\n')
        assert main(["solve", "--config", str(cfg)]) == 0
        return tuple((Path(tmp) / "g4_solution.csv").read_text().splitlines(keepends=True))


def _mutate(data, lines):
    """lines with one drawn mutation applied."""
    kind = data.draw(st.sampled_from(("drop", "truncate", "cell", "rename", "delete", "shuffle")))
    if kind == "drop":
        start = data.draw(st.integers(0, len(lines) - 1))
        stop = data.draw(st.integers(start + 1, len(lines)))
        return lines[:start] + lines[stop:]
    if kind == "truncate":
        i = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[i]) - 1))
        # either the file ends mid-line or one line loses its tail
        rest = data.draw(st.sampled_from(([], ["\n"] + lines[i + 1:])))
        return lines[:i] + [lines[i][:cut]] + rest
    header = lines[0].rstrip("\n").split(",")
    column = data.draw(st.integers(0, len(header) - 1))
    if kind == "cell":
        i = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[i].rstrip("\n").split(",")
        cells[column] = data.draw(st.sampled_from(CELLS))
        return lines[:i] + [",".join(cells) + "\n"] + lines[i + 1:]
    if kind == "rename":
        header[column] = data.draw(st.sampled_from(("", "x", "T", "t", "r", "fp")))
    elif kind == "delete":
        del header[column]
    else:
        rows = lines[1:]
        data.draw(st.randoms(use_true_random=False)).shuffle(rows)
        return lines[:1] + rows
    return [",".join(header) + "\n"] + lines[1:]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_of_a_mutated_profile_ends_in_one_documented_outcome(data):
    profile = "".join(_mutate(data, list(_gold4_lines())))
    _assert_one_outcome("verify", *_run("verify", GOLD4, profile)[:3], codes=(0, 1, 3))


# a valid config, one `key = value` a line; the runs add their own `out`
CONFIG = (
    'n = 4', 'phi = "12"', 'psi = "12 - 8*t^2"', 't_max = 0.5', 'step = 0.01', 'samples = 11'
)
VALUES = ("", "x", "1.2.3", "0x10", "1_0", "nan", "inf", "-inf", "1e999", "-1", "0", "1e308",
          "1e-308", "9" * 400, "\uff14", "'12'", '"', "t", "12 - 8*t^2")
UNKNOWN = ("colour = 3", "N = 4", "phi2 = \"1\"", "t-max = 1", " = 4", "=")
NON_ASCII = ("\u00e9", "\u00a0", "\uff14", "\u03c0", "\u200b", "\U0001f642", "\ufeff", "\u2212")


def _mutate_config(data, lines):
    """lines with one drawn mutation applied."""
    kind = data.draw(st.sampled_from(
        ("drop", "duplicate", "reorder", "unknown", "quote", "value", "equals", "non_ascii")
    ))
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines + [line]
    if kind == "reorder":
        lines = list(lines)
        data.draw(st.randoms(use_true_random=False)).shuffle(lines)
        return lines
    if kind == "unknown":
        return lines[:i] + [data.draw(st.sampled_from(UNKNOWN))] + lines[i:]
    if kind == "value":
        line = line.split("=", 1)[0] + "= " + data.draw(st.sampled_from(VALUES))
    else:
        at = data.draw(st.integers(0, len(line)))
        if kind == "quote" and ('"' in line) and data.draw(st.booleans()):
            at = line.index('"') if data.draw(st.booleans()) else line.rindex('"')
            line = line[:at] + line[at + 1:]  # one quote of a pair removed
        else:
            text = {"quote": st.sampled_from(('"', "'")), "equals": st.just("="),
                    "non_ascii": st.sampled_from(NON_ASCII)}[kind]
            line = line[:at] + data.draw(text) + line[at:]
    return lines[:i] + [line] + lines[i + 1:]


def _refused(cfg_text):
    """Whether parse_config refuses the text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(cfg_text)
        try:
            parse_config(path)
        except ConfigError:
            return True
    return False


def _assert_config_outcome(lines):
    cfg_text = "".join(line + "\n" for line in lines)
    refused = _refused(cfg_text)
    for command in ("solve", "analyze"):
        code, lines_out, caught, left = _run(command, cfg_text)
        _assert_one_outcome(command, code, lines_out, caught, codes=(0, 1, 2, 3))
        assert code == 0 or not left, (command, left)
        assert code == 1 or not refused, (command, code)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_config_ends_in_one_documented_outcome(data):
    lines = list(CONFIG)
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate_config(data, lines)
    _assert_config_outcome(lines)


def test_every_value_of_every_key_ends_in_one_documented_outcome():
    # a 400-digit n used to end in an OverflowError traceback
    for i, line in enumerate(CONFIG):
        for value in VALUES:
            mutated = line.split("=")[0] + "= " + value
            _assert_config_outcome(CONFIG[:i] + (mutated,) + CONFIG[i + 1:])
