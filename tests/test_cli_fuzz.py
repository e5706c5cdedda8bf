"""Random targets through the command line.

Every run of solve, analyze and portrait ends in a documented exit code:
silent on success, exactly one ``riccisym: code=<N> reason="..."`` line on
stderr otherwise, and never a traceback or a Python warning.  The grammar
reaches the float edge cases on purpose: underflow (1e-200), overflow
(1e999, 1e308*1e308) and the NaN of their differences.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riccisym.cli import main

ATOMS = ("0", "1", "-1", "8", "1e-200", "1e999", "1e308*1e308", "t", "t^2", "pi")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
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


def _run(command, cfg_text):
    """(exit code, stderr lines, recorded warnings) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(cfg_text + f'out = "{tmp}/fuzz"\n')
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg)])
    return code, err.getvalue().splitlines(), caught


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
        code, lines, caught = _run(command, cfg_text)
        assert code in (0, 1, 2, 3), (command, code)
        assert not caught, (command, [str(w.message) for w in caught])
        if code == 0:
            assert lines == [], (command, lines)
        else:
            assert len(lines) == 1, (command, lines)
            match = DIAGNOSTIC.fullmatch(lines[0])
            assert match and int(match.group(1)) == code, (command, lines)
