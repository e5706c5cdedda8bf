"""The compiled mirror of the integrator's uniform RK4 step, projection
included (_rk4.c), and its loader, potential._native: the same bytes as the
Python rk4 on every instance, and a Python fallback with the same output
wherever it cannot be built."""

import json
import os
import shlex
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import pytest
from conftest import kernel

from riccisym import potential
from riccisym.exprfn import parse
from riccisym.potential import solve_branch
from riccisym.rotsym import RotSymTensor

SRC = Path(potential.__file__).parent.parent

TRANSC_PHI, TRANSC_PSI = "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)"

# the benchmark's nine instances (n = 2 runs no RK4), then a stiff branch,
# high n, a psi with t, a fold contact past a singular point of the surface
# and transc_n4 out to where p is frozen (ROADMAP item 1)
INSTANCES = {
    "gold_n3": (3, "8", "8 - 4*t^2", 0.5),
    "gold_n4": (4, "12", "12 - 8*t^2", 0.5),
    "gold_n5": (5, "16", "16 - 12*t^2", 0.5),
    "fold_contact_n3": (3, "1", "1 - 4*t^2", 0.46),
    "const_pos_n3_t10": (3, "1", "1", 10.0),
    "const_neg_n3_t10": (3, "-1", "-1", 10.0),
    "transc_n4": (4, TRANSC_PHI, TRANSC_PSI, 2.0),
    "trig_log_n5": (5, "2 + sin(t)^2", "2 + t*log(1+t^2)", 2.0),
    "stiff_neg_1e4": (3, "-1e4", "-1e4", 1.0),
    "const_n24": (24, "1", "1", 1.0),
    "one_plus_t": (3, "1 + t", "1 + t", 1.0),
    "psi_2_minus_t2": (3, "2", "2 - t^2", 1.3),
    "transc_n4_t10": (4, TRANSC_PHI, TRANSC_PSI, 10.0),
}


@pytest.fixture(scope="module")
def native():
    fn = potential._native()
    if fn is None:
        pytest.skip("no C compiler builds the mirror here")
    return fn


def _solve(name, step=1e-3):
    n, phi, psi, t_max = INSTANCES[name]
    _, c = solve_branch(RotSymTensor(n, parse(phi), parse(psi), t_max), step)
    return [a.tobytes() for a in (c.t, c.w, c.p, c.phi, c.psi)], c


@pytest.mark.parametrize("name", INSTANCES)
def test_the_mirror_gives_rk4s_bytes(native, monkeypatch, name):
    with kernel("python"):
        want, ref = _solve(name)
    taken = []

    def counting(grid, size, i, stop, s):
        j = native(grid, size, i, stop, s)
        taken.append((j - i) // 2)
        return j

    monkeypatch.setattr(potential, "_native", lambda: counting)
    got, c = _solve(name)
    assert got == want
    assert (c.halt_reason, c.halt_detail, c.work, c.constraint_max) == (
        ref.halt_reason, ref.halt_detail, ref.work, ref.constraint_max
    )
    # the mirror takes every uniform step, those needing a Newton iteration
    # included; rk4 takes none
    assert sum(taken) == c.work["uniform_steps"]


def test_the_mirror_hands_back_a_newton_iteration_that_does_not_converge(native, monkeypatch):
    # with no tolerance the projection needs |F| == 0, which the first step
    # of the exact gold n = 4 branch w = 2t^2 never reaches: the mirror hands
    # that step back untaken and rk4 raises, with rk4's own text
    monkeypatch.setattr(potential, "PROJECTION_TOL", 0.0)
    monkeypatch.setattr(potential, "_EPS", 0.0)
    n, phi, psi, t_max = INSTANCES["gold_n4"]
    T = RotSymTensor(n, parse(phi), parse(psi), t_max)
    calls = []

    def counting(grid, out, i, stop, s):
        j = native(grid, out, i, stop, s)
        calls.append((i, j))
        return j

    want = "surface projection did not converge at t = 0.101 (|F| = 2.776e-17)"
    for fn in (counting, None):
        monkeypatch.setattr(potential, "_native", lambda: fn)
        with pytest.raises(potential.ProjectionError) as err:
            potential.integrate_separatrix(T, (0.1, 0.02, 0.4), 1e-3, t_max)
        assert str(err.value) == want
    assert calls == [(0, 0)]


def test_the_mirror_compiles_without_warnings(native):
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = Path(potential.__file__).with_name("_rk4.c")
    flags = [*potential._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    proc = subprocess.run(
        [*compiler, *flags, str(source)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _solve_with(monkeypatch, cache, cc=None):
    """The const_pos_n3_t10 curve with _native loaded afresh from cache,
    sysconfig's CC replaced by cc if given: (the kernel, the curve bytes)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    if cc is not None:
        get = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var", lambda k: cc if k == "CC" else get(k))
    potential._native.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = potential._native()
            got, _ = _solve("const_pos_n3_t10")
    finally:
        potential._native.cache_clear()
    return fn, got


@pytest.mark.parametrize(
    "cc", [
        "/nonexistent/cc",
        f"{sys.executable} -c 'raise SystemExit(1)'",
    ],
    ids=["missing_compiler", "failing_compiler"],
)
def test_without_a_compiler_rk4_takes_every_step(monkeypatch, tmp_path, cc):
    want, _ = _solve("const_pos_n3_t10")
    fn, got = _solve_with(monkeypatch, tmp_path / "cache", cc)
    assert fn is None
    assert got == want
    assert list((tmp_path / "cache").glob("*/*")) == []  # no library, no temporary file


def test_an_unwritable_cache_gives_rk4(monkeypatch, tmp_path):
    want, _ = _solve("const_pos_n3_t10")
    (tmp_path / "file").write_text("")
    fn, got = _solve_with(monkeypatch, tmp_path / "file" / "cache")
    assert fn is None
    assert got == want


REUSE_PROBE = """
import json, subprocess, sys
from riccisym import potential
if sys.argv[1] == "reuse":
    def refuse(*args, **kwargs):
        raise AssertionError("compiler called")
    subprocess.run = refuse
print(json.dumps(potential._native() is not None))
"""


def test_a_fresh_process_reuses_the_built_library(native, tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for mode in ("build", "reuse"):
        proc = subprocess.run(
            [sys.executable, "-c", REUSE_PROBE, mode], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) is True, mode
        assert len(list(tmp_path.glob("riccisym/rk4-*.so"))) == 1
