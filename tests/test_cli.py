import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riccisym import cli, pipeline, potential, reconstruct, rotsym
from riccisym import hypersurface as hs
from riccisym.cli import main, parse_config, run_single
from riccisym.exprfn import parse

GOLD_CFG = """\
# gold family instance
n = 3
phi = "8"
psi = "8 - 4*t^2"
t_max = 0.5
step = 1e-3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_parse_config_values(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", GOLD_CFG + 'out = "gold/run"\n'))
    assert cfg.n == 3
    assert cfg.t_max == 0.5
    assert cfg.out == "gold/run"
    assert cfg.phi(0.0) == 8.0
    assert abs(cfg.psi(0.5) - 7.0) < 1e-15


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "a.cfg", "n = 3\nbogus = 1\n")
    assert run_single("solve", str(path)) == 1


def test_parse_config_rejects_bad_expression(tmp_path):
    path = _write(tmp_path, "a.cfg", 'n = 3\nphi = "1 +"\npsi = "1"\nt_max = 1\n')
    assert run_single("solve", str(path)) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "key", sorted(key for key, kind in cli._KEY_KINDS.items() if kind == "float")
)
def test_parse_config_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    path = _write(tmp_path, "a.cfg", GOLD_CFG + f"{key} = {value}\nout = \"{tmp_path}/x\"\n")
    assert main(["solve", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("riccisym: code=1 ")
    assert f"{key} must be finite" in lines[0]
    assert not list(tmp_path.glob("x_*"))


@pytest.mark.parametrize("t_max, step", [(1.0, 1e-300), (1e5, 1e-3), (10.0000001, 1e-6)])
def test_parse_config_caps_the_sample_count(tmp_path, t_max, step):
    # the integrator lists t_max / step targets before its first step, so a
    # tiny step used to hang the solve while it filled memory
    text = f'n = 3\nphi = "1"\npsi = "1"\nt_max = {t_max!r}\nstep = {step!r}\n'
    with pytest.raises(cli.ConfigError, match=r"t_max / step = .* exceeds the cap of 1e\+07"):
        parse_config(_write(tmp_path, "a.cfg", text))
    text = f'n = 3\nphi = "1"\npsi = "1"\nt_max = 10.0\nstep = 1e-6\n'
    assert parse_config(_write(tmp_path, "b.cfg", text)).step == 1e-6


def test_overflow_is_one_diagnostic_line(tmp_path, capsys):
    cfg = 'n = 3\nphi = "exp(t^3)"\npsi = "exp(t^3)"\nt_max = 20\n' + f'out = "{tmp_path}/o"\n'
    path = _write(tmp_path, "o.cfg", cfg)
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("riccisym: code=1 ")
    assert "overflow in 'exp(t^3)'" in lines[0]


def test_curve_too_short_says_why(tmp_path, capsys):
    # six samples up to t_max, but the fold halts the branch after four
    cfg = 'n = 3\nphi = "1"\npsi = "1 - 4*t^2"\nt_max = 0.46\nstep = 0.11\n'
    path = _write(tmp_path, "s.cfg", cfg + f'out = "{tmp_path}/s"\n')
    assert main(["solve", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("riccisym: code=3 ")
    assert "curve too short to reconstruct a profile: 4 samples, 6 needed" in lines[0]
    assert "(halt: fold_contact, fold reached near t = 0.41" in lines[0]
    assert "step 0.11, t_max 0.46" in lines[0]


@pytest.mark.parametrize(
    "t_max, step, samples",
    [(0.5, 1e300, 2), (1e-308, 0.01, 2), (0.3, 0.5, 2), (0.5, 0.125, 5)],
)
def test_a_step_that_leaves_too_few_samples_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, t_max, step, samples
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the step was checked")

    monkeypatch.setattr(pipeline, "definiteness_check", no_work)
    cfg = f'n = 4\nphi = "12"\npsi = "12 - 8*t^2"\nt_max = {t_max!r}\nstep = {step!r}\n'
    path = _write(tmp_path, "s.cfg", cfg + f'out = "{tmp_path}/s"\n')
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=1 reason="step {step:g} leaves {samples} samples up to t_max {t_max:g}, '
        'fewer than the 6 a profile needs"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]


# (step, delta, the range delta leaves): above the step, or at the step but
# above the series range (0, 1e-2 t_max] of the seed
ABOVE_STEP = (1e-3, 2e-3, "step")
ABOVE_SERIES = (1e-2, 1e-2, "0.005")
GOLD4_TARGET = (4, "12", "12 - 8*t^2")


@pytest.mark.parametrize(
    "command, target, ranges",
    [("solve", GOLD4_TARGET, ABOVE_STEP), ("solve", (2, "1", "1"), ABOVE_STEP),
     ("analyze", GOLD4_TARGET, ABOVE_STEP), ("portrait", GOLD4_TARGET, ABOVE_STEP),
     ("solve", GOLD4_TARGET, ABOVE_SERIES), ("solve", (2, "1", "1"), ABOVE_SERIES),
     ("analyze", GOLD4_TARGET, ABOVE_SERIES), ("portrait", GOLD4_TARGET, ABOVE_SERIES),
     ("verify", GOLD4_TARGET, ABOVE_SERIES)],
    ids=["solve-n4", "solve-n2", "analyze", "portrait", "series-solve-n4", "series-solve-n2",
         "series-analyze", "series-portrait", "series-verify"],
)
def test_a_delta_above_the_step_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, target, ranges
):
    # n = 2 uses no seed offset, but validates it all the same, and verify
    # checks it before it looks for a profile
    def no_work(*args, **kwargs):
        raise AssertionError("work started before delta was checked")

    for owner, name in ((pipeline, "definiteness_check"), (potential, "saddle_report"),
                        (potential, "solve_n2")):
        monkeypatch.setattr(owner, name, no_work)
    (n, phi, psi), (step, delta, bound) = target, ranges
    cfg = f'n = {n}\nphi = "{phi}"\npsi = "{psi}"\nt_max = 0.5\nstep = {step}\ndelta = {delta}\n'
    path = _write(tmp_path, "d.cfg", cfg + f'out = "{tmp_path}/d"\n')
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=1 reason="delta must lie in (0, {bound}]"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["d.cfg"]


def test_solve_gold_writes_outputs(tmp_path, capsys):
    path = _write(tmp_path, "gold.cfg", GOLD_CFG + f'out = "{tmp_path}/gold"\n')
    code = main(["solve", "--config", str(path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "gold_solution.csv")
    assert header == ["t", "w", "p", "r", "rp", "f", "fp", "res_rr", "res_tt"]
    last = dict(zip(header, map(float, rows[-1])))
    assert abs(last["t"] - 0.5) < 1e-12
    assert abs(last["w"] - 0.5) < 1e-6
    assert abs(last["r"] - 0.5) < 1e-6
    assert abs(last["f"] + 0.25) < 1e-6
    report = (tmp_path / "gold_report.txt").read_text()
    assert "lam1 = 16" in report
    assert "halt: t_end" in report
    # re-reader spot check: emitted rows satisfy the profile invariants
    first = dict(zip(header, map(float, rows[0])))
    assert first["t"] == 0.0 and first["w"] == 0.0 and first["r"] == 0.0
    assert first["f"] == 0.0 and first["rp"] == 1.0
    ts = np.array([float(row[0]) for row in rows])
    rps = np.array([float(row[4]) for row in rows])
    assert np.all(np.diff(ts) > 0)
    assert np.all(rps > 0)


def test_first_power_solves_like_its_base(tmp_path):
    # t^1 used to raise "zero base with negative exponent" at t = 0 (code=1)
    for name, phi in (("pow1", "1 + 0*t^1"), ("const", "1")):
        cfg = f'n = 3\nphi = "{phi}"\npsi = "1"\nt_max = 1\nout = "{tmp_path}/{name}"\n'
        assert main(["solve", "--config", str(_write(tmp_path, f"{name}.cfg", cfg))]) == 0
    csv = [(tmp_path / f"{name}_solution.csv").read_bytes() for name in ("pow1", "const")]
    assert csv[0] == csv[1]


def test_solve_singular_exit_code(tmp_path, capsys):
    cfg = 'n = 3\nphi = "t"\npsi = "t"\nt_max = 1\n' + f'out = "{tmp_path}/s"\n'
    path = _write(tmp_path, "sing.cfg", cfg)
    code = main(["solve", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "code=2" in err
    assert "singular tensor at t = 0" in err


def test_solve_n2_quadrature(tmp_path):
    cfg = f'n = 2\nphi = "1"\npsi = "1"\nt_max = 1\nout = "{tmp_path}/n2"\n'
    path = _write(tmp_path, "n2.cfg", cfg)
    assert main(["solve", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "n2_solution.csv")
    last = dict(zip(header, map(float, rows[-1])))
    assert abs(last["t"] - 1.0) < 1e-12
    assert abs(last["w"] - 0.5) < 1e-12


def test_solve_deterministic_output(tmp_path):
    p1 = _write(tmp_path, "a.cfg", GOLD_CFG + f'out = "{tmp_path}/one"\n')
    p2 = _write(tmp_path, "b.cfg", GOLD_CFG + f'out = "{tmp_path}/two"\n')
    assert main(["solve", "--config", str(p1)]) == 0
    assert main(["solve", "--config", str(p2)]) == 0
    assert (tmp_path / "one_solution.csv").read_bytes() == (
        tmp_path / "two_solution.csv"
    ).read_bytes()


def test_analyze_outputs(tmp_path):
    cfg = 'n = 3\nphi = "1"\npsi = "1"\nt_max = 2\n' + f'out = "{tmp_path}/an"\n'
    path = _write(tmp_path, "an.cfg", cfg)
    assert main(["analyze", "--config", str(path)]) == 0
    text = (tmp_path / "an_analysis.txt").read_text()
    assert "saddle eigenvalues: lam1 = 2, lam2 = -1" in text
    assert "verdict: global_continuation_expected" in text
    header, rows = _read_csv(tmp_path / "an_fold.csv")
    assert header == ["t", "w_lower", "w_upper"]
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 2.0


def test_portrait_output(tmp_path):
    path = _write(tmp_path, "p.cfg", GOLD_CFG + f'out = "{tmp_path}/p"\n')
    assert main(["portrait", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "p_portrait.csv")
    assert header == ["branch", "t", "w", "p", "F"]
    branches = {row[0] for row in rows}
    assert branches == {"separatrix", "fold_lower", "fold_upper"}
    # every emitted row sits on the surface
    for row in rows:
        assert abs(float(row[4])) < 1e-9


GOLD4_CFG = 'n = 4\nphi = "12"\npsi = "12 - 8*t^2"\nt_max = 0.5\n'


def test_a_removed_key_is_refused_like_any_unknown_key(tmp_path, capsys):
    # constraint_tol was the projection tolerance, now potential.PROJECTION_TOL
    path = _write(tmp_path, "c.cfg", GOLD4_CFG + f'constraint_tol = 1e-6\nout = "{tmp_path}/c"\n')
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=1 reason="{path}:5: unknown key \'constraint_tol\'"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("\nKeys: ", 1)[1].split(".  ", 1)[0]
    names = [name for group in re.findall(r"`([^`]+)`", sentence) for name in re.split(r",\s+", group)]
    keys = [name for name in names if name not in cli.COMMANDS]
    assert sorted(keys) == sorted(cli._KEY_KINDS)


def test_solve_computes_ricci_residuals_once(tmp_path, monkeypatch):
    path = _write(tmp_path, "g4.cfg", GOLD4_CFG + f'out = "{tmp_path}/g4"\n')
    cli_jets = []
    monkeypatch.setattr(cli, "eval_jet2", lambda e, t: cli_jets.append(t))
    forward_calls = []
    forward = rotsym.ricci_forward_samples

    def counting(profile):
        forward_calls.append(profile)
        return forward(profile)

    for module in (cli, reconstruct, rotsym):
        if getattr(module, "ricci_forward_samples", None) is forward:
            monkeypatch.setattr(module, "ricci_forward_samples", counting)
    assert main(["solve", "--config", str(path)]) == 0
    assert cli_jets == []
    assert len(forward_calls) == 1

    header, rows = _read_csv(tmp_path / "g4_solution.csv")
    cols = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}
    T = rotsym.RotSymTensor(4, parse("12"), parse("12 - 8*t^2"), 0.5)
    sol = pipeline.solve(T)
    window = (cols["t"] >= 0.05 * 0.5) & (cols["t"] <= 0.5)
    assert (cols["res_rr"][window].max(), cols["res_tt"][window].max()) == sol.recon.ricci_residuals


def test_hypersurface_output(tmp_path):
    cfg = (
        'n = 3\nh = "t"\nr_max = 1\nsamples = 11\n' + f'out = "{tmp_path}/hy"\n'
    )
    path = _write(tmp_path, "h.cfg", cfg)
    assert main(["hypersurface", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "hy_hypersurface.csv")
    assert header == ["r", "f", "ric_rr", "ric_tt_unit", "h1", "h2", "scalar"]
    last = dict(zip(header, map(float, rows[-1])))
    assert abs(last["f"] - 5.0) < 1e-12
    assert abs(last["ric_rr"] - 1.6) < 1e-12
    assert abs(last["scalar"] - 2.24) < 1e-12


@pytest.mark.parametrize(
    "h, r_max, r", [("t^2", 1e160, "1e+158"), ("t^2", 1e308, "1e+306"), ("(1e-200)^-1*t", 1, "0")]
)
def test_a_hypersurface_cell_past_the_float_range_is_one_code_3_line(
    tmp_path, capsys, recwarn, h, r_max, r
):
    # r^2 overflows past r = 1.3e154 and used to leave inf and NaN rows after
    # numpy RuntimeWarnings; h' = 1e200 used to raise OverflowError in f
    cfg = f'n = 3\nh = "{h}"\nr_max = {r_max}\nout = "{tmp_path}/hy"\n'
    assert main(["hypersurface", "--config", str(_write(tmp_path, "h.cfg", cfg))]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=3 reason="f not finite at grid point r = {r}"'
    ]
    assert not recwarn.list
    assert [p.name for p in tmp_path.iterdir()] == ["h.cfg"]


def test_verify_roundtrip(tmp_path):
    src = _write(tmp_path, "g.cfg", GOLD_CFG + f'out = "{tmp_path}/g"\n')
    assert main(["solve", "--config", str(src)]) == 0
    ver = _write(
        tmp_path,
        "v.cfg",
        GOLD_CFG
        + f'out = "{tmp_path}/v"\nprofile = "{tmp_path}/g_solution.csv"\n',
    )
    assert main(["verify", "--config", str(ver)]) == 0
    text = (tmp_path / "v_verify.txt").read_text()
    assert "residual radial" in text


def test_verify_detects_bad_profile(tmp_path, capsys):
    src = _write(tmp_path, "g.cfg", GOLD_CFG + f'out = "{tmp_path}/g"\n')
    assert main(["solve", "--config", str(src)]) == 0
    # verify the gold profile against the wrong tensor
    wrong = GOLD_CFG.replace('phi = "8"', 'phi = "8 + t^2"').replace(
        'psi = "8 - 4*t^2"', 'psi = "8 + t^2"'
    )
    ver = _write(
        tmp_path,
        "v.cfg",
        wrong + f'out = "{tmp_path}/v"\nprofile = "{tmp_path}/g_solution.csv"\n',
    )
    assert main(["verify", "--config", str(ver)]) == 3
    assert "code=3" in capsys.readouterr().err


def test_missing_config_argument(capsys):
    assert main(["solve"]) == 1
    assert "code=1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "the following arguments are required: command"),
        (["solve", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["solve"], "--config is required"),
        (["solve", "--config", "a.cfg", "--sweep", "configs"], "unrecognized arguments: --sweep"),
    ],
    ids=["no command", "unknown option", "unknown command", "no config", "removed sweep"],
)
def test_a_usage_error_is_one_code_1_line(capsys, argv, reason):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f'riccisym: code=1 reason="{reason}')


NO_SUCH_FILE = "[Errno 2] No such file or directory"


@pytest.mark.parametrize(
    "command, config, reason",
    [
        ("solve", None, f"cannot read config missing.cfg: {NO_SUCH_FILE}: 'missing.cfg'"),
        ("solve", "n = 3\nphi\n", "c.cfg:2: expected 'key = value'"),
        ("solve", GOLD_CFG + "delta = 2e-3\n", "delta must lie in (0, step]"),
        ("verify", GOLD_CFG, "command 'verify' requires config key 'profile'"),
        ("verify", GOLD_CFG + 'profile = "nope.csv"\n',
         f"cannot read profile CSV nope.csv: {NO_SUCH_FILE}: 'nope.csv'"),
        ("solve", GOLD_CFG.replace("n = 3\n", ""), "command 'solve' requires config key 'n'"),
        ("solve", GOLD_CFG.replace("t_max = 0.5\n", ""),
         "command 'solve' requires config key 't_max'"),
        ("hypersurface", GOLD_CFG + 'h = "t"\n', "command 'hypersurface' requires config key 'r_max'"),
        # an exponent past the float range reads as inf, no integer
        ("solve", GOLD_CFG.replace('"8"', '"t^1e400"'),
         "c.cfg:3: phi: exponent must be an integer, got '1e400' (at position 2)"),
        ("hypersurface", GOLD_CFG + 'h = "t^-1e400"\nr_max = 1\n',
         "c.cfg:7: h: exponent must be an integer, got '1e400' (at position 3)"),
    ],
    ids=["unreadable config", "no equals sign", "delta above step", "verify without profile",
         "unreadable profile", "no n", "no t_max", "no r_max", "exponent overflow",
         "negative exponent overflow"],
)
def test_a_config_error_is_one_exact_code_1_line(tmp_path, capsys, monkeypatch, command, config, reason):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        _write(tmp_path, "c.cfg", config)
    assert main([command, "--config", "missing.cfg" if config is None else "c.cfg"]) == 1
    assert capsys.readouterr().err.splitlines() == [f'riccisym: code=1 reason="{reason}"']
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["c.cfg"])


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "key, command, reason",
    [("n", "solve", "n must be >= 2"), ("t_max", "solve", "t_max must be positive"),
     ("r_max", "hypersurface", "r_max must be positive")],
)
def test_a_key_out_of_range_is_not_reported_missing(tmp_path, capsys, key, command, reason, value):
    # 0 is no unset value: a key the config sets is present, and its range
    # check reports it
    cfg = GOLD_CFG + f'h = "t"\n{key} = {value}\nout = "{tmp_path}/x"\n'
    assert main([command, "--config", str(_write(tmp_path, "c.cfg", cfg))]) == 1
    assert capsys.readouterr().err.splitlines() == [f'riccisym: code=1 reason="{reason}"']


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: riccisym")


@pytest.mark.parametrize(
    "command, n",
    [("solve", 3), ("analyze", 3), ("portrait", 3), ("solve", 2)],
    ids=["solve", "analyze", "portrait", "solve-n2"],
)
def test_degenerate_saddle_is_one_code_2_line_under_every_command(
    tmp_path, capsys, command, n
):
    # phi(0) psi(0) = 1e-400 underflows to 0
    cfg = f'n = {n}\nphi = "1e-200"\npsi = "1e-200"\nt_max = 1\nout = "{tmp_path}/d"\n'
    path = _write(tmp_path, "d.cfg", cfg)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ['riccisym: code=2 reason="phi(0) psi(0) = 0 <= 0"']


@pytest.mark.parametrize("command", ["solve", "analyze", "portrait"])
@pytest.mark.parametrize("target", ["1e999 - 1e999", "1 + t*1e308*1e308"])
def test_non_finite_target_is_one_code_2_line_under_every_command(
    tmp_path, capsys, command, target
):
    cfg = f'n = 3\nphi = "{target}"\npsi = "{target}"\nt_max = 1\nout = "{tmp_path}/x"\n'
    path = _write(tmp_path, "x.cfg", cfg)
    assert main([command, "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccisym: code=2 ")
    assert "not finite" in lines[0]


OVERFLOW_CFG = 'n = 3\nphi = "{a}"\npsi = "{a}"\nt_max = 1\nout = "{out}"\n'


def test_overflow_before_t_lo_is_one_code_3_line(tmp_path, capsys):
    path = _write(tmp_path, "o.cfg", OVERFLOW_CFG.format(a="1e9", out=f"{tmp_path}/o"))
    assert main(["solve", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccisym: code=3 ")
    assert "halt: overflow" in lines[0]


def test_overflow_is_not_reported_as_a_fold(tmp_path, capsys):
    # its Ricci residuals reach 2.3e297, so only a residual_tol above them
    # lets solve write the report
    cfg = OVERFLOW_CFG.format(a="1e6", out=f"{tmp_path}/o") + "residual_tol = 1e300\n"
    path = _write(tmp_path, "o.cfg", cfg)
    assert main(["solve", "--config", str(path)]) == 0
    report = (tmp_path / "o_report.txt").read_text()
    assert "halt: overflow" in report
    assert "fold_contact" not in report + capsys.readouterr().err


def test_t_lo_beyond_t_max_stays_a_config_error_after_an_early_halt(tmp_path, capsys):
    cfg = OVERFLOW_CFG.format(a="1e9", out=f"{tmp_path}/o") + "t_lo = 2\n"
    assert main(["solve", "--config", str(_write(tmp_path, "o.cfg", cfg))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccisym: code=1 ")


# the targets where solve once exited 0 on a profile that verify of its own
# file rejects, at the default residual_tol of 1e-5 (-1e6 at t_max 0.1, not
# 1, where its 7e5 halvings take seconds; the fold contact of
# PINNED_OUTPUTS), and one that both pass
AGREEMENT_CFGS = {
    f"const_{a}": f'n = 3\nphi = "{a}"\npsi = "{a}"\nt_max = {t_max}\n'
    for a, t_max in (("-1e3", 1), ("-1e4", 1), ("-1e5", 1), ("-1e6", 0.1), ("1", 10))
} | {
    "transc_n4_t10": 'n = 4\nphi = "3*exp(-t^2)"\npsi = "3*cos(t)^2 + t^4/(1+t^2)"\nt_max = 10\n',
    "fold_contact_n3": 'n = 3\nphi = "1"\npsi = "1 - 4*t^2"\nt_max = 0.46\n',
}


@pytest.mark.parametrize("cfg", AGREEMENT_CFGS.values(), ids=AGREEMENT_CFGS)
def test_solve_fails_where_verify_of_its_profile_fails(tmp_path, capsys, cfg):
    # verify reads the profile solve writes once residual_tol is raised past
    # its residuals; at the default both exit with one code, and a failure
    # writes one stderr line and, for solve, no file
    run = cfg + f'out = "{tmp_path}/a"\n'
    solved = main(["solve", "--config", str(_write(tmp_path, "s.cfg", run))])
    solve_err = capsys.readouterr().err.splitlines()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["a_report.txt", "a_solution.csv", "s.cfg"] if solved == 0 else ["s.cfg"]
    )
    loose = cfg + f'residual_tol = 1e300\nout = "{tmp_path}/b"\n'
    assert main(["solve", "--config", str(_write(tmp_path, "l.cfg", loose))]) == 0
    assert capsys.readouterr().err == ""
    check = run + f'profile = "{tmp_path}/b_solution.csv"\n'
    verified = main(["verify", "--config", str(_write(tmp_path, "v.cfg", check))])
    verify_err = capsys.readouterr().err.splitlines()
    assert solved == verified
    assert len(solve_err) == len(verify_err) == (solved != 0)
    if solved:  # one failure line, naming the component, its t and the bound
        for err in (solve_err[0], verify_err[0]):
            assert re.fullmatch(
                r'riccisym: code=3 reason="ricci residuals exceed tolerance: (radial|tangential) '
                r'\S+ at t = \S+ > residual_tol 1\.000e-05"', err
            ), err


def test_a_nan_residual_fails_solve(tmp_path, capsys, monkeypatch):
    # NaN compares false with the bound, so `not worst <= tol` fails it, and
    # the line names it, wherever the other residual lies
    def nan_tangential(profile, mask, phis, psis):
        res_rr, res_tt = ricci_defects(profile, mask, phis, psis)
        return res_rr, np.where(profile.grid[mask] > 0.25, math.nan, res_tt)

    ricci_defects = reconstruct.ricci_defects
    monkeypatch.setattr(reconstruct, "ricci_defects", nan_tangential)
    path = _write(tmp_path, "g.cfg", GOLD_CFG + f'out = "{tmp_path}/g"\n')
    assert main(["solve", "--config", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        'riccisym: code=3 reason="ricci residuals exceed tolerance: tangential nan at t = 0.251'
        ' > residual_tol 1.000e-05"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["g.cfg"]


LOG_CFG = 'n = 3\nphi = "1"\npsi = "1 + log(1 - t)"\nt_max = 2\n'


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_sign_change_before_a_domain_error_wins(tmp_path, capsys, command):
    # psi changes sign at t = 1 - 1/e, before log(1 - t) leaves its domain at t = 1
    path = _write(tmp_path, "l.cfg", LOG_CFG + f'out = "{tmp_path}/l"\n')
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ['riccisym: code=2 reason="singular tensor at t = 0.6321205588"']


def test_failed_portrait_leaves_no_csv(tmp_path, capsys):
    # portrait skips the definiteness scan and fails on the fold rows at t = 1
    path = _write(tmp_path, "l.cfg", LOG_CFG + f'out = "{tmp_path}/l"\n')
    assert main(["portrait", "--config", str(path)]) == 1
    assert "log of non-positive value" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["l.cfg"]


def test_failed_analyze_leaves_no_report(tmp_path, capsys):
    # the branch and the continuation check pass; the fold rows meet 0/0 at t = 0.37
    cfg = 'n = 3\nphi = "1"\npsi = "1 + 0/(t - 0.37)"\nt_max = 1\nstep = 7e-3\n'
    path = _write(tmp_path, "z.cfg", cfg + f'out = "{tmp_path}/z"\n')
    assert main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        'riccisym: code=1 reason="division by zero in \'0/(t - 0.37)\' at t=0.37"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["z.cfg"]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_an_unwritable_out_is_one_code_1_line(tmp_path, capsys, command):
    # the parent of out is a regular file, so creating the output directory
    # fails for every user, root included
    profile = tmp_path / "g_solution.csv"
    cfg = GOLD_CFG + f'h = "t^2"\nr_max = 1\nprofile = "{profile}"\n'
    path = _write(tmp_path, "c.cfg", cfg + f'out = "{tmp_path}/g"\n')
    assert main(["solve", "--config", str(path)]) == 0
    capsys.readouterr()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, "--config", str(path), "--out", str(path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f'riccisym: code=1 reason="cannot write output: [Errno 17] File exists: \'{path}\'"'
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["analyze", "portrait"])
def test_n2_is_refused_by_the_fold_commands_before_any_work(tmp_path, capsys, command):
    # n = 2 is refused before the samples check, which samples = 1 would fail
    cfg = f'n = 2\nphi = "1"\npsi = "1"\nt_max = 1\nsamples = 1\nout = "{tmp_path}/n2"\n'
    assert main([command, "--config", str(_write(tmp_path, "n2.cfg", cfg))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=1 reason="{command} needs n > 2 (n = 2 has no fold structure)"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["n2.cfg"]


@pytest.mark.parametrize("samples", [-3, 0, 1, 10**9])
@pytest.mark.parametrize("command", ["analyze", "portrait", "hypersurface"])
def test_fewer_than_two_samples_is_a_config_error(tmp_path, capsys, monkeypatch, command, samples):
    # also too many: 10^9 would be 8 GB linspaces, or 10^9 rows in Python
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for owner, name in ((cli, "branch"), (potential, "solve_branch"), (cli.hs, "GraphEmbedding")):
        monkeypatch.setattr(owner, name, no_work)
    cfg = GOLD_CFG + f'h = "t"\nr_max = 1\nsamples = {samples}\nout = "{tmp_path}/s"\n'
    assert main([command, "--config", str(_write(tmp_path, "s.cfg", cfg))]) == 1
    err = capsys.readouterr().err
    bound = ">= 2" if samples < 2 else f"<= {potential.MAX_SAMPLES}"
    assert err.splitlines() == [f'riccisym: code=1 reason="samples must be {bound}, got {samples}"']
    assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]


@pytest.mark.parametrize("via", ["config", "flag"])
@pytest.mark.parametrize("out", ["", "."])
@pytest.mark.parametrize("command", ["solve", "hypersurface"])
def test_out_without_a_file_name_is_a_config_error(tmp_path, capsys, monkeypatch, command, out, via):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for owner, name in ((cli, "solve"), (cli.hs, "GraphEmbedding")):
        monkeypatch.setattr(owner, name, no_work)
    cfg = GOLD_CFG + 'h = "t"\nr_max = 1\n' + (f'out = "{out}"\n' if via == "config" else "")
    argv = [command, "--config", str(_write(tmp_path, "o.cfg", cfg))]
    assert main(argv + (["--out", out] if via == "flag" else [])) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f'riccisym: code=1 reason="out must end in a file name, got {out!r}"']
    assert [p.name for p in tmp_path.iterdir()] == ["o.cfg"]


@pytest.mark.parametrize(
    "command, fault", [("solve", ""), ("solve", "step = 0\n"), ("hypersurface", ""),
                       ("hypersurface", "samples = 1\n")],
)
def test_dimension_1_is_one_code_1_line_before_any_other_fault(tmp_path, capsys, command, fault):
    # n is checked first, so a second fault in the config does not change the line
    cfg = GOLD_CFG.replace("n = 3", "n = 1") + f'h = "t"\nr_max = 1\n{fault}out = "{tmp_path}/x"\n'
    assert main([command, "--config", str(_write(tmp_path, "c.cfg", cfg))]) == 1
    assert capsys.readouterr().err.splitlines() == ['riccisym: code=1 reason="n must be >= 2"']
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


# sha256 of every file the five commands write (in COMMANDS order, so verify
# reads the solution just written), recorded before the commands shared
# pipeline.branch, except p_report.txt, which gained its "integration work"
# line later and whose scalar_rows count fell (39 to 0 and 133 to 94) when the
# rows of the capped sub-steps came from one sample, and 94 to 93 when a halt
# below the least sub-step read its row from the block's memo, and the
# p_hypersurface.csv files, whose scalar column moved by up to 5.1e-16,
# relative, when it came from the closed-form frame trace in place of an
# einsum, and again in 45 and 42 of 707 cells, by at most 1.65 eps times
# the column's largest |value| (7.1e-15), when the table came from one
# array formula, with products for r**3 and h'**2 and f sqrt(f) for f**1.5,
# and p_analysis.txt and p_report.txt, which lost the |grad F| scan's margin
# and report the least relative fold gap along the curve in place of the
# fold distance at the seed, and again when both came from one writer of
# the branch's lines, the analysis being the report less its residual
# lines, which moved to the end, and again when the fold-contact notes that
# restated its fold root and its halt were dropped, and the fold-contact
# p_verify.txt, whose tolerance line reads the residual_tol its config sets
# since solve applies that gate too; hypersurface reads h and r_max only
PINNED_OUTPUTS = {
    'n = 4\nphi = "12"\npsi = "12 - 8*t^2"\nt_max = 0.5\n': (
        {"solve": 0, "analyze": 0, "verify": 0, "hypersurface": 0, "portrait": 0},
        {
            "p_analysis.txt": "fe9be2bd2e1ce7501aabbfad42d97d30daa6aa05a7f12bc400eaec18032af9a7",
            "p_fold.csv": "03a9d0a5224b30f85f415eeb66a52063e3c7089897b983b61ce9fea761b88886",
            "p_hypersurface.csv": "ebaaa51d5f17843a3e0597ac45893a275f03633f22e2ad8ec96096657c28c72e",
            "p_portrait.csv": "e68a52a05a1e983db3a7dc441ef60b0933f679192966fc78ccd8c434e0d688ae",
            "p_report.txt": "cfb76df482e3500f681de5007d494bc8bf1e6e648c894cd075a4a3543d82f7b8",
            "p_solution.csv": "1874d88e62d95476fbd920959441aa5626d94c71fdba6d2c68b534bbc845c021",
            "p_verify.txt": "835a64b13110df6ff6856abb6224e926cb0bea4f1d9214a6f89ba94c84262be3",
        },
    ),
    # fold contact: the residuals reach 8.7e-3 near the fold, so solve and
    # verify pass a residual_tol of 1e-2 and exit 3 at the default 1e-5
    'n = 3\nphi = "1"\npsi = "1 - 4*t^2"\nt_max = 0.46\nresidual_tol = 1e-2\n': (
        {"solve": 0, "analyze": 0, "verify": 0, "hypersurface": 0, "portrait": 0},
        {
            "p_analysis.txt": "75b912d24e9e77d72555f9ac23b33e1e76e2e27479478708dded145d900db8a1",
            "p_fold.csv": "372d01574a6a4eee185c7f48b1dcd9d4f7a001ec102ade2d84463b07b8d31949",
            "p_hypersurface.csv": "46cb35b2b544957bfc13faf04c39cc40b20c378de548106569b710dd9e0d462b",
            "p_portrait.csv": "ab4396cb4de81b66506d8bab5d16d4c2b8b77e57627ddde8d2b45f0ba1ddb8e1",
            "p_report.txt": "9193bd3d997c63f7558571ff85f2b5abaa24ae6db654470837389551b3bba15e",
            "p_solution.csv": "9ab39c51138a32fdaaf0d53894409023e8585d7cb7c5febb5a2e2287ff37689b",
            "p_verify.txt": "8f927a04542faf2b66900b26036ee07ee32d065a61f922ebae0c96dec470c342",
        },
    ),
}


@pytest.mark.parametrize("target", PINNED_OUTPUTS, ids=["gold_n4", "fold_contact_n3"])
def test_command_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, target):
    monkeypatch.chdir(tmp_path)  # relative paths, so the verify report is the same anywhere
    extra = 'h = "t^2"\nr_max = 1\nout = "p"\nprofile = "p_solution.csv"\n'
    _write(tmp_path, "p.cfg", target + extra)
    codes = {command: main([command, "--config", "p.cfg"]) for command in cli.COMMANDS}
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("p_*"))
    }
    assert (codes, digests) == PINNED_OUTPUTS[target]


@pytest.mark.parametrize("target", PINNED_OUTPUTS, ids=["gold_n4", "fold_contact_n3"])
def test_analysis_is_the_branch_record_of_the_report(tmp_path, target):
    path = _write(tmp_path, "p.cfg", target + f'out = "{tmp_path}/p"\n')
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["analyze", "--config", str(path)]) == 0
    report = (tmp_path / "p_report.txt").read_text().splitlines()
    analysis = (tmp_path / "p_analysis.txt").read_text().splitlines()
    assert report[:-3] == analysis
    assert [line.partition(":")[0] for line in report[-3:]] == [
        "residual (n-1) w' r' - phi r ", "residual (n-1) w' f' + w phi ", "ricci residuals"
    ]


@pytest.mark.parametrize("command, blocked", [("solve", "p_report.txt"), ("analyze", "p_fold.csv")])
def test_an_output_that_cannot_be_placed_leaves_no_file(tmp_path, monkeypatch, capsys, command,
                                                        blocked):
    # a directory at the second output: the first is renamed into place,
    # then removed when the second rename fails
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "p.cfg", GOLD4_CFG + 'out = "p"\n')
    (tmp_path / blocked).mkdir()
    assert main([command, "--config", "p.cfg"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"riccisym: code=1 reason=\"cannot write output: [Errno 21] Is a directory: "
        f"'{blocked}.tmp' -> '{blocked}'\""
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["p.cfg", blocked])


def test_write_csv_replaces_the_file_only_on_success(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("old\n")

    def blocks():
        yield (np.array([1.0]), np.array([2.0]))
        raise RuntimeError("rows failed")

    with pytest.raises(RuntimeError, match="rows failed"):
        cli.write_csv(path, ("a", "b"), blocks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    cli.write_csv(path, ("a", "b"), [(np.array([1.0]), np.array([2.0]))])
    assert path.read_text() == "a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_analyze_classifies_the_saddle_once(tmp_path, monkeypatch):
    path = _write(tmp_path, "g4.cfg", GOLD4_CFG + f'out = "{tmp_path}/g4"\n')
    calls = []
    saddle_report = potential.saddle_report

    def counting(T):
        calls.append(T)
        return saddle_report(T)

    monkeypatch.setattr(potential, "saddle_report", counting)
    assert main(["analyze", "--config", str(path)]) == 0
    assert len(calls) == 1


def _reference_csv(header, rows) -> bytes:
    """The CSV bytes of one format(float(v), '.17g') call per non-str cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "n, phi, psi, t_max",
    # 8.191 gives 8,192 rows, eight full chunks
    [(4, "12", "12 - 8*t^2", 0.5), (3, "-1", "-1", 10.0), (3, "-1", "-1", 8.191)],
)
def test_write_csv_writes_the_reference_bytes(tmp_path, n, phi, psi, t_max):
    sol = pipeline.solve(rotsym.RotSymTensor(n, parse(phi), parse(psi), t_max))
    recon, profile = sol.recon, sol.recon.profile
    columns = (
        profile.grid, recon.w, recon.p, profile.r, profile.rp, profile.f, profile.fp,
        recon.res_rr, recon.res_tt,
    )
    path = tmp_path / "s.csv"
    cli.write_csv(path, cli.SOLUTION_HEADER, [cli._solution_columns(sol)])
    assert path.read_bytes() == _reference_csv(cli.SOLUTION_HEADER, zip(*columns))


def test_write_csv_formats_edge_values_like_format_17g(tmp_path):
    header = ("name", "a", "b", "c", "d", "e", "f", "g")
    rows = [
        ("zero", -0.0, math.inf, -math.inf, math.nan, 5e-324, 2**60, sys.float_info.max),
        ("numpy", np.float64(0.1), np.float64(-1e-300), np.float64(np.nan), 1, -(2**53 + 1),
         np.float64(1e22), 123456789.123456789),
        ("100%s", 0.0, -5e-324, 1e16, 2.5, np.float64(-0.0), 1e-7, -sys.float_info.max),
    ]
    path = tmp_path / "edge.csv"
    cli.write_csv(path, header, [_columns(rows)])
    assert path.read_bytes() == _reference_csv(header, rows)
    assert path.read_text().splitlines()[1] == (
        "zero,-0,inf,-inf,nan,4.9406564584124654e-324,1.152921504606847e+18,"
        "1.7976931348623157e+308"
    )


def test_write_csv_writes_the_header_of_an_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    cli.write_csv(path, ("a", "b"), [(np.empty(0), np.empty(0))])
    assert path.read_text() == "a,b\n"


def _columns(rows):
    """The columns of rows: a str column as an 'S' label column, any other as float64."""
    return [np.array(col, dtype="S" if isinstance(col[0], str) else np.float64)
            for col in zip(*rows)]


def _write_and_compare(path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    cli.write_csv(path, header, [columns])
    cells = [c.astype(str).tolist() if c.dtype.kind == "S" else c.tolist() for c in columns]
    assert path.read_bytes() == _reference_csv(header, zip(*cells))


# every power of ten the kernel's table spans and its two neighbours; ties;
# two doubles x whose x * 10**(16 - X) lies 2.8e-17 and 2.2e-16 off a half,
# closer than the kernel's product resolves, so '%.16e' must round them;
# the edges of 17 digits and of the float range
POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])
EDGES = np.concatenate([
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf),
    [1000000000000000.25, 1000000000000000.75, 4.974148370910348e-09, 2.2422607587866907e-07,
     2.0**53 + 1, 2.0**53 - 1, 2.0**53 + 2, 9.999999999999999e16, 1e16, 1e17, 5e-324,
     sys.float_info.max, -sys.float_info.max],
])


@pytest.mark.parametrize("width", [1, 3])
def test_write_csv_formats_powers_of_ten_and_ties_like_format_17g(tmp_path, width):
    # one column crosses the chunk edge
    x = np.concatenate([EDGES, -EDGES])
    x = x[: x.size // width * width].reshape(-1, width)
    assert width > 1 or x.shape[0] > cli.CHUNK_ROWS
    _write_and_compare(tmp_path / "edges.csv", list(x.T))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 3000),
    width=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    label_at=st.none() | st.integers(0, 9),
    labels=st.lists(st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=12),
                    min_size=1, max_size=4),
    data=st.data(),
)
def test_write_csv_formats_any_float64_bits_like_format_17g(
    tmp_path_factory, rows, width, seed, label_at, labels, data
):
    # raw bit patterns: NaN payloads, subnormals, +-0 and +-inf among them
    drawn = data.draw(hnp.arrays(np.uint64, (rows, width), elements=st.integers(0, 2**64 - 1)))
    rng = np.random.default_rng(seed)
    noise = rng.integers(0, 2**64, (rows, width), dtype=np.uint64)
    x = np.where(rng.random((rows, width)) < 0.5, noise, drawn).view(np.float64)
    columns = list(x.T)
    if label_at is not None:
        names = np.array(labels, dtype="S")
        columns.insert(min(label_at, width), names[rng.integers(len(names), size=rows)])
    _write_and_compare(tmp_path_factory.mktemp("bits") / "bits.csv", columns)


@pytest.fixture(scope="module")
def long_solution(tmp_path_factory):
    """A 100,001-row solution and its CSV."""
    sol = pipeline.solve(rotsym.RotSymTensor(3, parse("1"), parse("1"), 1.0), step=1e-5)
    assert sol.recon.profile.grid.size == 100_001
    path = tmp_path_factory.mktemp("long") / "s.csv"
    cli.write_csv(path, cli.SOLUTION_HEADER, [cli._solution_columns(sol)])
    return sol, path


def test_solution_csv_write_memory_is_bounded_per_row(tmp_path, long_solution):
    # one Python float per cell of the whole table would take 288 bytes a row
    sol, _ = long_solution
    path = tmp_path / "s.csv"
    columns = cli._solution_columns(sol)
    _, peak = traced_peak(lambda: cli.write_csv(path, cli.SOLUTION_HEADER, [columns]))
    assert peak <= 64 * sol.recon.profile.grid.size


def test_solution_csv_read_memory_is_bounded_per_row(long_solution):
    # the six parsed float64 columns take 48 bytes a row
    sol, path = long_solution
    data, peak = traced_peak(lambda: cli._read_solution_csv(path))
    assert data["r"].tobytes() == sol.recon.profile.r.tobytes()
    assert peak <= 64 * sol.recon.profile.grid.size


@pytest.mark.parametrize(
    "n, phi, psi, t_max",
    [(3, "-1", "-1", 10.0), (4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", 2.0)],
)
def test_portrait_F_is_the_surface_value_of_each_row(tmp_path, n, phi, psi, t_max):
    cfg = f'n = {n}\nphi = "{phi}"\npsi = "{psi}"\nt_max = {t_max}\nout = "{tmp_path}/p"\n'
    assert main(["portrait", "--config", str(_write(tmp_path, "p.cfg", cfg))]) == 0
    _, rows = _read_csv(tmp_path / "p_portrait.csv")
    T = rotsym.RotSymTensor(n, parse(phi), parse(psi), t_max)
    assert {row[0] for row in rows} == {"separatrix", "fold_lower", "fold_upper"}
    for row in rows:
        t, w, p, F = map(float, row[1:])
        assert F == potential.surface_eval(T, t, w, p)[0], row


def test_portrait_samples_the_target_once_at_the_fold_abscissae(tmp_path, monkeypatch):
    # the separatrix rows take phi and psi from the curve, and the fold rows
    # from one sample of both at the 101 `samples` abscissae
    calls = []

    def counting(ts, *exprs, real=cli.sample):
        calls.append((len(ts), len(exprs)))
        return real(ts, *exprs)

    monkeypatch.setattr(cli, "sample", counting)
    path = _write(tmp_path, "p.cfg", GOLD4_CFG + f'out = "{tmp_path}/p"\n')
    assert main(["portrait", "--config", str(path)]) == 0
    assert calls == [(101, 2)]


# three full chunks and one row; the fold is real for t <= 1 only, so the
# third and fourth chunks of [0, 2] hold no fold row
STREAMED_CFG = 'n = 3\nphi = "1"\npsi = "1"\nt_max = 2\nh = "t - 0.3*t^2"\nr_max = 2\n'
STREAMED_SAMPLES = 3 * cli.CHUNK_ROWS + 1


def _whole_grid_csv(path, command, T, samples):
    """The fold or portrait CSV of T as one np.linspace grid of `samples`
    abscissae, one sample and one fold_branches gave it."""
    nan = math.nan
    ts = np.linspace(0.0, T.t_max, samples)
    phi, psi = cli.sample(ts, T.phi.first_order, T.psi.first_order)[:, 0]
    real, lower, upper = potential.fold_branches(T.n, ts, psi)
    t, lower, upper, phi, psi = ts[real], lower[real], upper[real], phi[real], psi[real]
    if command == "analyze":
        cli.write_csv(path, ("t", "w_lower", "w_upper"), [(t, lower, upper)])
        return
    curve = potential.solve_branch(T, step=1e-3)[1]
    F_sep = potential.surface_terms(T.n, curve.t, curve.w, curve.p, curve.phi, nan, curve.psi,
                                    nan)[0]
    ws = np.stack((lower, upper))
    F_fold = potential.surface_terms(T.n, t, ws, 0.0, phi, nan, psi, nan)[0]
    cli.write_csv(path, ("branch", "t", "w", "p", "F"), [
        (np.broadcast_to(np.array(b"separatrix"), curve.t.shape), curve.t, curve.w, curve.p,
         F_sep),
        (np.tile(np.array([b"fold_lower", b"fold_upper"]), t.size), np.repeat(t, 2),
         ws.T.ravel(), np.zeros(2 * t.size), F_fold.T.ravel()),
    ])


@pytest.mark.parametrize("command, module, suffix", [
    ("analyze", cli, "_fold.csv"), ("portrait", cli, "_portrait.csv"),
    ("hypersurface", hs, "_hypersurface.csv"),
])
def test_a_streamed_table_samples_a_chunk_at_a_time(tmp_path, monkeypatch, command, module,
                                                    suffix):
    # every sample the command makes of its table takes at most one chunk,
    # and the fold rows are those of the whole np.linspace grid, byte for byte
    sizes = []

    def counting(ts, *exprs, real=module.sample):
        sizes.append(len(ts))
        return real(ts, *exprs)

    monkeypatch.setattr(module, "sample", counting)
    cfg = STREAMED_CFG + f'samples = {STREAMED_SAMPLES}\nout = "{tmp_path}/s"\n'
    assert main([command, "--config", str(_write(tmp_path, "s.cfg", cfg))]) == 0
    monkeypatch.undo()
    assert sizes == [cli.CHUNK_ROWS] * 3 + [1]
    if command != "hypersurface":
        T = rotsym.RotSymTensor(3, parse("1"), parse("1"), 2.0)
        _whole_grid_csv(tmp_path / "whole.csv", command, T, STREAMED_SAMPLES)
        assert (tmp_path / f"s{suffix}").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("command", ["analyze", "portrait"])
def test_an_evaluation_error_in_a_later_chunk_leaves_no_file(tmp_path, capsys, command):
    # 0.9765625 is abscissa 3000 of 3073 over [0, 1], in the third chunk
    cfg = ('n = 3\nphi = "1"\npsi = "1 + 0/(t - 0.9765625)"\nt_max = 1\nsamples = 3073\n'
           f'out = "{tmp_path}/z"\n')
    assert main([command, "--config", str(_write(tmp_path, "z.cfg", cfg))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        'riccisym: code=1 reason="division by zero in \'0/(t - 0.9765625)\' at t=0.9765625"'
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["z.cfg"]


def test_analyze_memory_does_not_grow_with_the_samples(tmp_path):
    # the whole grid, its jets and fold branches took about 53 traced bytes
    # a row, 3.2 MB over the 61,440 rows between the two runs
    def peak(samples):
        cfg = STREAMED_CFG + f'samples = {samples}\nout = "{tmp_path}/m"\n'
        path = _write(tmp_path, "m.cfg", cfg)
        return traced_peak(lambda: main(["analyze", "--config", str(path)]))

    assert peak(4 * cli.CHUNK_ROWS + 1)[0] == 0  # warms the CSV writer's tables
    (code_few, few), (code_many, many) = (peak(k * cli.CHUNK_ROWS + 1) for k in (4, 64))
    assert code_few == code_many == 0
    assert many <= few + 64 * 1024, (few, many)


# ---------------------------------------------------------------------------
# verify on profiles it cannot read


@pytest.fixture(scope="module")
def gold4_profile(tmp_path_factory):
    """The lines of the gold n = 4 solution CSV."""
    tmp = tmp_path_factory.mktemp("gold4")
    path = _write(tmp, "g4.cfg", GOLD4_CFG + f'out = "{tmp}/g4"\n')
    assert main(["solve", "--config", str(path)]) == 0
    return (tmp / "g4_solution.csv").read_text().splitlines()


def _set_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


def _verify(tmp_path, lines):
    profile = tmp_path / "profile.csv"
    profile.write_text("".join(line + "\n" for line in lines))
    cfg = GOLD4_CFG + f'out = "{tmp_path}/v"\nprofile = "{profile}"\n'
    return main(["verify", "--config", str(_write(tmp_path, "v.cfg", cfg))])


def test_verify_names_a_residual_window_with_no_grid_point(tmp_path, capsys):
    # 0.1001 and 0.1002 lie between two samples of the 1e-3 grid
    cfg = f'n = 3\nphi = "-1"\npsi = "-1"\nt_max = 10\nout = "{tmp_path}/a"\n'
    assert main(["solve", "--config", str(_write(tmp_path, "s.cfg", cfg))]) == 0
    check = cfg + f't_lo = 0.1001\nt_hi = 0.1002\nprofile = "{tmp_path}/a_solution.csv"\n'
    assert main(["verify", "--config", str(_write(tmp_path, "v.cfg", check))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        'riccisym: code=1 reason="no grid point in the residual window [0.1001, 0.1002]"'
    ]


UNREADABLE_PROFILES = {
    "header only": (lambda lines: lines[:1], "has no data rows"),
    "header and blank lines": (lambda lines: lines[:1] + ["", ""], "has no data rows"),
    "short row": (
        lambda lines: lines[:6] + [lines[6].rsplit(",", 1)[0]] + lines[7:],
        "data row 6 has fewer than 9 fields",
    ),
    "long row": (
        lambda lines: lines[:6] + [lines[6] + ",0"] + lines[7:],
        "data row 6 has more than 9 fields",
    ),
    "long last row": (  # past the first READ_CHARS of the 85 KB file
        lambda lines: lines[:-1] + [lines[-1] + ",0"],
        "data row 501 has more than 9 fields",
    ),
    "header lost a column": (
        lambda lines: [lines[0].replace(",w,", ",")] + lines[1:],
        "data row 1 has more than 8 fields",
    ),
    "nan r": (lambda lines: _set_cell(lines, 7, "r", "nan"), "non-finite r = nan in data row 7"),
    "nan rp": (lambda lines: _set_cell(lines, 8, "rp", "nan"), "non-finite rp = nan in data row 8"),
    "nan fp": (lambda lines: _set_cell(lines, 9, "fp", "nan"), "non-finite fp = nan in data row 9"),
    "nan t": (lambda lines: _set_cell(lines, 3, "t", "nan"), "non-finite t = nan in data row 3"),
    "inf f": (lambda lines: _set_cell(lines, 4, "f", "-inf"), "non-finite f = -inf in data row 4"),
    "junk rp": (
        lambda lines: _set_cell(lines, 5, "rp", "x"),
        "data row 5: could not convert string 'x' in column rp",
    ),
    "blank t": (
        lambda lines: _set_cell(lines, 5, "t", ""),
        "data row 5: could not convert string '' in column t",
    ),
    "blank lines between rows": (
        lambda lines: lines[:3] + ["", "  "] + lines[3:],
        "data row 3 has fewer than 9 fields",
    ),
    "no r column": (
        lambda lines: [lines[0].replace(",r,", ",radius,")] + lines[1:],
        "missing columns ['r']",
    ),
}


@pytest.mark.parametrize("case", UNREADABLE_PROFILES)
def test_verify_rejects_a_profile_it_cannot_read(tmp_path, capsys, gold4_profile, case):
    mutate, reason = UNREADABLE_PROFILES[case]
    assert _verify(tmp_path, mutate(gold4_profile)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith('riccisym: code=1 reason="'), err
    assert reason in err[0]
    assert not (tmp_path / "v_verify.txt").exists()


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda line: line + ",0", " has more than 9 fields"),
        (lambda line: line.rsplit(",", 1)[0] + ",x", ": could not convert string 'x' in column res_tt"),
        (lambda line: "x," + line.split(",", 1)[1], ": could not convert string 'x' in column t"),
    ],
    ids=["long", "junk last cell", "junk t"],
)
def test_verify_finds_a_bad_last_row_in_few_parses(
    tmp_path, capsys, monkeypatch, gold4_profile, mutate, reason
):
    # the rows are parsed a chunk at a time, then those of the failing chunk
    # one at a time: not one parse per cell of every row
    rows = 3 * cli.CHUNK_ROWS + 1
    body = (gold4_profile[1:] * (rows // 500 + 1))[:rows]
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    assert _verify(tmp_path, gold4_profile[:1] + body[:-1] + [mutate(body[-1])]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=1 reason="profile CSV {tmp_path}/profile.csv: data row {rows}{reason}"'
    ]
    assert len(calls) <= cli.CHUNK_ROWS + 11


@pytest.mark.parametrize("columns", [cli.SOLUTION_HEADER, ("fp", "t", "rp", "f", "r")])
def test_verify_finds_the_profile_columns_by_name(tmp_path, capsys, gold4_profile, columns):
    table = [line.split(",") for line in gold4_profile]
    picks = [table[0].index(name) for name in columns]
    assert _verify(tmp_path, [",".join(row[i] for i in picks) for row in table]) == 0
    assert capsys.readouterr().err == ""
    assert "residual radial: 4.989529e-09\n" in (tmp_path / "v_verify.txt").read_text()


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_verify_fails_a_nan_residual(tmp_path, capsys, monkeypatch, gold4_profile, residuals):
    # solve's gate and line: the worse residual, NaN first, its t and the bound
    monkeypatch.setattr(reconstruct, "verify_ricci", lambda *args: (residuals, (0.1, 0.2)))
    named = "radial nan at t = 0.1" if math.isnan(residuals[0]) else "tangential nan at t = 0.2"
    assert _verify(tmp_path, gold4_profile) == 3
    assert capsys.readouterr().err.splitlines() == [
        f'riccisym: code=3 reason="ricci residuals exceed tolerance: {named}'
        ' > residual_tol 1.000e-05"'
    ]


@pytest.mark.parametrize(
    "column, code, reason",
    [
        ("r", 3, "ricci residuals exceed tolerance: tangential nan at t = 0.199 > residual_tol 1.000e-05"),
        ("rp", 1, "r'(t) <= 0 at t = 0.199"),
    ],
)
def test_verify_fails_a_zero_radius_or_slope_without_warnings(
    tmp_path, capsys, gold4_profile, column, code, reason
):
    # r = 0 at t > 0 divides by zero and gives a NaN residual, r' = 0 breaks
    # the forward map's precondition; pytest turns a RuntimeWarning into an error
    assert _verify(tmp_path, _set_cell(gold4_profile, 200, column, "0")) == code
    assert capsys.readouterr().err.splitlines() == [f'riccisym: code={code} reason="{reason}"']
