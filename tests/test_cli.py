import numpy as np
import pytest

from riccisym import cli, pipeline, potential, reconstruct, rotsym
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
@pytest.mark.parametrize("key", sorted(cli._FLOAT_KEYS))
def test_parse_config_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    path = _write(tmp_path, "a.cfg", GOLD_CFG + f"{key} = {value}\nout = \"{tmp_path}/x\"\n")
    assert main(["solve", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("riccisym: code=1 ")
    assert f"{key} must be finite" in lines[0]
    assert not list(tmp_path.glob("x_*"))


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
    cfg = 'n = 3\nphi = "1"\npsi = "1"\nt_max = 0.3\nstep = 0.5\n' + f'out = "{tmp_path}/s"\n'
    path = _write(tmp_path, "s.cfg", cfg)
    assert main(["solve", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("riccisym: code=3 ")
    assert "curve too short to reconstruct a profile: 2 samples, 6 needed" in lines[0]
    assert "(halt: t_end)" in lines[0]
    assert "step 0.5, t_max 0.3" in lines[0]


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
    assert "folded_saddle" in text
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


def test_analyze_and_portrait_honour_constraint_tol(tmp_path, monkeypatch):
    # step 1e-2 leaves RK4 defects between 1e-13 and 1e-6, so the tolerance
    # decides whether the projection iterates
    cfg = GOLD4_CFG + f'step = 1e-2\nconstraint_tol = 1e-6\nout = "{tmp_path}/c"\n'
    path = _write(tmp_path, "c.cfg", cfg)
    seen = []
    integrate = potential.integrate_separatrix

    def spy(*args, **kwargs):
        seen.append(kwargs.get("projection_tol"))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(potential, "integrate_separatrix", spy)
    assert main(["analyze", "--config", str(path)]) == 0
    assert main(["portrait", "--config", str(path)]) == 0
    assert seen == [1e-6, 1e-6]

    _, rows = _read_csv(tmp_path / "c_portrait.csv")
    sep = np.array([[float(x) for x in row[1:4]] for row in rows if row[0] == "separatrix"])
    T = rotsym.RotSymTensor(4, parse("12"), parse("12 - 8*t^2"), 0.5)
    curve = pipeline.solve(T, step=1e-2, constraint_tol=1e-6).curve
    assert np.array_equal(sep, np.column_stack((curve.t, curve.w, curve.p)))


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


def test_sweep_runs_directory(tmp_path, capsys):
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    _write(sweep, "one.cfg", GOLD_CFG + f'out = "{tmp_path}/sw_one"\n')
    _write(
        sweep,
        "two.cfg",
        'n = 4\nphi = "12"\npsi = "12 - 8*t^2"\nt_max = 0.5\n'
        + f'out = "{tmp_path}/sw_two"\n',
    )
    code = main(["solve", "--sweep", str(sweep)])
    assert code == 0
    out = capsys.readouterr().out
    assert "one: exit 0" in out
    assert "two: exit 0" in out
    assert (tmp_path / "sw_one_solution.csv").exists()
    assert (tmp_path / "sw_two_solution.csv").exists()


def test_missing_config_argument(capsys):
    assert main(["solve"]) == 1
    assert "code=1" in capsys.readouterr().err


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


def test_write_csv_replaces_the_file_only_on_success(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("old\n")

    def rows():
        yield (1.0, 2.0)
        raise RuntimeError("rows failed")

    with pytest.raises(RuntimeError, match="rows failed"):
        cli.write_csv(path, ("a", "b"), rows())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    cli.write_csv(path, ("a", "b"), [(1.0, 2.0)])
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
