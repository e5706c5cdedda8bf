import math
import sys

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


OVERFLOW_CFG = 'n = 3\nphi = "{a}"\npsi = "{a}"\nt_max = 1\nout = "{out}"\n'


def test_overflow_before_t_lo_is_one_code_3_line(tmp_path, capsys):
    path = _write(tmp_path, "o.cfg", OVERFLOW_CFG.format(a="1e9", out=f"{tmp_path}/o"))
    assert main(["solve", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccisym: code=3 ")
    assert "halt: overflow" in lines[0]


def test_overflow_is_not_reported_as_a_fold(tmp_path, capsys):
    path = _write(tmp_path, "o.cfg", OVERFLOW_CFG.format(a="1e6", out=f"{tmp_path}/o"))
    assert main(["solve", "--config", str(path)]) == 0
    report = (tmp_path / "o_report.txt").read_text()
    assert "halt: overflow" in report
    assert "fold_contact" not in report + capsys.readouterr().err


def test_t_lo_beyond_t_max_stays_a_config_error_after_an_early_halt(tmp_path, capsys):
    cfg = OVERFLOW_CFG.format(a="1e9", out=f"{tmp_path}/o") + "t_lo = 2\n"
    assert main(["solve", "--config", str(_write(tmp_path, "o.cfg", cfg))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("riccisym: code=1 ")


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


def _reference_csv(header, rows) -> bytes:
    """The CSV bytes of one format(float(v), '.17g') call per non-str cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "n, phi, psi, t_max", [(4, "12", "12 - 8*t^2", 0.5), (3, "-1", "-1", 10.0)]
)
def test_write_csv_writes_the_reference_bytes(tmp_path, n, phi, psi, t_max):
    sol = pipeline.solve(rotsym.RotSymTensor(n, parse(phi), parse(psi), t_max))
    recon, profile = sol.recon, sol.recon.profile
    columns = (
        profile.grid, recon.w, recon.p, profile.r, profile.rp, profile.f, profile.fp,
        recon.res_rr, recon.res_tt,
    )
    path = tmp_path / "s.csv"
    cli.write_csv(path, cli.SOLUTION_HEADER, cli._solution_rows(sol))
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
    cli.write_csv(path, header, iter(rows))
    assert path.read_bytes() == _reference_csv(header, rows)
    assert path.read_text().splitlines()[1] == (
        "zero,-0,inf,-inf,nan,4.9406564584124654e-324,1.152921504606847e+18,"
        "1.7976931348623157e+308"
    )


def test_write_csv_writes_the_header_of_an_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    cli.write_csv(path, ("a", "b"), iter(()))
    assert path.read_text() == "a,b\n"


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


UNREADABLE_PROFILES = {
    "header only": (lambda lines: lines[:1], "has no data rows"),
    "header and blank lines": (lambda lines: lines[:1] + ["", ""], "has no data rows"),
    "short row": (
        lambda lines: lines[:6] + [lines[6].rsplit(",", 1)[0]] + lines[7:],
        "invalid column index 8",
    ),
    "long row": (
        lambda lines: lines[:6] + [lines[6] + ",0"] + lines[7:],
        "data row 6 has more than 9 fields",
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
    "junk rp": (lambda lines: _set_cell(lines, 5, "rp", "x"), "could not convert string 'x'"),
    "blank t": (lambda lines: _set_cell(lines, 5, "t", ""), "could not convert string ''"),
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


@pytest.mark.parametrize("columns", [cli.SOLUTION_HEADER, ("fp", "t", "rp", "f", "r")])
def test_verify_finds_the_profile_columns_by_name(tmp_path, capsys, gold4_profile, columns):
    table = [line.split(",") for line in gold4_profile]
    picks = [table[0].index(name) for name in columns]
    assert _verify(tmp_path, [",".join(row[i] for i in picks) for row in table]) == 0
    assert capsys.readouterr().err == ""
    assert "residual radial: 4.989529e-09\n" in (tmp_path / "v_verify.txt").read_text()


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_verify_fails_a_nan_residual(tmp_path, capsys, monkeypatch, gold4_profile, residuals):
    monkeypatch.setattr(reconstruct, "verify_ricci", lambda *args: residuals)
    assert _verify(tmp_path, gold4_profile) == 3
    assert capsys.readouterr().err.splitlines() == [
        'riccisym: code=3 reason="ricci residuals exceed tolerance: nan"'
    ]


@pytest.mark.parametrize(
    "column, code, reason",
    [("r", 3, "ricci residuals exceed tolerance: nan"), ("rp", 1, "r'(t) <= 0 at t = 0.199")],
)
def test_verify_fails_a_zero_radius_or_slope_without_warnings(
    tmp_path, capsys, gold4_profile, column, code, reason
):
    # r = 0 at t > 0 divides by zero and gives a NaN residual, r' = 0 breaks
    # the forward map's precondition; pytest turns a RuntimeWarning into an error
    assert _verify(tmp_path, _set_cell(gold4_profile, 200, column, "0")) == code
    assert capsys.readouterr().err.splitlines() == [f'riccisym: code={code} reason="{reason}"']
