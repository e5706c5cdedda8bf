import numpy as np
import pytest
from conftest import traced_peak

from riccisym import cli, tensorlab
from riccisym import hypersurface as hs
from riccisym.exprfn import eval_jet2, parse
from riccisym.hypersurface import (
    GraphEmbedding,
    cartesian_field,
    curvature_table,
    frame_diagonal,
    gauss_curvatures,
    induced_metric,
    principal_curvatures,
    ricci_graph,
)
from riccisym.tensorlab import metric_at, ricci_numeric, riemann_symmetry_violations

SPHERE = GraphEmbedding(3, parse("sqrt(1 - t)"), 0.9)  # unit sphere graph
PARAB = GraphEmbedding(3, parse("t"), 2.0)  # paraboloid h(u) = u
FLAT = GraphEmbedding(3, parse("5"), 2.0)  # horizontal slice


def test_induced_metric_examples():
    f, g_rr, g_tt = induced_metric(FLAT, 0.7)
    assert f == 1.0 and g_rr == 1.0 and abs(g_tt - 0.49) < 1e-15
    f, _, _ = induced_metric(SPHERE, 0.5)
    assert abs(f - 4.0 / 3.0) < 1e-12
    f, _, _ = induced_metric(PARAB, 1.0)
    assert abs(f - 5.0) < 1e-15


def test_ricci_graph_flat_and_legacy_variant():
    ric_rr, ric_tt = ricci_graph(FLAT, 0.8)
    assert abs(ric_rr) < 1e-14 and abs(ric_tt) < 1e-14
    # the (n+2) variant fails the flat gate: -4 for every n
    for n in (3, 4, 5):
        flat_n = GraphEmbedding(n, parse("1"), 2.0)
        _, bad_tt = ricci_graph(flat_n, 0.8, legacy_coefficient=True)
        assert abs(bad_tt + 4.0) < 1e-14


def test_ricci_graph_sphere_einstein():
    # Ric = 2 g on the unit sphere
    for r in (0.2, 0.5, 0.7):
        f, g_rr, g_tt = induced_metric(SPHERE, r)
        ric_rr, ric_tt = ricci_graph(SPHERE, r)
        assert abs(ric_rr - 2.0 * g_rr) < 1e-12
        assert abs(ric_tt - 2.0 * g_tt) < 1e-12


def test_ricci_graph_paraboloid_hand_values():
    ric_rr, ric_tt = ricci_graph(PARAB, 1.0)
    assert abs(ric_rr - 1.6) < 1e-12
    assert abs(ric_tt - 0.96) < 1e-12


def test_principal_curvatures_examples():
    assert principal_curvatures(FLAT, 0.6) == (0.0, 0.0)
    for r in (0.2, 0.5, 0.8):
        h1, h2 = principal_curvatures(SPHERE, r)
        assert abs(h1 + 1.0) < 1e-12  # umbilic, radius 1, downward normal
        assert abs(h2 + 1.0) < 1e-12
    h1, h2 = principal_curvatures(PARAB, 1.0)
    assert abs(h1 - 2.0 / 5.0**1.5) < 1e-14
    assert abs(h2 - 2.0 / 5.0**0.5) < 1e-14


def test_gauss_curvatures_sphere():
    R4, ric, scalar = gauss_curvatures([1.0, 1.0, 1.0])
    assert np.allclose(ric, 2.0 * np.eye(3), atol=1e-14)
    assert abs(scalar - 6.0) < 1e-14
    assert max(riemann_symmetry_violations(R4).values()) < 1e-14


def test_gauss_curvatures_paraboloid():
    h1, h2 = principal_curvatures(PARAB, 1.0)
    _, ric, scalar = gauss_curvatures([h1, h2, h2])
    assert np.allclose(np.diag(ric), [0.32, 0.96, 0.96], atol=1e-12)
    assert abs(scalar - 2.24) < 1e-12


def test_gauss_curvatures_zero():
    R4, ric, scalar = gauss_curvatures(np.zeros(4))
    assert np.max(np.abs(R4)) == 0.0
    assert np.max(np.abs(ric)) == 0.0
    assert scalar == 0.0


def test_gauss_sign_flip_invariance():
    h1, h2 = principal_curvatures(PARAB, 0.7)
    plus = gauss_curvatures([h1, h2, h2])
    minus = gauss_curvatures([-h1, -h2, -h2])
    assert np.allclose(plus[0], minus[0], atol=1e-14)
    assert np.allclose(plus[1], minus[1], atol=1e-14)
    assert abs(plus[2] - minus[2]) < 1e-14


def test_frame_coordinate_consistency():
    # coordinate Ricci normalized by the metric equals the frame diagonal
    shapes = {
        "sphere": parse("sqrt(1 - t)"),
        "paraboloid": parse("t"),
        "quartic": parse("t^2"),
    }
    for n in (3, 4, 5):
        for name, h in shapes.items():
            E = GraphEmbedding(n, h, 0.85)
            for r in (0.15, 0.4, 0.65, 0.8):
                f, g_rr, g_tt = induced_metric(E, r)
                ric_rr, ric_tt = ricci_graph(E, r)
                frame_rad, frame_tan = frame_diagonal(E, r)
                assert abs(ric_rr / g_rr - frame_rad) < 1e-8
                assert abs(ric_tt / r**2 - frame_tan) < 1e-8


def test_oracle_equivalence():
    # numeric Ricci of the Cartesian realization matches the closed form
    for E in (SPHERE, PARAB):
        mf = cartesian_field(E)
        for r in (0.3, 0.5, 0.7):
            x = np.array([0.6 * r, 0.8 * r, 0.0])
            ric = ricci_numeric(mf, x, h=2.5e-4)
            g = metric_at(mf, x)
            rad, tan = tensorlab.frame_ratios(ric, g, x)
            frame_rad, frame_tan = frame_diagonal(E, r)
            assert abs(rad - frame_rad) < 1e-4
            assert abs(tan - frame_tan) < 1e-4


def test_riemann_from_ricci_matches_gauss():
    # 3d algebraic reconstruction agrees with the Gauss-equation tensor
    h1, h2 = principal_curvatures(PARAB, 1.0)
    R4_gauss, ric, _ = gauss_curvatures([h1, h2, h2])
    R4_alg = tensorlab.riemann_from_ricci_3d(ric, np.eye(3))
    assert np.max(np.abs(R4_alg - R4_gauss)) < 1e-6


def test_curvature_table_shape():
    table = curvature_table(PARAB, [0.0, 0.5, 1.0])
    assert table.shape == (3, 7)
    assert abs(table[2, 2] - 1.6) < 1e-12


def test_curvature_table_scalar_is_the_frame_trace():
    E = GraphEmbedding(5, parse("t - 0.3*t^2"), 1.0)
    table = curvature_table(E, np.linspace(0.0, 1.0, 11))
    for h1, h2, scalar in table[:, 4:]:
        _, _, trace = gauss_curvatures([h1] + [h2] * (E.n - 1))
        assert scalar == pytest.approx(trace, rel=1e-14, abs=1e-14)


def test_curvature_table_memory_does_not_grow_like_n4():
    # an n^4 Riemann tensor per row would take 104 MB at n = 60
    E = GraphEmbedding(60, parse("t^2"), 1.0)
    table, peak = traced_peak(lambda: curvature_table(E, [0.0, 0.5, 1.0]))
    assert table.shape == (3, 7) and np.isfinite(table).all()
    assert peak < 2**20


def test_embedding_validation():
    with pytest.raises(ValueError):
        GraphEmbedding(1, parse("t"), 1.0)
    with pytest.raises(ValueError):
        GraphEmbedding(3, parse("t"), -1.0)


def test_an_embedding_below_dimension_2_is_refused():
    with pytest.raises(ValueError, match=r"^n must be >= 2$"):
        GraphEmbedding(1, parse("t"), 1.0)


def test_gauss_curvatures_needs_two_principal_curvatures():
    with pytest.raises(ValueError, match=r"^need at least 2 principal curvatures$"):
        gauss_curvatures([1.0])


def _row_by_row(E, rs, legacy_coefficient=False):
    """A reference curvature table, row by row from h's scalar jet, in the
    formulas used before graph_terms: f' with its r = 0 limits, ** powers."""
    n = E.n
    rows = []
    with np.errstate(all="ignore"):
        for r in np.asarray(rs, dtype=float):
            hj = eval_jet2(E.h, r * r)
            d1, d2 = np.float64(hj.d1), np.float64(hj.d2)
            f = 1.0 + 4.0 * r * r * d1**2
            fprime = 8.0 * r * d1**2 + 16.0 * r**3 * d1 * d2
            coef = float(n + 2) if legacy_coefficient else float(n - 2)
            if r == 0.0:
                ric_rr = (n - 1) * 8.0 * d1**2 / 2.0
                ric_tt = 0.0 if not legacy_coefficient else float(n - 2) - coef
            else:
                ric_rr = (n - 1) * fprime / (2.0 * r * f)
                ric_tt = r * fprime / (2.0 * f * f) - coef / f + (n - 2)
            h1 = (2.0 * d1 + 4.0 * r * r * d2) / f**1.5
            h2 = 2.0 * d1 / f**0.5
            total = h1 + (n - 1) * h2
            scalar = (h1 * total - h1 * h1) + (n - 1) * (h2 * total - h2 * h2)
            rows.append((r, f, ric_rr, ric_tt, h1, h2, scalar))
    return np.array(rows)


def _assert_same_table(new, old, n):
    """new equals old to 2 eps times each column's largest finite |value|
    (for the scalar, a sum of curvature products, the largest
    (|h1| + (n-1)|h2|)^2), and its first non-finite cell is old's."""
    def first_bad(table):
        return np.argwhere(~np.isfinite(table))[:1].tolist()

    assert first_bad(new) == first_bad(old)
    both = np.isfinite(new) & np.isfinite(old)
    new, old = np.where(both, new, 0.0), np.where(both, old, 0.0)
    scale = np.max(np.abs(old), axis=0)
    scale[6] = np.max((np.abs(old[:, 4]) + (n - 1) * np.abs(old[:, 5])) ** 2)
    assert np.all(np.abs(new - old) <= 2 * np.finfo(float).eps * scale)


@pytest.mark.parametrize(
    "n, h, r_max",
    [(3, "t^2", 1.0), (4, "t^2", 1.0), (3, "sqrt(1 - t)", 0.9), (5, "t - 0.3*t^2", 1.0),
     (4, "exp(t)*sin(3*t)", 1.5), (2, "cos(t)", 3.0), (6, "log(1 + t)^3", 2.0),
     (3, "t^2", 1e160), (3, "(1e-200)^-1*t", 1.0), (3, "sqrt(t + 1e-250)", 1.0)],
)
def test_curvature_table_matches_the_row_by_row_formulas(n, h, r_max):
    # r = 0 is each grid's first row; the last three overflow: r^2, h'^2
    # and h''(0)
    E = GraphEmbedding(n, parse(h), r_max)
    rs = np.linspace(0.0, r_max, 101)
    _assert_same_table(curvature_table(E, rs), _row_by_row(E, rs), n)


def test_ricci_graph_legacy_coefficient_matches_the_row_formula():
    for n in (2, 3, 5):
        E = GraphEmbedding(n, parse("t - 0.3*t^2"), 1.0)
        rs = np.linspace(0.0, 1.0, 11)
        old = _row_by_row(E, rs, legacy_coefficient=True)
        new = np.array([ricci_graph(E, r, legacy_coefficient=True) for r in rs])
        assert new[0, 1] == old[0, 3] == -4.0  # the r = 0 limit
        scale = np.max(np.abs(old[:, 2:4]), axis=0)
        assert np.all(np.abs(new - old[:, 2:4]) <= 2 * np.finfo(float).eps * scale)


def test_hypersurface_samples_h_once_per_chunk(tmp_path, monkeypatch):
    # 3 full chunks and 5 rows: one sample of h per chunk, no scalar jet
    calls = []

    def counting(ts, *exprs):
        calls.append(len(ts))
        return sample(ts, *exprs)

    def no_scalar_jets(*args):
        raise AssertionError("eval_jet2 called")

    sample = hs.sample
    monkeypatch.setattr(hs, "sample", counting)
    for module in (hs, cli):
        monkeypatch.setattr(module, "eval_jet2", no_scalar_jets)
    rows = 3 * cli.CHUNK_ROWS + 5
    cfg = tmp_path / "h.cfg"
    cfg.write_text(f'n = 4\nh = "t - 0.3*t^2"\nr_max = 2\nsamples = {rows}\nout = "{tmp_path}/hy"\n')
    assert cli.main(["hypersurface", "--config", str(cfg)]) == 0
    assert calls == [cli.CHUNK_ROWS] * 3 + [5]
    monkeypatch.undo()
    table = np.loadtxt(tmp_path / "hy_hypersurface.csv", delimiter=",", skiprows=1)
    E = GraphEmbedding(4, parse("t - 0.3*t^2"), 2.0)
    _assert_same_table(table, _row_by_row(E, np.linspace(0.0, 2.0, rows)), 4)


@pytest.mark.parametrize(
    "h, r_max, code, reason",
    [("t^2", 2e51, 3, "ric_tt_unit not finite at grid point r = 1.11035e+51"),
     ("(1e-200)^-1*t + log(2 - t)", 2, 1,
      "log of non-positive value -0.0023355484008789062 in 'log(2 - t)' at t=2.002335548400879")],
    ids=["bad cell in the second chunk", "bad cell in the first, error in the second"],
)
def test_a_failing_hypersurface_reports_as_the_whole_table_did(tmp_path, capsys, h, r_max, code, reason):
    # 2 chunks and a row; the first non-finite cell of the table is raised
    # only after the last chunk, so an evaluation error in a later chunk wins
    rows = 2 * cli.CHUNK_ROWS + 1
    cfg = tmp_path / "h.cfg"
    cfg.write_text(f'n = 3\nh = "{h}"\nr_max = {r_max}\nsamples = {rows}\nout = "{tmp_path}/hy"\n')
    assert cli.main(["hypersurface", "--config", str(cfg)]) == code
    assert capsys.readouterr().err.splitlines() == [f'riccisym: code={code} reason="{reason}"']
    assert [p.name for p in tmp_path.iterdir()] == ["h.cfg"]


@pytest.mark.parametrize("h, code", [("t^2", 3), ("log(t - 2)", 1)])
def test_a_table_of_one_chunk_fails_before_its_output_is_made(tmp_path, capsys, h, code):
    # 101 rows: the failure comes before out's directory is made or its
    # file opened, so it also wins over an output that cannot be written
    cfg = tmp_path / "h.cfg"
    (tmp_path / "file").write_text("")
    for out in ("new/hy", "file/hy"):
        cfg.write_text(f'n = 3\nh = "{h}"\nr_max = 1e160\nout = "{tmp_path}/{out}"\n')
        assert cli.main(["hypersurface", "--config", str(cfg)]) == code
        assert capsys.readouterr().err.startswith(f"riccisym: code={code} reason=")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "h.cfg"]


@pytest.mark.parametrize("r_max", [1.0, 2.0, 0.1, 3.7, 1e160, 1e-320, 5e-324])
@pytest.mark.parametrize("chunks, extra", [(0, 2), (0, 3), (1, -1), (1, 0), (1, 1), (2, 1), (3, 5)])
def test_the_chunk_abscissae_are_linspace_byte_for_byte(r_max, chunks, extra):
    # each chunk makes its own abscissae; joined across the CHUNK_ROWS
    # boundaries they are np.linspace's, also where the step r_max /
    # (samples - 1) underflows to 0 (r_max 5e-324)
    samples = chunks * cli.CHUNK_ROWS + extra
    seen = list(cli._abscissae(r_max, samples))
    assert [rs.size for rs in seen[:-1]] == [cli.CHUNK_ROWS] * (len(seen) - 1)
    assert np.concatenate(seen).tobytes() == np.linspace(0.0, r_max, samples).tobytes()


def test_the_chunk_abscissae_match_linspace_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(60):
        samples = int(rng.integers(2, 50_000))
        r_max = float(rng.uniform(1, 10) * 10.0 ** rng.integers(-300, 300))
        seen = list(cli._abscissae(r_max, samples))
        assert np.concatenate(seen).tobytes() == np.linspace(0.0, r_max, samples).tobytes()
