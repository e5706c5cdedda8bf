import numpy as np
import pytest
from conftest import traced_peak

from riccisym import tensorlab
from riccisym.exprfn import parse
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
