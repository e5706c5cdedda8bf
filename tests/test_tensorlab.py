import numpy as np
import pytest

from riccisym.exprfn import parse
from riccisym.tensorlab import (
    MetricField,
    SingularMatrixError,
    christoffel,
    frame_ratios,
    invert_spd,
    metric_at,
    ricci_numeric,
    riemann_from_ricci_3d,
    riemann_symmetry_violations,
    rotsym_to_cartesian,
    scalar_curvature,
)

EUCLID3 = MetricField(3, lambda x: np.eye(3))

# graph chart of the unit sphere: A = 1/(1 - t^2), B = t^2
SPHERE3 = rotsym_to_cartesian(parse("1/(1 - t^2)"), parse("t^2"), 3)
# graph chart of the paraboloid h(u) = u: A = 1 + 4 t^2
PARAB3 = rotsym_to_cartesian(parse("1 + 4*t^2"), parse("t^2"), 3)


def test_invert_identity_and_diagonal():
    assert np.allclose(invert_spd(np.eye(4)), np.eye(4))
    got = invert_spd(np.diag([1.0, 4.0, 9.0]))
    assert np.allclose(got, np.diag([1.0, 0.25, 1.0 / 9.0]), atol=1e-14)


def test_invert_hand_2x2():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
    got = invert_spd(m)
    assert np.allclose(got, expected, atol=1e-14)
    assert np.max(np.abs(m @ got - np.eye(2))) < 1e-10


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_invert_dimension_cap():
    with pytest.raises(ValueError):
        invert_spd(np.eye(9))


def test_christoffel_euclidean_zero():
    gamma = christoffel(EUCLID3, [0.3, -0.2, 0.9])
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_polar_plane():
    # flat plane in polar coordinates (r, theta): g = diag(1, r^2)
    polar = MetricField(2, lambda y: np.diag([1.0, y[0] ** 2]))
    r = 0.7
    gamma = christoffel(polar, [r, 0.3], h=1e-4)
    assert abs(gamma[0, 1, 1] - (-r)) < 1e-7  # Gamma^r_{theta theta} = -r
    assert abs(gamma[1, 0, 1] - 1.0 / r) < 1e-7  # Gamma^theta_{r theta} = 1/r


def test_christoffel_lower_symmetry_exact():
    for x in ([0.4, 0.1, 0.2], [0.2, -0.5, 0.3]):
        gamma = christoffel(SPHERE3, x)
        assert np.array_equal(gamma, np.transpose(gamma, (0, 2, 1)))


def test_ricci_euclidean_zero():
    ric = ricci_numeric(EUCLID3, [0.5, 0.1, -0.3])
    assert np.max(np.abs(ric)) < 1e-8


def test_ricci_sphere_is_einstein():
    # unit sphere: Ric = 2 g (n = 3)
    x = np.array([0.3, 0.25, 0.2])
    ric = ricci_numeric(SPHERE3, x, h=2.5e-4)
    g = metric_at(SPHERE3, x)
    assert np.max(np.abs(ric - 2.0 * g)) < 1e-5


def test_ricci_paraboloid_frame_components():
    # |x| = 1: frame-normalized radial 0.32, tangential 0.96
    x = np.array([1.0, 0.0, 0.0]) / np.sqrt(1.0)
    ric = ricci_numeric(PARAB3, x, h=2.5e-4)
    g = metric_at(PARAB3, x)
    rad, tan = frame_ratios(ric, g, x)
    assert abs(rad - 0.32) < 1e-4
    assert abs(tan - 0.96) < 1e-4


def test_ricci_symmetrization_diagnostic():
    _, asym = ricci_numeric(SPHERE3, [0.3, 0.2, 0.1], h=1e-3, with_asymmetry=True)
    assert asym < 1e-6


def test_scalar_curvature_values():
    assert abs(scalar_curvature(EUCLID3, [0.2, 0.4, 0.1])) < 1e-8
    assert abs(scalar_curvature(SPHERE3, [0.3, 0.25, 0.2], h=2.5e-4) - 6.0) < 1e-3
    x = np.array([0.6, 0.6, np.sqrt(1 - 0.72)])
    assert abs(scalar_curvature(PARAB3, x, h=2.5e-4) - 2.24) < 1e-3


def test_richardson_consistency_flat():
    res_h = np.max(np.abs(ricci_numeric(EUCLID3, [0.1, 0.2, 0.3], h=1e-3)))
    res_half = np.max(np.abs(ricci_numeric(EUCLID3, [0.1, 0.2, 0.3], h=5e-4)))
    assert res_half <= res_h / 3 + 1e-15


def test_richardson_consistency_curved():
    # second-order differencing: halving h shrinks the sphere defect ~4x
    x = np.array([0.35, 0.1, 0.2])
    g = metric_at(SPHERE3, x)
    err_h = np.max(np.abs(ricci_numeric(SPHERE3, x, h=2e-3) - 2 * g))
    err_half = np.max(np.abs(ricci_numeric(SPHERE3, x, h=1e-3) - 2 * g))
    assert err_half <= err_h / 3


def test_ricci_rotation_equivariance():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x = np.array([0.28, 0.21, 0.14])
    ric_x = ricci_numeric(SPHERE3, x, h=2.5e-4)
    ric_qx = ricci_numeric(SPHERE3, q @ x, h=2.5e-4)
    assert np.max(np.abs(ric_qx - q @ ric_x @ q.T)) < 1e-5


def test_riemann_from_ricci_zero():
    assert np.max(np.abs(riemann_from_ricci_3d(np.zeros((3, 3)), np.eye(3)))) == 0.0


def test_riemann_from_ricci_requires_n3():
    with pytest.raises(ValueError):
        riemann_from_ricci_3d(np.eye(4), np.eye(4))


def test_riemann_from_ricci_constant_curvature():
    # unit 3-sphere data: ric = 2 g  =>  R_ijkl = g_ik g_jl - g_il g_jk
    x = np.array([0.3, 0.25, 0.2])
    g = metric_at(SPHERE3, x)
    R4 = riemann_from_ricci_3d(2.0 * g, g)
    expected = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    assert np.max(np.abs(R4 - expected)) < 1e-6
    v = riemann_symmetry_violations(R4)
    assert max(v.values()) < 1e-12


def test_rotsym_to_cartesian_flat_disguise():
    mf = rotsym_to_cartesian(parse("1"), parse("t^2"), 3)
    for x in ([0.3, 0.4, 0.2], [1.0, -0.5, 0.25]):
        assert np.allclose(metric_at(mf, x), np.eye(3), atol=1e-14)


def test_rotsym_to_cartesian_sphere_point():
    got = metric_at(SPHERE3, [0.5, 0.0, 0.0])
    assert np.allclose(got, np.diag([4.0 / 3.0, 1.0, 1.0]), atol=1e-12)


def test_rotsym_to_cartesian_eigenvalues():
    mf = rotsym_to_cartesian(parse("2 + t^2"), parse("3*t^2"), 4)
    x = np.array([0.4, -0.3, 0.2, 0.5])
    t = np.linalg.norm(x)
    vals = np.sort(np.linalg.eigvalsh(metric_at(mf, x)))
    expected = np.sort([2 + t**2] + [3.0] * 3)
    assert np.allclose(vals, expected, atol=1e-12)


def test_rotsym_to_cartesian_reads_values_only():
    # the d2 of A overflows in (1e160)^2 while its value is about 1e300
    A = parse("(1e160*t)^3")
    mf = rotsym_to_cartesian(A, parse("t^2"), 3)
    x = np.array([1e-60, 0.0, 0.0])
    g = mf.g(x)
    assert np.isclose(g[0, 0], A(float(np.linalg.norm(x))), rtol=1e-12, atol=0.0)
    assert np.allclose(g[1:, 1:], np.eye(2))


def test_rotsym_to_cartesian_refuses_a_value_that_is_not_callable():
    with pytest.raises(TypeError, match=r"^expected Expr or callable, got <class 'float'>$"):
        rotsym_to_cartesian(1.0, parse("t^2"), 3)


def test_metric_at_refuses_a_wrong_shape_and_an_asymmetric_matrix():
    with pytest.raises(ValueError, match=r"^metric returned shape \(2, 2\), expected \(3, 3\)$"):
        metric_at(MetricField(3, lambda x: np.eye(2)), np.zeros(3))
    skew = MetricField(2, lambda x: np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"^metric not symmetric at \[0\. 0\.\] \(asymmetry 5\.000e-01\)$"):
        metric_at(skew, np.zeros(2))


def test_christoffel_refuses_a_step_that_is_not_positive():
    for h in (0.0, -1e-3):
        with pytest.raises(ValueError, match=r"^step h must be positive$"):
            christoffel(EUCLID3, np.ones(3), h)


def test_rotsym_to_cartesian_origin_error():
    with pytest.raises(ValueError):
        SPHERE3.g(np.zeros(3))
