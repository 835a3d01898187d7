import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from mfclust.basis import BasisSpec, build_basis, design_matrix, fit_coefficients, gram_matrix


def test_build_basis_shapes():
    b = build_basis(0, 30, 12, 3)
    assert b.n_basis == 12
    assert b.knots.shape == (15,)
    assert b.knots[0] == 0 and b.knots[-1] == 30
    # interior knots equally spaced
    interior = b.knots[3:-3]
    npt.assert_allclose(np.diff(interior), interior[1] - interior[0])


@pytest.mark.parametrize("lo,hi", [(0, 30), (0.0, 30.0), (-2, 1.5)])
def test_basis_spec_is_its_four_numbers(lo, hi):
    b = BasisSpec(lo, hi, 3, 12)
    same = build_basis(float(lo), float(hi), 12, 3)
    assert b == same and hash(b) == hash(same) and len({b, same}) == 1
    assert b != build_basis(lo, hi, 11, 3) and b != build_basis(lo, hi, 12, 4)
    # each endpoint `order` times around equally spaced interior knots
    expected = np.concatenate([np.full(3, float(lo)), np.linspace(lo, hi, 11)[1:-1], np.full(3, float(hi))])
    npt.assert_array_equal(b.knots, expected)
    npt.assert_array_equal(same.knots, expected)
    with pytest.raises(TypeError):
        BasisSpec(lo, hi, 3, 12, knots=expected)


def test_build_basis_single_constant():
    b = build_basis(0, 1, 1, 1)
    for t in [0.0, 0.3, 1.0]:
        npt.assert_allclose(design_matrix(b, [t])[0], [1.0])


def test_build_basis_rejects_bad_args():
    with pytest.raises(ValueError):
        build_basis(0, 1, 2, 3)  # n_basis < order
    with pytest.raises(ValueError):
        build_basis(1, 1, 4, 3)  # empty domain
    with pytest.raises(ValueError):
        build_basis(0, 1, 4, 0)  # order < 1


def test_partition_of_unity_spot_check():
    b = build_basis(0, 10, 5, 3)
    assert abs(design_matrix(b, [2.5])[0].sum() - 1.0) < 1e-12


@pytest.mark.parametrize("order,n_basis", [(1, 4), (2, 5), (3, 12), (4, 12)])
def test_partition_of_unity_random_points(order, n_basis):
    b = build_basis(0, 30, n_basis, order)
    rng = np.random.default_rng(42)
    ts = rng.uniform(0, 30, size=1000)
    sums = design_matrix(b, ts).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_evaluate_order_one_is_indicator():
    b = build_basis(0, 1, 4, 1)
    for t in [0.0, 0.1, 0.26, 0.74, 0.99, 1.0]:
        v = design_matrix(b, [t])[0]
        assert np.count_nonzero(v) == 1
        assert v.max() == 1.0


def test_evaluate_clamped_endpoints():
    b = build_basis(0, 30, 12, 3)
    lo = design_matrix(b, [0.0])[0]
    hi = design_matrix(b, [30.0])[0]
    assert lo[0] == pytest.approx(1.0) and np.all(lo[1:] == 0)
    assert hi[-1] == pytest.approx(1.0) and np.all(hi[:-1] == 0)


def test_evaluate_out_of_domain_raises():
    b = build_basis(0, 30, 12, 3)
    with pytest.raises(ValueError):
        design_matrix(b, [-0.1])
    with pytest.raises(ValueError):
        design_matrix(b, [30.1])


@pytest.mark.parametrize("order,n_basis", [(2, 6), (3, 12), (4, 9)])
def test_evaluation_matches_scipy(order, n_basis):
    b = build_basis(0, 30, n_basis, order)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(n_basis)
    ts = np.linspace(0, 30, 211)
    ours = design_matrix(b, ts) @ coef
    ref = BSpline(b.knots, coef, b.degree, extrapolate=False)(ts)
    npt.assert_allclose(ours, ref, atol=1e-12)


def test_local_support():
    b = build_basis(0, 10, 8, 3)
    ts = np.linspace(0, 10, 501)
    dm = design_matrix(b, ts)
    for j in range(b.n_basis):
        lo, hi = b.knots[j], b.knots[j + b.order]
        outside = (ts < lo) | (ts > hi)
        assert np.all(dm[outside, j] == 0.0)


def test_fit_constant_curve():
    b = build_basis(0, 30, 12, 3)
    ts = np.linspace(0, 30, 31)
    coef = fit_coefficients(b, ts, np.full(31, 5.0))
    npt.assert_allclose(design_matrix(b, ts) @ coef, 5.0, atol=1e-10)


def test_fit_recovers_synthesized_coefficients():
    b = build_basis(0, 30, 12, 3)
    ts = np.linspace(0, 30, 31)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(12)
    y = design_matrix(b, ts) @ z
    zhat = fit_coefficients(b, ts, y)
    npt.assert_allclose(zhat, z, atol=1e-8)


def test_fit_matrix_of_curves():
    b = build_basis(0, 30, 12, 3)
    ts = np.linspace(0, 30, 31)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((5, 12))
    y = z @ design_matrix(b, ts).T
    zhat = fit_coefficients(b, ts, y)
    npt.assert_allclose(zhat, z, atol=1e-8)


def test_fit_residual_orthogonal_to_design():
    b = build_basis(0, 30, 8, 3)
    ts = np.linspace(0, 30, 40)
    rng = np.random.default_rng(13)
    y = rng.standard_normal(40)
    coef = fit_coefficients(b, ts, y)
    dm = design_matrix(b, ts)
    npt.assert_allclose(dm.T @ (y - dm @ coef), 0.0, atol=1e-9)


@pytest.mark.parametrize("n_values", [30, 32])
def test_fit_coefficients_refuses_times_and_values_of_different_lengths(n_values):
    with pytest.raises(ValueError, match="^times and values length mismatch$"):
        fit_coefficients(build_basis(0, 30, 12, 3), np.linspace(0, 30, 31), np.zeros((2, n_values)))


def test_fit_rank_deficient_raises():
    b = build_basis(0, 30, 12, 3)
    with pytest.raises(ValueError, match="rank"):
        fit_coefficients(b, np.array([0.0, 30.0]), np.array([1.0, 2.0]))
    # enough points but all stacked on one spot
    with pytest.raises(ValueError, match="rank"):
        fit_coefficients(b, np.full(20, 15.0), np.zeros(20))


def test_gram_order_one_equal_spans():
    k = 4
    b = build_basis(0, 1, k, 1)
    npt.assert_allclose(gram_matrix(b), np.eye(k) / k, atol=1e-14)


@pytest.mark.parametrize("order,n_basis", [(2, 5), (3, 12), (4, 10)])
def test_gram_symmetric_positive_definite(order, n_basis):
    b = build_basis(0, 30, n_basis, order)
    g = gram_matrix(b)
    npt.assert_allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0


def test_gram_matches_dense_quadrature():
    b = build_basis(0, 30, 12, 3)
    ts = np.linspace(0, 30, 20001)
    dm = design_matrix(b, ts)
    ref = np.empty((12, 12))
    for i in range(12):
        for j in range(12):
            ref[i, j] = np.trapezoid(dm[:, i] * dm[:, j], ts)
    npt.assert_allclose(gram_matrix(b), ref, atol=1e-6)
