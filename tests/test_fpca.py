import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfclust.basis import build_basis, design_matrix, gram_matrix
from mfclust.fpca import (
    FunctionalDataSet,
    SensorFpcaModel,
    assemble_coefficients,
    fit_fpca,
    fit_sensor_fpca,
    reconstruct,
    score_matrix,
    select_num_components,
    standardize,
    transform,
)

BASIS = build_basis(0, 30, 12, 3)
GRID = np.linspace(0, 30, 31)


def make_dataset(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"s{i:02d}" for i in range(values.shape[1])]
    return FunctionalDataSet(times=GRID, values=values, sensor_names=names)


def synth_sensor_curves(rng, n, rank=None):
    """Curves synthesized from random spline coefficients (optionally low rank)."""
    if rank is None:
        coeffs = rng.standard_normal((n, 12))
    else:
        factors = rng.standard_normal((n, rank))
        loadings = rng.standard_normal((rank, 12))
        coeffs = rng.standard_normal(12) + factors @ loadings
    return coeffs @ design_matrix(BASIS, GRID).T


def test_standardize_zero_variance_errors():
    data = make_dataset(np.full((4, 1, 31), 5.0))
    with pytest.raises(ValueError, match="s00"):
        standardize(data)


def test_standardize_rejects_overflowing_spread():
    # the mean of these values is finite but their variance overflows to inf
    rng = np.random.default_rng(3)
    values = np.stack([synth_sensor_curves(rng, 10), 1e305 * synth_sensor_curves(rng, 10)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        with pytest.raises(ValueError, match="'s01' has a non-finite mean or spread"):
            standardize(make_dataset(values))


def test_standardize_is_idempotent():
    rng = np.random.default_rng(0)
    raw = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    once, stats1 = standardize(raw)
    twice, stats2 = standardize(once)
    npt.assert_allclose(twice.values, once.values, atol=1e-12)
    assert stats2["s00"][0] == pytest.approx(0.0, abs=1e-12)
    assert stats2["s00"][1] == pytest.approx(1.0, abs=1e-12)


def test_standardize_pooled_moments():
    rng = np.random.default_rng(1)
    raw = make_dataset(3.0 + 2.5 * synth_sensor_curves(rng, 15)[:, None, :])
    out, stats = standardize(raw)
    block = out.values[:, 0, :]
    assert abs(block.mean()) < 1e-10
    assert abs(block.std() - 1.0) < 1e-10
    mean, sd = stats["s00"]
    npt.assert_allclose(block * sd + mean, raw.values[:, 0, :], atol=1e-10)


def test_fpca_identical_curves():
    curve = synth_sensor_curves(np.random.default_rng(2), 1)[0]
    data = make_dataset(np.tile(curve, (8, 1))[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 3)
    npt.assert_allclose(model.eigenvalues, 0.0, atol=1e-12)
    npt.assert_allclose(score_matrix(model, data), 0.0, atol=1e-8)


def test_fpca_recovers_rank_one_structure():
    rng = np.random.default_rng(3)
    gram = gram_matrix(BASIS)
    u = rng.standard_normal(12)
    u = u / np.sqrt(u @ gram @ u)
    mu = rng.standard_normal(12)
    c = rng.standard_normal(40) * 2.0
    c -= c.mean()
    coeffs = mu + np.outer(c, u)
    data = make_dataset((coeffs @ design_matrix(BASIS, GRID).T)[:, None, :])

    model = fit_sensor_fpca(data, "s00", BASIS, 2)
    est = model.eigen_coeffs[:, 0]
    assert min(np.linalg.norm(est - u), np.linalg.norm(est + u)) < 1e-6
    scores = score_matrix(model, data)[:, 0]
    sign = np.sign(scores @ c)
    npt.assert_allclose(sign * scores, c, atol=1e-6)
    assert model.eigenvalues[1] < 1e-8


def test_fpca_sensors_are_independent():
    rng = np.random.default_rng(4)
    v1 = synth_sensor_curves(rng, 12)
    v2 = synth_sensor_curves(rng, 12)
    data = make_dataset(np.stack([v1, v2], axis=1))
    shuffled = make_dataset(np.stack([v1, v2[::-1]], axis=1))
    m_orig = fit_sensor_fpca(data, "s00", BASIS, 3)
    m_shuf = fit_sensor_fpca(shuffled, "s00", BASIS, 3)
    npt.assert_array_equal(m_orig.eigen_coeffs, m_shuf.eigen_coeffs)
    npt.assert_array_equal(m_orig.eigenvalues, m_shuf.eigenvalues)


def test_gram_orthonormal_eigenfunctions():
    rng = np.random.default_rng(5)
    data = make_dataset(synth_sensor_curves(rng, 25)[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 5)
    inner = model.eigen_coeffs.T @ gram_matrix(BASIS) @ model.eigen_coeffs
    npt.assert_allclose(inner, np.eye(5), atol=1e-6)


def test_scores_centered_uncorrelated_variance_matches_eigenvalues():
    rng = np.random.default_rng(6)
    data = make_dataset(synth_sensor_curves(rng, 30)[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 4)
    scores = score_matrix(model, data)
    npt.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-8)
    cov = scores.T @ scores / scores.shape[0]
    npt.assert_allclose(cov, np.diag(model.eigenvalues), atol=1e-6)
    corr = np.corrcoef(scores.T)
    npt.assert_allclose(corr - np.diag(np.diag(corr)), 0.0, atol=1e-6)


def test_variance_accounting_bounded_by_total():
    rng = np.random.default_rng(7)
    data = make_dataset(synth_sensor_curves(rng, 30)[:, None, :])
    coeffs_model = fit_sensor_fpca(data, "s00", BASIS, 4)
    # total variance in the Gram geometry, computed directly
    from mfclust.basis import fit_coefficients

    a = fit_coefficients(BASIS, GRID, data.values[:, 0, :])
    ac = a - a.mean(axis=0)
    total = np.trace(gram_matrix(BASIS) @ (ac.T @ ac / a.shape[0]))
    assert coeffs_model.eigenvalues.sum() <= total + 1e-10


def test_transform_mean_curve_gives_zero_scores():
    rng = np.random.default_rng(8)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 3)
    mean_curve = design_matrix(BASIS, GRID) @ model.mean_coeffs
    npt.assert_allclose(transform(model, mean_curve), 0.0, atol=1e-8)


def test_transform_recovers_injected_score():
    rng = np.random.default_rng(9)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 3)
    curve = design_matrix(BASIS, GRID) @ (model.mean_coeffs + 2.0 * model.eigen_coeffs[:, 0])
    npt.assert_allclose(transform(model, curve), [2.0, 0.0, 0.0], atol=1e-6)


def test_transform_grid_mismatch():
    rng = np.random.default_rng(10)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model = fit_sensor_fpca(data, "s00", BASIS, 2)
    with pytest.raises(ValueError, match="grid"):
        transform(model, np.zeros(17))


def test_reconstruction_error_monotone_in_component_count():
    rng = np.random.default_rng(11)
    data = make_dataset(synth_sensor_curves(rng, 25)[:, None, :])
    curve = data.values[0, 0, :]
    errors = []
    for q in range(1, 7):
        model = fit_sensor_fpca(data, "s00", BASIS, q)
        recon = reconstruct(model, transform(model, curve))
        errors.append(np.sum((curve - recon) ** 2))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def _fake_model(fractions):
    b = build_basis(0, 1, len(fractions), 1)
    return SensorFpcaModel(
        sensor="x",
        basis=b,
        times=np.linspace(0, 1, 8),
        mean_coeffs=np.zeros(len(fractions)),
        eigen_coeffs=np.zeros((len(fractions), len(fractions))),
        eigenvalues=np.zeros(len(fractions)),
        variance_explained=np.asarray(fractions, dtype=float),
        gram=np.eye(len(fractions)),
    )


def test_select_num_components_single_perfect_sensor():
    model = _fake_model([1.0, 1.0, 1.0])
    assert select_num_components([model], alpha=0.8, beta=0.8) == 1


def test_select_num_components_constructed_fractions():
    # 7 of 10 sensors pass 0.8 at one component, 8 of 10 at two
    models = []
    for i in range(10):
        first = 0.85 if i < 7 else 0.5
        second = 0.86 if i < 8 else 0.6
        models.append(_fake_model([first, second, 1.0]))
    assert select_num_components(models, alpha=0.8, beta=0.8) == 2


def test_select_num_components_falls_back_with_warning():
    models = [_fake_model([0.1, 0.2, 0.3]) for _ in range(4)]
    with pytest.warns(UserWarning):
        assert select_num_components(models, alpha=0.8, beta=0.8) == 3


def test_assemble_column_map():
    rng = np.random.default_rng(5)
    blocks = [("a", rng.standard_normal((5, 3))), ("b", rng.standard_normal((5, 3)))]
    cm = assemble_coefficients(blocks)
    assert cm.q == 6 and cm.q_c == 3 and cm.sensor_names == ["a", "b"]
    # sensor-major: column s * q_c + l holds component l of sensor s
    for s, (_, block) in enumerate(blocks):
        for l in range(cm.q_c):
            npt.assert_array_equal(cm.scores[:, s * cm.q_c + l], block[:, l])


def test_assemble_wide():
    blocks = [(f"s{i}", np.zeros((4, 3))) for i in range(42)]
    assert assemble_coefficients(blocks).q == 126


def test_assemble_rejects_ragged_blocks():
    with pytest.raises(ValueError):
        assemble_coefficients([("a", np.zeros((5, 3))), ("b", np.zeros((4, 3)))])


def test_fit_fpca_pipeline_orders_columns_sensor_major():
    rng = np.random.default_rng(12)
    values = np.stack([synth_sensor_curves(rng, 18) for _ in range(3)], axis=1)
    data, _ = standardize(make_dataset(values))
    models, cm = fit_fpca(data, BASIS, q_c=2)
    assert [m.sensor for m in models] == cm.sensor_names
    assert cm.q == 6 and cm.q_c == 2
    block = score_matrix(models[1], data)
    npt.assert_allclose(cm.scores[:, 2:4], block, atol=1e-12)
