import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfclust.basis import build_basis, design_matrix, gram_matrix
from mfclust.fpca import (
    CoefficientMatrix,
    FunctionalDataSet,
    fit_fpca,
    reconstruct,
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


def fit_sensor(data, q_c):
    """The model and (n, q_c) scores of the first sensor, from fit_fpca."""
    models, B = fit_fpca(data, BASIS, q_c=q_c)
    return models[0], B.scores[:, :q_c]


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
    model, scores = fit_sensor(data, 3)
    npt.assert_allclose(model.eigenvalues, 0.0, atol=1e-12)
    npt.assert_allclose(scores, 0.0, atol=1e-8)
    npt.assert_allclose(transform(model, data.values[:, 0, :]), 0.0, atol=1e-8)


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

    model, scores = fit_sensor(data, 2)
    est = model.eigen_coeffs[:, 0]
    assert min(np.linalg.norm(est - u), np.linalg.norm(est + u)) < 1e-6
    scores = scores[:, 0]
    sign = np.sign(scores @ c)
    npt.assert_allclose(sign * scores, c, atol=1e-6)
    assert model.eigenvalues[1] < 1e-8


def test_fpca_sensors_are_independent():
    rng = np.random.default_rng(4)
    v1 = synth_sensor_curves(rng, 12)
    v2 = synth_sensor_curves(rng, 12)
    data = make_dataset(np.stack([v1, v2], axis=1))
    shuffled = make_dataset(np.stack([v1, v2[::-1]], axis=1))
    m_orig, _ = fit_sensor(data, 3)
    m_shuf, _ = fit_sensor(shuffled, 3)
    npt.assert_array_equal(m_orig.eigen_coeffs, m_shuf.eigen_coeffs)
    npt.assert_array_equal(m_orig.eigenvalues, m_shuf.eigenvalues)


def test_gram_orthonormal_eigenfunctions():
    rng = np.random.default_rng(5)
    data = make_dataset(synth_sensor_curves(rng, 25)[:, None, :])
    model, _ = fit_sensor(data, 5)
    inner = model.eigen_coeffs.T @ gram_matrix(BASIS) @ model.eigen_coeffs
    npt.assert_allclose(inner, np.eye(5), atol=1e-6)


def test_scores_centered_uncorrelated_variance_matches_eigenvalues():
    rng = np.random.default_rng(6)
    data = make_dataset(synth_sensor_curves(rng, 30)[:, None, :])
    model, scores = fit_sensor(data, 4)
    npt.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-8)
    cov = scores.T @ scores / scores.shape[0]
    npt.assert_allclose(cov, np.diag(model.eigenvalues), atol=1e-6)
    corr = np.corrcoef(scores.T)
    npt.assert_allclose(corr - np.diag(np.diag(corr)), 0.0, atol=1e-6)


def test_variance_accounting_bounded_by_total():
    rng = np.random.default_rng(7)
    data = make_dataset(synth_sensor_curves(rng, 30)[:, None, :])
    coeffs_model, _ = fit_sensor(data, 4)
    # total variance in the Gram geometry, computed directly
    from mfclust.basis import fit_coefficients

    a = fit_coefficients(BASIS, GRID, data.values[:, 0, :])
    ac = a - a.mean(axis=0)
    total = np.trace(gram_matrix(BASIS) @ (ac.T @ ac / a.shape[0]))
    assert coeffs_model.eigenvalues.sum() <= total + 1e-10


def test_transform_mean_curve_gives_zero_scores():
    rng = np.random.default_rng(8)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model, _ = fit_sensor(data, 3)
    mean_curve = design_matrix(BASIS, GRID) @ model.mean_coeffs
    npt.assert_allclose(transform(model, mean_curve), 0.0, atol=1e-8)


def test_transform_recovers_injected_score():
    rng = np.random.default_rng(9)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model, _ = fit_sensor(data, 3)
    curve = design_matrix(BASIS, GRID) @ (model.mean_coeffs + 2.0 * model.eigen_coeffs[:, 0])
    npt.assert_allclose(transform(model, curve), [2.0, 0.0, 0.0], atol=1e-6)


def test_transform_grid_mismatch():
    rng = np.random.default_rng(10)
    data = make_dataset(synth_sensor_curves(rng, 20)[:, None, :])
    model, _ = fit_sensor(data, 2)
    with pytest.raises(ValueError, match="grid"):
        transform(model, np.zeros(17))


def test_reconstruction_error_monotone_in_component_count():
    rng = np.random.default_rng(11)
    data = make_dataset(synth_sensor_curves(rng, 25)[:, None, :])
    curve = data.values[0, 0, :]
    errors = []
    for q in range(1, 7):
        model, _ = fit_sensor(data, q)
        recon = reconstruct(model, transform(model, curve))
        errors.append(np.sum((curve - recon) ** 2))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_select_num_components_single_perfect_sensor():
    assert select_num_components(np.array([[1.0, 1.0, 1.0]]), alpha=0.8, beta=0.8) == 1


def test_select_num_components_constructed_fractions():
    # 7 of 10 sensors pass 0.8 at one component, 8 of 10 at two
    fractions = [[0.85 if i < 7 else 0.5, 0.86 if i < 8 else 0.6, 1.0] for i in range(10)]
    assert select_num_components(np.array(fractions), alpha=0.8, beta=0.8) == 2


def test_select_num_components_falls_back_with_warning():
    fractions = np.tile([0.1, 0.2, 0.3], (4, 1))
    with pytest.warns(UserWarning):
        assert select_num_components(fractions, alpha=0.8, beta=0.8) == 3


def test_assemble_column_map():
    rng = np.random.default_rng(5)
    values = np.stack([synth_sensor_curves(rng, 5), synth_sensor_curves(rng, 5)], axis=1)
    models, cm = fit_fpca(make_dataset(values, names=["a", "b"]), BASIS, q_c=3)
    assert cm.q == 6 and cm.q_c == 3 and cm.sensor_names == ["a", "b"]
    # sensor-major: column s * q_c + l holds component l of sensor s
    for s, model in enumerate(models):
        block = transform(model, values[:, s, :])
        for l in range(cm.q_c):
            npt.assert_allclose(cm.scores[:, s * cm.q_c + l], block[:, l], atol=1e-12)


def test_assemble_wide():
    assert fit_fpca(make_dataset(np.zeros((4, 42, 31))), BASIS, q_c=3)[1].q == 126


@pytest.mark.parametrize("edit,message", [
    ({"values": np.zeros((2, 31))}, "values must have shape (n, p, tau)"),
    ({"times": GRID[:-1]}, "times length must match the last axis of values"),
    ({"times": GRID[::-1]}, "times must be strictly increasing"),
    ({"times": np.r_[GRID[:2], GRID[1:-1]]}, "times must be strictly increasing"),
    ({"values": np.full((2, 1, 31), np.nan)}, "values must be finite"),
    ({"values": np.full((2, 1, 31), np.inf)}, "values must be finite"),
    ({"sensor_names": ["a", "b"]}, "sensor_names length must match sensor axis"),
    ({"obs_ids": ["o1"]}, "obs_ids length must match observation axis"),
    ({"labels": [0, 1, 1]}, "labels length must match observation axis"),
], ids=["values-2d", "times-length", "times-decreasing", "times-repeated", "values-nan", "values-inf",
        "sensor-names", "obs-ids", "labels"])
def test_functional_data_set_refuses_bad_shapes_order_and_values(edit, message):
    fields = {"times": GRID, "values": np.zeros((2, 1, 31)), "sensor_names": ["a"]}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FunctionalDataSet(**{**fields, **edit})


@pytest.mark.parametrize("scores", [np.zeros(6), np.zeros((2, 3, 1))], ids=["1d", "3d"])
def test_coefficient_matrix_refuses_scores_not_2d(scores):
    with pytest.raises(ValueError, match="^scores must be 2-D$"):
        CoefficientMatrix(scores=scores, q_c=3, sensor_names=["a"])


def test_coefficient_matrix_rejects_ragged_columns():
    with pytest.raises(ValueError, match="p \\* q_c"):
        CoefficientMatrix(scores=np.zeros((5, 5)), q_c=3, sensor_names=["a", "b"])


def test_fit_fpca_pipeline_orders_columns_sensor_major():
    rng = np.random.default_rng(12)
    values = np.stack([synth_sensor_curves(rng, 18) for _ in range(3)], axis=1)
    data, _ = standardize(make_dataset(values))
    models, cm = fit_fpca(data, BASIS, q_c=2)
    assert [m.sensor for m in models] == cm.sensor_names
    assert cm.q == 6 and cm.q_c == 2
    block = transform(models[1], data.values[:, 1, :])
    npt.assert_allclose(cm.scores[:, 2:4], block, atol=1e-12)


def _oracle_sensor(curves, q_c):
    """One sensor's eigenvalues, cumulative fractions and scores, with
    np.linalg.lstsq and np.linalg.eigh on that sensor alone."""
    n = curves.shape[0]
    gram = gram_matrix(BASIS)
    coeffs = np.linalg.lstsq(design_matrix(BASIS, GRID), curves.T, rcond=None)[0].T
    centred = coeffs - coeffs.mean(axis=0)
    chol = np.linalg.cholesky(gram)
    evals, evecs = np.linalg.eigh(chol.T @ (centred.T @ centred / n) @ chol)
    evals, evecs = np.maximum(evals[::-1], 0.0), evecs[:, ::-1]
    eigen = np.linalg.solve(chol.T, evecs[:, :q_c])
    eigen *= np.sign(eigen[np.abs(eigen).argmax(axis=0), np.arange(q_c)])
    return evals, np.cumsum(evals) / evals.sum(), centred @ gram @ eigen


@pytest.mark.parametrize("q_c", [3, None])
def test_fit_fpca_matches_per_sensor_oracle(q_c):
    rng = np.random.default_rng(14)
    values = np.stack([synth_sensor_curves(rng, 40, rank=r) for r in (1, 2, 3)], axis=1)
    data, _ = standardize(make_dataset(values))
    models, cm = fit_fpca(data, BASIS, q_c=q_c)
    full = [_oracle_sensor(data.values[:, s, :], 12) for s in range(3)]
    if q_c is None:
        # the (alpha, beta) = (0.8, 0.8) rule: the smallest q at which at least
        # 80 % of the sensors explain more than 80 % of their variance
        q_c = next(q for q in range(1, 13) if np.mean([f[1][q - 1] > 0.8 for f in full]) >= 0.8)
    assert cm.q_c == q_c
    for s, (model, (evals, cumfrac, _)) in enumerate(zip(models, full)):
        _, _, scores = _oracle_sensor(data.values[:, s, :], q_c)
        npt.assert_allclose(model.eigenvalues, evals[:q_c], rtol=0, atol=1e-10)
        npt.assert_allclose(model.variance_explained, cumfrac[:q_c], rtol=0, atol=1e-10)
        npt.assert_allclose(cm.scores[:, s * q_c:(s + 1) * q_c], scores, rtol=0, atol=1e-10)
