import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from helpers import (
    align_clusters,
    fit_alone,
    grid_plus_golden,
    max_norm_minimizer,
    mean_update,
    reference_e_step,
    reference_gmm_em,
    reference_kmeans_once,
    two_separated_clouds,
)

from mfclust import em
from mfclust.em import (
    MixtureParams,
    PenaltySpec,
    _removed_sensors,
    _thresholds,
    _variances,
    adaptive_weights,
    e_step,
    initialize,
    penalized_nll,
    run_em,
)
from mfclust.fpca import CoefficientMatrix, fit_fpca
from mfclust.select import DEFAULT_GAMMA_VALUES, SearchGrid
from mfclust.simbench import BASIS, SimulationDesign, generate_dataset


def cm(X, q_c=1):
    return CoefficientMatrix.from_scores(np.asarray(X, dtype=float), q_c)


def variance_update(X, tau, means):
    """The EM's raw M-step variances for data X, responsibilities tau and means."""
    return _variances((X**2).sum(axis=0), tau.T @ X, tau.sum(axis=0), means, X.shape[0])


def unpenalized(X, tau):
    return mean_update(X, tau, np.ones(X.shape[1]), PenaltySpec("none"))


def pinned(spec, m, q, q_c=1):
    """The (m, q) mask of the means that spec pins at zero in a fit."""
    return np.broadcast_to(np.isinf(_thresholds([spec], m, q, q_c)[1]), (1, m, q))[0]


def make_params(pi, means, variances):
    return MixtureParams(
        proportions=np.asarray(pi, float),
        means=np.asarray(means, float),
        variances=np.asarray(variances, float),
    )


@pytest.mark.parametrize("field", ["proportions", "means", "variances"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mixture_params_reject_non_finite(field, value):
    fields = {"proportions": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
              "variances": np.ones(2)}
    fields[field].flat[0] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MixtureParams(**fields)


# ---------------------------------------------------------------------------
# initialization


def test_initialize_single_cluster_is_moments():
    rng = np.random.default_rng(0)
    X = rng.normal(2.0, 3.0, size=(40, 3))
    params = initialize(cm(X), 1, seed=5)
    npt.assert_allclose(params.proportions, [1.0])
    npt.assert_allclose(params.means[0], X.mean(axis=0), atol=1e-12)
    npt.assert_allclose(params.variances, X.var(axis=0), atol=1e-12)


def test_initialize_finds_separated_centers():
    rng = np.random.default_rng(1)
    X, _ = two_separated_clouds(rng, n=200, q=3, gap=10.0)
    params = initialize(cm(X), 2, seed=7)
    got = params.means[np.argsort(params.means[:, 0])]
    true = np.array([[0.0] * 3, [10.0] * 3])
    assert np.abs(got - true).max() < 0.5
    npt.assert_allclose(params.proportions.sum(), 1.0)


def test_initialize_deterministic():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 4))
    a = initialize(cm(X), 3, seed=11)
    b = initialize(cm(X), 3, seed=11)
    npt.assert_array_equal(a.means, b.means)
    npt.assert_array_equal(a.proportions, b.proportions)
    npt.assert_array_equal(a.variances, b.variances)


@pytest.mark.parametrize("m", [0, -1])
def test_initialize_rejects_m_below_one(m):
    with pytest.raises(ValueError, match="^m must be at least 1$"):
        initialize(cm(np.zeros((3, 2))), m, seed=0)


def test_initialize_rejects_m_above_n():
    with pytest.raises(em.NumericalError, match="need at least m=5 observations, got 3"):
        initialize(cm(np.zeros((3, 2))), 5, seed=0)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_once_matches_direct_distance_lloyd(seed):
    rng = np.random.default_rng(400 + seed)
    X = rng.standard_normal((80, 5)) + 2.5 * rng.integers(0, 3, size=80)[:, None]
    # two distinct rows: the third center is a duplicate and loses its members
    few = np.repeat([[0.0, 1.0], [2.0, -1.0]], 10, axis=0)
    for data, m in [(X, 1), (X, 2), (X, 3), (X, 5), (few, 3)]:
        got = em._kmeans_once(data, (data**2).sum(axis=1), m, np.random.default_rng(seed))
        want = reference_kmeans_once(data, m, np.random.default_rng(seed))
        npt.assert_array_equal(got[0], want[0])
        npt.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        npt.assert_allclose(got[2], want[2], rtol=1e-9)


def test_initialize_ignores_a_common_offset():
    # Lloyd distances are expanded as |x|^2 - 2 x.c + |c|^2; on uncentred rows
    # an offset of 1e6 over a spread of 1e-2 would round them to noise
    rng = np.random.default_rng(410)
    X = 1e-2 * (rng.standard_normal((60, 4)) + 4.0 * rng.integers(0, 3, size=60)[:, None])
    for m in (2, 3, 4):
        want = initialize(cm(X), m, seed=m)
        got = initialize(cm(X + 1e6), m, seed=m)
        npt.assert_array_equal(got.proportions, want.proportions)
        npt.assert_allclose(got.means - 1e6, want.means, rtol=0, atol=1e-8)
        npt.assert_allclose(got.variances, want.variances, rtol=1e-6)


def test_initialize_raises_on_fewer_distinct_rows_than_m():
    X = np.repeat([[0.0, 1.0], [2.0, -1.0]], 10, axis=0)
    with pytest.raises(em.NumericalError, match="empty cluster"):
        initialize(cm(X), 3, seed=0)


# ---------------------------------------------------------------------------
# E-step


def test_e_step_single_cluster():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 2))
    params = make_params([1.0], X.mean(0, keepdims=True), X.var(0))
    tau, pi = e_step(cm(X), params)
    npt.assert_allclose(tau, 1.0)
    npt.assert_allclose(pi, [1.0])


def test_e_step_symmetric_midpoint():
    X = np.array([[0.0, 0.0]])
    params = make_params([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    tau, _ = e_step(cm(X), params)
    npt.assert_allclose(tau, [[0.5, 0.5]], atol=1e-12)


def test_e_step_matches_brute_force_densities():
    # plain scores, a large common offset, then variances near the 1e-8
    # floor; the expanded quadratic loses about (offset / scale)^2 units in
    # the last place
    for offset, scale, atol in [(0.0, 1.0, 1e-12), (1e3, 1.0, 1e-9), (1.0, 1e-4, 1e-7)]:
        rng = np.random.default_rng(4)
        X = offset + scale * rng.standard_normal((5, 3))
        pi = np.array([0.2, 0.5, 0.3])
        mu = offset + scale * rng.standard_normal((3, 3))
        var = scale**2 * rng.uniform(0.5, 2.0, size=3)
        tau, pi_new = e_step(cm(X), make_params(pi, mu, var))

        def density(x, mean):
            z = (x - mean) ** 2 / var
            return np.exp(-0.5 * z.sum()) / np.sqrt((2 * np.pi) ** 3 * np.prod(var))

        expected = np.empty((5, 3))
        for i in range(5):
            joint = np.array([pi[k] * density(X[i], mu[k]) for k in range(3)])
            expected[i] = joint / joint.sum()
        npt.assert_allclose(tau, expected, rtol=0, atol=atol)
        npt.assert_allclose(pi_new, expected.mean(axis=0), rtol=0, atol=atol)


def test_overflowing_scaled_squares_raise_numerical_error():
    # every x^2 is finite, but sum_j x_ij^2 / sigma2_j overflows
    rng = np.random.default_rng(31)
    B = cm(1e150 * rng.standard_normal((6, 3)))
    params = make_params([0.5, 0.5], np.zeros((2, 3)), np.full(3, 1e-10))
    with pytest.raises(em.NumericalError):
        e_step(B, params)
    with pytest.raises(em.NumericalError):
        penalized_nll(B, params, PenaltySpec("none"))
    (fit,) = run_em(B, [PenaltySpec("none")], params)
    assert isinstance(fit, em.NumericalError)


def test_e_step_rows_and_proportions_normalized():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    params = initialize(cm(X), 3, seed=1)
    tau, pi = e_step(cm(X), params)
    npt.assert_allclose(tau.sum(axis=1), 1.0, atol=1e-10)
    npt.assert_allclose(pi.sum(), 1.0, atol=1e-10)
    assert np.all(tau >= 0) and np.all(tau <= 1)


@pytest.mark.parametrize("m", [1, 2, 6, 8, 9])
def test_log_joint_lanes_match_alone_and_a_plain_log_sum_exp(m):
    # from m = 8 on numpy sums a contiguous axis in 8 partial sums, so the
    # cluster axis's layout shows there
    rng = np.random.default_rng(60 + m)
    n, q, L = 40, 4, 5
    X = rng.standard_normal((n, q))
    Xsq_colsum = (X**2).sum(axis=0)
    pi = rng.dirichlet(np.ones(m), size=L)
    means = rng.standard_normal((L, m, q))
    var = rng.uniform(0.5, 2.0, size=(L, q))
    tau, nll, failed = em._log_joint(X, Xsq_colsum, pi, means, var)
    assert tau.shape == (L, n, m) and tau.flags.c_contiguous
    assert not failed.any()
    npt.assert_allclose(tau.sum(axis=2), 1.0, rtol=0, atol=1e-15)
    for lane in range(L):
        one = slice(lane, lane + 1)
        alone = em._log_joint(X, Xsq_colsum, pi[one], means[one], var[one])
        assert np.array_equal(tau[lane], alone[0][0]) and (nll[lane], failed[lane]) == (alone[1][0], alone[2][0])
        if m == 9:
            ref_tau, ref_nll = reference_e_step(X, pi[lane], means[lane], var[lane])
            npt.assert_allclose(tau[lane], ref_tau, rtol=1e-12, atol=0)
            npt.assert_allclose(nll[lane], ref_nll, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# M-step: variances and unpenalized means


def test_update_variances_single_cluster_is_mle():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((25, 3)) * np.array([1.0, 2.0, 0.5])
    tau = np.ones((25, 1))
    sigma2 = variance_update(X, tau, X.mean(0, keepdims=True))
    npt.assert_allclose(sigma2, X.var(axis=0), atol=1e-12)


def test_update_variances_one_hot_pooled():
    rng = np.random.default_rng(7)
    X, labels = two_separated_clouds(rng, n=50, q=2, gap=6.0)
    tau = np.eye(2)[labels]
    mu = np.vstack([X[labels == k].mean(0) for k in range(2)])
    sigma2 = variance_update(X, tau, mu)
    expected = sum(((X[labels == k] - mu[k]) ** 2).sum(0) for k in range(2)) / 50
    npt.assert_allclose(sigma2, expected, atol=1e-12)


def test_update_variances_floors_degenerate():
    B = cm(np.full((10, 2), 3.0))
    init = initialize(B, 1, seed=0)
    with pytest.warns(UserWarning, match="floored"):
        sigma2 = fit_alone(B, PenaltySpec("none"), init).params.variances
    npt.assert_allclose(sigma2, 1e-8)


def test_unpenalized_means_cases():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 2))
    npt.assert_allclose(unpenalized(X, np.ones((4, 1))), X.mean(0, keepdims=True))

    tau = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
    npt.assert_allclose(
        unpenalized(X, tau), np.vstack([X[:2].mean(0), X[2:].mean(0)]), atol=1e-12
    )

    tau = rng.uniform(0.1, 1.0, size=(4, 2))
    tau /= tau.sum(axis=1, keepdims=True)
    expected = np.vstack([
        (tau[:, 0:1] * X).sum(0) / tau[:, 0].sum(),
        (tau[:, 1:2] * X).sum(0) / tau[:, 1].sum(),
    ])
    npt.assert_allclose(unpenalized(X, tau), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# M-step: individual penalty


def test_individual_lambda_zero_is_unpenalized():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 3))
    tau = rng.uniform(0.1, 1, size=(20, 2))
    tau /= tau.sum(axis=1, keepdims=True)
    spec = PenaltySpec("individual", 0.0)
    got = mean_update(X, tau, np.ones(3), spec)
    npt.assert_array_equal(got, unpenalized(X, tau))


def test_individual_zero_condition():
    X = np.array([[0.1], [-0.05], [0.02]])
    tau = np.ones((3, 1))
    s_abs = abs(X.sum())
    spec = PenaltySpec("individual", s_abs / 1.0 + 1.0)  # lam * w * sigma2 >= |sum|
    got = mean_update(X, tau, np.ones(1), spec)
    assert got[0, 0] == 0.0


def test_individual_scalar_case_and_oracle():
    X = np.array([[1.0], [2.0], [3.0]])
    tau = np.ones((3, 1))
    spec = PenaltySpec("individual", 2.0)
    got = mean_update(X, tau, np.ones(1), spec)
    npt.assert_allclose(got, [[4.0 / 3.0]], atol=1e-12)

    def objective(mu):
        return 0.5 * ((X[:, 0] - mu) ** 2).sum() + 2.0 * abs(mu)

    best = grid_plus_golden(objective, -5, 5)
    assert objective(got[0, 0]) <= objective(best) + 1e-10


@pytest.mark.parametrize("case", range(6))
def test_individual_matches_numeric_minimizer(case):
    rng = np.random.default_rng(100 + case)
    n = 12
    b = rng.normal(rng.uniform(-2, 2), 1.5, size=n)
    tau_k = rng.uniform(0.05, 1.0, size=n)
    sigma2 = rng.uniform(0.3, 2.0)
    w = rng.uniform(0.2, 3.0)
    lam = rng.uniform(0.1, 8.0)

    X = b[:, None]
    tau = np.column_stack([tau_k, 1 - tau_k])
    spec = PenaltySpec(kind="individual", lam=lam, weights=np.array([[w], [w]]))
    got = mean_update(X, tau, np.array([sigma2]), spec)[0, 0]

    def objective(mu):
        return 0.5 * (tau_k * (b - mu) ** 2).sum() / sigma2 + lam * w * abs(mu)

    best = grid_plus_golden(objective, -6, 6)
    assert objective(got) <= objective(best) + 1e-6


def test_individual_optimality_conditions():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((30, 4)) + 1.0
    tau = rng.uniform(0.01, 1, size=(30, 3))
    tau /= tau.sum(axis=1, keepdims=True)
    sigma2 = rng.uniform(0.5, 1.5, size=4)
    spec = PenaltySpec("individual", 6.0)
    mu = mean_update(X, tau, sigma2, spec)

    S = tau.T @ X
    T = tau.sum(axis=0)
    for k in range(3):
        for j in range(4):
            if mu[k, j] != 0.0:
                # stationarity: S/T = (lam*w/T + |mu|) * sign(mu)
                lhs = S[k, j] / T[k]
                rhs = (6.0 * sigma2[j] / T[k] + abs(mu[k, j])) * np.sign(mu[k, j])
                assert abs(lhs - rhs) < 1e-8
            else:
                assert abs(S[k, j]) / sigma2[j] <= 6.0 + 1e-8


def test_individual_shrinkage_dominated_by_unpenalized():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((25, 3))
    tau = rng.uniform(0.01, 1, size=(25, 2))
    tau /= tau.sum(axis=1, keepdims=True)
    spec = PenaltySpec("individual", 2.0)
    mu = mean_update(X, tau, np.ones(3), spec)
    mu_tilde = unpenalized(X, tau)
    assert np.all(np.abs(mu) <= np.abs(mu_tilde) + 1e-12)
    nz = mu != 0
    assert np.all(np.sign(mu[nz]) == np.sign(mu_tilde[nz]))


# ---------------------------------------------------------------------------
# M-step: variable penalty


def test_variable_lambda_zero_is_unpenalized():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 3))
    tau = rng.uniform(0.1, 1, size=(20, 2))
    tau /= tau.sum(axis=1, keepdims=True)
    spec = PenaltySpec("variable", 0.0)
    got = mean_update(X, tau, np.ones(3), spec)
    npt.assert_array_equal(got, unpenalized(X, tau))


def test_variable_thresholds_only_argmax():
    rng = np.random.default_rng(13)
    n = 40
    labels = np.repeat([0, 1], n // 2)
    X = np.where(labels[:, None] == 0, 5.0, 1.0) + rng.normal(0, 0.01, size=(n, 1))
    tau = np.eye(2)[labels]
    spec = PenaltySpec("variable", 4.0)
    mu_tilde = unpenalized(X, tau)
    got = mean_update(X, tau, np.ones(1), spec)
    # only cluster 0 lies above the clipping level: soft thresholded by lam*w*sigma2/T = 4/20
    npt.assert_allclose(got[0, 0], mu_tilde[0, 0] - 4.0 / 20.0, atol=1e-12)
    npt.assert_allclose(got[1, 0], mu_tilde[1, 0], atol=1e-12)


def test_variable_tie_shrinks_every_tied_cluster():
    X = np.array([[2.0], [-2.0]])
    tau = np.eye(2)
    spec = PenaltySpec("variable", 0.5)
    got = mean_update(X, tau, np.ones(1), spec)
    # both clusters clip at the level c with (2 - c) + (2 - c) = 0.5
    npt.assert_allclose(got, [[1.75], [-1.75]], atol=1e-12)

    def objective(mu):
        return 0.5 * ((mu - X[:, 0]) ** 2).sum() + 0.5 * np.abs(mu).max()

    best = max_norm_minimizer(objective, X[:, 0])
    npt.assert_allclose(got[:, 0], best, atol=1e-6)


def test_variable_zeroed_max_removes_whole_column():
    rng = np.random.default_rng(14)
    X = rng.normal(0.05, 0.01, size=(30, 1))
    tau = np.eye(2)[np.repeat([0, 1], 15)]
    spec = PenaltySpec("variable", 10.0)
    got = mean_update(X, tau, np.ones(1), spec)
    npt.assert_array_equal(got, np.zeros((2, 1)))


def test_variable_weights_are_per_column():
    ref = np.array([[0.5, 0.0, -2.0], [-1.5, 0.0, 1.0]])
    spec = PenaltySpec("variable", 2.0, 1.0, adaptive_weights("variable", 1.0, ref))
    npt.assert_allclose(spec.weights_for(2, 3), [1 / 1.5, np.inf, 1 / 2.0])
    npt.assert_array_equal(pinned(spec, 2, 3), [[False, True, False], [False, True, False]])
    npt.assert_array_equal(PenaltySpec("variable", 2.0).weights_for(2, 3), np.ones(3))
    means = np.array([[1.0, 0.0, 0.5], [-3.0, 0.0, -0.25]])
    # lam * sum_j w_j max_k |mu_kj|; the pinned zero column adds nothing
    npt.assert_allclose(em.penalty_value(means, spec, 1), 2.0 * (3.0 / 1.5 + 0.5 / 2.0))
    with pytest.raises(ValueError, match="weights shape"):
        PenaltySpec(kind="variable", lam=1.0, weights=np.ones((2, 3))).weights_for(2, 3)


@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_penalty_value_is_the_formula_of_its_kind(kind):
    # m = 2 clusters of p = 2 sensors with q_c = 2 columns each; an all-zero
    # entry, column or cluster under an infinite weight adds 0, without a warning
    rng = np.random.default_rng(38)
    m, q, q_c, lam = 2, 4, 2, 1.5
    means = rng.normal(size=(m, q))
    if kind == "individual":
        weights = rng.uniform(0.5, 2.0, size=(m, q))
        means[1, 2], weights[1, 2] = 0.0, np.inf
        zero = np.zeros((m, q), dtype=bool)
        zero[1, 2] = True
        expected = lam * sum(w * abs(mu) for w, mu in zip(weights[~zero], means[~zero]))
    elif kind == "variable":
        weights = rng.uniform(0.5, 2.0, size=q)
        means[:, 1], weights[1] = 0.0, np.inf
        zero = np.zeros((m, q), dtype=bool)
        zero[:, 1] = True
        expected = lam * sum(weights[j] * np.abs(means[:, j]).max() for j in (0, 2, 3))
    else:
        weights = rng.uniform(0.5, 2.0, size=m)
        means[1], weights[1] = 0.0, np.inf
        zero = np.zeros((m, q), dtype=bool)
        zero[1] = True
        blocks = means[0].reshape(-1, q_c)
        expected = lam * np.sqrt(q_c) * weights[0] * sum(np.linalg.norm(block) for block in blocks)
    spec = PenaltySpec(kind, lam, 1.0, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        npt.assert_allclose(em.penalty_value(means, spec, q_c), expected, rtol=1e-14)
    _, thr = _thresholds([spec], m, q, q_c)
    assert thr.ndim == 3 and np.broadcast_shapes(thr.shape, (1, m, q)) == (1, m, q)
    npt.assert_array_equal(pinned(spec, m, q, q_c), zero)


@pytest.mark.parametrize("case", range(4))
def test_variable_argmax_update_matches_numeric_minimizer(case):
    # the update minimizes the full column objective over all three
    # clusters, not only the argmax coordinate
    rng = np.random.default_rng(200 + case)
    n, m = 12, 3
    b = rng.normal(3.0, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    tau = rng.uniform(0.05, 1.0, size=(n, m))
    tau /= tau.sum(axis=1, keepdims=True)
    sigma2 = rng.uniform(0.5, 2.0)
    w = rng.uniform(0.5, 2.0)
    lam = rng.uniform(0.1, 4.0)
    spec = PenaltySpec(kind="variable", lam=lam, weights=np.array([w]))
    got = mean_update(b[:, None], tau, np.array([sigma2]), spec)[:, 0]

    def objective(mu):
        return 0.5 * (tau * (b[:, None] - mu) ** 2).sum() / sigma2 + lam * w * np.abs(mu).max()

    best = max_norm_minimizer(objective, tau.T @ b / tau.sum(axis=0))
    assert objective(got) <= objective(best) + 1e-6
    npt.assert_allclose(got, best, atol=1e-6)


# ---------------------------------------------------------------------------
# M-step: group penalty


def test_group_lambda_zero_is_unpenalized():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((20, 6))
    tau = rng.uniform(0.1, 1, size=(20, 2))
    tau /= tau.sum(axis=1, keepdims=True)
    spec = PenaltySpec("group", 0.0)
    got = mean_update(X, tau, np.ones(6), spec, q_c=3)
    npt.assert_array_equal(got, unpenalized(X, tau))


def test_group_zero_condition_exact_zero_block():
    rng = np.random.default_rng(16)
    X = rng.normal(0.0, 0.1, size=(30, 3))
    tau = np.ones((30, 1))
    sigma2 = np.ones(3)
    score_norm = np.linalg.norm(X.sum(axis=0) / sigma2)
    lam = score_norm / np.sqrt(3) + 0.5
    spec = PenaltySpec("group", lam)
    got = mean_update(X, tau, sigma2, spec, q_c=3)
    npt.assert_array_equal(got, np.zeros((1, 3)))
    # and the zero condition is tight: slightly smaller lam keeps the block
    spec2 = PenaltySpec("group", score_norm / np.sqrt(3) - 0.01)
    got2 = mean_update(X, tau, sigma2, spec2, q_c=3)
    assert np.linalg.norm(got2) > 0


@pytest.mark.parametrize("case", range(4))
def test_group_scalar_fixed_point_matches_numeric_minimizer(case):
    rng = np.random.default_rng(300 + case)
    n = 15
    b = rng.normal(1.5, 1.0, size=n)
    tau_k = rng.uniform(0.05, 1.0, size=n)
    sigma2 = rng.uniform(0.4, 1.6)
    w = rng.uniform(0.3, 2.0)
    lam = rng.uniform(0.1, 5.0)
    X = b[:, None]
    tau = np.column_stack([tau_k, 1 - tau_k])
    spec = PenaltySpec(kind="group", lam=lam, weights=np.array([w, w]))

    # the update is exact: one call gives the minimizer (q_c = 1)
    got = mean_update(X, tau, np.array([sigma2]), spec, q_c=1)[0, 0]

    def objective(x):
        return 0.5 * (tau_k * (b - x) ** 2).sum() / sigma2 + lam * w * abs(x)

    best = grid_plus_golden(objective, -6, 6)
    assert objective(got) <= objective(best) + 1e-6


def test_group_fixed_point_satisfies_stationarity_q3():
    rng = np.random.default_rng(17)
    n = 25
    X = rng.normal(0.8, 1.0, size=(n, 3))
    tau_k = rng.uniform(0.05, 1.0, size=n)
    tau = np.column_stack([tau_k, 1 - tau_k])
    sigma2 = rng.uniform(0.5, 1.5, size=3)
    lam, w = 2.0, 0.7
    spec = PenaltySpec(kind="group", lam=lam, weights=np.array([w, w]))

    # the update is exact: one call gives the block minimizer
    mu = mean_update(X, tau, sigma2, spec, q_c=3)

    S = tau.T @ X
    T = tau.sum(axis=0)
    for k in range(2):
        block = mu[k]
        if np.all(block == 0):
            assert np.linalg.norm(S[k] / sigma2) <= lam * w * np.sqrt(3) + 1e-8
        else:
            lhs = (S[k] - T[k] * block) / sigma2
            rhs = lam * w * np.sqrt(3) * block / np.linalg.norm(block)
            npt.assert_allclose(lhs, rhs, atol=1e-6)


# ---------------------------------------------------------------------------
# objective


def test_penalized_nll_single_gaussian():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((12, 3))
    mu = X.mean(0, keepdims=True)
    var = X.var(0)
    value = penalized_nll(cm(X), make_params([1.0], mu, var), PenaltySpec("none"))
    expected = 0.5 * (
        12 * 3 * np.log(2 * np.pi) + 12 * np.log(var).sum() + (((X - mu) ** 2) / var).sum()
    )
    npt.assert_allclose(value, expected, atol=1e-10)


def test_penalized_nll_translation_invariance_of_likelihood():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((15, 2))
    params = initialize(cm(X), 2, seed=3)
    shift = np.array([3.0, -1.0])
    shifted = make_params(params.proportions, params.means + shift, params.variances)
    a = penalized_nll(cm(X), params, PenaltySpec("none"))
    b = penalized_nll(cm(X + shift), shifted, PenaltySpec("none"))
    npt.assert_allclose(a, b, atol=1e-9)


def test_penalized_nll_matches_brute_force():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((4, 2))
    pi = np.array([0.3, 0.7])
    mu = rng.standard_normal((2, 2))
    var = rng.uniform(0.5, 1.5, size=2)
    spec = PenaltySpec("individual", 1.5)
    value = penalized_nll(cm(X), make_params(pi, mu, var), spec)

    def density(x, mean):
        z = (x - mean) ** 2 / var
        return np.exp(-0.5 * z.sum()) / np.sqrt((2 * np.pi) ** 2 * np.prod(var))

    loglik = sum(np.log(sum(pi[k] * density(X[i], mu[k]) for k in range(2))) for i in range(4))
    pen = 1.5 * np.abs(mu).sum()
    npt.assert_allclose(value, -loglik + pen, atol=1e-10)


# ---------------------------------------------------------------------------
# full EM


def test_run_em_matches_reference_on_separated_data(monkeypatch):
    monkeypatch.setattr(em, "_STEP_TOL", 1e-10)
    monkeypatch.setattr(em, "_MAP_CAP", 3000)
    rng = np.random.default_rng(21)
    X, _ = two_separated_clouds(rng, n=100, q=4, gap=8.0)
    B = cm(X)
    init = initialize(B, 2, seed=9)
    fit = fit_alone(B, PenaltySpec("none"), init)
    pi_ref, mu_ref, var_ref = reference_gmm_em(
        X, init.proportions, init.means, init.variances, tol=1e-10
    )
    perm = align_clusters(mu_ref, fit.params.means)
    npt.assert_allclose(fit.params.means[perm], mu_ref, atol=1e-6)
    npt.assert_allclose(fit.params.proportions[perm], pi_ref, atol=1e-6)
    npt.assert_allclose(fit.params.variances, var_ref, atol=1e-6)
    assert fit.converged


def test_run_em_single_cluster_is_mle():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((30, 3))
    B = cm(X)
    fit = fit_alone(B, PenaltySpec("none"), initialize(B, 1, seed=0))
    npt.assert_allclose(fit.params.means[0], X.mean(0), atol=1e-10)
    npt.assert_allclose(fit.params.variances, X.var(0), atol=1e-10)
    assert fit.converged and fit.iterations <= 2


def test_run_em_group_penalty_removes_noise_sensors():
    rng = np.random.default_rng(23)
    n = 120
    labels = rng.integers(0, 2, size=n)
    signal = np.where(labels[:, None] == 0, -2.0, 2.0) + rng.normal(0, 0.7, size=(n, 2))
    noise = rng.normal(0, 1.0, size=(n, 4))
    B = CoefficientMatrix.from_scores(np.hstack([signal, noise]), q_c=2)
    spec = PenaltySpec("group", 2.0 * n ** (1 / 3))
    fit = fit_alone(B, spec, initialize(B, 2, seed=4))
    assert fit.converged
    assert fit.removed_sensors == {"s01", "s02"}
    assert fit.n_zero_means >= 8


@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_run_em_lambda_zero_same_for_all_penalties(kind):
    rng = np.random.default_rng(24)
    X, _ = two_separated_clouds(rng, n=60, q=4, gap=6.0)
    B = cm(X, q_c=2)
    init = initialize(B, 2, seed=2)
    base = fit_alone(B, PenaltySpec("none"), init)
    spec = PenaltySpec(kind, 0.0)
    fit = fit_alone(B, spec, init)
    npt.assert_allclose(fit.params.means, base.params.means, atol=1e-12)
    npt.assert_allclose(fit.params.variances, base.params.variances, atol=1e-12)


@pytest.mark.parametrize(
    "kind,lam", [("none", 0.0), ("individual", 5.0), ("variable", 5.0), ("group", 5.0)]
)
def test_run_em_objective_monotone(kind, lam):
    rng = np.random.default_rng(25)
    X, _ = two_separated_clouds(rng, n=80, q=4, gap=3.0)
    B = cm(X, q_c=2)
    spec = PenaltySpec(kind, lam)
    fit = fit_alone(B, spec, initialize(B, 2, seed=6))
    assert fit.max_objective_rise <= 1e-8


def collapsing_start():
    """Unstructured data, so fits from different seeds end at different
    points, and a start whose third component sits far from every point,
    so it gets no mass."""
    rng = np.random.default_rng(30)
    X = rng.standard_normal((60, 3))
    center = X.mean(axis=0)
    far = make_params(np.ones(3) / 3, [center, center + 0.5, center + 1e3], X.var(axis=0))
    return cm(X), far


def test_run_em_reports_collapse_without_restarting(monkeypatch):
    B, far = collapsing_start()

    def no_initialize(*args):
        raise AssertionError("initialize called although a start was given")

    monkeypatch.setattr(em, "initialize", no_initialize)
    fit = fit_alone(B, PenaltySpec("none"), far)
    assert not fit.converged and fit.stop_reason == "collapsed"
    assert fit.iterations < 500
    assert fit.responsibilities.sum(axis=0).min() <= 1e-12


def test_run_em_collapses_where_the_returned_point_empties_a_cluster():
    # every map's input keeps each cluster's mass above 1e-12, but the point
    # returned after the 12th map leaves one cluster with 2.6e-13
    _, B = fit_fpca(generate_dataset(SimulationDesign(n=50, seed=1000)), BASIS, q_c=3)
    fit = fit_alone(B, PenaltySpec("group", 0.5 * 50 ** (1 / 3)), initialize(B, 4, 1005))
    assert fit.stop_reason == "collapsed" and fit.iterations == 12
    assert fit.responsibilities.sum(axis=0).min() <= 1e-12


def test_run_em_deterministic():
    rng = np.random.default_rng(26)
    X = rng.standard_normal((50, 4))
    B = cm(X, q_c=2)
    spec = PenaltySpec("group", 3.0)
    a = fit_alone(B, spec, initialize(B, 2, seed=13))
    b = fit_alone(B, spec, initialize(B, 2, seed=13))
    npt.assert_array_equal(a.params.means, b.params.means)
    assert a.iterations == b.iterations


def test_relabeling_leaves_objective_and_bookkeeping_unchanged():
    rng = np.random.default_rng(27)
    X, _ = two_separated_clouds(rng, n=60, q=4, gap=5.0)
    B = cm(X, q_c=2)
    spec = PenaltySpec("group", 4.0)
    fit = fit_alone(B, spec, initialize(B, 2, seed=1))
    perm = [1, 0]
    permuted = MixtureParams(
        proportions=fit.params.proportions[perm],
        means=fit.params.means[perm],
        variances=fit.params.variances,
    )
    spec_perm = PenaltySpec(kind="group", lam=spec.lam, weights=spec.weights_for(2, 4)[perm])
    a = penalized_nll(B, fit.params, spec)
    b = penalized_nll(B, permuted, spec_perm)
    npt.assert_allclose(a, b, atol=1e-10)
    assert int(permuted.zero_mask.sum()) == fit.n_zero_means
    assert _removed_sensors(permuted.zero_mask, B.sensor_names, B.q_c) == fit.removed_sensors


def test_hard_labels_are_argmax_with_low_index_ties():
    rng = np.random.default_rng(28)
    X, _ = two_separated_clouds(rng, n=40, q=3, gap=7.0)
    B = cm(X)
    fit = fit_alone(B, PenaltySpec("none"), initialize(B, 2, seed=3))
    npt.assert_array_equal(fit.hard_labels, fit.responsibilities.argmax(axis=1))


def test_pinned_entries_stay_zero():
    # clouds at -3 and 3: the low cluster's pinned means have G < 0, where
    # an infinite threshold alone would give -0.0; the output bytes need +0.0
    rng = np.random.default_rng(29)
    X, _ = two_separated_clouds(rng, n=60, q=4, gap=6.0)
    B = cm(X - 3.0, q_c=2)
    init = initialize(B, 2, seed=5)
    low = int(init.means[:, 0].argmin())
    # a zero reference column and a zero reference cluster pin means of every kind
    ref = np.ones((2, 4))
    ref[:, 0] = 0.0
    ref[low] = 0.0
    for kind, n_pinned in (("individual", 5), ("variable", 2), ("group", 4)):
        spec = PenaltySpec(kind, 1.0, 1.0, adaptive_weights(kind, 1.0, ref))
        mask = pinned(spec, 2, 4, q_c=2)
        assert mask[low, 0] and mask.sum() == n_pinned, kind
        fit = fit_alone(B, spec, init)
        assert fit.converged, kind
        npt.assert_array_equal(fit.params.means[mask], 0.0)
        assert not np.signbit(fit.params.means[mask]).any(), kind
        # at lam = 0 the weights do not matter: nothing is pinned
        unpenalized = dataclasses.replace(spec, lam=0.0)
        assert not pinned(unpenalized, 2, 4, q_c=2).any()
        assert fit_alone(B, unpenalized, init).params.means.all(), kind


def test_run_em_stop_reason_max_iter(monkeypatch):
    rng = np.random.default_rng(32)
    X, _ = two_separated_clouds(rng, n=60, q=4, gap=3.0)
    B, spec = cm(X, q_c=2), PenaltySpec("group", 1.0)
    init = initialize(B, 2, seed=1)
    start = penalized_nll(B, init, spec)
    for cap in (1, 2):
        monkeypatch.setattr(em, "_MAP_CAP", cap)
        fit = fit_alone(B, spec, init)
        assert fit.stop_reason == "max_iter" and not fit.converged
        assert fit.iterations == cap
        # one cycle started, at the start point: the rise is the objective's
        # change from there to the returned point, here a descent
        assert fit.max_objective_rise == fit.penalized_nll - start < 0


@pytest.mark.parametrize("kind,ref", [
    ("individual", [[1e-100, 1.0]]),
    ("variable", [[1e-100, 1.0]]),
    ("group", [[1e-100, 0.0], [1.0, 0.0]]),
], ids=["individual", "variable", "group"])
def test_an_overflowing_adaptive_weight_is_infinite_without_a_warning(kind, ref):
    # 1e-100 ** -4 is past the float range: the weight is infinite, as for a
    # reference of exactly zero, and numpy's overflow warning is not raised
    weights = adaptive_weights(kind, 4.0, ref)
    assert weights.flat[0] == np.inf
    npt.assert_array_equal(weights.flat[1:], 1.0)


@pytest.mark.parametrize("spec,q,q_c", [
    (PenaltySpec("individual", 1e10, 1.0, [[1e300, 1.0]]), 2, 1),
    (PenaltySpec("group", 1.0, 1.0, [1e308]), 4, 4),  # the product with sqrt(q_c) overflows
], ids=["individual", "group"])
def test_an_overflowing_threshold_is_infinite_without_a_warning(spec, q, q_c):
    kind, thr = _thresholds([spec], 1, q, q_c)
    assert kind == spec.kind and thr.flat[0] == np.inf


@pytest.mark.parametrize("field,value", [
    ("lam", np.inf), ("lam", np.nan), ("lam", -1.0), ("gamma", np.inf), ("gamma", np.nan),
])
def test_penalty_spec_refuses_a_non_finite_or_negative_strength(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite, got {value}$"):
        PenaltySpec("individual", **{field: value})


@pytest.mark.parametrize("kind,lam,message", [
    ("ridge", 0.0, "unknown penalty kind 'ridge'"),
    ("Group", 1.0, "unknown penalty kind 'Group'"),
    ("none", 1.0, "kind 'none' requires lam == 0"),
])
def test_penalty_spec_refuses_an_unknown_kind_or_a_penalized_none(kind, lam, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PenaltySpec(kind, lam)


@pytest.mark.parametrize("kind,weights", [
    ("individual", np.full((2, 6), np.nan)),
    ("variable", [np.nan, 1, 1, 1, 1, 1]),
    ("group", [np.nan, 1]),
    ("group", [-1.0, 1]),
])
def test_penalty_spec_refuses_a_nan_or_negative_weight(kind, weights):
    # NaN compares false with 0, so a check for w < 0 alone lets it through to the fit
    with pytest.raises(ValueError, match="^weights must be nonnegative and not NaN$"):
        PenaltySpec(kind, 1.0, weights=np.asarray(weights, dtype=float))


def test_run_em_names_a_start_of_the_wrong_shape(monkeypatch):
    rng = np.random.default_rng(33)
    X, _ = two_separated_clouds(rng, n=40, q=4, gap=3.0)
    start = initialize(cm(X), 2, 0)
    monkeypatch.setattr(em, "_em_attempt", lambda *args: pytest.fail("EM ran from a start of the wrong shape"))
    with pytest.raises(ValueError, match=re.escape("the start has (m, q) = (2, 4), the fit has q = 2")):
        run_em(cm(X[:, :2]), [PenaltySpec("none")], start)


def test_run_em_refuses_a_bare_spec_before_any_em_work(monkeypatch):
    rng = np.random.default_rng(33)
    X, _ = two_separated_clouds(rng, n=40, q=4, gap=3.0)
    B = cm(X)
    start = initialize(B, 2, 0)
    monkeypatch.setattr(em, "_em_attempt", lambda *args: pytest.fail("EM ran on a bare spec"))
    with pytest.raises(TypeError, match=re.escape("pass one spec as [spec]")):
        run_em(B, PenaltySpec("none"), start)


# ---------------------------------------------------------------------------
# lanes: one run_em call over a stack of specs


def assert_same_fit(lane, alone):
    """A lane of a stacked fit against the same spec fitted alone."""
    assert lane.iterations == alone.iterations
    assert lane.stop_reason == alone.stop_reason
    assert lane.n_zero_means == alone.n_zero_means
    assert lane.removed_sensors == alone.removed_sensors
    npt.assert_array_equal(lane.params.proportions, alone.params.proportions)
    npt.assert_array_equal(lane.params.means, alone.params.means)
    npt.assert_array_equal(lane.params.variances, alone.params.variances)
    npt.assert_array_equal(lane.responsibilities, alone.responsibilities)
    assert lane.penalized_nll == alone.penalized_nll
    assert lane.plain_nll == alone.plain_nll
    assert lane.max_objective_rise == alone.max_objective_rise


def far_third_cluster():
    """Two clouds over two sensors of two columns each, and a start whose
    third cluster sits at 1e3 in column 0, so it has no mass there."""
    rng = np.random.default_rng(31)
    X, _ = two_separated_clouds(rng, n=60, q=4, gap=4.0)
    B = cm(X, q_c=2)
    start = initialize(B, 2, seed=0)
    means = np.vstack([start.means, [1e3, 0.0, 0.0, 0.0]])
    return B, make_params(np.ones(3) / 3, means, start.variances)


@pytest.mark.parametrize("cap", [11, 12])
@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_lanes_match_their_fits_alone(monkeypatch, kind, cap):
    monkeypatch.setattr(em, "_MAP_CAP", cap)
    B, far = far_third_cluster()
    # exact zeros in column 0 and cluster 2 pin the third cluster's column-0
    # mean (individual), column 0 (variable) or the whole cluster (group),
    # which brings it back to the data: only the unit-weight lane collapses
    ref = np.ones((3, 4))
    ref[:, 0] = 0.0
    ref[2] = 0.0
    weights = adaptive_weights(kind, 1.0, ref)
    specs = [PenaltySpec(kind, 1.0)] + [PenaltySpec(kind, lam, 1.0, weights) for lam in (0.5, 2.0, 1e6)]
    fits = run_em(B, specs, far)
    for spec, fit in zip(specs, fits):
        assert_same_fit(fit, fit_alone(B, spec, far))
    assert [f.stop_reason for f in fits] == ["collapsed", "max_iter", "max_iter", "converged"]
    assert fits[0].iterations == 0
    assert all(f.params.means[2, 0] == 0.0 for f in fits[1:])
    assert fits[3].n_zero_means == 12 and fits[3].removed_sensors == {"s00", "s01"}


@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_lanes_of_a_lambda_grid_match_their_fits_alone(kind):
    rng = np.random.default_rng(34)
    X, _ = two_separated_clouds(rng, n=80, q=6, gap=2.5)
    B = cm(X, q_c=2)
    init = initialize(B, 3, seed=2)
    lambdas = [c * 80 ** (1 / 3) for c in (0.5, 1.0, 2.0, 5.0, 10.0)]
    pilot = [PenaltySpec(kind, lam) for lam in lambdas]
    reference = fit_alone(B, pilot[1], init).params.means
    weights = adaptive_weights(kind, 1.0, reference)
    specs = pilot + [PenaltySpec(kind, lam, 1.0, weights) for lam in lambdas]
    fits = run_em(B, specs, init)
    for spec, fit in zip(specs, fits):
        assert_same_fit(fit, fit_alone(B, spec, init))
    assert len({f.iterations for f in fits}) > 1


def test_lane_state_memory_per_lane():
    # one adaptive phase of the default grid, 4 gammas x 9 lambdas > 0, at
    # n = 50, m = 6 and 18 sensors of 3 components: a lane carries its point,
    # one SQUAREM anchor and the E-step's G and T, never its (n, m)
    # responsibilities, which keeps the peak near 35,500 bytes per lane
    _, B = fit_fpca(generate_dataset(SimulationDesign(n=50, seed=0)), BASIS, q_c=3)
    init = initialize(B, 6, seed=1)
    lambdas = SearchGrid().lambdas(B.n)[1:]
    reference = fit_alone(B, PenaltySpec("variable", lambdas[2]), init).params.means
    specs = [PenaltySpec("variable", lam, gamma, adaptive_weights("variable", gamma, reference))
             for gamma in DEFAULT_GAMMA_VALUES for lam in lambdas]
    tracemalloc.start()
    try:
        fits = run_em(B, specs, init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(specs) == 36 and B.q == 54
    assert all(isinstance(fit, em.FitResult) for fit in fits)
    assert peak < 38_500 * len(specs)


@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_a_failed_lane_leaves_the_others(kind):
    # means of 1e160 overflow in mu^2 / sigma2, so every cluster density of
    # every row underflows, except in the lane whose means are all pinned to 0
    rng = np.random.default_rng(35)
    X, _ = two_separated_clouds(rng, n=40, q=4, gap=4.0)
    B = cm(X, q_c=2)
    huge = make_params([0.5, 0.5], np.full((2, 4), 1e160), np.ones(4))
    specs = [
        PenaltySpec(kind, 1.0),
        PenaltySpec(kind, 1.0, 1.0, adaptive_weights(kind, 1.0, np.zeros((2, 4)))),
        PenaltySpec(kind, 3.0),
    ]
    fits = run_em(B, specs, huge)
    for i in (0, 2):
        assert isinstance(fits[i], em.NumericalError)
        assert str(fits[i]) == "all cluster densities underflowed for some observation"
        (alone,) = run_em(B, [specs[i]], huge)
        assert isinstance(alone, em.NumericalError) and re.search("underflowed", str(alone))
    assert_same_fit(fits[1], fit_alone(B, specs[1], huge))
    assert fits[1].params.zero_mask.all()


@pytest.mark.parametrize("kind", ["individual", "variable", "group"])
def test_lambda_zero_lanes_match_the_unpenalized_fit(kind):
    # at lam = 0 each kind's own update runs with thresholds of 0, beside
    # lam > 0 lanes, and equals the unpenalized fit exactly; an adaptive spec
    # at lam = 0 pins nothing, whatever its infinite weights
    rng = np.random.default_rng(37)
    X, _ = two_separated_clouds(rng, n=60, q=6, gap=2.5)
    B = cm(X, q_c=2)
    init = initialize(B, 3, seed=4)
    ref = np.ones((3, 6))
    ref[0, 0] = 0.0
    ref[:, 1] = 0.0
    ref[1] = 0.0
    weights = adaptive_weights(kind, 1.0, ref)
    specs = [PenaltySpec(kind, 0.0), PenaltySpec(kind, 2.0),
             PenaltySpec(kind, 0.0, 1.0, weights), PenaltySpec(kind, 1.0, 1.0, weights)]
    fits = run_em(B, specs, init)
    alone = fit_alone(B, PenaltySpec("none"), init)
    for fit in (fits[0], fits[2]):
        npt.assert_array_equal(fit.params.proportions, alone.params.proportions)
        npt.assert_array_equal(fit.params.means, alone.params.means)
        npt.assert_array_equal(fit.params.variances, alone.params.variances)
        assert fit.max_objective_rise == alone.max_objective_rise
        assert fit.iterations == alone.iterations
        assert fit.stop_reason == alone.stop_reason
    assert not pinned(specs[2], 3, 6, q_c=2).any()
    mask = pinned(specs[3], 3, 6, q_c=2)
    assert mask.any() and not fits[3].params.means[mask].any()


def test_lanes_need_one_penalty_kind():
    rng = np.random.default_rng(36)
    X, _ = two_separated_clouds(rng, n=40, q=4, gap=4.0)
    B = cm(X)
    with pytest.raises(ValueError, match="one penalty kind"):
        run_em(B, [PenaltySpec("group", 1.0), PenaltySpec("individual", 1.0)], initialize(B, 2, 0))
