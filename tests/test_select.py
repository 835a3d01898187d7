import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from mfclust import em, select
from mfclust.em import MixtureParams, PenaltySpec, adaptive_weights, penalized_nll, run_em
from mfclust.fpca import CoefficientMatrix
from mfclust.select import (
    SearchGrid,
    SelectionRow,
    _best_point,
    _fit_points,
    adjusted_bic,
    model_search,
    row_sort_key,
)


def three_cluster_data(seed=0, n=150, noise_cols=4, sep=4.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    signal = centers[labels] + rng.normal(0, 0.8, size=(n, 2))
    noise = rng.normal(0, 1.0, size=(n, noise_cols))
    return CoefficientMatrix.from_scores(np.hstack([signal, noise]), q_c=1), labels


def small_grid():
    return SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0, 5.0))


def test_search_grid_lambda_scaling():
    grid = SearchGrid()
    lams = grid.lambdas(200)
    npt.assert_allclose(lams, np.array(grid.lambda_multipliers) * 200 ** (1 / 3))
    assert lams[0] == 0.0


def test_search_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid(m_values=())
    with pytest.raises(ValueError):
        SearchGrid(gamma_values=(0.0,))
    for bad in ({"m_values": (0, 2)}, {"gamma_values": (math.nan,)}, {"gamma_values": (math.inf,)},
                {"lambda_multipliers": (0.0, math.nan)}, {"lambda_multipliers": (0.0, math.inf)},
                {"lambda_multipliers": (0.0, -1.0)}, {"m_values": (2, 2)}, {"m_values": (2, 3, 2.0)},
                {"gamma_values": (1, 1.0)}, {"lambda_multipliers": (0, 1, 1)}):
        with pytest.raises(ValueError):
            SearchGrid(**bad)
    for bad in ((2.5,), (2, 3.0), (np.float64(2.0),)):
        with pytest.raises(ValueError, match="cluster counts must be integers"):
            SearchGrid(m_values=bad)
    assert SearchGrid(m_values=(np.int64(2), 3)).m_values == (2, 3)


def test_an_overflowing_lambda_is_refused_naming_its_multiplier(monkeypatch):
    grid = SearchGrid(m_values=(1, 2), lambda_multipliers=(0.0, 1e308))
    message = re.escape("lambda multiplier 1e+308 times n**(1/3) overflows at n=50")
    with pytest.raises(ValueError, match=message):
        grid.lambdas(50)
    # at n = 1 the scale is 1, and the multiplier itself is the lambda
    assert grid.lambdas(1) == (0.0, 1e308)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the lambdas were checked")

    monkeypatch.setattr(select, "initialize", no_fit)
    B, _ = three_cluster_data(n=50)
    with pytest.raises(ValueError, match=message):
        model_search(B, grid, ("individual", "none"))


def test_adjusted_bic_effective_dimension():
    B, _ = three_cluster_data(noise_cols=2)
    fit = run_em(B, 1, PenaltySpec("none"), seed=0)
    assert B.q == 4 and fit.n_zero_means == 0
    d_e = 1 + 4 + 4 - 0 - 1
    assert d_e == 8
    expected = 2 * fit.plain_nll + math.log(B.n * 4) * 8
    npt.assert_allclose(adjusted_bic(fit, B.n, B.q), expected, atol=1e-10)


def test_adjusted_bic_drops_per_zeroed_mean():
    B, _ = three_cluster_data(noise_cols=2)
    fit = run_em(B, 2, PenaltySpec("none"), seed=0)
    bic0 = adjusted_bic(fit, B.n, B.q)
    zeroed = fit
    means = fit.params.means.copy()
    means[0, :3] = 0.0
    zeroed = replace(  # the likelihood is kept as it was
        fit,
        params=MixtureParams(fit.params.proportions, means, fit.params.variances),
        n_zero_means=3,
        removed_sensors=set(),
        stop_reason="converged",
    )
    npt.assert_allclose(bic0 - adjusted_bic(zeroed, B.n, B.q), 3 * math.log(B.n * B.q), atol=1e-10)


def test_adjusted_bic_relabeling_invariant():
    B, _ = three_cluster_data()
    fit = run_em(B, 3, PenaltySpec("none"), seed=1)
    perm = [2, 0, 1]
    params = MixtureParams(
        proportions=fit.params.proportions[perm],
        means=fit.params.means[perm],
        variances=fit.params.variances,
    )
    value = penalized_nll(B, params, PenaltySpec("none"))
    permuted = replace(
        fit,
        params=params,
        responsibilities=fit.responsibilities[:, perm],
        penalized_nll=value,
        plain_nll=value,
        n_zero_means=int(params.zero_mask.sum()),
    )
    npt.assert_allclose(
        adjusted_bic(fit, B.n, B.q), adjusted_bic(permuted, B.n, B.q), atol=1e-8
    )


def test_two_phase_lambda_zero_grid_reduces_to_unpenalized():
    B, _ = three_cluster_data()
    grid = SearchGrid(m_values=(3,), gamma_values=(1.0,), lambda_multipliers=(0.0,))
    report = model_search(B, grid, "group", seed=5)
    plain = run_em(B, 3, PenaltySpec("none"), seed=5 + 3)
    npt.assert_allclose(report.best_fit.params.means, plain.params.means, atol=1e-12)
    npt.assert_allclose(report.reference_means[3], plain.params.means, atol=1e-12)


def test_two_phase_zeroes_tiny_reference_components():
    B, _ = three_cluster_data(noise_cols=4)
    grid = SearchGrid(m_values=(3,), gamma_values=(2.0,), lambda_multipliers=(0.0, 0.5, 1.0, 2.0))
    report = model_search(B, grid, "individual", seed=2)
    fit = report.best_fit
    assert fit.converged
    # noise columns (2..5) should be zeroed across all clusters in phase 2
    assert fit.params.zero_mask[:, 2:].sum() >= 8


def test_two_phase_rejects_nonpositive_gamma():
    B, _ = three_cluster_data()
    with pytest.raises(ValueError):
        model_search(B, replace(small_grid(), gamma_values=(0.0,)), "group")


def test_two_phase_deterministic():
    B, _ = three_cluster_data()
    grid = small_grid()
    a = model_search(B, grid, "group", seed=9)
    b = model_search(B, grid, "group", seed=9)
    npt.assert_array_equal(a.best_fit.params.means, b.best_fit.params.means)
    npt.assert_array_equal(a.reference_means[3], b.reference_means[3])


def test_adaptive_weights_at_gamma_zero_equal_unit_weights():
    ref = np.array([[0.5, 2.0], [1.5, 0.1]])
    for kind in ("individual", "variable", "group"):
        adaptive = PenaltySpec(kind, 3.0, 0.0, adaptive_weights(kind, 0.0, ref))
        npt.assert_array_equal(adaptive.weights_for(2, 2), PenaltySpec(kind, 3.0).weights_for(2, 2))


def test_model_search_recovers_three_clusters():
    B, labels = three_cluster_data(seed=3)
    grid = SearchGrid(m_values=(3,), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0, 3.0))
    report = model_search(B, grid, "group", seed=4)
    assert report.chosen[0] == 3
    assert report.best_fit.converged
    agreement = (report.best_fit.hard_labels == labels).mean()
    # labels may be permuted; just require a coherent partition into 3
    assert len(np.unique(report.best_fit.hard_labels)) == 3


def test_model_search_selects_m_over_grid():
    B, _ = three_cluster_data(seed=5, n=200, sep=5.0)
    grid = SearchGrid(m_values=(1, 2, 3, 4), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0, 3.0))
    report = model_search(B, grid, "group", seed=6)
    assert report.chosen[0] == 3


def test_model_search_reports_every_grid_point():
    B, _ = three_cluster_data()
    grid = SearchGrid(m_values=(2, 3), gamma_values=(0.5, 1.0), lambda_multipliers=(0.0, 1.0))
    report = model_search(B, grid, "individual", seed=7)
    pilot = [r for r in report.rows if r.phase == "pilot"]
    adaptive = [r for r in report.rows if r.phase == "adaptive"]
    assert len(pilot) == 2 * 2  # m x lambda
    assert len(adaptive) == 2 * 2 * 2  # m x gamma x lambda
    assert 2 in report.reference_means and 3 in report.reference_means
    # at lambda = 0 the adaptive rows repeat the pilot fit, whatever gamma is
    for row in adaptive:
        if row.lam == 0.0:
            (twin,) = [r for r in pilot if r.m == row.m and r.lam == 0.0]
            assert replace(row, phase="pilot") == twin
    # the stored winner is the first converged row with the smallest sort key
    best = report.best_row
    assert best == min((r for r in report.rows if r.converged), key=row_sort_key)
    assert report.chosen == (best.m, best.lam, best.gamma, "individual")
    assert report.kind == "individual"


def test_model_search_none_kind_fits_plain_models():
    B, _ = three_cluster_data()
    grid = SearchGrid(m_values=(1, 2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0,))
    report = model_search(B, grid, "none", seed=8)
    assert len(report.rows) == 3
    assert all(r.lam == 0.0 and r.n_zero == 0 for r in report.rows)
    assert report.chosen[0] == 3


def test_model_search_reports_m_above_n_and_goes_on():
    rng = np.random.default_rng(33)
    B = CoefficientMatrix.from_scores(rng.standard_normal((4, 2)), q_c=1)
    grid = SearchGrid(m_values=(1, 2, 3, 4, 5))
    with pytest.warns(UserWarning, match="floored"):
        report = model_search(B, grid, "none", seed=1)
    assert report.failures == ["m=5: initialization failed: need at least m=5 observations, got 4"]
    assert sorted({r.m for r in report.rows}) == [1, 2, 3, 4]
    assert report.best_row.m in (1, 2, 3, 4)


def test_model_search_grid_order_invariant():
    B, _ = three_cluster_data(seed=9)
    g1 = SearchGrid(m_values=(2, 3, 4), gamma_values=(0.5, 1.0), lambda_multipliers=(0.0, 1.0, 5.0))
    g2 = SearchGrid(m_values=(4, 3, 2), gamma_values=(1.0, 0.5), lambda_multipliers=(5.0, 1.0, 0.0))
    r1 = model_search(B, g1, "group", seed=10)
    r2 = model_search(B, g2, "group", seed=10)
    assert r1.chosen == r2.chosen


def test_model_search_parallel_matches_serial():
    B, _ = three_cluster_data(seed=11)
    grid = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0))
    serial = model_search(B, grid, "group", seed=12, n_jobs=1)
    parallel = model_search(B, grid, "group", seed=12, n_jobs=2)
    assert serial.chosen == parallel.chosen
    assert [r.bic for r in serial.rows] == [r.bic for r in parallel.rows]


def as_reports(kinds, result):
    """model_search's result for kinds as a list of per-kind entries."""
    return [result] if isinstance(kinds, str) else result


ALL_KINDS = ("individual", "variable", "group", "none")


def far_from_data(start):
    """start with its last component moved far from the data, so that
    every fit from it with m > 1 collapses."""
    means = start.means.copy()
    means[-1] += 1e3
    return MixtureParams(start.proportions, means, start.variances)


@pytest.mark.parametrize("kinds", ["group", ALL_KINDS], ids=["group", "all-kinds"])
def test_model_search_initializes_once_per_m(monkeypatch, kinds):
    # every start puts its last component far from the data, so every fit
    # with m > 1 collapses; none is restarted from another start, and the
    # kinds of one search share each m's start
    B, _ = three_cluster_data(seed=5)
    calls = Counter()
    real = em.initialize

    def far_start(B, m, seed):
        calls[m] += 1
        return far_from_data(real(B, m, seed))

    monkeypatch.setattr(em, "initialize", far_start)
    monkeypatch.setattr(select, "initialize", far_start)
    grid = SearchGrid(m_values=(1, 2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0, 5.0))
    reports = as_reports(kinds, model_search(B, grid, kinds, seed=3))
    assert calls == {1: 1, 2: 1, 3: 1}
    for report in reports:
        assert report.chosen[0] == 1
        collapsed = [r for r in report.rows if r.m > 1]
        assert collapsed and not any(r.converged or r.iterations >= 500 for r in collapsed)


def _row(bic, m=2, lam=1.0, gamma=1.0, converged=True):
    return SelectionRow(
        m=m, lam=lam, gamma=gamma, kind="group", phase="pilot", bic=bic, n_zero=0,
        n_removed_sensors=0, converged=converged, plain_nll=0.0, penalized_nll=0.0, iterations=1,
    )


def test_best_row_tie_breaks_smaller_model():
    rows = [
        _row(10.0, m=3, lam=2.0, gamma=1.0),
        _row(10.0, m=2, lam=5.0, gamma=2.0),
        _row(10.0, m=2, lam=1.0, gamma=2.0),
        _row(10.0, m=2, lam=1.0, gamma=0.5),
        _row(9.0, converged=False),
    ]
    best, fit = _best_point([(row, f"fit{i}") for i, row in enumerate(rows)])
    assert (best.m, best.lam, best.gamma) == (2, 1.0, 0.5)
    assert fit == "fit3"


def test_best_row_ignores_non_converged():
    rows = [_row(5.0, converged=False), _row(8.0)]
    best, _ = _best_point([(row, None) for row in rows])
    assert best.bic == 8.0
    assert _best_point([(_row(5.0, converged=False), None)]) is None


def test_default_grids_match_contract():
    grid = SearchGrid()
    assert grid.m_values == (1, 2, 3, 4, 5, 6)
    assert grid.gamma_values == (0.5, 1.0, 1.5, 2.0)
    assert grid.lambda_multipliers == (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0)
    assert 0.0 in grid.lambdas(123)


@pytest.mark.parametrize("kinds,stacks", [("individual", [3, 4]), (("individual", "group"), [3, 4, 2, 4])],
                         ids=["individual", "individual,group"])
def test_each_phase_fits_its_lambdas_in_one_call(monkeypatch, kinds, stacks):
    B, _ = three_cluster_data(seed=6)
    calls, zero_lanes = [], Counter()
    real = select.run_em

    def counting(B, m, spec, **kwargs):
        specs = [spec] if isinstance(spec, PenaltySpec) else spec
        calls.append((m, len(specs)))
        zero_lanes[m] += sum(s.lam == 0.0 for s in specs)
        return real(B, m, spec, **kwargs)

    monkeypatch.setattr(select, "run_em", counting)
    grid = SearchGrid(m_values=(2, 3), gamma_values=(1.0, 2.0), lambda_multipliers=(0.0, 1.0, 5.0))
    reports = as_reports(kinds, model_search(B, grid, kinds, seed=1))
    # per m: the first pilot's 3 lambdas, lambda = 0 included, then the 2
    # gammas x 2 positive lambdas of its adaptive phase; a later kind's
    # pilot fits only the 2 positive lambdas. Every phase reuses the one
    # lambda = 0 fit of its m.
    assert calls == [(m, size) for m in (2, 3) for size in stacks]
    assert zero_lanes == {2: 1, 3: 1}
    for report in reports:
        assert [(r.m, r.phase, r.gamma) for r in report.rows if r.lam == 0.0] == [
            (2, "pilot", 0.0), (2, "adaptive", 0.0), (2, "adaptive", 0.0),
            (3, "pilot", 0.0), (3, "adaptive", 0.0), (3, "adaptive", 0.0),
        ]
        assert len(report.rows) == 2 * (3 + 2 * 3)


@pytest.mark.parametrize("multipliers", [(0.0, 1.0, 5.0), (0.5, 2.0)], ids=["zero-in-grid", "no-zero"])
@pytest.mark.parametrize("kinds", [ALL_KINDS, ("none", "group")], ids=["all-kinds", "none,group"])
def test_a_multi_kind_search_equals_its_single_kind_searches(kinds, multipliers):
    B, _ = three_cluster_data(seed=13)
    grid = SearchGrid(m_values=(1, 2, 3), gamma_values=(0.5, 2.0), lambda_multipliers=multipliers)
    together = model_search(B, grid, kinds, seed=4)
    assert len(together) == len(kinds)
    for kind, report in zip(kinds, together):
        alone = model_search(B, grid, kind, seed=4)
        assert report.rows == alone.rows and report.kind == kind
        assert (report.best_row, report.failures) == (alone.best_row, alone.failures)
        assert report.reference_means.keys() == alone.reference_means.keys()
        for m, means in alone.reference_means.items():
            npt.assert_array_equal(report.reference_means[m], means)
        got, want = report.best_fit, alone.best_fit
        npt.assert_array_equal(got.params.proportions, want.params.proportions)
        npt.assert_array_equal(got.params.means, want.params.means)
        npt.assert_array_equal(got.params.variances, want.params.variances)
        npt.assert_array_equal(got.responsibilities, want.responsibilities)


def test_a_kind_without_a_converged_fit_is_its_own_entry(monkeypatch):
    # every fit collapses at m in (2, 3), so no kind converges: the sequence form returns each kind's error, and
    # the single-kind form raises the same error
    B, _ = three_cluster_data(seed=5)
    real = em.initialize
    monkeypatch.setattr(select, "initialize", lambda B, m, seed: far_from_data(real(B, m, seed)))
    grid = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0))
    errors = model_search(B, grid, ("none", "group"), seed=3)
    assert [type(e) for e in errors] == [em.NumericalError] * 2
    for kind, error in zip(("none", "group"), errors):
        assert str(error).startswith("no grid point produced a converged fit")
        with pytest.raises(em.NumericalError) as alone:
            model_search(B, grid, kind, seed=3)
        assert str(alone.value) == str(error)


def test_a_failed_lane_is_reported_and_the_others_kept():
    # means of 1e160 make every density underflow, except in the lane whose
    # adaptive weights pin every mean to 0
    B, _ = three_cluster_data(seed=7)
    huge = MixtureParams([0.5, 0.5], np.full((2, B.q), 1e160), np.ones(B.q))
    specs = [
        PenaltySpec("individual", 1.0),
        PenaltySpec("individual", 2.0, 1.5, adaptive_weights("individual", 1.5, np.zeros((2, B.q)))),
        PenaltySpec("individual", 0.0),
    ]
    zero = []
    fitted, failures = _fit_points(B, 2, specs, huge, "pilot", zero)
    assert failures == [
        f"m=2, kind=individual, lam={lam}, gamma=0 (pilot): "
        "all cluster densities underflowed for some observation"
        for lam in (1, 0)
    ]
    assert [(row.lam, row.gamma, row.n_zero) for row, _ in fitted] == [(2.0, 1.5, 2 * B.q)]
    assert zero == []  # a failed lambda = 0 lane leaves the memo empty
