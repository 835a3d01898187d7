import itertools

import numpy as np
import numpy.testing as npt
import pytest

from mfclust.basis import build_basis
from mfclust.fpca import fit_sensor_fpca, select_num_components
from mfclust.select import SearchGrid
from mfclust.simbench import (
    SCENARIOS,
    SimulationDesign,
    _load_frozen_design,
    ari,
    count_zero_columns,
    default_design,
    generate_dataset,
    mae_m,
    removal_counts,
    run_scenario,
)

SMALL_GRID = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 2.0, 5.0))


def test_default_design_shapes():
    d = default_design(n=200, p_noise=16, delta=1.5, seed=0)
    assert d.p == 18 and d.p_signal == 2 and d.p_noise == 16
    assert d.signal_means.shape == (3, 2, 12)
    assert d.sensor_names[0] == "sig01" and d.sensor_names[-1] == "noi16"
    assert sum(d.proportions) == pytest.approx(1.0)


def test_default_design_extra_signal_sensors_deterministic():
    a = default_design(p_signal=4, seed=1)
    b = default_design(p_signal=4, seed=2)
    npt.assert_array_equal(a.signal_means, b.signal_means)
    npt.assert_array_equal(a.signal_means[:, :2, :], default_design(seed=3).signal_means)


def test_generate_dataset_deterministic():
    d = default_design(n=40, p_noise=4, seed=7)
    a = generate_dataset(d)
    b = generate_dataset(d)
    npt.assert_array_equal(a.values, b.values)
    npt.assert_array_equal(a.labels, b.labels)


def test_generate_dataset_standardized_per_sensor():
    d = default_design(n=60, p_noise=6, seed=8)
    data = generate_dataset(d)
    for s in range(data.p):
        block = data.values[:, s, :]
        assert abs(block.mean()) < 1e-10
        assert abs(block.std() - 1.0) < 1e-10


def test_generate_dataset_huge_delta_collapses_spread():
    d = default_design(n=80, p_noise=2, delta=1e6, seed=9)
    data = generate_dataset(d)
    for k in range(3):
        sig = data.values[data.labels == k][:, 0, :]  # first signal sensor
        assert sig.std(axis=0).max() < 0.01


def test_generate_dataset_cluster_shares():
    d = default_design(n=10000, p_noise=1, seed=10)
    data = generate_dataset(d)
    shares = np.bincount(data.labels, minlength=3) / 10000
    assert np.abs(shares - 1 / 3).max() < 0.02


def test_generate_dataset_noise_sensors_have_flat_cluster_means():
    d = default_design(n=1000, p_noise=4, seed=11)
    data = generate_dataset(d)
    for s in range(2, data.p):  # noise sensors
        curves = data.values[:, s, :]
        cluster_means = np.stack([curves[data.labels == k].mean(axis=0) for k in range(3)])
        spread = cluster_means.max(axis=0) - cluster_means.min(axis=0)
        assert spread.max() < 0.25


def test_generate_dataset_signal_sensors_show_cluster_structure():
    d = default_design(n=1000, p_noise=2, seed=12)
    data = generate_dataset(d)
    curves = data.values[:, 0, :]
    cluster_means = np.stack([curves[data.labels == k].mean(axis=0) for k in range(3)])
    spread = cluster_means.max(axis=0) - cluster_means.min(axis=0)
    assert spread.max() > 0.5


# ---------------------------------------------------------------------------
# metrics


def test_ari_identical_and_renamed():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert ari(labels, labels) == 1.0
    renamed = np.array([5, 5, 9, 9, 1, 1])
    assert ari(labels, renamed) == 1.0


def test_ari_crossed_pairs_brute_force():
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 1, 0, 1])

    # direct pair-count computation over all 6 pairs
    same_a = same_b = same_both = 0
    for i, j in itertools.combinations(range(4), 2):
        sa, sb = a[i] == a[j], b[i] == b[j]
        same_a += sa
        same_b += sb
        same_both += sa and sb
    n_pairs = 6
    expected_index = same_a * same_b / n_pairs
    max_index = 0.5 * (same_a + same_b)
    oracle = (same_both - expected_index) / (max_index - expected_index)
    assert ari(a, b) == pytest.approx(oracle)


def test_ari_range_and_degenerate_cases():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 4, size=20)
        b = rng.integers(0, 4, size=20)
        v = ari(a, b)
        assert -1.0 <= v <= 1.0
        if v == 1.0:
            # identical up to relabeling: each cluster of a maps to one of b
            assert len({(x, y) for x, y in zip(a, b)}) == len(set(a)) == len(set(b))
    assert ari([1, 1, 1], [2, 2, 2]) == 1.0
    assert ari([0, 1, 2], [5, 6, 7]) == 1.0
    assert ari([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


def test_ari_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ari([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        ari([0], [1])


def test_mae_m_cases():
    assert mae_m([3, 3, 3], 3) == 0.0
    assert mae_m([2, 3, 4], 3) == pytest.approx(2 / 3)
    draws = [2] * 50 + [3] * 120 + [4] * 30
    assert mae_m(draws, 3) == pytest.approx((50 + 30) / 200)
    with pytest.raises(ValueError):
        mae_m([], 3)


def test_removal_counts_cases():
    signal = {"sig01", "sig02"}
    noise = {f"noi{i:02d}" for i in range(1, 17)}
    assert removal_counts(noise, signal, noise, 48) == (16, 0, 48)
    assert removal_counts(set(), signal, noise, 0) == (0, 0, 0)
    mixed = {"sig01", "noi01", "noi02"}
    assert removal_counts(mixed, signal, noise, 9) == (2, 1, 9)
    with pytest.raises(ValueError, match="unknown"):
        removal_counts({"mystery"}, signal, noise, 0)


def test_count_zero_columns():
    mask = np.array([[True, False, True], [True, True, True]])
    assert count_zero_columns(mask) == 2


# ---------------------------------------------------------------------------
# scenario harness


def test_run_scenario_deterministic_rows():
    kwargs = dict(
        reps=1, kinds=("group",), seed=5, levels=(1.5,), grid=SMALL_GRID, n_jobs=1
    )
    rows_a, recs_a = run_scenario("signal-strength", **kwargs)
    rows_b, recs_b = run_scenario("signal-strength", **kwargs)
    assert rows_a == rows_b
    assert recs_a == recs_b


def test_run_scenario_row_shape_and_bounds():
    rows, recs = run_scenario(
        "sample-size", reps=2, kinds=("group", "none"), seed=6, levels=(80,),
        grid=SMALL_GRID,
    )
    assert len(rows) == 2  # one level x two kinds
    for row in rows:
        assert row.reps == 2 and row.n_failed == 0
        assert row.mae_m >= 0
        assert row.mean_removed_correctly <= 16
        assert row.mean_removed_falsely <= 2
    for rec in recs:
        assert rec.removed_correctly <= 16
        assert rec.removed_falsely <= 2
        assert -1.0 <= rec.ari <= 1.0


def test_run_scenario_parallel_matches_serial():
    kwargs = dict(reps=2, kinds=("group",), seed=7, levels=(1.0,), grid=SMALL_GRID)
    rows_serial, recs_serial = run_scenario("signal-strength", n_jobs=1, **kwargs)
    rows_par, recs_par = run_scenario("signal-strength", n_jobs=2, **kwargs)
    assert rows_serial == rows_par
    assert recs_serial == recs_par


def test_run_scenario_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="scenario"):
        run_scenario("nonsense", reps=1)


def test_scenario_tables_declared():
    assert set(SCENARIOS) == {"sample-size", "noise-ratio", "signal-strength"}
    assert SCENARIOS["sample-size"]["levels"] == (50, 200, 350, 500)
    assert SCENARIOS["noise-ratio"]["levels"] == (8, 16, 32, 64)
    assert SCENARIOS["signal-strength"]["levels"] == (1.0, 1.5, 2.0, 2.5)


# ---------------------------------------------------------------------------
# many-sensor analog


def analog_design(n: int = 419, seed: int = 424242) -> SimulationDesign:
    """A 42-sensor population with heterogeneous smoothness.

    Most sensors concentrate their coefficient variance on a few smooth
    modes, a minority spread it across many, so the variance-explained
    rule has a realistic mix to work against. Six sensors carry cluster
    mean separation, the rest are noise.
    """
    frozen = _load_frozen_design()
    h = frozen["n_basis"]
    m_true = frozen["m_true"]
    p_signal, p_noise = 6, 36
    rng = np.random.default_rng(np.random.SeedSequence([frozen["master_seed"], 777]))

    def decay_profile(rate, scale=1.0):
        return scale * rate ** np.arange(h)

    signal_means = rng.normal(0.0, frozen["mean_scale"], size=(m_true, p_signal, h))
    signal_variances = np.empty((m_true, p_signal, h))
    for s in range(p_signal):
        rate = rng.uniform(0.35, 0.6)
        signal_variances[:, s, :] = decay_profile(rate)

    noise_variances = np.empty((p_noise, h))
    slow = rng.permutation(p_noise) < 7  # a minority needs many components
    for s in range(p_noise):
        rate = rng.uniform(0.75, 0.9) if slow[s] else rng.uniform(0.3, 0.55)
        noise_variances[s] = decay_profile(rate)

    return SimulationDesign(
        n=n,
        p_signal=p_signal,
        p_noise=p_noise,
        delta=1.5,
        signal_means=signal_means,
        signal_variances=signal_variances,
        noise_variances=noise_variances,
        seed=seed,
        m_true=m_true,
        proportions=tuple(frozen["proportions"]),
        n_basis=h,
        order=frozen["order"],
        domain=tuple(frozen["domain"]),
        n_times=frozen["n_times"],
    )


def test_analog_component_rule_selects_three():
    data = generate_dataset(analog_design())
    assert (data.n, data.p) == (419, 42)
    basis = build_basis(0, 30, 12, 3)
    models = [fit_sensor_fpca(data, name, basis, 12) for name in data.sensor_names]
    assert select_num_components(models, alpha=0.8, beta=0.8) == 3
    frac = np.stack([m.variance_explained for m in models])
    share = (frac[:, 2] > 0.8).mean()
    assert 0.8 <= share <= 0.95


def test_run_scenario_streams_records_in_order():
    seen = []
    rows, records = run_scenario(
        "signal-strength", reps=2, kinds=("group",), seed=12, levels=(1.5,),
        grid=SMALL_GRID, n_jobs=2, on_record=seen.append,
    )
    assert seen == records
    assert [r.rep for r in seen] == [0, 1]
