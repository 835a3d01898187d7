import dataclasses
import itertools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from mfclust import simbench
from mfclust.basis import design_matrix
from mfclust.em import NumericalError
from mfclust.fpca import FunctionalDataSet, fit_fpca, select_num_components, standardize
from mfclust.select import SearchGrid, model_search
from mfclust.simbench import (
    BASIS,
    M_TRUE,
    PROPORTIONS,
    SCENARIOS,
    SimulationDesign,
    _load_frozen_design,
    ari,
    count_zero_columns,
    generate_dataset,
    mae_m,
    removal_counts,
    run_scenario,
    scenario_levels,
)

SMALL_GRID = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 2.0, 5.0))


def test_default_design_shapes():
    d = SimulationDesign()
    assert (d.n, d.p_signal, d.p_noise, d.delta, d.seed) == (200, 2, 16, 1.5, 0)
    assert d.p == 18 and d.signal_means.shape == (3, 2, 12)
    assert d.sensor_names[0] == "sig01" and d.sensor_names[-1] == "noi16"
    assert len(PROPORTIONS) == M_TRUE and sum(PROPORTIONS) == pytest.approx(1.0)


def test_frozen_constants_match_the_design_file():
    frozen = _load_frozen_design()
    assert M_TRUE == frozen["m_true"] and PROPORTIONS == tuple(frozen["proportions"])
    assert (BASIS.domain_lo, BASIS.domain_hi) == tuple(frozen["domain"])
    assert (BASIS.n_basis, BASIS.order) == (frozen["n_basis"], frozen["order"])
    assert simbench.GRID.shape == (frozen["n_times"],)
    data = generate_dataset(SimulationDesign(n=5, p_noise=1, seed=1))
    npt.assert_array_equal(data.times, simbench.GRID)


def test_design_is_its_five_numbers():
    fields = [f.name for f in dataclasses.fields(SimulationDesign)]
    assert fields == ["n", "p_signal", "p_noise", "delta", "seed"]
    a = SimulationDesign(n=50, p_noise=8, delta=2.0, seed=3)
    b = SimulationDesign(50, 2, 8, 2.0, 3)
    assert a == b and hash(a) == hash(b)
    assert SimulationDesign() == SimulationDesign(200, 2, 16, 1.5, 0)
    assert a != dataclasses.replace(a, seed=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.n = 10


def test_design_names_its_sensors():
    d = SimulationDesign(n=10, p_signal=1, p_noise=4)
    assert d.p == 5
    assert d.sensor_names == ["sig01", "noi01", "noi02", "noi03", "noi04"]


@pytest.mark.parametrize("numbers,message", [
    (dict(p_signal=0, p_noise=0), "need at least one sensor"),
    (dict(p_signal=-1), "p_signal must be nonnegative, got -1"),
    (dict(p_noise=-8, n=0), "p_noise must be nonnegative, got -8"),
    (dict(n=0), "n must be at least 1, got 0"),
    (dict(delta=math.inf), "delta must be positive and finite, got inf"),
], ids=["no-sensors", "negative-signal", "negative-noise", "no-observations", "infinite-delta"])
def test_design_rejects_bad_numbers(numbers, message):
    with pytest.raises(ValueError, match=message):
        SimulationDesign(**numbers)


def test_default_design_extra_signal_sensors_deterministic():
    a = SimulationDesign(p_signal=4, seed=1)
    b = SimulationDesign(p_signal=4, seed=2)
    npt.assert_array_equal(a.signal_means, b.signal_means)
    npt.assert_array_equal(a.signal_means[:, :2, :], SimulationDesign(seed=3).signal_means)


@pytest.mark.parametrize("design,labels,values", [
    (SimulationDesign(),
     "1000221212202020210100211122212102101221101112010220201012001001020210121211122121"
     "1212220222022202221022011202102021202011210020001121012121112012021201010220201112"
     "200221120022222220022012110110210221",
     {(0, 0, 0): -0.7616370957719306, (57, 1, 12): 0.7183840811638986,
      (101, 5, 30): -0.6287327474881059, (199, 17, 7): -0.02467348902766554}),
    (SimulationDesign(n=24, p_signal=4, p_noise=2, delta=2.0, seed=11),
     "011002002111100221212011",
     {(0, 0, 0): -0.5150953764925417, (5, 2, 10): 1.1771703945540375,
      (17, 3, 21): -1.1559908123786662, (23, 5, 30): 2.0181810403448806}),
], ids=["default", "four-signal"])
def test_generate_dataset_pinned_draws(design, labels, values):
    data = generate_dataset(design)
    assert "".join(map(str, data.labels)) == labels
    for index, value in values.items():
        assert data.values[index] == pytest.approx(value, rel=1e-12, abs=0)


def test_generate_dataset_deterministic():
    d = SimulationDesign(n=40, p_noise=4, seed=7)
    a = generate_dataset(d)
    b = generate_dataset(d)
    npt.assert_array_equal(a.values, b.values)
    npt.assert_array_equal(a.labels, b.labels)


def test_generate_dataset_standardized_per_sensor():
    d = SimulationDesign(n=60, p_noise=6, seed=8)
    data = generate_dataset(d)
    for s in range(data.p):
        block = data.values[:, s, :]
        assert abs(block.mean()) < 1e-10
        assert abs(block.std() - 1.0) < 1e-10


def test_generate_dataset_huge_delta_collapses_spread():
    d = SimulationDesign(n=80, p_noise=2, delta=1e6, seed=9)
    data = generate_dataset(d)
    for k in range(3):
        sig = data.values[data.labels == k][:, 0, :]  # first signal sensor
        assert sig.std(axis=0).max() < 0.01


def test_generate_dataset_cluster_shares():
    d = SimulationDesign(n=10000, p_noise=1, seed=10)
    data = generate_dataset(d)
    shares = np.bincount(data.labels, minlength=3) / 10000
    assert np.abs(shares - 1 / 3).max() < 0.02


def test_generate_dataset_noise_sensors_have_flat_cluster_means():
    d = SimulationDesign(n=1000, p_noise=4, seed=11)
    data = generate_dataset(d)
    for s in range(2, data.p):  # noise sensors
        curves = data.values[:, s, :]
        cluster_means = np.stack([curves[data.labels == k].mean(axis=0) for k in range(3)])
        spread = cluster_means.max(axis=0) - cluster_means.min(axis=0)
        assert spread.max() < 0.25


def test_generate_dataset_signal_sensors_show_cluster_structure():
    d = SimulationDesign(n=1000, p_noise=2, seed=12)
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
    assert removal_counts(noise, signal, noise) == (16, 0)
    assert removal_counts(set(), signal, noise) == (0, 0)
    mixed = {"sig01", "noi01", "noi02"}
    assert removal_counts(mixed, signal, noise) == (2, 1)
    with pytest.raises(ValueError, match="unknown"):
        removal_counts({"mystery"}, signal, noise)


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


def test_run_scenario_opens_no_pool_wider_than_its_replicates(monkeypatch):
    # with fork, a pool starts all of its workers at the first submit
    widths = []
    open_pool = ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, *args, **kwargs):
        widths.append(max_workers)
        open_pool(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
    kwargs = dict(kinds=("none",), seed=3, levels=(50,), grid=SMALL_GRID)
    rows, _ = run_scenario("sample-size", reps=1, n_jobs=4, **kwargs)
    assert widths == [] and rows[0].reps == 1
    rows, _ = run_scenario("sample-size", reps=3, n_jobs=8, **kwargs)
    assert widths == [3] and rows[0].reps == 3


def test_run_scenario_counts_failed_replicates_per_cell(monkeypatch):
    searched = []

    def search(B, grid, kinds, **kwargs):
        # one search per replicate, in which every group search fails
        searched.append(kinds)
        reports = model_search(B, grid, kinds, **kwargs)
        return [NumericalError("no grid point produced a converged fit") if kind == "group" else report
                for kind, report in zip(kinds, reports)]

    monkeypatch.setattr(simbench, "model_search", search)
    rows, recs = run_scenario(
        "sample-size", reps=2, kinds=("group", "none"), seed=6, levels=(50,), grid=SMALL_GRID,
    )
    assert searched == [("group", "none")] * 2
    failed, done = rows
    assert (failed.kind, failed.reps, failed.n_failed) == ("group", 0, 2)
    stats = [getattr(failed, f) for f in ("mae_m", "mean_variables_removed", "mean_removed_correctly",
                                          "mean_removed_falsely", "ari_median", "ari_q1", "ari_q3")]
    assert all(np.isnan(stats))
    assert (done.kind, done.reps, done.n_failed) == ("none", 2, 0)
    assert [r.kind for r in recs] == ["none", "none"]


def test_run_scenario_rejects_fractional_count_levels():
    with pytest.raises(ValueError, match="whole numbers"):
        run_scenario("sample-size", reps=1, levels=(50, 50.5))


@pytest.mark.parametrize("levels", [(50, 50), (50, 80, 50.0)])
def test_scenario_levels_rejects_a_repeated_level(levels):
    with pytest.raises(ValueError, match="levels must not repeat"):
        scenario_levels("sample-size", 1, levels, 3)


@pytest.mark.parametrize("q_c,levels", [(0, (50,)), (13, (50,)), (12, (200, 12))])
def test_scenario_levels_checks_q_c_against_every_level(q_c, levels):
    with pytest.raises(ValueError, match="q_c must be in"):
        scenario_levels("sample-size", 1, levels, q_c)


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


def analog_dataset(n: int = 419, seed: int = 424242) -> FunctionalDataSet:
    """A 42-sensor population with heterogeneous smoothness, drawn as
    generate_dataset draws the frozen one.

    Most sensors concentrate their coefficient variance on a few smooth
    modes, a minority spread it across many, so the variance-explained
    rule has a realistic mix to work against. Six sensors carry cluster
    mean separation, the rest are noise.
    """
    frozen = _load_frozen_design()
    h = BASIS.n_basis
    p_signal, p_noise = 6, 36
    rng = np.random.default_rng(np.random.SeedSequence([frozen["master_seed"], 777]))

    def decay_profile(rate, scale=1.0):
        return scale * rate ** np.arange(h)

    signal_means = rng.normal(0.0, frozen["mean_scale"], size=(M_TRUE, p_signal, h))
    signal_variances = np.empty((M_TRUE, p_signal, h))
    for s in range(p_signal):
        rate = rng.uniform(0.35, 0.6)
        signal_variances[:, s, :] = decay_profile(rate)

    noise_variances = np.empty((p_noise, h))
    slow = rng.permutation(p_noise) < 7  # a minority needs many components
    for s in range(p_noise):
        rate = rng.uniform(0.75, 0.9) if slow[s] else rng.uniform(0.3, 0.55)
        noise_variances[s] = decay_profile(rate)

    rng = np.random.default_rng(seed)
    labels = rng.choice(M_TRUE, size=n, p=np.asarray(PROPORTIONS))
    mean_blocks = np.concatenate([signal_means, np.zeros((M_TRUE, p_noise, h))], axis=1)
    var_blocks = np.concatenate(
        [signal_variances, np.repeat(noise_variances[None], M_TRUE, axis=0)], axis=1
    ) / 1.5
    coeffs = mean_blocks[labels] + rng.standard_normal((n, p_signal + p_noise, h)) * np.sqrt(
        var_blocks[labels]
    )
    names = [f"sig{i + 1:02d}" for i in range(p_signal)] + [f"noi{i + 1:02d}" for i in range(p_noise)]
    curves = coeffs @ design_matrix(BASIS, simbench.GRID).T
    raw = FunctionalDataSet(times=simbench.GRID, values=curves, sensor_names=names, labels=labels)
    return standardize(raw)[0]


def test_analog_component_rule_selects_three():
    data = analog_dataset()
    assert (data.n, data.p) == (419, 42)
    models, _ = fit_fpca(data, BASIS, q_c=12)
    frac = np.stack([m.variance_explained for m in models])
    assert select_num_components(frac, alpha=0.8, beta=0.8) == 3
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
