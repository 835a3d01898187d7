"""Synthetic multi-sensor benchmark: generator, metrics, and factor sweeps.

Datasets are drawn from a Gaussian mixture over spline coefficients: signal
sensors carry cluster-specific mean coefficient vectors, noise sensors have
zero means in every cluster, and a common divisor scales all coefficient
variances so larger values give tighter, easier clusters. Curves are
evaluated on a fixed grid through the shared basis and standardized per
sensor. The frozen cluster mean vectors live in data/benchmark_design.json
so every run of the benchmark sees the same population.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from mfclust.basis import build_basis, design_matrix
from mfclust.em import NumericalError
from mfclust.fpca import FunctionalDataSet, fit_fpca, standardize
from mfclust.select import SearchGrid, model_search

DEFAULT_KINDS = ("individual", "variable", "group", "none")


def _load_frozen_design() -> dict:
    with resources.files("mfclust").joinpath("data/benchmark_design.json").open() as fh:
        frozen = json.load(fh)
    if frozen.get("version") != 1:
        raise ValueError(f"unsupported benchmark design version {frozen.get('version')!r}")
    return frozen


# parsed once: every design, sweep and aggregate reads this one copy
_FROZEN = _load_frozen_design()
SCENARIOS = {
    name: {"levels": tuple(spec["levels"]), "varies": spec["varies"]}
    for name, spec in _FROZEN["scenarios"].items()
}


@dataclass
class SimulationDesign:
    """Population for one synthetic dataset.

    signal_means has shape (m_true, p_signal, h); signal_variances the same
    shape; noise_variances is (p_noise, h). All coefficient variances are
    divided by delta when sampling.
    """

    n: int
    p_signal: int
    p_noise: int
    delta: float
    signal_means: np.ndarray
    signal_variances: np.ndarray
    noise_variances: np.ndarray
    seed: int
    m_true: int = 3
    proportions: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    n_basis: int = 12
    order: int = 3
    domain: tuple[float, float] = (0.0, 30.0)
    n_times: int = 31

    def __post_init__(self):
        self.signal_means = np.asarray(self.signal_means, dtype=float)
        self.signal_variances = np.asarray(self.signal_variances, dtype=float)
        self.noise_variances = np.asarray(self.noise_variances, dtype=float)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.p_signal < 0 or self.p_noise < 0 or self.p_signal + self.p_noise == 0:
            raise ValueError("need a nonnegative sensor split with at least one sensor")
        if abs(sum(self.proportions) - 1.0) > 1e-10 or len(self.proportions) != self.m_true:
            raise ValueError("proportions must have m_true entries summing to 1")
        want = (self.m_true, self.p_signal, self.n_basis)
        if self.signal_means.shape != want or self.signal_variances.shape != want:
            raise ValueError(f"signal means/variances must have shape {want}")
        if self.noise_variances.shape != (self.p_noise, self.n_basis):
            raise ValueError(f"noise variances must have shape {(self.p_noise, self.n_basis)}")

    @property
    def p(self) -> int:
        return self.p_signal + self.p_noise

    @property
    def signal_sensor_names(self) -> list[str]:
        return [f"sig{i + 1:02d}" for i in range(self.p_signal)]

    @property
    def noise_sensor_names(self) -> list[str]:
        return [f"noi{i + 1:02d}" for i in range(self.p_noise)]

    @property
    def sensor_names(self) -> list[str]:
        return self.signal_sensor_names + self.noise_sensor_names


def default_design(
    n: int = 200,
    p_signal: int = 2,
    p_noise: int = 16,
    delta: float = 1.5,
    seed: int = 0,
) -> SimulationDesign:
    """Benchmark design with the frozen cluster mean vectors.

    The checked-in file carries means for the first two signal sensors;
    additional signal sensors, if requested, are drawn reproducibly from
    the recorded master seed at the same scale.
    """
    h = _FROZEN["n_basis"]
    m_true = _FROZEN["m_true"]
    means = np.asarray(_FROZEN["signal_means"], dtype=float)  # (p_frozen, m, h)
    if p_signal <= means.shape[0]:
        signal_means = means[:p_signal].transpose(1, 0, 2)
    else:
        extra = []
        for s in range(means.shape[0], p_signal):
            rng = np.random.default_rng(np.random.SeedSequence([_FROZEN["master_seed"], s]))
            extra.append(rng.normal(0.0, _FROZEN["mean_scale"], size=(m_true, h)))
        signal_means = np.concatenate(
            [means.transpose(1, 0, 2), np.stack(extra, axis=1)], axis=1
        )
    signal_variances = np.full((m_true, p_signal, h), _FROZEN["coef_variance"])
    noise_variances = np.full((p_noise, h), _FROZEN["noise_variance"])
    return SimulationDesign(
        n=n,
        p_signal=p_signal,
        p_noise=p_noise,
        delta=delta,
        signal_means=signal_means,
        signal_variances=signal_variances,
        noise_variances=noise_variances,
        seed=seed,
        m_true=m_true,
        proportions=tuple(_FROZEN["proportions"]),
        n_basis=h,
        order=_FROZEN["order"],
        domain=tuple(_FROZEN["domain"]),
        n_times=_FROZEN["n_times"],
    )


def generate_dataset(design: SimulationDesign) -> FunctionalDataSet:
    """Draw one dataset: labels, spline coefficients, curves, standardization.

    Per observation a cluster is drawn from the design proportions and the
    p * h coefficient vector from that cluster's diagonal Gaussian with
    variances divided by delta. Curves are the coefficients pushed through
    the basis on the design grid, then fpca.standardize rescales each
    sensor to pooled mean 0 and variance 1. Identical seeds give identical
    datasets.
    """
    rng = np.random.default_rng(design.seed)
    m, h = design.m_true, design.n_basis
    labels = rng.choice(m, size=design.n, p=np.asarray(design.proportions))

    mean_blocks = np.concatenate(
        [design.signal_means, np.zeros((m, design.p_noise, h))], axis=1
    )  # (m, p, h)
    var_blocks = np.concatenate(
        [design.signal_variances, np.repeat(design.noise_variances[None], m, axis=0)], axis=1
    ) / design.delta

    coeffs = mean_blocks[labels] + rng.standard_normal((design.n, design.p, h)) * np.sqrt(
        var_blocks[labels]
    )

    basis = build_basis(design.domain[0], design.domain[1], h, design.order)
    grid = np.linspace(design.domain[0], design.domain[1], design.n_times)
    curves = coeffs @ design_matrix(basis, grid).T  # (n, p, n_times)
    raw = FunctionalDataSet(times=grid, values=curves, sensor_names=design.sensor_names, labels=labels)
    return standardize(raw)[0]


# ---------------------------------------------------------------------------
# metrics


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("labelings must be equal-length vectors")
    if a.size < 2:
        raise ValueError("need at least two items")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    counts = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(counts, (ia, ib), 1.0)

    def pairs(x):
        return x * (x - 1.0) / 2.0

    index = pairs(counts).sum()
    sum_a = pairs(counts.sum(axis=1)).sum()
    sum_b = pairs(counts.sum(axis=0)).sum()
    expected = sum_a * sum_b / pairs(float(a.size))
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # both partitions trivial (all-one-cluster or all-singletons): identical
        return 1.0
    return float((index - expected) / (max_index - expected))


def mae_m(estimates, m_true: int) -> float:
    """Mean absolute error of selected cluster counts against the truth."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("need at least one estimate")
    return float(np.abs(est - m_true).mean())


def removal_counts(
    removed: set[str], signal: set[str], noise: set[str], zero_columns: int
) -> tuple[int, int, int]:
    """(correctly removed, falsely removed, zeroed columns) for one fit.

    zero_columns is the count of score columns whose means are zero in
    every cluster; it is carried through unchanged so callers can aggregate
    it alongside the sensor counts.
    """
    unknown = removed - (signal | noise)
    if unknown:
        raise ValueError(f"unknown sensors in removed set: {sorted(unknown)}")
    return len(removed & noise), len(removed & signal), int(zero_columns)


def count_zero_columns(zero_mask: np.ndarray) -> int:
    """Columns of the mean matrix that are zero in every cluster."""
    return int(np.all(zero_mask, axis=0).sum())


# ---------------------------------------------------------------------------
# scenario harness


@dataclass(frozen=True)
class ReplicateRecord:
    """Outcome of one penalty kind on one simulated dataset."""

    scenario: str
    level: float
    kind: str
    rep: int
    seed: int
    m_hat: int
    ari: float
    variables_removed: int
    removed_correctly: int
    removed_falsely: int
    lam: float
    gamma: float
    bic: float
    max_rise: float


@dataclass(frozen=True)
class BenchmarkRow:
    """Aggregate of one (scenario level, penalty kind) cell."""

    scenario: str
    level: float
    kind: str
    reps: int
    mae_m: float
    mean_variables_removed: float
    mean_removed_correctly: float
    mean_removed_falsely: float
    ari_median: float
    ari_q1: float
    ari_q3: float
    n_failed: int


_COUNT_FACTORS = ("n", "p_noise")  # scenario factors whose levels are whole numbers


def _design_for(scenario: str, level, seed: int) -> SimulationDesign:
    varies = SCENARIOS[scenario]["varies"]
    if varies in _COUNT_FACTORS:
        if not float(level).is_integer():
            raise ValueError(f"{scenario} levels set {varies} and must be whole numbers, got {level}")
        level = int(level)
    kwargs = {"n": 200, "p_noise": 16, "delta": 1.5, "seed": seed, varies: level}
    return default_design(**kwargs)


def scenario_levels(scenario: str, reps: int, levels=None) -> tuple:
    """The levels a sweep runs (the scenario's own when levels is None),
    after checking the scenario, reps and every level's design."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIOS)}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    levels = tuple(levels) if levels is not None else SCENARIOS[scenario]["levels"]
    for level in levels:
        _design_for(scenario, level, seed=0)
    return levels


def _replicate_seed(seed: int, level_idx: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, level_idx, rep]).generate_state(1)[0])


def _run_replicate(args):
    scenario, level, level_idx, rep, kinds, seed, q_c, grid = args
    rep_seed = _replicate_seed(seed, level_idx, rep)
    design = _design_for(scenario, level, rep_seed)
    data = generate_dataset(design)
    basis = build_basis(design.domain[0], design.domain[1], design.n_basis, design.order)
    _, B = fit_fpca(data, basis, q_c=q_c)
    signal = set(design.signal_sensor_names)
    noise = set(design.noise_sensor_names)

    records, failures = [], []
    for kind in kinds:
        try:
            report = model_search(B, grid, kind, seed=rep_seed + 1)
        except NumericalError as exc:
            failures.append((scenario, level, kind, rep, str(exc)))
            continue
        fit, row = report.best_fit, report.best_row
        correct, false, zero_cols = removal_counts(
            fit.removed_sensors, signal, noise, count_zero_columns(fit.params.zero_mask)
        )
        records.append(
            ReplicateRecord(
                scenario=scenario,
                level=float(level),
                kind=kind,
                rep=rep,
                seed=rep_seed,
                m_hat=row.m,
                ari=ari(data.labels, fit.hard_labels),
                variables_removed=zero_cols,
                removed_correctly=correct,
                removed_falsely=false,
                lam=row.lam,
                gamma=row.gamma,
                bic=row.bic,
                max_rise=max((r.max_rise for r in report.rows), default=0.0),
            )
        )
    return level_idx, rep, records, failures


def aggregate(
    records: list[ReplicateRecord], scenario: str, level, kind: str, n_failed: int, m_true: int
) -> BenchmarkRow:
    """The row of one (scenario level, penalty kind) cell; without records its statistics are nan."""
    cell = [r for r in records if r.scenario == scenario and r.level == float(level) and r.kind == kind]
    mae = removed = correct = false = q1 = med = q3 = float("nan")
    if cell:
        mae = mae_m([r.m_hat for r in cell], m_true)
        removed = float(np.mean([r.variables_removed for r in cell]))
        correct = float(np.mean([r.removed_correctly for r in cell]))
        false = float(np.mean([r.removed_falsely for r in cell]))
        q1, med, q3 = (float(v) for v in np.percentile([r.ari for r in cell], [25, 50, 75]))
    return BenchmarkRow(
        scenario=scenario,
        level=float(level),
        kind=kind,
        reps=len(cell),
        mae_m=mae,
        mean_variables_removed=removed,
        mean_removed_correctly=correct,
        mean_removed_falsely=false,
        ari_median=med,
        ari_q1=q1,
        ari_q3=q3,
        n_failed=n_failed,
    )


def run_scenario(
    scenario: str,
    reps: int,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    seed: int = 0,
    levels: tuple | None = None,
    q_c: int = 3,
    grid: SearchGrid | None = None,
    n_jobs: int = 1,
    on_record=None,
) -> tuple[list[BenchmarkRow], list[ReplicateRecord]]:
    """Run one factor sweep: levels x replicates x penalty kinds.

    Replicates get derived seeds and are independent jobs; results arrive
    in a fixed order regardless of scheduling, and on_record (if given)
    sees each replicate record as soon as it is available. Failed
    replicates are dropped from their cell and counted in n_failed.
    """
    levels = scenario_levels(scenario, reps, levels)
    grid = grid or SearchGrid()

    tasks = [
        (scenario, level, level_idx, rep, tuple(kinds), seed, q_c, grid)
        for level_idx, level in enumerate(levels)
        for rep in range(reps)
    ]
    records: list[ReplicateRecord] = []
    failures = []

    def consume(outcome_iter):
        # pool.map yields in task order, so records stream deterministically
        # and callers can persist them row by row as replicates finish
        for _, _, recs, fails in outcome_iter:
            for rec in recs:
                records.append(rec)
                if on_record is not None:
                    on_record(rec)
            failures.extend(fails)

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            consume(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        consume(map(_run_replicate, tasks))

    m_true = _FROZEN["m_true"]
    n_failed = Counter((level, kind) for _, level, kind, _, _ in failures)
    rows = [
        aggregate(records, scenario, level, kind, n_failed[level, kind], m_true)
        for level in levels
        for kind in kinds
    ]
    return rows, records
