"""Synthetic multi-sensor benchmark: generator, metrics, and factor sweeps.

Datasets are drawn from a Gaussian mixture over spline coefficients: signal
sensors carry cluster-specific mean coefficient vectors, noise sensors have
zero means in every cluster, and a common divisor scales all coefficient
variances so larger values give tighter, easier clusters. Curves are
evaluated on a fixed grid through the shared basis and standardized per
sensor. The frozen population lives in data/benchmark_design.json, parsed
once at import: its fixed settings are the constants M_TRUE, PROPORTIONS,
BASIS and GRID, and a SimulationDesign is only the five numbers that vary
(n, p_signal, p_noise, delta, seed).
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import resources

import numpy as np

from mfclust.basis import build_basis, design_matrix
from mfclust.em import NumericalError
from mfclust.fpca import FunctionalDataSet, check_q_c, fit_fpca, standardize
from mfclust.select import SearchGrid, map_jobs, model_search

DEFAULT_KINDS = ("individual", "variable", "group", "none")


def _load_frozen_design() -> dict:
    with resources.files("mfclust").joinpath("data/benchmark_design.json").open(encoding="utf-8") as fh:
        frozen = json.load(fh)
    if frozen.get("version") != 1:
        raise ValueError(f"unsupported benchmark design version {frozen.get('version')!r}")
    return frozen


# parsed once: every design, dataset, sweep and aggregate reads these
_FROZEN = _load_frozen_design()
M_TRUE: int = _FROZEN["m_true"]
PROPORTIONS: tuple[float, ...] = tuple(_FROZEN["proportions"])
BASIS = build_basis(*_FROZEN["domain"], _FROZEN["n_basis"], _FROZEN["order"])
GRID = np.linspace(*_FROZEN["domain"], _FROZEN["n_times"])
_GRID_DESIGN = design_matrix(BASIS, GRID)  # (n_times, n_basis): coefficients -> curve values
for _shared in (GRID, _GRID_DESIGN):
    _shared.setflags(write=False)  # every generated dataset shares these arrays
SCENARIOS = {
    name: {"levels": tuple(spec["levels"]), "varies": spec["varies"]}
    for name, spec in _FROZEN["scenarios"].items()
}


@dataclass(frozen=True)
class SimulationDesign:
    """What varies between synthetic datasets of the frozen population: n
    observations of p_signal signal and p_noise noise sensors, the divisor
    delta of every coefficient variance, and the seed of the draw. Equal
    numbers give equal designs, which hash alike.
    """

    n: int = 200
    p_signal: int = 2
    p_noise: int = 16
    delta: float = 1.5
    seed: int = 0

    def __post_init__(self):
        for name, count in (("p_signal", self.p_signal), ("p_noise", self.p_noise)):
            if count < 0:
                raise ValueError(f"{name} must be nonnegative, got {count}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.p == 0:
            raise ValueError("need at least one sensor")

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

    @property
    def signal_means(self) -> np.ndarray:
        """(M_TRUE, p_signal, BASIS.n_basis) cluster mean coefficients: the
        frozen file's sensors first, then sensors drawn reproducibly from its
        master seed at the same scale."""
        h = BASIS.n_basis
        frozen = np.asarray(_FROZEN["signal_means"], dtype=float)  # (p_frozen, m, h)
        extra = [
            np.random.default_rng(np.random.SeedSequence([_FROZEN["master_seed"], s]))
            .normal(0.0, _FROZEN["mean_scale"], size=(M_TRUE, h))
            for s in range(frozen.shape[0], self.p_signal)
        ]
        means = np.concatenate([frozen[: self.p_signal], np.reshape(extra, (-1, M_TRUE, h))])
        return means.transpose(1, 0, 2)


def generate_dataset(design: SimulationDesign) -> FunctionalDataSet:
    """Draw one dataset: labels, spline coefficients, curves, standardization.

    Per observation a cluster is drawn from PROPORTIONS and the p * h
    coefficient vector from that cluster's diagonal Gaussian: signal_means
    on the signal sensors and zero on the noise sensors, with the frozen
    file's signal and noise coefficient variances divided by delta. Curves
    are the coefficients pushed through BASIS on GRID, then
    fpca.standardize rescales each sensor to pooled mean 0 and variance 1.
    Identical designs give identical datasets.
    """
    rng = np.random.default_rng(design.seed)
    m, h = M_TRUE, BASIS.n_basis
    labels = rng.choice(m, size=design.n, p=np.asarray(PROPORTIONS))

    mean_blocks = np.concatenate(
        [design.signal_means, np.zeros((m, design.p_noise, h))], axis=1
    )  # (m, p, h)
    variances = np.repeat(
        [_FROZEN["coef_variance"], _FROZEN["noise_variance"]], [design.p_signal, design.p_noise]
    ) / design.delta  # (p,)

    coeffs = mean_blocks[labels] + rng.standard_normal((design.n, design.p, h)) * np.sqrt(
        variances
    )[:, None]

    curves = coeffs @ _GRID_DESIGN.T  # (n, p, n_times)
    raw = FunctionalDataSet(times=GRID, values=curves, sensor_names=design.sensor_names, labels=labels)
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


def removal_counts(removed: set[str], signal: set[str], noise: set[str]) -> tuple[int, int]:
    """(correctly removed, falsely removed) sensors of one fit: removed
    noise sensors count as correct, removed signal sensors as false."""
    unknown = removed - (signal | noise)
    if unknown:
        raise ValueError(f"unknown sensors in removed set: {sorted(unknown)}")
    return len(removed & noise), len(removed & signal)


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
    return SimulationDesign(seed=seed, **{varies: level})


def scenario_levels(scenario: str, reps: int, levels, q_c: int, grid: SearchGrid = SearchGrid()) -> tuple:
    """The levels a sweep runs (the scenario's own when levels is None),
    after checking the scenario, reps, that no level repeats, and every
    level's design, its component count q_c and grid's lambdas at its n."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIOS)}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    levels = tuple(levels) if levels is not None else SCENARIOS[scenario]["levels"]
    if len(set(map(float, levels))) < len(levels):
        raise ValueError(f"levels must not repeat, got {', '.join(f'{v:g}' for v in levels)}")
    for level in levels:
        n = _design_for(scenario, level, seed=0).n
        check_q_c(q_c, BASIS.n_basis, n)
        grid.lambdas(n)
    return levels


def _replicate_seed(seed: int, level_idx: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, level_idx, rep]).generate_state(1)[0])


def _run_replicate(args):
    """One replicate of a sweep: its records, one per penalty kind that
    fitted, and the (level, kind) cell of each kind that failed."""
    scenario, level, level_idx, rep, kinds, seed, q_c, grid = args
    rep_seed = _replicate_seed(seed, level_idx, rep)
    design = _design_for(scenario, level, rep_seed)
    data = generate_dataset(design)
    _, B = fit_fpca(data, BASIS, q_c=q_c)
    signal = set(design.signal_sensor_names)
    noise = set(design.noise_sensor_names)

    records, failed = [], []
    for kind, report in zip(kinds, model_search(B, grid, kinds, seed=rep_seed + 1)):
        if isinstance(report, NumericalError):
            failed.append((level, kind))
            continue
        fit, row = report.best_fit, report.best_row
        correct, false = removal_counts(fit.removed_sensors, signal, noise)
        records.append(
            ReplicateRecord(
                scenario=scenario,
                level=float(level),
                kind=kind,
                rep=rep,
                seed=rep_seed,
                m_hat=row.m,
                ari=ari(data.labels, fit.hard_labels),
                variables_removed=count_zero_columns(fit.params.zero_mask),
                removed_correctly=correct,
                removed_falsely=false,
                lam=row.lam,
                gamma=row.gamma,
                bic=row.bic,
                max_rise=max((r.max_rise for r in report.rows), default=0.0),
            )
        )
    return records, failed


# the BenchmarkRow fields that aggregate computes from a cell's records
_CELL_STATS = tuple(BenchmarkRow.__dataclass_fields__)[4:-1]


def aggregate(cell: list[ReplicateRecord]) -> dict[str, float]:
    """The statistics of one (level, penalty kind) cell's records, keyed by
    their BenchmarkRow field; without records they are nan."""
    if not cell:
        return dict.fromkeys(_CELL_STATS, float("nan"))
    q1, med, q3 = (float(v) for v in np.percentile([r.ari for r in cell], [25, 50, 75]))
    return dict(
        mae_m=mae_m([r.m_hat for r in cell], M_TRUE),
        mean_variables_removed=float(np.mean([r.variables_removed for r in cell])),
        mean_removed_correctly=float(np.mean([r.removed_correctly for r in cell])),
        mean_removed_falsely=float(np.mean([r.removed_falsely for r in cell])),
        ari_median=med,
        ari_q1=q1,
        ari_q3=q3,
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
    sees each replicate record as soon as it is available. Records are
    grouped once into one row per (level, penalty kind) cell; failed
    replicates are dropped from their cell and counted in n_failed.
    """
    grid = grid or SearchGrid()
    levels = scenario_levels(scenario, reps, levels, q_c, grid)

    tasks = [
        (scenario, level, level_idx, rep, tuple(kinds), seed, q_c, grid)
        for level_idx, level in enumerate(levels)
        for rep in range(reps)
    ]
    records: list[ReplicateRecord] = []
    cells: defaultdict[tuple, list[ReplicateRecord]] = defaultdict(list)
    n_failed: Counter = Counter()

    # map_jobs yields in task order, so records stream deterministically
    # and callers can persist them row by row as replicates finish
    for recs, failed in map_jobs(_run_replicate, tasks, n_jobs):
        for rec in recs:
            records.append(rec)
            cells[rec.level, rec.kind].append(rec)
            if on_record is not None:
                on_record(rec)
        n_failed.update(failed)

    # a level keys its cell as given and as the float its records carry: both hash alike
    rows = [
        BenchmarkRow(scenario=scenario, level=float(level), kind=kind, reps=len(cells[level, kind]),
                     n_failed=n_failed[level, kind], **aggregate(cells[level, kind]))
        for level in levels
        for kind in kinds
    ]
    return rows, records
