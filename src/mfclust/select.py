"""Hyper-parameter search: adjusted BIC over (m, lambda, gamma) grids.

Each penalized kind is fitted in two phases. The pilot phase runs the
lambda grid with unit weights (the gamma = 0 member of the adaptive
family) and keeps the minimum-BIC fit; its means become the reference for
the adaptive weights. The adaptive phase reruns the lambda grid for every
gamma in the grid with those weights. All rows of a kind, pilot and
adaptive, compete under the adjusted BIC, whose effective dimension
credits every mean component forced to zero.

The kinds of one search share each cluster count's k-means start, so the
points of a phase are the lanes of one run_em call. At lambda = 0 neither
kind nor weights matter: each cluster count fits lambda = 0 once, and
every lambda = 0 point shares that fit or its NumericalError, in a row of
its own kind, phase and gamma. Kind 'none' has only that point.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from mfclust.em import (
    FitResult,
    NumericalError,
    PenaltySpec,
    adaptive_weights,
    initialize,
    run_em,
)
from mfclust.fpca import CoefficientMatrix

log = logging.getLogger(__name__)

DEFAULT_M_VALUES = (1, 2, 3, 4, 5, 6)
DEFAULT_GAMMA_VALUES = (0.5, 1.0, 1.5, 2.0)
DEFAULT_LAMBDA_MULTIPLIERS = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0)


@dataclass(frozen=True)
class SearchGrid:
    """Grids for the model search; lambda values scale with n**(1/3)."""

    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    gamma_values: tuple[float, ...] = DEFAULT_GAMMA_VALUES
    lambda_multipliers: tuple[float, ...] = DEFAULT_LAMBDA_MULTIPLIERS

    def __post_init__(self):
        if not self.m_values or not self.gamma_values or not self.lambda_multipliers:
            raise ValueError("grids must be nonempty")
        if not all(isinstance(m, (int, np.integer)) for m in self.m_values):
            raise ValueError(f"cluster counts must be integers, got {', '.join(map(repr, self.m_values))}")
        if any(m < 1 for m in self.m_values):
            raise ValueError("cluster counts must be positive")
        if not all(0 < g < math.inf for g in self.gamma_values):
            raise ValueError("gamma grid must be positive and finite (0 is the built-in pilot phase)")
        if not all(0 <= c < math.inf for c in self.lambda_multipliers):
            raise ValueError("lambda multipliers must be nonnegative and finite")
        for label, values in (("cluster counts", self.m_values), ("gammas", self.gamma_values),
                              ("lambda multipliers", self.lambda_multipliers)):
            if len(set(values)) < len(values):  # 1 and 1.0 are one value
                raise ValueError(f"{label} must not repeat, got {', '.join(f'{v:g}' for v in values)}")

    def lambdas(self, n: int) -> tuple[float, ...]:
        """The lambda grid at n observations; raises ValueError, naming the
        multiplier, where a multiplier times n**(1/3) overflows."""
        scale = n ** (1.0 / 3.0)
        lams = tuple(mult * scale for mult in self.lambda_multipliers)
        for mult, lam in zip(self.lambda_multipliers, lams):
            if lam == math.inf:
                raise ValueError(f"lambda multiplier {mult:g} times n**(1/3) overflows at n={n}")
        return lams


@dataclass(frozen=True)
class SelectionRow:
    """One evaluated grid point."""

    m: int
    lam: float
    gamma: float
    kind: str
    phase: str  # "pilot" or "adaptive"
    bic: float
    n_zero: int
    n_removed_sensors: int
    converged: bool
    plain_nll: float
    penalized_nll: float
    iterations: int
    max_rise: float = 0.0


@dataclass
class SelectionReport:
    """All evaluated rows plus the winning row and its fit."""

    rows: list[SelectionRow]
    best_row: SelectionRow
    best_fit: FitResult
    reference_means: dict[int, np.ndarray] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.best_row.kind

    @property
    def chosen(self) -> tuple[int, float, float, str]:
        """(m, lam, gamma, kind) of the winning row."""
        row = self.best_row
        return (row.m, row.lam, row.gamma, row.kind)


def row_sort_key(row: SelectionRow):
    """Total order for picking the winning row: BIC, then smaller model."""
    return (row.bic, row.m, row.lam, row.gamma)


def adjusted_bic(fit: FitResult, n: int, q: int) -> float:
    """2 * NLL + log(n*q) * d_e with d_e = m + q + m*q - n_zero - 1.

    The likelihood term is the unpenalized observed-data negative
    log-likelihood at the fitted parameters; zeroed mean components reduce
    the effective dimension one for one.
    """
    d_e = fit.m + q + fit.m * q - fit.n_zero_means - 1
    return 2.0 * fit.plain_nll + math.log(n * q) * d_e


def _evaluate_point(B, m, spec, fit, phase):
    """The selection row of the grid point spec, fitted as fit."""
    return SelectionRow(
        m=m,
        lam=spec.lam,
        gamma=spec.gamma,
        kind=spec.kind,
        phase=phase,
        bic=adjusted_bic(fit, B.n, B.q),
        n_zero=fit.n_zero_means,
        n_removed_sensors=len(fit.removed_sensors),
        converged=fit.converged,
        plain_nll=fit.plain_nll,
        penalized_nll=fit.penalized_nll,
        iterations=fit.iterations,
        max_rise=fit.max_objective_rise,
    )


def _fit_points(B, m, specs, init, phase, zero):
    """Fit the grid points, PenaltySpecs, as the lanes of one run_em call;
    return their (row, fit) pairs and the failure messages, both in grid
    order. zero is the lambda = 0 memo of m, a list that the first lambda
    = 0 lane fills with its FitResult or NumericalError; every other
    lambda = 0 point shares it."""
    first = None if zero else next((spec for spec in specs if spec.lam == 0.0), None)
    laned = [spec for spec in specs if spec.lam > 0.0 or spec is first]
    lane_fits = iter(run_em(B, laned, init) if laned else [])
    done, failures = [], []
    for spec in specs:
        fit = next(lane_fits) if spec.lam > 0.0 or spec is first else zero[0]
        if spec is first:
            zero.append(fit)
        if isinstance(fit, NumericalError):
            failures.append(f"m={m}, kind={spec.kind}, lam={spec.lam:.4g}, gamma={spec.gamma:g} ({phase}): {fit}")
        else:
            done.append((_evaluate_point(B, m, spec, fit, phase), fit))
    return done, failures


def _best_point(points):
    """The first converged (row, fit) with the smallest row_sort_key, or None."""
    best = None
    for row, fit in points:
        if row.converged and (best is None or row_sort_key(row) < row_sort_key(best[0])):
            best = (row, fit)
    return best


def _search_one_m(args):
    """Pilot then adaptive sweeps of every kind for one m, from one k-means
    initialization, over the search's lambdas and gammas. Returns, per
    kind, m, every evaluated row, the best converged (row, fit) or None,
    the reference means of the adaptive phase (None for kind 'none') and
    the failure messages."""
    B, m, kinds, lambdas, gammas, seed = args
    try:
        init = initialize(B, m, seed + m)
    except NumericalError as exc:
        return [(m, [], None, None, [f"m={m}: initialization failed: {exc}"])] * len(kinds)

    zero, outcomes = [], []
    for kind in kinds:
        lams = (0.0,) if kind == "none" else lambdas
        pilot = [PenaltySpec(kind, lam) for lam in lams]
        points, failures = _fit_points(B, m, pilot, init, "pilot", zero)
        reference = None
        if kind != "none":
            pilot_best = _best_point(points)
            if pilot_best is None:
                failures.append(f"m={m}, kind={kind}: no pilot fit converged, adaptive phase skipped")
            else:
                reference = pilot_best[1].params.means
                adaptive = []
                for gamma in gammas:
                    weights = adaptive_weights(kind, gamma, reference)
                    adaptive += [PenaltySpec(kind, lam, float(gamma), weights) for lam in lams]
                fitted, fails = _fit_points(B, m, adaptive, init, "adaptive", zero)
                points.extend(fitted)
                failures.extend(fails)
        outcomes.append((m, [row for row, _ in points], _best_point(points), reference, failures))
    return outcomes


def map_jobs(fn, tasks, n_jobs):
    """Yield fn(task) for each task of the list tasks, in task order:
    serially when fewer than two jobs would run, else from a process pool
    of min(n_jobs, len(tasks)) workers, so that no worker lacks a task."""
    workers = min(n_jobs, len(tasks))
    if workers < 2:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


def _report(outcomes):
    """One kind's SelectionReport from its outcomes in m order, or its NumericalError."""
    rows, failures, reference_means = [], [], {}
    for m, m_rows, _, reference, m_failures in outcomes:
        rows.extend(m_rows)
        failures.extend(m_failures)
        if reference is not None:
            reference_means[m] = reference
    for message in failures:
        log.warning("model search: %s", message)
    best = _best_point([best for _, _, best, _, _ in outcomes if best is not None])
    if best is None:
        return NumericalError(
            "no grid point produced a converged fit: " + "; ".join(failures or ["(no detail)"])
        )
    return SelectionReport(rows, *best, reference_means, failures)


def model_search(
    B: CoefficientMatrix,
    grid: SearchGrid,
    kinds: Sequence[str],
    seed: int = 0,
    n_jobs: int = 1,
) -> list[SelectionReport | NumericalError]:
    """Evaluate the full (m, lambda, gamma) grid for a sequence of penalty
    kinds of one dataset in one search; one kind searched alone is a
    one-element list. Returns, per kind in order, its SelectionReport or,
    where no grid point converged, its NumericalError, each as if searched
    alone. A numerical failure is always such an entry; only a bad argument
    raises: TypeError for a bare str, before any fit.

    Pilot rows compete alongside adaptive rows, so with 0 in the lambda
    grid the unpenalized model is always a candidate. Non-converged fits
    are reported but excluded from the minimum-BIC choice; ties resolve to
    the smaller (m, lambda, gamma). Cluster-count tasks are independent
    and run through map_jobs. A lambda multiplier that overflows at
    B.n raises ValueError before any fit.
    """
    if isinstance(kinds, str):
        raise TypeError("model_search takes a sequence of kinds; pass one kind as [kind]")
    lambdas = grid.lambdas(B.n)
    tasks = [(B, m, list(kinds), lambdas, grid.gamma_values, seed) for m in sorted(grid.m_values)]
    outcomes = list(map_jobs(_search_one_m, tasks, n_jobs))
    return [_report(per_m) for per_m in zip(*outcomes)]
