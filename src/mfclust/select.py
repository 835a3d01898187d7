"""Hyper-parameter search: adjusted BIC over (m, lambda, gamma) grids.

Each penalty kind is fitted in two phases. The pilot phase runs the lambda
grid with unit weights (the gamma = 0 member of the adaptive family) and
keeps the minimum-BIC fit; its means become the reference for the adaptive
weights. The adaptive phase reruns the lambda grid for every gamma in the
grid with those weights; at lambda = 0 the weights do not matter, so it
reuses the pilot's fit there. All rows, pilot and adaptive, compete for the
final model under the adjusted BIC, whose effective dimension credits
every mean component forced to zero.

Every fit of one cluster count starts from the same k-means start, so the
lambda > 0 points of a phase are the lanes of one run_em call: one for the
pilot and one for every (gamma, lambda) point of the adaptive phase. The
lambda = 0 fit runs alone.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

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
        if any(m < 1 for m in self.m_values):
            raise ValueError("cluster counts must be positive")
        if not all(0 < g < math.inf for g in self.gamma_values):
            raise ValueError("gamma grid must be positive and finite (0 is the built-in pilot phase)")
        if not all(0 <= c < math.inf for c in self.lambda_multipliers):
            raise ValueError("lambda multipliers must be nonnegative and finite")

    def lambdas(self, n: int) -> tuple[float, ...]:
        scale = n ** (1.0 / 3.0)
        return tuple(mult * scale for mult in self.lambda_multipliers)


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


def _fit_points(B, m, points, init, phase, zero=None):
    """Fit the grid points, (spec, gamma) pairs; return their (row, fit)
    pairs and the failure messages, both in grid order.

    The lambda > 0 specs are the lanes of one run_em call. A lambda = 0 spec
    is fitted alone, unless zero, the pilot's (row, fit) there, is given:
    that spec has unit weights whatever gamma is, so it is reused instead.
    """
    laned = [spec for spec, _ in points if spec.lam > 0.0]
    lane_fits = iter(run_em(B, m, laned, init=init) if laned else [])
    done, failures = [], []
    for spec, gamma in points:
        if spec.lam > 0.0:
            fit = next(lane_fits)
        elif zero is not None:
            row, fit = zero
            done.append((replace(row, phase=phase), fit))
            continue
        else:
            try:
                fit = run_em(B, m, spec, init=init)
            except NumericalError as exc:
                fit = exc
        if isinstance(fit, NumericalError):
            failures.append(f"m={m}, kind={spec.kind}, lam={spec.lam:.4g}, gamma={gamma:g} ({phase}): {fit}")
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
    """Pilot then adaptive sweeps for one m.

    Returns m, every evaluated row, the best converged (row, fit) or None,
    the reference means of the adaptive phase (None for kind 'none') and
    the failure messages. Every fit of this m starts from one k-means
    initialization.
    """
    B, m, kind, grid, seed = args
    try:
        init = initialize(B, m, seed + m)
    except NumericalError as exc:
        return m, [], None, None, [f"m={m}: initialization failed: {exc}"]

    lambdas = (0.0,) if kind == "none" else grid.lambdas(B.n)
    pilot = [(PenaltySpec(kind, lam), 0.0) for lam in lambdas]
    points, failures = _fit_points(B, m, pilot, init, "pilot")
    reference = None
    if kind != "none":
        pilot_best = _best_point(points)
        if pilot_best is None:
            failures.append(f"m={m}, kind={kind}: no pilot fit converged, adaptive phase skipped")
        else:
            reference = pilot_best[1].params.means
            zero = next((p for p in points if p[0].lam == 0.0), None)
            adaptive = []
            for gamma in grid.gamma_values:
                weights = adaptive_weights(kind, gamma, reference)
                adaptive += [
                    (PenaltySpec(kind, lam, float(gamma), weights) if lam > 0.0 else PenaltySpec(kind, lam), gamma)
                    for lam in lambdas
                ]
            fitted, fails = _fit_points(B, m, adaptive, init, "adaptive", zero)
            points.extend(fitted)
            failures.extend(fails)
    return m, [row for row, _ in points], _best_point(points), reference, failures


def model_search(
    B: CoefficientMatrix,
    grid: SearchGrid,
    kind: str,
    seed: int = 0,
    n_jobs: int = 1,
) -> SelectionReport:
    """Evaluate the full (m, lambda, gamma) grid for one penalty kind.

    Pilot rows compete alongside adaptive rows, so with 0 in the lambda
    grid the unpenalized model is always a candidate. Non-converged fits
    are reported but excluded from the minimum-BIC choice; ties resolve to
    the smaller (m, lambda, gamma). Cluster-count tasks are independent
    and may run in a process pool.
    """
    tasks = [(B, m, kind, grid, seed) for m in grid.m_values]
    if n_jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_search_one_m, tasks))
    else:
        outcomes = [_search_one_m(t) for t in tasks]
    outcomes.sort(key=lambda item: item[0])

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
        raise NumericalError(
            "no grid point produced a converged fit: " + "; ".join(failures or ["(no detail)"])
        )
    best_row, best_fit = best
    return SelectionReport(
        rows=rows, best_row=best_row, best_fit=best_fit,
        reference_means=reference_means, failures=failures,
    )
