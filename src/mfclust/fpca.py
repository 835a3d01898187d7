"""Per-sensor functional principal components on a shared spline basis.

Each sensor's curves are fitted to the common B-spline basis by least
squares. The sample covariance of the fitted coefficients, whitened by the
basis Gram matrix, yields eigenfunctions that are orthonormal under the L2
inner product and scores that are the L2 projections of centered curves
onto them. Sensors are reduced independently; their per-sensor score
blocks are then assembled side by side into one coefficient matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from mfclust.basis import BasisSpec, design_matrix, fit_coefficients, gram_matrix


@dataclass
class FunctionalDataSet:
    """n curves per sensor sampled on one shared time grid.

    values has shape (n, p, tau): observation x sensor x time point.
    """

    times: np.ndarray
    values: np.ndarray
    sensor_names: list[str]
    obs_ids: list[str] | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("values must have shape (n, p, tau)")
        n, p, tau = self.values.shape
        if self.times.shape != (tau,):
            raise ValueError("times length must match the last axis of values")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if len(self.sensor_names) != p:
            raise ValueError("sensor_names length must match sensor axis")
        if self.obs_ids is not None and len(self.obs_ids) != n:
            raise ValueError("obs_ids length must match observation axis")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise ValueError("labels length must match observation axis")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def n_times(self) -> int:
        return self.values.shape[2]

    def sensor_index(self, sensor: str) -> int:
        try:
            return self.sensor_names.index(sensor)
        except ValueError:
            raise KeyError(f"unknown sensor {sensor!r}") from None


def standardize(data: FunctionalDataSet) -> tuple[FunctionalDataSet, dict[str, tuple[float, float]]]:
    """Rescale each sensor to pooled mean 0 and variance 1.

    Pooling is over all curves and time points of the sensor. Returns the
    rescaled dataset and per-sensor (mean, sd) so the transform can be
    inverted exactly. A sensor whose mean or sd overflows (values near the
    float limit) or whose sd is zero raises ValueError.
    """
    # an overflow shows as a non-finite mean or sd, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        means = data.values.mean(axis=(0, 2))
        sds = data.values.std(axis=(0, 2))
    stats: dict[str, tuple[float, float]] = {}
    for name, mean, sd in zip(data.sensor_names, means, sds):
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise ValueError(f"sensor {name!r} has a non-finite mean or spread, cannot standardize")
        if sd <= 0.0:
            raise ValueError(f"sensor {name!r} has zero variance, cannot standardize")
        stats[name] = (float(mean), float(sd))
    values = data.values - means[:, None]
    values /= sds[:, None]
    return replace(data, values=values), stats


@dataclass
class SensorFpcaModel:
    """Fitted principal component model for one sensor.

    eigen_coeffs columns hold spline coefficients of the eigenfunctions,
    orthonormal under the Gram inner product. variance_explained holds the
    cumulative fraction of total variance carried by the first l
    components, l = 1..q_c.
    """

    sensor: str
    basis: BasisSpec
    times: np.ndarray
    mean_coeffs: np.ndarray
    eigen_coeffs: np.ndarray
    eigenvalues: np.ndarray
    variance_explained: np.ndarray
    standardization: tuple[float, float] = (0.0, 1.0)
    gram: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.gram is None:
            self.gram = gram_matrix(self.basis)

    @property
    def q_c(self) -> int:
        return self.eigen_coeffs.shape[1]


def _check_q_c(q_c: int, n: int, basis: BasisSpec) -> None:
    if not 1 <= q_c <= min(n - 1, basis.n_basis):
        raise ValueError(
            f"q_c must be in [1, min(n-1, n_basis)] = [1, {min(n - 1, basis.n_basis)}], got {q_c}"
        )


def _sensor_model(sensor, basis, times, coeffs, gram, q_c, standardization) -> SensorFpcaModel:
    """The principal component model of one sensor from its (n, n_basis)
    spline coefficients and the basis Gram matrix."""
    n = coeffs.shape[0]
    mean_coeffs = coeffs.mean(axis=0)
    centered = coeffs - mean_coeffs
    cov = centered.T @ centered / n

    chol = np.linalg.cholesky(gram)
    whitened = chol.T @ cov @ chol
    whitened = 0.5 * (whitened + whitened.T)
    evals, evecs = np.linalg.eigh(whitened)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]

    total = evals.sum()
    if total > 0:
        cumfrac = np.cumsum(evals) / total
    else:
        cumfrac = np.ones_like(evals)

    eigen_coeffs = np.linalg.solve(chol.T, evecs[:, :q_c])
    for l in range(q_c):
        col = eigen_coeffs[:, l]
        if col[np.argmax(np.abs(col))] < 0:
            eigen_coeffs[:, l] = -col

    return SensorFpcaModel(
        sensor=sensor,
        basis=basis,
        times=times.copy(),
        mean_coeffs=mean_coeffs,
        eigen_coeffs=eigen_coeffs,
        eigenvalues=evals[:q_c],
        variance_explained=cumfrac[:q_c],
        standardization=standardization,
        gram=gram,
    )


def fit_sensor_fpca(
    data: FunctionalDataSet,
    sensor: str,
    basis: BasisSpec,
    q_c: int,
    standardization: tuple[float, float] = (0.0, 1.0),
) -> SensorFpcaModel:
    """Fit the principal component model for one sensor.

    The eigenproblem is solved on the Gram-whitened coefficient covariance
    (divisor n), so eigenvalues equal the empirical score variances and
    eigenfunctions are Gram-orthonormal. Eigenvector signs are fixed so the
    largest-magnitude spline coefficient is positive.
    """
    _check_q_c(q_c, data.n, basis)
    curves = data.values[:, data.sensor_index(sensor), :]
    coeffs = fit_coefficients(basis, data.times, curves)
    return _sensor_model(sensor, basis, data.times, coeffs, gram_matrix(basis), q_c, standardization)


def _project(model: SensorFpcaModel, coeffs: np.ndarray) -> np.ndarray:
    """Scores of curves given by their spline coefficients."""
    return (coeffs - model.mean_coeffs) @ model.gram @ model.eigen_coeffs


def transform(model: SensorFpcaModel, curve: np.ndarray) -> np.ndarray:
    """Scores of one curve sampled on the model's time grid."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape != model.times.shape:
        raise ValueError(
            f"curve has {curve.shape[0]} samples, model grid has {model.times.shape[0]}"
        )
    return _project(model, fit_coefficients(model.basis, model.times, curve))


def score_matrix(model: SensorFpcaModel, data: FunctionalDataSet) -> np.ndarray:
    """Scores for every observation of the model's sensor, shape (n, q_c)."""
    curves = data.values[:, data.sensor_index(model.sensor), :]
    return _project(model, fit_coefficients(model.basis, data.times, curves))


def reconstruct(model: SensorFpcaModel, scores: np.ndarray) -> np.ndarray:
    """Curve values on the model grid rebuilt from mean plus scores."""
    coeffs = model.mean_coeffs + model.eigen_coeffs @ np.asarray(scores, dtype=float)
    return design_matrix(model.basis, model.times) @ coeffs


def select_num_components(models: list[SensorFpcaModel], alpha: float, beta: float) -> int:
    """Smallest component count explaining enough variance on enough sensors.

    Returns the smallest q such that at least a fraction alpha of the
    sensors have cumulative variance explained above beta at q components.
    Falls back to the full basis size with a warning when no q satisfies
    the rule. The supplied models must be fitted at the maximum q_c to be
    considered.
    """
    if not 0 < alpha <= 1 or not 0 < beta < 1:
        raise ValueError("need 0 < alpha <= 1 and 0 < beta < 1")
    max_q = min(m.q_c for m in models)
    fractions = np.stack([m.variance_explained[:max_q] for m in models])
    for q in range(1, max_q + 1):
        if np.mean(fractions[:, q - 1] > beta) >= alpha:
            return q
    warnings.warn(
        f"no component count up to {max_q} satisfies the (alpha={alpha}, beta={beta}) rule; "
        f"using {max_q}"
    )
    return max_q


@dataclass
class CoefficientMatrix:
    """Stacked per-sensor score blocks, one column per (sensor, component).

    Columns are ordered sensor-major: column j belongs to sensor j // q_c,
    component j % q_c.
    """

    scores: np.ndarray
    q_c: int
    sensor_names: list[str]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.ndim != 2:
            raise ValueError("scores must be 2-D")
        if self.scores.shape[1] != len(self.sensor_names) * self.q_c:
            raise ValueError("score columns must equal p * q_c")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def p(self) -> int:
        return len(self.sensor_names)

    @property
    def q(self) -> int:
        return self.scores.shape[1]

    @classmethod
    def from_scores(cls, scores: np.ndarray, q_c: int, sensor_names: list[str] | None = None):
        scores = np.asarray(scores, dtype=float)
        if scores.shape[1] % q_c != 0:
            raise ValueError("column count not divisible by q_c")
        p = scores.shape[1] // q_c
        names = sensor_names if sensor_names is not None else [f"s{i:02d}" for i in range(p)]
        return cls(scores=scores, q_c=q_c, sensor_names=list(names))


def assemble_coefficients(blocks: list[tuple[str, np.ndarray]]) -> CoefficientMatrix:
    """Stack (sensor, n x q_c scores) blocks into one coefficient matrix."""
    if not blocks:
        raise ValueError("no score blocks given")
    q_c = blocks[0][1].shape[1]
    n = blocks[0][1].shape[0]
    for name, block in blocks:
        if block.shape != (n, q_c):
            raise ValueError(
                f"block for sensor {name!r} has shape {block.shape}, expected {(n, q_c)}"
            )
    scores = np.concatenate([block for _, block in blocks], axis=1)
    return CoefficientMatrix(scores=scores, q_c=q_c, sensor_names=[name for name, _ in blocks])


def fit_fpca(
    data: FunctionalDataSet,
    basis: BasisSpec,
    q_c: int | None = None,
    alpha: float = 0.8,
    beta: float = 0.8,
    standardization: dict[str, tuple[float, float]] | None = None,
) -> tuple[list[SensorFpcaModel], CoefficientMatrix]:
    """Fit every sensor and assemble the coefficient matrix.

    With q_c=None the component count is chosen by the (alpha, beta) rule
    from models fitted at the maximum usable q_c.
    """
    stats = standardization or {}
    fit_q = min(data.n - 1, basis.n_basis) if q_c is None else q_c
    _check_q_c(fit_q, data.n, basis)
    # one Gram matrix for the shared basis and one coefficient fit per
    # sensor, reused for both the eigenproblem and the scores
    gram = gram_matrix(basis)
    coeffs = [fit_coefficients(basis, data.times, data.values[:, s, :]) for s in range(data.p)]
    models = [
        _sensor_model(name, basis, data.times, c, gram, fit_q, stats.get(name, (0.0, 1.0)))
        for name, c in zip(data.sensor_names, coeffs)
    ]
    if q_c is None:
        q_c = select_num_components(models, alpha, beta)
        models = [
            replace(
                m,
                eigen_coeffs=m.eigen_coeffs[:, :q_c],
                eigenvalues=m.eigenvalues[:q_c],
                variance_explained=m.variance_explained[:q_c],
            )
            for m in models
        ]
    blocks = [(m.sensor, _project(m, c)) for m, c in zip(models, coeffs)]
    return models, assemble_coefficients(blocks)
