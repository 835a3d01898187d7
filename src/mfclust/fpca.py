"""Per-sensor functional principal components on a shared spline basis.

`fit_fpca` is the one fitting path. It fits all curves of all sensors to
the common B-spline basis with one least-squares projector, whitens each
sensor's coefficient covariance by the basis Gram matrix (one Cholesky
factor for every sensor) and solves the sensors' eigenproblems as one
batch. The eigenfunctions are orthonormal under the L2 inner product and
the scores are the L2 projections of the centred curves onto them; the
per-sensor score blocks sit side by side in one coefficient matrix.
`transform` scores new curves with a fitted sensor model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from mfclust.basis import BasisSpec, design_matrix, fit_coefficients, gram_matrix


@dataclass
class FunctionalDataSet:
    """n curves per sensor sampled on one shared time grid.

    values has shape (n, p, tau): observation x sensor x time point. A
    dataset built without obs_ids numbers its observations "0".."n-1".
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
        if self.obs_ids is None:
            self.obs_ids = [str(i) for i in range(n)]
        if len(self.obs_ids) != n:
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

    @property
    def q_c(self) -> int:
        return self.eigen_coeffs.shape[1]


def check_q_c(q_c: int, n_basis: int, n: int | None = None) -> None:
    """Raise ValueError unless 1 <= q_c <= min(n - 1, n_basis); without n,
    before the curves are read, only the basis bounds q_c."""
    bound, rule = (n_basis, "n_basis") if n is None else (min(n - 1, n_basis), "min(n-1, n_basis)")
    if not 1 <= q_c <= bound:
        raise ValueError(f"q_c must be in [1, {rule}] = [1, {bound}], got {q_c}")


def check_rule(alpha: float, beta: float) -> None:
    """Raise ValueError unless the component rule's shares are in range."""
    if not 0 < alpha <= 1 or not 0 < beta < 1:
        raise ValueError("need 0 < alpha <= 1 and 0 < beta < 1")


def transform(model: SensorFpcaModel, curves: np.ndarray) -> np.ndarray:
    """Scores of one curve, shape (q_c,), or of an (n, len(times)) matrix of
    curves, shape (n, q_c), sampled on the model's time grid."""
    curves = np.asarray(curves, dtype=float)
    if curves.shape[-1:] != model.times.shape:
        raise ValueError(
            f"curve has {curves.shape[-1]} samples, model grid has {model.times.shape[0]}"
        )
    coeffs = fit_coefficients(model.basis, model.times, curves)
    return (coeffs - model.mean_coeffs) @ gram_matrix(model.basis) @ model.eigen_coeffs


def reconstruct(model: SensorFpcaModel, scores: np.ndarray) -> np.ndarray:
    """Curve values on the model grid rebuilt from mean plus scores."""
    coeffs = model.mean_coeffs + model.eigen_coeffs @ np.asarray(scores, dtype=float)
    return design_matrix(model.basis, model.times) @ coeffs


def select_num_components(fractions: np.ndarray, alpha: float, beta: float) -> int:
    """Smallest component count explaining enough variance on enough sensors.

    fractions is the (p, q_max) matrix of cumulative variance fractions,
    one row per sensor. Returns the smallest q such that at least a
    fraction alpha of the sensors have cumulative variance explained above
    beta at q components. Falls back to q_max with a warning when no q
    satisfies the rule.
    """
    check_rule(alpha, beta)
    fractions = np.asarray(fractions, dtype=float)
    max_q = fractions.shape[1]
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


def fit_fpca(
    data: FunctionalDataSet,
    basis: BasisSpec,
    q_c: int | None = None,
    alpha: float = 0.8,
    beta: float = 0.8,
    standardization: dict[str, tuple[float, float]] | None = None,
) -> tuple[list[SensorFpcaModel], CoefficientMatrix]:
    """Fit every sensor's principal component model and score its curves.

    All n * p curves are fitted to the basis in one least-squares
    projection. Per sensor, the eigenproblem is solved on the Gram-whitened
    coefficient covariance (divisor n), so eigenvalues equal the empirical
    score variances and eigenfunctions are Gram-orthonormal; eigenvector
    signs are fixed so the largest-magnitude spline coefficient is
    positive. The sensors share one Gram matrix and one Cholesky factor and
    are solved as one batch. With q_c=None the component count is chosen
    by the (alpha, beta) rule from the cumulative fractions up to
    min(n - 1, n_basis), which needs n >= 2. The scores are the L2
    projections of the centred curves, stacked sensor-major.
    """
    stats = standardization or {}
    n, p = data.n, data.p
    max_q = min(n - 1, basis.n_basis)
    if q_c is not None:
        check_q_c(q_c, basis.n_basis, n)
    elif n < 2:
        raise ValueError(f"the component rule needs at least 2 curves, got n={n}")
    coeffs = fit_coefficients(basis, data.times, data.values.reshape(n * p, -1)).reshape(n, p, -1)
    mean_coeffs = coeffs.mean(axis=0)
    coeffs -= mean_coeffs
    by_sensor = coeffs.transpose(1, 0, 2)  # (p, n, n_basis) view of the centred coefficients
    cov = by_sensor.transpose(0, 2, 1) @ by_sensor / n

    gram = gram_matrix(basis)
    chol = np.linalg.cholesky(gram)
    whitened = chol.T @ cov @ chol
    whitened = 0.5 * (whitened + whitened.transpose(0, 2, 1))
    evals, evecs = np.linalg.eigh(whitened)
    evals = np.maximum(evals[:, ::-1], 0.0)
    evecs = evecs[:, :, ::-1]
    total = evals.sum(axis=1, keepdims=True)
    cumfrac = np.where(total > 0, np.cumsum(evals, axis=1) / np.where(total > 0, total, 1.0), 1.0)

    if q_c is None:
        q_c = select_num_components(cumfrac[:, :max_q], alpha, beta)
    eigen_coeffs = np.linalg.solve(chol.T, evecs[:, :, :q_c])
    peaks = np.take_along_axis(eigen_coeffs, np.abs(eigen_coeffs).argmax(axis=1)[:, None, :], axis=1)
    eigen_coeffs *= np.where(peaks < 0, -1.0, 1.0)
    scores = by_sensor @ (gram @ eigen_coeffs)  # (p, n, q_c)

    models = [
        SensorFpcaModel(
            sensor=name,
            basis=basis,
            times=data.times.copy(),
            mean_coeffs=mean_coeffs[s],
            eigen_coeffs=eigen_coeffs[s],
            eigenvalues=evals[s, :q_c],
            variance_explained=cumfrac[s, :q_c],
            standardization=stats.get(name, (0.0, 1.0)),
        )
        for s, name in enumerate(data.sensor_names)
    ]
    B = CoefficientMatrix(scores.transpose(1, 0, 2).reshape(n, p * q_c), q_c, list(data.sensor_names))
    return models, B
