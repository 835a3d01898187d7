"""Penalized EM for a Gaussian mixture with one shared diagonal covariance.

The mixture is fitted to the rows of a coefficient matrix. Cluster means
may be penalized entrywise (individual), through each column's largest
absolute mean (variable), or in per-(cluster, sensor) blocks through their
L2 norm (group); adaptive weights sharpen any of the three. Every mean
update is the exact minimizer of its M-step objective: entrywise soft
thresholding (individual), the proximal map of a weighted L-infinity norm
per column (variable), and a block shrinkage whose norm is the root of a
scalar equation, solved by Newton's method (group). Each update
sets a mean, column or block exactly to zero on its zero condition.
Entries whose adaptive weight is infinite (reference mean exactly zero)
are pinned to zero for the whole fit.

The E-step works in reduced form. Of log pi_k + log f_k(x_i), only
x_i . (mu_k / sigma2) + log pi_k - 1/2 sum_j mu_kj^2 / sigma2_j depends on
k; the rest, -1/2 sum_j x_ij^2 / sigma2_j minus the normalizing constant,
cancels in the responsibilities and enters the likelihood once, summed
over the rows. One kernel (_log_joint) computes both.

The EM map is accelerated by SQUAREM (Varadhan & Roland, 2008), kept
monotone by falling back to the plain EM iterate whenever an extrapolated
point does not lower the observed objective. A fit holds proportions,
means and variances as views of one flat parameter vector, so SQUAREM's
differences, norms and extrapolation are single vector operations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from mfclust.fpca import CoefficientMatrix

_LOG_2PI = np.log(2.0 * np.pi)
_VARIANCE_FLOOR = 1e-8
_EMPTY_CLUSTER_TOL = 1e-12
_NEWTON_MAX_STEPS = 100
_NEWTON_RTOL = 4 * np.finfo(float).eps

PENALTY_KINDS = ("none", "individual", "variable", "group")


class NumericalError(RuntimeError):
    """A fit failed for numerical reasons (collapse, underflow, no valid grid point)."""


@dataclass
class MixtureParams:
    """Mixture parameters: proportions, mean matrix, shared diagonal variances."""

    proportions: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        m, q = self.means.shape
        if self.proportions.shape != (m,):
            raise ValueError("proportions must have one entry per cluster")
        if self.variances.shape != (q,):
            raise ValueError("variances must have one entry per column")
        for name in ("proportions", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if abs(self.proportions.sum() - 1.0) > 1e-10 or np.any(self.proportions < 0):
            raise ValueError("proportions must be nonnegative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def zero_mask(self) -> np.ndarray:
        """Boolean (m, q) mask of the means that are exactly zero."""
        return self.means == 0.0

    @property
    def m(self) -> int:
        return self.means.shape[0]

    @property
    def q(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind plus strength, adaptive exponent, and weights.

    weights is (m, q) for the individual penalty (one per mean), (q,) for
    the variable penalty (one per column) and (m,) for the group penalty
    (one per cluster); None means unit weights. Infinite weights arise from
    reference means that are exactly zero and pin the corresponding
    parameters to zero.
    """

    kind: str
    lam: float = 0.0
    gamma: float = 0.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be nonnegative")
        if self.kind == "none" and self.lam != 0.0:
            raise ValueError("kind 'none' requires lam == 0")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            object.__setattr__(self, "weights", w)

    @classmethod
    def adaptive(cls, kind: str, lam: float, gamma: float, reference_means: np.ndarray) -> "PenaltySpec":
        """Weights 1/|ref_kj|^gamma (individual), 1/max_k |ref_kj|^gamma
        (variable) or 1/||ref_k||^gamma (group)."""
        ref = np.asarray(reference_means, dtype=float)
        with np.errstate(divide="ignore"):
            if kind == "group":
                w = np.linalg.norm(ref, axis=1) ** (-float(gamma))
            elif kind == "variable":
                w = np.abs(ref).max(axis=0) ** (-float(gamma))
            else:
                w = np.abs(ref) ** (-float(gamma))
        return cls(kind=kind, lam=float(lam), gamma=float(gamma), weights=w)

    def weights_for(self, m: int, q: int) -> np.ndarray:
        """Weights in their full shape, defaulting to ones."""
        shape = {"variable": (q,), "group": (m,)}.get(self.kind, (m, q))
        if self.weights is None:
            return np.ones(shape)
        if self.weights.shape != shape:
            raise ValueError(f"weights shape {self.weights.shape} does not match {shape}")
        return self.weights

    def pinned(self, m: int, q: int) -> np.ndarray:
        """Boolean (m, q) mask of means pinned to zero by infinite weights."""
        if self.kind == "none" or self.lam == 0.0 or self.weights is None:
            return np.zeros((m, q), dtype=bool)
        inf = np.isinf(self.weights_for(m, q))
        if self.kind == "group":
            return np.repeat(inf[:, None], q, axis=1)
        if self.kind == "variable":
            return np.repeat(inf[None, :], m, axis=0)
        return inf


@dataclass
class FitResult:
    """Converged mixture fit plus bookkeeping for model selection."""

    params: MixtureParams
    responsibilities: np.ndarray
    hard_labels: np.ndarray
    penalized_nll: float
    plain_nll: float
    n_zero_means: int
    removed_sensors: set[str]
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def max_objective_rise(self) -> float:
        """Largest iteration-to-iteration increase of the observed objective."""
        trace = self.objective_trace
        if len(trace) < 2:
            return 0.0
        return float(max(b - a for a, b in zip(trace, trace[1:])))


# ---------------------------------------------------------------------------
# densities and E-step


def _log_joint(X, Xsq_colsum, proportions, means, variances):
    """Responsibilities and the observed negative log-likelihood at one point.

    The reduced log joint lj[i, k] = x_i . (mu_k / sigma2) + log pi_k -
    1/2 sum_j mu_kj^2 / sigma2_j differs from log pi_k + log f_k(x_i) by a
    term of row i alone, which cancels in tau = e / sum_k e with e =
    exp(lj - max_k lj). Summed over the rows, that term is -1/2
    Xsq_colsum . (1 / sigma2) - n/2 (q log 2 pi + sum_j log sigma2_j), where
    Xsq_colsum holds the column sums of X^2. Raises NumericalError when the
    peak of some row of lj, or that sum, is not finite.
    """
    n, q = X.shape
    inv = 1.0 / variances
    scaled = means * inv
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lj = X @ scaled.T + (np.log(proportions) - 0.5 * (scaled * means).sum(axis=1))
        peak = lj.max(axis=1)
        peak_sum = peak.sum()
        if not math.isfinite(peak_sum):
            raise NumericalError("all cluster densities underflowed for some observation")
        common = 0.5 * (Xsq_colsum @ inv + n * (q * _LOG_2PI + np.log(variances).sum()))
        if not math.isfinite(common):
            raise NumericalError("the scaled squared scores overflow")
        e = np.exp(lj - peak[:, None])
    total = e.sum(axis=1)
    return e / total[:, None], float(common - peak_sum - np.log(total).sum())


def e_step(B: CoefficientMatrix, params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and refreshed proportions.

    tau[i, k] is proportional to pi_k f_k(x_i), normalized in the log
    domain; the new proportions are the responsibility column means.
    """
    X = B.scores
    tau, _ = _log_joint(X, (X**2).sum(axis=0), params.proportions, params.means, params.variances)
    return tau, tau.mean(axis=0)


# ---------------------------------------------------------------------------
# penalty and M-step pieces


class _Penalty:
    """A PenaltySpec made concrete for m clusters and q = p q_c columns.

    A fit builds it once. kind is "none" whenever lam is 0. thr is lam
    times the weights in their full shape, (m, q) individual, (q,) variable
    and (m,) group, the last times sqrt(q_c). pinned is the (m, q) mask of
    means held at zero by infinite weights.
    """

    def __init__(self, spec: PenaltySpec, m: int, q: int, q_c: int):
        self.kind = "none" if spec.lam == 0.0 else spec.kind
        self.q_c = q_c
        self.pinned = spec.pinned(m, q)
        if self.kind == "none":
            return
        thr = spec.lam * spec.weights_for(m, q)
        self.thr = thr * np.sqrt(q_c) if self.kind == "group" else thr

    def value(self, means: np.ndarray) -> float:
        """The penalty term at means; see penalty_value."""
        if self.kind == "none":
            return 0.0
        thr = self.thr
        if self.kind == "individual":
            size = np.abs(means)
        elif self.kind == "variable":
            size = np.abs(means).max(axis=0)
        else:
            m, q = means.shape
            size = np.sqrt((means.reshape(m, q // self.q_c, self.q_c) ** 2).sum(axis=2))
            thr = thr[:, None]
        # exact zeros contribute nothing even under infinite weights
        with np.errstate(invalid="ignore"):
            terms = thr * size
        return float(terms[size != 0.0].sum())


def _variances(Xsq_colsum, G, T, means, n):
    return (Xsq_colsum - 2.0 * (means * G).sum(axis=0) + T @ (means**2)) / n


def _individual_update(G, T, sigma2, pen):
    """Entrywise soft-thresholded means: the exact minimizer for the individual penalty."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = 1.0 - pen.thr * sigma2 / np.abs(G)
    # fmax sends the nan of 0 / 0 (a zero score under a zero weight) to 0, as it does -inf
    out = G / T[:, None] * np.fmax(shrink, 0.0)
    out[pen.pinned] = 0.0
    return out


def _variable_update(G, T, sigma2, pen):
    """Exact minimizer for the variable penalty: one L-infinity prox per column.

    Column j minimizes sum_k T_k (mu_k - a_k)^2 / (2 sigma2_j) plus
    lam * w_j * max_k |mu_k|, with a = G / T. The minimizer clips every
    |a_k| at the level c_j solving sum_k T_k (|a_k| - c_j)_+ = lam w_j
    sigma2_j and keeps the signs; the column is exactly zero iff
    sum_k |G_kj| <= lam w_j sigma2_j. With the clusters sorted by |a_k|,
    decreasing, c_j is the largest of (S_i - lam w_j sigma2_j) / W_i over
    the prefix sums S_i of |G| and W_i of T, and at least 0.
    """
    abs_G = np.abs(G)
    A = abs_G / T[:, None]
    order = np.argsort(-A, axis=0, kind="stable")
    budget = pen.thr * sigma2
    prefix_G = np.cumsum(abs_G[order, np.arange(G.shape[1])], axis=0)
    levels = (prefix_G - budget) / np.cumsum(T[order], axis=0)
    c = np.maximum(levels.max(axis=0), 0.0)
    out = np.sign(G) * np.minimum(A, c)
    out[:, c == 0.0] = 0.0
    return out


def _group_update(G, T, sigma2, pen):
    """Exact block minimizer for the group penalty.

    Block (k, l) minimizes sum_i T_k (mu_i - a_i)^2 / (2 sigma2_i) plus
    thr_k ||mu||, with a = G / T over the block and thr_k = lam w_k
    sqrt(q_c). It is exactly zero iff ||G / sigma2|| <= thr_k; otherwise
    mu_i = G_i r / (T_k r + thr_k sigma2_i), where r = ||mu|| is the root of
    sum_i G_i^2 / (T_k r + thr_k sigma2_i)^2 = 1. Newton's method runs on
    that equation in the form psi(r) = (sum_i G_i^2 / (T_k r + thr_k
    sigma2_i)^2)^(-1/2) = 1: psi is increasing, concave (a power mean of
    exponent -2) and nearly linear, exactly linear for a single component.
    Since T_k r + thr_k sigma2_i <= T_k r + thr_k max_i sigma2_i, the root is
    at least max((||G|| - thr_k max_i sigma2_i) / T_k, 0); started there,
    below the root of a concave increasing psi, the iterates rise
    monotonically to it. It runs on the nonzero blocks only, all at once.
    """
    m, q = G.shape
    q_c = pen.q_c
    p = q // q_c
    thr = pen.thr  # (m,)
    G3 = G.reshape(m, p, q_c)
    sig3 = sigma2.reshape(p, q_c)
    scaled = G3 / sig3[None, :, :]
    live = np.sqrt((scaled * scaled).sum(axis=2)) > thr[:, None]  # (m, p)
    out = np.zeros((m, p, q_c))
    k, block = np.nonzero(live)
    g2 = G3[live] ** 2  # (L, q_c)
    t = T[k][:, None]
    c = thr[k][:, None] * sig3[block]
    r = np.maximum((np.sqrt(g2.sum(axis=1)) - c.max(axis=1)) / T[k], 0.0)
    settled = np.zeros(r.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        d = t * r[:, None] + c
        S = (g2 / d**2).sum(axis=1)
        # psi = S^(-1/2) and psi' = T_k S^(-3/2) sum_i G_i^2 / d_i^3
        r_next = r + (S**1.5 - S) / (T[k] * (g2 / d**3).sum(axis=1))
        # the iterates only rise, so a fall is rounding at the root
        done = r_next - r <= _NEWTON_RTOL * r_next
        r = np.where(settled, r, r_next)
        settled |= done
        if settled.all():
            break
    out[live] = G3[live] * r[:, None] / (t * r[:, None] + c)
    return out.reshape(m, q)


def penalty_value(means: np.ndarray, spec: PenaltySpec, q_c: int) -> float:
    """Value of the penalty term at the given means.

    individual: lam sum_kj w_kj |mu_kj|; variable: lam sum_j w_j max_k
    |mu_kj|; group: lam sqrt(q_c) sum_k w_k sum_l ||mu_kl||, over the
    (cluster, sensor) blocks mu_kl.
    """
    means = np.asarray(means, dtype=float)
    return _Penalty(spec, *means.shape, q_c).value(means)


def penalized_nll(B: CoefficientMatrix, params: MixtureParams, spec: PenaltySpec) -> float:
    """Observed-data penalized objective: -sum_i log g(x_i) plus the penalty."""
    X = B.scores
    _, nll = _log_joint(X, (X**2).sum(axis=0), params.proportions, params.means, params.variances)
    return nll + penalty_value(params.means, spec, B.q_c)


# ---------------------------------------------------------------------------
# initialization


def _kmeans_once(X, sq_norms, m, rng):
    """One k-means++ run on the rows of X, whose squared norms are sq_norms.

    The seeding draws from rng. Each Lloyd step takes the squared
    distances as |x|^2 - 2 x.c + |c|^2 and the centers from one one-hot
    product; a center left without members stays where it was. Returns
    the labels, the centers and the inertia.
    """
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, m):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[k] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))

    one_hot = np.eye(m)
    labels = np.full(n, -1)
    for _ in range(100):
        dist = sq_norms[:, None] - 2.0 * (X @ centers.T) + (centers**2).sum(axis=1)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=m)
        sums = one_hot[labels].T @ X
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
    inertia = dist[np.arange(n), labels].sum()
    return labels, centers, inertia


def initialize(B: CoefficientMatrix, m: int, seed: int) -> MixtureParams:
    """k-means initialization: shares, centroids, pooled within-cluster variances.

    Runs k-means++ 10 times from default_rng(seed) on the column-centred
    rows, where the expanded distances of the Lloyd step keep their
    precision whatever the scores' common offset, and keeps the partition
    of least inertia, the first of equal ones. Raises NumericalError if
    that partition leaves a cluster empty, as it must on data with fewer
    distinct rows than m, and, before any run, if there are fewer rows than
    m. Deterministic for a fixed seed.
    """
    X = B.scores
    n = X.shape[0]
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise NumericalError(f"need at least m={m} observations, got {n}")
    mean = X.mean(axis=0)
    Xc = X - mean
    sq_norms = (Xc**2).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(10):
        labels, centers, inertia = _kmeans_once(Xc, sq_norms, m, rng)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, _ = best
    counts = np.bincount(labels, minlength=m)
    if counts.min() == 0:
        raise NumericalError(f"k-means left an empty cluster (m={m}, n={n})")

    resid_sq = (Xc - centers[labels]) ** 2
    variances = np.maximum(resid_sq.sum(axis=0) / n, 1e-6)
    return MixtureParams(proportions=counts / n, means=centers + mean, variances=variances)


# ---------------------------------------------------------------------------
# full EM


def _mean_update_for(pen, G, T, sigma2):
    """The M-step mean update under the _Penalty pen from the weighted sums
    G = tau.T @ X and masses T."""
    if pen.kind == "none":
        return G / T[:, None]
    if pen.kind == "individual":
        return _individual_update(G, T, sigma2, pen)
    if pen.kind == "variable":
        return _variable_update(G, T, sigma2, pen)
    return _group_update(G, T, sigma2, pen)


def _removed_sensors(zero_mask: np.ndarray, sensor_names: list[str], q_c: int) -> set[str]:
    blocks = zero_mask.reshape(zero_mask.shape[0], -1, q_c)
    gone = blocks.all(axis=(0, 2))
    return {name for name, g in zip(sensor_names, gone) if g}


class _Fit:
    """What one fit computes once: the scores X, the column sums of X^2,
    the penalty, and the layout of the flat parameter vector theta =
    (proportions, means row by row, variances)."""

    def __init__(self, B: CoefficientMatrix, m: int, spec: PenaltySpec):
        self.X = B.scores
        self.n, self.q = self.X.shape
        self.m = m
        self.Xsq_colsum = (self.X**2).sum(axis=0)
        self.pen = _Penalty(spec, m, self.q, B.q_c)

    def split(self, theta):
        """Views of theta: proportions, (m, q) means, variances."""
        m, v = self.m, self.m * (1 + self.q)
        return theta[:m], theta[m:v].reshape(m, self.q), theta[v:]


def _expect(fit, theta):
    """E-step at theta: the observed objective there, the responsibilities
    and the cluster masses."""
    pi, means, sigma2 = fit.split(theta)
    tau, nll = _log_joint(fit.X, fit.Xsq_colsum, pi, means, sigma2)
    return nll + fit.pen.value(means), tau, tau.sum(axis=0)


def _screened(fit, theta):
    """_expect at a point reached by extrapolation, or None where that point
    underflows or leaves a cluster without mass."""
    try:
        state = _expect(fit, theta)
    except NumericalError:
        return None
    return state if state[2].min() > _EMPTY_CLUSTER_TOL else None


def _extrapolate(fit, theta0, theta1, theta2):
    """The SQUAREM point theta0 - 2 alpha r + alpha^2 v, or None when it has
    a proportion or variance that is not positive.

    r = theta1 - theta0 and v = theta2 - theta1 - r; alpha = -||r|| / ||v||,
    capped at -1, where alpha = -1 gives theta2 itself.
    """
    r = theta1 - theta0
    v = theta2 - theta1 - r
    vv = v @ v
    if vv == 0.0:
        return None
    alpha = min(-math.sqrt(r @ r) / math.sqrt(vv), -1.0)
    point = theta0 - 2.0 * alpha * r + alpha**2 * v
    pi, _, sigma2 = fit.split(point)
    if pi.min() <= 0.0 or sigma2.min() <= 0.0:
        return None
    return point


def _em_attempt(B, m, spec, params0, tol, max_iter):
    fit = _Fit(B, m, spec)
    X, n, pen = fit.X, fit.n, fit.pen
    means0 = np.where(pen.pinned, 0.0, params0.means)

    # theta is the next input of the EM map and state its E-step. cycle holds
    # the SQUAREM cycle so far: [theta0] and [theta0, theta1] while theta is
    # a plain EM iterate, [theta0, theta1, theta2] while theta is the
    # extrapolated point.
    theta = np.concatenate((params0.proportions, means0.ravel(), params0.variances))
    state = _expect(fit, theta)
    cycle = []
    trace = []
    converged = False
    iterations = 0
    floored = False
    while iterations < max_iter:
        objective, tau, T = state
        if not cycle:
            trace.append(objective)
        if T.min() <= _EMPTY_CLUSTER_TOL:  # collapsed: reported as not converged
            break
        iterations += 1
        G = tau.T @ X
        means = _mean_update_for(pen, G, T, fit.split(theta)[2])
        raw = _variances(fit.Xsq_colsum, G, T, means, n)
        floored = floored or raw.min() < _VARIANCE_FLOOR
        mapped = np.concatenate((T / n, means.ravel(), np.maximum(raw, _VARIANCE_FLOOR)))

        if len(cycle) < 2:  # a plain EM step, from theta0 or theta1
            cycle.append(theta)
            step = mapped - theta
            if math.sqrt(step @ step) <= tol:
                theta, converged = mapped, True
                break
            if len(cycle) == 2:  # mapped is theta2: map the extrapolated point next
                cycle.append(mapped)
                point = _extrapolate(fit, *cycle)
                screened = None if point is None else _screened(fit, point)
                if screened is not None:
                    theta, state = point, screened
                    continue
                cycle = []  # no usable point: the next cycle starts at theta2
            theta, state = mapped, _expect(fit, mapped)
        else:  # the stabilizing step from the extrapolated point
            state = _screened(fit, mapped)
            if state is not None and state[0] <= trace[-1]:
                theta = mapped
            else:
                theta = cycle[2]
                state = _expect(fit, theta)
            cycle = []
    if len(cycle) == 3:  # max_iter ran out before the extrapolated point was mapped
        theta = cycle[2]

    if floored:
        warnings.warn("degenerate variance floored at 1e-8 during EM")

    pi, means, sigma2 = fit.split(theta)
    tau, plain = _log_joint(X, fit.Xsq_colsum, pi, means, sigma2)
    penalized = plain + pen.value(means)
    trace.append(penalized)

    params = MixtureParams(proportions=pi, means=means, variances=sigma2)
    return FitResult(
        params=params,
        responsibilities=tau,
        hard_labels=tau.argmax(axis=1),
        penalized_nll=penalized,
        plain_nll=plain,
        n_zero_means=int(params.zero_mask.sum()),
        removed_sensors=_removed_sensors(params.zero_mask, B.sensor_names, B.q_c),
        iterations=iterations,
        converged=converged,
        objective_trace=trace,
    )


def run_em(
    B: CoefficientMatrix,
    m: int,
    spec: PenaltySpec,
    seed: int = 0,
    tol: float = 1e-4,
    max_iter: int = 500,
    init: MixtureParams | None = None,
) -> FitResult:
    """Penalized EM, accelerated by SQUAREM, until a plain EM step moves the
    parameters by at most tol.

    One EM map is an E-step followed by the M-step, which updates the means
    first (using the input's variances inside the penalty terms) and then
    the variances from the fresh means. Both are exact minimizers for every
    penalty kind, so the map never raises the observed penalized objective.
    Each E-step is one call of the reduced-form kernel _log_joint, which
    gives the responsibilities and the observed objective together.

    The fit holds (proportions, means, variances) as one flat vector theta.
    Each SQUAREM cycle (Varadhan & Roland, 2008) maps theta0 to theta1 and
    theta1 to theta2, extrapolates theta' = theta0 - 2 alpha r + alpha^2 v
    with r = theta1 - theta0, v = theta2 - theta1 - r and alpha =
    min(-||r|| / ||v||, -1), and maps theta' once more, which restores the
    exact zeros of the M-step. The next cycle starts from that point if
    theta' has positive proportions and variances, neither theta' nor the
    point leaves a cluster without mass, and the point's objective is at
    most theta0's; otherwise from theta2. Every cycle therefore descends,
    and a collapse at an extrapolated point only rejects it. The fit
    converges when either plain step of a cycle moves theta by at most tol
    in Euclidean norm.

    FitResult.iterations counts EM-map evaluations, plain and stabilizing,
    and max_iter bounds that count. FitResult.objective_trace holds the
    observed objective at the start of every cycle and at the returned
    point; FitResult.max_objective_rise is its largest rise.

    The fit starts from init, or from initialize(B, m, seed) when init is
    None, and runs once. If a cluster loses its mass at an EM iterate the
    fit stops there: it comes back with converged False after fewer than
    max_iter iterations. Deterministic for fixed (B, m, spec, seed, init).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if init is None:
        init = initialize(B, m, seed)
    return _em_attempt(B, m, spec, init, tol, max_iter)
