"""Penalized EM for a Gaussian mixture with one shared diagonal covariance.

The mixture is fitted to the rows of a coefficient matrix. Cluster means
may be penalized entrywise (individual), through the per-column maximum
(variable), or in per-(cluster, sensor) blocks through their L2 norm
(group); adaptive weights sharpen any of the three. All mean updates are
closed form: soft thresholding for the individual and variable penalties,
and a diagonally shrunken block update with an exact zero condition for
the group penalty. Entries whose adaptive weight is infinite (reference
mean exactly zero) are pinned to zero for the whole fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from mfclust.fpca import CoefficientMatrix

_LOG_2PI = np.log(2.0 * np.pi)
_VARIANCE_FLOOR = 1e-8
_EMPTY_CLUSTER_TOL = 1e-12
_MAX_RESTARTS = 5

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

    weights is (m, q) for the individual and variable penalties and (m,)
    for the group penalty; None means unit weights. Infinite weights arise
    from reference means that are exactly zero and pin the corresponding
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
    def none(cls) -> "PenaltySpec":
        return cls(kind="none", lam=0.0)

    @classmethod
    def unit(cls, kind: str, lam: float, m: int, q: int) -> "PenaltySpec":
        """Unit weights, i.e. the gamma = 0 member of the adaptive family."""
        if kind == "none":
            return cls.none()
        shape = (m,) if kind == "group" else (m, q)
        return cls(kind=kind, lam=float(lam), gamma=0.0, weights=np.ones(shape))

    @classmethod
    def adaptive(cls, kind: str, lam: float, gamma: float, reference_means: np.ndarray) -> "PenaltySpec":
        """Weights 1/|ref|^gamma (entrywise) or 1/||ref_k||^gamma (per cluster)."""
        ref = np.asarray(reference_means, dtype=float)
        with np.errstate(divide="ignore"):
            if kind == "group":
                w = np.linalg.norm(ref, axis=1) ** (-float(gamma))
            else:
                w = np.abs(ref) ** (-float(gamma))
        return cls(kind=kind, lam=float(lam), gamma=float(gamma), weights=w)

    def weights_for(self, m: int, q: int) -> np.ndarray:
        """Weights broadcast to their full shape, defaulting to ones."""
        shape = (m,) if self.kind == "group" else (m, q)
        if self.weights is None:
            return np.ones(shape)
        if self.weights.shape != shape:
            raise ValueError(f"weights shape {self.weights.shape} does not match {shape}")
        return self.weights

    def pinned(self, m: int, q: int) -> np.ndarray:
        """Boolean (m, q) mask of means pinned to zero by infinite weights."""
        if self.kind == "none" or self.lam == 0.0 or self.weights is None:
            return np.zeros((m, q), dtype=bool)
        w = self.weights_for(m, q)
        if self.kind == "group":
            return np.repeat(np.isinf(w)[:, None], q, axis=1)
        return np.isinf(w)


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


def _log_joint(X, Xsq, proportions, means, variances):
    """log pi_k + log f_k(x_i) as an (n, m) matrix, plus its row logsumexp."""
    inv = 1.0 / variances
    quad = (Xsq @ inv)[:, None] - 2.0 * (X @ (means * inv).T) + ((means**2) * inv).sum(axis=1)[None, :]
    logf = -0.5 * (X.shape[1] * _LOG_2PI + np.log(variances).sum() + quad)
    with np.errstate(divide="ignore"):
        lj = logf + np.log(proportions)
    peak = lj.max(axis=1)
    if not np.all(np.isfinite(peak)):
        raise NumericalError("all cluster densities underflowed for some observation")
    lse = peak + np.log(np.exp(lj - peak[:, None]).sum(axis=1))
    return lj, lse


def e_step(B: CoefficientMatrix, params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and refreshed proportions.

    tau[i, k] is proportional to pi_k f_k(x_i), normalized in the log
    domain; the new proportions are the responsibility column means.
    """
    X = B.scores
    lj, lse = _log_joint(X, X**2, params.proportions, params.means, params.variances)
    tau = np.exp(lj - lse[:, None])
    return tau, tau.mean(axis=0)


# ---------------------------------------------------------------------------
# M-step pieces


def _variances(Xsq_colsum, G, T, means, n):
    raw = (Xsq_colsum - 2.0 * (means * G).sum(axis=0) + T @ (means**2)) / n
    return raw


def _soft_threshold(values, thresholds):
    return np.sign(values) * np.maximum(np.abs(values) - thresholds, 0.0)


def _individual_update(G, T, sigma2, spec):
    """Entrywise soft-thresholded means: the exact minimizer for the individual penalty."""
    m, q = G.shape
    mu_tilde = G / T[:, None]
    W = spec.weights_for(m, q)
    pinned = spec.pinned(m, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = 1.0 - spec.lam * W * sigma2[None, :] / np.abs(G)
    shrink = np.where(np.isfinite(shrink), shrink, -np.inf)
    out = mu_tilde * np.maximum(shrink, 0.0)
    out[pinned] = 0.0
    return out


def _variable_update(G, T, sigma2, spec, current_means):
    """Means penalizing only each column's largest-magnitude cluster.

    The non-argmax clusters (argmax taken on current_means, ties to the
    lowest index) take their unpenalized means; the argmax cluster is
    soft-thresholded. This is not the minimizer of the L-infinity penalty,
    so the observed objective can rise under it (see ROADMAP.md, exact
    M-step for the variable penalty).
    """
    m, q = G.shape
    mu_tilde = G / T[:, None]
    W = spec.weights_for(m, q)
    pinned = spec.pinned(m, q)
    kstar = np.argmax(np.abs(current_means), axis=0)
    cols = np.arange(q)
    out = mu_tilde.copy()
    thr = spec.lam * W[kstar, cols] * sigma2 / T[kstar]
    shrunk = _soft_threshold(mu_tilde[kstar, cols], thr)
    out[kstar, cols] = shrunk
    # A zeroed maximum forces the whole column to zero: all entries are
    # bounded by the column maximum, so max = 0 removes the variable.
    out[:, shrunk == 0.0] = 0.0
    out[pinned] = 0.0
    return out


def _group_update(G, T, sigma2, spec, current_means, q_c):
    """Blockwise shrunken means for the group penalty.

    A (cluster, sensor) block is exactly zero when its variance-weighted
    score norm is at or below lam * w_k * sqrt(q_c); otherwise it is the
    diagonally shrunken unpenalized block mean, with the shrinkage built
    from the block norm of current_means.
    """
    m, q = G.shape
    mu_tilde = G / T[:, None]
    p = q // q_c
    w = spec.weights_for(m, q)
    thr = spec.lam * w * np.sqrt(q_c)  # (m,)

    G3 = G.reshape(m, p, q_c)
    sig3 = sigma2.reshape(p, q_c)
    score_norm = np.linalg.norm(G3 / sig3[None, :, :], axis=2)  # (m, p)
    zero_block = score_norm <= thr[:, None]

    cur_norm = np.linalg.norm(current_means.reshape(m, p, q_c), axis=2)  # (m, p)
    # A block that is currently zero stays zero unless its score norm clears
    # the threshold with margin; it is then re-opened from a tiny norm.
    reopen = (cur_norm == 0.0) & (score_norm > thr[:, None] * (1.0 + 1e-6))
    stuck = (cur_norm == 0.0) & ~reopen & ~zero_block
    cur_norm = np.where(reopen, 1e-8, cur_norm)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = thr[:, None] / (T[:, None] * cur_norm)  # (m, p)
        bdiag = 1.0 / (1.0 + ratio[:, :, None] * sig3[None, :, :])
    bdiag = np.where(np.isfinite(bdiag), bdiag, 0.0)
    out3 = bdiag * mu_tilde.reshape(m, p, q_c)
    out3[zero_block | stuck] = 0.0
    return out3.reshape(m, q)


def penalty_value(means: np.ndarray, spec: PenaltySpec, q_c: int) -> float:
    """Value of the penalty term at the given means."""
    if spec.kind == "none" or spec.lam == 0.0:
        return 0.0
    means = np.asarray(means, dtype=float)
    m, q = means.shape
    w = spec.weights_for(m, q)
    # exact zeros contribute nothing even under infinite weights
    if spec.kind == "individual":
        nz = means != 0.0
        return float(spec.lam * (w[nz] * np.abs(means[nz])).sum())
    if spec.kind == "variable":
        kstar = np.argmax(np.abs(means), axis=0)
        cols = np.arange(q)
        mx = np.abs(means[kstar, cols])
        nz = mx != 0.0
        return float(spec.lam * (w[kstar, cols][nz] * mx[nz]).sum())
    norms = np.linalg.norm(means.reshape(m, q // q_c, q_c), axis=2)
    nz = norms != 0.0
    w_full = np.broadcast_to(w[:, None], norms.shape)
    return float(spec.lam * np.sqrt(q_c) * (w_full[nz] * norms[nz]).sum())


def penalized_nll(B: CoefficientMatrix, params: MixtureParams, spec: PenaltySpec) -> float:
    """Observed-data penalized objective: -sum_i log g(x_i) plus the penalty."""
    X = B.scores
    _, lse = _log_joint(X, X**2, params.proportions, params.means, params.variances)
    return float(-lse.sum() + penalty_value(params.means, spec, B.q_c))


# ---------------------------------------------------------------------------
# initialization


def _kmeans_once(X, m, rng):
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, m):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[k] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(100):
        dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(m):
            mask = labels == k
            if mask.any():
                centers[k] = X[mask].mean(axis=0)
    inertia = dist[np.arange(n), labels].sum()
    return labels, centers, inertia


def initialize(B: CoefficientMatrix, m: int, seed: int) -> MixtureParams:
    """k-means initialization: shares, centroids, pooled within-cluster variances.

    Runs k-means++ with 10 restarts keeping the best inertia; re-seeds up
    to 10 times if the best partition leaves a cluster empty. Deterministic
    for a fixed seed.
    """
    X = B.scores
    n = X.shape[0]
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"need at least m={m} observations, got {n}")
    for reseed in range(10):
        rng = np.random.default_rng(seed + 1_000_003 * reseed)
        best = None
        for _ in range(10):
            labels, centers, inertia = _kmeans_once(X, m, rng)
            if best is None or inertia < best[2]:
                best = (labels, centers, inertia)
        labels, centers, _ = best
        counts = np.bincount(labels, minlength=m)
        if counts.min() > 0:
            break
    else:
        raise NumericalError(f"k-means left an empty cluster after 10 reseeds (m={m}, n={n})")

    resid_sq = (X - centers[labels]) ** 2
    variances = np.maximum(resid_sq.sum(axis=0) / n, 1e-6)
    return MixtureParams(
        proportions=counts / n,
        means=centers,
        variances=variances,
    )


# ---------------------------------------------------------------------------
# full EM


def _mean_update_for(spec, G, T, sigma2, current_means, q_c):
    """The M-step mean update for spec from the weighted sums G = tau.T @ X and masses T."""
    if spec.kind == "none" or spec.lam == 0.0:
        return G / T[:, None]
    if spec.kind == "individual":
        return _individual_update(G, T, sigma2, spec)
    if spec.kind == "variable":
        return _variable_update(G, T, sigma2, spec, current_means)
    return _group_update(G, T, sigma2, spec, current_means, q_c)


def _removed_sensors(zero_mask: np.ndarray, sensor_names: list[str], q_c: int) -> set[str]:
    blocks = zero_mask.reshape(zero_mask.shape[0], -1, q_c)
    gone = blocks.all(axis=(0, 2))
    return {name for name, g in zip(sensor_names, gone) if g}


def _em_attempt(B, m, spec, params0, tol, max_iter):
    X = B.scores
    Xsq = X**2
    Xsq_colsum = Xsq.sum(axis=0)
    n, q = X.shape
    q_c = B.q_c

    pinned = spec.pinned(m, q)
    pi = params0.proportions.copy()
    means = np.where(pinned, 0.0, params0.means)
    sigma2 = params0.variances.copy()

    trace = []
    converged = False
    collapsed = False
    iterations = 0
    floored = False
    for _ in range(max_iter):
        lj, lse = _log_joint(X, Xsq, pi, means, sigma2)
        trace.append(float(-lse.sum()) + penalty_value(means, spec, q_c))
        tau = np.exp(lj - lse[:, None])
        T = tau.sum(axis=0)
        if T.min() <= _EMPTY_CLUSTER_TOL:
            collapsed = True
            break
        iterations += 1
        pi_new = T / n

        G = tau.T @ X
        means_new = _mean_update_for(spec, G, T, sigma2, means, q_c)
        raw = _variances(Xsq_colsum, G, T, means_new, n)
        floored = floored or np.any(raw < _VARIANCE_FLOOR)
        sigma2_new = np.maximum(raw, _VARIANCE_FLOOR)

        delta = np.sqrt(
            ((means_new - means) ** 2).sum()
            + ((sigma2_new - sigma2) ** 2).sum()
            + ((pi_new - pi) ** 2).sum()
        )
        pi, means, sigma2 = pi_new, means_new, sigma2_new
        if delta <= tol:
            converged = True
            break

    if floored:
        warnings.warn("degenerate variance floored at 1e-8 during EM")

    lj, lse = _log_joint(X, Xsq, pi, means, sigma2)
    tau = np.exp(lj - lse[:, None])
    plain = float(-lse.sum())
    pen = penalty_value(means, spec, q_c)
    trace.append(plain + pen)

    params = MixtureParams(proportions=pi, means=means, variances=sigma2)
    result = FitResult(
        params=params,
        responsibilities=tau,
        hard_labels=tau.argmax(axis=1),
        penalized_nll=plain + pen,
        plain_nll=plain,
        n_zero_means=int(params.zero_mask.sum()),
        removed_sensors=_removed_sensors(params.zero_mask, B.sensor_names, q_c),
        iterations=iterations,
        converged=converged and not collapsed,
        objective_trace=trace,
    )
    return result, collapsed


def run_em(
    B: CoefficientMatrix,
    m: int,
    spec: PenaltySpec,
    seed: int,
    tol: float = 1e-4,
    max_iter: int = 500,
    inits: dict[int, MixtureParams] | None = None,
) -> FitResult:
    """Alternate E-steps and penalty-specific M-steps until the parameter
    change drops to tol.

    The M-step updates the means first (using the previous iterate's
    variances inside the penalty terms) and then the variances from the
    fresh means. For the none and individual penalties each step is an
    exact coordinate update, and for the group penalty a majorizing one, so
    the observed penalized objective does not rise. The variable update
    thresholds only each column's current argmax, which is not a
    minimizer: its objective can rise, and many variable fits then stop at
    max_iter (see ROADMAP.md, exact M-step for the variable penalty).
    FitResult.max_objective_rise reports the largest rise of a fit.

    Attempt a starts from initialize(B, m, seed + 7919 * a). On an
    empty-cluster collapse the fit restarts from the next attempt's
    initialization, up to 5 attempts, and otherwise returns the best
    collapsed attempt flagged as not converged. Deterministic for fixed
    (B, m, spec, seed).

    inits memoizes those initializations by seed: an attempt takes its
    starting parameters from it when present and stores them there after
    computing them (a failed initialization is not stored). A memo is valid
    for one (B, m) only; model_search shares one across the grid points of
    a cluster count, so each seed's k-means runs once however many points
    collapse. Its entries are never modified.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if inits is None:
        inits = {}
    best = None
    for attempt in range(_MAX_RESTARTS):
        init_seed = seed + 7_919 * attempt
        params0 = inits.get(init_seed)
        if params0 is None:
            params0 = inits[init_seed] = initialize(B, m, init_seed)
        result, collapsed = _em_attempt(B, m, spec, params0, tol, max_iter)
        if not collapsed:
            return result
        if best is None or result.penalized_nll < best.penalized_nll:
            best = result
    return best
