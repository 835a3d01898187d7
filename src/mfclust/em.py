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

The EM map is accelerated by SQUAREM (Varadhan & Roland, 2008), kept
monotone by falling back to the plain EM iterate whenever an extrapolated
point does not lower the observed objective.
"""

from __future__ import annotations

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
    return (Xsq_colsum - 2.0 * (means * G).sum(axis=0) + T @ (means**2)) / n


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


def _variable_update(G, T, sigma2, spec):
    """Exact minimizer for the variable penalty: one L-infinity prox per column.

    Column j minimizes sum_k T_k (mu_k - a_k)^2 / (2 sigma2_j) plus
    lam * w_j * max_k |mu_k|, with a = G / T. The minimizer clips every
    |a_k| at the level c_j solving sum_k T_k (|a_k| - c_j)_+ = lam w_j
    sigma2_j and keeps the signs; the column is exactly zero iff
    sum_k |G_kj| <= lam w_j sigma2_j. With the clusters sorted by |a_k|,
    decreasing, c_j is the largest of (S_i - lam w_j sigma2_j) / W_i over
    the prefix sums S_i of |G| and W_i of T, and at least 0.
    """
    m, q = G.shape
    abs_G = np.abs(G)
    A = abs_G / T[:, None]
    order = np.argsort(-A, axis=0, kind="stable")
    budget = spec.lam * spec.weights_for(m, q) * sigma2
    prefix_G = np.cumsum(np.take_along_axis(abs_G, order, axis=0), axis=0)
    levels = (prefix_G - budget) / np.cumsum(T[order], axis=0)
    c = np.maximum(levels.max(axis=0), 0.0)
    out = np.sign(G) * np.minimum(A, c)
    out[:, c == 0.0] = 0.0
    return out


def _group_update(G, T, sigma2, spec, q_c):
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
    p = q // q_c
    thr = spec.lam * spec.weights_for(m, q) * np.sqrt(q_c)  # (m,)
    G3 = G.reshape(m, p, q_c)
    sig3 = sigma2.reshape(p, q_c)
    live = np.linalg.norm(G3 / sig3[None, :, :], axis=2) > thr[:, None]  # (m, p)
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
        mx = np.abs(means).max(axis=0)
        nz = mx != 0.0
        return float(spec.lam * (w[nz] * mx[nz]).sum())
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

    Runs k-means++ 10 times from default_rng(seed) and keeps the partition
    of least inertia, the first of equal ones. Raises NumericalError if that
    partition leaves a cluster empty, as it must on data with fewer distinct
    rows than m. Deterministic for a fixed seed.
    """
    X = B.scores
    n = X.shape[0]
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"need at least m={m} observations, got {n}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(10):
        labels, centers, inertia = _kmeans_once(X, m, rng)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, _ = best
    counts = np.bincount(labels, minlength=m)
    if counts.min() == 0:
        raise NumericalError(f"k-means left an empty cluster (m={m}, n={n})")

    resid_sq = (X - centers[labels]) ** 2
    variances = np.maximum(resid_sq.sum(axis=0) / n, 1e-6)
    return MixtureParams(proportions=counts / n, means=centers, variances=variances)


# ---------------------------------------------------------------------------
# full EM


def _mean_update_for(spec, G, T, sigma2, q_c):
    """The M-step mean update for spec from the weighted sums G = tau.T @ X and masses T."""
    if spec.kind == "none" or spec.lam == 0.0:
        return G / T[:, None]
    if spec.kind == "individual":
        return _individual_update(G, T, sigma2, spec)
    if spec.kind == "variable":
        return _variable_update(G, T, sigma2, spec)
    return _group_update(G, T, sigma2, spec, q_c)


def _removed_sensors(zero_mask: np.ndarray, sensor_names: list[str], q_c: int) -> set[str]:
    blocks = zero_mask.reshape(zero_mask.shape[0], -1, q_c)
    gone = blocks.all(axis=(0, 2))
    return {name for name, g in zip(sensor_names, gone) if g}


def _expect(X, Xsq, theta, spec, q_c):
    """E-step at theta = (proportions, means, variances): the observed
    objective there, the responsibilities and the cluster masses."""
    lj, lse = _log_joint(X, Xsq, *theta)
    tau = np.exp(lj - lse[:, None])
    return float(-lse.sum()) + penalty_value(theta[1], spec, q_c), tau, tau.sum(axis=0)


def _screened(X, Xsq, theta, spec, q_c):
    """_expect at a point reached by extrapolation, or None where that point
    underflows or leaves a cluster without mass."""
    try:
        state = _expect(X, Xsq, theta, spec, q_c)
    except NumericalError:
        return None
    return state if state[2].min() > _EMPTY_CLUSTER_TOL else None


def _norm(parts):
    return float(np.sqrt(sum((x**2).sum() for x in parts)))


def _extrapolate(theta0, theta1, theta2):
    """The SQUAREM point theta0 - 2 alpha r + alpha^2 v, or None when it has
    a proportion or variance that is not positive.

    r = theta1 - theta0 and v = theta2 - theta1 - r; alpha = -||r|| / ||v||,
    capped at -1, where alpha = -1 gives theta2 itself.
    """
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - b - d for b, c, d in zip(theta1, theta2, r)]
    norm_v = _norm(v)
    if norm_v == 0.0:
        return None
    alpha = min(-_norm(r) / norm_v, -1.0)
    point = tuple(a - 2.0 * alpha * d + alpha**2 * e for a, d, e in zip(theta0, r, v))
    if point[0].min() <= 0.0 or point[2].min() <= 0.0:
        return None
    return point


def _em_attempt(B, m, spec, params0, tol, max_iter):
    X = B.scores
    Xsq = X**2
    Xsq_colsum = Xsq.sum(axis=0)
    n, q = X.shape
    q_c = B.q_c

    # theta is the next input of the EM map and state its E-step. cycle holds
    # the SQUAREM cycle so far: [theta0] and [theta0, theta1] while theta is
    # a plain EM iterate, [theta0, theta1, theta2] while theta is the
    # extrapolated point.
    theta = (params0.proportions.copy(), np.where(spec.pinned(m, q), 0.0, params0.means),
             params0.variances.copy())
    state = _expect(X, Xsq, theta, spec, q_c)
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
        means = _mean_update_for(spec, G, T, theta[2], q_c)
        raw = _variances(Xsq_colsum, G, T, means, n)
        floored = floored or np.any(raw < _VARIANCE_FLOOR)
        mapped = (T / n, means, np.maximum(raw, _VARIANCE_FLOOR))

        if len(cycle) < 2:  # a plain EM step, from theta0 or theta1
            cycle.append(theta)
            if _norm([a - b for a, b in zip(mapped, theta)]) <= tol:
                theta, converged = mapped, True
                break
            if len(cycle) == 2:  # mapped is theta2: map the extrapolated point next
                cycle.append(mapped)
                point = _extrapolate(*cycle)
                screened = None if point is None else _screened(X, Xsq, point, spec, q_c)
                if screened is not None:
                    theta, state = point, screened
                    continue
                cycle = []  # no usable point: the next cycle starts at theta2
            theta, state = mapped, _expect(X, Xsq, mapped, spec, q_c)
        else:  # the stabilizing step from the extrapolated point
            state = _screened(X, Xsq, mapped, spec, q_c)
            if state is not None and state[0] <= trace[-1]:
                theta = mapped
            else:
                theta = cycle[2]
                state = _expect(X, Xsq, theta, spec, q_c)
            cycle = []
    if len(cycle) == 3:  # max_iter ran out before the extrapolated point was mapped
        theta = cycle[2]

    if floored:
        warnings.warn("degenerate variance floored at 1e-8 during EM")

    pi, means, sigma2 = theta
    lj, lse = _log_joint(X, Xsq, pi, means, sigma2)
    tau = np.exp(lj - lse[:, None])
    plain = float(-lse.sum())
    pen = penalty_value(means, spec, q_c)
    trace.append(plain + pen)

    params = MixtureParams(proportions=pi, means=means, variances=sigma2)
    return FitResult(
        params=params,
        responsibilities=tau,
        hard_labels=tau.argmax(axis=1),
        penalized_nll=plain + pen,
        plain_nll=plain,
        n_zero_means=int(params.zero_mask.sum()),
        removed_sensors=_removed_sensors(params.zero_mask, B.sensor_names, q_c),
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

    Each SQUAREM cycle (Varadhan & Roland, 2008) maps theta0 to theta1 and
    theta1 to theta2, extrapolates theta' = theta0 - 2 alpha r + alpha^2 v
    with r = theta1 - theta0, v = theta2 - theta1 - r and alpha =
    min(-||r|| / ||v||, -1), and maps theta' once more, which restores the
    exact zeros of the M-step. The next cycle starts from that point if
    theta' has positive proportions and variances, neither theta' nor the
    point leaves a cluster without mass, and the point's objective is at
    most theta0's; otherwise from theta2. Every cycle therefore descends,
    and a collapse at an extrapolated point only rejects it. The fit
    converges when either plain step of a cycle moves the parameters
    (proportions, means, variances together, in Euclidean norm) by at
    most tol.

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
