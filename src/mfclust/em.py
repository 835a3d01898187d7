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
An infinite adaptive weight (reference mean exactly zero) makes an
infinite threshold, which pins its means to zero for the whole fit. At
lam = 0 each update has zero thresholds and gives G / T exactly: kind
"none" is the individual one.

The E-step works in reduced form. Of log pi_k + log f_k(x_i), only
x_i . (mu_k / sigma2) + log pi_k - 1/2 sum_j mu_kj^2 / sigma2_j depends on
k; the rest, -1/2 sum_j x_ij^2 / sigma2_j minus the normalizing constant,
cancels in the responsibilities and enters the likelihood once, summed
over the rows. One kernel (_log_joint) computes both. It reduces over
clusters along an (L, m, n) stack, whose cluster axis is contiguous, and
returns the responsibilities as an (L, n, m) array. At m >= 8 that changed
the order of the cluster sums, so results there may differ from earlier
releases in the last bits; they are still deterministic per seed.

The EM map is accelerated by SQUAREM (Varadhan & Roland, 2008), kept
monotone by falling back to the plain EM iterate whenever an extrapolated
point does not lower the observed objective.

One fit runs a stack of L lanes: penalty specs of one kind that share the
data, m and the start, such as the lambda points of a grid search, 0
included. The parameters are an (L, dim) array whose rows hold
(proportions, means row by row, variances), so SQUAREM's differences,
norms and extrapolation are single array operations. A lane carries its
next EM input, one SQUAREM anchor, and of the input's E-step only the
objective, G = tau.T @ X and the cluster masses T. Every EM map makes one
M-step and one E-step kernel call for all live lanes (a second call serves
the lanes whose extrapolated or stabilized point was rejected), and
SQUAREM decides everything per lane, with masks: each lane takes the same
steps, and stops at the same iteration for the same reason, as it would
fitted alone. A single spec is the one-lane case. Stacked products are one
GEMM per lane and every reduction runs within a lane, the kernel's over
clusters along its (L, m, n) stack, so a lane's numbers do not depend on
the other lanes.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from mfclust.fpca import CoefficientMatrix

_LOG_2PI = np.log(2.0 * np.pi)
_VARIANCE_FLOOR = 1e-8
_EMPTY_CLUSTER_TOL = 1e-12
_NEWTON_MAX_STEPS = 100
_NEWTON_RTOL = 4 * np.finfo(float).eps
_STEP_TOL = 1e-4  # a plain EM step that moves theta by at most this converges
_MAP_CAP = 500  # a lane that has run this many EM maps stops at "max_iter"

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

    lam and gamma must be nonnegative and finite, and weights nonnegative
    and not NaN. weights is (m, q) for the individual penalty (one per
    mean), (q,) for the variable penalty (one per column) and (m,) for the
    group penalty (one per cluster); None means unit weights, and so does
    lam = 0, where the weights do not matter. Infinite weights arise from
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
        for name in ("lam", "gamma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if self.kind == "none" and self.lam != 0.0:
            raise ValueError("kind 'none' requires lam == 0")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not np.all(w >= 0):  # NaN compares false
                raise ValueError("weights must be nonnegative and not NaN")
            object.__setattr__(self, "weights", w)

    def weights_for(self, m: int, q: int) -> np.ndarray:
        """Weights in their full shape: ones without weights or at lam 0."""
        shape = {"variable": (q,), "group": (m,)}.get(self.kind, (m, q))
        if self.weights is None or self.lam == 0.0:
            return np.ones(shape)
        if self.weights.shape != shape:
            raise ValueError(f"weights shape {self.weights.shape} does not match {shape}")
        return self.weights


def adaptive_weights(kind: str, gamma: float, reference_means: np.ndarray) -> np.ndarray:
    """Weights 1/|ref_kj|^gamma (individual), 1/max_k |ref_kj|^gamma
    (variable) or 1/||ref_k||^gamma (group); infinite, without a warning,
    where the reference is exactly zero or the power overflows."""
    ref = np.asarray(reference_means, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "group":
            return np.linalg.norm(ref, axis=1) ** (-float(gamma))
        if kind == "variable":
            return np.abs(ref).max(axis=0) ** (-float(gamma))
        return np.abs(ref) ** (-float(gamma))


@dataclass
class FitResult:
    """A mixture fit plus bookkeeping for model selection.

    stop_reason says why the fit ended: "converged" (a plain EM step moved
    the parameters by at most 1e-4), "max_iter" (it ran 500 EM maps)
    or "collapsed" (a cluster lost its mass at an EM iterate or at the
    returned point).
    max_objective_rise is the largest rise of the observed objective from
    the start of one SQUAREM cycle to the start of the next, or to the
    returned point; it is negative when every cycle descends.
    """

    params: MixtureParams
    responsibilities: np.ndarray
    hard_labels: np.ndarray
    penalized_nll: float
    plain_nll: float
    n_zero_means: int
    removed_sensors: set[str]
    iterations: int
    stop_reason: str
    max_objective_rise: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def m(self) -> int:
        return self.params.m


# ---------------------------------------------------------------------------
# densities and E-step

# why _log_joint failed a lane, by its failure code minus one
_KERNEL_FAILURES = (
    "all cluster densities underflowed for some observation",
    "the scaled squared scores overflow",
)
# how a lane of a fit ended, by outcome code; kernel failure c is _COLLAPSED + c
_OUTCOMES = ("converged", "max_iter", "collapsed", *_KERNEL_FAILURES)
_CONVERGED, _MAX_ITER, _COLLAPSED = range(3)


def _dots(a, b):
    """Lane-wise dot products a_l . b_l of (L, d) stacks; b may be one (d,)
    vector. Each is the BLAS dot of its lane alone."""
    return (a[:, None, :] @ b[..., :, None])[:, 0, 0]


def _log_joint(X, Xsq_colsum, proportions, means, variances):
    """Responsibilities and the observed negative log-likelihood at a stack of points.

    The L points (lanes) have (L, m) proportions, (L, m, q) means and (L, q)
    variances. The reduced log joint lj[l, i, k] = x_i . (mu_lk / sigma2_l) +
    log pi_lk - 1/2 sum_j mu_lkj^2 / sigma2_lj differs from log pi_lk +
    log f_lk(x_i) by a term of row i alone, which cancels in tau = e /
    sum_k e with e = exp(lj - max_k lj). Summed over the rows, that term is
    -1/2 Xsq_colsum . (1 / sigma2_l) - n/2 (q log 2 pi + sum_j log
    sigma2_lj), where Xsq_colsum holds the column sums of X^2.

    lj is held as a C-contiguous (L, m, n) stack, so that the max and the
    sum over clusters run along a contiguous axis. At m >= 8 that sum is
    rounded differently from the sum over a trailing cluster axis of
    earlier releases, so results there may differ from them in the last
    bits; they are still deterministic per seed.

    Returns tau as a C-ordered (L, n, m) array, the (L,) NLLs and (L,)
    failure codes: 0 where the lane was computed, 1 where the peak of some
    row of lj is not finite and 2 where the row-term sum is not;
    _KERNEL_FAILURES says which. A failed lane's tau and NLL are
    meaningless.
    """
    n, q = X.shape
    inv = 1.0 / variances
    scaled = means * inv[:, None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        offset = np.log(proportions) - 0.5 * (scaled * means).sum(axis=2)
        # numpy reduces a short trailing axis slowly: cluster axis first
        lj = np.ascontiguousarray((X @ scaled.transpose(0, 2, 1)).transpose(0, 2, 1))
        lj += offset[:, :, None]
        peak = lj.max(axis=1)
        peak_sum = peak.sum(axis=1)
        common = 0.5 * (_dots(inv, Xsq_colsum) + n * (q * _LOG_2PI + np.log(variances).sum(axis=1)))
        failed = np.where(np.isfinite(peak_sum), np.where(np.isfinite(common), 0, 2), 1)
        lj -= peak[:, None, :]
        e = np.exp(lj, out=lj)
        total = e.sum(axis=1)
        e /= total[:, None, :]
        nll = common - peak_sum - np.log(total).sum(axis=1)
    return e.transpose(0, 2, 1).copy(), nll, failed


def _one_point(X, params):
    """tau and the observed NLL at params, one lane of _log_joint; raises
    NumericalError where the kernel fails."""
    tau, nll, failed = _log_joint(
        X, (X**2).sum(axis=0), params.proportions[None], params.means[None], params.variances[None]
    )
    if failed[0]:
        raise NumericalError(_KERNEL_FAILURES[failed[0] - 1])
    return tau[0], float(nll[0])


def e_step(B: CoefficientMatrix, params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and refreshed proportions.

    tau[i, k] is proportional to pi_k f_k(x_i), normalized in the log
    domain; the new proportions are the responsibility column means.
    """
    tau, _ = _one_point(B.scores, params)
    return tau, tau.mean(axis=0)


# ---------------------------------------------------------------------------
# penalty and M-step pieces


def _thresholds(specs, m: int, q: int, q_c: int):
    """The one penalty kind of a stack of specs, one per lane, and its
    thresholds for m clusters and q = p q_c columns: lam times each lane's
    weights in their full shape, (L, m, q) individual and none, (L, q)
    variable and (L, m) group, the last times sqrt(q_c). They are 0 for
    kind none and for every lane at lam 0, and infinite where a weight is or
    the product overflows: those means are pinned at zero (see _pinned)."""
    kinds = {spec.kind for spec in specs}
    if len(kinds) != 1:
        raise ValueError(f"the lanes of one fit need one penalty kind, got {sorted(kinds)}")
    (kind,) = kinds
    with np.errstate(over="ignore"):
        thr = np.stack([spec.lam * spec.weights_for(m, q) for spec in specs])
        return kind, thr * np.sqrt(q_c) if kind == "group" else thr


def _pinned(kind, thr):
    """The means that infinite thresholds pin at zero, as a mask broadcasting to (L, m, q)."""
    inf = np.isinf(thr)
    if kind == "variable":
        return inf[:, None, :]
    if kind == "group":
        return inf[:, :, None]
    return inf


def _penalty(kind, thr, q_c, means):
    """The (L,) penalty terms at the (L, m, q) means under thresholds thr; see penalty_value."""
    L, m, q = means.shape
    # a lane whose E-step failed may hold means whose squares overflow;
    # exact zeros contribute nothing even under infinite thresholds
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "variable":
            size = np.abs(means).max(axis=1)
        elif kind == "group":
            size = np.sqrt((means.reshape(L, m, q // q_c, q_c) ** 2).sum(axis=3))
            thr = thr[:, :, None]
        else:
            size = np.abs(means)
        terms = np.where(size != 0.0, thr * size, 0.0)
    return terms.reshape(L, -1).sum(axis=1)


def _variances(Xsq_colsum, G, T, means, n):
    """Raw M-step variances (sum x^2 - 2 sum_k mu_k G_k + sum_k T_k mu_k^2) / n,
    for one fit or, with a leading lane axis on G, T and means, a stack."""
    return (Xsq_colsum - 2.0 * (means * G).sum(axis=-2) + (T[..., None, :] @ means**2)[..., 0, :]) / n


def _individual_update(G, T, sigma2, thr):
    """Entrywise soft-thresholded means: the exact minimizer for the individual
    penalty, and G / T bit for bit at thresholds of 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = 1.0 - thr * sigma2[:, None, :] / np.abs(G)
    # fmax sends the nan of 0 / 0 (a zero score under a zero weight) to 0, as it does -inf
    out = G / T[:, :, None] * np.fmax(shrink, 0.0)
    # an infinite threshold zeroes the product, but as -0.0 where G < 0: a pinned mean is +0.0
    out[np.isinf(thr)] = 0.0
    return out


def _variable_update(G, T, sigma2, thr):
    """Exact minimizer for the variable penalty: one L-infinity prox per column.

    Column j minimizes sum_k T_k (mu_k - a_k)^2 / (2 sigma2_j) plus
    lam * w_j * max_k |mu_k|, with a = G / T. The minimizer clips every
    |a_k| at the level c_j solving sum_k T_k (|a_k| - c_j)_+ = lam w_j
    sigma2_j and keeps the signs; the column is exactly zero iff
    sum_k |G_kj| <= lam w_j sigma2_j. With the clusters sorted by |a_k|,
    decreasing, c_j is the largest of (S_i - lam w_j sigma2_j) / W_i over
    the prefix sums S_i of |G| and W_i of T, and at least 0. Each lane's
    columns are sorted along the cluster axis. At lam = 0 the first prefix
    gives c_j = max_k |a_k|: nothing is clipped, and the means are G / T.
    """
    abs_G = np.abs(G)
    A = abs_G / T[:, :, None]
    order = np.argsort(-A, axis=1, kind="stable")
    budget = (thr * sigma2)[:, None, :]
    levels = np.cumsum(np.take_along_axis(abs_G, order, axis=1), axis=1) - budget
    levels /= np.cumsum(np.take_along_axis(np.broadcast_to(T[:, :, None], A.shape), order, axis=1), axis=1)
    c = np.maximum(levels.max(axis=1), 0.0)[:, None, :]
    return np.where(c == 0.0, 0.0, np.sign(G) * np.minimum(A, c))


def _group_update(G, T, sigma2, thr, q_c):
    """Exact block minimizer for the group penalty.

    Block (k, l) minimizes sum_i T_k (mu_i - a_i)^2 / (2 sigma2_i) plus
    thr_k ||mu||, with a = G / T over the block and thr_k = lam w_k
    sqrt(q_c). It is exactly zero iff ||G / sigma2|| <= thr_k; otherwise
    mu_i = G_i / (T_k + thr_k sigma2_i / r), where r = ||mu|| is the root of
    sum_i G_i^2 / (T_k r + thr_k sigma2_i)^2 = 1. Newton's method runs on
    that equation in the form psi(r) = (sum_i G_i^2 / (T_k r + thr_k
    sigma2_i)^2)^(-1/2) = 1: psi is increasing, concave (a power mean of
    exponent -2) and nearly linear, exactly linear for a single component.
    Since T_k r + thr_k sigma2_i <= T_k r + thr_k max_i sigma2_i, the root is
    at least max((||G|| - thr_k max_i sigma2_i) / T_k, 0); started there,
    below the root of a concave increasing psi, the iterates rise
    monotonically to it. It runs on the nonzero blocks of every lane, all at
    once, and each block stops on its own. At thr_k = 0 it gives G / T.
    """
    L, m, q = G.shape
    p = q // q_c
    G3 = G.reshape(L, m, p, q_c)
    sig3 = sigma2.reshape(L, p, q_c)
    scaled = G3 / sig3[:, None]
    live = np.sqrt((scaled * scaled).sum(axis=3)) > thr[:, :, None]  # (L, m, p)
    out = np.zeros((L, m, p, q_c))
    lane, k, block = np.nonzero(live)
    g2 = G3[live] ** 2  # (blocks, q_c)
    T_k = T[lane, k]
    t = T_k[:, None]
    c = thr[lane, k][:, None] * sig3[lane, block]
    r = np.maximum((np.sqrt(g2.sum(axis=1)) - c.max(axis=1)) / T_k, 0.0)
    settled = np.zeros(r.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        d = t * r[:, None] + c
        S = (g2 / d**2).sum(axis=1)
        # psi = S^(-1/2) and psi' = T_k S^(-3/2) sum_i G_i^2 / d_i^3
        r_next = r + (S**1.5 - S) / (T_k * (g2 / d**3).sum(axis=1))
        # the iterates only rise, so a fall is rounding at the root
        done = r_next - r <= _NEWTON_RTOL * r_next
        r = np.where(settled, r, r_next)
        settled |= done
        if settled.all():
            break
    out[live] = G3[live] / (t + c / r[:, None])
    return out.reshape(L, m, q)


def penalty_value(means: np.ndarray, spec: PenaltySpec, q_c: int) -> float:
    """Value of the penalty term at the given means.

    individual: lam sum_kj w_kj |mu_kj|; variable: lam sum_j w_j max_k
    |mu_kj|; group: lam sqrt(q_c) sum_k w_k sum_l ||mu_kl||, over the
    (cluster, sensor) blocks mu_kl.
    """
    means = np.asarray(means, dtype=float)
    kind, thr = _thresholds([spec], *means.shape, q_c)
    return float(_penalty(kind, thr, q_c, means[None])[0])


def penalized_nll(B: CoefficientMatrix, params: MixtureParams, spec: PenaltySpec) -> float:
    """Observed-data penalized objective: -sum_i log g(x_i) plus the penalty."""
    _, nll = _one_point(B.scores, params)
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


def _mean_update_for(kind, thr, q_c, G, T, sigma2):
    """The M-step mean updates of a stack under kind with thresholds thr
    (kind none: the individual update), from the weighted sums G = tau.T @ X
    (L, m, q), the masses T (L, m) and the variances sigma2 (L, q)."""
    if kind == "variable":
        return _variable_update(G, T, sigma2, thr)
    if kind == "group":
        return _group_update(G, T, sigma2, thr, q_c)
    return _individual_update(G, T, sigma2, thr)


def _removed_sensors(zero_mask: np.ndarray, sensor_names: list[str], q_c: int) -> set[str]:
    blocks = zero_mask.reshape(zero_mask.shape[0], -1, q_c)
    gone = blocks.all(axis=(0, 2))
    return {name for name, g in zip(sensor_names, gone) if g}


class _Fit:
    """What one fit computes once: the scores X, the column sums of X^2,
    the penalty kind and every lane's thresholds thr, and the layout of a
    parameter row theta = (proportions, means row by row, variances)."""

    def __init__(self, B: CoefficientMatrix, m: int, specs):
        self.X = B.scores
        self.n, self.q = self.X.shape
        self.m, self.q_c = m, B.q_c
        self.Xsq_colsum = (self.X**2).sum(axis=0)
        self.kind, self.thr = _thresholds(specs, m, self.q, B.q_c)

    def split(self, theta):
        """Views of a stack of rows theta: (L, m) proportions, (L, m, q)
        means and (L, q) variances."""
        m, v = self.m, self.m * (1 + self.q)
        return theta[:, :m], theta[:, m:v].reshape(-1, m, self.q), theta[:, v:]


def _expect(fit, thr, theta):
    """E-step at a stack theta under thresholds thr: observed objectives,
    G = tau.T @ X, the cluster masses T and the kernel's failure codes."""
    pi, means, sigma2 = fit.split(theta)
    tau, nll, failed = _log_joint(fit.X, fit.Xsq_colsum, pi, means, sigma2)
    return nll + _penalty(fit.kind, thr, fit.q_c, means), tau.transpose(0, 2, 1) @ fit.X, tau.sum(axis=1), failed


def _extrapolate(fit, theta0, theta1, theta2):
    """The SQUAREM points theta0 - 2 alpha r + alpha^2 v of a stack, and the
    mask of the lanes whose point is usable: v is not 0 and the point's
    proportions and variances are positive.

    r = theta1 - theta0 and v = theta2 - theta1 - r; alpha = -||r|| / ||v||,
    capped at -1, where alpha = -1 gives theta2 itself.
    """
    r = theta1 - theta0
    v = theta2 - theta1 - r
    vv = _dots(v, v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = np.minimum(-np.sqrt(_dots(r, r)) / np.sqrt(vv), -1.0)[:, None]
        point = theta0 - 2.0 * alpha * r + alpha**2 * v
    pi, _, sigma2 = fit.split(point)
    return point, (vv != 0.0) & (pi.min(axis=1) > 0.0) & (sigma2.min(axis=1) > 0.0)


class _Lanes:
    """The live lanes of a fit, stacked on axis 0 of every array.

    index holds each lane's position among the fit's specs and thr their
    thresholds. theta is the next input of the EM map and (objective, G, T)
    its E-step. phase is the lane's place in its SQUAREM cycle: 0 while
    theta is the cycle's theta0, 1 while it is theta1 and 2 while it is the
    extrapolated point. anchor holds theta0 at phase 1 and theta2 at phase
    2, start the objective at theta0 (+inf before the first cycle) and rise
    the largest rise of start from one cycle to the next so far.
    """

    ARRAYS = ("index", "thr", "theta", "objective", "G", "T", "phase", "anchor", "start", "rise")

    def __init__(self, thr, theta, objective, G, T):
        self.thr = thr
        self.index = np.arange(len(theta))
        self.theta = self.anchor = theta
        self.objective, self.G, self.T = objective, G, T
        self.phase = np.zeros(len(theta), dtype=int)
        self.start = np.full(len(theta), np.inf)
        self.rise = np.full(len(theta), -np.inf)

    def drop(self, mask, *arrays):
        """Drop the lanes in mask, here and from arrays stacked like them;
        returns those arrays."""
        keep = ~mask
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        return tuple(a[keep] for a in arrays)

    def advance(self, fit, mapped):
        """Move every lane to its next input, given mapped, the EM map of its
        theta. Returns the failure codes of the plain E-steps, 0 where the
        lane goes on.

        phase 0: theta1 = mapped is mapped next, with theta0 as the anchor.
        phase 1: mapped is theta2, the next anchor; the lane extrapolates and,
        if the point is usable and keeps every cluster's mass, maps it next,
        else restarts from theta2. phase 2: the lane keeps the stabilized point
        mapped if it keeps every cluster's mass and does not raise the
        objective at theta0, else restarts from the anchor. Only the E-steps at
        extrapolated and stabilized points may fail without failing the lane.
        """
        phase = self.phase
        point, usable = _extrapolate(fit, self.anchor, self.theta, mapped)
        usable &= phase == 1
        theta = np.where(usable[:, None], point, mapped)
        objective, G, T, failed = _expect(fit, self.thr, theta)
        kept = (failed == 0) & (T.min(axis=1) > _EMPTY_CLUSTER_TOL) & ((phase < 2) | (objective <= self.start))
        anchor = np.where((phase == 0)[:, None], self.theta, np.where((phase == 1)[:, None], mapped, self.anchor))
        back = (usable | (phase == 2)) & ~kept
        if back.any():
            theta[back] = anchor[back]
            objective[back], G[back], T[back], failed[back] = _expect(fit, self.thr[back], anchor[back])
        self.theta, self.anchor = theta, anchor
        self.objective, self.G, self.T = objective, G, T
        self.phase = np.where(phase == 0, 1, np.where(usable & kept, 2, 0))
        return failed


def _em_attempt(B, m, specs, params0):
    """The EM loop of run_em: per spec, its FitResult or the NumericalError
    that ended its lane."""
    fit = _Fit(B, m, specs)
    n, L = fit.n, len(specs)
    theta = np.concatenate((
        np.tile(params0.proportions, (L, 1)),
        np.where(_pinned(fit.kind, fit.thr), 0.0, params0.means).reshape(L, -1),
        np.tile(params0.variances, (L, 1)),
    ), axis=1)
    # a stopped lane's point, outcome code, and last cycle's start and rise
    final, outcome = np.empty_like(theta), np.empty(L, dtype=int)
    start, rise = np.empty(L), np.empty(L)
    iterations = np.zeros(L, dtype=int)
    floored = np.zeros(L, dtype=bool)

    def stop(mask, points, code, *arrays):
        """End the lanes in mask at their points with code, one for all or one per lane."""
        if not mask.any():
            return arrays
        lanes = live.index[mask]
        final[lanes] = points[mask]
        outcome[lanes] = np.broadcast_to(code, mask.shape)[mask]
        start[lanes], rise[lanes] = live.start[mask], live.rise[mask]
        return live.drop(mask, *arrays)

    objective, G, T, failed = _expect(fit, fit.thr, theta)
    live = _Lanes(fit.thr, theta, objective, G, T)
    # the peak memory grows with the lanes: no name outlives the stack it holds
    del theta, objective, G, T
    stop(failed != 0, live.theta, _COLLAPSED + failed)
    for step in range(1, _MAP_CAP + 1):
        at_start = live.phase == 0
        np.maximum(live.rise, live.objective - live.start, out=live.rise, where=at_start)
        np.copyto(live.start, live.objective, where=at_start)
        # collapsed, reported as not converged (an extrapolated point is
        # accepted only with every cluster's mass, so this theta is plain)
        stop(live.T.min(axis=1) <= _EMPTY_CLUSTER_TOL, live.theta, _COLLAPSED)
        if not live.index.size:
            break
        iterations[live.index] = step
        means = _mean_update_for(fit.kind, live.thr, fit.q_c, live.G, live.T, fit.split(live.theta)[2])
        raw = _variances(fit.Xsq_colsum, live.G, live.T, means, n)
        floored[live.index] |= raw.min(axis=1) < _VARIANCE_FLOOR
        mapped = np.concatenate((live.T / n, means.reshape(len(means), -1), np.maximum(raw, _VARIANCE_FLOOR)), axis=1)
        # either plain step of a cycle, from theta0 or theta1, may converge
        moved = mapped - live.theta
        converged = (live.phase < 2) & (np.sqrt(_dots(moved, moved)) <= _STEP_TOL)
        del means, moved
        (mapped,) = stop(converged, mapped, _CONVERGED, mapped)
        if live.index.size:
            failed = live.advance(fit, mapped)
            stop(failed != 0, live.theta, _COLLAPSED + failed)
    # where the map cap ran out before the extrapolated point was mapped: theta2
    stop(live.index >= 0, np.where((live.phase == 2)[:, None], live.anchor, live.theta), _MAX_ITER)

    ok = np.flatnonzero(outcome <= _COLLAPSED)
    if floored[ok].any():
        warnings.warn("degenerate variance floored at 1e-8 during EM")
    if ok.size:
        pi, means, sigma2 = fit.split(final[ok])
        tau, plain, failed = _log_joint(fit.X, fit.Xsq_colsum, pi, means, sigma2)
        penalized = plain + _penalty(fit.kind, fit.thr[ok], fit.q_c, means)
        # a lane whose returned point leaves a cluster without mass collapsed there
        empty = tau.sum(axis=1).min(axis=1) <= _EMPTY_CLUSTER_TOL
        outcome[ok] = np.where(failed != 0, _COLLAPSED + failed, np.where(empty, _COLLAPSED, outcome[ok]))
        rise[ok] = np.maximum(rise[ok], penalized - start[ok])
    results = [NumericalError(_OUTCOMES[code]) if code > _COLLAPSED else None for code in outcome.tolist()]
    for j, lane in enumerate(ok.tolist()):
        if results[lane] is None:
            # copies, so that a fit kept does not keep every lane's arrays alive
            params = MixtureParams(proportions=pi[j].copy(), means=means[j].copy(), variances=sigma2[j].copy())
            results[lane] = FitResult(
                params=params,
                responsibilities=tau[j].copy(),
                hard_labels=tau[j].argmax(axis=1),
                penalized_nll=float(penalized[j]),
                plain_nll=float(plain[j]),
                n_zero_means=int(params.zero_mask.sum()),
                removed_sensors=_removed_sensors(params.zero_mask, B.sensor_names, B.q_c),
                iterations=int(iterations[lane]),
                stop_reason=_OUTCOMES[outcome[lane]],
                max_objective_rise=float(rise[lane]),
            )
    return results


def run_em(
    B: CoefficientMatrix,
    m: int,
    spec: PenaltySpec | Sequence[PenaltySpec],
    seed: int = 0,
    init: MixtureParams | None = None,
) -> FitResult | list[FitResult | NumericalError]:
    """Penalized EM, accelerated by SQUAREM, until a plain EM step moves the
    parameters by at most 1e-4.

    spec is one PenaltySpec or a sequence of them, the lanes of one fit.
    The lanes share B, m, the start and one penalty kind (a mix raises
    ValueError); lam may differ, 0 included. Each lane is
    fitted exactly as it would be alone; the lanes only share the array
    operations.

    One EM map is an E-step followed by the M-step, which updates the means
    first (using the input's variances inside the penalty terms) and then
    the variances from the fresh means. Both are exact minimizers for every
    penalty kind, so the map never raises the observed penalized objective.
    Each E-step is one call of the reduced-form kernel _log_joint for every
    live lane; a lane keeps of it the observed objective and what the
    M-step reads, G = tau.T @ X and the cluster masses T.

    Each lane holds (proportions, means, variances) as one row theta of the
    fit's parameter array. Each SQUAREM cycle (Varadhan & Roland, 2008) maps
    theta0 to theta1 and theta1 to theta2, extrapolates theta' = theta0 -
    2 alpha r + alpha^2 v with r = theta1 - theta0, v = theta2 - theta1 - r
    and alpha = min(-||r|| / ||v||, -1), and maps theta' once more, which
    restores the exact zeros of the M-step. The next cycle starts from that
    point if theta' has positive proportions and variances, neither theta'
    nor the point leaves a cluster without mass, and the point's objective
    is at most theta0's; otherwise from theta2. Every cycle therefore
    descends, and a collapse at an extrapolated point only rejects it.

    Every lane stops on its own, and FitResult.stop_reason says why:
    "converged" when either plain step of a cycle moves its theta by at most
    1e-4 in Euclidean norm, "max_iter" when it has run 500 EM maps, and
    "collapsed" when a cluster's mass is at most 1e-12 at an EM map's input
    (the lane stops there) or at the point the lane returns, even after a
    converged step or its last map. FitResult.iterations
    counts the lane's EM-map evaluations, plain and stabilizing. The
    variance-floor warning fires once per call if any lane's variances were
    floored.

    The fit starts from init, or from initialize(B, m, seed) when init is
    None, and runs once; a failed initialization raises NumericalError, and
    an init whose (m, q) is not the fit's raises ValueError.
    Returns the FitResult of a single spec, raising NumericalError when a
    plain E-step fails (all densities underflow for a row, or the scaled
    squared scores overflow). For a sequence it returns a list with one
    entry per lane: its FitResult or, where that lane's plain E-step
    failed, the NumericalError, while the other lanes go on. Deterministic
    for fixed (B, m, spec, seed, init).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    specs = [spec] if isinstance(spec, PenaltySpec) else list(spec)
    if init is None:
        init = initialize(B, m, seed)
    elif init.means.shape != (m, B.q):
        raise ValueError(f"the start has (m, q) = {init.means.shape}, the fit has ({m}, {B.q})")
    fits = _em_attempt(B, m, specs, init)
    if not isinstance(spec, PenaltySpec):
        return fits
    if isinstance(fits[0], NumericalError):
        raise fits[0]
    return fits[0]
