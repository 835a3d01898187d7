"""Shared oracles for the EM tests: numeric minimizers and a reference EM,
and the one-lane and one-kind calls of run_em and model_search."""

import itertools

import numpy as np
from scipy.stats import norm

from mfclust.em import FitResult, _mean_update_for, _thresholds, run_em
from mfclust.select import SelectionReport, model_search


def golden_section(f, lo, hi, tol=1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_plus_golden(f, lo, hi, n_grid=2001):
    """Dense grid scan refined by golden section around the best cell."""
    xs = np.linspace(lo, hi, n_grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    x = golden_section(f, a, b)
    # 0 is a kink candidate under L1-type penalties
    return x if f(x) <= f(0.0) else 0.0


def max_norm_minimizer(objective, centers):
    """Numeric minimizer of objective(mu) = sum_k f_k(mu_k) + c * max_k |mu_k|
    for convex f_k minimized at centers[k].

    Under the bound max_k |mu_k| <= t the best mu clips every center to
    [-t, t], and the bound is tight at the minimizer, so the problem reduces
    to the convex function t -> objective(clip(centers, -t, t)) on
    [0, max_k |centers_k|], minimized by golden section.
    """
    centers = np.asarray(centers, dtype=float)

    def along_bound(t):
        return objective(np.clip(centers, -t, t))

    t = golden_section(along_bound, 0.0, np.abs(centers).max())
    return np.clip(centers, -t, t) if along_bound(t) <= along_bound(0.0) else np.zeros_like(centers)


def reference_e_step(X, pi, mu, var):
    """Responsibilities (n, m) and the observed NLL of a diagonal GMM, by a
    plain log-sum-exp over each row of scipy's log densities."""
    logp = np.empty((X.shape[0], len(pi)))
    for k in range(len(pi)):
        logp[:, k] = np.log(pi[k]) + norm.logpdf(X, loc=mu[k], scale=np.sqrt(var)).sum(axis=1)
    mx = logp.max(axis=1, keepdims=True)
    w = np.exp(logp - mx)
    total = w.sum(axis=1, keepdims=True)
    return w / total, -float((mx + np.log(total)).sum())


def reference_gmm_em(X, pi0, mu0, var0, tol=1e-9, max_iter=5000):
    """Plain diagonal-covariance GMM EM, written independently of the library.

    Standard updates: responsibilities from current parameters, then
    proportions, means, and variances (from the new means).
    """
    X = np.asarray(X, dtype=float)
    n, q = X.shape
    pi, mu, var = np.array(pi0, float), np.array(mu0, float), np.array(var0, float)
    m = len(pi)
    for _ in range(max_iter):
        tau, _ = reference_e_step(X, pi, mu, var)

        pi_new = tau.mean(axis=0)
        mu_new = np.vstack([(tau[:, k : k + 1] * X).sum(axis=0) / tau[:, k].sum() for k in range(m)])
        var_new = np.zeros(q)
        for k in range(m):
            var_new += (tau[:, k : k + 1] * (X - mu_new[k]) ** 2).sum(axis=0)
        var_new /= n

        change = np.sqrt(
            ((mu_new - mu) ** 2).sum() + ((var_new - var) ** 2).sum() + ((pi_new - pi) ** 2).sum()
        )
        pi, mu, var = pi_new, mu_new, var_new
        if change <= tol:
            break
    return pi, mu, var


def reference_kmeans_once(X, m, rng):
    """One k-means++ run written with direct squared distances and
    per-cluster means: the seeding draws the library makes, then Lloyd
    steps until the labels repeat (at most 100). Returns the labels, the
    centers and the inertia."""
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
    return labels, centers, dist[np.arange(n), labels].sum()


def align_clusters(mu_ref, mu_est):
    """Permutation of estimated clusters minimizing total mean distance."""
    m = mu_ref.shape[0]
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(m)):
        cost = sum(np.sum((mu_ref[k] - mu_est[perm[k]]) ** 2) for k in range(m))
        if cost < best_cost:
            best, best_cost = perm, cost
    return list(best)


def two_separated_clouds(rng, n=100, q=4, gap=8.0):
    """Two well-separated Gaussian clouds with equal shares."""
    half = n // 2
    a = rng.normal(0.0, 1.0, size=(half, q))
    b = rng.normal(gap, 1.0, size=(n - half, q))
    labels = np.array([0] * half + [1] * (n - half))
    return np.vstack([a, b]), labels


def mean_update(X, tau, sigma2, spec, q_c=1):
    """The EM's M-step mean update for data X under responsibilities tau."""
    X = np.asarray(X, dtype=float)
    kind, thr = _thresholds([spec], tau.shape[1], X.shape[1], q_c)
    G, T, sigma2 = tau.T @ X, tau.sum(axis=0), np.asarray(sigma2, dtype=float)
    return _mean_update_for(kind, thr, q_c, G[None], T[None], sigma2[None])[0]


def fit_alone(B, spec, init):
    """The FitResult of spec fitted alone from init, the one lane of a
    run_em call; a NumericalError in its place fails the test."""
    (fit,) = run_em(B, [spec], init)
    assert isinstance(fit, FitResult), fit
    return fit


def search_alone(B, grid, kind, seed=0, n_jobs=1):
    """The SelectionReport of kind searched alone, the one entry of a
    model_search call; a NumericalError in its place fails the test."""
    (report,) = model_search(B, grid, [kind], seed=seed, n_jobs=n_jobs)
    assert isinstance(report, SelectionReport), report
    return report
