"""Shared oracles for the EM tests: numeric minimizers and a reference EM."""

import itertools

import numpy as np
from scipy.stats import norm

from mfclust.em import _mean_update_for


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
        logp = np.empty((n, m))
        for k in range(m):
            logp[:, k] = np.log(pi[k]) + norm.logpdf(X, loc=mu[k], scale=np.sqrt(var)).sum(axis=1)
        mx = logp.max(axis=1, keepdims=True)
        w = np.exp(logp - mx)
        tau = w / w.sum(axis=1, keepdims=True)

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


def mean_update(X, tau, sigma2, spec, current=None, q_c=1):
    """The EM's M-step mean update for data X under responsibilities tau.

    current defaults to zeros; only the variable and group updates read it.
    """
    X = np.asarray(X, dtype=float)
    if current is None:
        current = np.zeros((tau.shape[1], X.shape[1]))
    return _mean_update_for(
        spec, tau.T @ X, tau.sum(axis=0), np.asarray(sigma2, dtype=float),
        np.asarray(current, dtype=float), q_c,
    )
