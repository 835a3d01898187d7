"""Clamped B-spline basis shared by all sensors.

A basis is defined by its domain, order (degree + 1), and number of basis
functions. Knots are clamped (endpoint multiplicity = order) with equally
spaced interior knots, so every basis is fully determined by four numbers.
Evaluation uses the Cox-de Boor recurrence; curve fitting is plain least
squares on the evaluated design matrix; inner products come from per-span
Gauss-Legendre quadrature, which is exact for piecewise-polynomial
integrands of the orders used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BasisSpec:
    """A clamped B-spline basis on [domain_lo, domain_hi]. Its knots (each
    endpoint `order` times around n_basis - order equally spaced interior
    knots) are derived from the four fields, which alone it compares and
    hashes."""

    domain_lo: float
    domain_hi: float
    order: int
    n_basis: int
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_size(self.n_basis, self.order)
        if not self.domain_lo < self.domain_hi:
            raise ValueError("domain_lo must be strictly below domain_hi")
        lo, hi, k = float(self.domain_lo), float(self.domain_hi), self.order
        interior = np.linspace(lo, hi, self.n_basis - k + 2)[1:-1]
        object.__setattr__(self, "knots", np.concatenate([np.full(k, lo), interior, np.full(k, hi)]))

    @property
    def degree(self) -> int:
        return self.order - 1


def check_size(n_basis: int, order: int) -> None:
    """Raise ValueError unless n_basis >= order >= 1."""
    if order < 1 or n_basis < order:
        raise ValueError(f"need n_basis >= order >= 1, got n_basis={n_basis}, order={order}")


def build_basis(domain_lo: float, domain_hi: float, n_basis: int, order: int = 3) -> BasisSpec:
    """The clamped basis of n_basis functions of the given order on
    [domain_lo, domain_hi], with float bounds and int sizes."""
    return BasisSpec(float(domain_lo), float(domain_hi), int(order), int(n_basis))


def _find_spans(basis: BasisSpec, t: np.ndarray) -> np.ndarray:
    # Span i satisfies knots[i] <= t < knots[i+1]; the right endpoint maps
    # to the last nonempty span so clamped evaluation covers [lo, hi].
    spans = np.searchsorted(basis.knots, t, side="right") - 1
    return np.clip(spans, basis.degree, basis.n_basis - 1)


def design_matrix(basis: BasisSpec, times: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at each time; returns (len(times), n_basis)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(t < basis.domain_lo) or np.any(t > basis.domain_hi):
        bad = t[(t < basis.domain_lo) | (t > basis.domain_hi)][0]
        raise ValueError(f"time {bad} outside basis domain [{basis.domain_lo}, {basis.domain_hi}]")
    d = basis.degree
    knots = basis.knots
    spans = _find_spans(basis, t)

    # Cox-de Boor triangle, vectorized over evaluation points. vals[:, r]
    # holds B_{span-d+r, degree j} at stage j of the recurrence.
    n_pts = t.shape[0]
    vals = np.zeros((n_pts, d + 1))
    vals[:, 0] = 1.0
    left = np.zeros((n_pts, d + 1))
    right = np.zeros((n_pts, d + 1))
    for j in range(1, d + 1):
        left[:, j] = t - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - t
        saved = np.zeros(n_pts)
        for r in range(j):
            # knots[s+r+1] - knots[s+1-j+r] >= knots[s+1] - knots[s] > 0: spans are nonempty
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved

    out = np.zeros((n_pts, basis.n_basis))
    cols = spans[:, None] - d + np.arange(d + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


def fit_coefficients(basis: BasisSpec, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares spline coefficients for samples (times, values).

    `values` may be a vector or a (n_curves, len(times)) matrix; the
    returned coefficients have matching shape (n_basis,) or
    (n_curves, n_basis). Every curve goes through one projector built from
    a single SVD of the design. Raises on a rank-deficient design.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape[0] != values.shape[-1]:
        raise ValueError("times and values length mismatch")
    if times.shape[0] < basis.n_basis:
        raise ValueError(
            f"rank-deficient fit: {times.shape[0]} samples for {basis.n_basis} basis functions"
        )
    dm = design_matrix(basis, times)
    u, s, vt = np.linalg.svd(dm, full_matrices=False)
    # the rank rule of np.linalg.lstsq with its default rcond
    rank = int(np.sum(s > np.finfo(float).eps * max(dm.shape) * s[0]))
    if rank < basis.n_basis:
        raise ValueError(
            f"rank-deficient fit: design rank {rank} < {basis.n_basis} basis functions"
        )
    return values @ ((u / s) @ vt)


def gram_matrix(basis: BasisSpec) -> np.ndarray:
    """Matrix of pairwise basis inner products over the domain.

    Integrates with an `order`-point Gauss-Legendre rule on each knot span,
    exact for the degree 2*(order-1) products of basis functions; the nodes
    of every span (none is empty) go through one design matrix.
    """
    nodes, weights = np.polynomial.legendre.leggauss(basis.order)
    knots = basis.knots[basis.degree:basis.n_basis + 1]
    a, b = knots[:-1], knots[1:]
    half = 0.5 * (b - a)[:, None]
    ts = 0.5 * (a + b)[:, None] + half * nodes
    dm = design_matrix(basis, ts.ravel())
    return (dm * (half * weights).ravel()[:, None]).T @ dm
