"""Input generator for the benchmark, written apart from the program.

Curves are drawn on a clamped quadratic B-spline basis (12 functions on
[0, 30], 31 equally spaced samples) that this file evaluates itself, so a
change to the program's basis code or simulator cannot change a workload's
inputs. Every dataset keeps its truth: labels, the signal/noise sensor
split, and the per-sensor pooled mean and sd of the values written.

Each sensor's raw curves get their own offset and scale, as engineering
sensors carry different units, so the program's standardization step has
real work to do.
"""

from __future__ import annotations

import numpy as np

DOMAIN = (0.0, 30.0)
N_TIMES = 31
N_BASIS = 12
ORDER = 3
M_TRUE = 3

# Reference population: the size and signal strength of the paper's
# reference scenario. Cluster means are fixed by POPULATION_SEED, not by the
# workload seed, so every seed draws from one population.
POPULATION_SEED = 20240101
MEAN_SCALE = 1.4774519361201501
REF_N = 200
REF_P_SIGNAL = 2
REF_P_NOISE = 16
REF_DELTA = 1.5

# Many-sensor shape of the engineering application.
WIDE_N = 1000
WIDE_P_SIGNAL = 6
WIDE_P_NOISE = 54


def knots(n_basis: int = N_BASIS, order: int = ORDER, domain=DOMAIN) -> np.ndarray:
    interior = np.linspace(domain[0], domain[1], n_basis - order + 2)[1:-1]
    return np.concatenate([np.full(order, domain[0]), interior, np.full(order, domain[1])])


def bspline_design(t, n_basis: int = N_BASIS, order: int = ORDER, domain=DOMAIN) -> np.ndarray:
    """(len(t), n_basis) values of the clamped B-spline basis by the
    Cox-de Boor recursion on order, with the right endpoint closed."""
    t = np.asarray(t, dtype=float)
    k = knots(n_basis, order, domain)
    # order-1 indicators on [k_i, k_{i+1}); the last nonempty span is closed
    last = np.flatnonzero(k[1:] > k[:-1])[-1]
    B = ((k[:-1][None, :] <= t[:, None]) & (t[:, None] < k[1:][None, :])).astype(float)
    B[t == domain[1], last] = 1.0
    for r in range(2, order + 1):
        nxt = np.zeros((t.size, len(k) - r))
        for i in range(len(k) - r):
            d1 = k[i + r - 1] - k[i]
            d2 = k[i + r] - k[i + 1]
            if d1 > 0:
                nxt[:, i] += (t - k[i]) / d1 * B[:, i]
            if d2 > 0:
                nxt[:, i] += (k[i + r] - t) / d2 * B[:, i + 1]
        B = nxt
    return B


def time_grid() -> np.ndarray:
    return np.linspace(DOMAIN[0], DOMAIN[1], N_TIMES)


def sensor_names(p_signal: int, p_noise: int) -> list[str]:
    return [f"sig{i + 1:02d}" for i in range(p_signal)] + [f"noi{i + 1:02d}" for i in range(p_noise)]


def reference_means(p_signal: int = REF_P_SIGNAL) -> np.ndarray:
    """(M_TRUE, p_signal, N_BASIS) cluster mean coefficients of the signal sensors."""
    rng = np.random.default_rng(POPULATION_SEED)
    return rng.normal(0.0, MEAN_SCALE, size=(M_TRUE, p_signal, N_BASIS))


def _units(rng, p):
    offsets = rng.uniform(-50.0, 50.0, size=p)
    scales = rng.uniform(0.5, 20.0, size=p)
    return offsets, scales


def reference_dataset(seed: int, index: int = 0) -> dict:
    """Dataset `index` of a seed: n=200 curves, 2 signal + 16 noise
    sensors, three equal clusters at delta=1.5. Coefficients are
    N(mu_k, I/delta) on signal sensors and N(0, I/delta) on noise sensors."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, index]))
    p = REF_P_SIGNAL + REF_P_NOISE
    labels = rng.permutation(np.arange(REF_N) % M_TRUE)
    means = np.zeros((M_TRUE, p, N_BASIS))
    means[:, :REF_P_SIGNAL] = reference_means()
    coeffs = means[labels] + rng.standard_normal((REF_N, p, N_BASIS)) / np.sqrt(REF_DELTA)
    offsets, scales = _units(rng, p)
    return _finish(coeffs, labels, REF_P_SIGNAL, REF_P_NOISE, offsets, scales)


def wide_dataset(seed: int) -> dict:
    """n=1000 curves of 60 sensors. Coefficient variances decay at a
    sensor-specific rate, most sensors smooth and a minority rough, so the
    component-count rule faces a realistic mix."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    p = WIDE_P_SIGNAL + WIDE_P_NOISE
    labels = rng.integers(0, M_TRUE, size=WIDE_N)
    rough = rng.permutation(p) < p // 6
    rates = np.where(rough, rng.uniform(0.75, 0.9, size=p), rng.uniform(0.3, 0.55, size=p))
    sd = np.sqrt(rates[:, None] ** np.arange(N_BASIS)[None, :])  # (p, h)
    means = np.zeros((M_TRUE, p, N_BASIS))
    means[:, :WIDE_P_SIGNAL] = rng.normal(0.0, 1.0, size=(M_TRUE, WIDE_P_SIGNAL, N_BASIS)) * sd[:WIDE_P_SIGNAL]
    coeffs = means[labels] + rng.standard_normal((WIDE_N, p, N_BASIS)) * sd
    offsets, scales = _units(rng, p)
    return _finish(coeffs, labels, WIDE_P_SIGNAL, WIDE_P_NOISE, offsets, scales)


def _finish(coeffs, labels, p_signal, p_noise, offsets, scales) -> dict:
    times = time_grid()
    values = coeffs @ bspline_design(times).T  # (n, p, N_TIMES)
    values = values * scales[None, :, None] + offsets[None, :, None]
    return {
        "times": times,
        "values": values,
        "labels": labels,
        "sensors": sensor_names(p_signal, p_noise),
        "signal": sensor_names(p_signal, 0),
        "noise": sensor_names(0, p_noise),
        "pooled_mean": values.mean(axis=(0, 2)),
        "pooled_sd": values.std(axis=(0, 2)),
    }


def write_long_csv(data: dict, path) -> int:
    """Write obs_id,sensor_id,time,value rows; returns the data row count."""
    times = [repr(float(t)) for t in data["times"]]
    values = data["values"]
    n, p, _ = values.shape
    rows = 0
    with open(path, "w") as fh:
        fh.write("obs_id,sensor_id,time,value\n")
        for i in range(n):
            obs = f"obs{i:04d}"
            block = values[i].tolist()
            lines = []
            for s, name in enumerate(data["sensors"]):
                prefix = f"{obs},{name},"
                lines.extend(f"{prefix}{t},{v!r}" for t, v in zip(times, block[s]))
            fh.write("\n".join(lines))
            fh.write("\n")
            rows += len(lines)
    return rows
