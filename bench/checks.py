"""Output checks, each computed apart from the program.

Every check reads the files a CLI call wrote with the csv and json modules
and recomputes what it compares against with its own numpy code: the
mixture log-likelihood in the direct (x - mu)^2 form, the responsibilities,
the adjusted BIC, a separate FPCA of the raw curves through eig(C G), and
eigenfunction inner products under a Gauss-Legendre rule with one more node
per knot span than the program uses. Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import gen

RISE_TOL = 1e-8  # acceptance criterion 3: the observed objective may not rise by more
REL_TOL = 1e-9
MAX_ITER = 500  # the CLI's default --max-iter

# Group penalty on the reference scenario: see README, "ARI floor".
GROUP_ARI_FLOOR = 0.9


# ---------------------------------------------------------------------------
# readers


def read_scores(path) -> tuple[list[str], list[str], np.ndarray]:
    """(obs ids, column names, n x q matrix) of a score CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return [r[0] for r in rows[1:]], header[1:], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def read_assignments(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    return ([r[0] for r in body], np.array([int(r[1]) for r in body]),
            np.array([[float(x) for x in r[2:]] for r in body]))


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_lines(path) -> list[str]:
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def read_dict_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# independent computations


def log_joint(X, proportions, means, variances) -> np.ndarray:
    """(n, m) matrix of log pi_k + log N(x_i; mu_k, diag(variances))."""
    resid = X[:, None, :] - means[None, :, :]
    logf = -0.5 * (np.log(2.0 * math.pi * variances)[None, None, :] + resid**2 / variances).sum(axis=2)
    with np.errstate(divide="ignore"):
        return logf + np.log(proportions)[None, :]


def logsumexp_rows(a) -> np.ndarray:
    peak = a.max(axis=1)
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def adjusted_rand(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1))
    for i, j in zip(ia, ib):
        table[i, j] += 1

    def comb2(x):
        return (x * (x - 1) / 2).sum()

    index = comb2(table)
    rows, cols = comb2(table.sum(axis=1)), comb2(table.sum(axis=0))
    expected = rows * cols / (len(a) * (len(a) - 1) / 2)
    top = (rows + cols) / 2
    return 1.0 if top == expected else float((index - expected) / (top - expected))


def quartiles(values) -> tuple[float, float, float]:
    """25th, 50th and 75th percentiles by linear interpolation between order statistics."""
    x = sorted(values)
    out = []
    for p in (0.25, 0.5, 0.75):
        pos = p * (len(x) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(x) - 1)
        out.append(x[lo] + (x[hi] - x[lo]) * (pos - lo))
    return tuple(out)


def gauss_rule(domain_lo, domain_hi, n_basis, order) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with order + 1 Gauss-Legendre points per knot span."""
    k = np.unique(gen.knots(n_basis, order, (domain_lo, domain_hi)))
    x, w = np.polynomial.legendre.leggauss(order + 1)
    half = (k[1:] - k[:-1]) / 2
    mid = (k[1:] + k[:-1]) / 2
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def sensor_of(column: str) -> str:
    return column.rpartition("_pc")[0]


# ---------------------------------------------------------------------------
# fit: selection table, chosen model, assignments, removed sensors


def expected_rows(kind: str, m_values=6, lambdas=10, gammas=4) -> int:
    """Grid points of one `fit` call under the default grids."""
    return m_values if kind == "none" else m_values * lambdas * (1 + gammas)


def failed_rows(report: dict, kind: str) -> int:
    """Grid points that are missing from the table or whose objective rose."""
    rows = report["selection_table"]
    rising = sum(1 for r in rows if r["max_rise"] > RISE_TOL)
    return max(expected_rows(kind) - len(rows), 0) + rising


def check_fit(scores_path, report_path, assign_path, removed_path, kind, truth=None) -> list[str]:
    problems = []
    _, columns, X = read_scores(scores_path)
    report = read_json(report_path)
    n, q = X.shape
    rows = report["selection_table"]
    if not rows:
        return ["selection table is empty"]

    for r in rows:
        d_e = r["m"] + q + r["m"] * q - r["n_zero"] - 1
        want = 2.0 * r["plain_nll"] + math.log(n * q) * d_e
        if not _close(r["bic"], want, 1e-12):
            problems.append(f"row m={r['m']} lam={r['lam']:.4g} gamma={r['gamma']}: "
                            f"bic {r['bic']!r} != 2*nll + log(nq)*d_e = {want!r}")
            break
        if r["kind"] != kind:
            problems.append(f"row of kind {r['kind']!r} in a {kind!r} fit")
            break

    converged = [r for r in rows if r["converged"]]
    if not converged:
        return problems + ["no converged row"]
    best = min(converged, key=lambda r: (r["bic"], r["m"], r["lam"], r["gamma"]))
    chosen = report["chosen"]
    if (chosen["m"], chosen["lam"], chosen["gamma"], chosen["kind"]) != (
        best["m"], best["lam"], best["gamma"], best["kind"]
    ):
        problems.append(f"chosen {chosen} is not the minimum-BIC converged row "
                        f"(m={best['m']}, lam={best['lam']}, gamma={best['gamma']})")

    mix = report["mixture"]
    pi = np.array(mix["proportions"])
    mu = np.array(mix["means"])
    var = np.array(mix["variances"])
    if mu.shape != (chosen["m"], q):
        return problems + [f"mixture means have shape {mu.shape}, expected ({chosen['m']}, {q})"]
    lj = log_joint(X, pi, mu, var)
    lse = logsumexp_rows(lj)
    nll = float(-lse.sum())
    if not _close(nll, best["plain_nll"]):
        problems.append(f"recomputed nll {nll!r} != chosen row plain_nll {best['plain_nll']!r}")
    if int((mu == 0.0).sum()) != best["n_zero"]:
        problems.append(f"mixture has {int((mu == 0.0).sum())} zero means, row says {best['n_zero']}")

    _, labels, resp = read_assignments(assign_path)
    tau = np.exp(lj - lse[:, None])
    if resp.shape != tau.shape or np.abs(resp - tau).max() > 1e-9:
        problems.append("responsibilities differ from those recomputed from the mixture")
    else:
        top2 = np.sort(tau, axis=1)[:, -2:] if tau.shape[1] > 1 else None
        clear = np.ones(n, bool) if top2 is None else (top2[:, 1] - top2[:, 0]) > 1e-9
        if np.any(labels[clear] != tau.argmax(axis=1)[clear]):
            problems.append("labels are not the argmax of the responsibilities")

    sensors = list(dict.fromkeys(sensor_of(c) for c in columns))
    q_c = q // len(sensors)
    blocks = mu.reshape(mu.shape[0], len(sensors), q_c)
    zero_blocks = {s for s, z in zip(sensors, np.all(blocks == 0.0, axis=(0, 2))) if z}
    removed = set(read_lines(removed_path))
    if removed != zero_blocks or set(report["removed_sensors"] or []) != zero_blocks:
        problems.append(f"removed sensors {sorted(removed)} != all-zero mean blocks {sorted(zero_blocks)}")

    # The chosen m is not checked per dataset: criterion 4 bounds it only on
    # average (MAE(m) <= 0.4), and a fit may pick m=4 with one component left
    # empty. The ARI floor checks the clustering itself.
    if kind == "group" and truth is not None:
        lost = removed & set(truth["signal"])
        if lost:
            problems.append(f"group removed signal sensors {sorted(lost)}")
        score = adjusted_rand(truth["labels"], labels)
        if score < GROUP_ARI_FLOOR:
            problems.append(f"group ARI {score:.3f} below the floor {GROUP_ARI_FLOOR}")
    return problems


def row_diagnostics(report: dict) -> dict:
    """Counts over one selection table: converged, max_iter, collapsed, rising."""
    rows = report["selection_table"]
    return {
        "rows": len(rows),
        "converged": sum(1 for r in rows if r["converged"]),
        "max_iter": sum(1 for r in rows if not r["converged"] and r["iterations"] >= MAX_ITER),
        "collapsed": sum(1 for r in rows if not r["converged"] and r["iterations"] < MAX_ITER),
        "rising": sum(1 for r in rows if r["max_rise"] > RISE_TOL),
    }


# ---------------------------------------------------------------------------
# transform: scores, eigenvalues, eigenfunctions, standardization, q_c rule


def variance_explained(data: dict) -> np.ndarray:
    """(p, n_basis) cumulative variance fractions of each sensor's L2
    covariance operator, from eig(C G) of the least-squares coefficients."""
    D = gen.bspline_design(data["times"])
    nodes, weights = gauss_rule(gen.DOMAIN[0], gen.DOMAIN[1], gen.N_BASIS, gen.ORDER)
    Dq = gen.bspline_design(nodes)
    G = (Dq * weights[:, None]).T @ Dq
    values = data["values"]
    out = []
    for s in range(values.shape[1]):
        y = (values[:, s, :] - data["pooled_mean"][s]) / data["pooled_sd"][s]
        coef = np.linalg.lstsq(D, y.T, rcond=None)[0].T
        c = coef - coef.mean(axis=0)
        ev = np.sort(np.linalg.eigvals(c.T @ c / len(c) @ G).real)[::-1]
        out.append(np.cumsum(ev) / ev.sum())
    return np.array(out)


def component_rule(fractions: np.ndarray, alpha=0.8, beta=0.8) -> int:
    """Smallest q with at least a share alpha of sensors above beta."""
    for q in range(1, fractions.shape[1] + 1):
        if np.mean(fractions[:, q - 1] > beta) >= alpha:
            return q
    return fractions.shape[1]


def check_transform(scores_path, model_path, data: dict, fractions=None, qc=None) -> list[str]:
    """fractions: the benchmark's own variance_explained(data), for the rule;
    qc: the pinned component count, when the call gave --qc."""
    problems = []
    _, columns, S = read_scores(scores_path)
    model = read_json(model_path)
    fp = model["fpca"]
    q_c = fp["q_c"]
    n = S.shape[0]
    names = [m["sensor"] for m in fp["sensors"]]
    if names != data["sensors"]:
        return [f"model sensors {names[:3]}... differ from the dataset's"]
    if S.shape != (len(data["labels"]), len(names) * q_c):
        return [f"scores have shape {S.shape}"]
    if columns != [f"{s}_pc{l + 1}" for s in names for l in range(q_c)]:
        problems.append("score columns are not sensor-major")

    means = S.mean(axis=0)
    if np.abs(means).max() > 1e-9:
        problems.append(f"score column mean {np.abs(means).max():.3g} is not 0")

    worst_cov = worst_orth = worst_std = 0.0
    for s, m in enumerate(fp["sensors"]):
        ev = np.array(m["eigenvalues"])
        block = S[:, s * q_c:(s + 1) * q_c]
        cov = (block - block.mean(axis=0)).T @ (block - block.mean(axis=0)) / n
        worst_cov = max(worst_cov, np.abs(cov - np.diag(ev)).max() / max(ev.max(), 1e-300))
        b = m["basis"]
        nq, wq = gauss_rule(b["domain_lo"], b["domain_hi"], b["n_basis"], b["order"])
        phi = gen.bspline_design(nq, b["n_basis"], b["order"], (b["domain_lo"], b["domain_hi"])) @ np.array(m["eigen_coeffs"])
        inner = (phi * wq[:, None]).T @ phi
        worst_orth = max(worst_orth, np.abs(inner - np.eye(q_c)).max())
        mean, sd = m["standardization"]
        worst_std = max(worst_std, abs(mean - data["pooled_mean"][s]) / data["pooled_sd"][s],
                        abs(sd / data["pooled_sd"][s] - 1.0))
    if worst_cov > 1e-8:
        problems.append(f"score covariance differs from diag(eigenvalues) by {worst_cov:.3g} (relative)")
    if worst_orth > 1e-8:
        problems.append(f"eigenfunctions are not L2-orthonormal (off by {worst_orth:.3g})")
    if worst_std > 1e-9:
        problems.append(f"standardization differs from the pooled mean/sd by {worst_std:.3g}")

    if fractions is not None:
        written = np.array([m["variance_explained"] for m in fp["sensors"]])
        if np.abs(written - fractions[:, :q_c]).max() > 1e-8:
            problems.append("written variance fractions differ from the recomputed ones")
        want = qc if qc is not None else component_rule(fractions)
        if q_c != want:
            problems.append(f"q_c={q_c}, but the (alpha, beta) rule gives {want}")
    return problems


# ---------------------------------------------------------------------------
# sweep: replicate records and aggregate rows


def check_sweep(rows_path, reps_path, kinds, reps, m_true=gen.M_TRUE, p_signal=2, p_noise=16,
                q_c=3, m_max=6) -> tuple[list[str], list[dict]]:
    """Returns problems and the parsed replicate records."""
    problems = []
    records = read_dict_rows(reps_path)
    rows = read_dict_rows(rows_path)
    for r in records:
        m_hat, ari = int(r["m_hat"]), float(r["ari"])
        correct, false, zero_cols = int(r["removed_correctly"]), int(r["removed_falsely"]), int(r["variables_removed"])
        ok = (r["kind"] in kinds and 0 <= int(r["rep"]) < reps and 1 <= m_hat <= m_max
              and -1.0 <= ari <= 1.0 and 0 <= correct <= p_noise and 0 <= false <= p_signal
              and q_c * (correct + false) <= zero_cols <= q_c * (p_signal + p_noise))
        if not ok:
            problems.append(f"replicate record out of range: {r}")
            break
    for kind in kinds:
        cell = [r for r in records if r["kind"] == kind]
        row = [r for r in rows if r["kind"] == kind]
        if len(row) != 1:
            problems.append(f"{len(row)} aggregate rows for kind {kind!r}")
            continue
        row = row[0]
        if int(row["reps"]) != len(cell) or int(row["n_failed"]) != reps - len(cell):
            problems.append(f"{kind}: reps/n_failed {row['reps']}/{row['n_failed']} for {len(cell)} records")
            continue
        if not cell:
            continue
        q1, med, q3 = quartiles([float(r["ari"]) for r in cell])
        want = {
            "mae_m": sum(abs(int(r["m_hat"]) - m_true) for r in cell) / len(cell),
            "mean_variables_removed": sum(int(r["variables_removed"]) for r in cell) / len(cell),
            "mean_removed_correctly": sum(int(r["removed_correctly"]) for r in cell) / len(cell),
            "mean_removed_falsely": sum(int(r["removed_falsely"]) for r in cell) / len(cell),
            "ari_median": med, "ari_q1": q1, "ari_q3": q3,
        }
        for key, value in want.items():
            if not _close(float(row[key]), value, 1e-12):
                problems.append(f"{kind}: aggregate {key}={row[key]} but the records give {value!r}")
    kinds_seen = {r["kind"] for r in records}
    if not problems and {"group", "none"} <= kinds_seen:
        group, none = median_ari(records, "group"), median_ari(records, "none")
        if group < none:
            problems.append(f"group median ARI {group:.3f} is below the no-penalty baseline's {none:.3f}")
    return problems, records


def median_ari(records, kind) -> float:
    return quartiles([float(r["ari"]) for r in records if r["kind"] == kind])[1]
