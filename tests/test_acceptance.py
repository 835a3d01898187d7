"""Acceptance gate: every release criterion with its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion. The statistical
criteria use fixed seeds, so outcomes are reproducible bit for bit.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    align_clusters,
    grid_plus_golden,
    max_norm_minimizer,
    mean_update,
    reference_gmm_em,
)

from mfclust import em
from mfclust.basis import build_basis, design_matrix, gram_matrix
from mfclust.em import (
    MixtureParams,
    PenaltySpec,
    e_step,
    initialize,
    penalized_nll,
    run_em,
)
from mfclust.fpca import (
    CoefficientMatrix,
    FunctionalDataSet,
    fit_fpca,
    reconstruct,
    transform,
)
from mfclust.select import SearchGrid, adjusted_bic
from mfclust.simbench import ari, run_scenario

JOBS = min(8, os.cpu_count() or 1)
KINDS_AT_ZERO = ("none", "individual", "variable", "group")


def check(criterion: int, ok: bool, description: str, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {description} [{detail}]"
    print(f"\n{line}")
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs


def _two_cluster_instance(seed):
    rng = np.random.default_rng(seed)
    n, q = 100, 4
    gap = rng.uniform(5.0, 8.0)
    direction = rng.standard_normal(q)
    direction /= np.linalg.norm(direction)
    labels = rng.integers(0, 2, size=n)
    X = np.where(labels[:, None] == 0, 0.0, gap) * direction + rng.normal(0, 1.0, size=(n, q))
    return CoefficientMatrix.from_scores(X, q_c=2)


@pytest.fixture(scope="module")
def zero_lambda_fits():
    """Criterion 1 fits: 20 instances x 4 penalty kinds at lambda = 0, run
    to a step of 1e-9 (at most 5000 maps) so that the bound measures the
    updates, not where the program's stop rule ends a fit."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "_STEP_TOL", 1e-9)
        mp.setattr(em, "_MAP_CAP", 5000)
        for seed in range(20):
            B = _two_cluster_instance(1000 + seed)
            init = initialize(B, 2, seed=seed)
            pi_ref, mu_ref, var_ref = reference_gmm_em(
                B.scores, init.proportions, init.means, init.variances, tol=1e-10
            )
            for kind in KINDS_AT_ZERO:
                fit = run_em(B, 2, PenaltySpec(kind), init=init)
                perm = align_clusters(mu_ref, fit.params.means)
                diff = max(
                    np.abs(fit.params.means[perm] - mu_ref).max(),
                    np.abs(fit.params.proportions[perm] - pi_ref).max(),
                    np.abs(fit.params.variances - var_ref).max(),
                )
                runs.append({"kind": kind, "seed": seed, "diff": diff, "fit": fit})
    return runs


@pytest.fixture(scope="module")
def table1():
    """Criteria 3, 4 and 7 run: the group and variable penalties on the
    reference scenario's 50 replicate datasets, both kinds in one search
    per dataset. Returns the row and the records of each kind."""
    t0 = time.time()
    kinds = ("group", "variable")
    rows, records = run_scenario(
        "sample-size", reps=50, kinds=kinds, seed=41, levels=(200,),
        q_c=3, grid=SearchGrid(), n_jobs=JOBS,
    )
    print(f"\n[reference scenario, group and variable penalties: {time.time() - t0:.0f}s]")
    return {r.kind: r for r in rows}, {kind: [r for r in records if r.kind == kind] for kind in kinds}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_lambda_zero_oracle(zero_lambda_fits):
    t0 = time.time()
    worst = max(r["diff"] for r in zero_lambda_fits)
    check(
        1,
        worst <= 1e-6,
        "lambda=0 fits match an independent plain EM after label alignment",
        f"worst parameter difference {worst:.2e} over {len(zero_lambda_fits)} fits, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_2_mstep_optimality_oracles():
    t0 = time.time()
    worst_gap = 0.0
    rng = np.random.default_rng(2024)

    def scalar_config():
        n = int(rng.integers(8, 25))
        b = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=n)
        tau_k = rng.uniform(0.05, 1.0, size=n)
        sigma2 = rng.uniform(0.3, 2.5)
        w = rng.uniform(0.1, 4.0)
        lam = rng.uniform(0.05, 10.0)
        return b, tau_k, sigma2, w, lam

    for _ in range(50):  # individual penalty, scalar
        b, tau_k, sigma2, w, lam = scalar_config()
        tau = np.column_stack([tau_k, 1 - tau_k])
        spec = PenaltySpec(kind="individual", lam=lam, weights=np.full((2, 1), w))
        got = mean_update(b[:, None], tau, np.array([sigma2]), spec)[0, 0]

        def objective(mu):
            return 0.5 * (tau_k * (b - mu) ** 2).sum() / sigma2 + lam * w * abs(mu)

        best = grid_plus_golden(objective, -12, 12)
        worst_gap = max(worst_gap, objective(got) - objective(best))

    for _ in range(50):  # variable penalty, full two-cluster column
        b, tau_k, sigma2, w, lam = scalar_config()
        tau = np.column_stack([tau_k, 1 - tau_k])
        spec = PenaltySpec(kind="variable", lam=lam, weights=np.array([w]))
        got = mean_update(b[:, None], tau, np.array([sigma2]), spec)[:, 0]

        def objective(mu):
            return 0.5 * (tau * (b[:, None] - mu) ** 2).sum() / sigma2 + lam * w * np.abs(mu).max()

        best = max_norm_minimizer(objective, tau.T @ b / tau.sum(axis=0))
        worst_gap = max(worst_gap, objective(got) - objective(best))

    for _ in range(50):  # group penalty, scalar blocks in one call
        b, tau_k, sigma2, w, lam = scalar_config()
        tau = np.column_stack([tau_k, 1 - tau_k])
        spec = PenaltySpec(kind="group", lam=lam, weights=np.array([w, w]))
        got = mean_update(b[:, None], tau, np.array([sigma2]), spec)[:, 0]
        for k, weights in enumerate((tau_k, 1 - tau_k)):

            def objective(x):
                return 0.5 * (weights * (b - x) ** 2).sum() / sigma2 + lam * w * abs(x)

            best = grid_plus_golden(objective, -12, 12)
            worst_gap = max(worst_gap, objective(got[k]) - objective(best))

    worst_resid = 0.0
    for _ in range(50):  # group penalty, q_c=3 blocks in one call: stationarity + zero condition
        n = int(rng.integers(10, 30))
        Xb = rng.normal(rng.uniform(-1.5, 1.5), 1.0, size=(n, 3))
        tau_k = rng.uniform(0.05, 1.0, size=n)
        tau = np.column_stack([tau_k, 1 - tau_k])
        sigma2 = rng.uniform(0.4, 2.0, size=3)
        w = rng.uniform(0.2, 2.0)
        lam = rng.uniform(0.1, 6.0)
        spec = PenaltySpec(kind="group", lam=lam, weights=np.array([w, w]))
        mu = mean_update(Xb, tau, sigma2, spec, q_c=3)
        S = tau.T @ Xb
        T = tau.sum(axis=0)
        thr = lam * w * math.sqrt(3)
        for k in range(2):
            block = mu[k]
            if np.all(block == 0.0):
                slack = np.linalg.norm(S[k] / sigma2) - thr
                worst_resid = max(worst_resid, slack)
            else:
                resid = (S[k] - T[k] * block) / sigma2 - thr * block / np.linalg.norm(block)
                worst_resid = max(worst_resid, np.abs(resid).max())

    ok = worst_gap <= 1e-6 and worst_resid <= 1e-6
    check(
        2,
        ok,
        "exact mean updates match numeric M-step minimizers and optimality conditions",
        f"worst objective gap {worst_gap:.2e}, worst stationarity residual {worst_resid:.2e}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_3_monotone_descent(zero_lambda_fits, table1):
    worst = max(r["fit"].max_objective_rise for r in zero_lambda_fits)
    for records in table1[1].values():
        worst = max(worst, max(rec.max_rise for rec in records))
    check(
        3,
        worst <= 1e-8,
        "observed penalized objective never rises along any EM run",
        f"worst rise {worst:.2e}",
    )


def test_criterion_4_reference_scenario_group(table1):
    row = table1[0]["group"]
    ok = (
        row.reps == 50
        and row.mae_m <= 0.4
        and row.mean_removed_correctly >= 15.0
        and row.mean_removed_falsely <= 0.3
    )
    check(
        4,
        ok,
        "group penalty reproduces the reference scenario at scale",
        f"MAE(m)={row.mae_m:.3f} (<=0.4), removed correctly {row.mean_removed_correctly:.2f}/16 "
        f"(>=15.0), removed falsely {row.mean_removed_falsely:.2f} (<=0.3), reps={row.reps}",
    )


def test_criterion_5_baseline_degrades_at_small_n():
    t0 = time.time()
    rows, _ = run_scenario(
        "sample-size", reps=50, kinds=("group", "none"), seed=55, levels=(50,),
        q_c=3, grid=SearchGrid(), n_jobs=JOBS,
    )
    by_kind = {r.kind: r for r in rows}
    ok = by_kind["none"].mae_m > by_kind["group"].mae_m
    check(
        5,
        ok,
        "no-penalty baseline is worse than the group penalty at n=50",
        f"MAE none={by_kind['none'].mae_m:.2f} vs group={by_kind['group'].mae_m:.2f}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_6_signal_strength_trend():
    t0 = time.time()
    rows, _ = run_scenario(
        "signal-strength", reps=50, kinds=("group",), seed=66, levels=(1.0, 2.5),
        q_c=3, grid=SearchGrid(), n_jobs=JOBS,
    )
    by_level = {r.level: r for r in rows}
    ok = by_level[2.5].mae_m <= by_level[1.0].mae_m
    check(
        6,
        ok,
        "group penalty improves with signal strength",
        f"MAE at delta=2.5 {by_level[2.5].mae_m:.2f} <= at delta=1.0 {by_level[1.0].mae_m:.2f}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_7_group_beats_variable_on_ari(table1):
    group_records, variable_records = table1[1]["group"], table1[1]["variable"]
    med_group = float(np.median([r.ari for r in group_records]))
    med_variable = float(np.median([r.ari for r in variable_records]))
    check(
        7,
        med_group >= med_variable,
        "median ARI of the group penalty is at least the variable penalty's",
        f"median ARI group={med_group:.3f} vs variable={med_variable:.3f} on shared datasets",
    )


def test_criterion_8_fpca_recovery():
    t0 = time.time()
    basis = build_basis(0, 30, 12, 3)
    grid = np.linspace(0, 30, 31)
    rng = np.random.default_rng(88)
    gram = gram_matrix(basis)
    u = rng.standard_normal(12)
    u /= np.sqrt(u @ gram @ u)
    mu = rng.standard_normal(12)
    c = rng.normal(0, 2.0, size=120)
    c -= c.mean()
    curves = (mu + np.outer(c, u)) @ design_matrix(basis, grid).T
    curves += rng.normal(0, 0.02, size=curves.shape)  # mild measurement noise
    data = FunctionalDataSet(times=grid, values=curves[:, None, :], sensor_names=["s00"])

    (model,), _ = fit_fpca(data, basis, q_c=1)
    fine = np.linspace(0, 30, 400)
    dm = design_matrix(basis, fine)
    est_fun = dm @ model.eigen_coeffs[:, 0]
    true_fun = dm @ u
    cosine = abs(est_fun @ true_fun) / (np.linalg.norm(est_fun) * np.linalg.norm(true_fun))

    scores = transform(model, curves)[:, 0]
    corr = abs(np.corrcoef(scores, c)[0, 1])

    recon = np.vstack([reconstruct(model, s) for s in scores[:, None]])
    ss_res = ((curves - recon) ** 2).sum()
    ss_tot = ((curves - curves.mean(axis=0)) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot

    ok = cosine >= 0.999 and corr >= 0.999 and r2 >= 0.99
    check(
        8,
        ok,
        "rank-one structure is recovered by the sensor decomposition",
        f"cosine={cosine:.5f} (>=0.999), score corr={corr:.5f} (>=0.999), "
        f"R2={r2:.4f} (>=0.99), {time.time() - t0:.0f}s",
    )


def test_criterion_9_metric_unit_suite():
    t0 = time.time()
    failures = []

    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    renamed = np.array([7, 7, 4, 4, 9, 9, 7, 4])
    if ari(labels, renamed) != 1.0:
        failures.append("ARI relabeling invariance")

    rng = np.random.default_rng(99)
    B = CoefficientMatrix.from_scores(rng.standard_normal((60, 4)), 2)
    params = initialize(B, 3, seed=9)
    tau, pi = e_step(B, params)
    if np.abs(tau.sum(axis=1) - 1.0).max() > 1e-10:
        failures.append("responsibility rows not stochastic")
    if abs(pi.sum() - 1.0) > 1e-10:
        failures.append("proportions do not sum to 1")

    fit = run_em(B, 3, PenaltySpec("none"), seed=9)
    perm = [2, 0, 1]
    permuted = MixtureParams(
        proportions=fit.params.proportions[perm],
        means=fit.params.means[perm],
        variances=fit.params.variances,
    )
    value = penalized_nll(B, permuted, PenaltySpec("none"))
    relabeled = replace(
        fit,
        params=permuted,
        responsibilities=fit.responsibilities[:, perm],
        penalized_nll=value,
        plain_nll=value,
        n_zero_means=int(permuted.zero_mask.sum()),
    )
    if abs(adjusted_bic(fit, B.n, B.q) - adjusted_bic(relabeled, B.n, B.q)) > 1e-8:
        failures.append("BIC not relabeling invariant")

    # effective-dimension arithmetic
    fit1 = run_em(B, 1, PenaltySpec("none"), seed=1)
    d_e = 1 + 4 + 1 * 4 - 0 - 1
    if d_e != 8:
        failures.append("d_e arithmetic (m=1, q=4)")
    expected = 2 * fit1.plain_nll + math.log(B.n * B.q) * 8
    if abs(adjusted_bic(fit1, B.n, B.q) - expected) > 1e-10:
        failures.append("BIC formula at m=1")
    means = fit.params.means.copy()
    means[0, :3] = 0.0
    zeroed = replace(
        fit,
        params=MixtureParams(fit.params.proportions, means, fit.params.variances),
        n_zero_means=3,
        removed_sensors=set(),
        stop_reason="converged",
    )
    drop = adjusted_bic(fit, B.n, B.q) - adjusted_bic(zeroed, B.n, B.q)
    if abs(drop - 3 * math.log(B.n * B.q)) > 1e-8:
        failures.append("BIC drop per zeroed mean")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    check(
        9,
        ok,
        "metric unit suite is exact",
        f"failures={failures or 'none'}, {elapsed:.1f}s (<10s)",
    )
