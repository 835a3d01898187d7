"""The benchmark's output checks pass on real outputs and fail on corrupted ones.

Run from the repository root: python3 -m pytest -q bench/test_checks.py

Each corruption is one a broken program could plausibly produce: swapped
responsibility columns, a score column shifted by a constant, a BIC off by
one log(nq), an edited aggregate row, and so on. Real outputs come from the
program's CLI on the benchmark's own inputs, with small grids so the module
runs in a few seconds.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from mfclust.cli import main as cli_main  # noqa: E402

SMALL_GRID = ["--m-grid", "1,2,3,4", "--lambda-multipliers", "0,1,5", "--gamma-grid", "1"]


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(argv)) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    data = gen.reference_dataset(3)
    gen.write_long_csv(data, d / "ref.csv")
    cli("transform", "--input", str(d / "ref.csv"), "--scores", str(d / "scores.csv"),
        "--model", str(d / "fpca.json"), "--qc", "3")
    cli("transform", "--input", str(d / "ref.csv"), "--scores", str(d / "rule_scores.csv"),
        "--model", str(d / "rule_fpca.json"))
    cli("fit", "--scores", str(d / "scores.csv"), "--penalty", "group", "--jobs", "1", *SMALL_GRID,
        "--report", str(d / "group.json"), "--assignments", str(d / "assign.csv"),
        "--removed", str(d / "removed.txt"))
    cli("benchmark", "--scenario", "sample-size", "--levels", "50", "--kinds", "group,none",
        "--reps", "3", "--jobs", "1", *SMALL_GRID, "--output", str(d / "rows.csv"),
        "--replicates", str(d / "reps.csv"))
    return d, data


@pytest.fixture
def files(outputs, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    src, data = outputs
    for name in os.listdir(src):
        shutil.copy(src / name, tmp_path / name)
    return tmp_path, data


def fit_problems(d, data):
    return checks.check_fit(d / "scores.csv", d / "group.json", d / "assign.csv", d / "removed.txt",
                            "group", truth=data)


def sweep_problems(d):
    return checks.check_sweep(d / "rows.csv", d / "reps.csv", ("group", "none"), 3)[0]


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_csv(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def rewrite_aggregates(d):
    """Recompute the aggregate rows from the (edited) records, so only the
    check under test can notice the edit."""
    records = checks.read_dict_rows(d / "reps.csv")
    rows = checks.read_dict_rows(d / "rows.csv")
    for row in rows:
        cell = [r for r in records if r["kind"] == row["kind"]]
        row["ari_q1"], row["ari_median"], row["ari_q3"] = map(
            repr, checks.quartiles([float(r["ari"]) for r in cell]))
    with open(d / "rows.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# real outputs pass


def test_real_outputs_pass(files):
    d, data = files
    assert fit_problems(d, data) == []
    assert checks.check_transform(d / "scores.csv", d / "fpca.json", data,
                                  fractions=checks.variance_explained(data), qc=3) == []
    assert checks.check_transform(d / "rule_scores.csv", d / "rule_fpca.json", data,
                                  fractions=checks.variance_explained(data)) == []
    assert sweep_problems(d) == []


def test_own_bspline_matches_independent_identities():
    t = np.linspace(0, 30, 301)
    B = gen.bspline_design(t)
    assert np.allclose(B.sum(axis=1), 1.0)  # partition of unity
    assert np.all(B >= 0)
    nodes, weights = checks.gauss_rule(0.0, 30.0, gen.N_BASIS, gen.ORDER)
    assert math.isclose(weights.sum(), 30.0)
    # every basis function integrates to (knot span of its support) / order
    k = gen.knots()
    want = (k[gen.ORDER:] - k[:-gen.ORDER]) / gen.ORDER
    assert np.allclose((gen.bspline_design(nodes) * weights[:, None]).sum(axis=0), want)


# ---------------------------------------------------------------------------
# fit outputs


def test_swapped_responsibility_columns_fail(files):
    d, data = files
    edit_csv(d / "assign.csv", lambda rows: [r.__setitem__(slice(2, 4), [r[3], r[2]]) for r in rows[1:]])
    assert any("responsibilities" in p for p in fit_problems(d, data))


def test_label_not_argmax_fails(files):
    d, data = files
    edit_csv(d / "assign.csv", lambda rows: rows[1].__setitem__(1, str((int(rows[1][1]) + 1) % 3)))
    assert any("argmax" in p for p in fit_problems(d, data))


def test_bic_off_by_one_log_nq_fails(files):
    d, data = files
    _, _, X = checks.read_scores(d / "scores.csv")
    step = math.log(X.size)
    edit_json(d / "group.json", lambda doc: doc["selection_table"][4].__setitem__(
        "bic", doc["selection_table"][4]["bic"] + step))
    assert any("bic" in p for p in fit_problems(d, data))


def test_chosen_row_not_minimum_fails(files):
    d, data = files

    def change(doc):
        other = next(r for r in doc["selection_table"] if r["converged"] and r["m"] != doc["chosen"]["m"])
        doc["chosen"].update(m=other["m"], lam=other["lam"], gamma=other["gamma"])

    edit_json(d / "group.json", change)
    assert any("minimum-BIC" in p for p in fit_problems(d, data))


def test_mixture_not_matching_likelihood_fails(files):
    d, data = files
    edit_json(d / "group.json", lambda doc: doc["mixture"]["variances"].__setitem__(
        0, doc["mixture"]["variances"][0] * 1.01))
    assert any("nll" in p for p in fit_problems(d, data))


def test_score_column_shift_fails_both_checks(files):
    d, data = files
    edit_csv(d / "scores.csv", lambda rows: [r.__setitem__(1, repr(float(r[1]) + 0.25)) for r in rows[1:]])
    assert any("mean" in p for p in checks.check_transform(d / "scores.csv", d / "fpca.json", data, qc=3))
    assert any("nll" in p for p in fit_problems(d, data))


def test_removed_list_not_matching_zero_blocks_fails(files):
    d, data = files
    with open(d / "removed.txt") as fh:
        kept = fh.readlines()[1:]
    with open(d / "removed.txt", "w") as fh:
        fh.writelines(kept)
    assert any("removed sensors" in p for p in fit_problems(d, data))


def test_group_recovery_checks_fail_on_wrong_truth(files):
    d, data = files
    shuffled = dict(data, labels=np.random.default_rng(0).permutation(data["labels"]))
    assert any("ARI" in p for p in fit_problems(d, shuffled))
    renamed = dict(data, signal=["noi01"])
    assert any("signal sensors" in p for p in fit_problems(d, renamed))


def test_rising_and_missing_rows_count_as_failed(files):
    d, _ = files
    doc = checks.read_json(d / "group.json")
    assert checks.failed_rows(doc, "group") == checks.expected_rows("group") - len(doc["selection_table"])
    doc["selection_table"][0]["max_rise"] = 2 * checks.RISE_TOL
    del doc["selection_table"][1]
    assert checks.failed_rows(doc, "group") == checks.expected_rows("group") - len(doc["selection_table"]) + 1


# ---------------------------------------------------------------------------
# transform outputs


def test_eigenvalue_edit_fails(files):
    d, data = files
    edit_json(d / "fpca.json", lambda doc: doc["fpca"]["sensors"][2]["eigenvalues"].__setitem__(
        1, doc["fpca"]["sensors"][2]["eigenvalues"][1] * 1.001))
    assert any("covariance" in p for p in checks.check_transform(d / "scores.csv", d / "fpca.json", data, qc=3))


def test_non_orthonormal_eigenfunction_fails(files):
    d, data = files

    def change(doc):
        coeffs = doc["fpca"]["sensors"][0]["eigen_coeffs"]
        for row in coeffs:
            row[0] *= 1.001

    edit_json(d / "fpca.json", change)
    assert any("orthonormal" in p for p in checks.check_transform(d / "scores.csv", d / "fpca.json", data, qc=3))


def test_standardization_edit_fails(files):
    d, data = files
    edit_json(d / "fpca.json", lambda doc: doc["fpca"]["sensors"][5]["standardization"].__setitem__(
        1, doc["fpca"]["sensors"][5]["standardization"][1] * (1 + 1e-6)))
    assert any("standardization" in p for p in checks.check_transform(d / "scores.csv", d / "fpca.json", data, qc=3))


def test_component_count_off_the_rule_fails(files):
    d, data = files
    fractions = checks.variance_explained(data)
    rule = checks.component_rule(fractions)
    assert checks.check_transform(d / "rule_scores.csv", d / "rule_fpca.json", data, fractions=fractions) == []
    # a pinned count that differs from the rule's choice does not pass as the rule's output
    pinned = 3 if rule != 3 else 2
    cli("transform", "--input", str(d / "ref.csv"), "--scores", str(d / "p_scores.csv"),
        "--model", str(d / "p_fpca.json"), "--qc", str(pinned))
    assert any("rule" in p for p in checks.check_transform(d / "p_scores.csv", d / "p_fpca.json", data,
                                                           fractions=fractions))


def test_component_rule_takes_the_smallest_count():
    fractions = np.array([[0.5, 0.85, 0.9], [0.81, 0.9, 0.95], [0.7, 0.79, 0.99]])
    assert checks.component_rule(fractions, alpha=0.6, beta=0.8) == 2
    assert checks.component_rule(fractions, alpha=1.0, beta=0.8) == 3


# ---------------------------------------------------------------------------
# sweep outputs


def test_edited_aggregate_row_fails(files):
    d, _ = files
    edit_csv(d / "rows.csv", lambda rows: rows[1].__setitem__(
        rows[0].index("mae_m"), repr(float(rows[1][rows[0].index("mae_m")]) + 1 / 3)))
    assert any("mae_m" in p for p in sweep_problems(d))


def test_dropped_replicate_fails(files):
    d, _ = files
    edit_csv(d / "reps.csv", lambda rows: rows.pop(1))
    assert any("n_failed" in p for p in sweep_problems(d))


def test_out_of_range_record_fails(files):
    d, _ = files
    edit_csv(d / "reps.csv", lambda rows: rows[1].__setitem__(rows[0].index("removed_correctly"), "17"))
    assert any("out of range" in p for p in sweep_problems(d))


def test_group_below_baseline_fails(files):
    d, _ = files

    def change(rows):
        kind, ari = rows[0].index("kind"), rows[0].index("ari")
        for r in rows[1:]:
            r[ari] = "-0.5" if r[kind] == "group" else "0.9"

    edit_csv(d / "reps.csv", change)
    rewrite_aggregates(d)
    problems = sweep_problems(d)
    assert problems and all("baseline" in p for p in problems)


def test_quartiles_match_linear_interpolation():
    values = [0.3, -0.1, 0.8, 0.5, 0.2]
    assert np.allclose(checks.quartiles(values), np.percentile(values, [25, 50, 75]))
