import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mfclust
from mfclust import cli
from mfclust.cli import main
from mfclust.dataio import read_long_csv, read_model, read_scores_csv, write_long_csv
from mfclust.simbench import ReplicateRecord, SimulationDesign, generate_dataset


def run_cli(*args):
    return main([str(a) for a in args])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_small(tmp_path, n=40, p_noise=3, seed=1, delta=1.5, p_signal=2):
    tmp_path.mkdir(exist_ok=True)
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    code = run_cli(
        "simulate", "--n", n, "--p-signal", p_signal, "--p-noise", p_noise, "--delta", delta,
        "--seed", seed, "--output", data, "--truth", truth,
    )
    assert code == 0
    return data, truth


def test_simulate_writes_dataset_and_truth(tmp_path, capsys):
    data, truth = simulate_small(tmp_path, n=30, p_noise=4, delta=2.5)
    doc = json.loads(truth.read_text())
    assert doc["design"]["delta"] == 2.5
    assert doc["design"]["n"] == 30
    assert len(doc["labels"]) == 30
    with open(data) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["obs_id", "sensor_id", "time", "value"]
    assert len(rows) == 1 + 30 * 6 * 31  # 2 signal + 4 noise sensors


def test_simulate_deterministic(tmp_path):
    a, ta = simulate_small(tmp_path / "a", seed=9)
    b, tb = simulate_small(tmp_path / "b", seed=9)
    assert digest(a) == digest(b)
    assert json.loads(ta.read_text())["labels"] == json.loads(tb.read_text())["labels"]


def test_simulate_output_reads_back_as_generated_dataset(tmp_path):
    # the truth file's design block is the whole design: it redraws the dataset exactly
    data, truth = simulate_small(tmp_path, n=30, p_signal=3, p_noise=2, seed=5, delta=2.0)
    doc = json.loads(truth.read_text())
    design = SimulationDesign(**{f.name: doc["design"][f.name] for f in dataclasses.fields(SimulationDesign)})
    assert design == SimulationDesign(n=30, p_signal=3, p_noise=2, delta=2.0, seed=5)
    back = read_long_csv(data)
    want = generate_dataset(design)
    npt.assert_array_equal(back.values, want.values)
    npt.assert_array_equal(back.times, want.times)
    assert back.sensor_names == want.sensor_names
    assert back.obs_ids == [str(i) for i in range(30)]
    assert doc["labels"] == want.labels.tolist()


@pytest.fixture()
def small_run(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    data, truth = simulate_small(tmp_path, n=40, p_noise=3, seed=2)
    return tmp_path, data, truth


def test_transform_writes_scores_and_model(small_run, capsys):
    tmp_path, data, _ = small_run
    scores = tmp_path / "scores.csv"
    model = tmp_path / "model.json"
    code = run_cli("transform", "--input", data, "--scores", scores, "--model", model, "--qc", 2)
    assert code == 0
    out = capsys.readouterr().out
    assert "components=2" in out and "sig01" in out
    B, obs_ids = read_scores_csv(scores)
    assert B.q_c == 2 and B.p == 5 and len(obs_ids) == 40
    bundle = read_model(model)
    assert len(bundle.fpca_models) == 5 and {m.q_c for m in bundle.fpca_models} == {2}
    assert bundle.mixture is None


def test_transform_qc_one_gives_one_column_per_sensor(small_run):
    tmp_path, data, _ = small_run
    scores = tmp_path / "s1.csv"
    code = run_cli("transform", "--input", data, "--scores", scores,
                   "--model", tmp_path / "m1.json", "--qc", 1)
    assert code == 0
    B, _ = read_scores_csv(scores)
    assert B.q == B.p


def test_transform_deterministic(small_run):
    tmp_path, data, _ = small_run
    for sub in ("a", "b"):
        code = run_cli("transform", "--input", data, "--scores", tmp_path / sub / "s.csv",
                       "--model", tmp_path / sub / "m.json", "--qc", 2)
        assert code == 0
    assert digest(tmp_path / "a/s.csv") == digest(tmp_path / "b/s.csv")
    assert digest(tmp_path / "a/m.json") == digest(tmp_path / "b/m.json")


def test_transform_rejects_qc_with_rule(small_run):
    tmp_path, data, _ = small_run
    code = run_cli("transform", "--input", data, "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json", "--qc", 2, "--alpha", 0.9)
    assert code == 1


def fit_args(tmp_path, data, extra):
    return [
        "fit", "--input", data, "--report", tmp_path / "report.json",
        "--assignments", tmp_path / "assign.csv", "--removed", tmp_path / "removed.txt",
        "--qc", 2, "--seed", 3, "--jobs", 1, *extra,
    ]


def test_fit_group_penalty_end_to_end(small_run):
    tmp_path, data, truth = small_run
    code = run_cli(*fit_args(tmp_path, data, [
        "--penalty", "group", "--m-grid", "2,3,4", "--gamma-grid", "1.0",
        "--lambda-multipliers", "0,1,3",
    ]))
    assert code == 0
    bundle = read_model(tmp_path / "report.json")
    assert bundle.chosen is not None and bundle.chosen[3] == "group"
    removed = (tmp_path / "removed.txt").read_text().split()
    assert set(removed) <= {"sig01", "sig02", "noi01", "noi02", "noi03"}
    with open(tmp_path / "assign.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    resps = np.array([[float(r[f"resp_{k + 1}"]) for k in range(bundle.mixture.m)] for r in rows])
    np.testing.assert_allclose(resps.sum(axis=1), 1.0, atol=1e-8)


def test_fit_none_penalty_removes_nothing(small_run):
    tmp_path, data, _ = small_run
    code = run_cli(*fit_args(tmp_path, data, [
        "--penalty", "none", "--m-grid", "3",
    ]))
    assert code == 0
    assert (tmp_path / "removed.txt").read_text() == ""
    bundle = read_model(tmp_path / "report.json")
    assert [r.m for r in bundle.selection_rows] == [3]
    assert bundle.mixture.zero_mask.sum() == 0


def test_fit_m_grid_restricts_rows(small_run):
    tmp_path, data, _ = small_run
    code = run_cli(*fit_args(tmp_path, data, [
        "--penalty", "individual", "--m-grid", "3", "--gamma-grid", "1.0",
        "--lambda-multipliers", "0,2",
    ]))
    assert code == 0
    bundle = read_model(tmp_path / "report.json")
    assert {r.m for r in bundle.selection_rows} == {3}


def test_fit_requires_exactly_one_input(small_run):
    tmp_path, data, _ = small_run
    assert run_cli("fit", "--report", tmp_path / "r.json",
                   "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt") == 1
    assert run_cli("fit", "--input", data, "--scores", data, "--report", tmp_path / "r.json",
                   "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt") == 1


def test_fit_from_scores_file(small_run):
    tmp_path, data, _ = small_run
    scores = tmp_path / "scores.csv"
    assert run_cli("transform", "--input", data, "--scores", scores,
                   "--model", tmp_path / "m.json", "--qc", 2) == 0
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "group", "--m-grid", "3", "--gamma-grid", "1.0",
        "--lambda-multipliers", "0,1", "--jobs", 1, "--seed", 3,
    )
    assert code == 0
    bundle = read_model(tmp_path / "r.json")
    assert bundle.fpca_models is None and bundle.mixture is not None


def test_exit_codes_for_bad_inputs(tmp_path):
    # missing file -> data error
    assert run_cli("transform", "--input", tmp_path / "nope.csv",
                   "--scores", tmp_path / "s.csv", "--model", tmp_path / "m.json") == 2
    # malformed csv -> data error
    bad = tmp_path / "bad.csv"
    bad.write_text("obs_id,sensor_id,time,value\na,s1,0,abc\n")
    assert run_cli("transform", "--input", bad, "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json") == 2
    # unknown penalty kind -> usage error
    assert run_cli("fit", "--input", bad, "--report", tmp_path / "r.json",
                   "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
                   "--penalty", "ridge") == 1
    # unknown scenario -> usage error
    assert run_cli("benchmark", "--scenario", "bogus", "--output", tmp_path / "o.csv",
                   "--replicates", tmp_path / "r.csv") == 1


def test_fit_rejects_non_finite_score(tmp_path, capsys):
    rng = np.random.default_rng(4)
    rows = [f"o{i}," + ",".join(repr(float(x)) for x in rng.standard_normal(4)) for i in range(30)]
    rows[5] = "o5,0.1,nan,0.3,0.4"
    scores = tmp_path / "scores.csv"
    scores.write_text("obs_id,s1_pc1,s1_pc2,s2_pc1,s2_pc2\n" + "\n".join(rows) + "\n")
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", "2", "--jobs", 1,
    )
    assert code == 2
    assert "line 7: non-finite score" in capsys.readouterr().err


def test_fit_rejects_a_repeated_obs_id(tmp_path, capsys):
    rng = np.random.default_rng(4)
    rows = [f"o{i}," + ",".join(repr(float(x)) for x in rng.standard_normal(4)) for i in range(30)]
    rows[9] = "o4" + rows[9][2:]
    scores = tmp_path / "scores.csv"
    scores.write_text("obs_id,s1_pc1,s1_pc2,s2_pc1,s2_pc2\n" + "\n".join(rows) + "\n")
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", "2", "--jobs", 1,
    )
    assert code == 2
    assert capsys.readouterr().err == "data error: duplicate obs_id 'o4'\n"
    assert list(tmp_path.iterdir()) == [scores]


def test_fit_goes_on_past_cluster_counts_above_n(tmp_path):
    rng = np.random.default_rng(5)
    rows = [f"o{i}," + ",".join(repr(float(x)) for x in rng.standard_normal(4)) for i in range(4)]
    scores = tmp_path / "scores.csv"
    scores.write_text("obs_id,s1_pc1,s1_pc2,s2_pc1,s2_pc2\n" + "\n".join(rows) + "\n")
    with pytest.warns(UserWarning, match="floored"):
        code = run_cli(
            "fit", "--scores", scores, "--report", tmp_path / "r.json",
            "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
            "--penalty", "none", "--jobs", 1,
        )
    assert code == 0
    bundle = read_model(tmp_path / "r.json")
    assert sorted({row.m for row in bundle.selection_rows}) == [1, 2, 3, 4]
    assert bundle.chosen[0] <= 4


def test_fit_rejects_ragged_scores(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("obs_id,s1_pc1,s1_pc2\no0,0.1,0.2\no1,0.3\no2,0.5,0.6\n")
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", "2", "--jobs", 1,
    )
    assert code == 2
    assert "line 3: expected 3 fields, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("header,message", [
    ("id,s1_pc1", "scores file must start with an obs_id column"),
    ("obs_id,s1_pc1,s1_x", "bad score column name 's1_x'"),
    ("obs_id,s1_pc1,_pc2", "bad score column name '_pc2'"),
    ("obs_id", "scores file has no score columns"),
    ("obs_id,s1_pc1,s2_pc1,s1_pc2,s2_pc2", "score columns must be sensor-major, component-minor"),
    ("obs_id,s1_pc1,s1_pc3", "score columns must be sensor-major, component-minor"),
], ids=["no-obs-id", "unnamed-component", "empty-sensor", "no-scores", "component-major", "gap"])
def test_fit_refuses_a_bad_score_header(tmp_path, capsys, header, message):
    width = header.count(",") + 1
    rows = [",".join([f"o{i}"] + ["0.5"] * (width - 1)) for i in range(6)]
    scores = tmp_path / "scores.csv"
    scores.write_text(header + "\n" + "\n".join(rows) + "\n")
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", "2", "--jobs", 1,
    )
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert list(tmp_path.iterdir()) == [scores]


def test_transform_rejects_non_finite_time(tmp_path, capsys):
    data, _ = simulate_small(tmp_path)
    lines = data.read_text().splitlines()
    obs, sensor, _, value = lines[3].split(",")
    lines[3] = f"{obs},{sensor},inf,{value}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = run_cli("transform", "--input", bad, "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json")
    assert code == 2
    assert "line 4: non-finite time 'inf'" in capsys.readouterr().err


def test_transform_rejects_curves_on_own_times(tmp_path, capsys):
    data = tmp_path / "own.csv"
    data.write_text(
        "obs_id,sensor_id,time,value\n"
        + "".join(f"o{i},s1,{3 * i + k}.5,1.0\n" for i in range(4) for k in range(3))
    )
    code = run_cli("transform", "--input", data, "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json")
    assert code == 2
    assert "incomplete grid; first missing cells: (o0, s1, 3.5), (o0, s1, 4.5)" in capsys.readouterr().err


def rewrite_sensor(data, path, sensor, new_name, scale=1.0):
    """Copy a long CSV, renaming one sensor and scaling its values."""
    with open(data, newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for obs, name, t, v in rows:
            if name == sensor:
                name, v = new_name, repr(float(v) * scale)
            writer.writerow([obs, name, t, v])


@pytest.mark.parametrize("new_name,scale,message", [
    ("", 1.0, "score columns need non-empty sensor names"),
    ("noi01", 1e305, "sensor 'noi01' has a non-finite mean or spread"),
], ids=["empty-sensor-id", "overflowing-spread"])
def test_transform_rejects_bad_sensor(tmp_path, capsys, new_name, scale, message):
    data, _ = simulate_small(tmp_path)
    bad = tmp_path / "bad.csv"
    rewrite_sensor(data, bad, "noi01", new_name, scale)
    code = run_cli("transform", "--input", bad, "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json", "--qc", 2)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.json").exists()


REPEATED_OUTPUTS = {
    "transform": lambda d, o: ["transform", "--input", d, "--scores", o / "x", "--model", o / "x"],
    "fit": lambda d, o: ["fit", "--input", d, "--report", o / "x", "--assignments", o / "x",
                         "--removed", o / "r.txt", "--penalty", "none", "--m-grid", 2, "--qc", 2,
                         "--jobs", 1],
    "fit-cluster-means": lambda d, o: ["fit", "--input", d, "--report", o / "r.json",
                                       "--assignments", o / "a.csv", "--removed", o / "x",
                                       "--cluster-means", o / "a" / ".." / "x", "--penalty", "none",
                                       "--m-grid", 2, "--qc", 2, "--jobs", 1],
    "simulate": lambda d, o: ["simulate", "--n", 20, "--output", o / "x", "--truth", o / "x"],
    "benchmark": lambda d, o: ["benchmark", "--scenario", "sample-size", "--levels", 50, "--reps", 1,
                               "--kinds", "none", "--m-grid", 2, "--output", o / "x",
                               "--replicates", o / "x", "--jobs", 1],
}


@pytest.mark.parametrize("command", sorted(REPEATED_OUTPUTS))
def test_repeated_output_path_exits_1(small_run, capsys, command):
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*REPEATED_OUTPUTS[command](data, tmp_path)) == 1
    assert "name the same file" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


INPUT_AS_OUTPUT = {
    "transform": lambda d, s, o: ["transform", "--input", d, "--scores", d, "--model", o / "m.json"],
    "fit": lambda d, s, o: ["fit", "--scores", s, "--report", s, "--assignments", o / "a.csv",
                            "--removed", o / "r.txt", "--penalty", "none", "--m-grid", 2, "--jobs", 1],
}


@pytest.mark.parametrize("command", sorted(INPUT_AS_OUTPUT))
def test_output_naming_an_input_exits_1(small_run, capsys, command):
    tmp_path, data, _ = small_run
    scores = tmp_path / "s.csv"
    assert run_cli("transform", "--input", data, "--scores", scores, "--model", tmp_path / "m0.json",
                   "--qc", 2) == 0
    capsys.readouterr()
    before = {p: digest(p) for p in tmp_path.rglob("*") if p.is_file()}
    assert run_cli(*INPUT_AS_OUTPUT[command](data, scores, tmp_path)) == 1
    assert "name the same file" in capsys.readouterr().err
    assert {p: digest(p) for p in tmp_path.rglob("*") if p.is_file()} == before


VALID_CALLS = {
    "transform": lambda d, o: ["transform", "--input", d, "--scores", o / "s.csv",
                               "--model", o / "m.json", "--qc", 2],
    "fit": lambda d, o: fit_args(o, d, ["--penalty", "none", "--m-grid", 2]),
    "simulate": lambda d, o: ["simulate", "--n", 20, "--output", o / "d.csv", "--truth", o / "t.json"],
    "benchmark": lambda d, o: ["benchmark", "--scenario", "sample-size", "--levels", 50, "--reps", 1,
                               "--kinds", "none", "--m-grid", 2, "--jobs", 1,
                               "--output", o / "o.csv", "--replicates", o / "r.csv"],
}

# the EM tolerance and iteration cap are constants, and transform and
# simulate take no option they would not read
REMOVED_OPTIONS = [
    ("transform", "--seed", 3), ("transform", "--jobs", 2), ("transform", "--tol", "1e-3"),
    ("transform", "--max-iter", 10), ("simulate", "--jobs", 2), ("simulate", "--tol", "1e-3"),
    ("simulate", "--max-iter", 10), ("fit", "--tol", "1e-3"), ("fit", "--max-iter", 10),
    ("benchmark", "--tol", "1e-3"), ("benchmark", "--max-iter", 10),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_OPTIONS)
def test_removed_option_exits_1(small_run, capsys, command, flag, value):
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*VALID_CALLS[command](data, tmp_path), flag, value) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command,value", [("fit", 0), ("fit", -2), ("benchmark", -1)])
def test_jobs_below_one_exits_1_before_any_work(small_run, capsys, command, value):
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*VALID_CALLS[command](data, tmp_path), "--jobs", value) == 1
    assert "argument --jobs: expected a positive integer" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def typed_options() -> list[tuple[str, str]]:
    """(command, flag) of every command option that has a type or choices."""
    (commands,) = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, command in commands.items() for action in command._actions
        if action.option_strings and (action.type is not None or action.choices is not None)
    ]


@pytest.mark.parametrize("value", ["x,y", "\u00b2"], ids=["comma", "superscript-two"])
@pytest.mark.parametrize("command,flag", typed_options())
def test_a_bad_option_value_is_reported_under_its_flag(tmp_path, command, flag, value):
    # "\u00b2" passes str.isdigit() but not int(); argparse must name the
    # flag, never the private function that read it
    argv = [str(a) for a in VALID_CALLS[command](tmp_path / "d.csv", tmp_path)]
    with pytest.raises(cli.UsageError) as exc:
        cli.build_parser().parse_args([*argv, flag, value])
    assert str(exc.value).startswith(f"argument {flag}: ")
    assert "invalid _" not in str(exc.value)


def test_the_option_guard_walks_every_list_option():
    assert {
        ("fit", "--m-grid"), ("fit", "--gamma-grid"), ("fit", "--lambda-multipliers"), ("fit", "--penalty"),
        ("benchmark", "--kinds"), ("benchmark", "--levels"), ("fit", "--jobs"), ("simulate", "--seed"),
    } <= set(typed_options())


@pytest.mark.parametrize("command,flags,config", [
    ("simulate", ["--seed", -1], None),
    ("benchmark", ["--seed", -1], None),
    ("benchmark", [], {"seed": -2}),
    ("simulate", [], {"seed": -2}),
    # seed + m is nonnegative for every m of the grid in the last two
    ("fit", ["--seed", -5, "--m-grid", "1,2"], None),
    ("fit", ["--seed", -1], None),
    ("fit", ["--seed", -5, "--m-grid", "5,6"], None),
], ids=["simulate", "benchmark", "benchmark-config", "simulate-config", "fit", "fit-seed-1", "fit-m-grid-5,6"])
def test_negative_seed_exits_1_before_the_input_is_read(tmp_path, capsys, command, flags, config):
    # the input does not exist: reading it would exit 2
    args = [*VALID_CALLS[command](tmp_path / "missing.csv", tmp_path), *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = ["--config", tmp_path / "cfg.json", *args]
    assert run_cli(*args) == 1
    value = flags[1] if flags else config["seed"]
    assert capsys.readouterr().err == (
        f"usage error: argument --seed: expected a nonnegative integer, got '{value}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["cfg.json"])


@pytest.mark.parametrize("command", ["transform", "fit"])
@pytest.mark.parametrize("flag,value", [("--order", 0), ("--n-basis", 2)])
def test_bad_basis_size_exits_1_before_the_input_is_read(tmp_path, capsys, command, flag, value):
    # the input does not exist: reading it would exit 2
    assert run_cli(*VALID_CALLS[command](tmp_path / "missing.csv", tmp_path), flag, value) == 1
    assert "bad basis: need n_basis >= order >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def without_qc(call):
    i = call.index("--qc")
    return call[:i] + call[i + 2:]


@pytest.mark.parametrize("command", ["transform", "fit"])
@pytest.mark.parametrize("flags,message", [
    (["--qc", 0], "q_c must be in [1, n_basis] = [1, 12], got 0"),
    (["--qc", 13], "q_c must be in [1, n_basis] = [1, 12], got 13"),
    (["--qc", 6, "--n-basis", 5], "q_c must be in [1, n_basis] = [1, 5], got 6"),
    (["--alpha", 1.5], "need 0 < alpha <= 1 and 0 < beta < 1"),
    (["--alpha", 0], "need 0 < alpha <= 1 and 0 < beta < 1"),
    (["--beta", 0], "need 0 < alpha <= 1 and 0 < beta < 1"),
    (["--beta", 1], "need 0 < alpha <= 1 and 0 < beta < 1"),
], ids=["qc0", "qc13", "qc6-n-basis5", "alpha1.5", "alpha0", "beta0", "beta1"])
def test_bad_component_count_exits_1_before_the_input_is_read(tmp_path, capsys, command, flags, message):
    # the input does not exist: reading it would exit 2
    call = without_qc(VALID_CALLS[command](tmp_path / "missing.csv", tmp_path))
    assert run_cli(*call, *flags) == 1
    assert f"bad component count: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_q_c_above_n_minus_1_is_a_data_error(small_run, capsys):
    # n = 40 curves allow at most 39 components, which only the data tell
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*VALID_CALLS["transform"](data, tmp_path), "--n-basis", 45, "--qc", 40) == 2
    assert "q_c must be in [1, min(n-1, n_basis)] = [1, 39], got 40" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["transform", "fit"])
def test_component_rule_on_one_curve_is_a_data_error(tmp_path, capsys, command):
    # without --qc the rule chooses the count, and one curve gives it nothing to choose from
    data, _ = simulate_small(tmp_path, n=1)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*without_qc(VALID_CALLS[command](data, tmp_path))) == 2
    assert "data error: the component rule needs at least 2 curves, got n=1\n" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


FROM_SCORES_REFUSED = "--n-basis, --order, --qc, --alpha and --beta need raw curves (--input)"


@pytest.mark.parametrize("flag,value", [
    ("--qc", 7), ("--alpha", 0.3), ("--beta", 0.9), ("--n-basis", 12), ("--order", 3),
])
def test_fit_from_scores_refuses_transform_options(small_run, capsys, flag, value):
    tmp_path, data, _ = small_run
    scores = tmp_path / "scores.csv"
    assert run_cli("transform", "--input", data, "--scores", scores,
                   "--model", tmp_path / "m.json", "--qc", 2) == 0
    before = sorted(tmp_path.rglob("*"))
    code = run_cli(
        "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", 2, "--jobs", 1, flag, value,
    )
    assert code == 1
    assert FROM_SCORES_REFUSED in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_fit_from_scores_refuses_a_basis_config_key(small_run, capsys):
    tmp_path, data, _ = small_run
    scores = tmp_path / "scores.csv"
    assert run_cli("transform", "--input", data, "--scores", scores,
                   "--model", tmp_path / "m.json", "--qc", 2) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_basis": 12}))
    before = sorted(tmp_path.rglob("*"))
    code = run_cli(
        "--config", cfg, "fit", "--scores", scores, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--penalty", "none", "--m-grid", 2, "--jobs", 1,
    )
    assert code == 1
    assert FROM_SCORES_REFUSED in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def run_cli_process(*args, env=None):
    """The CLI in a child process, as a shell runs it, with env added to
    the environment (a None value unsets its variable): (exit code,
    stdout, stderr), read as UTF-8 whatever the locale."""
    env = {**os.environ, "PYTHONPATH": str(Path(mfclust.__file__).parents[1]),
           # a numpy RuntimeWarning fails the child, as it fails an in-process call under pytest
           "PYTHONWARNINGS": "error::RuntimeWarning", **(env or {})}
    done = subprocess.run([sys.executable, "-m", "mfclust.cli", *map(str, args)], capture_output=True,
                          encoding="utf-8", env={k: v for k, v in env.items() if v is not None})
    return done.returncode, done.stdout, done.stderr


def test_an_overflowing_adaptive_weight_fits_without_a_warning(tmp_path):
    # at gamma = 400 some weights 1/|ref|^gamma pass the float range: they
    # are infinite and pin their means, and nothing is printed to stderr
    assert run_cli("simulate", "--n", 30, "--seed", 2, "--output", tmp_path / "d.csv",
                   "--truth", tmp_path / "t.json") == 0
    assert run_cli(*VALID_CALLS["transform"](tmp_path / "d.csv", tmp_path)) == 0
    code, _, err = run_cli_process(
        "fit", "--scores", tmp_path / "s.csv", "--m-grid", "1,2,3", "--gamma-grid", 400,
        "--lambda-multipliers", "0,1", "--penalty", "individual,variable,group", "--jobs", 1,
        "--report", tmp_path / "r.json", "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "rm.txt",
    )
    assert (code, err) == (0, "")


# a locale whose encoding is ASCII: no C-locale coercion, no UTF-8 mode and no PYTHONIOENCODING
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": None}


def test_non_ascii_sensor_names_read_and_write_alike_in_an_ascii_locale(tmp_path, capsys):
    # the files are UTF-8 whatever the locale; only the printed table goes through the terminal's encoding
    data = generate_dataset(SimulationDesign(n=20, p_signal=1, p_noise=1, seed=3))
    data = dataclasses.replace(data, sensor_names=["température", "pression"])
    write_long_csv(data, tmp_path / "data.csv")
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    assert run_cli(*VALID_CALLS["transform"](tmp_path / "data.csv", tmp_path / "a")) == 0
    code, _, err = run_cli_process(*VALID_CALLS["transform"](tmp_path / "data.csv", tmp_path / "b"),
                                   env=ASCII_LOCALE)
    assert (code, err) == (0, "")
    for name in ("s.csv", "m.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
    assert "température_pc1" in (tmp_path / "b" / "s.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["transform", "fit"])
def test_a_sensor_name_stdout_cannot_encode_prints_escaped(tmp_path, capsys, command):
    # an ASCII terminal gets the name backslash-escaped and the command exits 0, with the same files
    data = generate_dataset(SimulationDesign(n=12, p_signal=1, p_noise=1, seed=3))
    write_long_csv(dataclasses.replace(data, sensor_names=["pression", "température"]), tmp_path / "data.csv")
    calls = {
        "transform": VALID_CALLS["transform"](tmp_path / "data.csv", tmp_path),
        "fit": ["fit", "--scores", tmp_path / "s.csv", "--report", tmp_path / "r.json", "--assignments",
                tmp_path / "a.csv", "--removed", tmp_path / "removed.txt", "--penalty", "group", "--jobs", 1],
    }
    assert run_cli(*calls["transform"]) == 0  # the scores fit reads
    capsys.readouterr()
    assert run_cli(*calls[command]) == 0
    utf8_out = capsys.readouterr().out
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, out, err = run_cli_process(*calls[command], env=ASCII_LOCALE)
    assert "température" in utf8_out and "temp\\xe9rature" in out
    assert (code, out, err) == (0, utf8_out.replace("température", "temp\\xe9rature"), "")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written


def with_long_field(path, lines, lineno, field):
    """Write lines with the given field of line lineno (counting from 1)
    replaced by one longer than csv accepts."""
    cells = lines[lineno - 1].split(",")
    cells[field] = "x" * 140_000
    lines = [*lines[:lineno - 1], ",".join(cells), *lines[lineno:]]
    path.write_text("\n".join(lines) + "\n")


def unusable_path_call(case, tmp_path, data):
    """The CLI call of one unusable-path case, writing into tmp_path/out,
    and the error it must report."""
    adir, out, bad = tmp_path / "adir", tmp_path / "out", tmp_path / "bad.csv"
    adir.mkdir()
    out.mkdir()
    too_long = f"field larger than field limit ({csv.field_size_limit()})"

    def transform(path):
        return ["transform", "--input", path, "--scores", out / "s.csv", "--model", out / "m.json"]

    def fit(removed=out / "x.txt"):
        return ["fit", "--report", out / "r.json", "--assignments", out / "a.csv",
                "--removed", removed, "--penalty", "none", "--m-grid", 2, "--jobs", 1]

    if case == "long-csv":
        with_long_field(bad, data.read_text().splitlines(), 5, 0)
        return transform(bad), f"line 5: {too_long}"
    if case.startswith("scores"):
        assert run_cli(*transform(data), "--qc", 2) == 0
        lineno, field = (5, 0) if case == "scores-body" else (1, 3)
        with_long_field(bad, (out / "s.csv").read_text().splitlines(), lineno, field)
        for path in out.iterdir():
            path.unlink()
        return [*fit(), "--scores", bad], f"line {lineno}: {too_long}"
    if case == "input-dir":
        return transform(adir), "Is a directory"
    missing = out / "nodir" / "x.csv"
    if case == "fit-missing-dir":
        return [*fit(removed=missing), "--input", data, "--qc", 2], f"No such file or directory: '{missing}'"
    if case == "benchmark-missing-dir":
        return ["benchmark", "--scenario", "sample-size", "--levels", 50, "--reps", 1, "--kinds", "none",
                "--m-grid", 2, "--jobs", 1, "--output", missing, "--replicates", out / "reps.csv"], (
            f"No such file or directory: '{missing}'")
    # fit's third output is a directory: nothing may be written before it
    return [*fit(removed=adir), "--input", data, "--qc", 2], "Is a directory"


@pytest.mark.parametrize("case", ["long-csv", "scores-body", "scores-header", "input-dir", "output-dir",
                                  "fit-missing-dir", "benchmark-missing-dir"])
def test_an_unusable_path_exits_2_without_a_traceback(small_run, case):
    tmp_path, data, _ = small_run
    call, message = unusable_path_call(case, tmp_path, data)
    code, _, err = run_cli_process(*call)
    assert code == 2
    assert err.startswith("data error: ") and message in err and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


BAD_GRIDS = [
    ("fit", "--lambda-multipliers", "0,nan"),
    ("fit", "--lambda-multipliers", "0,inf"),
    ("fit", "--lambda-multipliers", "0,-1"),
    ("fit", "--gamma-grid", "nan"),
    ("fit", "--m-grid", "0"),
    ("fit", "--m-grid", "2,2"),
    ("fit", "--gamma-grid", "1,1.0"),
    ("fit", "--lambda-multipliers", "0,1,1"),
    ("benchmark", "--lambda-multipliers", "0,nan"),
    ("benchmark", "--m-grid", "2,3,2"),
    ("benchmark", "--gamma-grid", "0.5,0.50"),
]


@pytest.mark.parametrize("command,flag,value", BAD_GRIDS)
def test_bad_grid_exits_1_before_any_work(small_run, capsys, command, flag, value):
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    if command == "fit":
        args = fit_args(tmp_path, data, ["--penalty", "group", flag, value])
    else:
        args = ["benchmark", "--scenario", "sample-size", "--levels", 50, "--reps", 1,
                "--output", tmp_path / "o.csv", "--replicates", tmp_path / "r.csv", flag, value]
    assert run_cli(*args) == 1
    assert "bad search grid" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("penalty,winner", [
    ("variable,individual", "variable"),
    ("individual,variable", "individual"),
])
def test_fit_tie_across_kinds_goes_to_first_listed(small_run, penalty, winner):
    # at lambda = 0 every kind fits the same unpenalized model, so the BICs tie exactly
    tmp_path, data, _ = small_run
    code = run_cli(*fit_args(tmp_path, data, [
        "--penalty", penalty, "--m-grid", "2,3", "--gamma-grid", "1.0", "--lambda-multipliers", "0",
    ]))
    assert code == 0
    bundle = read_model(tmp_path / "report.json")
    assert bundle.chosen[3] == winner
    best = [r for r in bundle.selection_rows if (r.m, r.lam, r.gamma) == bundle.chosen[:3]]
    assert {r.kind for r in best} == {"variable", "individual"}
    assert len({r.bic for r in best}) == 1


def test_exit_code_numerical_failure(small_run, monkeypatch, capsys):
    tmp_path, data, _ = small_run
    from mfclust import cli as cli_mod
    from mfclust.em import NumericalError

    real, searched = cli_mod.model_search, []

    def search(B, grid, kinds, **kwargs):
        # one search for every listed kind, in which the group search fails
        searched.append(kinds)
        reports = real(B, grid, kinds, **kwargs)
        return [NumericalError("no grid point converged") if kind == "group" else report
                for kind, report in zip(kinds, reports)]

    monkeypatch.setattr(cli_mod, "model_search", search)
    for penalty in ("group", "individual,group"):
        code = run_cli(*fit_args(tmp_path, data, [
            "--penalty", penalty, "--m-grid", "1,2", "--gamma-grid", "1.0", "--lambda-multipliers", "0,1",
        ]))
        assert code == 3
        assert searched.pop() == tuple(penalty.split(",")) and not searched
        assert capsys.readouterr().err == "numerical failure: no grid point converged\n"
        assert not any((tmp_path / name).exists() for name in ("report.json", "assign.csv", "removed.txt"))


def test_benchmark_small_sweep(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    reps = tmp_path / "reps.csv"
    code = run_cli(
        "benchmark", "--scenario", "signal-strength", "--levels", "1.5", "--reps", 1,
        "--kinds", "group,none", "--qc", 2, "--m-grid", "2,3", "--gamma-grid", "1.0",
        "--lambda-multipliers", "0,2", "--seed", 4, "--jobs", 1,
        "--output", out, "--replicates", reps,
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["kind"] for r in rows] == ["group", "none"]
    printed = capsys.readouterr().out
    assert "MAE(m)" in printed and "group" in printed
    with open(reps) as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == 2


def test_benchmark_replicates_bytes_are_pinned(tmp_path, monkeypatch):
    # the sweep is replaced by one hand-made record, so the file form alone is checked
    record = ReplicateRecord(scenario="signal-strength", level=1.5, kind="group", rep=0, seed=7, m_hat=3,
                             ari=1 / 3, variables_removed=2, removed_correctly=2, removed_falsely=0,
                             lam=0.1, gamma=1.0, bic=-12.5, max_rise=-0.0)

    def one_record(*args, on_record, **kwargs):
        on_record(record)
        return [], [record]

    monkeypatch.setattr(cli, "run_scenario", one_record)
    reps = tmp_path / "reps.csv"
    assert run_cli("benchmark", "--scenario", "signal-strength", "--levels", 1.5, "--reps", 1,
                   "--output", tmp_path / "rows.csv", "--replicates", reps) == 0
    assert reps.read_bytes() == (
        b"scenario,level,kind,rep,seed,m_hat,ari,variables_removed,removed_correctly,"
        b"removed_falsely,lam,gamma,bic,max_rise\r\n"
        b"signal-strength,1.5,group,0,7,3,0.3333333333333333,2,2,0,0.1,1.0,-12.5,-0.0\r\n"
    )


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_repeated_penalty_kind_exits_1_before_any_output(small_run, capsys, command):
    tmp_path, data, _ = small_run
    before = sorted(tmp_path.rglob("*"))
    if command == "fit":
        args = fit_args(tmp_path, data, ["--penalty", "none,none", "--m-grid", 2])
    else:
        args = ["benchmark", "--scenario", "sample-size", "--reps", 1, "--levels", 50,
                "--kinds", "none,none", "--m-grid", 2, "--jobs", 1,
                "--output", tmp_path / "o.csv", "--replicates", tmp_path / "r.csv"]
    assert run_cli(*args) == 1
    assert "penalty kinds must not repeat" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["none", "individual", "variable", "group", "individual,variable,group,none"])
def test_fit_outputs_do_not_depend_on_jobs(small_run, kind):
    tmp_path, data, _ = small_run
    digests = []
    for jobs, out in [(1, tmp_path / "a"), (2, tmp_path / "b")]:
        code = run_cli(
            "fit", "--input", data, "--report", out / "report.json", "--assignments", out / "assign.csv",
            "--removed", out / "removed.txt", "--cluster-means", out / "means.csv", "--qc", 2,
            "--seed", 3, "--jobs", jobs, "--penalty", kind, "--m-grid", "1,2,3",
            "--gamma-grid", "0.5,1.0", "--lambda-multipliers", "0,1,3",
        )
        assert code == 0
        digests.append([digest(out / name) for name in ("report.json", "assign.csv", "removed.txt", "means.csv")])
    assert digests[0] == digests[1]


def test_benchmark_outputs_do_not_depend_on_jobs(tmp_path):
    digests = []
    for jobs in (1, 2):
        out, reps = tmp_path / f"rows{jobs}.csv", tmp_path / f"reps{jobs}.csv"
        code = run_cli(
            "benchmark", "--scenario", "sample-size", "--levels", "30,40", "--reps", 2,
            "--kinds", "individual,variable,group,none", "--qc", 2, "--m-grid", "2,3",
            "--gamma-grid", "1.0", "--lambda-multipliers", "0,1,3", "--seed", 4, "--jobs", jobs,
            "--output", out, "--replicates", reps,
        )
        assert code == 0
        digests.append((digest(out), digest(reps)))
    assert digests[0] == digests[1]


def test_fit_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a threaded BLAS splits each lane's GEMM across threads; no output byte may follow the split
    assert run_cli("simulate", "--n", 80, "--seed", 7, "--output", tmp_path / "d.csv",
                   "--truth", tmp_path / "t.json") == 0
    assert run_cli("transform", "--input", tmp_path / "d.csv", "--scores", tmp_path / "s.csv",
                   "--model", tmp_path / "m.json", "--qc", 3) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        code, stdout, err = run_cli_process(
            "fit", "--scores", tmp_path / "s.csv", "--penalty", "individual,variable,group,none",
            "--m-grid", "1,2,3,4", "--jobs", 1, "--report", out / "report.json",
            "--assignments", out / "assign.csv", "--removed", out / "removed.txt",
            env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert (code, err) == (0, "")
        outputs.append([stdout, *(digest(out / name) for name in ("report.json", "assign.csv", "removed.txt"))])
    assert outputs[0] == outputs[1]


BAD_SWEEPS = [
    ("sample-size", "--reps", "0", "reps must be at least 1"),
    ("sample-size", "--levels", "50.5", "whole numbers"),
    ("sample-size", "--levels", "inf", "whole numbers"),
    ("sample-size", "--levels", "0", "n must be at least 1"),
    ("signal-strength", "--levels", "nan", "delta must be positive and finite"),
    ("signal-strength", "--levels", "1.5,inf", "delta must be positive and finite"),
    ("sample-size", "--levels", "50,50.0", "levels must not repeat"),
    ("sample-size", "--qc", "0", "q_c must be in"),
    ("sample-size", "--qc", "13", "q_c must be in"),
    ("noise-ratio", "--levels", "-8", "bad sweep: p_noise must be nonnegative, got -8"),
]


@pytest.mark.parametrize("scenario,flag,value,message", BAD_SWEEPS)
def test_bad_sweep_exits_1_before_any_output(tmp_path, capsys, scenario, flag, value, message):
    code = run_cli(
        "benchmark", "--scenario", scenario, "--levels", 50, "--reps", 1, "--kinds", "none",
        "--m-grid", 2, "--jobs", 1, flag, value,
        "--output", tmp_path / "o.csv", "--replicates", tmp_path / "r.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad sweep" in err and message in err
    assert list(tmp_path.iterdir()) == []


def test_an_overflowing_lambda_is_refused_before_any_output(small_run, capsys):
    # 1e308 * 40**(1/3) is not finite: fit finds out once it has read n
    tmp_path, data, _ = small_run
    scores = tmp_path / "scores.csv"
    assert run_cli("transform", "--input", data, "--scores", scores, "--model", tmp_path / "m.json",
                   "--qc", 2) == 0
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    code = run_cli("fit", "--scores", scores, "--report", tmp_path / "r.json",
                   "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
                   "--penalty", "individual", "--m-grid", "1,2", "--lambda-multipliers", "0,1e308",
                   "--jobs", 1)
    assert code == 2
    assert capsys.readouterr().err == "data error: lambda multiplier 1e+308 times n**(1/3) overflows at n=40\n"
    assert sorted(tmp_path.rglob("*")) == before
    # benchmark knows each level's n up front
    out = tmp_path / "out"
    out.mkdir()
    code = run_cli("benchmark", "--scenario", "sample-size", "--levels", 50, "--reps", 1,
                   "--kinds", "individual", "--m-grid", 1, "--lambda-multipliers", "0,1e308", "--jobs", 1,
                   "--output", out / "o.csv", "--replicates", out / "r.csv")
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: bad sweep: lambda multiplier 1e+308 times n**(1/3) overflows at n=50\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("delta", ["nan", "inf", "0"])
def test_simulate_bad_delta_exits_1_before_any_output(tmp_path, capsys, delta):
    code = run_cli("simulate", "--n", 20, "--delta", delta,
                   "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert code == 1
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value,name", [("--p-signal", -1, "p_signal"), ("--p-noise", -2, "p_noise")])
def test_simulate_negative_sensor_count_exits_1_naming_it(tmp_path, capsys, flag, value, name):
    code = run_cli("simulate", "--n", 20, flag, value,
                   "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert code == 1
    assert f"usage error: bad design: {name} must be nonnegative, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["{not json", '{"n": 25}', None])
def test_config_after_command_exits_1_unread(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code = run_cli("simulate", "--config", cfg, "--n", 20,
                   "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["cfg.json"])


def test_config_without_a_path_exits_1(capsys):
    assert run_cli("--config") == 1
    assert capsys.readouterr().err == "usage error: --config needs a file path\n"


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_a_bad_config_value_is_reported_under_its_flag(tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_grid": "1,a"}))
    config = ["--config", cfg] if form == "separate" else [f"--config={cfg}"]
    assert run_cli(*config, *VALID_CALLS["fit"](tmp_path / "missing.csv", tmp_path)) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --m-grid: expected comma-separated integers, got '1,a'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_abbreviated_config_flag_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 25}')
    code = run_cli("--conf", cfg, "simulate", "--output", tmp_path / "d.csv",
                   "--truth", tmp_path / "t.json")
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_key_of_no_option_exits_1_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-3, "max_iter": 10, "jobs": 2}))
    code = run_cli("--config", cfg, "simulate", "--n", 20,
                   "--output", tmp_path / "d.csv", "--truth", tmp_path / "t.json")
    assert code == 1
    assert "unrecognized arguments: --tol=0.001 --max-iter=10 --jobs=2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_null_value_exits_1_and_paths_may_come_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": None}))
    code = run_cli("--config", cfg, "simulate", "--output", tmp_path / "d.csv",
                   "--truth", tmp_path / "t.json")
    assert code == 1
    assert "config key 'n' is null" in capsys.readouterr().err
    cfg.write_text(json.dumps({"n": 20, "output": str(tmp_path / "d.csv"),
                               "truth": str(tmp_path / "t.json")}))
    assert run_cli("--config", cfg, "simulate") == 0
    assert json.loads((tmp_path / "t.json").read_text())["design"]["n"] == 20


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "p_noise": 2, "seed": 8}))
    out_a = tmp_path / "a.csv"
    assert run_cli("--config", cfg, "simulate", "--output", out_a,
                   "--truth", tmp_path / "ta.json") == 0
    out_b = tmp_path / "b.csv"
    assert run_cli("simulate", "--n", 25, "--p-noise", 2, "--seed", 8,
                   "--output", out_b, "--truth", tmp_path / "tb.json") == 0
    assert digest(out_a) == digest(out_b)
    # explicit flag beats the config value
    out_c = tmp_path / "c.csv"
    assert run_cli("--config", cfg, "simulate", "--n", 30, "--output", out_c,
                   "--truth", tmp_path / "tc.json") == 0
    assert json.loads((tmp_path / "tc.json").read_text())["design"]["n"] == 30
    assert json.loads((tmp_path / "tc.json").read_text())["design"]["seed"] == 8


def test_simulate_defaults_match_contract(tmp_path):
    data = tmp_path / "d.csv"
    truth = tmp_path / "t.json"
    assert run_cli("simulate", "--output", data, "--truth", truth) == 0
    doc = json.loads(truth.read_text())
    assert doc["design"]["n"] == 200
    assert doc["design"]["p_signal"] == 2 and doc["design"]["p_noise"] == 16
    assert doc["design"]["n_times"] == 31
    with open(data) as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert n_rows == 200 * 18 * 31


def test_config_accepts_string_and_list_forms(tmp_path):
    data, _ = simulate_small(tmp_path, n=30, p_noise=2, seed=3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "penalty": "group", "m_grid": [2, 3], "gamma_grid": "1.0",
        "lambda_multipliers": [0, 2], "qc": 2, "jobs": 1, "seed": 3,
    }))
    code = run_cli(
        "--config", cfg, "fit", "--input", data, "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
    )
    assert code == 0
    bundle = read_model(tmp_path / "r.json")
    assert {r.m for r in bundle.selection_rows} == {2, 3}
    # a config value is read as its flag's text: a bare number for a list
    # option is a one-item list, and a value the flag would refuse exits 1
    for m_grid, want in ((3, 0), ([2, 1.5], 1), (True, 1)):
        cfg.write_text(json.dumps({"penalty": "none", "m_grid": m_grid, "qc": 2, "jobs": 1}))
        code = run_cli(
            "--config", cfg, "fit", "--input", data, "--report", tmp_path / "r.json",
            "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        )
        assert code == want
    assert {r.m for r in read_model(tmp_path / "r.json").selection_rows} == {3}


def test_fit_emits_cluster_mean_overlays(small_run):
    tmp_path, data, _ = small_run
    means_csv = tmp_path / "cluster_means.csv"
    code = run_cli(*fit_args(tmp_path, data, [
        "--penalty", "group", "--m-grid", "2,3", "--gamma-grid", "1.0",
        "--lambda-multipliers", "0,1", "--cluster-means", means_csv,
    ]))
    assert code == 0
    with open(means_csv) as fh:
        rows = list(csv.DictReader(fh))
    bundle = read_model(tmp_path / "report.json")
    m = bundle.mixture.m
    assert len(rows) == 5 * m * 31  # sensors x clusters x time points
    assert {r["sensor_id"] for r in rows} == {"sig01", "sig02", "noi01", "noi02", "noi03"}
    # requires raw curves
    assert run_cli(
        "fit", "--scores", tmp_path / "nope.csv", "--report", tmp_path / "r.json",
        "--assignments", tmp_path / "a.csv", "--removed", tmp_path / "x.txt",
        "--cluster-means", means_csv,
    ) == 1
