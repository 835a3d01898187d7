"""The mfclust benchmark: three workloads through the CLI, checked end to end.

Usage, from the repository root:

    python3 bench/run.py --workload fit-reference --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's inputs from --seed (bench/gen.py),
then starts one worker process (bench/worker.py) that imports the program
from src/ and calls mfclust.cli.main in-process, in whole rounds, until
--seconds have passed. It checks every output against its own computations
(bench/checks.py) and prints, as the last line of standard output, one JSON
object: correct, attempted, failed and the metrics. --trace 0 reports the
end-to-end metrics; --trace 1 replays one round under cProfile and reports
the per-layer metrics (bench/layers.py). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(SRC, "mfclust")
WORKLOADS = ("fit-reference", "sweep-small-n", "transform-wide")
TIME_LIMIT = 170.0  # seconds a run may take in all

# fit-reference: each round takes REF_DATASETS seeded reference datasets
# through transform and the REF_KINDS fits, then each probe dataset through
# transform and its PROBES fits. The traced run replays the first
# TRACE_DATASETS seeded datasets and the probes, to stay within TIME_LIMIT.
REF_DATASETS = 4
TRACE_DATASETS = 2
REF_KINDS = ("none", "individual")
# The probes are reference datasets 1000 and 1001 of seed 7, the same in
# every run. The `variable` EM is not monotone today (see README, "Failed
# operations"): which of its grid points rise depends on the data, so on a
# probe its rising points fail identically in every run. The `group` fit
# time is bimodal across datasets (2.5 to 12.5 s), with the collapse
# restarts a dataset provokes, so on seeded datasets it would time the seed
# more than the program; the two probes give one fit of each mode.
PROBE_SEED = 7
PROBES = {"probe": (1000, ("group", "variable")), "probe1": (1001, ("group",))}
# sweep-small-n: each round runs SWEEP_REPS seeded replicates of the
# SWEEP_KINDS, then SWEEP_PROBE_REPS fixed-seed replicates under the
# FIXED_KINDS and again under `variable`; SWEEP_PLANS distinct rounds before
# they repeat. `group` runs on the fixed replicates only: its time per
# replicate is heavy-tailed (0.3 to 2.7 s at n = 50), so on seeded
# replicates it would time the seed more than the program.
# The replicates run serially (--jobs 1): a pool as wide as the machine
# times the host's scheduler more than the program (see README).
SWEEP_KINDS = ("individual", "none")
FIXED_KINDS = ("individual", "group", "none")
SWEEP_REPS = 12
SWEEP_PROBE_REPS = 2
SWEEP_PLANS = 8

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "dataset_cpu_s": "s"}
KINDS = ("none", "individual", "variable", "group")
PER_KIND = (
    "em.init_s", "em.estep_s", "em.mstep_s", "em.loop_s", "em.init_calls", "em.kmeans_runs",
    "em.fits", "em.attempts", "em.attempts_per_fit", "em.iterations", "em.estep_calls",
    "select.self_s", "select.grid_points", "select.converged_share", "select.max_iter_fits",
    "select.collapsed_fits", "select.rising_fits",
)


def unit_of(metric: str) -> str:
    base, _, kind = metric.rpartition(".")
    if kind in KINDS:
        metric = base
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_per_fit")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# plans: the CLI calls of one round, with the files they write


def transform_call(stem, csv_rows, n, qc=None):
    outputs = [f"{stem}_scores.csv", f"{stem}_fpca.json"]
    argv = ["transform", "--input", f"{stem}.csv", "--scores", outputs[0], "--model", outputs[1]]
    return {"label": f"transform:{stem}", "stem": stem, "argv": argv + (["--qc", str(qc)] if qc else []),
            "outputs": outputs, "rows": {"read_long_csv": csv_rows, "read_scores_csv": n}}


def fit_call(stem, kind, seed, n):
    base = f"{stem}_{kind}"
    outputs = [f"{base}.json", f"{base}_assign.csv", f"{base}_removed.txt"]
    argv = ["fit", "--scores", f"{stem}_scores.csv", "--penalty", kind, "--jobs", "1", "--seed", str(seed),
            "--report", outputs[0], "--assignments", outputs[1], "--removed", outputs[2]]
    return {"label": f"fit.{kind}:{stem}", "stem": stem, "kind": kind, "argv": argv, "outputs": outputs,
            "rows": {"read_scores_csv": n, "read_assignments": n}}


def reference_plan(seed, rows, datasets):
    calls = []
    for stem, kinds, fit_seed in [(f"ref{k}", REF_KINDS, seed) for k in range(datasets)] + [
        (stem, kinds, PROBE_SEED) for stem, (_, kinds) in PROBES.items()
    ]:
        calls.append(transform_call(stem, rows[stem], rows["n"], qc=3))
        calls += [fit_call(stem, kind, fit_seed, rows["n"]) for kind in kinds]
    return [calls]


def sweep_call(kinds, reps, seed, stem, datasets):
    """`datasets`: the replicate datasets this call adds to the round (0 if
    an earlier call of the round simulated the same ones)."""
    outputs = [f"{stem}_rows.csv", f"{stem}_reps.csv"]
    argv = ["benchmark", "--scenario", "sample-size", "--levels", "50", "--kinds", ",".join(kinds),
            "--reps", str(reps), "--seed", str(seed), "--jobs", "1",
            "--output", outputs[0], "--replicates", outputs[1]]
    return {"label": f"benchmark:{stem}", "kinds": list(kinds), "reps": reps, "datasets": datasets,
            "argv": argv, "outputs": outputs, "rows": {}}


def sweep_plan(seed, plans):
    return [
        [sweep_call(SWEEP_KINDS, SWEEP_REPS, seed * 100 + r, f"sweep{r}", SWEEP_REPS),
         sweep_call(FIXED_KINDS, SWEEP_PROBE_REPS, PROBE_SEED, "fixed", SWEEP_PROBE_REPS),
         sweep_call(("variable",), SWEEP_PROBE_REPS, PROBE_SEED, "probe", 0)]
        for r in range(plans)
    ]


def wide_plan(rows):
    return [[transform_call("wide", rows["wide"], rows["n"])]]


# ---------------------------------------------------------------------------
# checks and failure counts of one executed round


def check_reference(work, inputs, calls):
    """Returns (problems, attempted, failed, selection-table diagnostics by kind)."""
    import checks

    def path(name):
        return os.path.join(work, name)

    problems, attempted, failed = [], 0, 0
    diag = {}
    for call in calls:
        stem, kind = call["stem"], call.get("kind")
        data = inputs[stem]
        if kind is None:  # a transform call
            attempted += 1
            if call["rc"] != 0:
                failed += 1
                continue
            problems += [f"{stem} transform: {p}" for p in checks.check_transform(
                path(f"{stem}_scores.csv"), path(f"{stem}_fpca.json"), data,
                fractions=checks.variance_explained(data), qc=3)]
            continue
        expected = checks.expected_rows(kind)
        attempted += expected
        if call["rc"] != 0:
            failed += expected
            continue
        report_path, assign_path, removed_path = (path(p) for p in call["outputs"])
        report = checks.read_json(report_path)
        failed += checks.failed_rows(report, kind)
        for key, value in checks.row_diagnostics(report).items():
            diag.setdefault(kind, {}).setdefault(key, 0)
            diag[kind][key] += value
        problems += [f"{stem} fit {kind}: {p}" for p in checks.check_fit(
            path(f"{stem}_scores.csv"), report_path, assign_path, removed_path, kind, truth=data)]
    return problems, attempted, failed, diag


def check_sweep_round(work, calls):
    import checks

    problems, attempted, failed = [], 0, 0
    for call in calls:
        kinds, reps = call["kinds"], call["reps"]
        attempted += reps * len(kinds)
        if call["rc"] != 0:
            failed += reps * len(kinds)
            continue
        rows_path, reps_path = (os.path.join(work, p) for p in call["outputs"])
        found, records = checks.check_sweep(rows_path, reps_path, kinds, reps)
        problems += [f"{call['label']}: {p}" for p in found]
        failed += reps * len(kinds) - len(records)
        failed += sum(1 for r in records if float(r["max_rise"]) > checks.RISE_TOL)
    return problems, attempted, failed, {}


def check_wide(work, inputs, calls):
    import checks

    if calls[0]["rc"] != 0:
        return [], 1, 1, {}
    data = inputs["wide"]
    problems = checks.check_transform(
        os.path.join(work, "wide_scores.csv"), os.path.join(work, "wide_fpca.json"), data,
        fractions=checks.variance_explained(data))
    return [f"wide transform: {p}" for p in problems], 1, 0, {}


def check_round(workload, work, inputs, calls):
    if workload == "fit-reference":
        return check_reference(work, inputs, calls)
    if workload == "sweep-small-n":
        return check_sweep_round(work, calls)
    return check_wide(work, inputs, calls)


# ---------------------------------------------------------------------------
# metrics


def dataset_cpu_seconds(workload, calls) -> float:
    """CPU seconds to take one input dataset through the workload's CLI calls.

    CPU seconds of the worker, which runs every call on one thread: on a
    shared host they leave out the time the host gives to other guests,
    which wall seconds count (see README, "Why CPU seconds")."""
    if workload == "fit-reference":
        # median over the seeded datasets of transform + the seeded fits,
        # plus the mean over the probes of each probe kind's fit
        per_stem, per_kind = {}, {}
        for c in calls:
            if c["stem"] in PROBES:
                if "kind" in c:
                    per_kind.setdefault(c["kind"], []).append(c["cpu_seconds"])
            else:
                per_stem[c["stem"]] = per_stem.get(c["stem"], 0.0) + c["cpu_seconds"]
        return statistics.median(per_stem.values()) + sum(statistics.mean(v) for v in per_kind.values())
    if workload == "sweep-small-n":
        # per replicate dataset, seeded or fixed, through all its kinds
        return sum(c["cpu_seconds"] for c in calls) / sum(c["datasets"] for c in calls)
    return calls[0]["cpu_seconds"]


def layer_report(work, plan_calls, traced, untraced, diag):
    import layers

    profiles = os.path.join(work, "profiles")
    paths = [os.path.join(profiles, f"call{i}.prof") for i in range(len(plan_calls))]

    def metrics_of(indices):
        if not indices:
            return {}
        return layers.layer_metrics(layers.Profile([paths[i] for i in indices], PROGRAM), PROGRAM)

    out = metrics_of(range(len(plan_calls)))
    rows_read = 0
    for i, call in enumerate(plan_calls):
        prof = layers.Profile([paths[i]], PROGRAM)
        rows_read += sum(prof.calls("dataio", fn) * n for fn, n in call["rows"].items())
    out["dataio.rows_read"] = rows_read
    out.update(select_shares(sum_diag(diag.values())))
    for kind in KINDS:
        # calls that fit this kind alone: `fit --penalty kind`, or a
        # `benchmark --kinds kind` call
        indices = [i for i, c in enumerate(plan_calls) if _only_kind(c) == kind]
        kind_metrics = {**metrics_of(indices), **select_shares(diag.get(kind, {}))}
        for name in PER_KIND:
            if indices:
                out[f"{name}.{kind}"] = kind_metrics[name]
            else:  # no call fits this kind alone: zero, or unmeasured as for the whole round
                out[f"{name}.{kind}"] = None if out[name] is None else 0
    out["trace.overhead_s"] = sum(c["seconds"] for c in traced) - sum(c["seconds"] for c in untraced)
    return out


def _only_kind(call):
    kinds = [call["kind"]] if "kind" in call else call.get("kinds", [])
    return kinds[0] if len(kinds) == 1 else None


def sum_diag(items):
    total = {}
    for d in items:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def select_shares(d):
    rows = d.get("rows", 0)
    return {
        "select.converged_share": d.get("converged", 0) / rows if rows else 0.0,
        "select.max_iter_fits": d.get("max_iter", 0),
        "select.collapsed_fits": d.get("collapsed", 0),
        "select.rising_fits": d.get("rising", 0),
    }


# ---------------------------------------------------------------------------


def generate(workload, seed, work, datasets):
    """Write the workload's input files; return their truth and row counts."""
    import gen

    inputs, rows = {}, {}
    if workload == "fit-reference":
        for k in range(datasets):
            inputs[f"ref{k}"] = gen.reference_dataset(seed, k)
        for stem, (index, _) in PROBES.items():
            inputs[stem] = gen.reference_dataset(PROBE_SEED, index)
        rows["n"] = gen.REF_N
    elif workload == "transform-wide":
        inputs["wide"] = gen.wide_dataset(seed)
        rows["n"] = gen.WIDE_N
    for stem, data in inputs.items():
        rows[stem] = gen.write_long_csv(data, os.path.join(work, f"{stem}.csv"))
    return inputs, rows


def run_worker(plan, work, deadline):
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MFCLUST_JOBS", None)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                            cwd=work, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(PROGRAM, "cli.py")):
        print(f"error: no program at {PROGRAM}; run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    # turn SIGTERM into SystemExit, so the worker is stopped and the work
    # directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work) -> int:
    import numpy

    datasets = TRACE_DATASETS if args.trace else REF_DATASETS
    inputs, rows = generate(args.workload, args.seed, work, datasets)
    if args.workload == "fit-reference":
        rounds = reference_plan(args.seed, rows, datasets)
    elif args.workload == "sweep-small-n":
        rounds = sweep_plan(args.seed, 1 if args.trace else SWEEP_PLANS)
    else:
        rounds = wide_plan(rows)
    plan = {"rounds": rounds, "seconds": args.seconds, "trace": bool(args.trace),
            "profile_dir": os.path.join(work, "profiles")}
    # set-up in CPU seconds, as dataset_cpu_s: this process's from its start
    # (input generation among them), then the worker's until it has
    # imported the program
    setup_cpu = time.process_time()
    result = run_worker(plan, work, STARTED + TIME_LIMIT)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    problems = []
    if os.path.realpath(result["program"]) != os.path.realpath(PROGRAM):
        problems.append(f"worker imported the program from {result['program']}, not {PROGRAM}")
    attempted = failed = 0
    checked = {}  # plan index -> (output digest, check outcome)
    for executed in result["rounds"]:
        index = executed["plan"]
        if index not in checked:
            checked[index] = (executed["digest"], check_round(args.workload, work, inputs, executed["calls"]))
            problems += checked[index][1][0]
        elif checked[index][0] != executed["digest"]:
            problems.append(f"round {index} gave different outputs when repeated")
        _, a, f, _ = checked[index][1]
        attempted += a
        failed += f

    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(result["rounds"]),
        "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": 1, "machine": platform.machine(),
    }
    print("machine: " + json.dumps(info))
    for clock in ("seconds", "cpu_seconds"):
        per_call = {}
        for executed in result["rounds"][:1] if args.trace else result["rounds"]:
            for c in executed["calls"]:
                per_call.setdefault(c["label"], []).append(c[clock])
        print(f"calls (median {clock}): " + json.dumps({k: round(statistics.median(v), 4) for k, v in per_call.items()}))
    for executed in result["rounds"]:
        for c in executed["calls"]:
            if c["rc"] != 0:
                print(f"call {c['label']} exited with {c['rc']}: {c['stderr'].strip()[-300:]}")
    for p in problems[:20]:
        print(f"check failed: {p}")

    if args.trace:
        untraced, traced = (r["calls"] for r in result["rounds"])
        values = layer_report(work, rounds[0], traced, untraced, checked[0][1][3])
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    else:
        per_round = [dataset_cpu_seconds(args.workload, r["calls"]) for r in result["rounds"]]
        print("dataset_cpu_s by round: " + json.dumps([round(v, 4) for v in per_round]))
        values = {"setup_s": setup_cpu + result["ready_cpu"], "peak_rss_mb": peak_mb, "dataset_cpu_s": statistics.median(per_round)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
