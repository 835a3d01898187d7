"""Child process that runs a workload's CLI calls in-process and times them.

Usage: python3 bench/worker.py PLAN_JSON RESULT_JSON

The plan lists rounds of calls to mfclust.cli.main. The worker imports the
program, records its CPU seconds when it is ready, then runs the plan's
rounds in turn, timing each call in wall seconds and in the process's CPU
seconds, cycling, until the plan's seconds have passed (always at least
one round, only whole rounds). In trace mode it runs the first round untraced and
then again under cProfile, one profile per call, dumping each profile to
the plan's profile directory.
Output files are hashed after every round, outside the timed region, so the
parent can tell that repeated rounds produced identical results.
"""

import contextlib
import cProfile
import hashlib
import io
import json
import os
import sys
import time


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _call(main, argv, profile_path=None):
    out = io.StringIO()
    err = io.StringIO()
    prof = cProfile.Profile() if profile_path else None
    t0 = time.perf_counter()
    c0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if prof:
            prof.enable()
        try:
            rc = main(argv)
        finally:
            if prof:
                prof.disable()
    seconds = time.perf_counter() - t0
    cpu_seconds = time.process_time() - c0
    if prof:
        prof.dump_stats(profile_path)
    return {"rc": rc, "seconds": seconds, "cpu_seconds": cpu_seconds, "stderr": err.getvalue()[-2000:]}


def _run_round(main, calls, profile_dir=None):
    records = []
    for i, call in enumerate(calls):
        path = os.path.join(profile_dir, f"call{i}.prof") if profile_dir else None
        records.append({**call, **_call(main, call["argv"], path)})
    outputs = [p for call in calls for p in call["outputs"]]
    return {"calls": records, "digest": _digest(p for p in outputs if os.path.exists(p))}


def main():
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    from mfclust import cli

    result = {"ready_cpu": time.process_time(), "program": os.path.dirname(cli.__file__), "rounds": []}
    if plan["trace"]:
        result["rounds"].append({"plan": 0, **_run_round(cli.main, plan["rounds"][0])})
        os.makedirs(plan["profile_dir"], exist_ok=True)
        result["rounds"].append({"plan": 0, **_run_round(cli.main, plan["rounds"][0], plan["profile_dir"])})
    else:
        start = time.monotonic()
        r = 0
        while True:
            index = r % len(plan["rounds"])
            result["rounds"].append({"plan": index, **_run_round(cli.main, plan["rounds"][index])})
            r += 1
            if time.monotonic() - start >= plan["seconds"]:
                break
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
