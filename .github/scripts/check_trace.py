"""Check the result line of a traced benchmark run.

Reads the JSON result of `bench/run.py --trace 1` (its last output line) on
stdin. Exits 0 when the run is correct, failed no operation, reports no null
metric and moved every counter named on the command line; exits 1 otherwise.
A counter that is 0 or missing means the hook it counts is gone.

    tail -n 1 run.out | python3 .github/scripts/check_trace.py em.fits em.iterations
"""

import json
import sys


def main(counters) -> int:
    r = json.load(sys.stdin)
    nulls = [k for k, v in r["metrics"].items() if v is None or v.get("value") is None]
    zeros = [k for k in counters if not (r["metrics"].get(k) or {}).get("value")]
    print("correct:", r.get("correct"), "failed:", r.get("failed"), "null metrics:", nulls,
          "zero or missing counters:", zeros)
    return 0 if r.get("correct") is True and r.get("failed") == 0 and not nulls and not zeros else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
