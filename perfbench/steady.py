"""Steadiness check: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload cli-cloud --runs 10 --first-seed 1

Runs run.py with --trace 0 and the run_seconds of BENCHMARK.json once
per seed (first-seed, first-seed + 1, ...), one after another, and
prints for every metric its median, first and third
quartiles (statistics.quantiles, n=4) and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.
It also prints the share of failed operations of every run, which must
be the same in all of them.  The bounds in BENCHMARK.json were set
from this output; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']} "
              f"(share {share:.6f})", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share identical in every run: {len(shares) == 1}")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
