"""Peak-memory pass of one round, in a process of its own.

    python3 perfbench/mempass.py --workload lib-cloud2d --seed 1 --dir DIR

run.py starts this and waits for it.  It makes the workload's inputs
under DIR, runs every operation once without checks, and prints one
JSON line whose peak_alloc_mb is the peak resident memory of the
process during the round minus its resident memory when the round
started.  Nothing else runs in this process, so a smaller working set
in the program shows directly.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import run


def status_bytes(field: str) -> int:
    """A memory field of /proc/self/status (VmRSS, VmHWM), in bytes.
    VmHWM belongs to this process image, unlike ru_maxrss, which keeps
    the resident size of the parent at fork across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args(argv)
    lipkit, _ = run.load_lipkit()
    import workloads

    workload = workloads.WORKLOADS[args.workload](lipkit)
    workload.setup(args.seed, args.dir)
    ops = workload.operations()
    gc.collect()
    start, before = status_bytes("VmRSS"), status_bytes("VmHWM")
    failed = 0
    for op in ops:
        try:
            status = op.run()
        except Exception:           # counted; run.py's rounds report it
            failed += 1
            continue
        failed += op.expect is not None and status != op.expect
    peak = status_bytes("VmHWM")
    print(json.dumps({"peak_alloc_mb": (peak - start) / 1e6,
                      "start_mb": start / 1e6,
                      "peak_before_mb": before / 1e6,
                      "attempted": len(ops), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
