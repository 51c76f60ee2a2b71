"""Time-to-certificate benchmark for lipkit.

    python3 perfbench/run.py --workload cli-cloud --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; lipkit is imported from ./src.  The
run makes the workload's seeded inputs (set-up, timed several times),
measures peak memory in a separate process (mempass.py) while this one
waits, then times whole rounds of the workload's operations, checking
every output, until the next round would overrun --seconds.  With
--trace 1 it instead runs every operation once untraced and once traced
and reports the per-layer metrics.

Times are wall-clock seconds scaled to a fixed machine speed: a short
reference kernel runs before and after every timed step, and the step's
wall time is multiplied by REFERENCE_S over the mean of those two
kernel times.  The shared host this was built on drifts by 15-40% in
speed over tens of seconds; the scaling removes that drift and keeps a
change in lipkit's own speed one to one.  The raw wall times and the
kernel times are in the record.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is the full
record: per-pipeline times, failures, and the machine and library
versions.  Both are also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1            # at most nproc; one thread keeps runs steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3           # set-up is timed this many times; median
# Time of Clock.reference() on a quiet 2-core x86-64 host (Python 3.11,
# numpy 2.4); fixed, so that scaled times stay comparable across commits.
REFERENCE_S = 0.006
VERDICTS = (0, 2)           # CLI exit statuses of a written PASS / FAIL

# Pipelines every workload runs: their times are the end-to-end metrics.
SHARED = ("extend", "extend_pointwise", "pou", "modulus")
# Pipelines only cli-cloud runs.  Every workload must report every
# end-to-end metric, so these come from the traced run's untraced side.
CLI_ONLY = ("certify_metric", "decompose", "extend_local", "select",
            "insert", "approx")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-cloud", "lib-grid1d", "lib-cloud2d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_lipkit():
    """Pin BLAS threads, then import lipkit from ./src; returns the
    module and the import time.  Exits with status 2 when the sources
    are missing or another copy of lipkit would be imported."""
    if not os.path.isfile(os.path.join(SRC, "lipkit", "__init__.py")):
        print(f"error: no lipkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_VARS:           # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import lipkit
    import lipkit.cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(lipkit.__file__).startswith(SRC + os.sep):
        print(f"error: lipkit was imported from {lipkit.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return lipkit, import_s


class Clock:
    """Scales wall times by the machine speed measured around them.

    The kernel streams preallocated arrays larger than the caches and
    runs a Python loop over array elements: the two kinds of work in
    lipkit's layers.  It allocates nothing, so its time follows the
    machine and not the allocator state left by the operations.
    """

    def __init__(self):
        import numpy
        self.np = numpy
        self.a = numpy.linspace(0.0, 1.0, 1 << 20)
        self.b = self.a[::-1].copy()
        self.c = numpy.empty_like(self.a)
        self.samples = []

    def _kernel(self):
        np, a, b, c = self.np, self.a, self.b, self.c
        start = time.perf_counter()
        np.subtract(a, b, out=c)
        np.abs(c, out=c)
        best = float(c.max())
        for i in range(8000):
            best = max(best, abs(a[i] - 0.5) / 0.25)
        return time.perf_counter() - start

    def reference(self) -> float:
        """Best of three kernel times."""
        t = min(self._kernel() for _ in range(3))
        self.samples.append(t)
        return t

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))


def run_op(op, log):
    """Run one operation; returns its wall time, or None when it failed.
    Every exception counts the operation as failed.  A CLI exit status
    in VERDICTS wrote a certificate, so its output is checked even when
    the status is not the expected one: a wrong verdict, such as a PASS
    on the perturbed matrix, is then a 'check' failure and makes the run
    incorrect, not just one more failed operation."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as e:          # any raise fails the operation
        log.append({"op": op.label, "failure": "raised",
                    "error": f"{type(e).__name__}: {str(e)[:200]}",
                    "traceback": traceback.format_exc(limit=3)})
        return None
    elapsed = time.perf_counter() - start
    status = None
    if op.expect is not None and result != op.expect:
        status = {"op": op.label, "failure": "status",
                  "error": f"exit {result}, expected {op.expect}"}
        if result not in VERDICTS:  # an input error wrote no certificate
            log.append(status)
            return None
    try:
        op.check(result)
    except Exception as e:          # a check or a reader rejected the output
        log.append({"op": op.label, "failure": "check",
                    "error": f"{type(e).__name__}: {e}"
                    + (f" ({status['error']})" if status else ""),
                    "traceback": traceback.format_exc(limit=3)})
        return None
    if status:
        log.append(status)
        return None
    return elapsed


def _add(times, key, value):
    times[key] = times.get(key, 0.0) + value


def run_round(ops, log, clock):
    """One round: every operation once.  Returns the scaled and the raw
    per-pipeline time of the operations that succeeded."""
    scaled, raw = {}, {}
    before = clock.reference()
    for op in ops:
        dt = run_op(op, log)
        after = clock.reference()
        if dt is not None:
            _add(scaled, op.pipeline, dt * clock.scale(before, after))
            _add(raw, op.pipeline, dt)
        before = after
    return scaled, raw


def traced_op(t, op):
    """op with its run inside a root span named after its pipeline."""
    def run():
        depth = len(t.stack)
        t.open(f"op.{op.pipeline}")
        try:
            return op.run()
        finally:
            t.close(depth)          # also closes spans a failure left open
    return type(op)(op.pipeline, op.label, run, op.check, op.expect)


def environment(lipkit):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lipkit": lipkit.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def import_time():
    """Wall time of `import lipkit` in a fresh interpreter, measured
    inside it so that interpreter start-up does not count."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import lipkit, lipkit.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def memory_pass(args, work):
    """Peak memory of one round, measured by mempass.py in its own
    process so that no set-up or check of this process counts.  A fixed
    malloc mmap threshold makes every large array its own mapping, so
    resident memory follows live arrays instead of heap reuse."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "mempass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", os.path.join(work, "mempass")]
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="65536",
               MALLOC_TRIM_THRESHOLD_="65536")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          env=env)
    if done.returncode != 0:
        raise RuntimeError(f"memory pass failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    lipkit, import_s = load_lipkit()
    import workloads
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, lipkit, workloads, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, lipkit, workloads, work, import_s) -> int:
    clock = Clock()
    workload = workloads.WORKLOADS[args.workload](lipkit)
    imports, imports_raw, gen, gen_raw = [], [], [], []
    for r in range(SETUP_REPEATS):
        # the first import of this process is timed too, as one of them
        before = clock.reference()
        dt = import_s if r == 0 else import_time()
        imports.append(dt * clock.scale(before, clock.reference()))
        imports_raw.append(dt)
        root = os.path.join(work, f"setup{r}")
        before = clock.reference()
        t = time.perf_counter()
        workload.setup(args.seed, root)
        dt = time.perf_counter() - t
        gen.append(dt * clock.scale(before, clock.reference()))
        gen_raw.append(dt)
    workload.prepare()
    ops = workload.operations()
    log = []
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops_per_round": len(ops), "env": environment(lipkit),
              "import_s": imports_raw, "setup_generate_s": gen_raw}
    rounds, raw_rounds = [], []

    if args.trace:
        import tracer
        # Each operation runs untraced, then traced, so both sides of the
        # overhead see the same cache state and machine speed.
        t = tracer.Tracer()
        untraced, traced = {}, {}
        before = clock.reference()
        for op in ops:
            plain = run_op(op, log)
            middle = clock.reference()
            t.install()
            try:
                seen = run_op(traced_op(t, op), log)
            finally:
                t.uninstall()
            after = clock.reference()
            if plain is not None:
                _add(untraced, op.pipeline, plain * clock.scale(before, middle))
            if seen is not None:
                _add(traced, op.pipeline, seen * clock.scale(middle, after))
            before = after
        rounds.append(untraced)
        os.makedirs(OUT, exist_ok=True)
        t.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        metrics = t.layer_metrics()
        metrics["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
        for p in CLI_ONLY:
            metrics[f"pipeline.{p}_s"] = untraced.get(p, 0.0)
        record["ops_s"] = {"untraced": untraced, "traced": traced}
        attempted = 2 * len(ops)
    else:
        mem = memory_pass(args, work)
        record["memory_pass"] = mem
        attempted = 0
        walls = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            scaled, raw = run_round(ops, log, clock)
            walls.append(time.perf_counter() - start)
            rounds.append(scaled)
            raw_rounds.append(raw)
            attempted += len(ops)
            used = time.perf_counter() - begin
            if used + statistics.median(walls) > args.seconds:
                break
        metrics = {"setup_s": statistics.median(imports) + statistics.median(gen),
                   "peak_alloc_mb": mem["peak_alloc_mb"]}
        for p in SHARED:
            per_round = [r[p] for r in rounds if p in r]
            if per_round:
                metrics[f"{p}_s"] = statistics.median(per_round)
        record["round_wall_s"] = walls

    def medians(rs):
        names = sorted({p for r in rs for p in r})
        return {p: statistics.median([r[p] for r in rs if p in r]) for p in names}

    failed = len(log)
    correct = not any(e["failure"] == "check" for e in log)
    record.update({
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "failures": log[:len(ops)],
        "pipeline_s": medians(rounds), "pipeline_raw_s": medians(raw_rounds),
        "reference_s": {"median": statistics.median(clock.samples),
                        "min": min(clock.samples), "max": max(clock.samples),
                        "count": len(clock.samples)},
    })
    units = {}
    for name in metrics:
        units[name] = ("MB" if name.endswith("_mb") else
                       "s" if name.endswith("_s") else
                       "bytes" if name.endswith("bytes_written") else "count")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    failed_ops = sorted({e["op"] for e in log})
    print(f"{args.workload}: attempted {attempted}, failed {failed}"
          + (f" ({', '.join(failed_ops)})" if failed_ops else ""))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
