"""SHA-256 digests of lipkit's outputs, one line per output.

    python tools/output_digest.py > digest.txt

lipkit is imported from the src/ of the checkout holding this script,
so two checkouts made the same outputs when their digest lists are
equal: run it in each and diff the two lists.  The digest set:

  * every file that each command of the benchmark's cli-cloud workload
    writes, and its exit status (a line "exit <status> <command>"), for
    seeds 1 and 2, on the inputs of perfbench/inputs.write_cli_inputs
    and with the argv of perfbench/workloads.py;
  * the arrays of the benchmark's lib-grid1d workload for seeds 1 and
    2, through the library: the envelopes, the extension and the three
    random draws of extend, the envelopes, output and witness constants
    of extend-pointwise, the member values of both pou families, and the
    levels of both modulus rules;
  * the files and the standard output of the four `lipkit demo`
    fixtures;
  * the standard output of each demos/*.py.

Everything runs in a temporary directory under relative paths, since
certificate.json records the paths of its inputs.  Standard library and
numpy only.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import lipkit  # noqa: E402
import lipkit.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def emit(label, data):
    print(hashlib.sha256(data).hexdigest(), label)


def emit_tree(label, top):
    """One digest per file under top, in sorted path order."""
    for path in sorted(glob.glob(os.path.join(top, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                emit(f"{label}/{os.path.relpath(path, top)}", fh.read())


def cli_cloud(seed):
    work = workloads.CliCloud(lipkit)
    work.setup(seed, f"cli-cloud-{seed}")
    for op in work.operations():
        print(f"exit {op.run()} cli-cloud-{seed}/{op.label}")
    emit_tree(f"cli-cloud-{seed}", os.path.join(f"cli-cloud-{seed}", "out"))


def lib_grid1d(seed):
    work = workloads.LibGrid1d(lipkit)
    work.setup(seed, f"lib-grid1d-{seed}")
    extend, pointwise, pou, modulus = (op.run() for op in work.operations())
    label = f"lib-grid1d-{seed}"
    lower, upper, out, _certs, _duality, draws = extend
    for name, v in [("lower", lower), ("upper", upper),
                    ("extension", out)] + [(f"draw {i}", g)
                                           for i, g in enumerate(draws)]:
        emit(f"{label}/extend {name}", v.tobytes())
    for name, v in zip(("lower", "upper", "extension", "witness"), pointwise):
        emit(f"{label}/extend-pointwise {name}", v.tobytes())
    for name, M in zip(("family", "grouped"), pou[0]):
        emit(f"{label}/pou {name} members", M.tobytes())
    for rule, levels, _worst in modulus:
        emit(f"{label}/modulus {rule} levels", levels.tobytes())


def demo_fixtures():
    for fixture in sorted(lipkit.cli._DEMOS):
        out = f"demo-{fixture}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lipkit.cli.main(["demo", fixture, "--out-dir", out])
        print(f"exit {code} {out}")
        emit(f"{out} stdout", buf.getvalue().encode())
        emit_tree(out, out)


def demo_scripts():
    env = dict(os.environ, PYTHONPATH=SRC)
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        run = subprocess.run([sys.executable, path], env=env, check=True,
                             capture_output=True)
        emit(f"demos/{os.path.basename(path)} stdout", run.stdout)


def main():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                cli_cloud(seed)
            for seed in SEEDS:
                lib_grid1d(seed)
            demo_fixtures()
            demo_scripts()
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
