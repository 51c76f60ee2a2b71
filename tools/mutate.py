"""Mutation check of the verdict rules: flip each comparison of
src/lipkit/verdicts.py and src/lipkit/certify.py and see whether the
tier-1 suite notices.

    python tools/mutate.py --list   # the mutants, no test run
    python tools/mutate.py          # run them all

A mutant flips one `<` to `<=`, `<=` to `<`, `>` to `>=` or `>=` to
`>`.  Each runs the suite with -x in a temporary copy of the checkout
(without .git), one mutant after another, and is killed when the suite
fails.  A mutant that survives names a verdict
boundary no test pins, unless it is equivalent, one that no input can
tell apart from the original: those are listed in EQUIVALENT, each with
its reason, and reported but not counted.  The exit status is 1 when an
unlisted mutant survives, and, with --list too, when an EQUIVALENT entry
names no mutant (its comparison was edited, so the entry is stale).
Standard library only.

A mutant's name is file:function:comparison:flip, for example
verdicts.py:_strictness_cert:m > 0.0:>=, with #k appended to the k-th
repeat of the same comparison in one function; it does not move when
lines above it do.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ("verdicts.py", "certify.py")
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
         ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
TIMEOUT_S = 600     # a mutant that makes a loop run on is killed by it

# equivalent mutants: name -> why no input tells the flip apart
EQUIVALENT = {
    "certify.py:_jsonable:x > 0:>=":
        "x is inf or -inf in that branch, so x > 0 and x >= 0 agree",
    "certify.py:_near_pass_pays:space.pairwise()[pick] < 2.0 * deltas[0]:<=":
        "a cost estimate: it picks the near-pair pass or the per-ball "
        "sweep, and both decide the same cover",
    "certify.py:_near_pass_pays:len(centers) * float(np.mean(size ** 2.0)) "
    ">= space.n ** 2 / 16:>":
        "a cost estimate: it picks the near-pair pass or the per-ball "
        "sweep, and both decide the same cover",
    "certify.py:_doubled_balls_hold:R <= 2.0 ** 500:<":
        "the pass may always return False: the per-ball sweep then "
        "decides, with the same outcome; at R = 2^500 no square overflows",
    "certify.py:_doubled_balls_hold:d < R:<=":
        "more pairs can only fail the pass more often, and a failed pass "
        "hands the decision to the per-ball sweep",
    "certify.py:_doubled_balls_hold:worst[0] <= tol:<":
        "a pass that fails at an excess of exactly tol hands the decision "
        "to the per-ball sweep, which passes the same balls",
    "certify.py:random_k_extension:c <= b:<":
        "on a tie b and c differ at most in a zero's sign, and no output "
        "reads the sign of b: a point interval takes a, and b - a, a + b "
        "and b - value drop it",
    "certify.py:random_k_extension:value - a <= margin:<":
        "the margin boundary: M is at least 3 (1 + u) times the rounding "
        "bound, with room, so dropping a side at v - a = M is exact too",
    "certify.py:random_k_extension:b - value <= margin:<":
        "the margin boundary: M is at least 3 (1 + u) times the rounding "
        "bound, with room, so dropping a side at b - v = M is exact too",
    "certify.py:_dominance_margin:scale <= 2.0 ** 1000:<":
        "M = inf at exactly 2^1000 applies every side at once, as off a "
        "sorted axis, and moves no bit",
}


def _operator_tokens(source: str) -> dict:
    """(line, column) -> token text of every comparison operator token."""
    return {tok.start: tok.string
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.OP and tok.string in ("<", "<=", ">", ">=")}


def _functions(tree) -> list:
    """(first line, last line, name) of every function, innermost last."""
    return sorted((node.lineno, node.end_lineno, node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def mutants(path: str) -> list:
    """(name, line, column, old, new) of every flip in the file at path,
    in source order."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    tokens = _operator_tokens(source)
    functions = _functions(tree)
    out, seen = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + node.comparators
        text = ast.get_source_segment(source, node)
        for k, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            # the operator token lies between its two operands
            start = (operands[k].end_lineno, operands[k].end_col_offset)
            stop = (operands[k + 1].lineno, operands[k + 1].col_offset)
            (line, col), = [at for at, s in tokens.items()
                            if start <= at < stop and s == old]
            func = [name for first, last, name in functions
                    if first <= line <= last]
            base = (f"{os.path.basename(path)}:"
                    f"{func[-1] if func else '<module>'}:{text}:{new}")
            seen[base] = seen.get(base, 0) + 1
            name = base if seen[base] == 1 else f"{base}#{seen[base]}"
            out.append((name, line, col, old, new))
    return sorted(out, key=lambda m: (m[1], m[2]))


def _apply(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def _run_suite(copy: str) -> tuple:
    """(exit status of pytest -x in the copy, seconds); None on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider"], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - t0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run nothing")
    args = parser.parse_args(argv[1:])
    todo = [(target, *m) for target in TARGETS
            for m in mutants(os.path.join(ROOT, "src", "lipkit", target))]
    stale = sorted(set(EQUIVALENT) - {m[1] for m in todo})
    for name in stale:
        print(f"stale EQUIVALENT entry, no such mutant: {name}")
    if stale:
        return 1
    if args.list:
        for target, name, line, *_ in todo:
            tag = " (equivalent)" if name in EQUIVALENT else ""
            print(f"{line:5d}  {name}{tag}")
        print(f"{len(todo)} mutants, {len(EQUIVALENT)} listed as equivalent")
        return 0

    t0 = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory() as copy:
        copy = os.path.join(copy, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".perfbench"))
        code, seconds = _run_suite(copy)
        if code != 0:
            print(f"the suite fails unmutated (exit {code}): nothing to check")
            return 2
        print(f"unmutated suite: {seconds:.1f} s", flush=True)
        for target, name, line, col, old, new in todo:
            path = os.path.join(copy, "src", "lipkit", target)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_apply(source, line, col, old, new))
            try:
                code, seconds = _run_suite(copy)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
            if code == 0:
                verdict = "equivalent" if name in EQUIVALENT else "SURVIVED"
                if name not in EQUIVALENT:
                    survivors.append(f"{line:5d}  {name}")
            else:
                verdict = "killed" if code is not None else "killed (timeout)"
            print(f"{verdict:>16} {line:5d}  {name}  ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(todo)} mutants, {len(survivors)} unlisted survivor(s), "
          f"{time.perf_counter() - t0:.0f} s")
    for s in survivors:
        print(f"survivor: {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
