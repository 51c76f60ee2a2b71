"""Self-test of the output checks: each must reject a broken output.

    python3 perfbench/selftest.py

Part one feeds every check in checks.py a small valid output, which it
must accept, and deliberately broken ones, which it must reject.  Part
two runs every operation of every workload on small seeded inputs,
checks its real output, then breaks that output (a non-Lipschitz
extension, a partition member that goes negative, a selection that
touches its window, ...) and confirms the operation's check rejects
it.  At this small size decompose succeeds, so its check is exercised
on a real output too.  Last, it forges the perturbed matrix's exit
status and confirms that run.run_op counts a false PASS as a rejected
output and an input error as a wrong status.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import run

failures = []
cases = [0]


def expect(name, fn, *args, ok):
    """Run a check; record a failure when accepting/rejecting is wrong."""
    import checks
    cases[0] += 1
    try:
        fn(*args)
        rejected = False
    except checks.CheckFailed:
        rejected = True
    if rejected == ok:
        failures.append(f"{name}: {'rejected' if rejected else 'accepted'}")


def primitive_checks():
    import checks
    import inputs
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    D = np.abs(x[:, None] - x[None, :])
    A = np.array([0, 3])
    phi = np.array([0.0, 1.0])
    K = 1.0
    consts = np.full(2, K)
    lower = np.max(phi[None, :] - K * D[:, A], axis=1)
    upper = np.min(phi[None, :] + K * D[:, A], axis=1)
    expect("envelopes", checks.envelopes, D[:, A], phi, consts, A, lower,
           upper, ok=True)
    bad = lower.copy()
    bad[4] -= 0.01
    expect("envelopes off formula", checks.envelopes, D[:, A], phi, consts,
           A, bad, upper, ok=False)
    bad = upper.copy()
    bad[3] = np.nextafter(1.0, 2.0)
    expect("envelope not exact on A", checks.envelopes, D[:, A], phi, consts,
           A, lower, bad, ok=False)
    # phi steeper than K: the formula holds but lower passes upper
    steep = np.array([0.0, 3.0])
    lo_s = np.max(steep[None, :] - K * D[:, A], axis=1)
    hi_s = np.min(steep[None, :] + K * D[:, A], axis=1)
    expect("lower above upper", checks.envelopes, D[:, A], steep, consts, A,
           lo_s, hi_s, ok=False)

    v = 0.5 * (lower + upper)
    expect("lipschitz", checks.lipschitz, D, v, K, ok=True)
    spike = v.copy()
    spike[2] += 0.5
    expect("non-Lipschitz extension", checks.lipschitz, D, spike, K, ok=False)
    expect("within", checks.within, v, -1.0, 2.0, ok=True)
    expect("leaves interval", checks.within, v, 0.0, 0.9, ok=False)
    expect("restriction", checks.restriction, v, A, phi, ok=True)
    off = v.copy()
    off[0] = 1e-300
    expect("restriction not exact", checks.restriction, off, A, phi, ok=False)
    expect("sandwich", checks.sandwich, v, lower, upper, ok=True)
    expect("leaves bracket", checks.sandwich, upper + 0.1, lower, upper,
           ok=False)
    L = np.array([1.0, 2.0])
    expect("anchor rates", checks.anchor_rates, D[:, A], v, phi, L, ok=True)
    expect("anchor rate broken", checks.anchor_rates, D[:, A], spike, phi,
           np.array([1.0, 1.0]), ok=False)

    # two tents on the line, normalised: a partition of unity
    t1 = np.maximum(0.0, 2.0 - x)
    t2 = np.maximum(0.0, x - 0.25)
    M = np.stack([t1, t2]) / (t1 + t2)
    masks = [x < 2.0, x > 0.25]
    expect("partition", checks.partition, M, [0, 1], masks, ok=True)
    neg = M.copy()
    neg[1, 0] -= 1e-3             # member 1 is zero at x = 0
    neg[0, 0] += 1e-3
    expect("member goes negative", checks.partition, neg, [0, 1], masks,
           ok=False)
    expect("sum off one", checks.partition, M * 1.001, [0, 1], masks, ok=False)
    expect("member off its set", checks.partition, M[::-1], [0, 1], masks,
           ok=False)
    got = checks.ball_union_masks(D, [[(0, 0.6)], [(5, 0.9), (3, 0.1)]])
    if [m.tolist() for m in got] != [[True, True, False, False, False, False],
                                     [False, False, False, True, False, True]]:
        failures.append("ball_union_masks: wrong membership")

    f = np.sin(x)
    levels = np.ones_like(x)
    expect("modulus", checks.modulus, D, f, levels, "bounded", ok=True)
    expect("modulus unbounded", checks.modulus, D, f, levels, "unbounded",
           ok=True)
    expect("modulus too small", checks.modulus, D, f, 0.5 * levels,
           "bounded", ok=False)

    lo, hi = f - 0.5, f + 0.5
    expect("strictly inside", checks.strictly_inside, f, lo, hi, ok=True)
    touch = f.copy()
    touch[3] = lo[3]
    expect("selection touches window", checks.strictly_inside, touch, lo, hi,
           ok=False)

    steps = [f + 0.75, f + 0.4, f + 0.2]
    expect("approx", checks.approx_steps, steps, f, ok=True)
    expect("approx not decreasing", checks.approx_steps,
           [f + 0.45, f + 0.45], f, ok=False)
    expect("approx gap too wide", checks.approx_steps,
           [steps[0], f + 0.6], f, ok=False)
    expect("approx touches phi", checks.approx_steps, [f + 0.5, f], f,
           ok=False)

    Mx = inputs.euclidean_matrix(np.random.default_rng(0).uniform(size=(5, 2)))
    bad = Mx.copy()
    bad[0, 4] = bad[4, 0] = Mx[0, 4] + 3.0
    k = int(np.argmin(bad[0, 1:4] + bad[1:4, 4])) + 1
    mag = bad[0, 4] - (bad[0, k] + bad[k, 4])
    expect("triangle witness", checks.triangle_witness, bad, [0, k, 4], mag,
           ok=True)
    expect("triangle witness that holds", checks.triangle_witness, bad,
           [0, k, 3], mag, ok=False)
    expect("triangle magnitude misreported", checks.triangle_witness, bad,
           [0, k, 4], mag / 2, ok=False)

    members = np.stack([0.5 * f, 0.5 * f])
    expect("decomposition", checks.decomposition, f, members, [0, 0], f,
           ok=True)
    expect("member over slice bound", checks.decomposition, f, members,
           [-2, 0], f, ok=False)
    expect("reconstruction off f", checks.decomposition, f, members, [0, 0],
           f + 1e-6, ok=False)
    expect("certificates", checks.certificates_pass, [{"kind": "k", "passed": True}],
           ok=True)
    expect("failed certificate", checks.certificates_pass,
           [{"kind": "k", "passed": True}, {"kind": "j", "passed": False}],
           ok=False)


# ---------------------------------------------------------------------------
# Operation checks on real outputs


def _rewrite_values(path, change):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh]
    v = np.array([float(r[1]) for r in rows])
    v = change(v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{r[0]},{float(x)!r}\n" for r, x in zip(rows, v)))


def _rewrite_wide(path, change):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    M = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]]).T
    M = change(M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n" + "".join(
            f"{p}," + ",".join(repr(float(x)) for x in M[:, p]) + "\n"
            for p in range(M.shape[1])))


def _rewrite_cert(path, change):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload["certificates"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _spike(i):
    def change(v):
        v = v.copy()
        v[i] += 0.5
        return v
    return change


def cli_breakers(w):
    P = w.data["problem"]
    A = P.A
    outside = int(np.setdiff1d(np.arange(w.n), A)[0])

    def out(label, name):
        return os.path.join(w.root, "out", label, name)

    def fail_cert(certs):
        certs[0]["passed"] = False

    def wrong_triple(certs):
        certs[0]["witness"] = [0, 1, 2]

    def touch(v):
        v = v.copy()
        v[3] = P.window_lower[3]
        return v

    def negative(M):
        M = M.copy()
        M[0, int(np.argmax(M[0]))] *= -1.0
        return M

    def flat(M):
        M = M.copy()
        M[1] = M[0]
        return M

    return {
        "certify-metric-cloud": lambda: _rewrite_cert(
            out("certify-metric-cloud", "certificate.json"), fail_cert),
        "certify-metric-grid": lambda: _rewrite_cert(
            out("certify-metric-grid", "certificate.json"), fail_cert),
        "certify-metric-graph": lambda: _rewrite_cert(
            out("certify-metric-graph", "certificate.json"), fail_cert),
        "certify-metric-matrix": lambda: _rewrite_cert(
            out("certify-metric-matrix", "certificate.json"), fail_cert),
        "certify-metric-perturbed": lambda: _rewrite_cert(
            out("certify-metric-perturbed", "certificate.json"), wrong_triple),
        "extend": lambda: _rewrite_values(out("extend", "extension.csv"),
                                          _spike(outside)),
        "extend-pointwise": lambda: _rewrite_values(
            out("extend-pointwise", "extension.csv"), lambda v: v + 0.3),
        "pou": lambda: _rewrite_wide(out("pou", "members.csv"), negative),
        "decompose": lambda: _rewrite_values(
            out("decompose", "reconstruction.csv"), _spike(0)),
        "modulus": lambda: _rewrite_values(
            out("modulus", "levels_unbounded.csv"), lambda v: 1e-3 * v),
        "extend-local": lambda: _rewrite_values(
            out("extend-local", "extension.csv"), _spike(int(A[0]))),
        "select": lambda: _rewrite_values(out("select", "selection.csv"), touch),
        "insert": lambda: _rewrite_values(
            out("insert", "selection.csv"),
            lambda v: np.where(np.arange(v.size) == A[0], v + 1e-9, v)),
        "approx": lambda: _rewrite_wide(out("approx", "approx.csv"), flat),
    }


def lib_breakers():
    def extend(r):
        lower, upper, v, certs, duality, draws = r
        return (lower, upper, _spike(1)(v), certs, duality, draws)

    def pointwise(r):
        lower, upper, v, W = r
        return (lower, upper, v, 0.5 * W)

    def pou(r):
        members, sets, certs = r
        M = members[0].copy()
        M[0, int(np.argmax(M[0]))] = -1e-6
        return ([M] + members[1:], sets, certs)

    def modulus(r):
        return [(rule, 1e-3 * levels, worst) for rule, levels, worst in r]

    return {"extend": extend, "extend-pointwise": pointwise, "pou": pou,
            "modulus": modulus}


def operation_checks(lipkit, work):
    import checks
    import workloads
    for name, cls in workloads.WORKLOADS.items():
        w = cls(lipkit, 60, 60) if name == "cli-cloud" else cls(lipkit, 200)
        w.setup(7, os.path.join(work, name))
        w.prepare()
        breakers = cli_breakers(w) if name == "cli-cloud" else lib_breakers()
        for op in w.operations():
            tag = f"{name} {op.label}"
            result = op.run()
            if op.expect is not None and result != op.expect:
                failures.append(f"{tag}: exit {result}, expected {op.expect}")
                continue
            try:
                op.check(result)
            except checks.CheckFailed as e:
                failures.append(f"{tag}: real output rejected ({e})")
                continue
            breaker = breakers[op.label]
            if op.expect is None:
                broken = breaker(result)
            else:
                breaker()
                broken = result
            cases[0] += 1
            try:
                op.check(broken)
                failures.append(f"{tag}: broken output accepted")
            except checks.CheckFailed:
                pass
            if op.label == "certify-metric-perturbed":
                status_cases(workloads, op, w)


def status_cases(workloads, op, w):
    """run.run_op on the perturbed matrix's operation with a forged exit
    status: a false PASS must be a 'check' failure (so the run is not
    correct), an input error a 'status' failure only."""
    def passed(certs):
        certs[0]["passed"] = True
        certs[0]["witness"] = None
    _rewrite_cert(os.path.join(w.root, "out", op.label, "certificate.json"),
                  passed)
    for code, kind in ((0, "check"), (1, "status")):
        cases[0] += 1
        log = []
        forged = workloads.Operation(op.pipeline, op.label, lambda: code,
                                     op.check, op.expect)
        if run.run_op(forged, log) is not None or \
                [e["failure"] for e in log] != [kind]:
            failures.append(f"{op.label} exiting {code}: logged "
                            f"{[e['failure'] for e in log]}, wanted [{kind!r}]")


def main() -> int:
    lipkit, _ = run.load_lipkit()
    primitive_checks()
    work = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        operation_checks(lipkit, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {cases[0]} cases, "
          + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
