"""The benchmark's workloads as lists of operations.

An operation is one CLI invocation (through lipkit.cli.main) or one
library pipeline (through the names lipkit exports).  Its run() is the
timed part: inputs in, certificate out.  Its check() is not timed and
recomputes the guarantees of the output with the benchmark's own
arrays (see checks.py).

Library calls are looked up on the lipkit module at call time, so the
traced run can swap in its span wrappers without touching src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

import checks
import inputs

TOL = 1e-9          # the --tol every operation passes, the CLI default


class Operation:
    """One timed step of a round.

    expect is the exit status a CLI operation must return; library
    operations have none.  run() returns what check() inspects.
    """

    def __init__(self, pipeline, label, run, check, expect=None):
        self.pipeline = pipeline
        self.label = label
        self.run = run
        self.check = check
        self.expect = expect


class Workload:
    """Builds its inputs once per set-up and its operations from them."""

    name = ""

    def setup(self, seed: int, root: str):
        """Make the seeded inputs (and their files); this is timed."""
        raise NotImplementedError

    def prepare(self):
        """Reference arrays for the checks; not timed, not in set-up.
        Operations read them only when checking, so a pass that runs
        operations without checks can skip this."""
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# CLI workload


def _cli(lipkit, argv, out_dir):
    """Run one CLI command into a fresh out_dir; returns its exit status."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return lipkit.cli.main(argv + ["--out-dir", out_dir])


def _certs(out_dir):
    with open(os.path.join(out_dir, "certificate.json"), encoding="utf-8") as fh:
        return json.load(fh)["certificates"]


class CliCloud(Workload):
    """Every data command of the CLI on seeded files for a 2-D cloud."""

    name = "cli-cloud"

    def __init__(self, lipkit, n=inputs.CLOUD_N, decompose_n=inputs.DECOMPOSE_N):
        self.lipkit = lipkit
        self.n = n
        self.decompose_n = decompose_n

    def setup(self, seed, root):
        self.root = root
        self.data = inputs.write_cli_inputs(seed, root, self.n, self.decompose_n)

    def prepare(self):
        P = self.data["problem"]
        self.D = inputs.euclidean_matrix(P.coords)
        self.masks = checks.ball_union_masks(self.D, P.cover)

    def operations(self):
        P = self.data["problem"]
        path = self.data["paths"]
        n, A = self.n, P.A
        K = inputs.SLOPE
        lo, hi = inputs.INTERVAL
        interval = f"--interval={lo!r},{hi!r},closed,closed"
        ops = []

        def op(pipeline, label, argv, check, expect=0):
            out = os.path.join(self.root, "out", label)

            def run():
                shutil.rmtree(out, ignore_errors=True)
                return _cli(self.lipkit, argv, out)
            ops.append(Operation(pipeline, label, run,
                                 lambda _code: check(out), expect))

        def read(out, name):
            return checks.read_values_csv(os.path.join(out, name), n)

        def metric_ok(backend):
            def check(out):
                (cert,) = _certs(out)
                checks.certificates_pass([cert])
                d = cert["details"]
                if d["n"] != n or d["backend"] != backend:
                    raise checks.CheckFailed(f"certified {d['backend']} of "
                                             f"size {d['n']}")
            return check

        def metric_refused(out):
            (cert,) = _certs(out)
            if cert["passed"]:
                raise checks.CheckFailed("perturbed matrix passed")
            checks.triangle_witness(self.data["matrix_bad"], cert["witness"],
                                    cert["worst_violation"])

        for label, backend, space in (
                ("cloud", "euclidean", "cloud.csv"), ("grid", "grid", "grid.json"),
                ("graph", "graph", "graph.json"),
                ("matrix", "matrix", "matrix.csv")):
            op("certify_metric", f"certify-metric-{label}",
               ["certify-metric", "--space", path[space]], metric_ok(backend))
        op("certify_metric", "certify-metric-perturbed",
           ["certify-metric", "--space", path["matrix_bad.csv"]],
           metric_refused, expect=2)

        def extend_ok(out):
            checks.certificates_pass(_certs(out))
            lower = read(out, "envelope_lower.csv")
            upper = read(out, "envelope_upper.csv")
            v = read(out, "extension.csv")
            D = self.D
            checks.envelopes(D[:, A], P.phi, np.full(A.size, K), A, lower, upper)
            for field in (lower, upper, v):
                checks.lipschitz(D, field, K)
            checks.within(v, lo, hi)
            checks.restriction(v, A, P.phi)

        op("extend", "extend",
           ["extend", "--space", path["cloud.csv"], "--subset", path["A.json"],
            "--values", path["phi.csv"], "--k", repr(K), interval], extend_ok)

        def pointwise_ok(out):
            checks.certificates_pass(_certs(out))
            v = read(out, "extension.csv")
            checks.within(v, lo, hi)
            checks.restriction(v, A, P.phi)
            checks.anchor_rates(self.D[:, A], v, P.phi,
                                np.maximum(P.pointwise, 1.0))

        op("extend_pointwise", "extend-pointwise",
           ["extend-pointwise", "--space", path["cloud.csv"],
            "--subset", path["A.json"], "--values", path["phi.csv"],
            "--witness", path["witness_pointwise.json"], interval], pointwise_ok)

        def pou_ok(out):
            checks.certificates_pass(_certs(out))
            names, M = checks.read_wide_csv(os.path.join(out, "members.csv"))
            sets = [int(name.split("_s")[1]) for name in names]
            checks.partition(M, sets, self.masks)

        op("pou", "pou", ["pou", "--space", path["cloud.csv"],
                          "--cover", path["cover.json"]], pou_ok)

        fixed = self.data["fixed"]

        def decompose_ok(out):
            checks.certificates_pass(_certs(out))
            names, M = checks.read_wide_csv(os.path.join(out, "members.csv"))
            exps = [int(name.split("_b")[1]) for name in names]
            recon = checks.read_values_csv(
                os.path.join(out, "reconstruction.csv"), fixed.n)
            checks.decomposition(fixed.f, M, exps, recon)

        op("decompose", "decompose",
           ["decompose", "--space", path["fixed_cloud.csv"],
            "--values", path["fixed_f.csv"],
            "--witness", path["fixed_witness.json"]], decompose_ok)

        def modulus_ok(out):
            checks.certificates_pass(_certs(out))
            for rule in ("bounded", "unbounded"):
                checks.modulus(self.D, P.f, read(out, f"levels_{rule}.csv"),
                               rule)

        op("modulus", "modulus",
           ["modulus", "--space", path["cloud.csv"], "--values", path["f.csv"],
            "--witness", path["witness_local.json"]], modulus_ok)

        def local_ok(out):
            checks.certificates_pass(_certs(out))
            v = read(out, "extension.csv")
            checks.within(v, lo, hi)
            # the weighted sum returns phi up to the unit-sum residual
            checks.restriction(v, A, P.phi, tol=checks.TOL)

        op("extend_local", "extend-local",
           ["extend-local", "--space", path["cloud.csv"],
            "--subset", path["A.json"], "--values", path["phi.csv"],
            "--witness", path["witness_A.json"], interval], local_ok)

        def select_ok(out):
            checks.certificates_pass(_certs(out))
            checks.strictly_inside(read(out, "selection.csv"),
                                   P.window_lower, P.window_upper)

        op("select", "select", ["select", "--space", path["cloud.csv"],
                                "--values", path["window.json"]], select_ok)

        def insert_ok(out):
            checks.certificates_pass(_certs(out))
            v = read(out, "selection.csv")
            checks.strictly_inside(v, P.window_lower, P.window_upper)
            checks.restriction(v, A, P.f[A])

        # no --witness: the CLI derives one on A itself
        op("insert", "insert",
           ["insert", "--space", path["cloud.csv"],
            "--values", path["window_insert.json"], "--subset", path["A.json"]],
           insert_ok)

        def approx_ok(out):
            checks.certificates_pass(_certs(out))
            _, steps = checks.read_wide_csv(os.path.join(out, "approx.csv"))
            checks.approx_steps(list(steps), P.approx_phi)

        op("approx", "approx",
           ["approx", "--space", path["cloud.csv"],
            "--values", path["window_approx.json"],
            "--n-max", str(inputs.APPROX_STEPS)], approx_ok)
        return ops


# ---------------------------------------------------------------------------
# Library workloads


class LibWorkload(Workload):
    """The extend, extend-pointwise, pou and modulus pipelines through the
    library, each making the certificate calls of its CLI command, on a
    space built with validate=False."""

    def __init__(self, lipkit, n=inputs.LIB_N):
        self.lipkit = lipkit
        self.n = n

    def make_problem(self, seed):
        raise NotImplementedError

    def make_space(self):
        raise NotImplementedError

    def setup(self, seed, root):
        self.problem = self.make_problem(seed)

    def prepare(self):
        P = self.problem
        self.D = inputs.euclidean_matrix(P.coords)
        self.masks = checks.ball_union_masks(self.D, P.cover)
        if self.make_space().n != self.n:
            raise RuntimeError(f"{self.name}: space size differs from {self.n}")

    def operations(self):
        L = self.lipkit
        P = self.problem
        A = P.A
        K = inputs.SLOPE
        lo, hi = inputs.INTERVAL

        def extend():
            space = self.make_space()
            sub = L.Subset(space, A)
            out = L.extend_to_interval(sub, P.phi, K, L.Interval.closed(lo, hi), TOL)
            pair = out.envelopes
            certs = [L.check_k_lipschitz(pair.lower, K, tol=TOL),
                     L.check_k_lipschitz(pair.upper, K, tol=TOL)]
            duality = L.duality_check(sub, P.phi, K, TOL)
            # draw seeds 0, 1, 2 as the CLI's default --seed 0 gives them
            draws = [L.random_k_extension(sub, P.phi, K, seed=i, tol=TOL).values()
                     for i in range(3)]
            return (pair.lower.values(), pair.upper.values(), out.values(),
                    certs, duality, draws)

        def extend_ok(result):
            lower, upper, v, certs, duality, draws = result
            checks.certificates_pass(certs)
            if not duality.exact:
                raise checks.CheckFailed(f"duality gap {duality.max_abs_diff!r}")
            D = self.D
            checks.envelopes(D[:, A], P.phi, np.full(A.size, K), A, lower, upper)
            for field in [lower, upper, v] + draws:
                checks.lipschitz(D, field, K)
            for g in draws:
                checks.sandwich(g, lower, upper)
                checks.restriction(g, A, P.phi)
            checks.within(v, lo, hi)
            checks.restriction(v, A, P.phi)

        def pointwise():
            space = self.make_space()
            witness = L.PointwiseWitness(
                {int(p): float(c) for p, c in zip(A, P.pointwise)})
            out = L.pointwise_extend_to_interval(
                L.Subset(space, A), P.phi, witness, L.Interval.closed(lo, hi), TOL)
            pair = out.envelopes
            w = out.pointwise_witness
            return (pair.lower.values(), pair.upper.values(), out.values(),
                    np.array([w.constants[p] for p in range(space.n)]))

        def pointwise_ok(result):
            lower, upper, v, W = result
            D = self.D
            L_A = np.maximum(P.pointwise, 1.0)
            checks.envelopes(D[:, A], P.phi, L_A, A, lower, upper)
            checks.within(v, lo, hi)
            checks.restriction(v, A, P.phi)
            checks.anchor_rates(D[:, A], v, P.phi, L_A)
            # the returned witness must certify the output it came with
            checks.anchor_rates(D, v, v, W)

        def pou():
            space = self.make_space()
            cover = L.witness_from_balls(space, P.cover)
            family = L.frolik_pou(cover, TOL)
            grouped = L.index_subordinate(family)
            members = [np.stack([m.values() for m in fam.members])
                       for fam in (family, grouped)]
            certs = [L.pou_report(family, TOL), L.pou_report(grouped, TOL)]
            return members, [family.set_index, grouped.set_index], certs

        def pou_ok(result):
            members, sets, certs = result
            checks.certificates_pass(certs)
            for M, s in zip(members, sets):
                checks.partition(M, s, self.masks)

        def modulus():
            space = self.make_space()
            f = L.Tabulated(space, P.f)
            witness = L.LocalWitness.from_triples(
                [(p, P.radius, K) for p in range(space.n)])
            out = []
            for rule in ("bounded", "unbounded"):
                m = L.modulus_witness(f, witness, rule, TOL)
                worst, _pair = m.certify(rel_tol=TOL)
                out.append((rule, m.levels, worst))
            return out

        def modulus_ok(result):
            for rule, levels, worst in result:
                if worst > 0.0:
                    raise checks.CheckFailed(f"{rule} modulus certificate "
                                             f"excess {worst!r}")
                checks.modulus(self.D, P.f, levels, rule)

        return [Operation("extend", "extend", extend, extend_ok),
                Operation("extend_pointwise", "extend-pointwise", pointwise,
                          pointwise_ok),
                Operation("pou", "pou", pou, pou_ok),
                Operation("modulus", "modulus", modulus, modulus_ok)]


class LibGrid1d(LibWorkload):
    name = "lib-grid1d"

    def make_problem(self, seed):
        return inputs.grid1d_problem(seed, self.n)

    def make_space(self):
        return self.lipkit.MetricSpace.from_grid(0.0, 1.0, 1.0 / (self.n - 1),
                                                 validate=False)


class LibCloud2d(LibWorkload):
    name = "lib-cloud2d"

    def make_problem(self, seed):
        return inputs.cloud_problem(seed, self.n)

    def make_space(self):
        return self.lipkit.MetricSpace.from_points(self.problem.coords,
                                                   validate=False)


WORKLOADS = {w.name: w for w in (CliCloud, LibGrid1d, LibCloud2d)}
