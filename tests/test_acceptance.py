"""End-to-end acceptance battery.

Each test prints one pass/fail line for its criterion; the whole file
is meant to run in well under a minute.
"""

import json

import numpy as np
import pytest

from helpers import make_ball_cover, make_instance, make_space
from lipkit import (Constant, Interval, LocalWitness, MetricSpace,
                    PointwiseWitness, PreconditionError, Subset, Tabulated,
                    certify_local_witness, check_k_lipschitz, decompose,
                    duality_check, extend_to_interval, frolik_pou,
                    global_lip, local_extend, mcshane_envelopes,
                    modulus_witness, pointwise_envelopes, pou_report,
                    random_k_extension, staircase, staircase_partial_sum,
                    witness_from_balls, witness_from_modulus)
from lipkit.cli import main
from lipkit.fixtures import (approx_targets, cusp_curve, dowker_step,
                             reciprocal_on_ray, sin_reciprocal_on_interval,
                             square_on_grid)
from lipkit.selection import (IntervalMapping, decreasing_approx, select,
                              select_extend)

TOL = 1e-9

FIXTURES = (square_on_grid, reciprocal_on_ray, sin_reciprocal_on_interval)


def report(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def battery():
    """200 seeded instances over all four backends, n <= 40, with
    their envelope pairs."""
    rng = np.random.default_rng(20260822)
    out = []
    for _ in range(200):
        space, A, phi, K = make_instance(rng)
        out.append((space, A, phi, K, mcshane_envelopes(A, phi, K)))
    return out


def test_criterion_01_envelopes(battery):
    worst = 0.0
    ok = True
    for space, A, phi, K, pair in battery:
        lo, hi = pair.lower.values(), pair.upper.values()
        for side in (pair.lower, pair.upper):
            cert = check_k_lipschitz(side, K, tol=TOL)
            ok = ok and cert.passed
            worst = max(worst, cert.worst_violation)
        ok = ok and (lo[A.members] == phi).all() and (hi[A.members] == phi).all()
        ok = ok and (lo <= hi).all()
        rep = duality_check(A, phi, K)
        ok = ok and rep.exact and rep.max_abs_diff == 0.0
    report(1, "envelopes on 200 seeded instances", ok,
           f"K-Lipschitz worst excess {worst:.3e}, tol 1e-9; "
           f"restriction and duality exact")


def test_criterion_02_sandwich(battery):
    worst = -np.inf
    ok = True
    for idx, (space, A, phi, K, pair) in enumerate(battery):
        lo, hi = pair.lower.values(), pair.upper.values()
        draws = [random_k_extension(A, phi, K, seed=1000 * idx + j).values()
                 for j in range(10)]
        rng = np.random.default_rng(idx)
        for _ in range(5):
            u, v = rng.integers(10, size=2)
            lam = float(rng.uniform())
            draws.append(lam * draws[u] + (1.0 - lam) * draws[v])
        for f in draws:
            excess = float(np.maximum(lo - f, f - hi).max())
            worst = max(worst, excess)
            ok = ok and excess <= TOL
    report(2, "sandwich band on 10 extensions + 5 mixes per instance", ok,
           f"worst band excess {worst:.3e}, tol 1e-9")


def test_criterion_03_interval_extension(battery):
    worst_range = -np.inf
    worst_margin = -np.inf
    ok = True
    for space, A, phi, K, pair in battery:
        a, b = float(phi.min()) - 0.3, float(phi.max()) + 0.7
        f = extend_to_interval(A, phi, K, Interval.closed(a, b))
        v = f.values()
        worst_range = max(worst_range, float((v - b).max()),
                          float((a - v).max()))
        ok = ok and (v >= a).all() and (v <= b).all()

        dA = space.pairwise()[:, A.members].min(axis=1)
        off = np.ones(space.n, dtype=bool)
        off[A.members] = False
        need = np.minimum(K * dA, b - a) / 2.0 - TOL
        margin = np.minimum(v - a, b - v)
        if off.any():
            gap = float((need - margin)[off].max())
            worst_margin = max(worst_margin, gap)
            ok = ok and gap <= 0.0

        above = extend_to_interval(A, phi, K, Interval.at_least(a))
        ok = ok and np.array_equal(above.values(), pair.upper.values())
        ok = ok and (above.values() >= a).all()
        below = extend_to_interval(A, phi, K, Interval.at_most(b))
        ok = ok and np.array_equal(below.values(), pair.lower.values())
        ok = ok and (below.values() <= b).all()
        line = extend_to_interval(A, phi, K, Interval.real_line())
        ok = ok and np.array_equal(line.values(), pair.lower.values())
    report(3, "interval extension range and margins", ok,
           f"range excess {max(worst_range, 0.0):.3e}, "
           f"margin shortfall {max(worst_margin, 0.0):.3e}")


def test_criterion_04_pointwise(battery):
    planted = 0
    caught = 0
    rng = np.random.default_rng(4)
    for _ in range(30):
        space = make_space(rng, 20)
        i, j = rng.choice(space.n, size=2, replace=False)
        d = space.dist(int(i), int(j))
        A = Subset(space, [int(i), int(j)])
        c = float(rng.uniform(1.0, 2.0))
        vals = np.zeros(2)
        vals[A.members.tolist().index(int(j))] = 1.5 * c * d
        planted += 1
        try:
            pointwise_envelopes(A, vals, PointwiseWitness(
                {int(i): c, int(j): c}))
        except PreconditionError as e:
            caught += int(set(e.witness) == {int(i), int(j)})
    ok = planted == caught == 30

    worst = -np.inf
    exact = True
    for space, A, phi, K, pair in battery[:50]:
        rng = np.random.default_rng(int(space.n))
        a, b = float(phi.min()), float(phi.max())
        rates = {int(p): float(max(K, 1.0) + rng.uniform(0.0, 2.0))
                 for p in A.members}
        env = pointwise_envelopes(A, phi, PointwiseWitness(rates))
        dA = space.pairwise()[:, A.members].min(axis=1)
        breach = max(float((env.lower.values() - (b - dA)).max()),
                     float(((a + dA) - env.upper.values()).max()))
        worst = max(worst, breach)
        ok = ok and breach <= TOL

        Kc = max(K, 1.0)
        flat = pointwise_envelopes(A, phi, PointwiseWitness(
            {int(p): Kc for p in A.members}))
        plain = mcshane_envelopes(A, phi, Kc)
        exact = exact and np.array_equal(flat.lower.values(),
                                         plain.lower.values())
        exact = exact and np.array_equal(flat.upper.values(),
                                         plain.upper.values())
    ok = ok and exact
    report(4, "pointwise precheck, display bounds, degeneration", ok,
           f"{caught}/{planted} planted violations caught, display breach "
           f"{worst:.3e} (tol 1e-9), constant-witness exact: {exact}")


def test_criterion_05_staircase():
    t = np.geomspace(1e-3, 10.0, 200)
    sums = np.zeros_like(t)
    worst = 0.0
    exact = True
    coz = True
    for k in range(1, 51):
        closed = staircase(k, t)
        recursive = np.minimum(float(k), 1.0 / t) - sums
        worst = max(worst, float(np.abs(closed - recursive).max()))
        sums = sums + closed
        exact = exact and (sums == staircase_partial_sum(k, t)).all()
        if k >= 2:
            coz = coz and (t[closed > 0.0] < 1.0 / (k - 1)).all()
    ok = worst <= 1e-12 and exact and coz
    report(5, "staircase closed form, partial sums, cozero sets", ok,
           f"recursion gap {worst:.3e} (tol 1e-12), partial sums exact: "
           f"{exact}, coz containment: {coz}")


def test_criterion_06_frolik_pipeline():
    rng = np.random.default_rng(2026)
    worst = 0.0
    ok = True
    for _ in range(50):
        space = make_space(rng, 25, kinds=(1, 3))
        cover = witness_from_balls(space, make_ball_cover(rng, space))
        pou = frolik_pou(cover)
        M = np.stack([m.values() for m in pou.members])
        residual = float(np.abs(M.sum(axis=0) - 1.0).max())
        worst = max(worst, residual)
        ok = ok and residual <= TOL
        ok = ok and pou_report(pou, TOL).passed
        for i, m in enumerate(pou.members):
            ok = ok and global_lip(m).finite
            w = cover.witnesses[pou.set_index[i]].values()
            ok = ok and (w[M[i] > 0.0] > 0.0).all()
        ref = pou.refinement
        G = np.stack([g.values() for g in ref.gammas])
        ok = ok and (G.max(axis=0) > 0.0).all()
        for p in range(space.n):
            ok = ok and (G[ref.active_bound(p):, p] == 0.0).all()
    report(6, "staircase partitions over 50 seeded ball covers", ok,
           f"worst sum residual {worst:.3e} (tol 1e-9), activity and "
           f"refinement sound")


def test_criterion_07_decomposition():
    worst = 0.0
    ok = True
    for build in FIXTURES:
        space, f, witness = build()
        dec = decompose(f, witness)
        res = dec.residual()
        worst = max(worst, res)
        ok = ok and res <= TOL
        for m, j in zip(dec.members, dec.slice_exponents):
            v = m.values()
            ok = ok and float(np.abs(v).max()) <= 2.0 ** j + TOL
            est = global_lip(m)
            ok = ok and est.finite
            ok = ok and check_k_lipschitz(m, est.value, tol=TOL).passed
    # negative control: a dropped member must break reconstruction
    space, f, witness = square_on_grid()
    dec = decompose(f, witness)
    M = np.stack([m.values() for m in dec.members])
    drop = int(np.argmax(np.abs(M).max(axis=1)))
    gap = np.abs(f.values() - (M.sum(axis=0) - M[drop]))
    culprit = int(np.argmax(gap))
    negative = float(gap[culprit]) > TOL
    ok = ok and negative
    report(7, "bounded decomposition of the three fixtures", ok,
           f"worst residual {worst:.3e} (tol 1e-9), dropped-member control "
           f"fails at sample {culprit}")


def test_criterion_08_modulus():
    worst = -np.inf
    ok = True
    for build in FIXTURES:
        space, f, witness = build()
        mod = modulus_witness(f, witness)
        v = f.values()
        D = space.pairwise()
        L = mod.matrix()
        off = D > 0.0
        excess = float((np.abs(v[:, None] - v[None, :])
                        - L * D * (1.0 + TOL))[off].max())
        worst = max(worst, excess)
        ok = ok and excess <= 0.0
        ok = ok and (mod.levels >= mod.cover.eta).all()
        ok = ok and check_k_lipschitz(mod.level_field,
                                      mod.envelope_constant).passed
        deltas = [float(D[p][D[p] > 0.0].min()) for p in range(space.n)]
        back = witness_from_modulus(mod, range(space.n), deltas)
        ok = ok and certify_local_witness(f, back).passed
    report(8, "modulus witness bounds and converse", ok,
           f"worst pair excess {worst:.3e} (rel tol 1e-9)")


def test_criterion_09_local_extension():
    space = MetricSpace.from_grid(0.1, 3.0, 0.1)
    t = space.coords[:, 0]
    ids = np.flatnonzero((t >= 1.0 - 1e-12) & (t <= 2.0 + 1e-12))
    A = Subset(space, ids)
    phi = 1.0 / t[ids]
    witness = LocalWitness.from_triples([(int(p), 0.25, 4.0) for p in ids])
    out = local_extend(A, phi, witness, Interval.at_least(0.0, open_end=True))
    v = out.values()
    restriction = float(np.abs(v[A.members] - phi).max())
    ok = restriction <= TOL
    ok = ok and (v > 0.0).all()
    ok = ok and certify_local_witness(out, out.local_witness).passed

    cspace, cf, pairs = cusp_curve()
    delta = 4.0 * cspace.dist(*pairs[0])
    uniform = LocalWitness.from_triples(
        [(p, delta, 5.0) for p in range(cspace.n)])
    cert = certify_local_witness(cf, uniform)
    _, (i, j) = cert.witness
    cv = cf.values()
    rejected = (not cert.passed) and i // 2 == j // 2 and cv[i] * cv[j] < 0.0
    ok = ok and rejected
    report(9, "local extension and cusp rejection", ok,
           f"restriction gap {restriction:.3e} (tol 1e-9), range positive, "
           f"cusp refuted by opposite pair ({i}, {j})")


def test_criterion_10_selection():
    ok = True
    space = MetricSpace.from_grid(0.0, 2.0, 0.25)
    m = IntervalMapping(space, Constant(space, 0.0), Constant(space, 1.0))
    ok = ok and m.strict_mask(select(m)).all()

    sspace, lower, upper = dowker_step(0.25)
    sm = IntervalMapping(sspace, lower, upper)
    ok = ok and sm.strict_mask(select(sm)).all()

    t = Tabulated(space, np.abs(space.coords[:, 0] - 1.0))
    for half in (IntervalMapping(space, t, None),
                 IntervalMapping(space, None, t - Constant(space, 0.5))):
        ok = ok and half.strict_mask(select(half)).all()

    ray = MetricSpace.from_grid(0.1, 3.0, 0.1)
    rt = ray.coords[:, 0]
    ids = np.flatnonzero((rt >= 1.0 - 1e-12) & (rt <= 2.0 + 1e-12))
    A = Subset(ray, ids)
    phi = 1.0 / rt[ids]
    witness = LocalWitness.from_triples([(int(p), 0.25, 4.0) for p in ids])
    window = IntervalMapping(ray, Constant(ray, 0.0), Constant(ray, 2.0))
    f = select_extend(A, phi, witness, window)
    exact = np.array_equal(f.values()[A.members], phi)
    ok = ok and exact and window.strict_mask(f).all()

    pinch = True
    aspace, targets = approx_targets(0.25)
    for phi_t in targets:
        chain = decreasing_approx(phi_t, 10)
        pv = phi_t.values()
        prev = None
        for n, g in enumerate(chain, start=1):
            gv = g.values()
            pinch = pinch and (gv > pv).all()
            pinch = pinch and float((gv - pv).max()) < 2.0 ** (1 - n)
            if prev is not None:
                pinch = pinch and (gv < prev).all()
            prev = gv
    ok = ok and pinch
    report(10, "selection battery and decreasing approximation", ok,
           f"strict windows on all fixtures, agreement exact: {exact}, "
           f"pinch bound 2^(1-n) for n <= 10: {pinch}")


def test_criterion_11_cli(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lo": 0.0, "hi": 2.0, "step": 0.5}))
    subset = tmp_path / "A.json"
    subset.write_text("[0, 4]")
    values = tmp_path / "phi.csv"
    values.write_text("0,0.0\n4,1.0\n")
    out = tmp_path / "out"
    argv = ["extend", "--space", str(space), "--subset", str(subset),
            "--values", str(values), "--k", "1.0", "--seed", "7",
            "--out-dir", str(out)]
    names = ("certificate.json", "extension.csv", "envelope_lower.csv",
             "envelope_upper.csv")
    ok = main(argv) == 0
    first = {name: (out / name).read_bytes() for name in names}
    ok = ok and main(argv) == 0
    identical = all((out / name).read_bytes() == first[name]
                    for name in names)
    ok = ok and identical
    demos_ok = all(main(["demo", fixture, "--out-dir", str(tmp_path / fixture)])
                   == 0
                   for fixture in ("sin-inv-t", "cusp-curve",
                                   "reciprocal-staircase", "dowker-step"))
    ok = ok and demos_ok
    report(11, "CLI determinism and demos", ok,
           f"rerun byte-identical: {identical}, demos exit 0: {demos_ok}")
