"""Command line front end.

Commands: certify-metric, extend, extend-pointwise, pou, decompose,
modulus, extend-local, select, insert, approx, and demo with the
fixtures sin-inv-t, cusp-curve, reciprocal-staircase, dowker-step.
Every command writes value CSVs as needed plus a certificate JSON
embedding the tool version and the resolved configuration; outputs are
byte-identical across reruns of the same configuration.  Exit codes:
0 when all certificates pass, 2 when a certificate fails (the file is
still written), 1 on malformed input or parameters out of range.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import _pairs, fixtures
from .certify import (Certificate, certify_local_witness, check_k_lipschitz,
                      pou_report, random_k_extension)
from .errors import (CoverError, DomainError, GridError, InputError,
                     PreconditionError)
from .extension import (_pointwise_excess, duality_check, extend_to_interval,
                        pointwise_extend_to_interval)
from .io import (field_on_space, load_cover, load_local_witness, load_mapping,
                 load_pointwise_witness, load_space, load_subset,
                 save_values_csv, save_wide_csv, values_on_subset,
                 write_certificates)
from .local_lipschitz import (LocalWitness, decompose, generate_local_witness,
                              local_extend, modulus_witness)
from .metric_space import _DEFAULT_TOL, MetricSpace
from .partition_of_unity import (frolik_pou, index_subordinate, staircase,
                                 staircase_partial_sum)
from .scalar_field import DistanceTo, Interval, Tabulated, global_lip
from .selection import (_DEPTHS, IntervalMapping, decreasing_approx,
                        graph_open_check, insert, select)

_TOL_FLOOR = 1e-12
_TOL_CEILING = 1e-3
_DEMOS = ("sin-inv-t", "cusp-curve", "reciprocal-staircase", "dowker-step")


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as input errors (exit 1)
    instead of exiting with argparse's own status."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--space", help="space file: distance matrix or "
                        "point cloud CSV, grid or graph JSON")
    shared.add_argument("--subset", help="JSON array of sample ids")
    shared.add_argument("--values", help="value CSV (id,value), or the "
                        "window JSON for select/insert/approx")
    shared.add_argument("--witness", help="witness JSON")
    shared.add_argument("--cover", help="cover JSON")
    shared.add_argument("--k", type=float, help="global Lipschitz constant")
    shared.add_argument("--interval",
                        help="target interval lo,hi,open|closed,open|closed")
    shared.add_argument("--grid-depth", type=int,
                        help="deepest dyadic level grid the selection may use")
    shared.add_argument("--n-max", type=int, default=5,
                        help="steps of the decreasing approximation")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help="tolerance override, within [1e-12, 1e-3]")
    shared.add_argument("--out-dir", default=".")

    parser = _Parser(prog="lipkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in ("certify-metric", "extend", "extend-pointwise", "pou",
                 "decompose", "modulus", "extend-local", "select", "insert",
                 "approx"):
        sub.add_parser(name, parents=[shared])
    demo = sub.add_parser("demo", parents=[shared])
    demo.add_argument("fixture", choices=_DEMOS)
    return parser


def _check_tol(tol: float) -> float:
    if not (_TOL_FLOOR <= tol <= _TOL_CEILING):
        raise InputError(
            f"--tol must lie in [{_TOL_FLOOR:g}, {_TOL_CEILING:g}], got {tol:g}")
    return float(tol)


def _depth_ladder(cap):
    if cap is None:
        return _DEPTHS
    cap = int(cap)
    if cap < 1:
        raise InputError(f"--grid-depth must be positive, got {cap}")
    return tuple([d for d in _DEPTHS if d < cap] + [cap])


def _resolved_config(args, depths) -> dict:
    return {
        "command": args.command,
        "fixture": getattr(args, "fixture", None),
        "space": args.space,
        "subset": args.subset,
        "values": args.values,
        "witness": args.witness,
        "cover": args.cover,
        "k": args.k,
        "interval": args.interval,
        "grid_depths": list(depths),
        "n_max": args.n_max,
        "seed": args.seed,
        "tol": args.tol,
        "out_dir": args.out_dir,
    }


def _need(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise InputError(f"--{name} is required for {args.command}")


def _parse_interval(text):
    return Interval.real_line() if text is None else Interval.parse(text)


# ---------------------------------------------------------------------------
# Shared certificate builders


def _restriction_cert(out_values, A, vals, tol) -> Certificate:
    diff = np.abs(out_values[A.members] - vals)
    worst = float(diff.max()) if diff.size else 0.0
    p = int(A.members[int(np.argmax(diff))]) if diff.size else None
    return Certificate("restriction", worst <= tol, worst, tol, (p,),
                       details={"exact": worst == 0.0})


def _containment_cert(values, interval, tol) -> Certificate:
    over = values - interval.hi if interval.bounded_above else np.full_like(values, -math.inf)
    under = interval.lo - values if interval.bounded_below else np.full_like(values, -math.inf)
    worst = float(np.maximum(over, under).max())
    p = int(np.argmax(np.maximum(over, under)))
    return Certificate("containment", worst <= tol, max(worst, 0.0), tol, (p,),
                       details={"interval": str(interval)})


def _strictness_cert(mapping, f) -> Certificate:
    v = f.values()
    margins = np.full(v.size, math.inf)
    if mapping.lower is not None:
        margins = np.minimum(margins, v - mapping.lower.values())
    if mapping.upper is not None:
        margins = np.minimum(margins, mapping.upper.values() - v)
    if not np.isfinite(margins).any():
        return Certificate("strictness", True, 0.0, 0.0,
                           details={"min_margin": "inf"})
    p = int(np.argmin(margins))
    m = float(margins[p])
    details = {"min_margin": m}
    for attr in ("grid_depth", "margin"):
        if hasattr(f, attr):
            details[attr] = getattr(f, attr)
    if hasattr(f, "chosen_levels"):
        details["chosen_levels"] = list(f.chosen_levels)
    return Certificate("strictness", m > 0.0, -m, 0.0, (p,), details)


# ---------------------------------------------------------------------------
# Commands


def _cmd_certify_metric(args, tol, depths, out_dir):
    _need(args, "space")
    space = load_space(args.space, tol, validate=False)
    report = space.validate(tol)
    worst = report.worst()
    return [Certificate(
        "metric", report.ok,
        0.0 if report.ok else float(worst.magnitude), tol,
        None if report.ok else tuple(worst.ids),
        details={
            "n": space.n,
            "backend": space.backend,
            "triangle": report.triangle,
            "violations": [
                {"kind": v.kind, "ids": list(v.ids), "magnitude": v.magnitude}
                for v in report.violations],
        })]


def _cmd_extend(args, tol, depths, out_dir):
    _need(args, "space", "subset", "values", "k")
    space = load_space(args.space, tol)
    A = load_subset(args.subset, space)
    vals = values_on_subset(args.values, A)
    K = float(args.k)
    interval = _parse_interval(args.interval)

    out = extend_to_interval(A, vals, K, interval, tol)
    pair = out.envelopes
    lower, upper, v = pair.lower.values(), pair.upper.values(), out.values()
    save_values_csv(os.path.join(out_dir, "envelope_lower.csv"), lower)
    save_values_csv(os.path.join(out_dir, "envelope_upper.csv"), upper)
    save_values_csv(os.path.join(out_dir, "extension.csv"), v)

    certs = []
    for name, field in (("envelope_lower", pair.lower),
                        ("envelope_upper", pair.upper), ("extension", out)):
        c = check_k_lipschitz(field, K, tol=tol)
        c.details["field"] = name
        certs.append(c)
    certs.append(_restriction_cert(v, A, vals, tol))

    gap = lower - upper
    p = int(np.argmax(gap))
    certs.append(Certificate("ordering", float(gap[p]) <= tol,
                             max(float(gap[p]), 0.0), tol, (p,)))

    rep = duality_check(A, vals, K, tol)
    certs.append(Certificate("duality", rep.exact, rep.max_abs_diff, 0.0,
                             None if rep.exact else (rep.witness,)))

    dA = DistanceTo(space, A.members).values()
    for i in range(3):
        g = random_k_extension(A, vals, K, seed=args.seed + i, tol=tol).values()
        worst = float(np.maximum(lower - g, g - upper).max())
        certs.append(Certificate("sandwich", worst <= tol, max(worst, 0.0),
                                 tol, details={"draw": i}))
    if interval.is_bounded:
        certs.append(_containment_cert(v, interval, tol))
        need = np.minimum(K * dA, interval.hi - interval.lo) / 2.0
        margin = np.minimum(v - interval.lo, interval.hi - v)
        off = np.ones(space.n, dtype=bool)
        off[A.members] = False
        short = (need - margin)[off] - tol
        if short.size:
            worst = float(short.max())
            certs.append(Certificate("interior-margin", worst <= 0.0,
                                     max(worst, 0.0), tol,
                                     (int(np.flatnonzero(off)[int(np.argmax(short))]),)))
    return certs


def _cmd_extend_pointwise(args, tol, depths, out_dir):
    _need(args, "space", "subset", "values", "witness")
    space = load_space(args.space, tol)
    A = load_subset(args.subset, space)
    vals = values_on_subset(args.values, A)
    witness = load_pointwise_witness(args.witness)
    interval = _parse_interval(args.interval)

    out = pointwise_extend_to_interval(A, vals, witness, interval, tol)
    v = out.values()
    save_values_csv(os.path.join(out_dir, "extension.csv"), v)

    certs = [_restriction_cert(v, A, vals, tol)]
    excess, at = _pointwise_excess(out, out.pointwise_witness)
    certs.append(Certificate("pointwise-witness", excess <= tol,
                             max(excess, 0.0), tol, at))
    if interval.is_bounded:
        certs.append(_containment_cert(v, interval, tol))
        pair = out.envelopes
        dA = DistanceTo(space, A.members).values()
        lo_breach = pair.lower.values() - (interval.hi - dA)
        hi_breach = (interval.lo + dA) - pair.upper.values()
        worst = float(np.maximum(lo_breach, hi_breach).max())
        certs.append(Certificate("display-bounds", worst <= tol,
                                 max(worst, 0.0), tol))
    return certs


def _cmd_pou(args, tol, depths, out_dir):
    _need(args, "space", "cover")
    space = load_space(args.space, tol)
    cover = load_cover(args.cover, space)
    pou = frolik_pou(cover, tol)
    grouped = index_subordinate(pou)

    names = [f"m{i}_s{pou.set_index[i]}" for i in range(len(pou))]
    save_wide_csv(os.path.join(out_dir, "members.csv"), names, pou.matrix)

    raw = pou_report(pou, tol)
    raw.details["family"] = "staircase"
    raw.details["k_caps"] = list(pou.k_caps)
    regrouped = pou_report(grouped, tol)
    regrouped.details["family"] = "regrouped"
    return [raw, regrouped]


def _cmd_decompose(args, tol, depths, out_dir):
    _need(args, "space", "values", "witness")
    space = load_space(args.space, tol)
    f = field_on_space(args.values, space)
    witness = load_local_witness(args.witness)
    dec = decompose(f, witness, tol)

    names = [f"m{i}_b{j}" for i, j in enumerate(dec.slice_exponents)]
    save_wide_csv(os.path.join(out_dir, "members.csv"), names,
                  [m.values() for m in dec.members])
    save_values_csv(os.path.join(out_dir, "reconstruction.csv"),
                    dec.series.values())

    certs = [dec.certificate]
    res = dec.residual()
    certs.append(Certificate("reconstruction", res <= tol, res, tol,
                             details={"members": len(dec.members)}))
    worst_bound = -math.inf
    for m, j in zip(dec.members, dec.slice_exponents):
        worst_bound = max(worst_bound,
                          float(np.abs(m.values()).max()) - 2.0 ** j)
    certs.append(Certificate("member-bounds", worst_bound <= tol,
                             max(worst_bound, 0.0), tol,
                             details={"slice_exponents": list(dec.slice_exponents)}))
    certs.append(pou_report(dec.partition, tol))
    return certs


def _cmd_modulus(args, tol, depths, out_dir):
    _need(args, "space", "values", "witness")
    space = load_space(args.space, tol)
    f = field_on_space(args.values, space)
    witness = load_local_witness(args.witness)

    certs = []
    for rule in ("bounded", "unbounded"):
        m = modulus_witness(f, witness, rule, tol)
        save_values_csv(os.path.join(out_dir, f"levels_{rule}.csv"), m.levels)
        worst, pair = m.certify(rel_tol=tol)
        certs.append(Certificate(
            f"modulus-{rule}", worst <= 0.0, max(worst, 0.0), tol, pair,
            details={
                "envelope_constant": m.envelope_constant,
                "level_min": float(m.levels.min()),
                "level_max": float(m.levels.max()),
                "level_dominates_eta": bool(
                    (m.levels >= m.cover.eta.astype(float)).all()),
            }))
    return certs


def _cmd_extend_local(args, tol, depths, out_dir):
    _need(args, "space", "subset", "values", "witness")
    space = load_space(args.space, tol)
    A = load_subset(args.subset, space)
    vals = values_on_subset(args.values, A)
    witness = load_local_witness(args.witness)
    interval = _parse_interval(args.interval)

    out = local_extend(A, vals, witness, interval, tol)
    v = out.values()
    save_values_csv(os.path.join(out_dir, "extension.csv"), v)

    certs = [_restriction_cert(v, A, vals, tol)]
    if interval.is_bounded:
        certs.append(_containment_cert(v, interval, tol))
    cout = certify_local_witness(out, out.local_witness, tol=tol)
    cout.details["direction"] = "output"
    certs.append(cout)
    return certs


def _cmd_select(args, tol, depths, out_dir):
    _need(args, "space", "values")
    space = load_space(args.space, tol)
    lower, upper, _ = load_mapping(args.values, space)
    mapping = IntervalMapping(space, lower, upper)
    f = select(mapping, tol=tol, depths=depths)
    save_values_csv(os.path.join(out_dir, "selection.csv"), f.values())

    strict = _strictness_cert(mapping, f)
    if strict.passed:
        # probe the graph at the worst-margin sample with a quarter of its
        # clearance on each side
        v = f.values()
        gt, ht = mapping.sentinels()
        margin = np.minimum(v - gt, ht - v)
        x = int(np.argmin(margin))
        m = float(margin[x]) / 4.0
        rep = graph_open_check(mapping, x, float(v[x]) - m, float(v[x]) + m)
        strict.details["probe"] = {
            "sample": x, "ok": rep.ok, "radius": rep.radius,
            "counterexample": rep.counterexample}
    return [strict, pou_report(f.partition, tol)]


def _cmd_insert(args, tol, depths, out_dir):
    _need(args, "space", "values")
    space = load_space(args.space, tol)
    lower, upper, phi = load_mapping(args.values, space)
    A = vals = witness = None
    if args.subset is not None:
        A = load_subset(args.subset, space)
        if phi is None:
            raise InputError("insertion through a subset needs a phi entry "
                             "in the window JSON")
        vals = phi.values()[A.members]
        if args.witness is not None:
            witness = load_local_witness(args.witness)
        else:
            # exhaustive witness on A alone, entries centered there
            A.require_nonempty("insertion domain")
            sub = MetricSpace.from_matrix(
                space.pairwise()[np.ix_(A.members, A.members)], validate=False)
            witness = LocalWitness.from_triples(
                (A.members[e.point], e.delta, e.constant)
                for e in generate_local_witness(Tabulated(sub, vals)).entries)
    f = insert(space, lower, upper, A=A, phi=vals, witness=witness,
               tol=tol, depths=depths)
    v = f.values()
    save_values_csv(os.path.join(out_dir, "selection.csv"), v)

    mapping = IntervalMapping(space, lower, upper)
    certs = [_strictness_cert(mapping, f)]
    if A is not None:
        diff = np.abs(v[A.members] - vals)
        worst = float(diff.max()) if diff.size else 0.0
        certs.append(Certificate("agrees-on-subset", worst == 0.0, worst, 0.0,
                                 details={"subset_size": len(A)}))
    return certs


def _cmd_approx(args, tol, depths, out_dir):
    _need(args, "space", "values")
    if args.n_max < 1:
        raise InputError(f"--n-max must be positive, got {args.n_max}")
    space = load_space(args.space, tol)
    _, _, phi = load_mapping(args.values, space)
    if phi is None:
        raise InputError("approx needs a phi entry in the window JSON")
    seq = decreasing_approx(phi, args.n_max, tol, depths=depths)
    cols = [f.values() for f in seq]
    save_wide_csv(os.path.join(out_dir, "approx.csv"),
                  [f"f{n + 1}" for n in range(len(seq))], cols)

    pv = phi.values()
    above = min(float((c - pv).min()) for c in cols)
    decrease = min(float((cols[n] - cols[n + 1]).min())
                   for n in range(len(cols) - 1)) if len(cols) > 1 else math.inf
    gap = max(float((c - pv).max()) - 2.0 ** -n for n, c in enumerate(cols))
    return [
        Certificate("strict-above", above > 0.0, -above, 0.0,
                    details={"min_gap": above}),
        Certificate("strict-decrease", decrease > 0.0,
                    0.0 if math.isinf(decrease) else -decrease, 0.0,
                    details={"steps": len(cols)}),
        Certificate("gap-bound", gap < 0.0, max(gap, 0.0), 0.0,
                    details={"bound": "2^(1-n)"}),
    ]


# ---------------------------------------------------------------------------
# Demos


def _demo_sin_inv_t(args, tol, depths, out_dir):
    space, f, pairs = fixtures.sin_reciprocal_pairs(20)
    v = f.values()
    x = space.coords[:, 0]
    print("crest-trough pairs of sin(1/t): slope = |f(s)-f(t)| / |s-t|")
    print(f"{'k':>3} {'s_k':>14} {'t_k':>14} {'gap':>14} {'slope':>14}")
    for k in (1, 5, 10, 15, 20):
        i, j = pairs[k - 1]
        gap = space.dist(i, j)
        slope = abs(v[i] - v[j]) / gap
        print(f"{k:>3} {x[i]:>14.6e} {x[j]:>14.6e} {gap:>14.6e} {slope:>14.6e}")
    est = global_lip(f, pairs=pairs)
    print(f"largest witnessed pair slope: {est.value:.6e} at pair {est.witness}")
    i, j = pairs[-1]
    ratio = abs(v[i] - v[j]) / space.dist(i, j)
    return [Certificate("demo-sin-inv-t", ratio > 100.0, 0.0, tol,
                        details={"slope_at_20": ratio,
                                 "largest_witnessed": est.value})]


def _demo_cusp_curve(args, tol, depths, out_dir):
    space, f, pairs = fixtures.cusp_curve()
    v = f.values()
    branch = np.arange(0, space.n, 2)
    same = _pairs.max_slope(space, v[branch], branch)[0]
    print("cusp curve u_t = (t^3, t^2), f(u_t) = sign(t) t^2")
    print(f"same-sign pair slopes stay bounded: max {same:.6f}")
    print(f"{'t':>10} {'slope(u_t,u_-t)':>16} {'1/t':>12}")
    ts = np.geomspace(0.05, 1.0, 12)
    worst_rel = 0.0
    for k, (i, j) in enumerate(pairs):
        slope = abs(v[i] - v[j]) / space.dist(i, j)
        r = 1.0 / ts[k]
        worst_rel = max(worst_rel, abs(slope - r) / r)
        print(f"{ts[k]:>10.4f} {slope:>16.6f} {r:>12.6f}")
    passed = same <= 1.0 + tol and worst_rel <= 1e-9
    return [Certificate("demo-cusp-curve", passed, worst_rel, tol,
                        details={"same_sign_max": same,
                                 "opposite_rel_error": worst_rel})]


def _demo_reciprocal_staircase(args, tol, depths, out_dir):
    exact = True
    worst = 0.0
    for t in (0.4, 0.5, 2.0):
        print(f"t = {t:g}, 1/t = {1.0 / t!r}")
        print(f"{'k':>3} {'step_k(t)':>12} {'sum so far':>12} {'min(k,1/t)':>12}")
        running = 0.0
        for k in range(1, 7):
            s = staircase(k, t)
            running = running + s
            target = staircase_partial_sum(k, t)
            exact = exact and (running == target)
            worst = max(worst, abs(running - target))
            print(f"{k:>3} {s:>12g} {running:>12g} {target:>12g}")
        print()
    print("partial sums match min(K, 1/t) exactly" if exact
          else f"partial sums drift by {worst:.3e}")
    return [Certificate("demo-reciprocal-staircase", exact, worst, 0.0)]


def _demo_dowker_step(args, tol, depths, out_dir):
    space, lower, upper = fixtures.dowker_step()
    mapping = IntervalMapping(space, lower, upper)
    f = select(mapping, tol=tol, depths=depths)
    t = space.coords[:, 0]
    lv, uv, v = lower.values(), upper.values(), f.values()
    print("step windows with a gap: lower jumps 0 -> 1, upper 1/2 -> 2 at t = 1")
    print(f"{'t':>6} {'lower':>8} {'f':>12} {'upper':>8}")
    for p in range(space.n):
        print(f"{t[p]:>6.2f} {lv[p]:>8.3f} {v[p]:>12.6f} {uv[p]:>8.3f}")
    cert = _strictness_cert(mapping, f)
    cert.kind = "demo-dowker-step"
    print(f"minimal strictness margin: {cert.details['min_margin']:.6f}")
    return [cert]


_DEMO_HANDLERS = {
    "sin-inv-t": _demo_sin_inv_t,
    "cusp-curve": _demo_cusp_curve,
    "reciprocal-staircase": _demo_reciprocal_staircase,
    "dowker-step": _demo_dowker_step,
}


def _cmd_demo(args, tol, depths, out_dir):
    return _DEMO_HANDLERS[args.fixture](args, tol, depths, out_dir)


_HANDLERS = {
    "certify-metric": _cmd_certify_metric,
    "extend": _cmd_extend,
    "extend-pointwise": _cmd_extend_pointwise,
    "pou": _cmd_pou,
    "decompose": _cmd_decompose,
    "modulus": _cmd_modulus,
    "extend-local": _cmd_extend_local,
    "select": _cmd_select,
    "insert": _cmd_insert,
    "approx": _cmd_approx,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _check_tol(args.tol)
        if args.k is not None and not (0.0 <= args.k < math.inf):
            raise InputError(f"--k must be finite and nonnegative, got {args.k:g}")
        depths = _depth_ladder(args.grid_depth)
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        cfg = _resolved_config(args, depths)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    cert_path = os.path.join(out_dir, "certificate.json")
    try:
        certs = _HANDLERS[args.command](args, tol, depths, out_dir)
    except (InputError, DomainError, CoverError, GridError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        witness = e.witness
        if witness is not None and not isinstance(witness, (int, tuple, list)):
            witness = str(witness)
        cert = Certificate("precondition", False, math.inf, tol, witness,
                           details={"message": str(e)})
        write_certificates(cert_path, [cert], cfg)
        print(cert.summary_line())
        return 2

    ok = write_certificates(cert_path, certs, cfg)
    for c in certs:
        print(c.summary_line())
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
