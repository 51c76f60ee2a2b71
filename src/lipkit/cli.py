"""Command line front end.

Commands: certify-metric, extend, extend-pointwise, pou, decompose,
modulus, extend-local, select, insert, approx, and demo with the
fixtures sin-inv-t, cusp-curve, reciprocal-staircase, dowker-step.
A command's handler loads its inputs, builds, writes its value CSVs and
returns the certificates of lipkit.verdicts for what it built; main
writes them to a certificate JSON embedding the tool version and the
resolved configuration.  Outputs are byte-identical across reruns of
the same configuration.  Exit codes:
0 when all certificates pass, 2 when a certificate fails (the file is
still written), 1 on malformed input or parameters out of range.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import _pairs, fixtures, verdicts
from .certify import Certificate
from .errors import (CoverError, DomainError, GridError, InputError,
                     PreconditionError)
from .extension import extend_to_interval, pointwise_extend_to_interval
from .io import (field_on_space, load_cover, load_local_witness, load_mapping,
                 load_pointwise_witness, load_space, load_subset,
                 save_values_csv, save_wide_csv, values_on_subset,
                 write_certificates)
from .local_lipschitz import (LocalWitness, decompose, generate_local_witness,
                              local_extend, modulus_witness)
from .metric_space import _DEFAULT_TOL, MetricSpace
from .partition_of_unity import frolik_pou, staircase, staircase_partial_sum
from .scalar_field import Interval, Tabulated, global_lip
from .selection import IntervalMapping, decreasing_approx, insert, select

_TOL_FLOOR = 1e-12
_TOL_CEILING = 1e-3


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as input errors (exit 1)
    instead of exiting with argparse's own status."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused by every later
    main() in the process; each parse_args returns a fresh Namespace."""
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
    shared.add_argument("--n-max", type=int, default=5,
                        help="steps of the decreasing approximation")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help="tolerance override, within [1e-12, 1e-3]")
    shared.add_argument("--out-dir", default=".")

    parser = _Parser(prog="lipkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in _HANDLERS:
        sub.add_parser(name, parents=[shared])
    sub.choices["demo"].add_argument("fixture", choices=_DEMOS)
    return parser


def _check_tol(tol: float) -> float:
    if not (_TOL_FLOOR <= tol <= _TOL_CEILING):
        raise InputError(
            f"--tol must lie in [{_TOL_FLOOR:g}, {_TOL_CEILING:g}], got {tol:g}")
    return float(tol)


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise InputError(f"--{name} is required for {args.command}")


def _anchored(args, tol):
    """The subset of --subset on --space, its --values, and --interval."""
    A = load_subset(args.subset, load_space(args.space, tol))
    return A, values_on_subset(args.values, A), (
        Interval.real_line() if args.interval is None
        else Interval.parse(args.interval))


def _save(out_dir, name, values):
    save_values_csv(os.path.join(out_dir, name), values)


# ---------------------------------------------------------------------------
# Commands: load, build, write, and return the command's certificates


def _cmd_certify_metric(args, tol, out_dir):
    return verdicts.certify_metric(
        load_space(args.space, tol, validate=False), tol)


def _cmd_extend(args, tol, out_dir):
    A, vals, interval = _anchored(args, tol)
    out = extend_to_interval(A, vals, args.k, interval, tol)
    for name, field in (("envelope_lower", out.envelopes.lower),
                        ("envelope_upper", out.envelopes.upper),
                        ("extension", out)):
        _save(out_dir, f"{name}.csv", field.values())
    return verdicts.certify_extend(A, vals, args.k, interval, out, tol,
                                   args.seed)


def _cmd_extend_pointwise(args, tol, out_dir):
    A, vals, interval = _anchored(args, tol)
    witness = load_pointwise_witness(args.witness)
    out = pointwise_extend_to_interval(A, vals, witness, interval, tol)
    _save(out_dir, "extension.csv", out.values())
    return verdicts.certify_extend_pointwise(A, vals, interval, out, tol)


def _cmd_pou(args, tol, out_dir):
    pou = frolik_pou(load_cover(args.cover, load_space(args.space, tol)), tol)
    save_wide_csv(os.path.join(out_dir, "members.csv"),
                  [f"m{i}_s{s}" for i, s in enumerate(pou.set_index)],
                  pou.matrix)
    return verdicts.certify_pou(pou, tol)


def _cmd_decompose(args, tol, out_dir):
    f = field_on_space(args.values, load_space(args.space, tol))
    dec = decompose(f, load_local_witness(args.witness), tol)
    save_wide_csv(os.path.join(out_dir, "members.csv"),
                  [f"m{i}_b{j}" for i, j in enumerate(dec.slice_exponents)],
                  [m.values() for m in dec.members])
    _save(out_dir, "reconstruction.csv", dec.series.values())
    return verdicts.certify_decompose(dec, tol)


def _cmd_modulus(args, tol, out_dir):
    f = field_on_space(args.values, load_space(args.space, tol))
    witness = load_local_witness(args.witness)
    moduli = []
    for rule in ("bounded", "unbounded"):
        moduli.append(modulus_witness(f, witness, rule, tol))
        _save(out_dir, f"levels_{rule}.csv", moduli[-1].levels)
    return verdicts.certify_modulus(moduli, tol)


def _cmd_extend_local(args, tol, out_dir):
    A, vals, interval = _anchored(args, tol)
    witness = load_local_witness(args.witness)
    out = local_extend(A, vals, witness, interval, tol)
    _save(out_dir, "extension.csv", out.values())
    return verdicts.certify_extend_local(A, vals, interval, out, tol)


def _cmd_select(args, tol, out_dir):
    space = load_space(args.space, tol)
    lower, upper, _ = load_mapping(args.values, space)
    mapping = IntervalMapping(space, lower, upper)
    f = select(mapping)
    _save(out_dir, "selection.csv", f.values())
    return verdicts.certify_select(mapping, f, tol)


def _cmd_insert(args, tol, out_dir):
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
            w = generate_local_witness(Tabulated(sub, vals))
            witness = LocalWitness(A.members[w.points], w.deltas, w.constants)
    f = insert(space, lower, upper, A=A, phi=vals, witness=witness, tol=tol)
    _save(out_dir, "selection.csv", f.values())
    return verdicts.certify_insert(IntervalMapping(space, lower, upper), f,
                                   A, vals)


def _cmd_approx(args, tol, out_dir):
    if args.n_max < 1:
        raise InputError(f"--n-max must be positive, got {args.n_max}")
    space = load_space(args.space, tol)
    _, _, phi = load_mapping(args.values, space)
    if phi is None:
        raise InputError("approx needs a phi entry in the window JSON")
    seq = decreasing_approx(phi, args.n_max)
    save_wide_csv(os.path.join(out_dir, "approx.csv"),
                  [f"f{n + 1}" for n in range(len(seq))],
                  [f.values() for f in seq])
    return verdicts.certify_approx(phi, seq)


# ---------------------------------------------------------------------------
# Demos


def _demo_sin_inv_t(args, tol, out_dir):
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


def _demo_cusp_curve(args, tol, out_dir):
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


def _demo_reciprocal_staircase(args, tol, out_dir):
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


def _demo_dowker_step(args, tol, out_dir):
    space, lower, upper = fixtures.dowker_step()
    mapping = IntervalMapping(space, lower, upper)
    f = select(mapping)
    t = space.coords[:, 0]
    lv, uv, v = lower.values(), upper.values(), f.values()
    print("step windows with a gap: lower jumps 0 -> 1, upper 1/2 -> 2 at t = 1")
    print(f"{'t':>6} {'lower':>8} {'f':>12} {'upper':>8}")
    for p in range(space.n):
        print(f"{t[p]:>6.2f} {lv[p]:>8.3f} {v[p]:>12.6f} {uv[p]:>8.3f}")
    cert = verdicts._strictness_cert(mapping, f)
    cert.kind = "demo-dowker-step"
    print(f"minimal strictness margin: {cert.details['min_margin']:.6f}")
    return [cert]


_DEMOS = {
    "sin-inv-t": _demo_sin_inv_t,
    "cusp-curve": _demo_cusp_curve,
    "reciprocal-staircase": _demo_reciprocal_staircase,
    "dowker-step": _demo_dowker_step,
}

# command: (handler, the flags it requires)
_HANDLERS = {
    "certify-metric": (_cmd_certify_metric, ("space",)),
    "extend": (_cmd_extend, ("space", "subset", "values", "k")),
    "extend-pointwise": (_cmd_extend_pointwise,
                         ("space", "subset", "values", "witness")),
    "pou": (_cmd_pou, ("space", "cover")),
    "decompose": (_cmd_decompose, ("space", "values", "witness")),
    "modulus": (_cmd_modulus, ("space", "values", "witness")),
    "extend-local": (_cmd_extend_local,
                     ("space", "subset", "values", "witness")),
    "select": (_cmd_select, ("space", "values")),
    "insert": (_cmd_insert, ("space", "values")),
    "approx": (_cmd_approx, ("space", "values")),
    "demo": (lambda args, *rest: _DEMOS[args.fixture](args, *rest), ()),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _check_tol(args.tol)
        if args.k is not None and not (0.0 <= args.k < math.inf):
            raise InputError(f"--k must be finite and nonnegative, got {args.k:g}")
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        cfg = {"fixture": None, **vars(args)}   # every parsed option
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    cert_path = os.path.join(out_dir, "certificate.json")
    handler, required = _HANDLERS[args.command]
    try:
        _need(args, *required)
        certs = handler(args, tol, out_dir)
    except (InputError, DomainError, CoverError, GridError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        cert = Certificate("precondition", False, math.inf, tol, e.witness,
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
