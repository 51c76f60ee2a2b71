"""One certificate list per command.

certify_<command> takes the inputs of `lipkit <command>` and what its
construction returned, and returns the certificates the command writes,
in order; the CLI writes what these return, so a library caller gets
the same evidence.  _verdict decides worst <= tol for each excess
certificate built here; check_k_lipschitz, pou_report and
certify_local_witness decide their own, as do the metric report and the
tolerance-0 duality, strictness and approx certificates.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pairs
from .certify import (Certificate, certify_local_witness, check_k_lipschitz,
                      pou_report, random_k_extension)
from .extension import duality_check
from .metric_space import _DEFAULT_TOL
from .partition_of_unity import index_subordinate
from .scalar_field import DistanceTo
from .selection import graph_open_check


def _verdict(kind, worst, tol, witness=None, details=None, net=False):
    """Passes when worst <= tol (worst <= 0 when worst is net of tol) and
    reports worst clamped at 0; a NaN fails."""
    return Certificate(kind, worst <= (0.0 if net else tol), max(worst, 0.0),
                       tol, witness, details or {})


def _largest(kind, excess, tol, ids=None, witness=True, net=False,
             details=None):
    """_verdict of the largest entry (a NaN first; none is -inf), with the
    first worst sample, mapped through ids, as witness.  net takes tol off
    every entry first."""
    if net:
        excess = excess - tol
    if not excess.size:
        return _verdict(kind, -math.inf, tol, None, details, net)
    p = int(np.argmax(excess))
    w = (p if ids is None else int(ids[p]),) if witness else None
    return _verdict(kind, float(excess[p]), tol, w, details, net)


def _restriction_cert(out_values, A, vals, tol) -> Certificate:
    cert = _largest("restriction", np.abs(out_values[A.members] - vals), tol,
                    ids=A.members)
    cert.details["exact"] = cert.worst_violation == 0.0
    return cert


def _containment_cert(values, interval, tol) -> Certificate:
    """How far the values leave a bounded interval; a distance past the
    float range is inf, with its sign."""
    with np.errstate(over="ignore"):
        excess = np.maximum(values - interval.hi, interval.lo - values)
    return _largest("containment", excess, tol,
                    details={"interval": str(interval)})


def _strictness_cert(mapping, f) -> Certificate:
    """The least margin of f inside the windows must be positive."""
    v = f.values()
    lo, hi = mapping.bounds()
    with np.errstate(invalid="ignore", over="ignore"):
        margins = np.minimum(v - lo, hi - v)
    p = int(np.argmin(margins))
    m = float(margins[p])
    if m == math.inf:
        return Certificate("strictness", True, 0.0, 0.0,
                           details={"min_margin": "inf"})
    details = {"min_margin": m}
    for attr in ("grid_depth", "margin"):
        if hasattr(f, attr):
            details[attr] = getattr(f, attr)
    if hasattr(f, "chosen_levels"):
        details["chosen_levels"] = list(f.chosen_levels)
    return Certificate("strictness", m > 0.0, -m, 0.0, (p,), details)


def certify_metric(space, tol=_DEFAULT_TOL) -> list:
    """One validation of space, naming the worst violation."""
    report = space.validate(tol)
    w = report.worst()      # None when the report is ok
    return [Certificate(
        "metric", report.ok, 0.0 if w is None else float(w.magnitude), tol,
        None if w is None else tuple(w.ids), details={
            "n": space.n, "backend": space.backend,
            "triangle": report.triangle,
            "violations": [{"kind": v.kind, "ids": list(v.ids),
                            "magnitude": v.magnitude}
                           for v in report.violations]})]


def certify_extend(A, vals, K, interval, out, tol=_DEFAULT_TOL,
                   seed=0) -> list:
    """For out = extend_to_interval(A, vals, K, interval, tol): out and its
    envelopes K-Lipschitz, restriction, ordering, duality, three random
    extensions (seeds from seed) in between, and for a bounded interval,
    containment and a clearance min(K d(., A), width) / 2 off A."""
    pair = out.envelopes
    lower, upper, v = pair.lower.values(), pair.upper.values(), out.values()
    certs = []
    for name, field in (("envelope_lower", pair.lower),
                        ("envelope_upper", pair.upper), ("extension", out)):
        c = check_k_lipschitz(field, K, tol=tol)
        c.details["field"] = name
        certs.append(c)
    rep = duality_check(A, vals, K, tol)
    certs += [_restriction_cert(v, A, vals, tol),
              _largest("ordering", lower - upper, tol),
              Certificate("duality", rep.exact, rep.max_abs_diff, 0.0,
                          None if rep.exact else (rep.witness,))]
    for i in range(3):
        g = random_k_extension(A, vals, K, seed=seed + i, tol=tol).values()
        certs.append(_largest("sandwich", np.maximum(lower - g, g - upper),
                              tol, witness=False, details={"draw": i}))
    if interval.is_bounded:
        certs.append(_containment_cert(v, interval, tol))
        dA = DistanceTo(A.space, A.members).values()
        with np.errstate(over="ignore"):    # inf past the float range
            need = np.minimum(K * dA, interval.hi - interval.lo) / 2.0
            margin = np.minimum(v - interval.lo, interval.hi - v)
        rest = A.complement()
        if rest.size:
            certs.append(_largest("interior-margin", (need - margin)[rest],
                                  tol, ids=rest, net=True))
    return certs


def certify_extend_pointwise(A, vals, interval, out, tol=_DEFAULT_TOL) -> list:
    """For out = pointwise_extend_to_interval(A, vals, witness, interval,
    tol): restriction, out within its row slopes out.pointwise_witness
    over every ordered pair, and for a bounded interval, containment and
    the envelopes inside (lo + d(., A), hi - d(., A))."""
    space, v = A.space, out.values()
    L = np.array([out.pointwise_witness.constants[p] for p in range(space.n)])
    excess, at = _pairs.worst_excess(
        space, v, lambda r, c, d, o: L[r, None] * d, symmetric=False)
    certs = [_restriction_cert(v, A, vals, tol),
             _verdict("pointwise-witness", excess, tol, at)]
    if interval.is_bounded:
        dA = DistanceTo(space, A.members).values()
        with np.errstate(over="ignore"):    # inf past the float range
            breach = np.maximum(
                out.envelopes.lower.values() - (interval.hi - dA),
                (interval.lo + dA) - out.envelopes.upper.values())
        certs += [_containment_cert(v, interval, tol),
                  _largest("display-bounds", breach, tol, witness=False)]
    return certs


def certify_pou(pou, tol=_DEFAULT_TOL) -> list:
    """The reports of pou = frolik_pou(cover, tol) and its regrouping."""
    raw = pou_report(pou, tol)
    raw.details.update(family="staircase", k_caps=list(pou.k_caps))
    regrouped = pou_report(index_subordinate(pou), tol)
    regrouped.details["family"] = "regrouped"
    return [raw, regrouped]


def certify_decompose(dec, tol=_DEFAULT_TOL) -> list:
    """For dec = decompose(f, witness, tol): its witness check, residual,
    members below their slice bounds 2^j, and partition report."""
    bounds = np.array([np.abs(m.values()).max() - 2.0 ** j
                       for m, j in zip(dec.members, dec.slice_exponents)])
    return [dec.certificate,
            _verdict("reconstruction", dec.residual(), tol,
                     details={"members": len(dec.members)}),
            _largest("member-bounds", bounds, tol, witness=False,
                     details={"slice_exponents": list(dec.slice_exponents)}),
            pou_report(dec.partition, tol)]


def certify_modulus(moduli, tol=_DEFAULT_TOL) -> list:
    """Each ModulusWitness's relative excess over the pairs, vs 0."""
    certs = []
    for m in moduli:
        worst, pair = m.certify(rel_tol=tol)
        certs.append(_verdict(f"modulus-{m.kind}", worst, tol, pair, {
            "envelope_constant": m.envelope_constant,
            "level_min": float(m.levels.min()),
            "level_max": float(m.levels.max()),
            "level_dominates_eta": bool(
                (m.levels >= m.cover.eta.astype(float)).all()),
        }, net=True))
    return certs


def certify_extend_local(A, vals, interval, out, tol=_DEFAULT_TOL) -> list:
    """For out = local_extend(A, vals, witness, interval, tol):
    restriction, containment, and out against out.local_witness."""
    v = out.values()
    certs = [_restriction_cert(v, A, vals, tol)]
    if interval.is_bounded:
        certs.append(_containment_cert(v, interval, tol))
    cout = certify_local_witness(out, out.local_witness, tol=tol)
    cout.details["direction"] = "output"
    return certs + [cout]


def certify_select(mapping, f, tol=_DEFAULT_TOL) -> list:
    """For f = select(mapping, ...): strictness, probed at the worst
    sample when it passes, and the report of f's partition.  The probe
    spans a quarter of the clearance on each side of the value y, or,
    where that rounds to y, the next float strictly inside the window,
    else y; it is skipped when the window holds no float but y."""
    strict = _strictness_cert(mapping, f)
    if strict.passed:
        v = f.values()
        gt, ht = mapping.sentinels()
        with np.errstate(over="ignore"):
            margin = np.minimum(v - gt, ht - v)
        x = int(np.argmin(margin))
        y, m = float(v[x]), float(margin[x]) / 4.0
        lo, hi = (b[x] for b in mapping.bounds())
        s = min(y - m, math.nextafter(y, -math.inf))
        t = max(y + m, math.nextafter(y, math.inf))
        s, t = s if s > lo else y, t if t < hi else y
        probe = {"sample": x, "skipped": True}
        if s < t:
            rep = graph_open_check(mapping, x, s, t)
            probe = {"sample": x, "ok": rep.ok, "radius": rep.radius,
                     "counterexample": rep.counterexample}
        strict.details["probe"] = probe
    return [strict, pou_report(f.partition, tol)]


def certify_insert(mapping, f, A=None, vals=None) -> list:
    """For f = insert(...): strictness, and f == vals on A if given."""
    certs = [_strictness_cert(mapping, f)]
    if A is not None:
        certs.append(_largest("agrees-on-subset",
                              np.abs(f.values()[A.members] - vals), 0.0,
                              witness=False, details={"subset_size": len(A)}))
    return certs


def certify_approx(phi, seq) -> list:
    """For seq = decreasing_approx(phi, ...): steps strictly above phi and
    decreasing, step n (from 0) less than 2^-n above; tolerance 0."""
    cols = np.array([f.values() for f in seq])
    gaps = cols - phi.values()
    above = float(gaps.min())
    decrease = float((cols[:-1] - cols[1:]).min(initial=math.inf))
    gap = float((gaps.max(axis=1) - 2.0 ** -np.arange(len(cols))).max())
    return [
        Certificate("strict-above", above > 0.0, -above, 0.0,
                    details={"min_gap": above}),
        Certificate("strict-decrease", decrease > 0.0,
                    0.0 if math.isinf(decrease) else -decrease, 0.0,
                    details={"steps": len(cols)}),
        Certificate("gap-bound", gap < 0.0, max(gap, 0.0), 0.0,
                    details={"bound": "2^(1-n)"}),
    ]
