"""Certificates and independent checks.

Everything here re-derives its verdict from raw distances and field
values; nothing trusts constants carried by the objects being checked.
Certificates always name a witness (a pair, an entry, a sample id) so a
failure is reproducible by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .errors import InputError, PreconditionError
from .metric_space import _DEFAULT_TOL, MetricSpace, Subset
from .scalar_field import ScalarField, Tabulated


def _require_constant(K) -> float:
    """K as a float, refused unless it is finite and nonnegative."""
    K = float(K)
    if not (0 <= K < math.inf):
        raise PreconditionError(
            f"constant must be finite and nonnegative, got {K}")
    return K


def _as_values_on(A: Subset, phi) -> np.ndarray:
    """Values of phi on the members of A, whether phi is a field on the
    host space or a plain array aligned with A.members.  An infinite
    value is refused with its sample id; a NaN is left to the checks
    downstream, which report it."""
    if isinstance(phi, ScalarField):
        vals = phi.values()[A.members]
    else:
        vals = np.array(phi, dtype=float)
        if vals.shape != (len(A),):
            raise PreconditionError(
                f"need {len(A)} values on the subset, got shape {vals.shape}")
    bad = np.flatnonzero(np.isinf(vals))
    if bad.size:
        x = int(A.members[bad[0]])
        raise PreconditionError(f"phi({x}) = {vals[bad[0]]} is infinite",
                                witness=x)
    return vals


@dataclass
class Certificate:
    """Outcome of one check, with the worst witness attached."""

    kind: str
    passed: bool
    worst_violation: float
    tolerance: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        w = "" if self.witness is None else f" witness={self.witness}"
        return (f"[{tag}] {self.kind}: worst violation "
                f"{self.worst_violation:.3e} (tol {self.tolerance:.1e}){w}")

    def to_dict(self) -> dict:
        return _jsonable({
            "kind": self.kind,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "tolerance": float(self.tolerance),
            "witness": self.witness,
            "details": self.details,
        })


def _jsonable(x):
    """Plain JSON data: numpy scalars and arrays unwrapped, non-finite
    floats spelled "inf", "-inf" and "nan" (json.dumps would write bare
    Infinity and NaN, which is not JSON)."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        x = float(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


# ---------------------------------------------------------------------------
# Global Lipschitz bound


def check_k_lipschitz(f: ScalarField, K: float, pairs=None,
                      tol: float = _DEFAULT_TOL) -> Certificate:
    """Exhaustive |f(p)-f(q)| <= K d(p,q) + tol over sampled pairs.

    The worst pair is reported whether or not it violates.  Ties resolve
    to the lexicographically first pair, so reruns agree bit for bit.
    """
    K = float(K)
    v = f.values()
    n = f.space.n
    if pairs is None:
        worst, witness = _pairs.worst_excess(f.space, v,
                                             lambda r, c, d, o: K * d)
        count = n * (n - 1) // 2
    else:
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        d = np.array([f.space.dist(int(p), int(q)) for p, q in pairs])
        e = np.abs(v[pairs[:, 0]] - v[pairs[:, 1]]) - K * d
        worst, witness = -math.inf, None
        if e.size:      # the first largest pair; a NaN pair beats all
            k = int(np.argmax(e))
            worst, witness = float(e[k]), (int(pairs[k, 0]), int(pairs[k, 1]))
        count = len(pairs)
    if witness is None:
        return Certificate("k-lipschitz", True, 0.0, tol,
                           details={"K": K, "pairs": 0})
    return Certificate("k-lipschitz", worst <= tol, worst, tol, witness,
                       details={"K": K, "pairs": int(count)})


# ---------------------------------------------------------------------------
# Random Lipschitz extensions (greedy, seed-pinned)


def random_k_extension(A: Subset, phi, K: float, order=None, seed: int = 0,
                       tol: float = _DEFAULT_TOL) -> Tabulated:
    """One random K-Lipschitz extension of phi from A to the whole space.

    Points outside A are processed in the given order (ids ascending by
    default).  At each new point the feasible value interval against the
    already assigned points is [max(f - K d), min(f + K d)]; the value is
    drawn uniformly from it.  The interval is nonempty by the triangle
    inequality whenever phi is K-Lipschitz on A; that is checked first.

    Both interval ends are kept for every point at once: set from A in
    one O(|A| n) pass, then tightened in O(n) vector work per assigned
    sample, on the samples after it only when the order ascends.
    d(x, q) is read from the space's cached pairwise() matrix, the one
    the precheck sweeps, as a row when the distances are exactly
    symmetric, so the draw allocates no n x n array of its own.  max
    and min are exact, so each interval equals feasible_interval on the
    same prefix, bit for bit.  The uniforms come from one rng.random
    call, and a + (b - a) u is the value rng.uniform(a, b) draws.
    """
    K = _require_constant(K)
    space = A.require_nonempty("extension domain").space
    n = space.n
    rest = A.complement() if order is None else _order_ids(order, n)
    vals_A = _as_values_on(A, phi)
    excess, pair = _pairs.worst_excess(space, vals_A, lambda r, c, d, o: K * d,
                                       ids=A.members)
    if not (excess <= tol):
        raise PreconditionError(
            f"phi is not {K}-Lipschitz on A: excess {excess:.3e} "
            f"at pair {pair}", witness=pair)

    D = space.pairwise()
    spread = D[:, A.members].T      # spread[a, x] = K d(x, a)
    spread *= K
    lo = np.max(vals_A[:, None] - spread, axis=0)
    hi = np.min(vals_A[:, None] + spread, axis=0)
    out = np.full(n, np.nan)
    out[A.members] = vals_A
    # the loop stops at the first id of A or of an earlier entry, so an
    # empty interval before it is reported first
    ids = np.concatenate([A.members, rest])
    fresh = np.zeros(ids.size, dtype=bool)
    fresh[np.unique(ids, return_index=True)[1]] = True     # first occurrences
    again = ~fresh[len(A):]
    stop = int(np.argmax(again)) if again.any() else rest.size
    # an ascending order never reads a bound below the current sample
    ascending = bool((np.diff(rest[:stop]) > 0).all())
    u = np.random.default_rng(seed).random(stop).tolist()
    k = 0
    cols = D if space.exactly_symmetric() else D.T     # cols[p] = d(., p)
    step, bound = np.empty(n), np.empty(n)
    for p in rest[:stop].tolist():
        a, b = lo.item(p), hi.item(p)
        if a > b:
            if a - b <= tol:
                value = 0.5 * (a + b)       # interval closed up to rounding
            else:
                raise PreconditionError(
                    f"empty feasible interval at point {p}: [{a}, {b}]",
                    witness=p)
        elif a == b:
            value = a
        else:
            width = b - a
            if not math.isfinite(width):
                raise PreconditionError(
                    f"feasible interval at point {p} is not finite: "
                    f"[{a}, {b}]", witness=p)
            value = a + width * u[k]
            k += 1
        out[p] = value
        value = np.float64(value)   # enters a ufunc faster than a float
        t = p + 1 if ascending else 0
        lo_t, hi_t, step_t, bound_t = lo[t:], hi[t:], step[t:], bound[t:]
        np.multiply(cols[p, t:], K, out=step_t)
        np.maximum(lo_t, np.subtract(value, step_t, out=bound_t), out=lo_t)
        np.minimum(hi_t, np.add(value, step_t, out=bound_t), out=hi_t)
    if stop < rest.size:
        raise PreconditionError(f"order revisits point {int(rest[stop])}")
    if np.isnan(out).any():
        missing = np.flatnonzero(np.isnan(out))
        raise PreconditionError(
            f"order misses {missing.size} point(s), first {int(missing[0])}")
    return Tabulated(space, out)


def _order_ids(order, n: int) -> np.ndarray:
    """The order as an int array, refused unless every id is an integer
    in 0..n-1 (an int dtype would wrap -1 and truncate 4.7)."""
    ids = np.asarray(order)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iuf"):
        raise PreconditionError("order must be a flat list of sample ids")
    whole = np.isfinite(ids) & (ids == np.floor(ids))
    bad = ~whole | (ids < 0) | (ids >= n)
    if bad.any():
        i = int(np.argmax(bad))
        what = f"lies outside 0..{n - 1}" if whole[i] else "is not an integer"
        raise PreconditionError(
            f"order point {ids[i].item()!r} at position {i} {what}")
    return ids.astype(int)


def feasible_interval(space: MetricSpace, assigned_ids, assigned_values,
                      p: int, K: float) -> tuple:
    """The [max(f - K d), min(f + K d)] interval used by the greedy
    extension; exposed for the prefix-consistency property tests."""
    ids = np.asarray(assigned_ids, dtype=int)
    vals = np.asarray(assigned_values, dtype=float)
    d = space.dist_row(int(p))[ids]
    return float(np.max(vals - K * d)), float(np.min(vals + K * d))


# ---------------------------------------------------------------------------
# Partition-of-unity report


def pou_report(pou, tol: float = _DEFAULT_TOL) -> Certificate:
    """Sum-to-one residual, activity soundness, per-member constants.

    The sums are the family's own values: exactly rounded sums of the
    flattened leaf multiset at each sample, so regrouping members cannot
    move the residual.  The activity violation is the largest member
    value outside the mask, first in sample-major order, a NaN first of
    all.
    """
    space = pou.space
    members = pou.members
    gap = np.abs(pou.values() - 1.0)
    residual = float(gap.max())
    res_point = int(np.argmax(gap))

    # Beyond the declared activity bound members must vanish exactly.
    activity_worst, activity_witness = pou.activity_violation()
    M = pou.term_matrix()
    member_lip = [_pairs.max_slope(space, row)[0] for row in M]
    negativity = float(-M.min()) if members else 0.0
    histogram = np.bincount(((M > 0) & pou.activity).sum(axis=0))

    passed = (residual <= tol and activity_worst == 0.0 and negativity <= 0.0)
    worst = max(residual, activity_worst, negativity)
    witness = (res_point,) if activity_witness is None else activity_witness
    return Certificate(
        "pou", passed, worst, tol, witness,
        details={
            "sum_residual": residual,
            "activity_violation": activity_worst,
            "negativity": negativity,
            "member_count": len(members),
            "member_lip": member_lip,
            "active_histogram": {str(k): int(c)
                                 for k, c in enumerate(histogram) if c},
        })


# ---------------------------------------------------------------------------
# Local witness certification


def _entry_arrays(space: MetricSpace, entries):
    """The centers, radii and constants of witness entries as arrays,
    refused unless every center is a sample of space (an int index
    would wrap -1 to the last sample)."""
    centers = np.array([e.point for e in entries], dtype=int)
    if centers.size and (centers.min() < 0 or centers.max() >= space.n):
        raise InputError(
            f"witness entry ids must lie in 0..{space.n - 1}, got range "
            f"[{centers.min()}, {centers.max()}]")
    return (centers,
            np.array([e.delta for e in entries], dtype=float),
            np.array([e.constant for e in entries], dtype=float))


def _doubled_ball_excess(space, v, arrays, inside=None, num=None):
    """Each entry's largest num(|f(x) - f(y)|) - K_p d(x, y) over the
    ordered sample pairs of its doubled ball B(p, 2 delta_p), restricted
    to the samples where inside holds, as (excess, pairs) arrays from
    one segmented sweep over every ball (see _pairs.ball_sweep); a ball
    with fewer than two samples gets -inf and the pair (-1, -1).
    arrays is the (centers, deltas, constants) of _entry_arrays."""
    centers, deltas, K = arrays
    return _pairs.ball_sweep(
        space, v, centers, 2.0 * deltas,
        lambda d, o, seg: (o if num is None else num(o)) - K[seg] * d,
        inside)


def certify_local_witness(f: ScalarField, witness, domain: Subset | None = None,
                          tol: float = _DEFAULT_TOL) -> Certificate:
    """Check a family of (point, delta, constant) entries against f.

    Each entry must bound |f(x)-f(y)| by K_p d(x,y) for every sampled
    pair inside the doubled ball around its point (the doubled ball is
    what the increasing-cover argument consumes), and the single balls
    must cover the domain samples.
    """
    space = f.space
    arrays = _entry_arrays(space, witness.entries)
    inside = None
    if domain is not None:
        inside = np.zeros(space.n, dtype=bool)
        inside[domain.members] = True

    excess, pairs = _doubled_ball_excess(space, f.values(), arrays, inside)
    has_pair = pairs[:, 0] >= 0
    per_entry = np.where(has_pair, excess, 0.0).tolist()
    checked = np.flatnonzero(has_pair)
    worst, worst_witness = 0.0, None
    if checked.size:
        # the first largest entry, a NaN beating every number; an entry
        # at -inf names no witness
        j = int(checked[np.argmax(excess[checked])])
        if excess[j] != -math.inf:
            worst = float(excess[j])
            worst_witness = (j, (int(pairs[j, 0]), int(pairs[j, 1])))

    centers, deltas, _ = arrays
    covered = np.zeros(space.n, dtype=bool)
    for _, mask in _pairs.ball_masks(space, centers, deltas):
        covered |= mask.any(axis=0)
    if inside is not None:
        covered |= ~inside
    uncovered = np.flatnonzero(~covered).tolist()

    passed = worst <= tol and not uncovered
    details = {
        "entry_count": len(witness.entries),
        "per_entry_worst": per_entry,
        "uncovered": uncovered,
    }
    if worst_witness is None and uncovered:
        worst_witness = ("uncovered", uncovered[0])
    return Certificate("local-witness", passed, worst, tol, worst_witness, details)
