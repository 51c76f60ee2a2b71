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
from .errors import PreconditionError
from .metric_space import _DEFAULT_TOL, MetricSpace, Subset
from .scalar_field import ScalarField, Series, Tabulated


def _as_values_on(A: Subset, phi) -> np.ndarray:
    """Values of phi on the members of A, whether phi is a field on the
    host space or a plain array aligned with A.members."""
    if isinstance(phi, ScalarField):
        return phi.values()[A.members]
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (len(A),):
        raise PreconditionError(
            f"need {len(A)} values on the subset, got shape {phi.shape}")
    return phi.copy()


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
        if witness is None:
            return Certificate("k-lipschitz", True, 0.0, tol,
                               details={"K": K, "pairs": 0})
        count = n * (n - 1) // 2
    else:
        pairs = np.asarray(pairs, dtype=int)
        worst, witness = -math.inf, None
        for p, q in pairs:
            e = abs(v[p] - v[q]) - K * f.space.dist(int(p), int(q))
            if e > worst:
                worst, witness = float(e), (int(p), int(q))
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
    """
    K = float(K)
    space = A.require_nonempty("extension domain").space
    vals_A = _as_values_on(A, phi)
    cert = check_k_lipschitz(Tabulated(space, _scatter(space, A, vals_A)), K,
                             pairs=_subset_pairs(A), tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"phi is not {K}-Lipschitz on A: excess {cert.worst_violation:.3e} "
            f"at pair {cert.witness}", witness=cert.witness)

    rng = np.random.default_rng(seed)
    out = np.full(space.n, np.nan)
    out[A.members] = vals_A
    assigned = list(A.members)
    rest = A.complement() if order is None else np.asarray(order, dtype=int)
    claimed = set(int(p) for p in A.members)
    for p in rest:
        p = int(p)
        if p in claimed:
            raise PreconditionError(f"order revisits point {p}")
        claimed.add(p)
        d = space.dist_row(p)[assigned]
        known = out[assigned]
        lo = float(np.max(known - K * d))
        hi = float(np.min(known + K * d))
        if lo > hi:
            if lo - hi <= tol:
                value = 0.5 * (lo + hi)     # interval closed up to rounding
            else:
                raise PreconditionError(
                    f"empty feasible interval at point {p}: [{lo}, {hi}]",
                    witness=p)
        elif lo == hi:
            value = lo
        else:
            value = float(rng.uniform(lo, hi))
        out[p] = value
        assigned.append(p)
    if np.isnan(out).any():
        missing = np.flatnonzero(np.isnan(out))
        raise PreconditionError(
            f"order misses {missing.size} point(s), first {int(missing[0])}")
    return Tabulated(space, out)


def feasible_interval(space: MetricSpace, assigned_ids, assigned_values,
                      p: int, K: float) -> tuple:
    """The [max(f - K d), min(f + K d)] interval used by the greedy
    extension; exposed for the prefix-consistency property tests."""
    ids = np.asarray(assigned_ids, dtype=int)
    vals = np.asarray(assigned_values, dtype=float)
    d = space.dist_row(int(p))[ids]
    return float(np.max(vals - K * d)), float(np.min(vals + K * d))


def _scatter(space: MetricSpace, A: Subset, vals: np.ndarray) -> np.ndarray:
    out = np.zeros(space.n)
    out[A.members] = vals
    return out


def _subset_pairs(A: Subset) -> np.ndarray:
    m = A.members
    iu = np.triu_indices(m.size, 1)
    return np.column_stack([m[iu[0]], m[iu[1]]])


# ---------------------------------------------------------------------------
# Partition-of-unity report


def pou_report(pou, tol: float = _DEFAULT_TOL) -> Certificate:
    """Sum-to-one residual, activity soundness, per-member constants.

    Sums are taken over the flattened term multiset (series members are
    unfolded), with an exactly rounded summation; regrouping members
    therefore cannot move the residual.
    """
    space = pou.space
    members = pou.members
    sums = np.zeros(space.n)
    for p in range(space.n):
        leaves = []
        for i in pou.active_members(p):
            m = members[i]
            if isinstance(m, Series):
                leaves.extend(m.leaf_values(p))
            else:
                leaves.append(m(p))
        sums[p] = math.fsum(leaves)
    residual = float(np.abs(sums - 1.0).max()) if space.n else 0.0
    res_point = int(np.argmax(np.abs(sums - 1.0))) if space.n else None

    # Beyond the declared activity bound members must vanish exactly.
    activity_worst = 0.0
    activity_witness = None
    M = np.stack([m.values() for m in members]) if members else np.zeros((0, space.n))
    for p in range(space.n):
        active = set(int(i) for i in pou.active_members(p))
        for i in range(len(members)):
            if i not in active and M[i, p] != 0.0:
                if abs(M[i, p]) > activity_worst:
                    activity_worst = float(abs(M[i, p]))
                    activity_witness = (i, p)

    member_lip = [_pairs.max_slope(space, row)[0] for row in M]

    negativity = float(-M.min()) if members else 0.0

    histogram = {}
    for p in range(space.n):
        active_now = sum(1 for i in pou.active_members(p) if M[i, p] > 0)
        histogram[active_now] = histogram.get(active_now, 0) + 1

    passed = (residual <= tol and activity_worst == 0.0 and negativity <= 0.0)
    worst = max(residual, activity_worst, negativity)
    witness = activity_witness if activity_worst > 0 else (res_point,)
    return Certificate(
        "pou", passed, worst, tol, witness,
        details={
            "sum_residual": residual,
            "activity_violation": activity_worst,
            "negativity": negativity,
            "member_count": len(members),
            "member_lip": member_lip,
            "active_histogram": {str(k): v for k, v in sorted(histogram.items())},
        })


# ---------------------------------------------------------------------------
# Local witness certification


def certify_local_witness(f: ScalarField, witness, domain: Subset | None = None,
                          tol: float = _DEFAULT_TOL) -> Certificate:
    """Check a family of (point, delta, constant) entries against f.

    Each entry must bound |f(x)-f(y)| by K_p d(x,y) for every sampled
    pair inside the doubled ball around its point (the doubled ball is
    what the increasing-cover argument consumes), and the single balls
    must cover the domain samples.
    """
    space = f.space
    v = f.values()
    D = space.pairwise()
    ids_all = np.arange(space.n) if domain is None else domain.members

    worst, worst_witness = -math.inf, None
    per_entry = []
    for idx, entry in enumerate(witness.entries):
        p, delta, K = int(entry.point), float(entry.delta), float(entry.constant)
        inside = ids_all[D[p, ids_all] < 2.0 * delta]
        e, pair = _pairs.worst_excess(space, v[inside], lambda r, c, d, o: K * d,
                                      ids=inside)
        per_entry.append(0.0 if pair is None else e)
        # a NaN entry beats every number and stays the worst
        if pair is not None and not (e <= worst) and worst == worst:
            worst, worst_witness = e, (idx, pair)
    if worst_witness is None:
        worst = 0.0

    covered = np.zeros(space.n, dtype=bool)
    for entry in witness.entries:
        covered[D[int(entry.point)] < float(entry.delta)] = True
    uncovered = [int(i) for i in ids_all if not covered[i]]

    passed = worst <= tol and not uncovered
    details = {
        "entry_count": len(witness.entries),
        "per_entry_worst": per_entry,
        "uncovered": uncovered,
    }
    if worst_witness is None and uncovered:
        worst_witness = ("uncovered", uncovered[0])
    return Certificate("local-witness", passed, worst, tol, worst_witness, details)
