"""Certificates and independent checks: the kernel layer.

The constructions call these checks as preconditions, and
lipkit.verdicts builds each command's certificate list from them.
Everything here re-derives its verdict from raw distances and field
values; nothing trusts constants carried by the objects being checked.
Certificates always name a witness (a pair, an entry, a sample id) so a
failure is reproducible by hand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .errors import PreconditionError
from .metric_space import _DEFAULT_TOL, MetricSpace, Subset
from .scalar_field import Interval, ScalarField, Tabulated


def _require_constant(K) -> float:
    """K as a float, refused unless it is finite and nonnegative."""
    K = float(K)
    if not (0 <= K < math.inf):
        raise PreconditionError(
            f"constant must be finite and nonnegative, got {K}")
    return K


def _as_values_on(A: Subset, phi, interval: Interval | None = None) -> np.ndarray:
    """Values of phi on the members of A, whether phi is a field on the
    host space or a plain array aligned with A.members: the anchor check
    of every extension from A.  It refuses, in this order, an empty A, a
    degenerate target, an infinite value and a value outside the target,
    NaN included, naming the value's sample; with no target a NaN is
    left to the checks downstream."""
    A.require_nonempty("extension domain")
    if interval is not None and interval.is_degenerate:
        raise PreconditionError(f"degenerate target interval {interval}")
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
    if interval is not None:
        bad = np.flatnonzero(~interval.contains(vals))
        if bad.size:
            x = int(A.members[bad[0]])
            raise PreconditionError(
                f"phi({x}) = {float(vals[bad[0]])!r} lies outside the "
                f"target {interval}", witness=x)
    return vals


def _require_compatible(A: Subset, vals: np.ndarray, L: np.ndarray,
                        tol: float):
    """Refuse phi (vals on A) unless |phi_x - phi_y| <= min(L_x, L_y)
    d(x, y) + tol at every pair of A, for constants L aligned with
    A.members: the pair compatibility of the per-point envelopes, and
    with L = K everywhere, where min(K, K) d is K d bit for bit, phi
    K-Lipschitz on A.  The refusal names the worst pair and its
    constant min(L_x, L_y)."""
    excess, pair = _pairs.worst_excess(
        A.space, vals,
        lambda r, c, d, o: np.minimum(L[r, None], L[None, c]) * d,
        ids=A.members)
    if not (excess <= tol):
        c = float(L[np.searchsorted(A.members, pair)].min())
        raise PreconditionError(
            f"phi is not {c}-Lipschitz on A: excess {excess:.3e} "
            f"at pair {pair}", witness=pair)


def _k_lipschitz_values_on(A: Subset, phi, K, tol: float) -> tuple:
    """(K, phi's values on A) for an extension with one global constant:
    K refused unless finite and nonnegative (_require_constant), then
    the anchor check (_as_values_on), then phi refused unless it is
    K-Lipschitz on A (_require_compatible)."""
    K = _require_constant(K)
    vals = _as_values_on(A, phi)
    _require_compatible(A, vals, np.full(len(A), K), tol)
    return K, vals


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

    The worst pair is reported whether or not it violates.  Without
    pairs every pair p != q is read, by the pair rule of _pairs, else
    _pairs.listed_max reads the list; ties go to the first pair.  The
    details count the pairs read (_pairs.pair_count) or listed.
    """
    K = float(K)
    v = f.values()
    if pairs is None:
        worst, witness = _pairs.worst_excess(f.space, v,
                                             lambda r, c, d, o: K * d)
        count = _pairs.pair_count(f.space, f.space.n)
    else:
        worst, witness = _pairs.listed_max(f.space, v, pairs,
                                           lambda d, o: o - K * d)
        count = len(pairs)
    if witness is None:
        return Certificate("k-lipschitz", True, 0.0, tol,
                           details={"K": K, "pairs": 0})
    return Certificate("k-lipschitz", worst <= tol, worst, tol, witness,
                       details={"K": K, "pairs": int(count)})


# ---------------------------------------------------------------------------
# Random Lipschitz extensions (greedy, seed-pinned)


def random_k_extension(A: Subset, phi, K: float, seed: int = 0,
                       tol: float = _DEFAULT_TOL) -> ScalarField:
    """One random K-Lipschitz extension of phi from A to the whole space.

    Points outside A are processed in ascending id order.  At each new
    point the feasible value interval against the already assigned
    points is [max(f - K d), min(f + K d)]; the value is drawn uniformly
    from it.  The interval is nonempty by the triangle inequality
    whenever phi is K-Lipschitz on A; that is checked first.

    Both interval ends are kept for every point at once: set from A by
    two McShane scans (_pairs.envelope: O(|A| n), or O(n) by its
    neighbour scan on a sorted axis), then tightened by vector work on
    the samples after an assigned one.  d(x, q) is read
    from the space's cached pairwise() matrix, the one the precheck sweeps,
    as a row when the distances are exactly symmetric, so the draw
    allocates no n x n or |A| x n array of its own.  max and min are
    exact, so each interval equals feasible_interval on the same
    prefix, bit for bit.  The uniforms come from one rng.random call,
    and a + (b - a) u is the value rng.uniform(a, b) draws.

    An interval past the float range with a finite end is bounded in
    exact arithmetic: that end comes from a constraint whose K d is
    finite, so the other end's overflow is a rounding.  Its floats
    [max(a, -max float), min(b, max float)] take the same draw on
    halves, 2 (a/2 + (b/2 - a/2) u), which no width overflows (it is
    a + (b - a) u bit for bit wherever halving is exact).  An interval
    with no finite end, or a NaN end, is refused.

    A tail update that a later sample provably dominates is skipped.
    The latest assigned sample x waits as one pending constraint per
    side, which the next sample y reads as a scalar from the stored
    float d(x, y) (D.item) that the tail update reads.  Then x's lower
    side enters the tail after y, as the vector update, only when
    v_y - a_y <= M for y's value v_y and lower end a_y, its upper side
    only when b_y - v_y <= M, and y waits in its place.  A pruned draw
    costs O(1) interpreted work per sample where every sample used to
    pay five ufunc calls; when no sample clears M (K = 0, or phi of
    slope exactly K) every side enters, one sample late.

    Why a skipped side changes no bit.  On a sorted axis
    (_pairs.sorted_axis) take samples x < y < w.  On the given
    coordinates the exact distances add, d(x, w) = d(x, y) + d(y, w).
    A stored distance D is within 3u d + 2a of the exact d, u = 2^-53
    and a = sqrt(2^-1075), by the _coord_dist bound of
    _doubled_balls_hold with k = 1, and D <= diam = D(0, n - 1), as
    rounding is monotone.  Every assigned value lies within (1 + 4u)
    max(|lo|, |hi|) of 0 for the starting bounds lo and hi (a draw in
    [a, b], a midpoint of [b, a] whose ends come from earlier values,
    or a point), so |v| <= V = (1 + 4u) L with L = max |lo| + max |hi|.
    Hence a lower constraint c(w) = fl(v - fl(K D)) is within
    e = 6u (V + K diam) + 2 K a + 2^-1074 of its exact v - K d(., w),
    and as a_y >= c_x(y) and d(x, w) - d(y, w) = d(x, y),

        c_y(w) - c_x(w) >= v_y - a_y - 3e > M / (1 + u) - 3e >= 0

    for M = 2^-47 (L + K diam) + 2^-534 K + 2^-1070
    (_pairs.dominance_margin, which _pairs.envelope's neighbour test
    reads too), which is at least 3 (1 + u) e with room for its own
    rounding.  So x's constraint lies strictly below y's at every later
    sample, and the running maximum of the tail update, which keeps its
    last largest operand, never returns it: leaving it out moves no
    bit, even of a zero's sign.
    The upper side is the mirror image.  Off a sorted axis M = inf, and
    so when L + K diam is not at most 2^1000 (no constraint then
    overflows), a NaN or infinite bound included: every side then
    enters the tail at once, after its own sample.
    """
    K, vals_A = _k_lipschitz_values_on(A, phi, K, tol)
    space, n = A.space, A.space.n

    lo = _pairs.envelope(space, A.members, vals_A, K, -1)
    hi = _pairs.envelope(space, A.members, vals_A, K, +1)
    margin = _dominance_margin(space, lo, hi, K)
    out = np.empty(n)
    out[A.members] = vals_A
    u = np.random.default_rng(seed).random(n - len(A)).tolist()
    k = 0
    D = space.pairwise()
    cols = D if space.exactly_symmetric() else D.T     # cols[p] = d(., p)
    step, bound = np.empty(n), np.empty(n)
    defer = margin < math.inf
    q, vq = -1, 0.0     # the pending sample and its value: assigned,
                        # not yet in lo and hi
    lo_at, hi_at, d_at = lo.item, hi.item, cols.item
    mul, sub, add, up, down = (np.multiply, np.subtract, np.add, np.maximum,
                               np.minimum)
    # K d past the float range: inf; K = 0 times d = inf: NaN, as in
    # _pairs.envelope
    with np.errstate(over="ignore", invalid="ignore"):
        for p in A.complement().tolist():
            a, b = lo_at(p), hi_at(p)
            if q >= 0:      # as np.maximum and np.minimum: a tie takes
                            # the second operand (no NaN: M is finite)
                s = d_at(q, p) * K
                c = vq - s
                if c >= a:
                    a = c
                c = vq + s
                if c <= b:
                    b = c
            if a > b:
                if a - b <= tol:
                    value = 0.5 * (a + b)   # interval closed up to rounding
                else:
                    raise PreconditionError(
                        f"empty feasible interval at point {p}: [{a}, {b}]",
                        witness=p)
            elif a == b:
                value = a
            else:
                width = b - a
                if math.isfinite(width):
                    value = a + width * u[k]
                elif width == math.inf and (math.isfinite(a)
                                            or math.isfinite(b)):
                    top = sys.float_info.max
                    a, b = max(a, -top), min(b, top)
                    value = 2.0 * (a / 2.0 + (b / 2.0 - a / 2.0) * u[k])
                else:
                    raise PreconditionError(
                        f"feasible interval at point {p} is not finite: "
                        f"[{a}, {b}]", witness=p)
                k += 1
            out[p] = value
            # into the tail after p go the pending sample's sides that p
            # does not dominate, or with no margin p's own sides
            if defer:
                r, vr, q, vq = q, vq, p, value
                low, high = value - a <= margin, b - value <= margin
            else:
                r, vr, low, high = p, value, True, True
            if r >= 0 and (low or high):
                t = p + 1           # no later sample reads a bound below p
                step_t, bound_t = step[t:], bound[t:]
                mul(cols[r, t:], K, out=step_t)
                vr = np.float64(vr)     # enters a ufunc faster than a float
                if low:
                    lo_t = lo[t:]
                    up(lo_t, sub(vr, step_t, out=bound_t), out=lo_t)
                if high:
                    hi_t = hi[t:]
                    down(hi_t, add(vr, step_t, out=bound_t), out=hi_t)
    return Tabulated(space, out)


def _dominance_margin(space, lo, hi, K: float) -> float:
    """The margin M of random_k_extension for the starting bounds lo and
    hi: _pairs.dominance_margin for L = max |lo| + max |hi|."""
    return _pairs.dominance_margin(
        space, float(np.abs(lo).max()) + float(np.abs(hi).max()), K)


def feasible_interval(space: MetricSpace, assigned_ids, assigned_values,
                      p: int, K: float) -> tuple:
    """The [max(f - K d), min(f + K d)] interval used by the greedy
    extension; exposed for the prefix-consistency property tests.  p
    and the assigned ids must be sample ids (see _pairs.sample_ids)."""
    ids = _pairs.sample_ids(assigned_ids, space.n, "assigned id")
    p = _pairs.sample_id(p, space.n)
    vals = np.asarray(assigned_values, dtype=float)
    d = space.dist_row(p)[ids]
    return float(np.max(vals - K * d)), float(np.min(vals + K * d))


# ---------------------------------------------------------------------------
# Partition-of-unity report


def pou_report(pou, tol: float = _DEFAULT_TOL) -> Certificate:
    """Sum-to-one residual, activity soundness, per-member constants.

    The sums are the family's own values: exactly rounded column sums
    of its rows, or of the rows it was regrouped from, so regrouping
    members cannot move the residual.  The activity violation is the
    largest member value outside the mask, first in sample-major order,
    a NaN first of all.
    """
    M, on = pou.matrix, pou.activity
    gap = np.abs(pou.values() - 1.0)
    residual = float(gap.max())
    res_point = int(np.argmax(gap))
    member_lip = _pairs.max_slopes(pou.space, M).tolist()
    negativity = float(-M.min()) if len(pou) else 0.0
    histogram = np.bincount(((M > 0) & on).sum(axis=0))

    # Beyond the declared activity bound members must vanish exactly;
    # this (members, n) scratch comes last, so it is the only one alive
    outside = np.abs(M.T, order="C")        # sample-major
    outside[on.T] = 0.0
    activity_worst, activity_witness = 0.0, None
    if outside.any():
        p, i = np.unravel_index(np.argmax(outside), outside.shape)
        activity_worst, activity_witness = float(outside[p, i]), (int(i), int(p))

    passed = (residual <= tol and activity_worst == 0.0 and negativity <= 0.0)
    worst = max(residual, activity_worst, negativity)
    witness = (res_point,) if activity_witness is None else activity_witness
    return Certificate(
        "pou", passed, worst, tol, witness,
        details={
            "sum_residual": residual,
            "activity_violation": activity_worst,
            "negativity": negativity,
            "member_count": len(pou),
            "member_lip": member_lip,
            "active_histogram": {str(k): int(c)
                                 for k, c in enumerate(histogram) if c},
        })


# ---------------------------------------------------------------------------
# Local witness certification


def _doubled_ball_excess(space, v, witness, centers, inside=None, num=None,
                         near=None):
    """Each entry's largest num(|f(x) - f(y)|) - K_p d(x, y) over the
    ordered sample pairs of its doubled ball B(p, 2 delta_p), restricted
    to the samples where inside holds, as (excess, pairs) arrays from
    one segmented sweep over every ball (see _pairs.ball_sweep); a ball
    with fewer than two samples gets -inf and the pair (-1, -1).
    centers is witness.centers(space).  near, when given, is called
    with the (ball, member) lists of the single balls B(p, delta_p),
    restricted the same way, a group at a time: a single ball lies
    inside its doubled one, so the same gathering yields them."""
    K, deltas = witness.constants, witness.deltas
    with np.errstate(over="ignore"):
        radii = 2.0 * deltas        # inf past the float range: every
                                    # sample at a finite distance

    def each(ball, s, d):
        inner = d < deltas[ball]
        near(ball[inner], s[inner])
    return _pairs.ball_sweep(
        space, v, centers, radii,
        lambda d, o, seg: (o if num is None else num(o)) - K[seg] * d,
        inside, None if near is None else each)


def _near_pass_pays(space, witness, centers) -> bool:
    """Whether the cover tries _doubled_balls_hold before its per-ball
    sweep: only on coordinates, for a witness with one radius and one
    rate, whose doubled balls hold many pairs.  The pass reads all
    n(n - 1)/2 distances and the sweep about sum_p |B(p, 2 delta)|^2
    pairs, each dearer, and the two cost the same near a sum of n^2 / 25
    on 1-D grids and 2-D clouds of 300 to 1200 samples; the pass is
    tried when that sum, estimated from at most 64 evenly spaced
    entries, reaches n^2 / 16.  With radii or rates that vary, R =
    4 max delta meets far pairs at the flattest rate and the pass
    mostly fails, adding its scan to the sweep; it is not tried there.
    The answer moves time, never output.
    """
    K, deltas = witness.constants, witness.deltas
    if space.coords is None or not len(centers) or not (
            K.min() == K.max() and deltas.min() == deltas.max()):
        return False
    pick = centers[np.linspace(0, len(centers) - 1,
                               min(len(centers), 64)).astype(int)]
    with np.errstate(over="ignore"):
        size = (space.pairwise()[pick] < 2.0 * deltas[0]).sum(axis=1)
    return len(centers) * float(np.mean(size ** 2.0)) >= space.n ** 2 / 16


def _doubled_balls_hold(space, v, witness, num=None,
                        tol: float = _DEFAULT_TOL) -> bool:
    """True only if every doubled ball passes _doubled_ball_excess (no
    inside): num(|v_x - v_y|) - K_p d(x, y) <= tol for every pair x, y
    of every B(p, 2 delta_p).  One pass over _pairs.pair_blocks reads
    each pair at a float distance below R, a little above 4 max delta_p,
    at the least rate K = min K_p, and reduces the excesses block by
    block through _pairs._fold, stopping at the first block whose
    running worst exceeds tol; a NaN excess wins and fails.  False
    decides nothing: the caller then runs the per-ball sweep, which
    names the failing entry.

    Why a pass is enough.  Two members x, y of B(p, 2 delta_p) lie
    closer than 4 delta_p by the triangle inequality, so every pair of
    every doubled ball is read, with the same stored float d(x, y) the
    sweep reads; fl(K d) <= fl(K_p d), as rounding is monotone, so the
    pass's excess is at least each ball's.

    Where it holds.  Only on coordinates (point clouds and grids),
    whose distances obey the triangle inequality in exact arithmetic on
    the given floats; a matrix or graph is not checked for it when
    validation is off, so it gets False.  R covers the rounding of
    _coord_dist over k axes: a difference, a square, k - 1 sums and a
    root put a float distance D within a factor (1 +- u)^((k + 4)/2) of
    the exact one, u = 2^-53 (Higham, ch. 3).  Below the normal range a
    square may also lose up to 2^-1075, which moves a root by at most
    a = sqrt(k 2^-1075).  So a pair of one ball has D(x, y) <
    rho (4 max delta + 2a) + a with rho = ((1 + u)/(1 - u))^((k + 4)/2),
    below 1 + (k + 5) u for k < 10^7, and R = 4 max delta (1 + (k + 5)
    2^-52) + k 2^-530, twice both margins, has room for its own
    rounding.  Past R = 2^500 (an infinite doubled radius included, as
    Python floats overflow quietly) a square could overflow, and the
    pass returns False.
    """
    if space.coords is None:
        return False
    k = space.coords.shape[1]
    R = (4.0 * float(witness.deltas.max()) * (1.0 + (k + 5) * 2.0 ** -52)
         + k * 2.0 ** -530)
    if not R <= 2.0 ** 500:
        return False
    K = float(witness.constants.min())
    worst, pair = np.array([-math.inf]), np.full((1, 2), -1)
    with np.errstate(invalid="ignore", over="ignore"):
        for r, c, d, _ in _pairs.pair_blocks(space, space.n):
            near = d < R    # no diagonal: on coordinates c starts at r
            near.ravel()[::d.shape[1] + 1] = False
            i, j = np.divmod(np.flatnonzero(near), d.shape[1])
            if not i.size:
                continue
            o = np.abs(v[r.start + i] - v[c.start + j])
            e = (o if num is None else num(o)) - K * d[i, j]
            _pairs._fold(e, 0, 0, lambda h: (r.start + i[h], c.start + j[h]),
                         worst, pair)
            if not worst[0] <= tol:
                return False
    return True


def certify_local_witness(f: ScalarField, witness, domain: Subset | None = None,
                          tol: float = _DEFAULT_TOL) -> Certificate:
    """Check the (point, delta, constant) entries of a witness against f.

    Each entry must bound |f(x)-f(y)| by K_p d(x,y) for every sampled
    pair inside the doubled ball around its point (the doubled ball is
    what the increasing-cover argument consumes), and the single balls
    must cover the domain samples.
    """
    space = f.space
    centers = witness.centers(space)
    inside = None if domain is None else domain.mask()

    covered = np.zeros(space.n, dtype=bool)

    def near(ball, s):
        covered[s] = True
    excess, pairs = _doubled_ball_excess(space, f.values(), witness, centers,
                                         inside, near=near)
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

    if inside is not None:
        covered |= ~inside
    uncovered = np.flatnonzero(~covered).tolist()

    passed = worst <= tol and not uncovered
    details = {
        "entry_count": len(witness),
        "per_entry_worst": per_entry,
        "uncovered": uncovered,
    }
    if worst_witness is None and uncovered:
        worst_witness = ("uncovered", uncovered[0])
    return Certificate("local-witness", passed, worst, tol, worst_witness, details)
