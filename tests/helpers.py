"""Seeded builders shared across the test modules."""

import math
from unittest import mock

import numpy as np
import pytest

from lipkit import (Certificate, Constant, CoverError, CozeroCover,
                    IncreasingCover, InputError, LipkitError, LocalWitness,
                    MatherRefinement, MetricSpace, ModulusWitness,
                    PartitionOfUnity, PreconditionError, Series, Subset,
                    Tabulated, Transported, certify_local_witness,
                    feasible_interval, global_lip, maximum, minimum,
                    random_k_extension)
from lipkit import _pairs, local_lipschitz
from lipkit.local_lipschitz import _cover_from_oscillation
from lipkit.metric_space import _DEFAULT_TOL
from lipkit.partition_of_unity import _MEMBER_CAP


def make_space(rng, n_max=40, kinds=None):
    """Random space over the four backends; valid metric by construction.
    kinds restricts the draw (0 matrix, 1 points, 2 graph, 3 grid)."""
    kind = int(rng.integers(4)) if kinds is None else int(rng.choice(kinds))
    n = int(rng.integers(3, n_max + 1))
    if kind == 0:
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return MetricSpace.from_matrix(0.5 * (D + D.T))
    if kind == 1:
        dim = int(rng.integers(1, 4))
        return MetricSpace.from_points(rng.uniform(-5.0, 5.0, size=(n, dim)))
    if kind == 2:
        # a path keeps the graph connected; chords vary the geometry
        edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.append((u, v, float(rng.uniform(0.1, 3.0))))
        return MetricSpace.from_graph(n, edges)
    step = float(2.0 ** -int(rng.integers(1, 4)))
    lo = -step * int(rng.integers(0, 8))
    return MetricSpace.from_grid(lo, lo + step * (n - 1), step)


def make_instance(rng, n_max=40):
    """(space, A, phi, K) with A nonempty and phi K-Lipschitz on A.

    phi comes from a seeded greedy extension started at one anchor of
    A, restricted back to A, so the Lipschitz property holds by
    construction at sample resolution.
    """
    space = make_space(rng, n_max)
    size = int(rng.integers(1, space.n + 1))
    A = Subset(space, rng.choice(space.n, size=size, replace=False))
    K = float(rng.uniform(0.2, 4.0))
    anchor = Subset(space, [int(A.members[int(rng.integers(len(A)))])])
    start = np.array([float(rng.uniform(-2.0, 2.0))])
    base = random_k_extension(anchor, start, K, seed=int(rng.integers(2 ** 31)))
    return space, A, base.values()[A.members], K


def ref_greedy(A, phi, K, order, seed, tol=1e-9):
    """The greedy draw re-derived one prefix at a time."""
    rng = np.random.default_rng(seed)
    ids, vals = list(A.members), list(phi)
    out = np.full(A.space.n, np.nan)
    out[A.members] = phi
    for p in order:
        lo, hi = feasible_interval(A.space, ids, vals, int(p), K)
        if lo > hi:
            assert lo - hi <= tol
            value = 0.5 * (lo + hi)
        elif lo == hi:
            value = lo
        else:
            value = float(rng.uniform(lo, hi))
        ids.append(int(p))
        vals.append(value)
        out[p] = value
    return out


def make_ball_cover(rng, space, margin=0.3):
    """Random ball-union groups covering every sample.

    Every sample ends up at depth >= margin inside some ball, which
    caps the staircase piece count of the downstream partition.
    """
    n = space.n
    D = space.pairwise()
    diam = max(float(D.max()), 1.0)
    groups = []
    for _ in range(int(rng.integers(1, 4))):
        balls = []
        for _ in range(int(rng.integers(1, 4))):
            balls.append((int(rng.integers(n)), float(rng.uniform(0.3, 1.0) * diam)))
        groups.append(balls)
    depth = np.full(n, -np.inf)
    for balls in groups:
        for c, r in balls:
            depth = np.maximum(depth, r - D[c])
    for p in np.flatnonzero(depth < margin):
        g = int(rng.integers(len(groups)))
        groups[g].append((int(p), float(rng.uniform(2.0, 4.0) * margin)))
    return groups


# ---------------------------------------------------------------------------
# Naive pair references: scalar loops over every ordered pair


def ref_worst_excess(D, v, cap, ids, num=lambda o: o):
    """Scalar loop over ordered pairs; cap(i, j, d) takes positions into
    ids."""
    best = None
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i == j:
                continue
            d = D[ids[i], ids[j]]
            e = num(abs(v[i] - v[j])) - cap(i, j, d)
            if (best is None or e > best[0]
                    or (math.isnan(e) and not math.isnan(best[0]))):
                best = (e, (int(ids[i]), int(ids[j])))
    return (-math.inf, None) if best is None else best


def ref_slope(o, d, zero):
    if d > 0:
        return float(o) / float(d)     # inf beyond the float range
    return zero if (d == 0 and o > 0) else 0.0


def ref_max_slope(D, v, ids, zero):
    best, rows = None, []
    for i in range(len(ids)):
        row = 0.0 if len(ids) == 1 else -math.inf
        for j in range(len(ids)):
            if i == j:
                continue
            s = ref_slope(abs(v[i] - v[j]), D[ids[i], ids[j]], zero)
            if s > row or math.isnan(s) and not math.isnan(row):
                row = s
            if (best is None or s > best[0]
                    or (math.isnan(s) and not math.isnan(best[0]))):
                best = (s, (int(ids[i]), int(ids[j])))
        rows.append(row)
    return (0.0, None) if best is None else best, np.array(rows)


def same(a, b):
    """Equal results, NaN equal to NaN."""
    (x, p), (y, q) = a, b
    return p == q and (x == y or (math.isnan(x) and math.isnan(y)))


def ref_min_positive_distance(D):
    """Smallest positive entry off the diagonal, None when there is
    none."""
    off = D[~np.eye(D.shape[0], dtype=bool)]
    return float(off[off > 0].min()) if (off > 0).any() else None


def ref_nearest_positive(D):
    """Each row's smallest positive entry off the diagonal, NaN where it
    has none."""
    out = []
    for i in range(D.shape[0]):
        row = [D[i, j] for j in range(D.shape[0]) if j != i and D[i, j] > 0]
        out.append(min(row) if row else math.nan)
    return np.array(out)


def compress(o):
    return o / (1.0 + o)


def ref_soundness(D, v, thresholds, eta, num):
    """IncreasingCover.soundness_check over ordered pairs; a NaN excess
    beats every number."""
    worst, witness = -math.inf, None
    for t in thresholds:
        ids = np.flatnonzero(eta <= t)
        e, pair = ref_worst_excess(D, v[ids], lambda i, j, d: t * d, ids,
                                   num)
        if pair is not None and (e > worst or (math.isnan(e)
                                               and not math.isnan(worst))):
            worst, witness = e, (int(t), pair)
    return worst, witness


def ref_doubled_ball_failure(D, v, entries, tol, num):
    """(entry, pair) of the first witness entry failing on its doubled
    ball over ordered pairs, or None."""
    for j, (p, delta, K) in enumerate(entries):
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        hi, pair = ref_worst_excess(D, v[ids], lambda i, k, d: K * d, ids,
                                    num)
        if not (hi <= tol):
            return j, pair
    return None


def cover_outcome(call, *args, per_ball=False):
    """What call(*args), modulus_witness or increasing_cover, gives: its
    cover's levels, thresholds, eta and osc_bound, and a modulus's
    envelope constant; or the type, message and witness of what it
    raised.  per_ball is the reference: the cover's doubled-ball check
    is left to the per-ball sweep, as on a matrix or a graph.  Otherwise
    the near-pair pass is tried on every cloud and grid, whatever
    certify._near_pass_pays would say of its cost."""
    path = (mock.patch.object(local_lipschitz, "_doubled_balls_hold",
                              lambda *a, **k: False) if per_ball
            else mock.patch.object(local_lipschitz, "_near_pass_pays",
                                   lambda *a, **k: True))
    with path, np.errstate(invalid="ignore", over="ignore"):
        try:
            out = call(*args)
        except LipkitError as e:
            return type(e), str(e), getattr(e, "witness", None)
    cover = getattr(out, "cover", out)
    return (cover.levels.tobytes(), cover.thresholds.tobytes(),
            cover.eta.tobytes(), cover.osc_bound,
            getattr(out, "envelope_constant", None))


def check_switched(space, v, rng):
    """Every pair reader that takes p < q on exactly symmetric distances
    against the ordered-pair reference: max_slope, max_slopes, a
    ball_sweep, min_positive_distance, nearest_positive,
    ModulusWitness.certify, the doubled-ball checks of an increasing
    cover, and its soundness check, each asserted on value and pair."""
    D, n, tol = space.pairwise(), space.n, 1e-9
    ids = np.arange(n)
    for zero in (0.0, math.inf):
        want = ref_max_slope(D, v, ids, zero)[0]
        assert same(_pairs.max_slope(space, v, zero=zero), want)
        got = _pairs.max_slopes(space, np.array([v, v[::-1]]), zero)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(
            ref_max_slope(D, v[::-1], ids, zero)[0][0]).tobytes()
    centers = rng.integers(n, size=3)
    radii = rng.choice([0.5, 1.5, 4.0, math.inf], size=3)
    rates = rng.uniform(0.0, 2.0, size=3)
    x, pairs = _pairs.ball_sweep(space, v, centers, radii,
                                 lambda d, o, seg: o - rates[seg] * d)
    for b, (c, radius, K) in enumerate(zip(centers, radii, rates)):
        ball = np.flatnonzero(D[c] < radius)
        want = ref_worst_excess(D, v[ball], lambda i, j, d: K * d, ball)
        got = tuple(int(p) for p in pairs[b])
        assert same((x[b], None if got == (-1, -1) else got), want)
    want = ref_min_positive_distance(D)
    if want is None:
        with pytest.raises(PreconditionError):
            space.min_positive_distance()
    else:
        assert space.min_positive_distance() == want
    np.testing.assert_array_equal(space.nearest_positive(),
                                  ref_nearest_positive(D))
    levels = rng.integers(1, 4, size=n).astype(float)
    for kind in ("bounded", "unbounded"):
        m = ModulusWitness(kind, space, levels, None, 0.0, v, None)

        def cap(i, j, d):
            base = max(levels[i], levels[j])
            if kind == "unbounded":
                base = base * (1.0 + abs(v[i] - v[j]))
            return base * d * (1.0 + tol)
        assert same(m.certify(tol), ref_worst_excess(D, v, cap, ids))
    for compressed in (False, True):
        num = compress if compressed else (lambda o: o)
        thresholds = np.array([1, 2, 3])
        eta = rng.integers(1, 5, size=n)
        cover = IncreasingCover(space, [], None, thresholds, eta, 0.0, v,
                                compressed)
        assert same(cover.soundness_check(),
                    ref_soundness(D, v, thresholds, eta, num))
        entries = [(int(p), float(rng.uniform(0.2, 2.0)),
                    float(rng.uniform(0.0, 2.0))) for p in rng.permutation(n)]
        witness = LocalWitness.from_triples(entries)
        try:
            _cover_from_oscillation(space, witness, v, compressed, tol)
            got = None
        except PreconditionError as exc:
            got = exc.witness
        except CoverError:
            got = None
        # a NaN oscillation is refused before any entry is checked
        osc, pair = ref_worst_excess(D, v, lambda i, j, d: 0.0, ids, num)
        want = pair if math.isnan(osc) else ref_doubled_ball_failure(
            D, v, entries, tol, num)
        assert got == want
    cert = certify_local_witness(Tabulated(space, v), witness)
    per_entry, worst = [], None
    for j, (p, delta, K) in enumerate(entries):
        ball = np.flatnonzero(D[p] < 2.0 * delta)
        e, pair = ref_worst_excess(D, v[ball], lambda i, k, d: K * d, ball)
        per_entry.append(0.0 if pair is None else e)
        if pair is not None and (worst is None or e > worst[0] or (
                math.isnan(e) and not math.isnan(worst[0]))):
            worst = (e, (j, pair))
    np.testing.assert_array_equal(cert.details["per_entry_worst"], per_entry)
    if worst is not None:
        assert same((cert.worst_violation, cert.witness), worst)


# ---------------------------------------------------------------------------
# Mask references of the ball gathering: boolean rows over the samples


def ref_ball_masks(space, centers, radii):
    """The open balls B(centers[b], radii[b]) as boolean rows over the
    samples, a row block of balls at a time: yields (a, mask) where
    mask[i] holds the members of ball a + i."""
    D = space.pairwise()
    for r in _pairs.row_blocks(len(centers), space.n):
        yield r.start, D[centers[r]] < radii[r, None]


def ref_ball_sweep(space, v, centers, radii, value, inside=None):
    """ball_sweep as one segmented sweep per mask block: each block's
    members laid out from its mask, its pairs in chunks of about
    _BLOCK / 2 that never span two blocks."""
    best = np.full(len(centers), -math.inf)
    pairs = np.full((len(centers), 2), -1)
    D = space.pairwise()
    mirror = space.exactly_symmetric()
    budget = max(1, _pairs._BLOCK >> 1)
    with np.errstate(invalid="ignore", over="ignore"):
        for a, mask in ref_ball_masks(space, centers, radii):
            if inside is not None:
                mask &= inside
            ball, s = np.divmod(np.flatnonzero(mask), space.n)
            size = np.bincount(ball, minlength=len(mask))
            end = np.cumsum(size)[ball]
            at = np.arange(len(s))
            if mirror:
                member, lo, hi = at, at + 1, end
            else:
                member = np.repeat(at, 2)
                lo = np.column_stack((end - size[ball], at + 1)).ravel()
                hi = np.column_stack((at, end)).ravel()
            width = hi - lo
            ends = np.cumsum(width)
            starts = ends - width
            total = int(ends[-1]) if len(s) else 0
            cuts = np.searchsorted(starts, np.arange(0, total, budget))
            for r0, r1 in zip(cuts, np.append(cuts[1:], len(member))):
                if r0 == r1 or starts[r0] == ends[r1 - 1]:
                    continue
                w, m = width[r0:r1], member[r0:r1]
                q = s[np.arange(starts[r0], ends[r1 - 1])
                      - np.repeat(starts[r0:r1] - lo[r0:r1], w)]
                p, seg = np.repeat(s[m], w), np.repeat(ball[m], w)
                e = value(D[p, q], np.abs(np.repeat(v[s[m]], w) - v[q]),
                          a + seg)
                lead = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
                top = np.empty(len(mask))
                top[seg[lead]] = np.maximum.reduceat(e, lead)
                hit = np.flatnonzero((e == top[seg]) | np.isnan(e))
                hit = hit[np.r_[True, seg[hit[1:]] != seg[hit[:-1]]]]
                b, x = a + seg[hit], e[hit]
                old = best[b]
                take = ((pairs[b, 0] < 0) | (x > old)
                        | (np.isnan(x) & ~np.isnan(old)))
                b, hit = b[take], hit[take]
                best[b] = e[hit]
                pairs[b] = np.column_stack((p[hit], q[hit]))
    return best, pairs


def ref_least_ceilings(space, centers, deltas, ceilings):
    """Each sample's least ceiling over the single balls B(p, delta)
    holding it, iinfo max where none does: the cover's eta loop."""
    none = np.iinfo(ceilings.dtype).max
    eta = np.full(space.n, none, dtype=ceilings.dtype)
    for a, mask in ref_ball_masks(space, centers, deltas):
        held = np.where(mask, ceilings[a:a + len(mask), None], none)
        np.minimum(eta, held.min(axis=0), out=eta)
    return eta


def ref_covered(space, centers, deltas, inside=None):
    """The samples in some single ball, or outside the domain inside:
    the covered mask of the local-witness check."""
    covered = np.zeros(space.n, dtype=bool)
    for _, mask in ref_ball_masks(space, centers, deltas):
        covered |= mask.any(axis=0)
    if inside is not None:
        covered |= ~inside
    return covered


def ref_mask_peaks(space, centers, deltas, v):
    """Each single ball's peak |v|, 0 for an empty ball: the slice
    cover's peak loop."""
    size = np.abs(v)
    peaks = np.empty(len(centers))
    for a, mask in ref_ball_masks(space, centers, deltas):
        peaks[a:a + len(mask)] = np.max(np.broadcast_to(size, mask.shape),
                                        axis=1, where=mask, initial=0.0)
    return peaks


# ---------------------------------------------------------------------------
# Row-scan references of the local layer: one distance-row scan per ball


def triples(witness):
    """The (point, delta, constant) entries of a LocalWitness as a list
    of Python tuples."""
    return list(zip(witness.points.tolist(), witness.deltas.tolist(),
                    witness.constants.tolist()))


def ref_certify_local_witness(f, witness, domain=None, tol=1e-9):
    """certify_local_witness scanning a pairwise() row for every ball,
    over the pairs p < q of each doubled ball."""
    space = f.space
    v = f.values()
    D = space.pairwise()
    ids_all = np.arange(space.n) if domain is None else domain.members

    worst, worst_witness = -math.inf, None
    per_entry = []
    for idx, (p, delta, K) in enumerate(triples(witness)):
        inside = ids_all[D[p, ids_all] < 2.0 * delta]
        e, pair = _pairs.worst_excess(space, v[inside], lambda r, c, d, o: K * d,
                                      ids=inside)
        per_entry.append(0.0 if pair is None else e)
        if pair is not None and not (e <= worst) and worst == worst:
            worst, worst_witness = e, (idx, pair)
    if worst_witness is None:
        worst = 0.0

    covered = np.zeros(space.n, dtype=bool)
    for p, delta, _ in triples(witness):
        covered[D[p] < delta] = True
    uncovered = [int(i) for i in ids_all if not covered[i]]

    passed = worst <= tol and not uncovered
    details = {
        "entry_count": len(witness),
        "per_entry_worst": per_entry,
        "uncovered": uncovered,
    }
    if worst_witness is None and uncovered:
        worst_witness = ("uncovered", uncovered[0])
    return Certificate("local-witness", passed, worst, tol, worst_witness, details)


def ref_cover_sets(D, witness, levels, tol=1e-9):
    """(thresholds, memberships, eta) of an increasing cover grown
    threshold by threshold: U_t is the union of the single balls whose
    level ceiling is at most t, and eta is the first t reaching x."""
    ceilings = np.maximum(1, np.ceil(levels - tol).astype(int))
    thresholds = np.unique(ceilings)
    memberships = {}
    grown = np.zeros(D.shape[0], dtype=bool)
    eta = np.full(D.shape[0], -1, dtype=int)
    for t in thresholds:
        for j, (p, delta, _) in enumerate(triples(witness)):
            if ceilings[j] <= t:
                grown |= D[p] < delta
        memberships[int(t)] = grown.copy()
        eta[grown & (eta < 0)] = int(t)
    return thresholds, memberships, eta


def ref_witness_from_modulus(modulus, points, deltas):
    """witness_from_modulus reading the n x n rate matrix."""
    D = modulus.space.pairwise()
    L = modulus.matrix()
    triples = []
    for p, delta in zip(points, deltas):
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        triples.append((p, delta, float(L[np.ix_(ids, ids)].max(initial=0.0))))
    return LocalWitness.from_triples(triples)


def ref_radii_witness(f, deltas):
    """A witness for f with the given radii, one entry per sample: each
    rate is the largest pair slope inside the doubled ball, read from
    the matrix, so the witness certifies f by construction."""
    D = f.space.pairwise()
    v = f.values()
    triples = []
    for p, delta in enumerate(deltas):
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        rate = max((ref_slope(abs(v[i] - v[j]), D[i, j], 0.0)
                    for i in ids for j in ids if i != j), default=0.0)
        triples.append((p, delta, rate))
    return LocalWitness.from_triples(triples)


def ref_slice_peaks(space, witness, v):
    """Each entry's peak |v| over its single ball, one space.ball per
    entry."""
    return np.array([float(np.abs(v[space.ball(p, delta)]).max(initial=0.0))
                     for p, delta, _ in triples(witness)])


def leaf_sums(values, mask):
    """math.fsum of each column's entries where mask holds, one sample
    at a time, as a list."""
    return [math.fsum(values[i, p] for i in np.flatnonzero(mask[:, p]))
            for p in range(values.shape[1])]


def ref_mather_refine(cover: CozeroCover, tol: float = _DEFAULT_TOL) -> MatherRefinement:
    """The field-tree mather_refine the array version replaced, kept
    verbatim as its reference.

    Shrink the cover so every sample keeps a witness above half the
    mixture eta = sum eta_n / 2^n.

    Requires witness n bounded by 2^-n and 1-Lipschitz within
    tolerance.  At the largest witness of a sample the mixture is
    strictly smaller, so positivity survives the shrink; a witness with
    bound 2^-n dies wherever the mixture exceeds 2^-(n-1), which caps
    how many shrunken sets meet any sample.
    """
    space = cover.space
    for n, w in enumerate(cover.witnesses, start=1):
        hi = float(w.values().max())
        bound = 2.0 ** -n
        if hi > bound + tol:
            raise PreconditionError(
                f"witness {n} exceeds its 2^-{n} bound by {hi - bound:.3e}")
        est = global_lip(w)
        if est.value > 1.0 + tol:
            raise PreconditionError(
                f"witness {n} is not 1-Lipschitz: constant {est.value:.6f} "
                f"at pair {est.witness}")
    terms = [Constant(space, 2.0 ** -n) * w
             for n, w in enumerate(cover.witnesses, start=1)]
    eta = Series(space, terms)
    half = Constant(space, 0.5) * eta
    gammas = [maximum(w - half, Constant(space, 0.0)) for w in cover.witnesses]
    dominated = [j for j, g in enumerate(gammas)
                 if float(g.values().max()) == 0.0]
    kept = np.zeros(space.n, dtype=bool)
    for g in gammas:
        kept |= g.values() > 0.0
    lost = np.flatnonzero(~kept)
    if lost.size:
        raise CoverError(f"refinement lost sample {int(lost[0])}")
    return MatherRefinement(cover, gammas, eta, dominated)


def ref_frolik_pou(cover: CozeroCover, tol: float = _DEFAULT_TOL,
                   max_members: int = _MEMBER_CAP) -> PartitionOfUnity:
    """The field-tree frolik_pou the array version replaced, kept
    verbatim as its reference.

    Partition of unity subordinated to the cover.

    Witnesses are scaled to 1-Lipschitz, clamped at 2^-n, shrunk by
    mather_refine, and renormalized to peak 2^-n again.  The staircase
    of the reciprocal mixture then splits one into pieces

        xi[n, k] = eta_n * (min(k, 1/eta) - min(k - 1, 1/eta)),

    built on shared clamp nodes so the per-sample sums telescope.  The
    piece count per set is the largest staircase index alive on the
    set, which grows like 2^(cover size) divided by the cover's margin;
    the cap fails loudly instead of materializing an infeasible family.
    """
    space = cover.space
    normalized = []
    for n, w in enumerate(cover.witnesses, start=1):
        c = global_lip(w).value
        scaled = w
        if c > 1.0:
            scaled = Constant(space, 1.0 / c) * w
        normalized.append(minimum(Constant(space, 2.0 ** -n), scaled))
    refined = ref_mather_refine(CozeroCover(space, normalized), tol)

    rebuilt = []
    owners = []
    for j, g in enumerate(refined.gammas):
        beta = float(g.values().max())
        if beta == 0.0:
            continue
        unit = minimum(Constant(space, 1.0), Constant(space, 1.0 / beta) * g)
        rebuilt.append(Constant(space, 2.0 ** -(j + 1)) * unit)
        owners.append(j)

    recip = Transported("reciprocal", Series(space, rebuilt))
    # piece k is live at p iff k - 1 < r(p)
    live_k = np.ceil(recip.values()).astype(int)

    support = np.stack([w.values() for w in rebuilt]) > 0.0
    k_caps = [int(live_k[on].max()) for on in support]
    total = int(sum(k_caps))
    if total > max_members:
        raise CoverError(
            f"staircase family needs {total} members for {len(rebuilt)} sets "
            f"(cap {max_members}); use fewer sets or better-margined witnesses")

    clamps = [Constant(space, 0.0)]
    for k in range(1, max(k_caps) + 1):
        clamps.append(minimum(Constant(space, float(k)), recip))

    # member m is step member_k[m] of rebuilt set owner_row[m]
    owner_row = np.repeat(np.arange(len(rebuilt)), k_caps)
    member_k = np.concatenate([np.arange(1, c + 1) for c in k_caps])
    members = [rebuilt[j] * (clamps[k] - clamps[k - 1])
               for j, k in zip(owner_row, member_k)]
    set_index = [owners[j] for j in owner_row]
    live = support[owner_row] & (member_k[:, None] <= live_k[None, :])

    notes = []
    if refined.dominated:
        notes.append(f"dropped dominated set(s) {refined.dominated}")
    pou = PartitionOfUnity(space, np.stack([m.values() for m in members]),
                           set_index, live, cover=cover, notes=notes)
    pou.refinement = refined
    pou.k_caps = k_caps
    return pou


# ---------------------------------------------------------------------------
# The anchored scans that _pairs.envelope replaced, on the whole matrix


def ref_envelope_scan(D, ids, values, consts, sign):
    """The McShane max/min of Envelope, before its anchor override."""
    spread = D[:, ids] * consts
    return (np.max(values - spread, axis=1) if sign < 0
            else np.min(values + spread, axis=1))


def ref_distance_scan(D, members):
    """d(., members) as DistanceTo read it: the row minima."""
    return D[:, members].min(axis=1)


def ref_tent_scan(D, centers, radii):
    """The tent max of a ball group, clipped at 0."""
    return np.maximum((radii - D[:, centers]).max(axis=1), 0.0)


def ref_closed_scan(D, members):
    """is_closed_at_sample_scale as an np.ix_ gather of the outside rows,
    a row block at a time."""
    n = len(D)
    if members.size in (0, n):
        return True
    outside = np.setdiff1d(np.arange(n), members)
    return all(D[np.ix_(outside[r], members)].min() > 0
               for r in _pairs.row_blocks(outside.size, members.size))


def ref_draw_bounds(D, members, vals, K):
    """The starting bounds (lo, hi) of random_k_extension, both from
    one scaled gather per row block."""
    lo, hi = np.empty(len(D)), np.empty(len(D))
    for r in _pairs.row_blocks(len(D), members.size):
        spread = D[r][:, members]
        spread *= K
        lo[r] = np.max(vals - spread, axis=1)
        hi[r] = np.min(vals + spread, axis=1)
    return lo, hi


def ref_triangles(D, tol):
    """Every triangle violation (i, k, j) with its excess, middle index
    first and then row-major, from two n x n temporaries per middle
    index."""
    out = []
    with np.errstate(invalid="ignore"):
        for k in range(len(D)):
            excess = D - (D[:, [k]] + D[[k], :])
            for i, j in np.argwhere(excess > tol):
                if i != k and j != k and i != j:
                    out.append((int(i), int(k), int(j), float(excess[i, j])))
    return out


# ---------------------------------------------------------------------------
# Front-end references: the CSV reader and writers cell by cell


def ref_read_csv_floats(path):
    """The CSV reader as a list of float rows, checked for width after
    the loop."""
    rows, lines = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    rows.append([float(c) for c in cells])
                    lines.append(lineno)
                except ValueError:
                    if lineno == 1:
                        continue        # tolerated header row
                    raise InputError(f"{path}, line {lineno}: not numeric")
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    if not rows:
        raise InputError(f"{path}: empty file")
    width = len(rows[0])
    for r, lineno in zip(rows, lines):
        if len(r) != width:
            raise InputError(f"{path}, line {lineno}: ragged row")
    return np.array(rows), lines


def ref_save_values_csv(path, values, ids=None):
    """The value CSV, one numpy scalar at a time."""
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = np.arange(values.size)
    lines = [f"{int(i)},{float(v)!r}" for i, v in zip(ids, values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_save_wide_csv(path, names, columns):
    """The wide CSV, one numpy scalar at a time."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    lines = ["id," + ",".join(names)]
    for p in range(n):
        lines.append(str(p) + "," + ",".join(repr(float(c[p])) for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
