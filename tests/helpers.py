"""Seeded builders shared across the test modules."""

import math

import numpy as np

from lipkit import (CoverError, IncreasingCover, LocalWitness, MetricSpace,
                    ModulusWitness, PreconditionError, Subset,
                    random_k_extension)
from lipkit import _pairs
from lipkit.local_lipschitz import _cover_from_oscillation


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


def ref_worst_excess(D, v, cap, ids, upper, num=lambda o: o):
    """Scalar loop over pairs; cap(i, j, d) takes positions into ids."""
    best = None
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i == j or (upper and j < i):
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
    """Smallest positive entry above the diagonal."""
    off = D[np.triu_indices(D.shape[0], 1)]
    return float(off[off > 0].min())


def compress(o):
    return o / (1.0 + o)


def ref_soundness(D, v, thresholds, memberships, num):
    """IncreasingCover.soundness_check over ordered pairs."""
    worst, witness = -math.inf, None
    for t in thresholds:
        ids = np.flatnonzero(memberships[t])
        e, pair = ref_worst_excess(D, v[ids], lambda i, j, d: t * d, ids,
                                   False, num)
        if pair is not None and e > worst:
            worst, witness = e, (t, pair)
    return worst, witness


def ref_doubled_ball_failure(D, v, entries, tol, num):
    """(entry, pair) of the first witness entry failing on its doubled
    ball over ordered pairs, or None."""
    for j, (p, delta, K) in enumerate(entries):
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        hi, pair = ref_worst_excess(D, v[ids], lambda i, k, d: K * d, ids,
                                    False, num)
        if not (hi <= tol):
            return j, pair
    return None


def check_switched(space, v, rng):
    """Every sweep that takes p < q on exactly symmetric distances
    against the ordered-pair reference: max_slope, ModulusWitness.certify,
    the doubled-ball checks of an increasing cover, and its soundness
    check, each asserted on value and pair."""
    D, n, tol = space.pairwise(), space.n, 1e-9
    ids = np.arange(n)
    for zero in (0.0, math.inf):
        assert same(_pairs.max_slope(space, v, zero=zero),
                    ref_max_slope(D, v, ids, zero)[0])
    levels = rng.integers(1, 4, size=n).astype(float)
    for kind in ("bounded", "unbounded"):
        m = ModulusWitness(kind, space, levels, None, 0.0, v, None)

        def cap(i, j, d):
            base = max(levels[i], levels[j])
            if kind == "unbounded":
                base = base * (1.0 + abs(v[i] - v[j]))
            return base * d * (1.0 + tol)
        assert same(m.certify(tol), ref_worst_excess(D, v, cap, ids, False))
    for compressed in (False, True):
        num = compress if compressed else (lambda o: o)
        thresholds = np.array([1, 2, 3])
        memberships = {int(t): rng.random(n) < 0.7 for t in thresholds}
        cover = IncreasingCover(space, [], None, thresholds, memberships, None,
                                0.0, v, compressed)
        assert same(cover.soundness_check(),
                    ref_soundness(D, v, thresholds, memberships, num))
        entries = [(int(p), float(rng.uniform(0.2, 2.0)),
                    float(rng.uniform(0.0, 2.0))) for p in rng.permutation(n)]
        try:
            _cover_from_oscillation(space, LocalWitness.from_triples(entries),
                                    v, compressed, tol)
            got = None
        except PreconditionError as exc:
            got = exc.witness
        except CoverError:
            got = None
        assert got == ref_doubled_ball_failure(D, v, entries, tol, num)
