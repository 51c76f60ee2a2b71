"""The pair kernel against the naive ordered-pair reference of helpers."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (check_switched, compress, make_instance, make_space,
                     ref_closed_scan, ref_distance_scan, ref_draw_bounds,
                     ref_envelope_scan, ref_greedy, ref_max_slope,
                     ref_min_positive_distance, ref_tent_scan, ref_triangles,
                     ref_worst_excess, same)
from lipkit import (DistanceTo, LocalWitness, MetricSpace, ModulusWitness,
                    PreconditionError, Subset, Tabulated,
                    certify_local_witness, check_k_lipschitz,
                    generate_pointwise_witness, global_lip, pointwise_lip,
                    random_k_extension)
from lipkit import _pairs
from lipkit.extension import Envelope
from lipkit.metric_space import _coord_dist, _validate_matrix
from lipkit.partition_of_unity import _BallUnion


def check_all(space, v, ids=None, L=None, K=1.5):
    """Every cap and both reductions against the reference."""
    D = space.pairwise()
    pos = np.arange(space.n) if ids is None else ids
    L = np.linspace(1.0, 3.0, len(pos)) if L is None else L
    caps = [
        (lambda r, c, d, o: K * d, lambda i, j, d: K * d),
        (lambda r, c, d, o: np.minimum(L[r, None], L[None, c]) * d,
         lambda i, j, d: min(L[i], L[j]) * d),
        (lambda r, c, d, o: L[r, None] * d, lambda i, j, d: L[i] * d),
    ]
    for block_cap, scalar_cap in caps:
        got = _pairs.worst_excess(space, v, block_cap, ids=ids,
                                  symmetric=False)
        want = ref_worst_excess(D, v, scalar_cap, pos)
        assert same(got, want), (got, want)
    # caps symmetric in (p, q): the ordered result, from half the pairs
    # on exactly symmetric distances
    for block_cap, scalar_cap in caps[:2]:
        got = _pairs.worst_excess(space, v, block_cap, ids=ids)
        assert same(got, ref_worst_excess(D, v, scalar_cap, pos))
    got = _pairs.worst_excess(space, v, caps[0][0], ids=ids, num=compress)
    want = ref_worst_excess(D, v, caps[0][1], pos, num=compress)
    assert same(got, want)
    for zero in (0.0, math.inf):
        want, rows = ref_max_slope(D, v, pos, zero)
        assert same(_pairs.max_slope(space, v, ids, zero), want)
        np.testing.assert_array_equal(
            _pairs.max_slope(space, v, ids, zero, per_row=True), rows)
    if ids is None:
        # every ordered pair listed in row-major order: the sweep's result
        f = Tabulated(space, v)
        listed = [(p, q) for p in range(space.n) for q in range(space.n)
                  if p != q]
        swept, got = check_k_lipschitz(f, K), check_k_lipschitz(f, K,
                                                                pairs=listed)
        assert same((got.worst_violation, got.witness),
                    (swept.worst_violation, swept.witness))
        swept, got = global_lip(f), global_lip(f, pairs=listed)
        assert same((got.value, got.witness), (swept.value, swept.witness))


@pytest.fixture(params=[7, 61, None],
                ids=["small-blocks", "multi-row-blocks", "default-blocks"])
def block(request, monkeypatch):
    """Run each test with several row blocks per sweep as well: blocks of
    one row on most test spaces, and blocks of a few rows, whose mirrored
    entries and row maxima fold within the block too."""
    if request.param is not None:
        monkeypatch.setattr(_pairs, "_BLOCK", request.param)


def test_seeded_spaces(block):
    rng = np.random.default_rng(11)
    for _ in range(12):
        space = make_space(rng, n_max=18)
        v = rng.normal(size=space.n)
        check_all(space, v, K=float(rng.uniform(0.2, 3.0)))


def test_subsets_given_as_ids(block):
    rng = np.random.default_rng(12)
    for _ in range(12):
        space = make_space(rng, n_max=18)
        ids = np.sort(rng.choice(space.n, size=int(rng.integers(1, space.n + 1)),
                                 replace=False))
        check_all(space, rng.normal(size=ids.size), ids=ids)


def test_one_and_two_samples(block):
    one = MetricSpace.from_points([0.0])
    assert _pairs.worst_excess(one, np.array([3.0]),
                               lambda r, c, d, o: d) == (-math.inf, None)
    assert _pairs.max_slope(one, np.array([3.0])) == (0.0, None)
    np.testing.assert_array_equal(
        _pairs.max_slope(one, np.array([3.0]), per_row=True), [0.0])
    two = MetricSpace.from_points([0.0, 2.0])
    check_all(two, np.array([1.0, -1.0]))
    assert _pairs.worst_excess(two, np.array([1.0, -1.0]),
                               lambda r, c, d, o: 0.5 * d) == (1.0, (0, 1))


def test_exact_ties_go_to_the_first_pair(block):
    D = np.ones((5, 5)) - np.eye(5)
    space = MetricSpace.from_matrix(D)
    v = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    check_all(space, v)
    assert _pairs.worst_excess(space, v, lambda r, c, d, o: d) == (0.0, (0, 1))
    assert _pairs.max_slope(space, v) == (1.0, (0, 1))
    # every pair -inf (an infinite cap): still the first pair, never a self-pair
    infinite = lambda r, c, d, o: np.full(d.shape, math.inf)  # noqa: E731
    for symmetric in (True, False):
        got = _pairs.worst_excess(space, v, infinite, symmetric=symmetric)
        assert got == (-math.inf, (0, 1))
        got = _pairs.worst_excess(space, v[2:], infinite, ids=np.arange(2, 5),
                                  symmetric=symmetric)
        assert got == (-math.inf, (2, 3))


def test_asymmetric_row_cap(block):
    space = MetricSpace.from_points([0.0, 1.0, 3.0])
    v = np.array([0.0, 2.0, 2.5])
    L = np.array([1.0, 3.0, 0.1])
    check_all(space, v, L=L)
    # row 2 carries the small constant: the worst ordered pair starts there
    got = _pairs.worst_excess(space, v, lambda r, c, d, o: L[r, None] * d,
                              symmetric=False)
    assert got[1] == (2, 0)


def test_distance_zero_pairs(block):
    D = np.array([[0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0],
                  [1.0, 1.0, 0.0]])
    space = MetricSpace.from_matrix(D, validate=False)
    v = np.array([0.0, 2.0, 1.0])
    check_all(space, v)
    assert _pairs.max_slope(space, v, zero=math.inf) == (math.inf, (0, 1))
    assert _pairs.max_slope(space, v, zero=0.0) == (1.0, (0, 2))
    # agreeing values at distance zero have slope 0 under either rule
    flat = np.array([1.0, 1.0, 1.0])
    assert _pairs.max_slope(space, flat, zero=math.inf) == (0.0, (0, 1))


def test_nan_values_win(block):
    rng = np.random.default_rng(13)
    space = make_space(rng, n_max=12, kinds=[1])
    v = rng.normal(size=space.n)
    v[2] = math.nan
    check_all(space, v)
    excess, pair = _pairs.worst_excess(space, v, lambda r, c, d, o: d)
    assert math.isnan(excess) and pair == (0, 2)
    value, pair = _pairs.max_slope(space, v)
    assert math.isnan(value) and pair == (0, 2)


def check_max_slopes(space, V):
    """Every row's value bit for bit against the reference, both rules."""
    D, ids = space.pairwise(), np.arange(space.n)
    for zero in (0.0, math.inf):
        got = _pairs.max_slopes(space, V, zero)
        assert got.shape == (len(V),)
        for x, row in zip(got, V):
            want = ref_max_slope(D, row.tolist(), ids, zero)[0][0]
            assert np.float64(x).tobytes() == np.float64(want).tobytes(), \
                (zero, row, x, want)


def special_rows(rng, n):
    """Seeded normal rows, rows mixing NaN and +-inf, a constant row and
    a row holding one infinity twice."""
    special = [0.0, 1.0, -2.5, math.inf, -math.inf, math.nan]
    rows = [rng.normal(size=n), rng.choice(special, size=n),
            rng.choice(special[:4], size=n), np.full(n, 3.0),
            np.where(np.arange(n) < 2, math.inf, 0.0)]
    return np.array(rows)


def test_max_slopes_matches_the_reference_per_row(block):
    rng = np.random.default_rng(22)
    spaces = [make_space(rng, n_max=16, kinds=[kind])
              for kind in range(4) for _ in range(3)]
    # ordered pairs on a matrix one ulp off symmetric
    D = spaces[0].pairwise().copy()
    D[2, 0] = np.nextafter(D[2, 0], 0.0)
    spaces.append(MetricSpace.from_matrix(D, validate=False))
    assert not spaces[-1].exactly_symmetric()
    # duplicated samples: distinct pairs at distance 0
    pts = rng.uniform(-1.0, 1.0, size=(5, 2))
    spaces.append(MetricSpace.from_points(pts[[0, 1, 1, 2, 3, 3, 3, 4]],
                                          validate=False))
    # unvalidated distances that are not positive: -0.0, negative, NaN
    D = np.array([[0.0, -0.0, 1.0, -1.0],
                  [-0.0, 0.0, 2.0, 2.0],
                  [1.0, 2.0, 0.0, 1.0],
                  [-1.0, 2.0, 1.0, 0.0]])
    spaces.append(MetricSpace.from_matrix(D, validate=False))
    D = D.copy()
    D[1, 2] = math.nan
    spaces.append(MetricSpace.from_matrix(D, validate=False))
    spaces += [MetricSpace.from_points([0.0]),
               MetricSpace.from_points([0.0, 2.0]),
               MetricSpace.from_points([1.0, 1.0], validate=False)]
    for space in spaces:
        check_max_slopes(space, special_rows(rng, space.n))
        check_max_slopes(space, np.empty((0, space.n)))


def test_pointwise_witness_matches_pointwise_lip():
    rng = np.random.default_rng(14)
    for _ in range(8):
        space = make_space(rng, n_max=20)
        space.pairwise()
        f = Tabulated(space, rng.normal(size=space.n))
        w = generate_pointwise_witness(f)
        for p in range(space.n):
            assert w.constants[p] == max(pointwise_lip(f, p).value, 1.0)


def old_slope(o, d, zero):
    """The two-pass formula the one-pass kernel replaced."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(d > 0, o / np.where(d > 0, d, 1.0), 0.0)
    if zero:
        s[(d == 0) & (o > 0)] = zero
    return s


def test_slope_is_the_two_pass_formula_bit_for_bit():
    special = [0.0, -0.0, 1.0, 2.5, -1.0, math.inf, math.nan, 5e-324]
    o, d = np.array([(x, y) for x in special + [3.0] for y in special]).T
    rng = np.random.default_rng(15)
    o = np.concatenate([np.abs(o), rng.exponential(size=50)])
    d = np.concatenate([d, rng.choice(special, size=50)])
    for zero in (0.0, math.inf):
        got, want = _pairs.slope(o, d, zero), old_slope(o, d, zero)
        assert got.tobytes() == want.tobytes()
        assert _pairs.slope(o.reshape(-1, 2), d.reshape(-1, 2),
                            zero).tobytes() == want.tobytes()
    # a NaN gap over a positive distance stays NaN
    assert math.isnan(_pairs.slope(np.array([math.nan]), np.array([1.0]),
                                   0.0)[0])


def test_exactly_symmetric_by_backend():
    rng = np.random.default_rng(16)
    for kind in range(4):
        space = make_space(rng, n_max=12, kinds=[kind])
        D = space.pairwise()
        assert space.exactly_symmetric() == bool(np.array_equal(D, D.T))
        if kind in (1, 3):
            assert space.exactly_symmetric()


def test_exactly_symmetric_in_row_blocks_is_array_equal(block):
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 20))
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        D = 0.5 * (D + D.T)
        i, j = rng.choice(n, size=2, replace=False)
        ulp, nan = D.copy(), D.copy()
        ulp[i, j] = np.nextafter(ulp[i, j], math.inf)
        nan[i, j] = nan[j, i] = math.nan
        for M in (D, ulp, nan):
            space = MetricSpace.from_matrix(M, validate=False)
            assert space.exactly_symmetric() == bool(np.array_equal(M, M.T))


def test_seeded_switched_sweeps(block):
    rng = np.random.default_rng(17)
    for _ in range(10):
        space = make_space(rng, n_max=14)
        v = rng.choice([0.0, 1.0, 2.0, rng.normal()], size=space.n)
        check_switched(space, v, rng)
        # the smallest distance below the diagonal one ulp smaller: only
        # the ordered pairs see it
        D = space.pairwise().copy()
        low = np.where(np.tri(space.n, k=-1, dtype=bool) & (D > 0), D, np.inf)
        i, j = np.unravel_index(np.argmin(low), D.shape)
        D[i, j] = np.nextafter(D[i, j], 0.0)
        skew = MetricSpace.from_matrix(D, validate=False)
        assert not skew.exactly_symmetric()
        check_all(skew, v)
        check_switched(skew, v, np.random.default_rng(space.n))


def test_asymmetric_matrix_sweeps_ordered_pairs(block):
    # d(2, 0) < d(0, 2): the steepest ordered pair lies below the diagonal
    D = np.array([[0.0, 1.0, 4.0],
                  [1.0, 0.0, 1.0],
                  [1.0, 1.0, 0.0]])
    space = MetricSpace.from_matrix(D, validate=False)
    assert not space.exactly_symmetric()
    v = np.array([0.0, 0.5, 2.0])
    check_all(space, v)
    check_switched(space, v, np.random.default_rng(18))
    assert _pairs.max_slope(space, v) == (2.0, (2, 0))
    m = ModulusWitness("bounded", space, np.ones(3), None, 0.0, v, None)
    assert m.certify(0.0) == (1.0, (2, 0))


def test_matrix_symmetric_only_within_tol(block):
    pts = np.array([0.0, 1.0, 3.0, 4.5])
    D = np.abs(pts[:, None] - pts[None, :])
    D[2, 0] -= 1e-12            # within the default tol of 1e-9
    space = MetricSpace.from_matrix(D)
    assert not space.exactly_symmetric()
    v = pts.copy()              # slope 1 on every pair but (2, 0)
    check_all(space, v)
    check_switched(space, v, np.random.default_rng(19))
    value, pair = _pairs.max_slope(space, v)
    assert pair == (2, 0) and value == 3.0 / D[2, 0]


def test_graph_backend(block):
    rng = np.random.default_rng(20)
    for _ in range(6):
        space = make_space(rng, n_max=16, kinds=[2])
        v = rng.normal(size=space.n)
        check_all(space, v)
        check_switched(space, v, rng)


def test_min_positive_distance(block):
    rng = np.random.default_rng(21)
    for _ in range(12):
        space = make_space(rng, n_max=30)
        assert space.min_positive_distance() == \
            ref_min_positive_distance(space.pairwise())
        # duplicated points: zero distances between distinct samples
        pts = rng.uniform(-5.0, 5.0, size=(int(rng.integers(2, 30)), 2))
        pts = pts[rng.integers(len(pts), size=2 * len(pts))]
        dup = MetricSpace.from_points(pts, validate=False)
        if (dup.pairwise() > 0).any():
            assert dup.min_positive_distance() == \
                ref_min_positive_distance(dup.pairwise())


def test_min_positive_distance_needs_a_positive_pair():
    for space in (MetricSpace.from_points([0.0]),
                  MetricSpace.from_matrix(np.zeros((4, 4)), validate=False),
                  MetricSpace.from_matrix(np.eye(3), validate=False)):
        with pytest.raises(PreconditionError):
            space.min_positive_distance()
    # an asymmetric matrix reads every ordered pair, below the diagonal too
    below = np.zeros((3, 3))
    below[2, 0] = 1.0
    assert MetricSpace.from_matrix(below, validate=False) \
        .min_positive_distance() == 1.0
    below[0, 1] = 2.0
    assert MetricSpace.from_matrix(below, validate=False) \
        .min_positive_distance() == 1.0
    # an exactly symmetric one reads p < q, which holds every value
    below[0, 2] = 1.0
    below[1, 0] = 2.0
    assert MetricSpace.from_matrix(below, validate=False) \
        .min_positive_distance() == 1.0


def test_ball_sweep_keeps_a_nan_from_a_later_chunk(block):
    """Ball {0, 1, 2} with 1 and 2 coincident and an infinite constant:
    every pair is capped at -inf except (1, 2), capped at inf * 0 = NaN,
    which the ball's second row holds; in chunks of one pair it must
    still beat the -inf of the first chunk.  The matrix is one ulp off
    symmetric, so its balls take the ordered pairs."""
    for space in (MetricSpace.from_points([[0.0], [1.0], [1.0]],
                                          validate=False),
                  MetricSpace.from_matrix([[0.0, np.nextafter(1.0, 2.0), 1.0],
                                           [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                                          validate=False)):
        v = np.array([0.0, 1.0, 2.0])
        with np.errstate(invalid="ignore"):
            x, pairs = _pairs.ball_sweep(space, v, np.array([0, 1]),
                                         np.array([math.inf, 0.5]),
                                         lambda d, o, seg: o - math.inf * d)
        assert math.isnan(x[0]) and pairs[0].tolist() == [1, 2]
        # ball {1, 2} holds only the NaN pair
        assert math.isnan(x[1]) and pairs[1].tolist() == [1, 2]


def dense_coord_dist(x, rows):
    """The whole-array formula the row-blocked _coord_dist replaced."""
    with np.errstate(invalid="ignore", over="ignore"):
        sq = x[rows, 0, None] - x[None, :, 0]
        sq *= sq
        for j in range(1, x.shape[1]):
            t = x[rows, j, None] - x[None, :, j]
            t *= t
            sq += t
        return np.sqrt(sq, out=sq)


def test_coord_dist_is_the_dense_formula_bit_for_bit(block):
    """pairwise(), dist_row and dist of a cloud, infinite coordinates
    (NaN distances) and squares past the float range (inf) included."""
    rng = np.random.default_rng(23)
    for dim in (1, 2, 3):
        for n in (1, 2, 9, 30):
            x = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, dim)
            if n > 3:
                x[1, 0] = x[3, 0] = math.inf
                x[2, -1] = 1e200
            want = dense_coord_dist(x, slice(None))
            if n > 3:
                assert np.isnan(want[1, 3]) and np.isinf(want[0, 2])
            assert _coord_dist(x, slice(None)).tobytes() == want.tobytes()
            rows = rng.integers(n, size=3)
            assert _coord_dist(x, rows).tobytes() == \
                dense_coord_dist(x, rows).tobytes()
            # a space that never builds its matrix, then one that does
            fresh = MetricSpace.from_points(x, validate=False)
            for p in range(n):
                assert fresh.dist_row(p).tobytes() == want[p].tobytes()
                assert np.float64(fresh.dist(p, n - 1 - p)).tobytes() == \
                    want[p, n - 1 - p].tobytes()
            assert fresh._matrix is None
            cached = MetricSpace.from_points(x, validate=False)
            assert cached.pairwise().tobytes() == want.tobytes()


def test_listed_pairs_read_the_floats_of_dist_on_every_backend():
    """listed_max gathers d(p, q) at once: the floats space.dist returns,
    infinite coordinates and squares past the float range included, and
    a coordinate space that has no matrix builds none."""
    rng = np.random.default_rng(25)
    x = rng.normal(size=(9, 3)) * 10.0 ** rng.integers(-3, 4, 3)
    x[1, 0] = x[3, 0] = math.inf
    x[2, -1] = 1e200
    fresh = [MetricSpace.from_points(x, validate=False),
             MetricSpace.from_points(x[:, :1], validate=False),
             MetricSpace.from_grid(-1.5, 2.0, 0.25, validate=False)]
    for space in fresh + [make_space(rng, n_max=12, kinds=[k])
                          for k in range(4)]:
        pairs = [(p, q) for p in range(space.n) for q in range(space.n)]
        seen = []
        _pairs.listed_max(space, np.zeros(space.n), pairs,
                          lambda d, o: seen.append(d.copy()) or d)
        want = np.array([space.dist(p, q) for p, q in pairs])
        assert seen[0].tobytes() == want.tobytes()
    assert all(space._matrix is None for space in fresh)


def test_pairwise_and_a_sweep_hold_no_second_matrix():
    n = 1000
    x = np.random.default_rng(24).uniform(size=(n, 2))
    space = MetricSpace.from_points(x, validate=False)
    f = Tabulated(space, x[:, 0])
    f.values()
    tracemalloc.start()
    try:
        space.pairwise()
        assert tracemalloc.get_traced_memory()[1] <= 8 * n * n + (1 << 20)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert check_k_lipschitz(f, 1.0).passed
        assert tracemalloc.get_traced_memory()[1] - base < 2 << 20
    finally:
        tracemalloc.stop()


def test_doubled_balls_of_every_sample_hold_no_member_list_of_n2():
    """n = 600 and infinite radii: every ball holds every sample, so the
    doubled-ball pass meets n^2 = 360k members.  It holds a few row
    blocks of them and O(n) more: less than 8 blocks of _BLOCK entries
    and 64 entries per sample (4.5 MB), where the ball and member ids of
    one n^2-long list alone are 5.8 MB."""
    n = 600
    x = np.random.default_rng(26).uniform(size=(n, 2))
    space = MetricSpace.from_points(x, validate=False)
    f = Tabulated(space, x[:, 0])
    f.values()
    space.pairwise()
    space.exactly_symmetric()
    witness = LocalWitness(np.arange(n), np.full(n, math.inf),
                           np.full(n, 2.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert certify_local_witness(f, witness).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * (8 * _pairs._BLOCK + 64 * n)


def test_anchor_gathers_match_the_dense_formulas(block):
    """Envelopes, distance and ball fields, the random draw's intervals,
    nearest distances and the closedness check, read in row blocks,
    against their whole-column formulas."""
    rng = np.random.default_rng(25)
    for _ in range(10):
        space, A, phi, K = make_instance(rng, n_max=20)
        D, ids = space.pairwise(), A.members
        consts = rng.uniform(1.0, 3.0, size=ids.size)
        spread = consts * D[:, ids]
        for sign, want in ((-1, np.max(phi - spread, axis=1)),
                           (+1, np.min(phi + spread, axis=1))):
            want[ids] = phi
            got = Envelope(space, ids, phi, consts, sign).values()
            assert got.tobytes() == want.tobytes()
        got = DistanceTo(space, ids).values()
        assert got.tobytes() == D[:, ids].min(axis=1).tobytes()
        radii = rng.uniform(0.1, 3.0, size=ids.size)
        got = _BallUnion(space, ids, radii, 0).values()
        want = np.maximum((radii - D[:, ids]).max(axis=1), 0.0)
        assert got.tobytes() == want.tobytes()
        got = random_k_extension(A, phi, K, seed=3).values()
        assert got.tobytes() == \
            ref_greedy(A, phi, K, A.complement(), 3).tobytes()
        pos = np.where(D > 0, D, np.inf).min(axis=1)
        want = np.where(np.isinf(pos), np.nan, pos)
        np.testing.assert_array_equal(space.nearest_positive(), want)
        assert A.is_closed_at_sample_scale()


def test_closedness_is_refused_in_any_row_block(block):
    """A zero or NaN distance from an outside sample to the set, in the
    first or the last row block of the outside samples."""
    pts = np.arange(12.0)
    for at in (1, 11):
        for bad in (0.0, math.nan):
            D = np.abs(pts[:, None] - pts[None, :])
            D[at, 0] = D[0, at] = bad
            space = MetricSpace.from_matrix(D, validate=False)
            assert not Subset(space, [0, 5]).is_closed_at_sample_scale()
            assert Subset(space, [2, 5]).is_closed_at_sample_scale()


def same_bits(got, want):
    """Equal float arrays bit for bit: -0.0 differs from 0.0 and every
    NaN payload counts."""
    return np.array_equal(got.view(np.int64), want.view(np.int64))


def mcshane_spaces(rng):
    """A space of each backend, a validated matrix whose diagonal is
    -0.0, and unvalidated symmetric and asymmetric matrices spoiled with
    NaN, inf, +-0.0 and negative entries."""
    spaces = [make_space(rng, n_max=16, kinds=[k]) for k in range(4)]
    n = int(rng.integers(2, 16))
    D = dense_coord_dist(rng.uniform(-3.0, 3.0, size=(n, 2)), slice(None))
    np.fill_diagonal(D, -0.0)
    spaces.append(MetricSpace.from_matrix(D))
    spoilers = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0]
    for symmetric in (True, False):
        S = D.copy()
        for _ in range(2 * n):
            i, j = rng.integers(n, size=2)
            S[i, j] = rng.choice(spoilers)
            if symmetric:
                S[j, i] = S[i, j]
        spaces.append(MetricSpace.from_matrix(S, validate=False))
    return spaces


def test_mcshane_scan_matches_the_five_scans_it_replaced(block):
    """Envelopes, d(., A), ball tents, the closedness check and the
    random draws' starting bounds, all read through _pairs.envelope,
    against the scans they used to write out, bit for bit."""
    rng = np.random.default_rng(27)
    closed = set()
    for _ in range(8):
        for space in mcshane_spaces(rng):
            D, n = space.pairwise(), space.n
            ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False))
            vals = rng.normal(size=ids.size)
            if space.backend == "matrix":
                vals[rng.random(ids.size) < 0.2] = rng.choice(
                    [math.nan, math.inf, -math.inf])
            consts = rng.uniform(0.5, 3.0, size=ids.size)
            K = float(rng.uniform(0.2, 4.0))
            with np.errstate(invalid="ignore"):
                for sign in (-1, +1):
                    want = ref_envelope_scan(D, ids, vals, consts, sign)
                    want[ids] = vals
                    got = Envelope(space, ids, vals, consts, sign).values()
                    assert same_bits(got, want)
                lo, hi = ref_draw_bounds(D, ids, vals, K)
                assert same_bits(_pairs.envelope(space, ids, vals, K, -1), lo)
                assert same_bits(_pairs.envelope(space, ids, vals, K, +1), hi)
                assert same_bits(DistanceTo(space, ids).values(),
                                 ref_distance_scan(D, ids))
                radii = rng.uniform(0.1, 3.0, size=ids.size)
                assert same_bits(_BallUnion(space, ids, radii, 0).values(),
                                 ref_tent_scan(D, ids, radii))
                want = ref_closed_scan(D, ids)
                assert Subset(space, ids).is_closed_at_sample_scale() == want
            closed.add(want)
    assert closed == {True, False}


def test_triangle_sweep_matches_the_two_temporary_loop():
    """Perturbed matrices, NaN and inf entries in every third, against
    the sweep that made two n x n temporaries per middle index: the
    pair checks' violations, then the triangles, the first 64."""
    rng = np.random.default_rng(28)
    counts = []
    for trial in range(12):
        n = int(rng.integers(3, 30))
        D = dense_coord_dist(rng.uniform(-3.0, 3.0, size=(n, 2)),
                             slice(None))
        for _ in range(int(rng.integers(n, 4 * n))):
            i, j = rng.integers(n, size=2)
            if i != j:
                D[i, j] = D[j, i] = D[i, j] * rng.uniform(2.0, 4.0)
        if trial % 3 == 2:
            for _ in range(3):
                i, j = rng.integers(n, size=2)
                D[i, j] = rng.choice([math.nan, math.inf])
        exact = np.array_equal(D, D.T)
        for tol in (1e-9, 0.5):
            pairs = _validate_matrix(D, tol, "by construction", exact)
            got = _validate_matrix(D, tol, "checked", exact)
            triangles = ref_triangles(D, tol)
            counts.append(len(triangles))
            want = [(v.kind, v.ids, v.magnitude) for v in pairs.violations]
            want += [("triangle", (i, k, j), m) for i, k, j, m in triangles]
            assert [(v.kind, v.ids, v.magnitude)
                    for v in got.violations] == want[:64]
    assert max(counts) > 64


def dense_pair_violations(D, tol):
    """The whole-matrix pair checks that the row-blocked validation
    replaced, as (kind, ids, magnitude), the first 64; positivity reads
    every ordered pair unless D is exactly symmetric."""
    with np.errstate(invalid="ignore"):
        asym = np.abs(D - D.T)
    out = [("nonfinite", (i, j), math.inf)
           for i, j in np.argwhere(~np.isfinite(D))]
    out += [("negative", (i, j), -D[i, j]) for i, j in np.argwhere(D < -tol)]
    diag = np.abs(np.diag(D))
    out += [("diagonal", (i,), diag[i]) for i in np.flatnonzero(diag > tol)]
    out += [("symmetry", (i, j), asym[i, j])
            for i, j in np.argwhere(np.triu(asym, 1) > tol)]
    nonpositive = (D <= tol) & ~np.eye(len(D), dtype=bool)
    if np.array_equal(D, D.T):
        nonpositive = np.triu(nonpositive, 1)
    out += [("positivity", (i, j), tol - D[i, j])
            for i, j in np.argwhere(nonpositive)]
    return [(k, tuple(map(int, ids)), float(m)) for k, ids, m in out[:64]]


def test_validation_pair_checks_match_the_dense_formulas(block):
    rng = np.random.default_rng(26)
    spoilers = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 1e-10]
    for _ in range(40):
        n = int(rng.integers(1, 30))
        pts = rng.uniform(-3.0, 3.0, size=(n, 2))
        D = dense_coord_dist(pts, slice(None))
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            i, j = rng.integers(n, size=2)
            D[i, j] = rng.choice(spoilers + [3.0 * D[i, j], D[i, j] + 1e-12])
        for tol in (1e-9, 0.5):
            got = _validate_matrix(D, tol, "by construction",
                                   np.array_equal(D, D.T)).violations
            assert [(v.kind, v.ids, v.magnitude) for v in got] == \
                dense_pair_violations(D, tol)
