"""Property tests: the pair readers that take p < q on exactly
symmetric distances, and the segmented sweep over many balls at once,
return the ordered reference's value and pair on small generated
spaces, values with ties and NaN included; max_slopes, with its tile
walk on one sorted axis, is max_slope row by row; a regrouped
partition of unity keeps the sum of the rows it regroups; and on make_space
spaces the selection, the decomposition, the pointwise interval
extension, the McShane-Whitney sandwich, the duality of the envelopes
and the restriction of the selection and local extensions through A
keep the statements of the paper they implement; and the covers of
modulus_witness and increasing_cover equal their per-ball reference on
clouds and grids at scales that push squared differences out of the
normal range."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import (check_switched, compress, cover_outcome,  # noqa: E402
                     leaf_sums, make_ball_cover, make_instance, make_space,
                     ref_ball_sweep, ref_min_positive_distance, same)
from lipkit import (Interval, IntervalMapping, LocalWitness,  # noqa: E402
                    MetricSpace, PartitionOfUnity, PointwiseWitness,
                    PreconditionError, Tabulated, _pairs, decompose,
                    duality_check, extend_to_interval, frolik_pou,
                    generate_local_witness, increasing_cover,
                    index_subordinate, local_extend, mcshane_envelopes,
                    modulus_witness, pointwise_extend_to_interval,
                    pou_report, random_k_extension, select, select_extend,
                    witness_from_balls)

VALUES = st.sampled_from([0.0, 0.0, 1.0, 1.0, -2.0, 0.5, 3.25, math.nan])
COORDS = st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.5, 2.0, 4.0])


@st.composite
def spaces(draw):
    """A point cloud, a grid, or a symmetric matrix (at times broken
    by one ulp, so that only the ordered sweep is sound), unvalidated:
    duplicates and zero distances stay in."""
    kind = draw(st.sampled_from(["points", "grid", "matrix"]))
    n = draw(st.integers(1, 7))
    if kind == "grid":
        step = draw(st.sampled_from([0.25, 0.5, 1.0, 0.1]))
        return MetricSpace.from_grid(0.0, step * (n - 1) + step / 2, step,
                                     validate=False)
    dim = draw(st.integers(1, 2))
    pts = np.array(draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    if kind == "points":
        return MetricSpace.from_points(pts, validate=False)
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        D[i, j] = np.nextafter(D[i, j], -1.0 if draw(st.booleans()) else 9.0)
    return MetricSpace.from_matrix(D, validate=False)


@settings(max_examples=150, deadline=None)
@given(spaces(), st.data())
def test_switched_sweeps_match_the_ordered_reference(space, data):
    v = np.array(data.draw(st.lists(VALUES, min_size=space.n,
                                    max_size=space.n)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    check_switched(space, v, np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_min_positive_distance_matches_the_ordered_pairs(space):
    D = space.pairwise()
    want = ref_min_positive_distance(D)
    if want is not None:
        assert space.min_positive_distance() == want
    else:
        with pytest.raises(PreconditionError):
            space.min_positive_distance()


# sample coordinates on one axis: duplicates, -0.0, subnormal spacing,
# squares past the float range and infinities (NaN once in a while)
AXIS = st.sampled_from([0.0, 0.0, -0.0, 1.0, -1.5, 2.0, 5e-324, 1e-323,
                        1e200, -1e200, math.inf, -math.inf, math.nan])
# values: NaN, infinities, gaps past the float range, -0.0, subnormals
SLOPE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 5e-324, 1e308,
                                -1e308, math.inf, -math.inf, math.nan])


@st.composite
def one_axis_spaces(draw):
    """An unvalidated 1-D cloud, sorted or as drawn, or a grid: of unit,
    fine or subnormal step, or so far out that neighbours coincide."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["sorted", "unsorted", "grid"]))
    if kind == "grid":
        lo, step = draw(st.sampled_from([(0.0, 1.0), (-3.0, 1e-3),
                                         (0.0, 5e-324), (1e16, 1.0)]))
        hi = max(lo + step * (n - 1) + step / 2, np.nextafter(lo, math.inf))
        return MetricSpace.from_grid(lo, hi, step, validate=False)
    x = np.array(draw(st.lists(AXIS, min_size=n, max_size=n)))
    return MetricSpace.from_points(np.sort(x) if kind == "sorted" else x,
                                   validate=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_axis_spaces(), st.data())
def test_max_slopes_is_max_slope_row_by_row(space, data):
    """Rows of adversarial values and compactly supported rows (zero
    off one window), zero in {0, inf}, with tiles of 1 to 4 samples and
    the default: every row's value is max_slope's bit for bit, and the
    tile walk's is the row blocks'.  A NaN is compared as NaN against
    max_slope: inf / inf makes a NaN of the other sign, and which NaN a
    reduction meets first depends on its order, which differs between
    max_slope and the row blocks of max_slopes alike."""
    n = space.n
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        row = np.array(data.draw(st.lists(SLOPE_VALUES, min_size=n,
                                          max_size=n)))
        if data.draw(st.booleans()):
            a = data.draw(st.integers(0, n - 1))
            row[:a] = 0.0
            row[data.draw(st.integers(a, n)):] = 0.0
        rows.append(row)
    V = np.array(rows)
    zero = data.draw(st.sampled_from([0.0, math.inf]))
    block = data.draw(st.sampled_from([4, 16, 36, 64, 1 << 16]))
    with mock.patch.object(_pairs, "_BLOCK", block):
        got = _pairs.max_slopes(space, V, zero)
        with mock.patch.object(_pairs, "sorted_axis", lambda space: False):
            blocks = _pairs.max_slopes(space, V, zero)
    assert got.tobytes() == blocks.tobytes()
    for x, row in zip(got, V):
        want = _pairs.max_slope(space, row, zero=zero)[0]
        assert (np.float64(x).tobytes() == np.float64(want).tobytes()
                or math.isnan(x) and math.isnan(want)), (row, x, want)


@st.composite
def ball_spaces(draw):
    """A space of spaces(), a connected graph, or an unvalidated 1-D
    distance matrix with NaN, zero and negative entries planted."""
    kind = draw(st.sampled_from(["spaces", "graph", "broken"]))
    if kind == "spaces":
        return draw(spaces())
    n = draw(st.integers(2, 7))
    if kind == "graph":
        weight = st.sampled_from([0.25, 0.5, 1.0, 2.0])
        node = st.integers(0, n - 1)
        edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
        edges += draw(st.lists(st.tuples(node, node, weight), max_size=n))
        return MetricSpace.from_graph(n, edges, validate=False)
    x = np.array(draw(st.lists(COORDS, min_size=n, max_size=n)))
    D = np.abs(x[:, None] - x[None, :])
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        D[i, j] = draw(st.sampled_from([math.nan, 0.0, -0.5]))
    return MetricSpace.from_matrix(D, validate=False)


@settings(max_examples=150, deadline=None)
@given(ball_spaces(), st.data())
def test_ball_sweep_matches_one_sweep_per_ball(space, data):
    """Empty, single-sample and whole-space balls, inside masks and NaN
    values, on the four backends and on matrices with NaN, zero and
    negative distances, under row blocks and pair budgets small enough
    to cut a ball into member groups and chunks.  An infinite constant
    caps every pair at -inf, and a pair at distance zero at NaN, so the
    all -inf rule and a NaN after the first chunk of a ball are
    exercised too.  Each result is also the mask-based sweep's, bit for
    bit."""
    n = space.n
    v = np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
    count = data.draw(st.integers(0, 6))
    centers = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                          min_size=count, max_size=count)),
                       dtype=int)
    radii = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1e-300, 0.6, 1.1, 2.5, math.inf]),
        min_size=count, max_size=count)), dtype=float)
    inside = None
    if data.draw(st.booleans()):
        inside = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)))
    K = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0, math.inf]),
                                    min_size=count, max_size=count)))
    num = data.draw(st.sampled_from([None, compress]))
    zero = data.draw(st.sampled_from([0.0, math.inf]))
    # row blocks of 2 to 40 entries: member groups and pair chunks of
    # one to five, and the default
    block = data.draw(st.sampled_from([2, 4, 8, 10, 16, 40, 1 << 16]))
    D = space.pairwise()
    balls = []
    for c, r in zip(centers, radii):
        ids = np.flatnonzero(D[c] < r)
        balls.append(ids if inside is None else ids[inside[ids]])

    def cap(d, o, seg):
        return (o if num is None else num(o)) - K[seg] * d

    def slope(d, o, seg):
        return _pairs.slope(o, d, zero)

    with np.errstate(invalid="ignore"):         # inf * 0 is NaN, on purpose
        with mock.patch.object(_pairs, "_BLOCK", block):
            excess = _pairs.ball_sweep(space, v, centers, radii, cap, inside)
            slopes = _pairs.ball_sweep(space, v, centers, radii, slope, inside)
            for got, value in ((excess, cap), (slopes, slope)):
                want = ref_ball_sweep(space, v, centers, radii, value, inside)
                assert got[0].tobytes() == want[0].tobytes()
                assert np.array_equal(got[1], want[1])
        for b, ids in enumerate(balls):
            want = _pairs.worst_excess(
                space, v[ids], lambda r, c, d, o: K[b] * d, ids=ids, num=num)
            slope, pair = _pairs.max_slope(space, v[ids], ids, zero)
            if pair is None:
                slope = -math.inf
            for (x, pairs), ref in ((excess, want), (slopes, (slope, pair))):
                got = tuple(int(i) for i in pairs[b])
                assert same((x[b], None if got == (-1, -1) else got), ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_regrouped_partition_keeps_the_leaf_sums(seed):
    rng = np.random.default_rng(seed)
    space = make_space(rng, n_max=20)
    pou = frolik_pou(witness_from_balls(space, make_ball_cover(rng, space)))
    grouped = index_subordinate(pou)
    assert pou_report(pou).passed and pou_report(grouped).passed
    assert grouped.values().tobytes() == pou.values().tobytes()
    for n, row in enumerate(grouped.matrix):
        group = np.array([math.fsum(pou.matrix[m, p] for m in range(len(pou))
                                    if pou.set_index[m] == n
                                    and pou.activity[m, p])
                          for p in range(space.n)])
        assert row.tobytes() == group.tobytes()


def test_regrouped_sum_is_the_leaf_sum_not_the_group_sum():
    space = MetricSpace.from_points([0.0, 1.0])
    # set 0 holds 1.0 and 1e-16, which round to 1.0 together; the third
    # leaf tips the exact sum of all three over 1.0
    rows = [[1.0, 1.0], [1e-16, 0.0], [1e-16, 0.0]]
    pou = PartitionOfUnity(space, rows, [0, 0, 1], [[True] * 2] * 3)
    grouped = index_subordinate(pou)
    assert grouped.matrix[:, 0].tolist() == [1.0, 1e-16]
    assert math.fsum(grouped.matrix[:, 0]) == 1.0
    total = math.fsum([1.0, 1e-16, 1e-16])
    assert total > 1.0
    assert pou.values().tolist() == leaf_sums(pou.matrix, pou.activity) \
        == [total, 1.0]
    # the sum travels with every regrouping
    for family in (grouped, index_subordinate(grouped)):
        assert family.values().tolist() == [total, 1.0]


SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from(["both", "lower", "upper"]))
def test_select_stays_strictly_inside_every_window(seed, sides):
    # the selection theorem: between a lower and an upper bound with
    # open windows there is a locally Lipschitz selection strictly inside
    rng = np.random.default_rng(seed)
    space = make_space(rng, n_max=20)
    lower = rng.uniform(-1.0, 1.0, space.n)
    upper = lower + rng.uniform(1.0, 2.0, space.n)
    mapping = IntervalMapping(
        space, None if sides == "upper" else Tabulated(space, lower),
        None if sides == "lower" else Tabulated(space, upper))
    assert mapping.strict_mask(select(mapping)).all()


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_decompose_rebuilds_f(seed):
    # a locally Lipschitz function is a locally finite sum of Lipschitz
    # functions: the members psi_n xi_n add back up to f
    rng = np.random.default_rng(seed)
    space = make_space(rng, n_max=20)
    f = Tabulated(space, rng.normal(size=space.n))
    dec = decompose(f, generate_local_witness(f))
    assert dec.residual() <= 1e-9


def local_witness_on(rng, A, K):
    """One entry per sample of A at rate K: phi is K-Lipschitz on A, so
    the entries certify it whatever their radii."""
    return LocalWitness.from_triples(
        (int(a), float(rng.uniform(0.1, 3.0)), K) for a in A.members)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_select_extend_restricts_to_phi_exactly(seed):
    # Michael-type selection through A: a phi strictly inside open
    # windows on A extends to a selection strictly inside every window
    # that agrees with phi on A, exactly
    rng = np.random.default_rng(seed)
    space, A, phi, K = make_instance(rng, n_max=20)
    g = extend_to_interval(A, phi, K, Interval.real_line()).values()
    mapping = IntervalMapping(
        space, Tabulated(space, g - rng.uniform(0.05, 1.0, space.n)),
        Tabulated(space, g + rng.uniform(0.05, 1.0, space.n)))
    f = select_extend(A, phi, local_witness_on(rng, A, K), mapping)
    assert f.values()[A.members].tobytes() == phi.tobytes()
    assert mapping.strict_mask(f).all()


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_local_extend_restricts_to_phi_within_the_unit_sum_residual(seed):
    # local-to-global extension: sum psi_n xi_n with every active psi_n
    # equal to phi on A gives phi(a) times the partition's sum at a, so
    # it misses phi(a) by at most |phi(a)| times the unit-sum residual
    # there, plus the rounding of the products and their sum
    rng = np.random.default_rng(seed)
    space, A, phi, K = make_instance(rng, n_max=20)
    lo, hi = float(phi.min()), float(phi.max())
    for interval in (Interval.real_line(), Interval.closed(lo - 1.0, hi)):
        f = local_extend(A, phi, local_witness_on(rng, A, K), interval)
        got = f.values()[A.members]
        if len(A) == space.n:
            assert got.tobytes() == phi.tobytes()
            continue
        residual = np.abs(f.partition.values()[A.members] - 1.0)
        bound = np.abs(phi) * (residual + 4.0 * np.finfo(float).eps)
        assert (np.abs(got - phi) <= bound).all()
        assert f.restriction_error == float(np.abs(got - phi).max())


def targets(lo, hi):
    """Open, half-open and unbounded intervals holding [lo, hi]."""
    return [Interval.open(lo - 1.0, hi + 1.0),
            Interval(lo, hi + 1.0, False, True),
            Interval(lo - 1.0, hi, True, False),
            Interval.at_least(lo), Interval.at_least(lo - 1.0, open_end=True),
            Interval.at_most(hi), Interval.at_most(hi + 1.0, open_end=True),
            Interval.real_line()]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_interval_extensions_restrict_exactly_and_stay_inside(seed):
    # McShane-Whitney into any interval holding phi, for Lipschitz and
    # for pointwise Lipschitz phi: the extension agrees with phi on A
    # exactly and takes its values in the interval
    rng = np.random.default_rng(seed)
    space, A, phi, K = make_instance(rng, n_max=20)
    W = PointwiseWitness.from_values(
        A, max(K, 1.0) * rng.uniform(1.0, 3.0, len(A)))
    for interval in targets(float(phi.min()), float(phi.max())):
        for f in (extend_to_interval(A, phi, K, interval),
                  pointwise_extend_to_interval(A, phi, W, interval)):
            assert f.values()[A.members].tobytes() == phi.tobytes(), interval
            assert all(interval.contains(float(x)) for x in f.values()), \
                interval


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_random_extensions_lie_between_the_envelopes(seed):
    # McShane-Whitney: every K-Lipschitz extension of phi lies between
    # max_a phi(a) - K d(a, .) and min_a phi(a) + K d(a, .), and all
    # three agree with phi on A; exactly, with no tolerance
    rng = np.random.default_rng(seed)
    space, A, phi, K = make_instance(rng, n_max=20)
    pair = mcshane_envelopes(A, phi, K)
    lo, hi = pair.lower.values(), pair.upper.values()
    f = random_k_extension(A, phi, K, seed=int(rng.integers(2 ** 31))).values()
    assert (lo <= f).all() and (f <= hi).all()
    for g in (lo, hi, f):
        assert g[A.members].tobytes() == phi.tobytes()


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_envelopes_are_exactly_dual(seed):
    # McShane-Whitney duality: the lower envelope of phi is minus the
    # upper envelope of -phi, and the other way round, bit for bit
    rng = np.random.default_rng(seed)
    space, A, phi, K = make_instance(rng, n_max=20)
    report = duality_check(A, phi, K)
    assert report.exact and report.max_abs_diff == 0.0


@st.composite
def cover_cases(draw):
    """An unvalidated grid or 1- to 3-D cloud, duplicates included, at a
    scale whose squared differences may be subnormal, flushed to zero or
    near overflow; values with ties, NaN and inf; a witness whose radii
    (infinite ones too) and rates vary with the scale."""
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e-170, 1e150, 1e154]))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.25, 0.5, 1.0, 0.1])) * scale
        space = MetricSpace.from_grid(0.0, step * (n - 1) + step / 2, step,
                                      validate=False)
    else:
        dim = draw(st.integers(1, 3))
        pts = draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim),
                            min_size=n, max_size=n))
        space = MetricSpace.from_points(np.array(pts) * scale,
                                        validate=False)
    n = space.n
    v = draw(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.25,
                                       1.0 + 2.0 ** -40, math.nan,
                                       math.inf]),
                      min_size=n, max_size=n))
    m = draw(st.integers(1, 2 * n))
    centers = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    deltas = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 1e308]),
                           min_size=m, max_size=m))
    rates = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0]),
                          min_size=m, max_size=m))
    witness = LocalWitness(centers, [d * scale for d in deltas],
                           [K / scale for K in rates])
    return Tabulated(space, np.array(v)), witness


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cover_cases(), st.sampled_from([1e-9, 0.0]))
def test_covers_match_the_per_ball_reference(case, tol):
    f, witness = case
    calls = [(modulus_witness, f, witness, rule, tol)
             for rule in ("bounded", "unbounded")]
    calls.append((increasing_cover, f, witness, None, tol))
    for call in calls:
        assert cover_outcome(*call) == cover_outcome(*call, per_ball=True)
