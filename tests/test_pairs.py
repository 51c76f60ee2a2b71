"""The pair kernel against a naive dense reference written out here."""

import math

import numpy as np
import pytest

from helpers import make_space
from lipkit import (MetricSpace, Tabulated, generate_pointwise_witness,
                    pointwise_lip)
from lipkit import _pairs


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
        return o / d
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
        for upper in (True, False):
            got = _pairs.worst_excess(space, v, block_cap, ids=ids, upper=upper)
            want = ref_worst_excess(D, v, scalar_cap, pos, upper)
            assert same(got, want), (upper, got, want)
    compress = lambda o: o / (1.0 + o)       # noqa: E731
    got = _pairs.worst_excess(space, v, caps[0][0], ids=ids, num=compress)
    want = ref_worst_excess(D, v, caps[0][1], pos, True, num=compress)
    assert same(got, want)
    for zero in (0.0, math.inf):
        want, rows = ref_max_slope(D, v, pos, zero)
        assert same(_pairs.max_slope(space, v, ids, zero), want)
        np.testing.assert_array_equal(
            _pairs.max_slope(space, v, ids, zero, per_row=True), rows)


@pytest.fixture(params=[7, None], ids=["small-blocks", "default-blocks"])
def block(request, monkeypatch):
    """Run each test with several row blocks per sweep as well."""
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
    for upper in (True, False):
        got = _pairs.worst_excess(space, v, infinite, upper=upper)
        assert got == (-math.inf, (0, 1))
    got = _pairs.worst_excess(space, v[2:], infinite, ids=np.arange(2, 5),
                              upper=False)
    assert got == (-math.inf, (2, 3))


def test_asymmetric_row_cap(block):
    space = MetricSpace.from_points([0.0, 1.0, 3.0])
    v = np.array([0.0, 2.0, 2.5])
    L = np.array([1.0, 3.0, 0.1])
    check_all(space, v, L=L)
    # row 2 carries the small constant: the worst ordered pair starts there
    got = _pairs.worst_excess(space, v, lambda r, c, d, o: L[r, None] * d,
                              upper=False)
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


def test_pointwise_witness_matches_pointwise_lip():
    rng = np.random.default_rng(14)
    for _ in range(8):
        space = make_space(rng, n_max=20)
        space.pairwise()
        f = Tabulated(space, rng.normal(size=space.n))
        w = generate_pointwise_witness(f, floor=0.0)
        for p in range(space.n):
            assert w.constants[p] == pointwise_lip(f, p).value
