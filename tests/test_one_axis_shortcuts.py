"""The two shortcuts of one coordinate axis: the McShane scan from each
sample's two neighbouring anchors (_pairs._neighbour_scan) and the
distances |x_p - x_q| (metric_space._abs_is_root).  Each must equal its
plain reference byte for byte, whether it runs or declines."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import lipkit
from lipkit import DistanceTo, Envelope, MetricSpace, Subset
from lipkit import _pairs
from lipkit.metric_space import _abs_is_root

from helpers import ref_column_scan, ref_root_dist

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def taken(monkeypatch):
    """One entry per McShane scan of the test: True where the neighbour
    scan ran, False where it declined and the dense scan ran."""
    seen = []
    scan = _pairs._neighbour_scan

    def spy(*args):
        out = scan(*args)
        seen.append(out is not None)
        return out
    monkeypatch.setattr(_pairs, "_neighbour_scan", spy)
    return seen


def check_scan(space, ids, values, scale, sign):
    """_pairs.envelope against the column scan, byte for byte."""
    ids = np.asarray(ids)
    got = _pairs.envelope(space, ids, values, scale, sign)
    want = ref_column_scan(space.pairwise(), ids, values, scale, sign)
    assert got.tobytes() == want.tobytes()


def grid(n, step=1.0):
    return MetricSpace.from_grid(0.0, step * (n - 1), step, validate=False)


def line(x):
    return MetricSpace.from_points(np.asarray(x, dtype=float)[:, None],
                                   validate=False)


@pytest.mark.parametrize("kind", ["grid", "repeats"])
@pytest.mark.parametrize("value_scale", [1.0, 1e8])
def test_sorted_axis_scans_match_the_column_scan(taken, kind, value_scale):
    """Grids and sorted 1-D clouds with repeated coordinates, K-Lipschitz
    anchor values (slope at most 0.9 K) and arbitrary ones, both sides,
    a scalar K and Envelope's equal constants."""
    for s in range(6):
        rng = np.random.default_rng([s, int(value_scale)])
        n = int(rng.integers(20, 60))
        space = (grid(n, 0.1) if kind == "grid"
                 else line(np.sort(rng.integers(0, n // 2, n)) * 0.1))
        # one anchor per coordinate on even seeds, repeats allowed on odd
        pool = (np.unique(space.coords[:, 0], return_index=True)[1]
                if s % 2 == 0 else np.arange(n))
        ids = np.sort(rng.choice(pool, size=int(rng.integers(
            2, max(3, pool.size // 2))), replace=False))
        K = float(rng.uniform(0.5, 4.0)) * value_scale
        cone = space.pairwise()[int(rng.integers(n)), ids]
        lipschitz = value_scale * float(rng.uniform(-2, 2)) + float(
            rng.uniform(-0.9, 0.9)) * K * cone
        wild = value_scale * rng.normal(size=ids.size)
        for values in (lipschitz, wild):
            for sign in (-1, +1):
                check_scan(space, ids, values, K, sign)
                check_scan(space, ids, values, np.full(ids.size, K), sign)
                out = Envelope(space, ids, values, np.full(ids.size, K),
                               sign).values()
                want = ref_column_scan(space.pairwise(), ids, values, K, sign)
                want[ids] = values
                assert out.tobytes() == want.tobytes()
    assert True in taken and False in taken


def test_grid_scan_runs_on_two_anchors_and_at_both_ends(taken):
    space = grid(30, 0.25)
    for ids in ([3, 17], [0, 29], [0, 11, 12, 29], [0, 1], [28, 29]):
        values = np.linspace(-1.0, 2.0, len(ids))
        for sign in (-1, +1):
            check_scan(space, ids, values, 20.0, sign)
    assert taken == [True] * 10


def test_one_anchor_takes_the_dense_scan(taken):
    space = grid(30, 0.25)
    for p in (0, 13, 29):
        for sign in (-1, +1):
            check_scan(space, [p], np.array([1.5]), 2.0, sign)
    assert taken == [False] * 6


def test_slope_exactly_k_takes_the_dense_scan(taken):
    """phi = K x on a grid: each anchor ties its neighbour's term on one
    side, so the test fails and the dense scan runs, at three scales."""
    for scale in (1.0, 1e-3, 1e6):
        space = grid(40, scale)
        ids = np.array([2, 9, 10, 25, 39])
        x = space.coords[ids, 0]
        for K in (1.0, 3.0):
            for values in (K * x, -K * x):
                for sign in (-1, +1):
                    check_scan(space, ids, values, K, sign)
    assert taken == [False] * 24


def test_zero_constant_takes_the_dense_scan(taken):
    space = grid(25, 0.5)
    ids = np.array([0, 4, 9, 24])
    values = np.array([1.0, -2.0, 0.0, -0.0])
    for scale in (0.0, -0.0, np.zeros(4), np.array([0.0, -0.0, 0.0, 0.0])):
        for sign in (-1, +1):
            check_scan(space, ids, values, scale, sign)
    assert taken == [False] * 8


def test_unequal_or_negative_scale_takes_the_dense_scan(taken):
    space = grid(25, 0.5)
    ids = np.array([0, 4, 9, 24])
    values = np.array([1.0, -2.0, 0.5, 3.0])
    for scale in (np.array([5.0, 5.0, 5.0, 6.0]), -5.0, np.full(4, -5.0),
                  math.nan):
        for sign in (-1, +1):
            check_scan(space, ids, values, scale, sign)
    assert taken == [False] * 8


def test_signed_zero_values(taken):
    """d(., S) (DistanceTo) and closedness scan -0.0 values; a -0.0
    anchor value makes the re-read of zero results run."""
    rng = np.random.default_rng(5)
    for space in (grid(50, 0.2), line(np.sort(rng.integers(0, 20, 50)))):
        D = space.pairwise()
        for ids in ([0, 7, 8, 30, 49], [3, 4], [10, 20, 40]):
            ids = np.array(ids)
            got = DistanceTo(space, ids).values()
            assert got.tobytes() == ref_column_scan(D, ids, -0.0, 1.0,
                                                    +1).tobytes()
            outside = np.setdiff1d(np.arange(space.n), ids)
            assert Subset(space, ids).is_closed_at_sample_scale() == bool(
                D[np.ix_(outside, ids)].min() > 0)
            values = np.where(np.arange(ids.size) % 2, -0.0, 0.0)
            for sign in (-1, +1):
                check_scan(space, ids, values, 1.0, sign)
                check_scan(space, ids, values, -0.0, sign)
    assert True in taken and False in taken


def test_margin_sensitive_case_takes_the_dense_scan(taken, monkeypatch):
    """Found by search: phi of slope just below K, where the neighbour
    test with M = 0 passes and moves a bit; the margin declines it."""
    step = 1.0 / 3.0
    space = grid(27, step)
    ids = np.array([0, 1, 19])
    values = np.array([1.0, 0.2985218303234578, -12.328085223854302])
    K = 2.1044345090296273
    check_scan(space, ids, values, K, -1)
    assert taken == [False]
    monkeypatch.setattr(_pairs, "dominance_margin",
                        lambda space, size, K: 0.0)
    forced = _pairs.envelope(space, ids, values, K, -1)
    assert taken == [False, True]
    assert forced.tobytes() != ref_column_scan(space.pairwise(), ids, values,
                                               K, -1).tobytes()


def test_repeated_anchor_coordinates_take_the_dense_scan(taken):
    space = line([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
    ids = np.array([1, 2, 4, 5])        # two anchors on each of 1.0 and 3.0
    for sign in (-1, +1):
        check_scan(space, ids, np.array([0.0, 0.5, 1.0, 1.5]), 10.0, sign)
    assert taken == [False, False]


def test_k_diam_past_the_guard_takes_the_dense_scan(taken):
    """K diam or the values past 2^1000: M = inf and the dense scan runs,
    its infinities and NaN included."""
    space = grid(20, 1.0)
    ids = np.array([0, 5, 12, 19])
    values = np.array([1.0, -3.0, 2.0, 0.5])
    for K in (2.0 ** 996, 1e300, 1e308, math.inf):
        for sign in (-1, +1):
            check_scan(space, ids, values, K, sign)
    for sign in (-1, +1):
        check_scan(space, ids, values * 2.0 ** 1000, 1.0, sign)
        check_scan(space, ids, np.array([1.0, math.nan, 2.0, 0.5]), 1.0, sign)
    assert taken == [False] * 12


def test_unsorted_axis_and_plane_take_the_dense_scan(taken):
    """Off a sorted axis the nearest anchor by id need not be the nearest
    one: an anchor far along the ids sits next to sample 3 here, with K
    d past the float range between the anchors themselves."""
    cases = [(line([0.0, 100.0, 2.0, 1.0]), [0, 1, 2], [0.0, 5.0, 1e300]),
             (line([0.0, 100.0, 2.0, 1.0]), [0, 1, 2], [1e300, 5.0, 0.0]),
             (MetricSpace.from_points([[0.0, 0.0], [100.0, 0.0], [1.0, 1.0],
                                       [1.0, 0.0]], validate=False),
              [0, 1, 2], [0.0, 5.0, 1e300])]
    for space, ids, values in cases:
        for K in (1.0, 1e308):
            for sign in (-1, +1):
                check_scan(space, ids, np.array(values), K, sign)
    assert taken == [False] * 12


def test_extend_operation_of_the_grid_benchmark_takes_every_neighbour_scan(
        taken, monkeypatch, tmp_path):
    """The lib-grid1d extend operation: closedness, the envelopes, the
    duality pairs and the starting bounds of the three draws."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    work = workloads.LibGrid1d(lipkit)
    work.setup(1, str(tmp_path))
    extend = work.operations()[0]
    assert extend.label == "extend"
    extend.run()
    assert taken == [True] * 13


# ---------------------------------------------------------------------------
# Distances as |x_p - x_q|


def check_distances(x, absolute):
    """pairwise, dist_row and dist of a space over x against the root,
    byte for byte, and whether the space read |x_p - x_q|."""
    x = np.asarray(x, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    want = ref_root_dist(x)
    fresh = MetricSpace.from_points(x, validate=False)
    n = len(x)
    for p in range(n):
        assert fresh.dist_row(p).tobytes() == want[p].tobytes()
        assert np.float64(fresh.dist(p, n - 1 - p)).tobytes() == \
            want[p, n - 1 - p].tobytes()
    assert fresh.pairwise().tobytes() == want.tobytes()
    assert fresh._abs_distances() is absolute
    assert _abs_is_root(x) is absolute


def test_one_axis_distances_are_the_root_byte_for_byte():
    """Grids, sorted clouds with repeats, unsorted clouds, at coordinate
    scales from 1e-150 to 1e150."""
    rng = np.random.default_rng(11)
    for scale in (1e-150, 1e-6, 1.0, 1e6, 1e150):
        x = scale * np.arange(37) / 7.0
        check_distances(x, True)
        check_distances(np.sort(rng.integers(-5, 5, 30)) * scale, True)
        check_distances(rng.normal(size=40) * scale, True)
        check_distances(-rng.uniform(size=40) * scale, True)
    for space in (grid(1200, 1.0 / 1199), grid(50, 0.3)):
        assert space.pairwise().tobytes() == ref_root_dist(
            space.coords).tobytes()
        assert space._abs_distances() is True


def test_one_point_and_signed_zero_coordinates():
    check_distances([3.0], True)
    check_distances([-0.0, 0.0, 1.0, -0.0], True)


def test_bounds_of_the_absolute_distances():
    """A gap of exactly 2^-511 or a span just below 2^511 reads |d|;
    a smaller gap, whose square underflows (to 0 here), and a span of
    2^511 or more, whose square may overflow to inf, keep the root."""
    check_distances([0.0, 2.0 ** -511, 1.0], True)
    check_distances([0.0, 2.0 ** -511 - 2.0 ** -563, 1.0], False)
    check_distances([0.0, 3.0 * 2.0 ** -540, 1.0], False)
    assert ref_root_dist(np.array([[0.0], [3.0 * 2.0 ** -540]]))[0, 1] == 0.0
    check_distances([0.0, np.nextafter(2.0 ** 511, 0.0)], True)
    check_distances([0.0, 2.0 ** 511], False)
    check_distances([-2.0 ** 510, 2.0 ** 510], False)
    check_distances([0.0, 2.0 ** 512, 1.0], False)
    assert ref_root_dist(np.array([[0.0], [2.0 ** 512]]))[0, 1] == math.inf
    check_distances([-1e308, 1e308], False)


def test_infinite_coordinates_and_the_plane_keep_the_root():
    check_distances([0.0, math.inf, 1.0], False)
    check_distances([-math.inf, 0.0, math.inf], False)
    check_distances([0.0, math.nan], False)
    rng = np.random.default_rng(2)
    check_distances(rng.normal(size=(20, 2)), False)
    check_distances(np.column_stack([np.arange(10.0), np.zeros(10)]), False)
