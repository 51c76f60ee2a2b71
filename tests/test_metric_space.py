import warnings

import numpy as np
import pytest

from lipkit import _pairs
from lipkit import (DistanceTo, InputError, MetricSpace, PreconditionError,
                    Subset, validate_metric)
from lipkit.metric_space import _validate_matrix

from helpers import make_space


def test_uniform_three_point_matrix_is_valid():
    space = MetricSpace.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    report = space.validate()
    assert report.ok
    assert report.violations == []
    assert report.triangle == "checked"


def test_triangle_violation_reports_witness_triple():
    D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    report = validate_metric(MetricSpace.from_matrix(D, validate=False))
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "triangle" in kinds
    triangles = [v for v in report.violations if v.kind == "triangle"]
    assert any(tuple(v.ids) == (0, 1, 2) for v in triangles)


def test_asymmetry_detected():
    D = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate_metric(MetricSpace.from_matrix(D, validate=False))
    assert not report.ok
    assert any(v.kind == "symmetry" for v in report.violations)


def test_positivity_verdict_is_the_transpose_verdict():
    """Symmetric within tol, with one direction at most tol: positivity
    reads both orders, so D and D.T fail alike."""
    D = np.array([[0.0, 1.5e-9], [0.8e-9, 0.0]])
    for M, at in ((D, (1, 0)), (D.T, (0, 1))):
        report = validate_metric(M)
        assert [(v.kind, v.ids) for v in report.violations] == \
            [("positivity", at)]
    # an exactly symmetric matrix reports each pair once, as (p, q), p < q
    S = np.array([[0.0, 0.5e-9], [0.5e-9, 0.0]])
    assert [v.ids for v in validate_metric(S).violations] == [(0, 1)]


def test_from_matrix_rejects_nonsquare():
    with pytest.raises(InputError):
        MetricSpace.from_matrix(np.zeros((2, 3)))


def test_grid_distance_is_absolute_difference():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    assert space.n == 5
    assert space.dist(0, 3) == 1.5


def test_euclidean_distance():
    space = MetricSpace.from_points([[0.0, 0.0], [3.0, 4.0]])
    assert space.dist(0, 1) == 5.0


def test_graph_shortest_path():
    space = MetricSpace.from_graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    assert space.dist(0, 2) == 5.0
    assert space.validate().ok


def test_grid_rejects_bad_ranges():
    with pytest.raises(InputError):
        MetricSpace.from_grid(1.0, 0.0, 0.5)
    with pytest.raises(InputError):
        MetricSpace.from_grid(0.0, 1.0, -0.5)


def test_dist_to_set_nearest_member():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    # p = 1.5, S = coordinates {0, 1}
    assert DistanceTo(space, [0, 2])(3) == 0.5


def test_dist_to_set_zero_on_members():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    assert DistanceTo(space, [0, 2])(2) == 0.0


def test_dist_to_set_graph_backend():
    space = MetricSpace.from_graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    assert DistanceTo(space, [2])(0) == 5.0


def test_dist_to_set_empty_rejected():
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        DistanceTo(space, [])


def test_open_ball_is_strict():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    ids = space.ball(0, 1.0)
    assert set(ids.tolist()) == {0, 1}


def test_diameter_and_min_positive_distance():
    space = MetricSpace.from_points([0.0, 0.25, 1.0])
    assert space.diameter() == 1.0
    assert space.min_positive_distance() == 0.25


def test_min_positive_distance_is_swept_once(monkeypatch):
    sweeps = []
    sweep = _pairs.pair_blocks

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)
    monkeypatch.setattr(_pairs, "pair_blocks", counted)
    space = MetricSpace.from_points([0.0, 0.25, 1.0], validate=False)
    assert [space.min_positive_distance() for _ in range(3)] == [0.25] * 3
    flat = MetricSpace.from_matrix(np.zeros((3, 3)), validate=False)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            flat.min_positive_distance()
    assert len(sweeps) == 2


def test_subset_sorts_and_deduplicates():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [4, 0, 4, 2])
    assert A.members.tolist() == [0, 2, 4]
    assert len(A) == 3
    assert 2 in A and 1 not in A
    assert A.complement().tolist() == [1, 3]


def test_subset_rejects_out_of_range_ids():
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        Subset(space, [0, 7])


def test_subset_whole_and_nonempty_guard():
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    assert len(Subset.whole(space)) == space.n
    with pytest.raises(PreconditionError):
        Subset(space, []).require_nonempty()


def test_random_backends_validate():
    # triangle inequality on all sampled triples, every backend
    rng = np.random.default_rng(7)
    for _ in range(12):
        space = make_space(rng, n_max=20)
        report = space.validate()
        assert report.ok, space.backend
        D = space.pairwise()
        worst = (D[:, None, :] - D[:, :, None] - D[None, :, :]).max()
        assert worst <= 1e-9


def test_dist_row_matches_pairwise():
    rng = np.random.default_rng(11)
    space = make_space(rng, n_max=15)
    D = space.pairwise()
    for p in range(space.n):
        np.testing.assert_allclose(space.dist_row(p), D[p], atol=1e-12)


def test_constructed_backends_are_metrics_with_one_distance():
    # points, graphs and grids skip the triangle sweep; their own
    # matrix must pass it, and every accessor must agree bit for bit
    rng = np.random.default_rng(23)
    for _ in range(40):
        space = make_space(rng, n_max=25, kinds=[1, 2, 3])
        report = space.validate()
        assert report.ok and report.triangle == "by construction"
        assert validate_metric(space.pairwise()).ok, space.backend
        # a copy without the cached matrix (graphs precompute theirs)
        D = space.pairwise()
        fresh = MetricSpace(space.backend, space.n, coords=space.coords,
                            matrix=D if space.coords is None else None,
                            validate=False)
        for cached in (False, True):
            for p in range(fresh.n):
                assert np.array_equal(fresh.dist_row(p), D[p]), cached
                q = (3 * p + 1) % fresh.n
                assert fresh.dist(p, q) == D[p, q], cached
            fresh.pairwise()
        assert np.array_equal(fresh.pairwise(), space.pairwise())


def test_grid_far_from_the_origin_is_a_metric():
    space = MetricSpace.from_grid(1000.0, 1001.0, 0.01)
    assert space.n == 101
    assert validate_metric(space.pairwise()).ok
    assert space.dist(0, 100) == space.pairwise()[0, 100]


def test_nonfinite_distances_are_violations():
    cloud = MetricSpace.from_points([0.0, np.nan, 2.0], validate=False)
    worst = cloud.validate().worst()
    assert worst.kind == "nonfinite" and worst.magnitude == np.inf
    D = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])
    report = validate_metric(D)
    assert [v.ids for v in report.violations if v.kind == "nonfinite"] \
        == [(0, 2), (2, 0)]
    with pytest.raises(PreconditionError):
        MetricSpace.from_points([[0.0, 1.0], [np.inf, 0.0]])


def test_infinite_distances_fail_without_numpy_warnings():
    D = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])
    cloud = [[0.0, 1.0], [np.inf, 0.0], [np.inf, 2.0]]
    far = [-1e200, 1e200]       # the squared gap overflows to inf

    def verdicts():
        return [validate_metric(D).violations,
                MetricSpace.from_points(cloud, validate=False).validate().violations,
                MetricSpace.from_points(far, validate=False).validate().violations]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = verdicts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = verdicts()
    assert strict == quiet
    assert all(v[0].kind == "nonfinite" for v in strict)


def coordinate_batteries():
    """Clouds and grids whose reports fill every kind they can: ties,
    non-finite points, spans whose squares overflow, n = 1, and more
    violations than a report keeps."""
    rng = np.random.default_rng(31)
    clouds = [[[0.0, 0.0]], [[np.nan]], [0.0, 0.0, 1.0, 0.0],
              [[0.0, 1.0], [np.inf, 0.0], [np.inf, 2.0], [0.0, 1.0]],
              [[np.nan, 0.0], [-np.inf, 1.0], [1.0, np.nan]],
              [-1e200, 1e200, 0.0], [[1e155, -1e155], [-1e155, 1e155]],
              np.repeat([[0.5, 2.0]], 14, axis=0),
              np.full((12, 1), np.nan)]
    for _ in range(30):
        n, k = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        pts = rng.choice([0.0, 0.5, 1.0, 1e-10, 3.0, -2.0], size=(n, k))
        spoil = rng.random((n, k)) < 0.05
        pts[spoil] = rng.choice([np.nan, np.inf, -np.inf, 1e300],
                                size=spoil.sum())
        clouds.append(pts)
    spaces = [MetricSpace.from_points(c, validate=False) for c in clouds]
    spaces += [MetricSpace.from_grid(lo, hi, step, validate=False)
               for lo, hi, step in ((0.0, 1.0, 0.1), (-1e300, 1e300, 1e299),
                                    (0.0, 1e-9, 1e-10), (5.0, 5.5, 1.0))]
    return spaces


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.5, -0.5, np.nan])
def test_coordinate_validation_equals_the_five_scan_report(tol):
    # clouds and grids run nonfinite and positivity only: the negative,
    # diagonal and symmetry scans cannot fire on _coord_dist distances
    for space in coordinate_batteries():
        D = space.pairwise()
        full = _validate_matrix(D, tol, "by construction",
                                np.array_equal(D, D.T, equal_nan=True))
        report = space.validate(tol)
        assert report == full, (space, tol)
        assert report.triangle == "by construction"


@pytest.mark.parametrize("w", [np.nan, np.inf, 0.0])
def test_graph_rejects_weights_that_are_not_positive_and_finite(w):
    with pytest.raises(InputError, match=r"edge \(0,1\)"):
        MetricSpace.from_graph(3, [(0, 1, w), (1, 2, 1.0), (0, 2, 1.0)])


def test_a_space_owns_its_matrix():
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    space = MetricSpace.from_matrix(D)
    D[0, 1] = -5.0              # a later write to the input stays there
    assert space.dist(0, 1) == 1.0 and space.exactly_symmetric()
    assert space.validate().ok
    graph = MetricSpace.from_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    for s in (space, graph, MetricSpace.from_points([0.0, 1.0, 2.0]),
              MetricSpace.from_grid(0.0, 2.0, 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            s.pairwise()[0, 1] = 7.0
        assert s.dist(0, 1) == 1.0
