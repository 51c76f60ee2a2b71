import math
import warnings

import numpy as np
import pytest

from lipkit import (Constant, DistanceTo, Envelope, Interval,
                    IntervalMapping, LocalWitness, MetricSpace,
                    PointwiseWitness, PreconditionError, Subset,
                    check_k_lipschitz, duality_check, extend_to_interval,
                    generate_pointwise_witness, local_extend,
                    mcshane_envelopes, pointwise_envelopes,
                    pointwise_extend_to_interval, random_k_extension,
                    select_extend)

from helpers import make_instance

TOL = 1e-9


def test_nan_value_fails_the_lipschitz_precheck():
    space = MetricSpace.from_points(np.linspace(0.0, 1.0, 60))
    A = Subset(space, [0, 20, 40, 59])
    with pytest.raises(PreconditionError):
        mcshane_envelopes(A, [0.2, 0.8, 0.5, math.nan], 5.0)


@pytest.mark.filterwarnings("error")
def test_envelopes_of_a_huge_constant_overflow_quietly():
    """K d(x, a) past the float range is inf, quietly, and each
    envelope is then the McShane value in the extended reals: on the
    real line the lower envelope, in a bounded target the clamped mean
    of the two."""
    space = MetricSpace.from_points([0.0, 1.0, 3.0])
    A, phi, K = Subset(space, [0, 2]), [0.0, 2.0], 1e308
    x = space.coords[:, 0].tolist()
    lower = [max(v - K * abs(p - x[a]) for a, v in zip(A, phi)) for p in x]
    upper = [min(v + K * abs(p - x[a]) for a, v in zip(A, phi)) for p in x]
    assert lower == [0.0, -1e308, 2.0] and upper == [0.0, 1e308, 2.0]
    out = extend_to_interval(A, phi, K, Interval.real_line())
    assert out.values().tolist() == lower
    assert out.envelopes.upper.values().tolist() == upper
    out = extend_to_interval(A, phi, K, Interval.open(-5.0, 5.0))
    assert out.values().tolist() == [0.0, 0.0, 2.0]


def test_a_zero_constant_times_an_infinite_distance_is_a_quiet_nan():
    """K = 0 times d = inf is NaN, and a NaN wins: each envelope is NaN
    at the far sample, and a draw refuses the first point whose
    feasible interval it reaches, with no numpy warning, from the McShane
    scans (two samples) or from a draw's tail update (the third sample
    sits at d = inf from the second only)."""
    inf = math.inf
    far = MetricSpace.from_matrix([[0, inf], [inf, 0]], validate=False)
    tail = MetricSpace.from_matrix([[0, 1, 1], [1, 0, inf], [1, inf, 0]],
                                   validate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = Subset(far, [0])
        pair = mcshane_envelopes(A, [0.0], 0.0)
        for side in (pair.lower, pair.upper):
            assert side.values()[0] == 0.0 and math.isnan(side.values()[1])
        out = extend_to_interval(A, [0.0], 0.0, Interval.closed(-1, 1))
        assert math.isnan(out.values()[1])
        for space, p in ((far, 1), (tail, 2)):
            with pytest.raises(PreconditionError,
                               match=f"interval at point {p} is not finite"):
                random_k_extension(Subset(space, [0]), [0.0], 0.0)


def fine_grid_instance():
    # grid [0, 2] step 0.5; A holds the coordinates {0, 1}
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 2])
    return space, A, np.array([0.0, 1.0])


def coarse_grid_instance():
    # grid {0, 1, 2}; A holds the endpoints
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    A = Subset(space, [0, 2])
    return space, A, np.array([0.0, 1.0])


def test_envelope_hand_values():
    space, A, phi = fine_grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    lo, hi = pair.lower.values(), pair.upper.values()
    # at t = 1.5: max(0 - 1.5, 1 - 0.5) and min(0 + 1.5, 1 + 0.5)
    assert lo[3] == 0.5 and hi[3] == 1.5
    # at t = 2: max(0 - 2, 1 - 1) and min(0 + 2, 1 + 1)
    assert lo[4] == 0.0 and hi[4] == 2.0


def test_envelopes_restrict_exactly_and_order():
    space, A, phi = fine_grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    assert (pair.lower.values()[A.members] == phi).all()
    assert (pair.upper.values()[A.members] == phi).all()
    assert (pair.lower.values() <= pair.upper.values() + TOL).all()


def test_envelopes_on_whole_space_are_phi():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    phi = np.array([0.1, 0.4, 0.2, 0.5, 0.3])
    pair = mcshane_envelopes(Subset.whole(space), phi, 1.0)
    assert (pair.lower.values() == phi).all()
    assert (pair.upper.values() == phi).all()


def test_upper_envelope_positive_off_closed_positive_domain():
    space, A, phi = fine_grid_instance()
    pair = mcshane_envelopes(A, phi + 0.5, 1.0)
    assert (pair.upper.values() > 0.0).all()


def test_envelope_precondition_reports_pair():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 1])
    with pytest.raises(PreconditionError) as err:
        mcshane_envelopes(A, np.array([0.0, 5.0]), 1.0)
    assert err.value.witness == (0, 1)


def test_negative_constant_rejected():
    space, A, phi = fine_grid_instance()
    with pytest.raises(PreconditionError):
        mcshane_envelopes(A, phi, -1.0)


@pytest.mark.parametrize("K", [math.inf, math.nan])
def test_constant_must_be_finite(K):
    space, A, phi = fine_grid_instance()
    with pytest.raises(PreconditionError, match="finite and nonnegative"):
        mcshane_envelopes(A, phi, K)


def test_duality_exact_on_hand_example():
    space, A, phi = fine_grid_instance()
    report = duality_check(A, phi, 1.0)
    assert report.exact
    assert report.max_abs_diff == 0.0


def test_duality_zero_function():
    space, A, _ = fine_grid_instance()
    report = duality_check(A, np.zeros(2), 1.0)
    assert report.exact


def test_duality_random_matrix_space():
    rng = np.random.default_rng(20)
    pts = rng.uniform(-3, 3, size=(20, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    space = MetricSpace.from_matrix(0.5 * (D + D.T))
    A = Subset(space, rng.choice(20, size=8, replace=False))
    phi = random_k_extension(Subset(space, [int(A.members[0])]),
                             [0.3], 1.0, seed=2).values()[A.members]
    assert duality_check(A, phi, 1.0).exact


def test_interval_extension_bounded_hand_value():
    space, A, phi = coarse_grid_instance()
    f = extend_to_interval(A, phi, 1.0, Interval.closed(0.0, 1.0))
    # f(1) = (max(Phi-(1), 0) + min(Phi+(1), 1)) / 2 = (0 + 1) / 2
    assert f(1) == 0.5
    assert 0.0 < f(1) < 1.0


def test_interval_extension_fine_grid_values():
    # between the anchors the band pinches (f(0.5) = 0.5); past the far
    # anchor both clamps engage and the mean drifts back toward 1/2
    space, A, phi = fine_grid_instance()
    f = extend_to_interval(A, phi, 1.0, Interval.closed(0.0, 1.0))
    np.testing.assert_array_equal(f.values(), [0.0, 0.5, 1.0, 0.75, 0.5])


def test_interval_extension_margins():
    rng = np.random.default_rng(4)
    for _ in range(20):
        space, A, phi, K = make_instance(rng, n_max=25)
        pad = float(rng.uniform(0.1, 1.0))
        a, b = float(phi.min()) - pad, float(phi.max()) + pad
        f = extend_to_interval(A, phi, K, Interval.closed(a, b))
        v = f.values()
        assert (v[A.members] == phi).all()
        assert check_k_lipschitz(f, K).passed
        assert (a <= v).all() and (v <= b).all()
        dist = DistanceTo(space, A.members).values()
        for p in A.complement():
            margin = min(K * dist[p], b - a) / 2.0
            assert b - v[p] >= margin - TOL
            assert v[p] - a >= margin - TOL


def test_interval_extension_unbounded_sides():
    space, A, phi = fine_grid_instance()
    shifted = phi + 1.0     # phi >= 1 > 0
    ray = extend_to_interval(A, shifted, 1.0, Interval.at_least(0.0, open_end=True))
    pair = mcshane_envelopes(A, shifted, 1.0)
    assert (ray.values() == pair.upper.values()).all()
    assert (ray.values() > 0.0).all()
    cap = extend_to_interval(A, shifted, 1.0, Interval.at_most(10.0))
    assert (cap.values() == pair.lower.values()).all()
    assert (cap.values() <= 10.0).all()


def test_interval_extension_real_line_is_lower_envelope():
    space, A, phi = fine_grid_instance()
    f = extend_to_interval(A, phi, 1.0, Interval.real_line())
    pair = mcshane_envelopes(A, phi, 1.0)
    assert (f.values() == pair.lower.values()).all()


def test_interval_extension_whole_space_identity():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    phi = np.array([0.2, 0.4, 0.3, 0.6, 0.5])
    f = extend_to_interval(Subset.whole(space), phi, 1.0,
                           Interval.closed(0.0, 1.0))
    assert (f.values() == phi).all()


def test_interval_extension_range_violation():
    space, A, phi = fine_grid_instance()
    with pytest.raises(PreconditionError):
        extend_to_interval(A, phi, 1.0, Interval.closed(0.25, 1.0))
    with pytest.raises(PreconditionError):
        extend_to_interval(A, phi, 1.0, Interval.closed(0.5, 0.5))


def test_pointwise_hand_values():
    space, A, phi = coarse_grid_instance()
    W = PointwiseWitness.from_values(A, [1.0, 2.0])
    pair = pointwise_envelopes(A, phi, W)
    # at t = 1: max(0 - 1*1, 1 - 2*1) and min(0 + 1*1, 1 + 2*1)
    assert pair.lower.values()[1] == -1.0
    assert pair.upper.values()[1] == 1.0
    assert (pair.lower.values()[A.members] == phi).all()
    assert (pair.upper.values()[A.members] == phi).all()


def test_pointwise_constant_witness_matches_mcshane():
    rng = np.random.default_rng(12)
    for _ in range(10):
        space, A, phi, K = make_instance(rng, n_max=20)
        K = max(K, 1.0)     # per-point rates are floored at 1
        W = PointwiseWitness.from_values(A, np.full(len(A), K))
        pw = pointwise_envelopes(A, phi, W)
        mc = mcshane_envelopes(A, phi, K)
        assert (pw.lower.values() == mc.lower.values()).all()
        assert (pw.upper.values() == mc.upper.values()).all()


def test_pointwise_distance_inequalities():
    space, A, phi = coarse_grid_instance()
    W = PointwiseWitness.from_values(A, [1.0, 2.0])
    pair = pointwise_envelopes(A, phi, W)
    a, b = float(phi.min()), float(phi.max())
    dist = DistanceTo(space, A.members).values()
    for p in range(space.n):
        d = dist[p]
        assert pair.lower.values()[p] <= b - d + TOL
        assert pair.upper.values()[p] >= a + d - TOL


def test_pointwise_compatibility_precheck():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 1])
    W = PointwiseWitness.from_values(A, [1.0, 1.0])
    with pytest.raises(PreconditionError) as err:
        pointwise_envelopes(A, np.array([0.0, 3.0]), W)
    assert err.value.witness == (0, 1)


def test_pointwise_interval_bounded_hand_value():
    space, A, phi = coarse_grid_instance()
    W = PointwiseWitness.from_values(A, [1.0, 2.0])
    f = pointwise_extend_to_interval(A, phi, W, Interval.closed(0.0, 1.0))
    assert f(1) == 0.5
    assert (f.values()[A.members] == phi).all()


def test_pointwise_real_line_transport():
    space, A, phi = fine_grid_instance()
    W = PointwiseWitness.from_values(A, [1.0, 2.0])
    f = pointwise_extend_to_interval(A, phi, W, Interval.real_line())
    v = f.values()
    np.testing.assert_allclose(v[A.members], phi, atol=TOL)
    est = generate_pointwise_witness(f)
    rates, _ = est.aligned(Subset.whole(space))
    assert np.isfinite(rates).all()


def test_pointwise_reciprocal_transport():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 4])
    phi = np.array([1.0, 3.0])      # lands in [1, +inf)
    W = PointwiseWitness.from_values(A, [1.0, 1.0])
    f = pointwise_extend_to_interval(A, phi, W, Interval.at_least(1.0))
    v = f.values()
    assert (v >= 1.0 - TOL).all()
    np.testing.assert_allclose(v[A.members], phi, atol=TOL)


def test_pointwise_witness_floors_rates_at_one():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 4])
    W = PointwiseWitness.from_values(A, [0.2, 0.5])
    rates, lifted = W.aligned(A)
    assert (rates >= 1.0).all()
    assert lifted == 2


@pytest.mark.parametrize("target, phi", [
    ("(-inf, inf)", [5e3, -5e3]),
    ("(-inf, inf)", [1e7, -1e7]),
    ("[0, inf)", [8e6, 8e6 / 3]),
    ("(-inf, 0]", [-8e6, -8e6 / 3]),
], ids=["line-5e3", "line-1e7", "ray-up-8e6", "ray-down-8e6"])
def test_pointwise_transports_restrict_exactly(target, phi):
    # tan(arctan(5e3)) misses 5e3 by 1.25e-9 and 1 / (1 / v) misses v by
    # an ulp near 8e6, so the transported output must carry phi on A
    lo, hi = target[1:-1].split(", ")
    interval = Interval(float(lo), float(hi), target[0] == "(",
                        target[-1] == ")")
    space = MetricSpace.from_grid(0.0, 1.0, 0.1)
    A = Subset(space, [0, 10])
    W = PointwiseWitness.from_values(A, [1e8, 1e8])
    f = pointwise_extend_to_interval(A, phi, W, interval)
    assert f.values()[A.members].tolist() == phi
    assert all(interval.contains(float(x)) for x in f.values())


def test_pointwise_real_line_carries_a_value_whose_arctan_is_half_pi():
    # arctan(1e16) rounds to fl(pi/2), which the tan transport used to
    # refuse, so the default target of extend-pointwise failed at 1e16
    A = Subset(MetricSpace.from_grid(0, 4, 1), [0])
    f = pointwise_extend_to_interval(A, [1e16], PointwiseWitness({0: 1.0}),
                                     Interval.real_line())
    v = f.values()
    assert v[0] == 1e16 and np.isfinite(v).all() and v[-1] == 0.0


def test_pointwise_real_line_with_large_values_is_not_refused():
    # the output's own slopes, rounded at 1e7, used to fail their own
    # check on this request by more than tol
    space = MetricSpace.from_points(np.linspace(0.0, 1.0, 200))
    A = Subset(space, [0, 199])
    W = PointwiseWitness.from_values(A, [1e8, 1e8])
    f = pointwise_extend_to_interval(A, [1e7, -1e7], W, Interval.real_line())
    assert f.values()[A.members].tolist() == [1e7, -1e7]
    assert len(f.pointwise_witness.constants) == space.n


def test_envelope_refuses_no_anchors():
    space = MetricSpace.from_grid(0, 2, 1)
    with pytest.raises(PreconditionError,
                       match="^envelope needs at least one anchor$"):
        Envelope(space, [], [], [], -1)


@pytest.mark.parametrize("values, consts", [
    ([1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0]), ([[1.0, 1.0]], [1.0, 1.0]),
], ids=["values", "constants", "values-2d"])
def test_envelope_refuses_values_or_constants_not_aligned_with_the_ids(
        values, consts):
    # numpy would broadcast a lone value or constant to both anchors
    space = MetricSpace.from_grid(0, 4, 1)
    with pytest.raises(PreconditionError,
                       match=r"^need 2 anchor values and constants, got "):
        Envelope(space, [0, 4], values, consts, -1)


# ---------------------------------------------------------------------------
# The anchor check every extension from a subset shares


def _anchor_entry_points():
    space = MetricSpace.from_grid(0, 4, 1)
    pw = PointwiseWitness({p: 1.0 for p in range(space.n)})
    local = LocalWitness.from_triples([(p, 0.6, 1.0) for p in (0, 2, 4)])
    window = IntervalMapping(space, Constant(space, -1.0), Constant(space, 2.0))
    # name -> (extension called as f(A, phi, target), takes a target)
    return space, {
        "mcshane_envelopes": (lambda A, v, t: mcshane_envelopes(A, v, 1.0), False),
        "pointwise_envelopes": (lambda A, v, t: pointwise_envelopes(A, v, pw), False),
        "extend_to_interval": (lambda A, v, t: extend_to_interval(A, v, 1.0, t), True),
        "pointwise_extend_to_interval": (
            lambda A, v, t: pointwise_extend_to_interval(A, v, pw, t), True),
        "random_k_extension": (lambda A, v, t: random_k_extension(A, v, 1.0), False),
        "local_extend": (lambda A, v, t: local_extend(A, v, local, t), True),
        "select_extend": (lambda A, v, t: select_extend(A, v, local, window), False),
    }


_UNIT = Interval.closed(0.0, 1.0)
_ANCHOR_CASES = {
    # name -> (ids, phi, target, message, witness, needs a target)
    "empty": ([], [], _UNIT, "extension domain must be nonempty", None, False),
    "infinite": ([0, 2, 4], [0.0, math.inf, 0.5], _UNIT,
                 "phi(2) = inf is infinite", 2, False),
    "outside": ([0, 2, 4], [0.0, 3.0, 0.5], _UNIT,
                "phi(2) = 3.0 lies outside the target [0, 1]", 2, True),
    "nan": ([0, 2, 4], [0.0, math.nan, 0.5], _UNIT,
            "phi(2) = nan lies outside the target [0, 1]", 2, True),
    "degenerate": ([0, 2, 4], [0.0, 0.5, 0.5], Interval.closed(1.0, 1.0),
                   "degenerate target interval [1, 1]", None, True),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (_, targeted) in _anchor_entry_points()[1].items()
    for case, spec in _ANCHOR_CASES.items() if targeted or not spec[-1]])
def test_every_extension_from_a_subset_refuses_bad_anchors_alike(entry, case):
    space, entries = _anchor_entry_points()
    ids, phi, target, message, witness, _ = _ANCHOR_CASES[case]
    with pytest.raises(PreconditionError) as err:
        entries[entry][0](Subset(space, ids), phi, target)
    assert type(err.value) is PreconditionError
    assert str(err.value) == message
    assert err.value.witness == witness

