import math

import numpy as np
import pytest

from lipkit import (Constant, Interval, MetricSpace, PointwiseWitness,
                    PreconditionError, Subset, Tabulated, check_k_lipschitz,
                    duality_check, extend_to_interval,
                    generate_pointwise_witness, mcshane_envelopes,
                    pointwise_envelopes, pointwise_extend_to_interval,
                    random_k_extension)

from helpers import make_instance

TOL = 1e-9


def test_nan_value_fails_the_lipschitz_precheck():
    space = MetricSpace.from_points(np.linspace(0.0, 1.0, 60))
    A = Subset(space, [0, 20, 40, 59])
    with pytest.raises(PreconditionError):
        mcshane_envelopes(A, [0.2, 0.8, 0.5, math.nan], 5.0)


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
        for p in A.complement():
            margin = min(K * space.dist_to_set(int(p), A.members), b - a) / 2.0
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
    for p in range(space.n):
        d = space.dist_to_set(p, A.members)
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
