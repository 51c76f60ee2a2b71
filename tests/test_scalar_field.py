import math
import tracemalloc

import numpy as np
import pytest

from lipkit import (Constant, Coordinate, DistanceTo, DomainError, InputError,
                    Interval, LipEstimate, MetricSpace, PreconditionError,
                    Series, Tabulated, Transported, check_k_lipschitz,
                    generate_local_witness, global_lip, maximum, minimum,
                    pointwise_lip, scaled_oscillation)
from lipkit import _pairs
from lipkit.fixtures import cusp_curve, sin_reciprocal_pairs
from lipkit.scalar_field import _column_sums

from helpers import make_space


def grid():
    return MetricSpace.from_grid(0.0, 2.0, 0.5)


def test_constant_evaluates():
    f = Constant(grid(), 3.0)
    assert all(f(p) == 3.0 for p in range(5))


def test_distance_to_set_field():
    f = DistanceTo(grid(), [0])
    assert f(4) == 2.0
    np.testing.assert_allclose(f.values(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_reciprocal_at_zero_is_domain_error():
    with pytest.raises(DomainError):
        Transported("reciprocal", DistanceTo(grid(), [0]))


def test_global_lip_identity_is_one():
    space = grid()
    est = global_lip(Coordinate(space))
    assert est.finite
    assert est.value == 1.0


def test_global_lip_constant_is_zero():
    assert global_lip(Constant(grid(), 4.0)).value == 0.0


def test_global_lip_sin_reciprocal_pairs_exceeds_100():
    # crest-trough pairs: |f(s_n) - f(t_n)| = 2 while the gaps shrink
    space, f, pairs = sin_reciprocal_pairs(20)
    est = global_lip(f)
    assert est.value > 100.0
    v = f.values()
    for i, j in pairs:
        assert abs(v[i] - v[j]) > 1.99


def test_a_nan_estimate_keeps_its_pair():
    f = Tabulated(MetricSpace.from_points([0.0, 1.0, 2.0]),
                  [0.0, math.nan, 1.0])
    for pairs, want in ((None, (0, 1)), ([(0, 2), (2, 1), (0, 1)], (2, 1))):
        est = global_lip(f, pairs=pairs)
        assert math.isnan(est.value) and est.witness == want
    est = pointwise_lip(f, 0)
    assert math.isnan(est.value) and est.witness == (0, 1)


def test_equal_infinities_make_a_nan_gap_without_a_warning():
    # inf - inf is NaN, so the two infinite samples are the worst pair;
    # the suite turns any RuntimeWarning into a failure
    f = Tabulated(MetricSpace.from_points([0.0, 1.0, 2.0]),
                  [math.inf, math.inf, 0.0])
    est = global_lip(f)
    assert math.isnan(est.value) and est.witness == (0, 1)
    cert = check_k_lipschitz(f, 1.0)
    assert not cert.passed and cert.witness == (0, 1)
    assert math.isnan(cert.worst_violation)
    # the ball sweep of the local rates sees the same NaN gap
    with pytest.raises(PreconditionError, match="needs a finite rate"):
        generate_local_witness(f)


def four_samples(values):
    return Tabulated(MetricSpace.from_grid(0.0, 3.0, 1.0), values)


def test_gaps_past_the_float_range_are_inf_without_a_warning():
    # the suite turns any RuntimeWarning into a failure
    f = four_samples([0.0, 1e308, -1e308, 0.0])
    assert pointwise_lip(f, 1) == LipEstimate(math.inf, (1, 2))
    assert scaled_oscillation(f, 1, [1.5]) == math.inf
    assert global_lip(f, pairs=[(1, 2)]) == LipEstimate(math.inf, (1, 2))
    cert = check_k_lipschitz(f, 1.0, pairs=[(1, 2)])
    assert not cert.passed and cert.worst_violation == math.inf


def test_scaled_oscillation_lets_a_nan_win():
    f = four_samples([0.0, math.nan, 0.0, 0.0])
    assert math.isnan(pointwise_lip(f, 0).value)
    assert math.isnan(scaled_oscillation(f, 0, [1.5]))
    assert math.isnan(scaled_oscillation(f, 0, [0.5, 1.5]))
    assert scaled_oscillation(f, 3, [0.5, 1.5]) == 0.0


@pytest.mark.parametrize("p, message", [
    (-1, r"point -1 at position 0 lies outside 0\.\.3"),
    (4, r"point 4 at position 0 lies outside 0\.\.3"),
    (2.9, r"point 2\.9 at position 0 is not an integer"),
], ids=["negative", "too-large", "fraction"])
def test_single_row_diagnostics_take_only_a_sample(p, message):
    f = four_samples([0.0, 1.0, 0.0, 5.0])
    with pytest.raises(InputError, match=message):
        pointwise_lip(f, p)
    with pytest.raises(InputError, match=message):
        scaled_oscillation(f, p, [1.5])


def test_pointwise_lip_constant_zero():
    space = grid()
    for p in range(space.n):
        assert pointwise_lip(Constant(space, 1.0), p).value == 0.0


def test_pointwise_lip_cusp_same_sign_bounded():
    space, f, pairs = cusp_curve()
    # p = u_1 (the largest positive-branch sample); same-sign slopes stay <= 1
    pos = np.arange(0, space.n, 2)
    p = int(pos[-1])
    v = f.values()
    D = space.pairwise()
    ratios = [abs(v[x] - v[p]) / D[x, p] for x in pos if x != p]
    assert max(ratios) <= 1.0 + 1e-12


def test_pointwise_lip_absolute_value_at_origin():
    space = MetricSpace.from_grid(-1.0, 1.0, 0.25)
    f = Tabulated(space, np.abs(space.coords[:, 0]))
    origin = int(np.flatnonzero(space.coords[:, 0] == 0.0)[0])
    assert pointwise_lip(f, origin).value == 1.0


def test_scaled_oscillation_isolated_point_is_zero():
    space = MetricSpace.from_points([0.0, 5.0, 10.0])
    f = Tabulated(space, [1.0, 2.0, 3.0])
    assert scaled_oscillation(f, 0, [1.0]) == 0.0


def test_scaled_oscillation_constant_zero():
    space = grid()
    assert scaled_oscillation(Constant(space, 2.0), 2, [1.0, 0.5]) == 0.0


def test_scaled_oscillation_absolute_value():
    # open balls on the step-0.01 grid: radii 1, 0.5, 0.25 give
    # 0.99, 0.98, 0.96; the min is the last
    space = MetricSpace.from_grid(-1.0, 1.0, 0.01)
    f = Tabulated(space, np.abs(space.coords[:, 0]))
    origin = int(np.argmin(np.abs(space.coords[:, 0])))
    osc = scaled_oscillation(f, origin, [1.0, 0.5, 0.25])
    assert abs(osc - 0.96) < 1e-9


def test_scaled_oscillation_below_pointwise_lip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        space = make_space(rng, n_max=15)
        f = Tabulated(space, rng.normal(size=space.n))
        p = int(rng.integers(space.n))
        radii = rng.uniform(0.1, space.diameter() + 1.0, size=3)
        assert (scaled_oscillation(f, p, radii)
                <= pointwise_lip(f, p).value + 1e-12)
    # a NaN radius would compare false against every distance and bound
    # nothing, so it is refused like a nonpositive one
    f = Tabulated(grid(), [0.0, 1.0, 4.0, 1.0, 0.0])
    with pytest.raises(InputError):
        scaled_oscillation(f, 2, [math.nan])


def test_global_lip_is_max_of_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(10):
        space = make_space(rng, n_max=12)
        f = Tabulated(space, rng.normal(size=space.n))
        pw = max(pointwise_lip(f, p).value for p in range(space.n))
        assert abs(global_lip(f).value - pw) < 1e-12


def test_global_lip_subadditive_under_combination():
    rng = np.random.default_rng(9)
    space = make_space(rng, n_max=12)
    f = Tabulated(space, rng.normal(size=space.n))
    g = Tabulated(space, rng.normal(size=space.n))
    a, b = 1.5, -2.0
    combo = Constant(space, a) * f + Constant(space, b) * g
    bound = abs(a) * global_lip(f).value + abs(b) * global_lip(g).value
    assert global_lip(combo).value <= bound + 1e-9


def test_cusp_opposite_pair_ratio_is_reciprocal():
    # f(u_t) - f(u_{-t}) = 2 t^2 over distance 2 t^3: ratio 1/t
    ts = np.geomspace(0.05, 1.0, 12)
    space, f, pairs = cusp_curve(ts)
    v = f.values()
    D = space.pairwise()
    for t, (i, j) in zip(ts, pairs):
        assert abs(v[i] - v[j]) / D[i, j] == pytest.approx(1.0 / t, rel=1e-12)


def test_field_algebra_and_clamp():
    space = grid()
    t = Coordinate(space)
    h = (t + Constant(space, 1.0)) * Constant(space, 2.0) - t
    np.testing.assert_allclose(h.values(), space.coords[:, 0] + 2.0)
    clamped = t.clamp(Interval.closed(0.5, 1.5))
    np.testing.assert_allclose(clamped.values(), [0.5, 0.5, 1.0, 1.5, 1.5])
    np.testing.assert_allclose(minimum(t, 1.0).values(), [0, 0.5, 1, 1, 1])
    np.testing.assert_allclose(maximum(t, 1.0).values(), [1, 1, 1, 1.5, 2])


def test_tabulated_length_checked():
    with pytest.raises(InputError):
        Tabulated(grid(), [1.0, 2.0])


def test_transport_round_trip():
    space = grid()
    t = Coordinate(space)
    back = Transported("tan", Transported("arctan", t))
    np.testing.assert_allclose(back.values(), t.values(), atol=1e-14)


def test_series_activity_contract():
    space = grid()
    terms = [DistanceTo(space, [0]), DistanceTo(space, [4])]
    full = Series(space, terms)
    np.testing.assert_allclose(full.values(),
                               terms[0].values() + terms[1].values())
    # the mask drops a term from the sum whatever its values; a mask that
    # hides a nonzero term breaks the contract, which pou_report checks
    # for a partition of unity
    fake = Series(space, terms, activity=[[True] * space.n, [False] * space.n])
    np.testing.assert_array_equal(fake.values(), terms[0].values())


def test_a_nested_series_is_one_summand():
    space = grid()
    one, tiny = Constant(space, 1.0), Constant(space, 1e-16)
    inner = Series(space, [one, tiny])
    # the inner sum rounds to 1.0; the three leaves together would not
    assert inner.values()[0] == 1.0
    assert math.fsum([1.0, 1e-16, 1e-16]) > 1.0
    assert Series(space, [inner, tiny]).values().tolist() == [1.0] * space.n


def test_sum_of_1500_fields_needs_no_recursion():
    space = grid()
    rng = np.random.default_rng(5)
    tables = rng.normal(size=(1500, space.n))
    fields = [Tabulated(space, row) for row in tables]
    total = sum(fields)
    # sum() starts from 0: (f_0 + 0) + f_1 + ... in this order
    want = tables[0] + 0.0
    for row in tables[1:]:
        want = want + row
    assert total.values().tobytes() == want.tobytes()
    assert total.values() is total.values()
    assert total(3) == want[3]
    # the cached inner nodes keep the floats of the first evaluation
    assert fields[7].values() is fields[7].values()


def test_transport_error_is_raised_at_construction_naming_its_sample():
    space = grid()
    with pytest.raises(DomainError, match="point 0 has"):
        Transported("reciprocal", DistanceTo(space, [0]))
    bad = Tabulated(space, [0.5, 0.25, 2.0, 1.0, -3.0])
    with pytest.raises(DomainError, match="tan transport .* point 2 has"):
        Transported("tan", bad)
    with pytest.raises(DomainError, match="reciprocal transport .* point 4 has"):
        Transported("reciprocal", bad)


def test_tan_transport_refusal_prints_a_plain_float():
    bad = Tabulated(grid(), [0.5, 0.25, 2.0, 1.0, -3.0])
    with pytest.raises(DomainError) as err:
        Transported("tan", bad)
    assert str(err.value) == ("tan transport needs values in (-pi/2, pi/2); "
                              "point 2 has 2.0")


def test_tan_transport_accepts_the_float_nearest_half_pi():
    """fl(pi/2) lies below pi/2 and has a finite tan; the next float up
    lies above it, where tan changes sign."""
    half = math.pi / 2.0
    out = Transported("tan", Tabulated(grid(), [half, -half, 0.0, 0.0, 0.0]))
    assert out.values()[:2].tolist() == [math.tan(half), -math.tan(half)]
    above = math.nextafter(half, math.inf)
    with pytest.raises(DomainError, match="point 1 has -1.5707963267948968$"):
        Transported("tan", Tabulated(grid(), [half, -above, 0.0, 0.0, 0.0]))


def test_reciprocal_transport_refusal_prints_a_plain_float():
    with pytest.raises(DomainError) as err:
        Transported("reciprocal", DistanceTo(grid(), [0]))
    assert str(err.value) == ("reciprocal transport needs strictly positive "
                              "values; point 0 has 0.0")


def test_interval_parse_and_containment():
    box = Interval.parse("0,1,closed,open")
    assert box.contains(0.0) and not box.contains(1.0)
    ray = Interval.parse("0,inf,open,open")
    assert ray.bounded_below and not ray.bounded_above
    assert not ray.contains(0.0) and ray.contains(10.0)
    line = Interval.real_line()
    assert line.is_real_line and line.contains(-1e9)
    assert Interval.closed(2.0, 2.0).is_degenerate
    # elementwise on an array, and NaN is in no interval
    got = box.contains(np.array([-1.0, 0.0, 0.5, 1.0, math.nan]))
    assert got.tolist() == [False, True, True, False, False]
    assert not box.contains(math.nan)


def test_interval_parse_rejects_garbage():
    with pytest.raises(InputError):
        Interval.parse("0..1")
    with pytest.raises(InputError):
        Interval.parse("0,1,open,sideways")
    with pytest.raises(InputError):
        Interval.parse("nan,1,open,open")
    # reversed endpoints survive parsing but are flagged degenerate
    assert Interval.parse("1,0,closed,closed").is_degenerate


def test_column_sums_hold_a_bounded_list():
    # the stack of a split into 851 pieces of 1,200 samples: the exact
    # sums may hold about _BLOCK entries at once, since a list of every
    # entry costs about 36 bytes per value (37 MB here)
    rng = np.random.default_rng(7)
    values = rng.normal(size=(851, 1200))
    mask = rng.random(values.shape) < 0.9
    tracemalloc.start()
    try:
        got = _column_sums(values, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * _pairs._BLOCK + 64 * values.shape[1]
    want = [math.fsum(values[mask[:, j], j].tolist())
            for j in range(values.shape[1])]
    assert got.tobytes() == np.array(want).tobytes()


def test_a_series_of_no_terms_is_zero():
    space = MetricSpace.from_grid(0, 2, 1)
    assert Series(space, []).values().tolist() == [0.0, 0.0, 0.0]


BIG = 1e308


@pytest.mark.parametrize("column, want", [
    ([math.inf, -math.inf], math.nan),
    ([math.nan, math.inf, -math.inf], math.nan),
    ([math.nan, BIG, BIG], math.nan),
    ([math.inf, BIG, BIG], math.inf),
    ([-math.inf, -math.inf, BIG, BIG], -math.inf),
    ([BIG, BIG], math.inf),
    ([-BIG, -BIG], -math.inf),
    ([BIG, BIG, -BIG], BIG),
    # past the largest float by more than half its ulp, then back
    ([1.7976931348623157e308, 1e292, -1e292],
     1.7976931348623157e308),
], ids=["both-infinities", "nan-and-both-infinities", "nan-and-overflow",
        "infinity-and-overflow", "one-sign-infinities-and-overflow",
        "overflow", "negative-overflow", "overflow-and-back",
        "past-the-largest-float-and-back"])
def test_series_sums_columns_that_are_not_finite_or_overflow(column, want):
    """Each term holds one entry of the column at sample 0 and a 1 at
    sample 1: the exactly rounded sum, NaN for a NaN or both infinities,
    the infinity of one sign, or, where finite partial sums overflow,
    the exact sum rounded, inf past the float range."""
    space = MetricSpace.from_grid(0, 1, 1)
    got = Series(space, [Tabulated(space, [x, 1.0]) for x in column]).values()
    np.testing.assert_array_equal(got, [want, float(len(column))])


def test_an_infinite_term_outside_the_activity_is_not_summed():
    """Sample 0 sums inf, 1e308 and 1e308, whose partial sums overflow,
    but not the inactive -inf."""
    space = MetricSpace.from_grid(0, 1, 1)
    terms = [Tabulated(space, row) for row in
             ([math.inf, 1.0], [-math.inf, 1.0], [BIG, 0.0], [BIG, 0.0])]
    got = Series(space, terms, activity=[[True, True], [False, True],
                                         [True, False], [True, False]])
    assert got.values().tolist() == [math.inf, 2.0]
