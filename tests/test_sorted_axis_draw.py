"""The random draws on one sorted axis, where a pending constraint that a
later sample dominates never enters the tail bounds: every output and
every refusal must equal the prefix reference's, byte for byte."""

import math

import numpy as np
import pytest

from lipkit import (MetricSpace, PreconditionError, Subset, feasible_interval,
                    random_k_extension)
from lipkit import _pairs, certify

from helpers import ref_greedy


def reference(A, phi, K, seed, tol):
    """ref_greedy's draw as bytes, or the refusal (message, witness) of
    its first interval that is empty beyond tol."""
    phi = np.asarray(phi, dtype=float)
    draw = ref_greedy(A, phi, K, A.complement(), seed, tol=math.inf)
    done = list(A.members)
    for p in A.complement().tolist():
        lo, hi = feasible_interval(A.space, done, draw[done], p, K)
        if lo - hi > tol:
            return f"empty feasible interval at point {p}: [{lo}, {hi}]", p
        done.append(p)
    return draw.tobytes()


def outcome(A, phi, K, seed, tol):
    try:
        return random_k_extension(A, phi, K, seed=seed, tol=tol).values().tobytes()
    except PreconditionError as err:
        return str(err), err.witness


def sorted_axis(kind, rng, n, step):
    """A grid, or a sorted 1-D cloud of the same span."""
    if kind == "grid":
        return MetricSpace.from_grid(0.0, step * (n - 1), step, validate=False)
    x = np.sort(rng.uniform(0.0, step * (n - 1), n))
    return MetricSpace.from_points(x[:, None], validate=False)


@pytest.mark.parametrize("kind", ["grid", "cloud"])
@pytest.mark.parametrize("coord_scale", [1.0, 1e6])
@pytest.mark.parametrize("value_scale", [1.0, 1e8, 1e15])
def test_sorted_axis_draw_matches_the_reference(kind, coord_scale, value_scale):
    for s in range(3):
        rng = np.random.default_rng([s, int(math.log10(value_scale)),
                                     int(math.log10(coord_scale))])
        space = sorted_axis(kind, rng, 40, coord_scale / 39)
        m = int(rng.integers(1, 12))
        A = Subset(space, rng.choice(space.n, size=m, replace=False))
        K = float(rng.uniform(0.2, 4.0)) * value_scale / coord_scale
        # a cone of slope <= 0.9 K around one sample is K-Lipschitz on A
        cone = space.pairwise()[int(rng.integers(space.n)), A.members]
        phi = value_scale * float(rng.uniform(-2, 2)) + float(
            rng.uniform(-0.9, 0.9)) * K * cone
        lo = _pairs.envelope(space, A.members, phi, K, -1)
        hi = _pairs.envelope(space, A.members, phi, K, +1)
        assert certify._dominance_margin(space, lo, hi, K) < math.inf
        assert outcome(A, phi, K, s, 1e-9) == reference(A, phi, K, s, 1e-9)


def test_sorted_axis_draw_with_sample_zero_pending():
    # A holds only the last sample, so sample 0 waits first
    for kind in ("grid", "cloud"):
        rng = np.random.default_rng(5)
        space = sorted_axis(kind, rng, 30, 0.1)
        A = Subset(space, [space.n - 1])
        assert outcome(A, [1.0], 2.0, 3, 1e-9) == reference(A, [1.0], 2.0, 3, 1e-9)


def test_sorted_axis_draw_with_duplicate_coordinates():
    for s in range(6):
        rng = np.random.default_rng([s, 17])
        x = np.sort(rng.integers(0, 8, size=30)).astype(float) * 0.3
        space = MetricSpace.from_points(x[:, None], validate=False)
        A = Subset(space, rng.choice(space.n, size=4, replace=False))
        cone = space.pairwise()[int(A.members[0]), A.members]
        phi = 1.0 + float(rng.uniform(-1, 1)) * 1.5 * cone
        assert outcome(A, phi, 1.5, s, 1e-9) == reference(A, phi, 1.5, s, 1e-9)


def test_sorted_axis_draw_takes_the_later_zero_on_a_tie():
    # sample 3 sits on the anchor 2, phi(2) = -0.0, so its starting lower
    # bound is -0.0; the pending sample 1 (value 1) gives it +0.0.  Like
    # np.maximum, the pending read keeps the second operand of the tie,
    # and the interval [+0.0, +0.0] is a point
    space = MetricSpace.from_points([[0.0], [1.0], [2.0], [2.0]],
                                    validate=False)
    A = Subset(space, [0, 2])
    phi = [2.0, -0.0]
    assert np.signbit(_pairs.envelope(space, A.members, phi, 1.0, -1)[3])
    out = random_k_extension(A, phi, 1.0).values()
    assert out[3] == 0.0 and not np.signbit(out[3])
    assert out.tobytes() == reference(A, phi, 1.0, 0, 1e-9)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_sorted_axis_draw_with_constant_zero(zero):
    for kind in ("grid", "cloud"):
        space = sorted_axis(kind, np.random.default_rng(2), 50, 0.02)
        A = Subset(space, [3, 20, 41])
        for phi in ([zero] * 3, [0.0, -0.0, 0.0], [-2.5] * 3):
            assert outcome(A, phi, 0.0, 1, 1e-9) == reference(A, phi, 0.0, 1, 1e-9)


@pytest.mark.parametrize("value_scale", [1.0, 1e8, 1e15])
def test_sorted_axis_draw_on_a_line_of_slope_k(value_scale):
    # phi = c + K x on A: every interval closes, up to rounding
    for kind in ("grid", "cloud"):
        rng = np.random.default_rng(int(math.log10(value_scale)))
        space = sorted_axis(kind, rng, 40, 0.05)
        A = Subset(space, [0, 7, 25, 39])
        K = 3.0 * value_scale
        phi = value_scale + K * space.coords[A.members, 0]
        tol = 1e-9 * value_scale
        assert outcome(A, phi, K, 2, tol) == reference(A, phi, K, 2, tol)


def test_sorted_axis_draw_closes_a_gap_at_the_midpoint():
    # phi overshoots slope 1 by 1e-12, within tol: the first sample after
    # 0 closes at its midpoint, and the rest are drawn against it
    x = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 30))
    x[0], x[-1] = 0.0, 1.0
    space = MetricSpace.from_points(x[:, None])
    A = Subset(space, [0, 29])
    phi = [0.0, 1.0 + 1e-12]
    assert outcome(A, phi, 1.0, 2, 1e-9) == reference(A, phi, 1.0, 2, 1e-9)


def test_sorted_axis_draw_refuses_an_empty_interval_as_the_reference():
    # at value scale 3e15 the bounds round by whole units, and some
    # intervals come out empty beyond tol = 0.6: the same point, ends
    # and witness as the reference
    refused = 0
    for s in range(8):
        rng = np.random.default_rng(s)
        space = sorted_axis("grid" if s % 2 else "cloud", rng, 30, 0.1)
        A = Subset(space, rng.choice(space.n, size=6, replace=False))
        phi = 3e15 + 3.0 * space.coords[A.members, 0]
        got = outcome(A, phi, 3.0, s, 0.6)
        assert got == reference(A, phi, 3.0, s, 0.6), s
        refused += isinstance(got, tuple)
    assert refused >= 2


def test_sorted_axis_draw_refuses_a_non_finite_interval():
    # distances past the float range: M is inf, and the message is the
    # one every space gives
    space = MetricSpace.from_grid(0.0, 2e300, 1e300, validate=False)
    with pytest.raises(PreconditionError) as err:
        random_k_extension(Subset(space, [0]), [0.0], 1.0)
    assert str(err.value) == "feasible interval at point 1 is not finite: [-inf, inf]"
    assert err.value.witness == 1


def test_sorted_axis_draw_needs_its_margin():
    # found by search: with M = 0 the draw drops a constraint here that
    # rounding makes the largest at a later sample, and one bit moves
    x = [15664.577150005909, 38068.30436428055, 61033.47368009671,
         67902.36705357155, 348844.5183606511, 350646.7845265664,
         415038.6942425103, 456314.62544492626, 502656.5729396352,
         552032.2029322939, 600315.244317242, 600884.1967127713,
         637887.8977418499, 717367.664246226, 724393.9499300838,
         751139.6650250657, 779368.3636613112, 812072.8681063034,
         892702.1657617172, 997186.8286601179]
    space = MetricSpace.from_points(np.array(x)[:, None], validate=False)
    A = Subset(space, [1, 6, 8, 16, 19])
    phi = 0.5 + 3.0 * np.abs(space.coords[A.members, 0] - x[8])
    assert outcome(A, phi, 3.0, 411, 1e-8) == reference(A, phi, 3.0, 411, 1e-8)


def test_draws_off_a_sorted_axis_match_the_reference():
    # a reversed 1-D cloud and a 2-D cloud keep M = inf
    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(0.0, 1.0, 30))[::-1]
    for space in (MetricSpace.from_points(x[:, None]),
                  MetricSpace.from_points(rng.uniform(0.0, 1.0, (30, 2)))):
        A = Subset(space, [2, 11, 17])
        phi = 0.5 * space.pairwise()[2, A.members]
        lo = _pairs.envelope(space, A.members, phi, 1.0, -1)
        hi = _pairs.envelope(space, A.members, phi, 1.0, +1)
        assert certify._dominance_margin(space, lo, hi, 1.0) == math.inf
        assert outcome(A, phi, 1.0, 6, 1e-9) == reference(A, phi, 1.0, 6, 1e-9)


def test_draw_without_a_margin_applies_a_nan_distance():
    # off a sorted axis every constraint enters the tail at once, so the
    # NaN distance d(1, 2) makes sample 2's interval NaN, as the
    # reference's would be
    D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, math.nan], [1.0, math.nan, 0.0]])
    space = MetricSpace.from_matrix(D, validate=False)
    with pytest.raises(PreconditionError) as err:
        random_k_extension(Subset(space, [0]), [0.0], 1.0)
    assert str(err.value) == "feasible interval at point 2 is not finite: [nan, nan]"
    assert err.value.witness == 2


def test_draw_scales_past_the_float_range_quietly():
    # K d overflows in the tail update: inf, with no numpy warning (an
    # error under this suite's filters), and the values are the
    # reference's
    space = MetricSpace.from_grid(0.0, 100.0, 1.0)
    A = Subset(space, [0])
    got = random_k_extension(A, [0.0], 1e307).values()
    with np.errstate(over="ignore"):
        want = ref_greedy(A, np.array([0.0]), 1e307, A.complement(), 0)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()
