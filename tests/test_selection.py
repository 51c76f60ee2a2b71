import math
import warnings

import numpy as np
import pytest

from lipkit import (Constant, CoverError, GridError, InputError,
                    LocalWitness, MetricSpace, PreconditionError, Subset,
                    Tabulated, global_lip, maximum, minimum,
                    random_k_extension)
from lipkit.selection import (IntervalMapping, decreasing_approx,
                              graph_open_check, insert, select, select_extend)
from lipkit.fixtures import approx_targets, dowker_step
from lipkit.verdicts import certify_select

from helpers import make_instance

TOL = 1e-9


def unit_window(space):
    return IntervalMapping(space, Constant(space, 0.0), Constant(space, 1.0))


def test_mapping_rejects_foreign_side():
    a = MetricSpace.from_grid(0.0, 1.0, 0.5)
    b = MetricSpace.from_grid(0.0, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        IntervalMapping(a, Constant(b, 0.0), None)


def test_strict_mask_is_strict():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    m = unit_window(space)
    on_edge = Tabulated(space, np.array([0.0, 0.5, 1.0]))
    assert m.strict_mask(on_edge).tolist() == [False, True, False]


def test_graph_open_check_constant_windows():
    space = MetricSpace.from_grid(0.0, 4.0, 1.0)
    rep = graph_open_check(unit_window(space), 2, 0.25, 0.75)
    assert rep.ok
    assert rep.radius == 4.0
    assert rep.counterexample is None
    assert rep.probe == (2, 0.25, 0.75)


def test_graph_open_check_step_window():
    space, lower, upper = dowker_step(0.25)
    m = IntervalMapping(space, lower, upper)
    # [0.1, 0.4] fits the low windows; the nearest high sample breaks it
    rep = graph_open_check(m, 0, 0.1, 0.4)
    assert rep.ok
    assert rep.radius == pytest.approx(1.0)
    assert rep.counterexample == 4


def test_graph_open_check_probe_errors():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    m = unit_window(space)
    with pytest.raises(PreconditionError):
        graph_open_check(m, 0, 0.75, 0.25)
    with pytest.raises(PreconditionError):
        graph_open_check(m, 0, -0.5, 0.5)


def test_graph_open_check_duplicate_sample_fails():
    # two samples at distance zero with incompatible windows
    space = MetricSpace.from_matrix(np.zeros((2, 2)), validate=False)
    m = IntervalMapping(space, Tabulated(space, np.array([0.0, 0.6])),
                        Tabulated(space, np.array([1.0, 2.0])))
    rep = graph_open_check(m, 0, 0.25, 0.75)
    assert not rep.ok
    assert rep.radius == 0.0
    assert rep.counterexample == 1


def test_select_ladder_unit_window():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = select(unit_window(space))
    assert f.grid_depth == 1
    assert f.chosen_levels == [0.5]
    assert (f.values() == 0.5).all()


def test_select_refuses_a_window_with_no_interior_naming_a_plain_width():
    space = MetricSpace.from_grid(0.0, 4.0, 1.0)
    shut = IntervalMapping(space, Constant(space, 0.0),
                           Tabulated(space, [1.0, 1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(PreconditionError) as err:
        select(shut)
    assert str(err.value) == "window at sample 2 has no interior (width 0.0)"
    assert err.value.witness == 2


def test_select_step_window_ladder():
    space, lower, upper = dowker_step(0.25)
    m = IntervalMapping(space, lower, upper)
    f = select(m)
    assert f.grid_depth == 2
    assert sorted(f.chosen_levels) == [0.25, 1.75]
    assert f.margin == pytest.approx(0.0625)
    np.testing.assert_array_equal(
        f.values(), np.where(space.coords[:, 0] < 1.0, 0.25, 1.75))
    assert m.strict_mask(f).all()
    assert global_lip(f).finite


def test_select_one_sided_windows():
    space = MetricSpace.from_grid(-1.0, 1.0, 0.25)
    t = Tabulated(space, np.abs(space.coords[:, 0]))
    below = IntervalMapping(space, None, t + Constant(space, 0.5))
    f = select(below)
    assert below.strict_mask(f).all()
    above = IntervalMapping(space, t, None)
    g = select(above)
    assert above.strict_mask(g).all()


def tree_witnesses(mapping, levels, cushion):
    """The Constant/minimum/maximum witness trees select built before
    its witness rows were arrays, an absent side at infinity."""
    space = mapping.space
    lower, upper = mapping.lower, mapping.upper
    lower = Constant(space, -math.inf) if lower is None else lower
    upper = Constant(space, math.inf) if upper is None else upper
    out = []
    for r in levels:
        level = Constant(space, r)
        margin = minimum(level - lower, upper - level)
        out.append(minimum(Constant(space, 1.0), maximum(
            margin - Constant(space, cushion), Constant(space, 0.0))))
    return [w.values() for w in out]


@pytest.mark.parametrize("sides", ["both", "lower", "upper", "none"])
def test_select_witness_rows_match_the_field_trees(sides):
    """An absent side at infinity drops out of the margin: the ladder's
    rows are the field trees' bit for bit for every combination of
    sides."""
    space = MetricSpace.from_grid(-1.0, 1.0, 0.125)
    t = space.coords[:, 0]
    lower = Tabulated(space, np.abs(t) - 0.5)
    upper = Tabulated(space, t * t + 0.5)
    m = IntervalMapping(space, lower if sides in ("both", "lower") else None,
                        upper if sides in ("both", "upper") else None)
    f = select(m)
    rows = [w.values() for w in f.partition.cover.witnesses]
    ref = tree_witnesses(m, f.chosen_levels, f.margin)
    assert np.array(rows).tobytes() == np.array(ref).tobytes()
    assert m.strict_mask(f).all()


@pytest.mark.parametrize("n", [200, 601])
def test_select_levels_are_limited_only_by_the_mixture_underflow(n):
    """No set cap: each unit window (x, x + 1) on an integer grid needs
    its own level.  200 levels are all blended.  The one limit is the
    mixture sum 2^-n W_n, with W_n <= 2^-n, which underflows to 0 at a
    sample whose only level comes past about 537 sets: 601 levels raise
    CoverError naming the sample, not GridError and not a numpy
    warning."""
    space = MetricSpace.from_grid(0.0, n - 1.0, 1.0)
    phi = Tabulated(space, space.coords[:, 0])
    m = IntervalMapping(space, phi, phi + Constant(space, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n > 537:
            with pytest.raises(CoverError, match="at sample"):
                select(m)
            return
        f = select(m)
    assert len(f.chosen_levels) == n
    assert m.strict_mask(f).all()


def test_select_ladder_path_keeps_its_floats():
    """A window the ladder already selects takes the ladder's depth and
    returns the same blended floats as before the depth was derived."""
    space = MetricSpace.from_grid(0.0, 1.0, 0.125)
    lower = Tabulated(space, np.sin(3.0 * space.coords[:, 0]))
    f = select(IntervalMapping(space, lower, lower + Constant(space, 0.3)))
    assert f.grid_depth == 3
    assert f.chosen_levels == [1.125, 0.875, 0.625, 0.25, 0.5, 0.125]
    assert f.values().tolist() == [
        0.18024302430243028, 0.5152537902483387, 0.875, 1.125, 1.125,
        1.125, 0.875, 0.625, 0.25]


def test_select_narrow_windows_battery():
    """400 seeded windows of one width each, log-uniform in [1e-12,
    1e-1], over random lower sides: every one is selected strictly
    inside, past depth 20 where the ladder runs out."""
    rng = np.random.default_rng(22)
    space = MetricSpace.from_grid(0.0, 1.0, 0.05)
    depths = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(400):
            lower = Tabulated(space, rng.uniform(-1.0, 1.0, size=space.n))
            width = 10.0 ** rng.uniform(-12.0, -1.0)
            m = IntervalMapping(space, lower, lower + Constant(space, width))
            f = select(m)
            assert m.strict_mask(f).all(), case
            depths.add(f.grid_depth)
    assert min(depths) <= 20 < max(depths)


@pytest.mark.parametrize("lo, hi", [(1e19, 1e19 + 1e5),
                                    (1e300, 1.0001e300),
                                    (0.5 - 1e-13, 0.5 + 1e-14)])
def test_select_far_out_and_off_grid_windows(lo, hi):
    """Windows far from 0, whose level indices pass 2^53 at depth 1, and
    a window whose only ladder levels sit in the rounding slack of the
    stab, not clear of the cushion, are each selected strictly inside,
    with no numpy warning."""
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    m = IntervalMapping(space, Constant(space, lo), Constant(space, hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = select(m)
    assert m.strict_mask(f).all()


@pytest.mark.parametrize("lo, hi, depth", [(1e19, 1e19 + 4096.0, 1),
                                           (3e12, 3e12 + 1e-3, 12),
                                           (-3e12 - 1e-3, -3e12, 12),
                                           (1.7e308, 1.79e308, 1)])
def test_select_past_the_float_resolution_is_a_grid_error(lo, hi, depth):
    """Where no dyadic level clears the margin and the level indices
    reach 2^53, the multiples are not exact floats near the window:
    GridError names the sample and the depth, with no numpy warning."""
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    m = IntervalMapping(space, Constant(space, lo), Constant(space, hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=f"2\\^-{depth} .* sample 0"
                           ) as err:
            select(m)
    assert err.value.witness == 0


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("b", [1e16, 1e300, -1e308, 1.7e308])
def test_one_sided_window_far_from_0_has_an_interior(side, b):
    """One span past a bound of 2^53 or more rounds back onto it; the
    sentinel then moves to max(2b, -b) (mirrored for an upper side),
    capped at the largest float, so the window keeps an interior.  The
    ladder selects strictly inside, except where every margined window
    lies past half the float range and the level indices of depth 1
    overflow: that is GridError, as for two-sided windows there, not a
    window without interior."""
    space = MetricSpace.from_grid(0.0, 4.0, 1.0)
    c = Constant(space, b)
    m = IntervalMapping(space, c if side == "lower" else None,
                        c if side == "upper" else None)
    gt, ht = m.sentinels()
    assert np.isfinite(gt).all() and np.isfinite(ht).all()
    assert (gt < ht).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (side, b) in (("lower", 1.7e308), ("upper", -1e308)):
            with pytest.raises(GridError, match="2\\^-1 .* sample 0"):
                select(m)
            return
        f = select(m)
    assert m.strict_mask(f).all()


def test_sentinel_one_span_beyond_keeps_its_bits():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    g = Tabulated(space, np.array([5e15, 5e15 + 4.0, 5e15 + 2.0]))
    assert IntervalMapping(space, g, None).sentinels()[1][0] == 5e15 + 8.0
    assert IntervalMapping(space, None, g).sentinels()[0][0] == 5e15 - 4.0
    unit = Tabulated(space, np.array([0.0, 0.5, 0.25]))
    assert IntervalMapping(space, unit, None).sentinels()[1][0] == 1.5


@pytest.mark.parametrize("b", [1e308, 1.7e308])
def test_select_widest_windows_do_not_overflow(b):
    """The width of (-b, b) overflows; theta comes from the quarters of
    the sides instead, and a level's margin past the float range is
    capped at 1, with no numpy warning, in select or its certificates."""
    space = MetricSpace.from_grid(0.0, 4.0, 1.0)
    m = IntervalMapping(space, Constant(space, -b), Constant(space, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = select(m)
        assert all(c.passed for c in certify_select(m, f))
    assert f.margin == b / 4.0
    assert m.strict_mask(f).all()


def test_select_rejects_empty_window():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    m = IntervalMapping(space, Constant(space, 1.0), Constant(space, 1.0))
    with pytest.raises(PreconditionError) as err:
        select(m)
    assert err.value.witness == 0


def midband_problem():
    # A carries 1/t on the middle band of a sampled ray, windows (0, 2)
    space = MetricSpace.from_grid(0.1, 3.0, 0.1)
    t = space.coords[:, 0]
    ids = np.flatnonzero((t >= 1.0 - 1e-12) & (t <= 2.0 + 1e-12))
    A = Subset(space, ids)
    phi = 1.0 / t[ids]
    witness = LocalWitness.from_triples([(int(p), 0.25, 4.0) for p in ids])
    m = IntervalMapping(space, Constant(space, 0.0), Constant(space, 2.0))
    return space, A, phi, witness, m


def test_select_extend_agrees_and_stays_strict():
    space, A, phi, witness, m = midband_problem()
    f = select_extend(A, phi, witness, m)
    np.testing.assert_array_equal(f.values()[A.members], phi)
    assert m.strict_mask(f).all()


def test_select_extend_keeps_base_when_inside():
    space, A, phi, witness, m = midband_problem()
    f = select_extend(A, phi, witness, m)
    if f.selector is None:
        assert f.blend is f.base
    else:
        keep = m.strict_mask(f.base)
        assert not keep.all()


def test_select_extend_whole_space():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    phi = np.array([0.5, 0.25, 0.75, 0.5, 0.25])
    witness = LocalWitness.from_triples([(p, 3.0, 1.0) for p in range(space.n)])
    f = select_extend(Subset.whole(space), phi, witness, unit_window(space))
    np.testing.assert_array_equal(f.values(), phi)
    assert f.selector is None


def test_select_extend_rejects_phi_on_edge():
    space, A, phi, witness, m = midband_problem()
    bad = phi.copy()
    bad[0] = 0.0
    with pytest.raises(PreconditionError) as err:
        select_extend(A, bad, witness, m)
    assert "strictly inside" in str(err.value)


def test_insert_plain_window():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = insert(space, Constant(space, 0.0), Constant(space, 1.0))
    assert (f.values() == 0.5).all()


def test_insert_through_a_point():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    A = Subset(space, [1])
    witness = LocalWitness.from_triples([(1, 2.5, 0.5)])
    f = insert(space, Constant(space, 0.0), Constant(space, 1.0),
               A=A, phi=np.array([0.9]), witness=witness)
    assert f.values()[1] == 0.9
    assert ((f.values() > 0.0) & (f.values() < 1.0)).all()


def test_insert_between_varying_sides():
    space = MetricSpace.from_grid(-1.0, 1.0, 0.25)
    t = np.abs(space.coords[:, 0])
    lower = Tabulated(space, -t)
    upper = Tabulated(space, t + 0.1)
    f = insert(space, lower, upper)
    m = IntervalMapping(space, lower, upper)
    assert m.strict_mask(f).all()


def test_insert_requires_phi_and_witness():
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        insert(space, Constant(space, 0.0), Constant(space, 1.0),
               A=Subset(space, [0]))


@pytest.mark.parametrize("which", [0, 1])
def test_decreasing_approx_pinches(which):
    space, targets = approx_targets(0.25)
    phi = targets[which]
    chain = decreasing_approx(phi, 10)
    pv = phi.values()
    prev = None
    for n, f in enumerate(chain, start=1):
        v = f.values()
        assert (v > pv).all()
        assert (v - pv).max() < 2.0 ** (1 - n)
        if prev is not None:
            assert (v < prev).all()
        prev = v


def test_decreasing_approx_on_seeded_fields():
    """The decreasing approximation exists for every phi: three steps
    stay strictly above phi and strictly decrease on 30 seeded
    K-Lipschitz fields, steep ones included."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        space, A, phi, K = make_instance(rng)
        f = random_k_extension(A, phi, K, seed=seed)
        steps = [g.values() for g in decreasing_approx(f, 3)]
        assert all((v > f.values()).all() for v in steps), seed
        assert all((a > b).all() for a, b in zip(steps, steps[1:])), seed


def test_decreasing_approx_needs_a_step():
    space, targets = approx_targets(0.25)
    with pytest.raises(PreconditionError):
        decreasing_approx(targets[0], 0)


@pytest.mark.parametrize("x", [2.9, -1, 5])
def test_graph_open_check_takes_a_sample_id(x):
    # 2.9 used to probe sample 2, -1 the last sample
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    with pytest.raises(InputError, match="point"):
        graph_open_check(unit_window(space), x, 0.25, 0.75)
    assert graph_open_check(unit_window(space), 2, 0.25, 0.75).ok
