"""The near-pair pass that decides the cover's doubled-ball check on
point clouds and grids (certify._doubled_balls_hold), against the
per-ball sweep it skips, and the cost gate that decides where it is
tried (certify._near_pass_pays): the covers and refusals of both
modulus rules and of increasing_cover equal those of the per-ball
reference of helpers.cover_outcome on seeded clouds and grids, at pair
distances of 4 delta and one ulp either side, and at coordinates whose
squares leave the normal range; matrices, graphs and failing witnesses
sweep per ball, and so do witnesses whose radii or rates vary and
balls of a few samples."""

import math
from unittest import mock

import numpy as np
import pytest

from helpers import cover_outcome, make_space
from lipkit import (LocalWitness, MetricSpace, PreconditionError, Tabulated,
                    certify_local_witness, generate_local_witness,
                    increasing_cover, modulus_witness)
from lipkit import local_lipschitz
from lipkit.certify import (_doubled_ball_excess, _doubled_balls_hold,
                            _near_pass_pays)

TOL = 1e-9


def check_against_the_sweep(space, witness, v, tol=TOL):
    """modulus_witness of both rules and increasing_cover give what the
    per-ball sweep gives, and a passing near-pair pass leaves no failing
    ball.  Returns the pass's decisions."""
    f = Tabulated(space, v)
    calls = [(modulus_witness, f, witness, rule, tol)
             for rule in ("bounded", "unbounded")]
    calls.append((increasing_cover, f, witness, tol))
    for call in calls:
        assert cover_outcome(*call) == cover_outcome(*call, per_ball=True)
    decided = []
    for num in (None, local_lipschitz._compress):
        with np.errstate(invalid="ignore", over="ignore"):
            holds = _doubled_balls_hold(space, v, witness, num, tol)
            excess, _ = _doubled_ball_excess(space, v, witness,
                                             witness.centers(space), num=num)
        if holds:
            assert (excess <= tol).all()
        decided.append(holds)
    return decided


def seeded_case(rng):
    """A cloud or grid, a smooth field and a witness with a rate per
    entry around the field's slope, so some entries fail."""
    space = make_space(rng, n_max=40, kinds=[1, 3])
    x = space.coords
    v = np.sin(x @ rng.uniform(-2.0, 2.0, size=x.shape[1]))
    count = int(rng.integers(1, 2 * space.n))
    centers = rng.integers(space.n, size=count)
    deltas = rng.choice([0.3, 0.8, 2.0, 20.0], size=count)
    rates = rng.uniform(0.5, 3.0, size=count)
    return space, LocalWitness(centers, deltas, rates), v


def test_covers_and_refusals_match_the_per_ball_sweep():
    rng = np.random.default_rng(31)
    decided = []
    for _ in range(60):
        decided += check_against_the_sweep(*seeded_case(rng))
    assert True in decided and False in decided


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_a_pair_at_four_delta_and_one_ulp_either_side(side):
    """Samples 0, c and b on a line, b at 4 delta or one ulp either
    side, c = b / 2, delta = 1.  At 4 delta - ulp the pair (0, b) lies
    in B(c, 2 delta) and exceeds its rate by 1.8 tol, while (0, c) and
    (c, b) are within tol; at 4 delta and above no ball holds it."""
    b = np.nextafter(4.0, 4.0 + side) if side else 4.0
    c = b / 2.0
    space = MetricSpace.from_points([[0.0], [c], [b]], validate=False)
    v = np.array([-(c + 0.9 * TOL), 0.0, (b - c) + 0.9 * TOL])
    witness = LocalWitness([1, 0, 2], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    check_against_the_sweep(space, witness, v)
    got = cover_outcome(increasing_cover, Tabulated(space, v), witness)
    assert (got[0] is PreconditionError) == (side < 0)


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-165, 1e-170, 1e-300])
def test_coordinates_whose_squares_leave_the_normal_range(scale):
    """Squared axis differences subnormal or flushed to zero: the
    distances the sweep reads are those the pass reads, and a cover or
    refusal is the sweep's, at tol and at 0."""
    rng = np.random.default_rng(32)
    for _ in range(20):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        space = MetricSpace.from_points(rng.uniform(-4.0, 4.0, size=(n, k))
                                        * scale, validate=False)
        v = space.coords @ rng.uniform(-1.0, 1.0, size=k) / scale
        v += rng.normal(scale=1e-3, size=n)
        witness = LocalWitness(rng.integers(n, size=n),
                               rng.uniform(0.5, 4.0, size=n) * scale,
                               rng.uniform(0.0, 2.0, size=n) / scale)
        for tol in (TOL, 0.0):
            check_against_the_sweep(space, witness, v, tol)


def test_a_pair_whose_square_overflows_is_swept_per_ball():
    """-1e154 and 1e154 lie in B(0, 1.2e154), yet their squared gap
    overflows, so their float distance is inf and a zero rate makes
    their excess NaN: past R = 2^500 the pass must not decide."""
    f = Tabulated(MetricSpace.from_points([[-1e154], [0.0], [1e154]],
                                          validate=False), [1.0, 1.0, 1.0])
    witness = LocalWitness([1], [6e153], [0.0])
    assert f.space.dist(0, 2) == math.inf
    assert not _doubled_balls_hold(f.space, f.values(), witness)
    with pytest.raises(PreconditionError, match="fails on its doubled ball"):
        increasing_cover(f, witness)


def spied_cover(space, witness, v):
    """The modulus cover of both rules and the number of per-ball
    sweeps it ran; a refusal is returned as the exception."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return _doubled_ball_excess(*args, **kwargs)
    with mock.patch.object(local_lipschitz, "_doubled_ball_excess", spy):
        try:
            for rule in ("bounded", "unbounded"):
                modulus_witness(Tabulated(space, v), witness, rule)
        except PreconditionError as e:
            return e, len(calls)
    return None, len(calls)


def test_matrices_graphs_and_failing_witnesses_take_the_per_ball_path():
    rng = np.random.default_rng(33)
    x = rng.uniform(size=(30, 2))
    v = x[:, 0] + x[:, 1]
    cloud = MetricSpace.from_points(x)
    passing = LocalWitness(np.arange(30), np.full(30, 0.2), np.full(30, 2.0))
    assert spied_cover(cloud, passing, v) == (None, 0)
    matrix = MetricSpace.from_matrix(cloud.pairwise())
    edges = [(i, j, float(cloud.dist(i, j)))
             for i in range(30) for j in range(i + 1, 30)]
    graph = MetricSpace.from_graph(30, edges)
    for space in (matrix, graph):
        assert spied_cover(space, passing, v) == (None, 2)
    failing = LocalWitness(np.arange(30), np.full(30, 0.2), np.full(30, 1.0))
    error, calls = spied_cover(cloud, failing, v)
    swept, _ = spied_cover(matrix, failing, v)
    assert calls == 1 and "fails on its doubled ball" in str(error)
    assert (str(error), error.witness) == (str(swept), swept.witness)


@pytest.mark.filterwarnings("error")
def test_radii_past_the_float_range_double_quietly():
    """2 delta overflows to inf, the ball of every sample at a finite
    distance; the cover's pass then leaves the check to the sweep."""
    f = Tabulated(MetricSpace.from_grid(0, 2, 1), [0.0, 1.0, 2.0])
    witness = LocalWitness([0, 1, 2], [1e308] * 3, [1.0] * 3)
    cert = certify_local_witness(f, witness)
    assert cert.passed and cert.details["per_entry_worst"] == [0.0] * 3
    assert not _doubled_balls_hold(f.space, f.values(), witness)
    cover = increasing_cover(f, witness)
    assert cover.eta.tolist() == [1, 1, 1]


def test_a_nan_excess_fails_the_pass():
    """The cover refuses NaN values before its ball check, but the pass
    alone must not read a NaN excess, which fails its ball, as a pass."""
    space = MetricSpace.from_grid(0, 3, 1)
    witness = LocalWitness([1], [1.0], [1.0])
    v = np.array([0.0, np.nan, 1.0, 2.0])
    with np.errstate(invalid="ignore"):
        excess, _ = _doubled_ball_excess(space, v, witness, [1])
    assert np.isnan(excess[0])
    assert not _doubled_balls_hold(space, v, witness)


def test_the_pass_is_tried_only_where_it_pays():
    """One radius, one rate and doubled balls of many pairs: the pass
    runs and decides.  Radii or rates that vary, balls of a few samples
    or a matrix: the per-ball sweep runs alone."""
    rng = np.random.default_rng(34)
    n = 200
    x = rng.uniform(size=(n, 2))
    v = np.sin(3.0 * x[:, 0]) + x[:, 1]
    cloud = MetricSpace.from_points(x, validate=False)
    wide = math.sqrt(8.0 / (math.pi * n))
    narrow = 0.5 * float(np.median(cloud.nearest_positive()))
    ids = np.arange(n)
    cases = [
        (cloud, LocalWitness(ids, np.full(n, wide), np.full(n, 5.0)), True),
        (cloud, generate_local_witness(Tabulated(cloud, v)), False),
        (cloud, LocalWitness(ids, wide * rng.uniform(0.5, 1.5, n),
                             np.full(n, 5.0)), False),
        (cloud, LocalWitness(ids, np.full(n, wide),
                             rng.uniform(5.0, 6.0, n)), False),
        (cloud, LocalWitness(ids, np.full(n, narrow), np.full(n, 5.0)), False),
        (MetricSpace.from_matrix(cloud.pairwise(), validate=False),
         LocalWitness(ids, np.full(n, wide), np.full(n, 5.0)), False),
    ]
    for space, witness, tried in cases:
        assert _near_pass_pays(space, witness, ids) == tried
        passes = []

        def spy(*args, **kwargs):
            passes.append(_doubled_balls_hold(*args, **kwargs))
            return passes[-1]
        with mock.patch.object(local_lipschitz, "_doubled_balls_hold", spy):
            error, sweeps = spied_cover(space, witness, v)
        assert error is None
        assert (passes, sweeps) == (([True] * 2, 0) if tried else ([], 2))
