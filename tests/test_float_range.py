"""Targets and values that span more than the float range.

The interval I = [-1.7e308, 1.7e308] is finite at both ends, but its
width, and the sum of two of its values, overflow; so does K d(., A)
for K = 1e308 off A.  Each construction, and each certificate of one,
runs with no numpy warning: a mean whose finite sum overflows is taken
as a / 2 + b / 2 there, a certificate's distance past the float range
is inf with its sign, and a random draw whose interval overflows draws
on halves.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from lipkit import (Interval, MetricSpace, PointwiseWitness,
                    PreconditionError, Subset, Tabulated, _pairs, decompose,
                    extend_to_interval, generate_local_witness, local_extend,
                    mcshane_envelopes, pointwise_extend_to_interval,
                    random_k_extension)
from lipkit.verdicts import certify_extend, certify_extend_pointwise

GRID = MetricSpace.from_grid(0, 4, 1)
WIDE = Interval.closed(-1.7e308, 1.7e308)


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_a_global_extension_into_a_wide_target_keeps_its_anchor(K):
    A = Subset(GRID, [0])
    out = extend_to_interval(A, [1e308], K, WIDE)
    assert out.values().tolist() == [1e308] * 5
    assert all(c.passed for c in
               certify_extend(A, np.array([1e308]), K, WIDE, out))


def test_a_pointwise_extension_into_a_wide_target_keeps_its_anchor():
    A = Subset(GRID, [0])
    out = pointwise_extend_to_interval(A, [1e308], PointwiseWitness({0: 1.0}),
                                       WIDE)
    assert out.values().tolist() == [1e308] * 5
    assert all(c.passed for c in
               certify_extend_pointwise(A, np.array([1e308]), WIDE, out))


def test_the_mean_stays_exact_at_subnormal_anchors():
    """(v + v) / 2 = v for v = 2^-1074, where v / 2 + v / 2 is 0."""
    out = extend_to_interval(Subset(GRID, [0]), [5e-324], 0.0,
                             Interval.closed(-1.0, 1.0))
    assert out.values().tolist() == [5e-324] * 5


def test_decompose_near_the_top_of_the_float_range():
    f = Tabulated(GRID, [1.5e308, 1.6e308, 1.7e308, 1.6e308, 1.5e308])
    dec = decompose(f, generate_local_witness(f))
    assert dec.series.values().tolist() == f.values().tolist()


def test_local_extend_into_a_wide_target():
    A = Subset(GRID, [0, 1])
    stub = Tabulated(GRID, [1.5e308, 1.6e308, 0.0, 0.0, 0.0])
    out = local_extend(A, [1.5e308, 1.6e308],
                       generate_local_witness(stub, domain=A), WIDE)
    v = out.values()
    assert v[:2].tolist() == [1.5e308, 1.6e308]
    assert np.isfinite(v).all() and WIDE.contains(v).all()


@pytest.mark.parametrize("interval, phi", [
    (Interval.at_least(-1.7e308), 1e308),
    (Interval.at_most(1.7e308), -1e308),
], ids=["lower-half-line", "upper-half-line"])
def test_a_half_line_extends_a_value_past_the_float_range_from_its_end(
        interval, phi):
    """phi - lo overflows here; the one-sided envelope never forms it."""
    A = Subset(GRID, [0])
    out = pointwise_extend_to_interval(A, [phi], PointwiseWitness({0: 1.0}),
                                       interval)
    assert out.values().tolist() == [phi] * 5
    certs = certify_extend_pointwise(A, np.array([phi]), interval, out)
    assert all(c.passed for c in certs)
    assert certs[0].kind == "restriction" and certs[0].details["exact"]


@pytest.mark.parametrize("seed", [0, 3])
def test_certify_extend_with_k_d_past_the_float_range(seed):
    """K d(., A) reaches +-inf off A: duality matches the equal and
    opposite infinities, a draw takes the floats of an interval whose
    end or width overflows (the draw of seed 4 lies 1.9e308 from an
    envelope), and only the envelopes' own slopes, NaN between two
    infinities, fail."""
    A, I = Subset(GRID, [0]), Interval.closed(-1, 1)
    out = extend_to_interval(A, [0.0], 1e308, I)
    assert out.values().tolist() == [0.0] * 5
    certs = certify_extend(A, np.array([0.0]), 1e308, I, out, seed=seed)
    assert [(c.kind, c.passed) for c in certs] == [
        ("k-lipschitz", False), ("k-lipschitz", False), ("k-lipschitz", True),
        ("restriction", True), ("ordering", True), ("duality", True),
        ("sandwich", True), ("sandwich", True), ("sandwich", True),
        ("containment", True), ("interior-margin", True)]
    assert [c.details["field"] for c in certs[:3]] == [
        "envelope_lower", "envelope_upper", "extension"]
    assert np.isnan([c.worst_violation for c in certs[:2]]).all()


def test_a_draw_past_the_float_range_stays_between_the_envelopes():
    A = Subset(GRID, [0])
    pair = mcshane_envelopes(A, [0.0], 1e308)
    for seed in range(8):
        g = random_k_extension(A, [0.0], 1e308, seed=seed).values()
        assert np.isfinite(g).all()
        assert (pair.lower.values() <= g).all()
        assert (g <= pair.upper.values()).all()
        assert (np.abs(np.diff(g)) <= 1e308).all()


def test_a_draw_refuses_a_nan_end_beside_a_finite_one():
    # a NaN distance reaches both ends at once, so one end is patched
    envelope = _pairs.envelope

    def nan_below(space, ids, vals, K, sign):
        out = envelope(space, ids, vals, K, sign)
        out[1] = math.nan if sign < 0 else out[1]
        return out

    with mock.patch.object(_pairs, "envelope", nan_below), pytest.raises(
            PreconditionError,
            match=r"^feasible interval at point 1 is not finite: \[nan, "):
        random_k_extension(Subset(GRID, [0]), [0.0], 1e308)


def test_the_interior_margin_of_a_wide_target_is_finite():
    """min(K d, width) / 2 is taken from halves: the width of WIDE
    overflows, and with K d past the float range the need was inf."""
    A = Subset(GRID, [0])
    out = extend_to_interval(A, [0.0], 1e308, WIDE)
    margin = {c.kind: c for c in certify_extend(A, np.array([0.0]), 1e308,
                                                WIDE, out)}["interior-margin"]
    assert margin.passed and margin.worst_violation == 0.0
