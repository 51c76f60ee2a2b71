"""Targets and values that span more than the float range.

The interval I = [-1.7e308, 1.7e308] is finite at both ends, but its
width, and the sum of two of its values, overflow.  Each construction
into I, and each certificate of one, runs with no numpy warning: a mean
whose finite sum overflows is taken as a / 2 + b / 2 there, and a
certificate's distance past the float range is inf with its sign.
"""

import warnings

import numpy as np
import pytest

from lipkit import (Interval, MetricSpace, PointwiseWitness,
                    PreconditionError, Subset, Tabulated, decompose,
                    extend_to_interval, generate_local_witness,
                    local_extend, pointwise_extend_to_interval)
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
def test_a_half_line_refuses_a_value_it_cannot_invert(interval, phi):
    """The inversion 1 / (phi - lo + 1) needs the distance to the finite
    end as a float; past the float range the value is refused by name."""
    with pytest.raises(PreconditionError) as err:
        pointwise_extend_to_interval(Subset(GRID, [0]), [phi],
                                     PointwiseWitness({0: 1.0}), interval)
    assert str(err.value) == (f"phi(0) = {phi!r} lies more than the largest "
                              f"float from the end of {interval}")
    assert err.value.witness == 0
