"""One sample-id rule at every entry point that takes ids from a caller.

Each entry point gets a value that is no sample id of the 5-sample grid
0..4 (a fraction, a bool, a negative id, n and NaN) in a known position
and must refuse it with an InputError naming the value and the
position.  Before the rule was shared, int conversions read 2.9 as
sample 2, True as sample 1 and -1 as sample 4.
"""

import math
import re

import numpy as np
import pytest

from lipkit import (Constant, DistanceTo, InputError, Interval, LocalWitness,
                    MetricSpace, Subset, Tabulated, certify_local_witness,
                    check_k_lipschitz, extend_to_interval, feasible_interval,
                    global_lip, graph_open_check, mather_refine,
                    modulus_witness, pointwise_lip, scaled_oscillation,
                    witness_from_balls, witness_from_modulus)
from lipkit import _pairs
from lipkit.extension import Envelope
from lipkit.io import field_on_space, values_on_subset
from lipkit.selection import IntervalMapping

BAD = [2.9, True, -1, 5, math.nan]
IDS = ["fraction", "bool", "negative", "n", "nan"]


def grid():
    return MetricSpace.from_grid(0, 4, 1)


def field(s):
    return Tabulated(s, [0.0, 0.5, 1.0, 0.5, 0.0])


def modulus(s):
    return modulus_witness(field(s), LocalWitness.from_triples(
        [(p, 1.5, 1.0) for p in range(s.n)]))


# name: (call with the bad value x, its position in the message)
ENTRY_POINTS = {
    "Subset": (lambda s, x: Subset(s, [0, x]), "1"),
    "Subset-contains": (lambda s, x: x in Subset(s, [2]), "0"),
    "DistanceTo": (lambda s, x: DistanceTo(s, [0, x]), "1"),
    "field-call": (lambda s, x: field(s)(x), "0"),
    "Envelope": (lambda s, x: Envelope(s, [0, x], [1.0, 1.0], [1.0, 1.0],
                                       -1), "1"),
    "witness_from_balls": (lambda s, x: witness_from_balls(
        s, [[(0, 1.0), (x, 1.5)], [(2, 3.0)]]), "1"),
    "active_bound": (lambda s, x: mather_refine(witness_from_balls(
        s, [[(0, 0.25)], [(p, 0.25) for p in range(s.n)]])).active_bound(x),
        "0"),
    "witness-entry": (lambda s, x: certify_local_witness(
        field(s), LocalWitness.from_triples([(0, 1.5, 1.0), (x, 1.5, 1.0)])),
        "1"),
    "check_k_lipschitz-pairs": (lambda s, x: check_k_lipschitz(
        field(s), 1.0, pairs=[(0, 1), (2, x)]), r"\(1, 1\)"),
    "global_lip-pairs": (lambda s, x: global_lip(field(s), pairs=[(x, 0)]),
                         r"\(0, 0\)"),
    "witness_from_modulus": (lambda s, x: witness_from_modulus(
        modulus(s), [1, x], [1.0, 1.0]), "1"),
    "graph_open_check": (lambda s, x: graph_open_check(
        IntervalMapping(s, Constant(s, 0.0), Constant(s, 1.0)), x, 0.25,
        0.75), "0"),
    "feasible_interval-point": (lambda s, x: feasible_interval(
        s, [0], [0.0], x, 1.0), "0"),
    "feasible_interval-assigned": (lambda s, x: feasible_interval(
        s, [0, x], [0.0, 0.0], 1, 1.0), "1"),
    "pointwise_lip": (lambda s, x: pointwise_lip(field(s), x), "0"),
    "scaled_oscillation": (lambda s, x: scaled_oscillation(
        field(s), x, [1.5]), "0"),
    "graph-edge": (lambda s, x: MetricSpace.from_graph(
        5, [(0, 1, 1.0), (1, x, 1.0)]), r"\(1, 1\)"),
    # on the grid 0..4, dist(-1, 0) read 4.0 and ball(-1, 0.5) read [4]
    "dist": (lambda s, x: s.dist(x, 0), "0"),
    "dist-second": (lambda s, x: s.dist(0, x), "0"),
    "dist_row": (lambda s, x: s.dist_row(x), "0"),
    "ball": (lambda s, x: s.ball(x, 0.5), "0"),
}


@pytest.mark.parametrize("x", BAD, ids=IDS)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_an_id_that_is_no_sample(name, x):
    call, position = ENTRY_POINTS[name]
    why = "lies outside 0..4" if x in (-1, 5) else "is not an integer"
    with pytest.raises(InputError, match=rf"{re.escape(repr(x))} at position "
                                         rf"{position} {why}"):
        call(grid(), x)


@pytest.mark.parametrize("x, message", [
    (2.9, "id 2.9 is not an integer"),
    (True, "not numeric"),
    (-1, "id -1 lies outside 0..4"),
    (5, "id 5 lies outside 0..4"),
    (math.nan, "ids and values must be finite"),
], ids=IDS)
def test_value_csv_refuses_an_id_that_is_no_sample(tmp_path, x, message):
    # before, an id outside the space was ignored and 2.9 stopped the
    # file with no line named
    path = tmp_path / "v.csv"
    path.write_text("".join(f"{p},1.0\n" for p in (0, 1, 2, 3, 4, x)))
    s = grid()
    with pytest.raises(InputError, match=re.escape(f"line 6: {message}")):
        field_on_space(str(path), s)
    with pytest.raises(InputError, match=re.escape(f"line 6: {message}")):
        values_on_subset(str(path), Subset(s, [0, 1]))


def test_value_csv_refuses_a_repeated_id(tmp_path):
    # before, the last row of sample 1 won and lipkit extend passed on it
    path = tmp_path / "v.csv"
    path.write_text("0,1.0\n1,2.0\n1,5.0\n2,3.0\n")
    s = MetricSpace.from_grid(0, 2, 1)
    with pytest.raises(InputError,
                       match=r"v\.csv, line 3: id 1 repeats an earlier row"):
        values_on_subset(str(path), Subset(s, [0, 1, 2]))


def test_subset_ids_are_read_as_given():
    # 0.7 and 3.2 used to anchor the extension at samples 0 and 3
    s = grid()
    with pytest.raises(InputError, match="subset id 0.7 at position 0"):
        extend_to_interval(Subset(s, [0.7, 3.2]), [0, 1], 1,
                           Interval.closed(0, 1))
    assert Subset(s, [3.0, 0, np.int64(3)]).members.tolist() == [0, 3]
    assert 3.0 in Subset(s, [3]) and np.int64(2) not in Subset(s, [3])
    assert field(s)(np.int64(2)) == field(s)(2.0) == 1.0
    assert s.dist(np.int64(4), 0.0) == s.dist(4, 0) == 4.0
    assert s.ball(np.int64(4), 1.5).tolist() == s.ball(4.0, 1.5).tolist()


def test_witness_entry_points_are_checked_for_integers_before_a_space():
    with pytest.raises(InputError, match="entry point 2.5 at position 1 is "
                                         "not an integer"):
        LocalWitness.from_triples([(0, 1.0, 1.0), (2.5, 1.0, 1.0)])
    # the range needs a space: -1 passes here and is refused against one
    witness = LocalWitness.from_triples([(-1, 1.0, 1.0)])
    assert witness.points.tolist() == [-1]
    with pytest.raises(InputError, match="witness entry id -1 at position 0 "
                                         "lies outside 0..4"):
        certify_local_witness(field(grid()), witness)


@pytest.mark.parametrize("x", [1e300, 2 ** 64 - 1], ids=["float", "uint64"])
def test_witness_entry_points_past_the_int64_range_are_refused(x):
    # an int cast would make 1e300 INT64_MIN and wrap 2^64 - 1 to -1
    with pytest.raises(InputError, match=re.escape(
            f"entry point {x!r} at position 0 lies outside the int64 range")):
        LocalWitness.from_triples([(x, 1.0, 1.0)])


@pytest.mark.parametrize("ids, width, message", [
    ([True, 1], None, "True at position 0"),
    ([0, 1, 2, np.bool_(False)], None, "False at position 3"),
    ([[0, True]], 2, r"True at position \(0, 1\)"),
    ([(0, 1), (2, np.bool_(True))], 2, r"True at position \(1, 1\)"),
    ([[0, 1], np.array([True, False])], 2, r"True at position \(1, 0\)"),
    ([0, 1, 2, True], 2, r"True at position \(1, 1\)"),
], ids=["flat", "numpy-flat", "nested", "numpy-nested", "array-row",
        "flat-by-rows"])
def test_a_bool_in_a_list_is_refused_flat_or_by_rows(ids, width, message):
    # a bool is cast to 0 or 1 with the ints beside it; it is found by
    # type, and named at its position
    with pytest.raises(InputError, match=rf"x {message} is not an integer"):
        _pairs.sample_ids(ids, 5, "x", width=width)


def test_a_list_without_bools_reads_as_its_array():
    pairs = [(p % 5, (3 * p) % 5) for p in range(40)]
    got = _pairs.sample_ids(pairs, 5, "x", width=2)
    assert np.array_equal(got, _pairs.sample_ids(np.array(pairs), 5, "x",
                                                 width=2))
    assert _pairs.sample_ids([np.int64(2), 3.0, 4], 5, "x").tolist() == [2, 3, 4]


def test_an_entry_point_of_exactly_2_to_the_63_is_refused():
    # 2^63 is a float but no int64: the range is read on the floats as a
    # magnitude below 2^63
    with pytest.raises(InputError, match=re.escape(
            "entry point 9.223372036854776e+18 at position 0 lies outside "
            "the int64 range")):
        LocalWitness.from_triples([(2.0 ** 63, 1.0, 1.0)])
