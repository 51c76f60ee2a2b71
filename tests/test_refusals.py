"""Refusals that the other tests do not reach, one parametrized test per
module: each case hands the library, or the CLI, an input that module
refuses and checks the error's type and whole message.  Also the paths
near them that no other test runs: the reflected subtraction of a
field, `insert --subset --witness`, and the strictness certificate of
a window with neither side."""

import json
import math
import re

import numpy as np
import pytest

from lipkit import (Coordinate, CoverError, CozeroCover, DomainError,
                    Envelope, InputError, Interval, IntervalMapping,
                    MetricSpace, PartitionOfUnity, PointwiseWitness,
                    PreconditionError, Series, Subset, Tabulated,
                    Transported, extend_to_interval, mcshane_envelopes,
                    nonexpansive_split, pointwise_envelopes, select,
                    staircase_partial_sum, verdicts)
from lipkit.cli import main
from lipkit.io import field_from_tree, load_cover

GRID = MetricSpace.from_grid(0.0, 2.0, 1.0)         # samples 0, 1, 2
OTHER = MetricSpace.from_grid(0.0, 2.0, 1.0)        # the same, another space
MATRIX = MetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]])


def field(space=GRID, values=(0.0, 1.0, 2.0)):
    return Tabulated(space, values)


def raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: mcshane_envelopes(Subset(GRID, [0]), [1.0, 2.0], 1.0),
     "need 1 values on the subset, got shape (2,)"),
    (lambda: pointwise_envelopes(
        Subset(GRID, [0, 1]), [0.0, 1.0 + 2.0 ** -29],
        PointwiseWitness({0: 1.0, 1: 1.0}), tol=2.0 ** -30),
     "phi is not 1.0-Lipschitz on A: excess 1.863e-09 at pair (0, 1)"),
], ids=["values-not-aligned-with-A", "per-point-constants"])
def test_certify_refusals(call, message):
    raises(call, PreconditionError, message)


def test_the_compatibility_rule_passes_an_excess_of_exactly_tol():
    """|phi_0 - phi_1| - min(L_0, L_1) d = 2^-30 = tol passes."""
    A = Subset(GRID, [0, 1])
    pair = pointwise_envelopes(A, [0.0, 1.0 + 2.0 ** -30],
                               PointwiseWitness({0: 1.0, 1: 1.0}),
                               tol=2.0 ** -30)
    assert pair.lower.values().tolist() == [0.0, 1.0 + 2.0 ** -30, 2.0 ** -30]


@pytest.mark.parametrize("call, message", [
    (lambda: Envelope(GRID, [0], [0.0], [1.0], sign=0),
     "envelope sign must be -1 (lower) or +1 (upper)"),
    (lambda: extend_to_interval(
        Subset(MetricSpace.from_points([0.0, 0.0, 1.0], validate=False), [0]),
        [0.0], 1.0, Interval.closed(-1.0, 1.0)),
     "extension domain has an outside sample at distance zero"),
    (lambda: PointwiseWitness.from_values(Subset(GRID, [0]), [1.0, 2.0]),
     "need 1 constants, got shape (2,)"),
    (lambda: PointwiseWitness({2: 1.0}).aligned(Subset(GRID, [0])),
     "no constant for anchor point 0"),
    (lambda: PointwiseWitness({0: math.inf}).aligned(Subset(GRID, [0])),
     "constant at 0 must be finite"),
], ids=["envelope-sign", "domain-not-closed", "constants-not-aligned",
        "anchor-without-constant", "infinite-constant"])
def test_extension_refusals(call, message):
    raises(call, PreconditionError, message)


@pytest.mark.parametrize("call, message", [
    (lambda: MetricSpace.from_matrix(np.zeros((0, 0))),
     "a metric space needs at least one point"),
    (lambda: MetricSpace.from_points(np.zeros((2, 2, 2))),
     "point cloud must be an (n, k) array"),
], ids=["no-point", "cloud-of-three-axes"])
def test_metric_space_refusals(call, message):
    raises(call, InputError, message)


@pytest.mark.parametrize("call, error, message", [
    (lambda: staircase_partial_sum(0, 0.5), PreconditionError,
     "need at least one step, got K=0"),
    (lambda: CozeroCover(GRID, []), CoverError,
     "a cover needs at least one witness"),
    (lambda: CozeroCover(GRID, [field(OTHER)]), PreconditionError,
     "witness 0 lives on a different space"),
    (lambda: CozeroCover(GRID, [field(values=(-1.0, 1.0, 1.0))]),
     PreconditionError, "witness 0 takes the negative value -1.000e+00"),
    (lambda: PartitionOfUnity(GRID, np.zeros((1, 2)), [0],
                              np.ones((1, 3), dtype=bool)),
     PreconditionError, "matrix and activity need shape (1, 3)"),
    (lambda: nonexpansive_split(field(), -1.0), PreconditionError,
     "need a finite nonnegative constant, got -1.0"),
], ids=["no-step", "no-witness", "witness-on-another-space",
        "negative-witness", "matrix-shape", "negative-constant"])
def test_partition_of_unity_refusals(call, error, message):
    raises(call, error, message)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Interval.parse("a,b,open,open"), InputError,
     "bad interval endpoints in 'a,b,open,open'"),
    (lambda: field() + field(OTHER), DomainError,
     "fields live on different spaces"),
    (lambda: Coordinate(MATRIX), DomainError,
     "matrix backend has no coordinates"),
    (lambda: Coordinate(GRID, 1), DomainError,
     "axis 1 outside coordinate dimension 1"),
    (lambda: Transported("sqrt", field()), InputError,
     "unknown transport 'sqrt'; choose from ('arctan', 'tan', 'reciprocal')"),
    (lambda: Series(GRID, [field(OTHER)]), DomainError,
     "series terms live on different spaces"),
    (lambda: Series(GRID, [field()], activity=[[True]]), InputError,
     "activity needs a (1, 3) mask, got shape (1, 1)"),
], ids=["interval-endpoints", "operand-on-another-space", "no-coordinates",
        "axis-out-of-range", "unknown-transport", "term-on-another-space",
        "activity-shape"])
def test_scalar_field_refusals(call, error, message):
    raises(call, error, message)


def test_a_number_minus_a_field_is_the_reflected_difference():
    assert (1.0 - field()).values().tolist() == [1.0, 0.0, -1.0]


def cover_file(tmp_path, obj):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: load_cover(str(tmp / "missing.json"), GRID),
     "{tmp}/missing.json: No such file or directory"),
    (lambda tmp: field_from_tree({"op": "constant", "args": [True]}, GRID),
     "constant value must be a number, got True"),
    (lambda tmp: field_from_tree({"op": "coordinate", "args": [0.5]}, GRID),
     "coordinate axis must be an integer, got 0.5"),
    (lambda tmp: load_cover(cover_file(tmp, [1]), GRID),
     "{tmp}/cover.json: witness 0 must be an object"),
    (lambda tmp: load_cover(cover_file(tmp, [{"values": ["a", "b", "c"]}]),
                            GRID),
     "{tmp}/cover.json: witness 0 needs 3 values"),
    (lambda tmp: field_from_tree({"op": 3}, GRID), "op must be a name, got 3"),
    (lambda tmp: field_from_tree({"op": "add", "args": 5}, GRID),
     "op add needs a list of arguments"),
    (lambda tmp: field_from_tree(
        {"op": "tabulated", "args": [["a", "b", "c"]]}, GRID),
     "tabulated values must be numbers"),
    (lambda tmp: field_from_tree({"op": "distance", "args": [5]}, GRID),
     "op distance needs a list of ids"),
], ids=["missing-file", "boolean-number", "fractional-integer",
        "witness-not-an-object", "witness-values-not-numbers",
        "op-not-a-name", "arguments-not-a-list", "tabulated-not-numbers",
        "distance-ids-not-a-list"])
def test_io_refusals(tmp_path, call, message):
    raises(lambda: call(tmp_path), InputError, message.format(tmp=tmp_path))


def cli(tmp_path, command, window, *extra):
    """Run command on the 5-sample grid of [0, 2] with window as the
    --values file; returns the exit status."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lo": 0.0, "hi": 2.0, "step": 0.5}))
    values = tmp_path / "window.json"
    values.write_text(json.dumps(window))
    return main([command, "--space", str(space), "--values", str(values),
                 *extra, "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("window, n_max, message", [
    ({"phi": 0.0}, "0", "--n-max must be positive, got 0"),
    ({"lower": 0.0}, "2", "approx needs a phi entry in the window JSON"),
], ids=["n-max", "no-phi"])
def test_cli_refusals(tmp_path, capsys, window, n_max, message):
    assert cli(tmp_path, "approx", window, "--n-max", n_max) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_insert_through_a_subset_reads_the_given_witness(tmp_path, capsys):
    subset = tmp_path / "A.json"
    subset.write_text("[1, 3]")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps([{"p": p, "delta": 1.0, "K": 1.0}
                                   for p in (1, 3)]))
    assert cli(tmp_path, "insert", {"lower": 0, "upper": 1, "phi": 0.5},
               "--subset", str(subset), "--witness", str(witness)) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["passed"] is True
    assert payload["config"]["witness"] == str(witness)
    capsys.readouterr()


def test_a_window_with_neither_side_is_strict_with_an_infinite_margin():
    mapping = IntervalMapping(GRID)
    strict = verdicts.certify_select(mapping, select(mapping))[0]
    assert strict.passed
    assert (strict.worst_violation, strict.tolerance, strict.witness) == \
        (0.0, 0.0, None)
    assert strict.details["min_margin"] == "inf"
