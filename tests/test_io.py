import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (ref_read_csv_floats, ref_save_values_csv,
                     ref_save_wide_csv)
from lipkit import (Constant, InputError, MetricSpace, Subset, Tabulated,
                    check_k_lipschitz)
from lipkit.io import (_read_csv_floats, field_from_spec, field_from_tree, field_on_space,
                       load_cover, load_local_witness, load_mapping,
                       load_pointwise_witness, load_space, load_subset,
                       load_values_csv, save_values_csv, save_wide_csv,
                       values_on_subset, write_certificates)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def put_json(tmp_path, name, obj):
    return put(tmp_path, name, json.dumps(obj))


def test_load_space_grid(tmp_path):
    path = put_json(tmp_path, "space.json", {"lo": 0.0, "hi": 2.0, "step": 0.5})
    space = load_space(path)
    assert space.n == 5
    assert space.dist(0, 4) == 2.0


def test_load_space_graph_both_edge_forms(tmp_path):
    by_key = put_json(tmp_path, "a.json",
                      {"nodes": 3, "edges": [{"u": 0, "v": 1, "w": 2.0},
                                             {"u": 1, "v": 2, "w": 3.0}]})
    by_triple = put_json(tmp_path, "b.json",
                         {"nodes": 3, "edges": [[0, 1, 2.0], [1, 2, 3.0]]})
    for path in (by_key, by_triple):
        space = load_space(path)
        assert space.dist(0, 2) == 5.0


def test_load_space_matrix_csv(tmp_path):
    path = put(tmp_path, "d.csv", "0,1,2\n1,0,1\n2,1,0\n")
    space = load_space(path)
    assert space.n == 3
    assert space.dist(0, 2) == 2.0


def test_load_space_point_cloud_csv(tmp_path):
    path = put(tmp_path, "pts.csv", "0,0.0,0.0\n1,3.0,4.0\n")
    space = load_space(path)
    assert space.dist(0, 1) == 5.0


def test_load_space_errors(tmp_path):
    with pytest.raises(InputError):
        load_space(put_json(tmp_path, "odd.json", {"answer": 42}))
    with pytest.raises(InputError):
        load_space(put_json(tmp_path, "arr.json", [1, 2, 3]))
    with pytest.raises(InputError):
        load_space(put(tmp_path, "broken.json", "{not json"))
    with pytest.raises(InputError):
        load_space(put(tmp_path, "ragged.csv", "0,1\n0,1,2\n"))
    with pytest.raises(InputError):
        load_space(put(tmp_path, "empty.csv", "\n"))
    # square but nonzero diagonal, ids not 0..n-1: neither format
    with pytest.raises(InputError):
        load_space(put(tmp_path, "mystery.csv", "5,1\n1,5\n"))
    with pytest.raises(InputError):
        load_space(str(tmp_path / "missing.csv"))


def test_load_subset(tmp_path):
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = load_subset(put_json(tmp_path, "A.json", [3, 1, 1]), space)
    assert A.members.tolist() == [1, 3]
    with pytest.raises(InputError):
        load_subset(put_json(tmp_path, "bad.json", {"ids": [1]}), space)


def test_load_values_csv(tmp_path):
    path = put(tmp_path, "v.csv", "id,value\n0,0.5\n2,1.5\n")
    ids, vals = load_values_csv(path, 3)
    assert ids.tolist() == [0, 2]
    assert vals.tolist() == [0.5, 1.5]
    with pytest.raises(InputError):
        load_values_csv(put(tmp_path, "wide.csv", "0,1,2\n"), 3)
    with pytest.raises(InputError):
        load_values_csv(put(tmp_path, "frac.csv", "0.5,1\n"), 3)


@pytest.mark.parametrize("text, line", [
    ("0,0.5\n1,nan\n2,inf\n", 2),
    ("id,value\n0,0.5\n\n1,-inf\n", 4),
    ("0,0.5\ninf,1.0\n", 2),
], ids=["nan-value", "after-header-and-blank", "infinite-id"])
def test_value_csv_refuses_non_finite_entries(tmp_path, text, line):
    with pytest.raises(InputError, match=f"line {line}: ids and values must "
                                         f"be finite"):
        load_values_csv(put(tmp_path, "v.csv", text), 3)


def test_values_on_subset(tmp_path):
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 2])
    path = put(tmp_path, "v.csv", "2,1.5\n0,0.5\n")
    np.testing.assert_array_equal(values_on_subset(path, A), [0.5, 1.5])
    with pytest.raises(InputError):
        values_on_subset(put(tmp_path, "short.csv", "0,0.5\n"), A)


def test_field_on_space(tmp_path):
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    f = field_on_space(put(tmp_path, "f.csv", "0,1.0\n1,2.0\n2,3.0\n"), space)
    np.testing.assert_array_equal(f.values(), [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        field_on_space(put(tmp_path, "gap.csv", "0,1.0\n2,3.0\n"), space)


def test_value_csv_round_trip_is_exact(tmp_path):
    vals = np.array([0.1, 1.0 / 3.0, -2.5e-17])
    path = str(tmp_path / "out.csv")
    save_values_csv(path, vals)
    ids, back = load_values_csv(path, 3)
    assert ids.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(back, vals)
    save_values_csv(path, vals[:2], ids=[4, 7])
    ids, back = load_values_csv(path, 8)
    assert ids.tolist() == [4, 7]


def test_save_wide_csv(tmp_path):
    path = str(tmp_path / "wide.csv")
    save_wide_csv(path, ["a", "b"], [np.array([1.0, 2.0]),
                                     np.array([0.5, 0.25])])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "id,a,b"
    assert lines[1] == "0,1.0,0.5"
    assert len(lines) == 3


def test_load_local_witness(tmp_path):
    path = put_json(tmp_path, "w.json",
                    [{"p": 0, "delta": 0.5, "K": 2.0},
                     {"p": 3, "delta": 1.0, "K": 4.0}])
    w = load_local_witness(path)
    assert len(w) == 2
    assert w.points[1] == 3
    assert w.constants[1] == 4.0
    with pytest.raises(InputError):
        load_local_witness(put_json(tmp_path, "miss.json", [{"p": 0}]))
    with pytest.raises(InputError):
        load_local_witness(put_json(tmp_path, "obj.json", {"p": 0}))


def test_load_pointwise_witness(tmp_path):
    path = put_json(tmp_path, "pw.json", [{"p": 0, "K": 2.0},
                                          {"p": 1, "K": 0.5}])
    w = load_pointwise_witness(path)
    assert w.constants == {0: 2.0, 1: 0.5}
    with pytest.raises(InputError):
        load_pointwise_witness(put_json(tmp_path, "bad.json", [{"K": 1.0}]))


def test_load_pointwise_witness_refuses_a_repeated_point(tmp_path):
    # the later K used to win: this file loaded as {0: 50.0, 3: 1.0}
    path = put_json(tmp_path, "pw.json", [{"p": 0, "K": 1.0},
                                          {"p": 3, "K": 1.0},
                                          {"p": 0, "K": 50.0}])
    with pytest.raises(InputError) as e:
        load_pointwise_witness(path)
    assert str(e.value) == f"{path}: entry 2 repeats point 0"
    # the balls of a local witness may share a center
    local = load_local_witness(put_json(
        tmp_path, "local.json", [{"p": 0, "delta": 1.0, "K": 1.0},
                                 {"p": 0, "delta": 2.0, "K": 3.0}]))
    assert local.points.tolist() == [0, 0]


def test_load_cover(tmp_path):
    space = MetricSpace.from_grid(0.0, 2.0, 1.0)
    path = put_json(tmp_path, "c.json",
                    [{"balls": [[0, 1.5], [2, 1.5]]},
                     {"values": [0.0, 1.0, 0.0]}])
    cover = load_cover(path, space)
    assert len(cover.witnesses) == 2
    np.testing.assert_array_equal(cover.witnesses[0].values(), [1.5, 0.5, 1.5])
    np.testing.assert_array_equal(cover.witnesses[1].values(), [0.0, 1.0, 0.0])
    with pytest.raises(InputError):
        load_cover(put_json(tmp_path, "short.json", [{"values": [1.0]}]), space)
    with pytest.raises(InputError):
        load_cover(put_json(tmp_path, "none.json", [{"radius": 1.0}]), space)
    with pytest.raises(InputError):
        load_cover(put_json(tmp_path, "scalar.json", {"balls": []}), space)


def test_field_from_tree_leaves():
    space = MetricSpace.from_points(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert field_from_tree(3, space).values().tolist() == [3.0, 3.0]
    assert field_from_tree({"op": "constant", "args": [2.5]},
                           space).values().tolist() == [2.5, 2.5]
    tab = field_from_tree({"op": "tabulated", "args": [[1.0, 2.0]]}, space)
    assert tab.values().tolist() == [1.0, 2.0]
    axis1 = field_from_tree({"op": "coordinate", "args": [1]}, space)
    assert axis1.values().tolist() == [0.0, 2.0]
    default_axis = field_from_tree({"op": "coordinate"}, space)
    assert default_axis.values().tolist() == [0.0, 1.0]
    dist = field_from_tree({"op": "distance", "args": [[0]]}, space)
    assert dist.values()[1] == pytest.approx(np.sqrt(5.0))


def test_field_from_tree_operators():
    space = MetricSpace.from_grid(1.0, 2.0, 0.5)
    coord = {"op": "coordinate"}
    f = field_from_tree({"op": "add", "args": [coord, 1]}, space)
    assert f.values().tolist() == [2.0, 2.5, 3.0]
    f = field_from_tree({"op": "mul", "args": [coord, coord]}, space)
    assert f.values().tolist() == [1.0, 2.25, 4.0]
    f = field_from_tree({"op": "min", "args": [coord, {"op": "constant",
                                                       "args": [1.5]}]}, space)
    assert f.values().tolist() == [1.0, 1.5, 1.5]
    f = field_from_tree({"op": "max", "args": [coord, 1.5]}, space)
    assert f.values().tolist() == [1.5, 1.5, 2.0]
    f = field_from_tree({"op": "sub", "args": [coord, coord]}, space)
    assert f.values().tolist() == [0.0, 0.0, 0.0]
    f = field_from_tree({"op": "neg", "args": [coord]}, space)
    assert f.values().tolist() == [-1.0, -1.5, -2.0]
    f = field_from_tree({"op": "reciprocal", "args": [coord]}, space)
    assert f.values().tolist() == [1.0, 1.0 / 1.5, 0.5]
    g = field_from_tree({"op": "tan", "args": [{"op": "arctan",
                                                "args": [coord]}]}, space)
    np.testing.assert_allclose(g.values(), [1.0, 1.5, 2.0], atol=1e-14)


def test_field_from_tree_errors():
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        field_from_tree({"op": "spline", "args": []}, space)
    with pytest.raises(InputError):
        field_from_tree({"op": "add", "args": [1]}, space)
    with pytest.raises(InputError):
        field_from_tree({"op": "neg", "args": [1, 2]}, space)
    with pytest.raises(InputError):
        field_from_tree({"args": [1]}, space)
    with pytest.raises(InputError):
        field_from_tree({"op": "tabulated", "args": [[1.0]]}, space)


def test_field_from_spec(tmp_path):
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    assert field_from_spec(2, space).values().tolist() == [2.0, 2.0, 2.0]
    path = put(tmp_path, "f.csv", "0,1.0\n1,2.0\n2,3.0\n")
    assert field_from_spec(path, space).values().tolist() == [1.0, 2.0, 3.0]
    tree = {"op": "constant", "args": [0.5]}
    assert field_from_spec(tree, space).values().tolist() == [0.5, 0.5, 0.5]
    with pytest.raises(InputError):
        field_from_spec(None, space)


def test_load_mapping(tmp_path):
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    path = put_json(tmp_path, "m.json",
                    {"lower": 0, "upper": {"op": "constant", "args": [1]},
                     "phi": 0.5})
    lower, upper, phi = load_mapping(path, space)
    assert lower.values().tolist() == [0.0, 0.0, 0.0]
    assert upper.values().tolist() == [1.0, 1.0, 1.0]
    assert phi.values().tolist() == [0.5, 0.5, 0.5]
    lower, upper, phi = load_mapping(put_json(tmp_path, "half.json",
                                              {"upper": 1}), space)
    assert lower is None and phi is None
    assert upper.values().tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(InputError):
        load_mapping(put_json(tmp_path, "arr.json", [1]), space)


def test_write_certificates_round_trip(tmp_path):
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    good = check_k_lipschitz(Constant(space, 1.0), 0.0)
    bad = check_k_lipschitz(Tabulated(space, np.array([0.0, 1.0, 0.0])), 0.5)
    path = str(tmp_path / "certificate.json")
    assert write_certificates(path, [good], {"tol": 1e-9}) is True
    payload = json.loads(Path(path).read_text())
    assert payload["passed"] is True
    assert payload["config"] == {"tol": 1e-9}
    assert payload["certificates"][0]["kind"] == "k-lipschitz"
    assert write_certificates(path, [good, bad], {}) is False
    assert json.loads(Path(path).read_text())["passed"] is False


def test_write_certificates_deterministic(tmp_path):
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    cert = check_k_lipschitz(Constant(space, 1.0), 0.0)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    config = {"command": "extend", "tol": 1e-9}
    write_certificates(a, [cert], config)
    write_certificates(b, [cert], config)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_write_certificates_handles_nonfinite(tmp_path):
    path = str(tmp_path / "c.json")
    entry = {"kind": "demo", "passed": True,
             "details": {"hi": float("inf"), "lo": float("-inf"),
                         "gap": float("nan"), "ids": np.array([1, 2])}}
    write_certificates(path, [entry], {})
    payload = json.loads(Path(path).read_text())
    d = payload["certificates"][0]["details"]
    assert d["hi"] == "inf" and d["lo"] == "-inf" and d["gap"] == "nan"
    assert d["ids"] == [1, 2]


@pytest.mark.parametrize("edge, message", [
    ([0, 1], "edge 0 must be"),
    ({"u": 0, "v": "x", "w": 1.0}, "edge nodes must be rows of 2 sample ids"),
    ({"u": 0, "v": 1}, "edge 0 must be"),
    (7, "edge 0 must be"),
    ([0, 1.5, 1.0], r"edge node 1\.5 at position \(0, 1\) is not an integer"),
    ([0, 1, 10 ** 400], "edge 0 must be"),
], ids=["edge0", "edge1", "edge2", "7", "edge4", "edge5"])
def test_load_space_rejects_a_malformed_edge(tmp_path, edge, message):
    # the edge ends pass the id rule of _pairs.sample_ids, named by the file
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [edge]}))
    with pytest.raises(InputError, match=f"g.json: {message}"):
        load_space(str(path))


def outcome(read, path):
    """(bytes, shape, lines) of what read returns for path, or its
    InputError message."""
    try:
        data, lines = read(path)
    except InputError as e:
        return str(e)
    return data.tobytes(), data.shape, lines


@pytest.mark.parametrize("text", [
    "id,value\n0,1.5\n1,2.5\n",
    "\n0,1\n\n\n1,2\n\n",
    "id,v\r\n0,1\r\n1,2\r\n",
    "0,1\r1,2\r",
    "0, 1.5  \n1 ,2.5\t\n   \n",
    "0,1_000\n1,nan\n2,inf\n3,-0.0\n4,-inf\n5,1e-400\n",
    "0,1,2\n1,0,1\n2,1,0",
    "0,1\n1,2,3\n2,x\n",
    "0,1\n1,2,3\n2,4\n",
    "0\n1,2\n",
    "0,1\nid,value\n",
    "\nid,value\n0,1\n",
    "0,\n1,2\n",
    "",
    "id,value\n",
    "\n\n",
    None,
], ids=["header", "blank-lines", "crlf", "cr", "spaces", "cells",
        "matrix", "ragged-then-text", "ragged", "narrow-first", "text-row",
        "header-on-line-2", "empty-cell-header", "empty", "header-only",
        "blank-only", "missing"])
def test_csv_reader_matches_the_row_loop(tmp_path, text):
    # same arrays (bit for bit, -0.0 and NaN included), lines and errors
    path = tmp_path / "t.csv"
    if text is not None:
        path.write_bytes(text.encode())
    got = outcome(_read_csv_floats, str(path))
    assert got == outcome(ref_read_csv_floats, str(path))
    if isinstance(got, tuple):
        assert _read_csv_floats(str(path))[0].dtype == np.float64


def test_csv_writers_match_the_cell_formatter(tmp_path):
    cells = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1,
                      1.0 / 3.0])

    def same_bytes(write, ref, *args):
        write(str(tmp_path / "got.csv"), *args)
        ref(str(tmp_path / "ref.csv"), *args)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        return got

    text = same_bytes(save_values_csv, ref_save_values_csv, cells)
    assert text.startswith(b"0,-0.0\n1,nan\n2,inf\n3,-inf\n4,5e-324\n")
    same_bytes(save_values_csv, ref_save_values_csv, cells[:3],
               np.array([4, 7, 9]))
    same_bytes(save_values_csv, ref_save_values_csv, list(cells), [3.0] * 8)
    same_bytes(save_wide_csv, ref_save_wide_csv, ["a", "b"],
               [cells, cells[::-1]])
    same_bytes(save_wide_csv, ref_save_wide_csv, ["m0", "m1", "m2"],
               np.stack([cells, -cells, cells * 3.0]))


@pytest.mark.parametrize("load, text", [
    (load_local_witness, '[{"p": 0, "delta": 1.5, "K": 1.0}, '
                         '{"p": "2", "delta": 1.5, "K": 1.0}]'),
    (load_local_witness, '[{"p": 0, "delta": 1.5, "K": 1.0}, '
                         '{"p": 2.5, "delta": 1.5, "K": 1.0}]'),
    (load_pointwise_witness, '[{"p": 1, "K": 2.0}, {"p": "0", "K": 1.0}]'),
    (load_pointwise_witness, '[{"p": 1, "K": 2.0}, {"p": true, "K": 1.0}]'),
], ids=["local-string", "local-fraction", "pointwise-string", "pointwise-bool"])
def test_witness_loaders_read_ids_under_the_sample_id_rule(tmp_path, load,
                                                          text):
    # "2" loaded as sample 2, and "0" gave sample 0 its constant
    path = put(tmp_path, "w.json", text)
    with pytest.raises(InputError) as e:
        load(path)
    assert str(e.value).startswith(f"{path}: entry point")
