import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import lipkit
from lipkit import MetricSpace, Tabulated
from lipkit.cli import _build_parser, main


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def grid_space(tmp_path):
    return write(tmp_path / "space.json",
                 json.dumps({"lo": 0.0, "hi": 2.0, "step": 0.5}))


@pytest.fixture
def extend_argv(tmp_path, grid_space):
    subset = write(tmp_path / "A.json", "[0, 4]")
    values = write(tmp_path / "phi.csv", "0,0.0\n4,1.0\n")
    return ["extend", "--space", grid_space, "--subset", subset,
            "--values", values, "--k", "1.0"]


def read_json(tmp_path, name="certificate.json"):
    return json.loads((tmp_path / name).read_text())


def test_every_public_name_resolves():
    """from lipkit import * fails on a name of __all__ that the package
    no longer defines."""
    namespace = {}
    exec("from lipkit import *", namespace)
    assert sorted(set(lipkit.__all__)) == sorted(lipkit.__all__)
    assert set(lipkit.__all__) <= namespace.keys()


def test_extend_writes_outputs(tmp_path, extend_argv):
    out = tmp_path / "out"
    assert main(extend_argv + ["--out-dir", str(out)]) == 0
    for name in ("envelope_lower.csv", "envelope_upper.csv",
                 "extension.csv", "certificate.json"):
        assert (out / name).exists()
    payload = read_json(out)
    assert payload["passed"] is True
    kinds = [c["kind"] for c in payload["certificates"]]
    assert "duality" in kinds and "restriction" in kinds


def test_same_config_reruns_are_byte_identical(tmp_path, extend_argv):
    a, b = tmp_path / "a", tmp_path / "b"
    names = ("certificate.json", "extension.csv",
             "envelope_lower.csv", "envelope_upper.csv")
    assert main(extend_argv + ["--out-dir", str(a)]) == 0
    first = {name: (a / name).read_bytes() for name in names}
    assert main(extend_argv + ["--out-dir", str(a)]) == 0
    for name in names:
        assert (a / name).read_bytes() == first[name]
    # a different out-dir changes only the recorded config, not the results
    assert main(extend_argv + ["--out-dir", str(b)]) == 0
    for name in names[1:]:
        assert (b / name).read_bytes() == first[name]
    left, right = read_json(a), read_json(b)
    left["config"].pop("out_dir")
    right["config"].pop("out_dir")
    assert left == right


def test_bounded_extend_reports_margins(tmp_path, extend_argv):
    out = tmp_path / "out"
    code = main(extend_argv + ["--interval", "0,1,closed,closed",
                               "--out-dir", str(out)])
    assert code == 0
    kinds = [c["kind"] for c in read_json(out)["certificates"]]
    assert "containment" in kinds and "interior-margin" in kinds


def test_tol_range_enforced(tmp_path, extend_argv, capsys):
    assert main(extend_argv + ["--tol", "1e-13"]) == 1
    assert main(extend_argv + ["--tol", "1e-2"]) == 1
    assert "--tol" in capsys.readouterr().err


def test_missing_flag_is_input_error(tmp_path, grid_space, capsys):
    assert main(["extend", "--space", grid_space]) == 1
    assert "--subset" in capsys.readouterr().err


def test_unknown_command_is_input_error(capsys):
    assert main(["mend"]) == 1
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, extend_argv, capsys):
    # the parser is built once per process; no option leaks between calls
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(extend_argv + ["--seed", "5", "--n-max", "7",
                               "--out-dir", str(a)]) == 0
    assert main(extend_argv + ["--out-dir", str(b)]) == 0
    assert (read_json(a)["config"]["seed"], read_json(a)["config"]["n_max"]) \
        == (5, 7)
    assert (read_json(b)["config"]["seed"], read_json(b)["config"]["n_max"]) \
        == (0, 5)
    assert main(extend_argv + ["--seed", "x"]) == 1
    assert main(["extend", "--bogus"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert _build_parser() is _build_parser()


def test_bad_values_file_is_input_error(tmp_path, grid_space, capsys):
    subset = write(tmp_path / "A.json", "[0, 4]")
    values = write(tmp_path / "phi.csv", "0,0.0\n")
    assert main(["extend", "--space", grid_space, "--subset", subset,
                 "--values", values, "--k", "1.0",
                 "--out-dir", str(tmp_path)]) == 1
    assert "no value for subset id 4" in capsys.readouterr().err


def test_certify_metric_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path / "good.csv", "0,1,2\n1,0,1\n2,1,0\n")
    assert main(["certify-metric", "--space", good,
                 "--out-dir", str(tmp_path / "g")]) == 0
    assert read_json(tmp_path / "g")["passed"] is True

    bad = write(tmp_path / "bad.csv", "0,1,9\n1,0,1\n9,1,0\n")
    assert main(["certify-metric", "--space", bad,
                 "--out-dir", str(tmp_path / "b")]) == 2
    payload = read_json(tmp_path / "b")
    assert payload["passed"] is False
    cert = payload["certificates"][0]
    assert cert["details"]["violations"][0]["kind"] == "triangle"
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--k", "-1"], ["--k", "nan"],
                                   ["--k", "inf"],
                                   ["--interval", "nan,1,open,open"]])
def test_out_of_range_parameters_exit_1(tmp_path, extend_argv, capsys, extra):
    # each of these used to exit 2 with a precondition certificate
    out = tmp_path / "out"
    assert main(extend_argv + extra + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "certificate.json").exists()


def test_extend_certifies_the_extension_it_writes(tmp_path, extend_argv,
                                                   monkeypatch, capsys):
    real = lipkit.cli.extend_to_interval

    def wiggled(A, vals, K, interval, tol):
        out = real(A, vals, K, interval, tol)
        v = out.values().copy()
        v[2] += 0.6         # off A, so the restriction still holds
        bad = Tabulated(out.space, v)
        bad.envelopes = out.envelopes
        return bad

    monkeypatch.setattr(lipkit.cli, "extend_to_interval", wiggled)
    out = tmp_path / "out"
    assert main(extend_argv + ["--out-dir", str(out)]) == 2
    failed = [c for c in read_json(out)["certificates"] if not c["passed"]]
    assert [(c["kind"], c["details"]["field"]) for c in failed] == \
        [("k-lipschitz", "extension")]
    capsys.readouterr()


def test_precondition_failure_still_writes_certificate(tmp_path, grid_space,
                                                       capsys):
    subset = write(tmp_path / "A.json", "[0, 4]")
    steep = write(tmp_path / "phi.csv", "0,0.0\n4,4.0\n")
    code = main(["extend", "--space", grid_space, "--subset", subset,
                 "--values", steep, "--k", "0.5",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_json(tmp_path)
    assert payload["passed"] is False
    assert payload["certificates"][0]["kind"] == "precondition"
    capsys.readouterr()


def test_extend_pointwise_runs(tmp_path, grid_space, capsys):
    subset = write(tmp_path / "A.json", "[0, 4]")
    values = write(tmp_path / "phi.csv", "0,0.0\n4,1.0\n")
    witness = write(tmp_path / "w.json",
                    json.dumps([{"p": 0, "K": 1.0}, {"p": 4, "K": 1.0}]))
    assert main(["extend-pointwise", "--space", grid_space,
                 "--subset", subset, "--values", values,
                 "--witness", witness, "--interval", "0,1,closed,closed",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "extension.csv").exists()
    capsys.readouterr()


def test_pou_runs(tmp_path, grid_space, capsys):
    cover = write(tmp_path / "c.json",
                  json.dumps([{"balls": [[0, 1.5]]}, {"balls": [[4, 1.5]]}]))
    assert main(["pou", "--space", grid_space, "--cover", cover,
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "members.csv").exists()
    payload = read_json(tmp_path)
    families = [c["details"]["family"] for c in payload["certificates"]]
    assert families == ["staircase", "regrouped"]
    capsys.readouterr()


def test_pou_rejects_an_empty_ball_group(tmp_path, grid_space, capsys):
    cover = write(tmp_path / "c.json", json.dumps([{"balls": []}]))
    assert main(["pou", "--space", grid_space, "--cover", cover,
                 "--out-dir", str(tmp_path)]) == 1
    assert "ball group 0 is empty" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["cloud", "grid", "graph", "matrix"])
def test_certify_metric_validates_once_with_the_given_tol(
        tmp_path, monkeypatch, capsys, backend):
    files = {
        "cloud": ("s.csv", "0,0.0\n1,1.0\n2,3.0\n"),
        "grid": ("s.json", json.dumps({"lo": 0.0, "hi": 2.0, "step": 0.5})),
        "graph": ("s.json", json.dumps({"nodes": 3,
                                        "edges": [[0, 1, 1.0], [1, 2, 2.0]]})),
        "matrix": ("s.csv", "0,1,2\n1,0,1\n2,1,0\n"),
    }
    name, text = files[backend]
    space = write(tmp_path / name, text)
    calls = []
    validate = MetricSpace.validate

    def counted(self, tol=1e-9):
        calls.append(tol)
        return validate(self, tol)
    monkeypatch.setattr(MetricSpace, "validate", counted)
    assert main(["certify-metric", "--space", space, "--tol", "1e-6",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [1e-6]
    # only explicit distances can break the triangle law
    cert = read_json(tmp_path / "out")["certificates"][0]
    assert cert["details"]["triangle"] == (
        "checked" if backend == "matrix" else "by construction")
    capsys.readouterr()


def test_certify_metric_passes_a_grid_far_from_the_origin(tmp_path, capsys):
    space = write(tmp_path / "s.json",
                  json.dumps({"lo": 1000.0, "hi": 1001.0, "step": 0.01}))
    assert main(["certify-metric", "--space", space,
                 "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path)["certificates"][0]["details"]["n"] == 101
    capsys.readouterr()


@pytest.mark.parametrize("text", ["0,0.0\n1,nan\n2,3.0\n",
                                  "0,1,nan\n1,0,1\nnan,1,0\n"])
def test_certify_metric_fails_on_nan(tmp_path, capsys, text):
    space = write(tmp_path / "s.csv", text)
    assert main(["certify-metric", "--space", space,
                 "--out-dir", str(tmp_path)]) == 2
    cert = read_json(tmp_path)["certificates"][0]
    assert cert["worst_violation"] == "inf"
    assert cert["details"]["violations"][0]["kind"] == "nonfinite"
    capsys.readouterr()


@pytest.mark.parametrize("obj, message", [
    ({"nodes": "x", "edges": []}, '"nodes" must be a number'),
    ({"lo": 0, "hi": "a", "step": 0.5}, '"hi" must be a number'),
    ({"lo": 0, "hi": "inf", "step": 0.5}, "grid needs finite"),
    ({"nodes": -3, "edges": []}, "at least one node"),
    ({"nodes": 3, "edges": 5}, '"edges" must be a list'),
], ids=["nodes", "hi", "infinite-hi", "negative-nodes", "edges"])
def test_space_with_a_malformed_number_is_input_error(tmp_path, capsys, obj,
                                                      message):
    space = write(tmp_path / "s.json", json.dumps(obj))
    assert main(["certify-metric", "--space", space,
                 "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [
    ("subset", '["a"]'),
    ("subset", "[0, 1.5]"),
    ("witness", '[{"p": "x", "delta": 1.5, "K": 1.0}]'),
    ("pointwise", '[{"p": 0, "K": "x"}]'),
    ("window", '{"lower": {"op": "constant"}, "upper": 1}'),
    ("window", '{"lower": {"op": "constant", "args": ["zz"]}, "upper": 1}'),
], ids=["subset-text", "subset-fraction", "witness-point", "pointwise-rate",
        "window-arity", "window-constant"])
def test_malformed_json_entry_is_input_error(tmp_path, grid_space, capsys,
                                             kind, text):
    bad = write(tmp_path / "bad.json", text)
    subset = write(tmp_path / "A.json", "[0, 4]")
    phi = write(tmp_path / "phi.csv", "0,0.0\n4,1.0\n")
    f = write(tmp_path / "f.csv", "".join(f"{p},{0.5 * p}\n" for p in range(5)))
    argv = {
        "subset": ["extend", "--subset", bad, "--values", phi, "--k", "1.0"],
        "witness": ["modulus", "--values", f, "--witness", bad],
        "pointwise": ["extend-pointwise", "--subset", subset, "--values", phi,
                      "--witness", bad, "--interval", "0,1,closed,closed"],
        "window": ["select", "--values", bad],
    }[kind]
    assert main(argv[:1] + ["--space", grid_space] + argv[1:]
                + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_grid_too_large_for_memory_is_an_error(tmp_path, capsys):
    # 1e15 samples: numpy refuses the coordinate array at once
    space = write(tmp_path / "s.json",
                  json.dumps({"lo": 0, "hi": 1, "step": 1e-15}))
    assert main(["certify-metric", "--space", space,
                 "--out-dir", str(tmp_path)]) == 1
    assert "error: out of memory" in capsys.readouterr().err


def test_pou_rejects_a_malformed_ball(tmp_path, grid_space, capsys):
    cover = write(tmp_path / "c.json", json.dumps([{"balls": [[0]]}]))
    assert main(["pou", "--space", grid_space, "--cover", cover,
                 "--out-dir", str(tmp_path)]) == 1
    assert "[center, radius]" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["subset", "ball-center", "witness-p",
                                  "edge-end"])
def test_a_json_boolean_is_no_sample_id(tmp_path, grid_space, capsys, case):
    # int(True) == 1: before, [true, 3] loaded as the members [1, 3]
    bad = write(tmp_path / "bad.json", json.dumps({
        "subset": [True, 3],
        "ball-center": [{"balls": [[True, 1.5], [4, 1.5]]}],
        "witness-p": [{"p": True, "delta": 1.5, "K": 1.0}],
        "edge-end": {"nodes": 3, "edges": [[0, True, 1.0], [1, 2, 1.0]]},
    }[case]))
    values = write(tmp_path / "f.csv",
                   "\n".join(f"{p},{0.5 * p}" for p in range(5)) + "\n")
    argv = {
        "subset": ["extend", "--space", grid_space, "--subset", bad,
                   "--values", values, "--k", "1.0"],
        "ball-center": ["pou", "--space", grid_space, "--cover", bad],
        "witness-p": ["modulus", "--space", grid_space, "--values", values,
                      "--witness", bad],
        "edge-end": ["certify-metric", "--space", bad],
    }[case]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("case", ["subset", "ball-center", "distance",
                                  "edge-end"])
def test_a_json_string_is_no_sample_id(tmp_path, grid_space, capsys, case):
    # int("3") == 3: before, ["3", 1] loaded as the members [1, 3]
    bad = write(tmp_path / "bad.json", json.dumps({
        "subset": ["3", 1],
        "ball-center": [{"balls": [["0", 1.5], [4, 1.5]]}],
        "distance": {"lower": {"op": "distance", "args": [["2"]]},
                     "upper": 9.0},
        "edge-end": {"nodes": 3, "edges": [[0, "1", 1.0], [1, 2, 1.0]]},
    }[case]))
    values = write(tmp_path / "f.csv",
                   "\n".join(f"{p},{0.5 * p}" for p in range(5)) + "\n")
    argv = {
        "subset": ["extend", "--space", grid_space, "--subset", bad,
                   "--values", values, "--k", "1.0"],
        "ball-center": ["pou", "--space", grid_space, "--cover", bad],
        "distance": ["select", "--space", grid_space, "--values", bad],
        "edge-end": ["certify-metric", "--space", bad],
    }[case]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("window", [
    {"lower": {"op": "reciprocal", "args": [{"op": "coordinate"}]},
     "upper": 9.0},
    # phi is unused by select, yet its tree is evaluated when it is loaded
    {"lower": 0.0, "upper": 1.0, "phi": {"op": "tan", "args": [2.0]}},
], ids=["lower", "unused-phi"])
def test_a_transport_error_in_a_window_file_exits_1(tmp_path, grid_space,
                                                    capsys, window):
    bad = write(tmp_path / "w.json", json.dumps(window))
    assert main(["select", "--space", grid_space, "--values", bad,
                 "--out-dir", str(tmp_path / "out")]) == 1
    name = window.get("phi", window["lower"])["op"]
    assert f"{name} transport" in capsys.readouterr().err


@pytest.fixture
def witnessed_field(tmp_path, grid_space):
    values = write(tmp_path / "f.csv",
                   "\n".join(f"{p},{0.5 * p}" for p in range(5)) + "\n")
    witness = write(tmp_path / "w.json",
                    json.dumps([{"p": p, "delta": 1.5, "K": 1.0}
                                for p in range(5)]))
    return values, witness


def test_decompose_runs(tmp_path, grid_space, witnessed_field, capsys):
    values, witness = witnessed_field
    assert main(["decompose", "--space", grid_space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "members.csv").exists()
    assert (tmp_path / "reconstruction.csv").exists()
    capsys.readouterr()


def test_decompose_certifies_its_witness_once(tmp_path, grid_space,
                                              witnessed_field, capsys,
                                              monkeypatch):
    # the CLI reports the certificate decompose already computed
    calls = []
    real = lipkit.local_lipschitz.certify_local_witness

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for module in (lipkit.verdicts, lipkit.local_lipschitz):
        monkeypatch.setattr(module, "certify_local_witness", spy)
    values, witness = witnessed_field
    assert main(["decompose", "--space", grid_space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    kinds = [c["kind"] for c in read_json(tmp_path)["certificates"]]
    assert kinds[0] == "local-witness"
    capsys.readouterr()


def test_decompose_with_hundreds_of_balls(tmp_path, capsys):
    # 520 witness balls land in one cover set; a chain of binary max
    # nodes over them used to exceed the recursion limit
    n, step = 520, 2.0 ** -9
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0.0, "hi": (n - 1) * step, "step": step}))
    x = step * np.arange(n)
    values = write(tmp_path / "f.csv", "".join(
        f"{p},{float(np.sin(3.0 * x[p]))!r}\n" for p in range(n)))
    witness = write(tmp_path / "w.json", json.dumps(
        [{"p": p, "delta": 1.5 * step, "K": 3.0} for p in range(n)]))
    assert main(["decompose", "--space", space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path)["passed"] is True
    capsys.readouterr()


def test_modulus_runs(tmp_path, grid_space, witnessed_field, capsys):
    values, witness = witnessed_field
    assert main(["modulus", "--space", grid_space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "levels_bounded.csv").exists()
    assert (tmp_path / "levels_unbounded.csv").exists()
    assert read_json(tmp_path)["passed"] is True
    capsys.readouterr()


def test_modulus_out_of_memory_is_an_error(tmp_path, grid_space,
                                           witnessed_field, capsys,
                                           monkeypatch):
    def exhausted(self):
        raise MemoryError("no room for the distances")
    monkeypatch.setattr(MetricSpace, "min_positive_distance", exhausted)
    values, witness = witnessed_field
    assert main(["modulus", "--space", grid_space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 1
    assert "error: out of memory" in capsys.readouterr().err


def test_modulus_refuses_a_nan_value(tmp_path, grid_space, witnessed_field,
                                     capsys):
    _, witness = witnessed_field
    values = write(tmp_path / "f.csv", "0,0.0\n1,nan\n2,1.0\n3,1.5\n4,2.0\n")
    assert main(["modulus", "--space", grid_space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path)]) == 1
    assert "f.csv, line 2: ids and values must be finite" in \
        capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_modulus_refuses_a_level_past_the_int64_range(tmp_path, capsys):
    """Levels 1e200 / 1e-300 used to wrap to INT_MIN and come out as 1,
    with an unsound cover and two numpy warnings; the command now
    writes the precondition FAIL naming the entry and exits 2."""
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0.0, "hi": 1.0, "step": 0.25}))
    values = write(tmp_path / "f.csv",
                   "0,0.0\n1,1e200\n2,0.0\n3,1e200\n4,0.0\n")
    witness = write(tmp_path / "w.json", json.dumps(
        [{"p": p, "delta": 1e-300, "K": 0.0} for p in range(5)]))
    out = tmp_path / "out"
    assert main(["modulus", "--space", space, "--values", values,
                 "--witness", witness, "--out-dir", str(out)]) == 2
    (cert,) = read_json(out)["certificates"]
    assert cert["kind"] == "precondition" and cert["passed"] is False
    assert cert["witness"] == [0, 0]
    assert "entry 0 at point 0 has level inf" in cert["details"]["message"]
    assert "FAIL" in capsys.readouterr().out
    assert not (out / "levels_bounded.csv").exists()


@pytest.mark.parametrize("command", ["modulus", "decompose"])
@pytest.mark.parametrize("bad", [7, -1])
def test_witness_entry_id_outside_the_space_is_input_error(tmp_path, capsys,
                                                          command, bad):
    # -1 used to be read as the last sample, 7 died with an IndexError
    space = write(tmp_path / "cloud.csv", "0,0.0\n1,1.0\n2,2.5\n")
    values = write(tmp_path / "f.csv", "0,0.0\n1,0.5\n2,1.25\n")
    witness = write(tmp_path / "w.json", json.dumps(
        [{"p": p, "delta": 2.0, "K": 1.0} for p in (0, 1, bad)]))
    assert main([command, "--space", space, "--values", values,
                 "--witness", witness, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        f"error: witness entry id {bad} at position 2 lies outside 0..2\n"
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("command", ["modulus", "extend-pointwise"])
def test_a_string_witness_id_is_an_input_error(tmp_path, grid_space, capsys,
                                               command):
    # "0" used to be read as sample 0, and the command passed with exit 0
    subset = write(tmp_path / "A.json", "[0, 4]")
    values = write(tmp_path / "f.csv",
                   "".join(f"{p},{0.5 * p}\n" for p in range(5)))
    witness = write(tmp_path / "w.json", json.dumps(
        [{"p": p, "delta": 1.5, "K": 1.0} for p in (4, "0")]))
    argv = [command, "--space", grid_space, "--values", values,
            "--witness", witness, "--out-dir", str(tmp_path / "out")]
    if command == "extend-pointwise":
        argv += ["--subset", subset]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {witness}: entry points must be a flat list of sample ids\n")


def test_extend_local_runs(tmp_path, grid_space, capsys):
    subset = write(tmp_path / "A.json", "[0, 2, 4]")
    values = write(tmp_path / "phi.csv", "0,0.5\n2,1.0\n4,0.5\n")
    witness = write(tmp_path / "w.json",
                    json.dumps([{"p": p, "delta": 1.5, "K": 1.0}
                                for p in (0, 2, 4)]))
    assert main(["extend-local", "--space", grid_space, "--subset", subset,
                 "--values", values, "--witness", witness,
                 "--interval", "0,1,closed,closed",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()


def test_select_runs(tmp_path, grid_space, capsys):
    window = write(tmp_path / "w.json", json.dumps({"lower": 0, "upper": 1}))
    assert main(["select", "--space", grid_space, "--values", window,
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "selection.csv").read_text().splitlines()
    assert all(r.endswith(",0.5") for r in rows)
    cert = read_json(tmp_path)["certificates"][0]
    assert cert["details"]["probe"]["ok"] is True
    capsys.readouterr()


@pytest.mark.parametrize("window", [{"lower": 1e16, "upper": None},
                                    {"lower": None, "upper": -1e16}])
def test_select_one_sided_window_far_from_0(tmp_path, window, capsys):
    """One span past 1e16 rounds back onto 1e16; the window still has
    an interior and the selection passes."""
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0.0, "hi": 4.0, "step": 1.0}))
    values = write(tmp_path / "w.json", json.dumps(window))
    assert main(["select", "--space", space, "--values", values,
                 "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path)["passed"] is True
    capsys.readouterr()


def test_select_probes_a_window_a_few_ulps_wide(tmp_path, capsys):
    """A quarter of the clearance rounds to the selected value here, so
    the probe steps to the next float inside the window on one side and
    stays at the value on the other (it used to fail with "probe needs
    s < t" and exit 2)."""
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0, "hi": 2, "step": 1}))
    values = write(tmp_path / "w.json", json.dumps(
        {"lower": 455246.0, "upper": 455246.0000000003}))
    assert main(["select", "--space", space, "--values", values,
                 "--out-dir", str(tmp_path)]) == 0
    probe = read_json(tmp_path)["certificates"][0]["details"]["probe"]
    assert probe == {"counterexample": None, "ok": True, "radius": 2.0,
                     "sample": 0}
    capsys.readouterr()


def test_select_skips_the_probe_of_a_one_float_window(tmp_path, capsys):
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0, "hi": 2, "step": 1}))
    values = write(tmp_path / "w.json", json.dumps(
        {"lower": 1.0 - 2.0 ** -53, "upper": 1.0 + 2.0 ** -52}))
    assert main(["select", "--space", space, "--values", values,
                 "--out-dir", str(tmp_path)]) == 0
    strict = read_json(tmp_path)["certificates"][0]
    assert strict["passed"] is True
    assert strict["details"]["probe"] == {"sample": 0, "skipped": True}
    capsys.readouterr()


@pytest.mark.parametrize("rows, message", [
    ("0,1.0\n1,2.0\n1,5.0\n2,3.0\n", "line 3: id 1 repeats an earlier row"),
    ("0,1.0\n1,2.0\n2,3.0\n7,9.0\n", "line 4: id 7 lies outside 0..2"),
], ids=["repeated", "outside"])
def test_extend_refuses_a_value_id_that_is_no_single_sample(tmp_path, capsys,
                                                           rows, message):
    # the repeated id used to take its last row, 5.0, and the stray id 7
    # was ignored; both runs passed every certificate and exited 0
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0, "hi": 2, "step": 1}))
    subset = write(tmp_path / "A.json", "[0, 1, 2]")
    values = write(tmp_path / "v.csv", rows)
    assert main(["extend", "--space", space, "--subset", subset,
                 "--values", values, "--k", "10",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {values}, {message}\n"
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_insert_through_subset(tmp_path, grid_space, capsys):
    window = write(tmp_path / "w.json",
                   json.dumps({"lower": 0, "upper": 1, "phi": 0.9}))
    subset = write(tmp_path / "A.json", "[2]")
    assert main(["insert", "--space", grid_space, "--values", window,
                 "--subset", subset, "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path)
    kinds = [c["kind"] for c in payload["certificates"]]
    assert kinds == ["strictness", "agrees-on-subset"]
    assert payload["passed"] is True
    vals = np.array([float(r.split(",")[1]) for r in
                     (tmp_path / "selection.csv").read_text().splitlines()])
    assert vals[2] == 0.9
    assert ((vals > 0.0) & (vals < 1.0)).all()
    capsys.readouterr()


def test_insert_needs_phi(tmp_path, grid_space, capsys):
    window = write(tmp_path / "w.json", json.dumps({"lower": 0, "upper": 1}))
    subset = write(tmp_path / "A.json", "[2]")
    assert main(["insert", "--space", grid_space, "--values", window,
                 "--subset", subset, "--out-dir", str(tmp_path)]) == 1
    assert "phi" in capsys.readouterr().err


def test_approx_runs(tmp_path, grid_space, capsys):
    window = write(tmp_path / "w.json", json.dumps({"phi": 0.0}))
    assert main(["approx", "--space", grid_space, "--values", window,
                 "--n-max", "3", "--out-dir", str(tmp_path)]) == 0
    head = (tmp_path / "approx.csv").read_text().splitlines()[0]
    assert head == "id,f1,f2,f3"
    assert read_json(tmp_path)["passed"] is True
    capsys.readouterr()


def linear_approx_argv(tmp_path, n_max, slope=1):
    """approx of phi = slope x on the 51-sample grid of [0, 1]."""
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0, "hi": 1, "step": 0.02}))
    phi = write(tmp_path / "phi.csv",
                "".join(f"{i},{slope * i * 0.02!r}\n" for i in range(51)))
    window = write(tmp_path / "w.json", json.dumps({"phi": phi}))
    return ["approx", "--space", space, "--values", window,
            "--n-max", str(n_max), "--out-dir", str(tmp_path)]


@pytest.mark.parametrize("slope", [1, 2, 5, 10, 20])
def test_approx_passes_for_steep_phi(tmp_path, slope, capsys):
    """phi = s x on the 51-sample grid of [0, 1]: at s = 20 the three
    steps stab their windows with 41, 51 and 51 levels, and every one
    is blended."""
    assert main(linear_approx_argv(tmp_path, 3, slope)) == 0
    assert read_json(tmp_path)["passed"] is True
    capsys.readouterr()


@pytest.mark.parametrize("n_max", [12, 30])
def test_approx_runs_past_the_dyadic_ladder(tmp_path, n_max, capsys):
    """Within 12 steps the windows get narrower than depth 20 resolves;
    each step selects at the depth its windows call for."""
    assert main(linear_approx_argv(tmp_path, n_max)) == 0
    payload = read_json(tmp_path)
    assert [(c["kind"], c["passed"]) for c in payload["certificates"]] == [
        ("strict-above", True), ("strict-decrease", True),
        ("gap-bound", True)]
    assert "grid_depths" not in payload["config"]
    assert capsys.readouterr().out.count("[PASS]") == 3


def test_approx_past_the_float_resolution_exits_1(tmp_path, capsys):
    assert main(linear_approx_argv(tmp_path, 33)) == 1
    assert "error: multiples of 2^-54 are not exact floats at the window " \
        "of sample 25" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["sin-inv-t", "cusp-curve",
                                     "reciprocal-staircase", "dowker-step"])
def test_demos_pass(tmp_path, fixture, capsys):
    assert main(["demo", fixture, "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path)["passed"] is True
    assert capsys.readouterr().out


def test_console_script(tmp_path):
    exe = shutil.which("lipkit")
    cmd = [exe] if exe else [sys.executable, "-m", "lipkit.cli"]
    # the child imports the lipkit under test, installed or not
    src = os.path.dirname(os.path.dirname(lipkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(cmd + ["demo", "reciprocal-staircase",
                                "--out-dir", str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert "partial sums match" in res.stdout


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lipkit.__file__))
    code = ("import sys, lipkit, lipkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert res.stdout.strip() == "[]"


def test_extend_pointwise_restricts_exactly_on_the_real_line(tmp_path, capsys):
    # tan(arctan(5e3)) misses 5e3 by 1.25e-9, above the default tol
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0.0, "hi": 1.0, "step": 0.1}))
    subset = write(tmp_path / "A.json", "[0, 10]")
    values = write(tmp_path / "phi.csv", "0,5000.0\n10,-5000.0\n")
    witness = write(tmp_path / "w.json",
                    json.dumps([{"p": 0, "K": 1e8}, {"p": 10, "K": 1e8}]))
    out = tmp_path / "out"
    assert main(["extend-pointwise", "--space", space, "--subset", subset,
                 "--values", values, "--witness", witness,
                 "--out-dir", str(out)]) == 0
    (restriction,) = [c for c in read_json(out)["certificates"]
                      if c["kind"] == "restriction"]
    assert restriction["details"]["exact"] is True
    capsys.readouterr()


def test_extend_pointwise_refuses_a_repeated_witness_point(tmp_path, capsys):
    # the later K, 50.0, used to replace the first and the run exited 0
    space = write(tmp_path / "space.json",
                  json.dumps({"lo": 0.0, "hi": 1.0, "step": 0.25}))
    subset = write(tmp_path / "A.json", "[0, 3]")
    values = write(tmp_path / "phi.csv", "0,0.0\n3,0.5\n")
    witness = write(tmp_path / "w.json", json.dumps(
        [{"p": 0, "K": 1.0}, {"p": 3, "K": 1.0}, {"p": 0, "K": 50.0}]))
    out = tmp_path / "out"
    assert main(["extend-pointwise", "--space", space, "--subset", subset,
                 "--values", values, "--witness", witness,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {witness}: entry 2 repeats " \
                                      f"point 0\n"
    assert not (out / "certificate.json").exists()


def test_a_metric_refusal_names_its_ids(tmp_path, capsys):
    # 5 > 1 + 1 breaks the triangle inequality at (0, 1, 2)
    space = write(tmp_path / "s.csv", "0,1,5\n1,0,1\n5,1,0\n")
    subset = write(tmp_path / "A.json", "[0, 2]")
    values = write(tmp_path / "phi.csv", "0,0.0\n2,1.0\n")
    code = main(["extend", "--space", space, "--subset", subset,
                 "--values", values, "--k", "1.0",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    cert, = read_json(tmp_path / "out")["certificates"]
    assert cert["kind"] == "precondition"
    assert cert["witness"] == [0, 1, 2]
    assert "triangle" in cert["details"]["message"]
    capsys.readouterr()
