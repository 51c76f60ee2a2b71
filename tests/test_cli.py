import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import lipkit
from lipkit import MetricSpace
from lipkit.cli import main


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


def test_grid_depth_validation(tmp_path, grid_space, capsys):
    values = write(tmp_path / "w.json", json.dumps({"lower": 0, "upper": 1}))
    argv = ["select", "--space", grid_space, "--values", values,
            "--grid-depth", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    capsys.readouterr()


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
    for module in (lipkit.cli, lipkit.local_lipschitz):
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
    lo, hi = min(0, bad), max(1, bad)
    assert capsys.readouterr().err == \
        f"error: witness entry ids must lie in 0..2, got range [{lo}, {hi}]\n"
    assert not (tmp_path / "out" / "certificate.json").exists()


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
