"""The certificate lists of lipkit.verdicts, called from the library, and
the CLI as a front end that writes exactly what they return."""

import json

import numpy as np
import pytest

import lipkit.verdicts as verdicts
from lipkit import (Interval, IntervalMapping, LocalWitness, MetricSpace,
                    PointwiseWitness, Subset, Tabulated, decompose,
                    decreasing_approx, extend_to_interval, frolik_pou,
                    generate_local_witness, insert, local_extend,
                    modulus_witness, pointwise_extend_to_interval, select,
                    witness_from_balls)
from lipkit.cli import main
from lipkit.fixtures import approx_targets, dowker_step, square_on_grid
from lipkit.io import (field_on_space, load_cover, load_local_witness,
                       load_mapping, load_pointwise_witness, load_space,
                       load_subset, values_on_subset)

from helpers import make_ball_cover, make_instance, make_space

TOL = 1e-9


def kinds(certs):
    return [c.kind for c in certs]


def assert_all_pass(certs):
    assert [c.summary_line() for c in certs if not c.passed] == []


# ---------------------------------------------------------------------------
# Library calls


@pytest.mark.parametrize("seed", range(8))
def test_certify_metric_on_random_spaces(seed):
    space = make_space(np.random.default_rng(seed))
    (cert,) = verdicts.certify_metric(space, TOL)
    assert cert.passed and cert.witness is None
    assert (cert.details["n"], cert.details["backend"]) == \
        (space.n, space.backend)


def test_certify_metric_names_the_worst_violation():
    D = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    space = MetricSpace.from_matrix(D, validate=False)
    (cert,) = verdicts.certify_metric(space, TOL)
    assert not cert.passed
    assert cert.worst_violation == 7.0 and sorted(cert.witness) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(12))
def test_certify_extend_passes_on_random_instances(seed):
    space, A, phi, K = make_instance(np.random.default_rng(seed), n_max=30)
    lo, hi = float(phi.min()) - 1.0, float(phi.max()) + 1.0
    for interval in (Interval.real_line(), Interval.closed(lo, hi)):
        out = extend_to_interval(A, phi, K, interval, TOL)
        certs = verdicts.certify_extend(A, phi, K, interval, out, TOL, seed)
        assert_all_pass(certs)
        head = ["k-lipschitz"] * 3 + ["restriction", "ordering", "duality"]
        tail = ["containment"] + ["interior-margin"] * (len(A) < space.n)
        assert kinds(certs) == head + ["sandwich"] * 3 + (
            tail if interval.is_bounded else [])


@pytest.mark.parametrize("seed", range(8))
def test_certify_extend_pointwise_passes_on_random_instances(seed):
    space, A, phi, K = make_instance(np.random.default_rng(seed), n_max=30)
    witness = PointwiseWitness.from_values(A, np.full(len(A), max(K, 1.0)))
    lo, hi = float(phi.min()) - 1.0, float(phi.max()) + 1.0
    for interval in (Interval.real_line(), Interval.closed(lo, hi)):
        out = pointwise_extend_to_interval(A, phi, witness, interval, TOL)
        certs = verdicts.certify_extend_pointwise(A, phi, interval, out, TOL)
        assert_all_pass(certs)
        assert kinds(certs) == ["restriction", "pointwise-witness"] + (
            ["containment", "display-bounds"] if interval.is_bounded else [])


def grid_extension():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A, vals = Subset(space, [0]), np.array([0.5])
    interval = Interval.closed(0.0, 1.0)
    return A, vals, interval, extend_to_interval(A, vals, 1.0, interval, TOL)


def test_restriction_and_interior_margin_witnesses():
    A, vals, interval, out = grid_extension()
    v = out.values().copy()
    v[0] += 0.25        # off the data at the anchor
    v[4] = 1.0          # on the boundary, 2 away from A: clearance 0.5 short
    bad = Tabulated(A.space, v)
    bad.envelopes = out.envelopes
    certs = {c.kind: c for c in verdicts.certify_extend(
        A, vals, 1.0, interval, bad, TOL)}
    restriction = certs["restriction"]
    assert not restriction.passed and restriction.witness == (0,)
    assert restriction.worst_violation == 0.25
    assert restriction.details["exact"] is False
    # the interior margin reports its shortfall net of tol
    margin = certs["interior-margin"]
    assert not margin.passed and margin.witness == (4,)
    assert margin.worst_violation == 0.5 - TOL and margin.tolerance == TOL


def test_sandwich_and_containment_clamp_at_zero():
    A, vals, interval, out = grid_extension()
    certs = verdicts.certify_extend(A, vals, 1.0, interval, out, TOL)
    for c in certs:
        if c.kind in ("sandwich", "containment", "ordering"):
            assert c.passed and c.worst_violation == 0.0
    assert [c.witness for c in certs if c.kind == "sandwich"] == [None] * 3


@pytest.mark.parametrize("seed", range(6))
def test_certify_pou_on_random_ball_covers(seed):
    rng = np.random.default_rng(seed)
    space = make_space(rng, n_max=25)
    pou = frolik_pou(witness_from_balls(space, make_ball_cover(rng, space)),
                     TOL)
    raw, regrouped = verdicts.certify_pou(pou, TOL)
    assert raw.passed and regrouped.passed
    assert raw.details["family"] == "staircase"
    assert raw.details["k_caps"] == list(pou.k_caps)
    assert regrouped.details["family"] == "regrouped"


def test_certify_decompose_and_modulus_on_the_square():
    space, f, witness = square_on_grid()
    certs = verdicts.certify_decompose(decompose(f, witness, TOL), TOL)
    assert kinds(certs) == ["local-witness", "reconstruction",
                            "member-bounds", "pou"]
    assert_all_pass(certs)
    moduli = [modulus_witness(f, witness, rule, TOL)
              for rule in ("bounded", "unbounded")]
    certs = verdicts.certify_modulus(moduli, TOL)
    assert kinds(certs) == ["modulus-bounded", "modulus-unbounded"]
    assert_all_pass(certs)


def test_modulus_levels_dominate_the_cover_levels():
    # the levels are the cover's eta themselves, so each one meets its
    # bound with equality
    space, f, witness = square_on_grid()
    moduli = [modulus_witness(f, witness, rule, TOL)
              for rule in ("bounded", "unbounded")]
    assert all((m.levels == m.cover.eta).all() for m in moduli)
    assert [c.details["level_dominates_eta"]
            for c in verdicts.certify_modulus(moduli, TOL)] == [True, True]


def test_certify_extend_local_on_the_square():
    space, f, _ = square_on_grid(-1.0, 1.0, 0.25)
    A = Subset(space, np.arange(0, space.n, 2))
    vals = f.values()[A.members]
    w = generate_local_witness(f)
    keep = np.isin(w.points, A.members)
    witness = LocalWitness(w.points[keep], w.deltas[keep], w.constants[keep])
    interval = Interval.closed(0.0, 1.0)
    out = local_extend(A, vals, witness, interval, TOL)
    certs = verdicts.certify_extend_local(A, vals, interval, out, TOL)
    assert kinds(certs) == ["restriction", "containment", "local-witness"]
    assert certs[-1].details["direction"] == "output"
    assert_all_pass(certs)


def test_certify_select_insert_and_approx_on_the_fixtures():
    space, lower, upper = dowker_step()
    mapping = IntervalMapping(space, lower, upper)
    strict, partition = verdicts.certify_select(mapping, select(mapping), TOL)
    assert strict.passed and strict.details["probe"]["ok"] is True
    assert partition.passed

    A = Subset(space, [0])
    vals = np.array([0.25])
    f = insert(space, lower, upper, A=A, phi=vals,
               witness=LocalWitness.from_triples([(0, 0.5, 0.0)]))
    certs = verdicts.certify_insert(mapping, f, A, vals)
    assert kinds(certs) == ["strictness", "agrees-on-subset"]
    assert_all_pass(certs)
    off = Tabulated(space, f.values() + np.where(np.arange(space.n) == 0,
                                                 1e-3, 0.0))
    agrees = verdicts.certify_insert(mapping, off, A, vals)[1]
    assert not agrees.passed and agrees.tolerance == 0.0
    assert agrees.witness is None

    space, targets = approx_targets()
    for phi in targets:
        certs = verdicts.certify_approx(phi, decreasing_approx(phi, 3))
        assert kinds(certs) == ["strict-above", "strict-decrease",
                                "gap-bound"]
        assert_all_pass(certs)


# ---------------------------------------------------------------------------
# The CLI writes exactly the list of its command


def put(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    """Inputs on the 5-sample grid of [0, 2], as in test_cli."""
    return {
        "space": put(tmp_path, "space.json",
                     {"lo": 0.0, "hi": 2.0, "step": 0.5}),
        "subset": put(tmp_path, "A.json", [0, 2, 4]),
        "phi": put(tmp_path, "phi.csv", "0,0.5\n2,1.0\n4,0.5\n"),
        "f": put(tmp_path, "f.csv",
                 "".join(f"{p},{0.5 * p}\n" for p in range(5))),
        "local": put(tmp_path, "w.json", [{"p": p, "delta": 1.5, "K": 1.0}
                                          for p in range(5)]),
        "local_A": put(tmp_path, "wA.json", [{"p": p, "delta": 1.5, "K": 1.0}
                                             for p in (0, 2, 4)]),
        "pointwise": put(tmp_path, "wp.json",
                         [{"p": p, "K": 1.0} for p in (0, 2, 4)]),
        "cover": put(tmp_path, "c.json",
                     [{"balls": [[0, 1.5]]}, {"balls": [[4, 1.5]]}]),
        "window": put(tmp_path, "window.json",
                      {"lower": 0, "upper": 1, "phi": 0.9}),
        "approx": put(tmp_path, "approx.json", {"phi": 0.0}),
    }


UNIT = Interval.closed(0.0, 1.0)


def lib_certify_metric(F):
    return verdicts.certify_metric(load_space(F["space"], validate=False),
                                   TOL)


def anchored(F):
    A = load_subset(F["subset"], load_space(F["space"]))
    return A, values_on_subset(F["phi"], A)


def lib_extend(F):
    A, vals = anchored(F)
    out = extend_to_interval(A, vals, 1.0, UNIT, TOL)
    return verdicts.certify_extend(A, vals, 1.0, UNIT, out, TOL, 3)


def lib_extend_pointwise(F):
    A, vals = anchored(F)
    out = pointwise_extend_to_interval(
        A, vals, load_pointwise_witness(F["pointwise"]), UNIT, TOL)
    return verdicts.certify_extend_pointwise(A, vals, UNIT, out, TOL)


def lib_pou(F):
    pou = frolik_pou(load_cover(F["cover"], load_space(F["space"])), TOL)
    return verdicts.certify_pou(pou, TOL)


def on_grid(F):
    return (field_on_space(F["f"], load_space(F["space"])),
            load_local_witness(F["local"]))


def lib_decompose(F):
    return verdicts.certify_decompose(decompose(*on_grid(F), TOL), TOL)


def lib_modulus(F):
    f, witness = on_grid(F)
    return verdicts.certify_modulus(
        [modulus_witness(f, witness, rule, TOL)
         for rule in ("bounded", "unbounded")], TOL)


def lib_extend_local(F):
    A, vals = anchored(F)
    out = local_extend(A, vals, load_local_witness(F["local_A"]), UNIT, TOL)
    return verdicts.certify_extend_local(A, vals, UNIT, out, TOL)


def window(F, name="window"):
    space = load_space(F["space"])
    return (space,) + load_mapping(F[name], space)


def lib_select(F):
    space, lower, upper, _ = window(F)
    mapping = IntervalMapping(space, lower, upper)
    return verdicts.certify_select(mapping, select(mapping), TOL)


def lib_insert(F):
    space, lower, upper, _ = window(F)
    return verdicts.certify_insert(IntervalMapping(space, lower, upper),
                                   insert(space, lower, upper, tol=TOL))


def lib_approx(F):
    _, _, _, phi = window(F, "approx")
    return verdicts.certify_approx(phi, decreasing_approx(phi, 3))


COMMANDS = {
    "certify-metric": ([], lib_certify_metric),
    "extend": (["--subset", "subset", "--values", "phi", "--k", "1.0",
                "--interval", "0,1,closed,closed", "--seed", "3"],
               lib_extend),
    "extend-pointwise": (["--subset", "subset", "--values", "phi",
                          "--witness", "pointwise",
                          "--interval", "0,1,closed,closed"],
                         lib_extend_pointwise),
    "pou": (["--cover", "cover"], lib_pou),
    "decompose": (["--values", "f", "--witness", "local"], lib_decompose),
    "modulus": (["--values", "f", "--witness", "local"], lib_modulus),
    "extend-local": (["--subset", "subset", "--values", "phi",
                      "--witness", "local_A",
                      "--interval", "0,1,closed,closed"], lib_extend_local),
    "select": (["--values", "window"], lib_select),
    "insert": (["--values", "window"], lib_insert),
    "approx": (["--values", "approx", "--n-max", "3"], lib_approx),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_writes_the_verdict_list(tmp_path, files, capsys, command):
    flags, library = COMMANDS[command]
    argv = [command, "--space", files["space"]] + [
        files.get(a, a) for a in flags] + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    expected = [c.to_dict() for c in library(files)]
    assert expected and payload["certificates"] == expected
    capsys.readouterr()


def test_a_zero_margin_fails_strictness():
    # f touches the window's lower side at sample 1: the margin is 0
    space = MetricSpace.from_grid(0, 1, 1)
    window = IntervalMapping(space, Tabulated(space, [0.0, 0.0]),
                             Tabulated(space, [1.0, 1.0]))
    cert = verdicts._strictness_cert(window, Tabulated(space, [0.5, 0.0]))
    assert cert.details["min_margin"] == 0.0
    assert not cert.passed
    assert cert.witness == (1,)


def approx_certs(steps):
    """certify_approx of the given steps over phi = 0 on two samples."""
    space = MetricSpace.from_grid(0, 1, 1)
    return {c.kind: c for c in verdicts.certify_approx(
        Tabulated(space, [0.0, 0.0]), [Tabulated(space, s) for s in steps])}


def test_a_step_equal_to_phi_at_one_sample_fails_strict_above():
    certs = approx_certs([[0.5, 0.0]])
    assert certs["strict-above"].details["min_gap"] == 0.0
    assert not certs["strict-above"].passed
    assert certs["strict-decrease"].passed and certs["gap-bound"].passed


def test_two_equal_steps_fail_strict_decrease():
    certs = approx_certs([[0.25, 0.25], [0.25, 0.25]])
    assert certs["strict-decrease"].worst_violation == 0.0
    assert not certs["strict-decrease"].passed
    assert certs["strict-above"].passed and certs["gap-bound"].passed


def test_a_step_whose_gap_is_exactly_its_bound_fails_the_gap_bound():
    # step 1 lies 2^-1 above phi at sample 0: the bound is strict
    certs = approx_certs([[0.75, 0.75], [0.5, 0.25]])
    assert certs["gap-bound"].worst_violation == 0.0
    assert not certs["gap-bound"].passed
    assert certs["strict-above"].passed and certs["strict-decrease"].passed
