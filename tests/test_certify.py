import json
import math

import numpy as np
import pytest

from lipkit import (Certificate, Constant, Coordinate, LocalWitness,
                    MetricSpace, PreconditionError, Subset,
                    certify_local_witness, check_k_lipschitz,
                    feasible_interval, frolik_pou, mcshane_envelopes,
                    pou_report, random_k_extension, witness_from_balls)
from lipkit.fixtures import cusp_curve, sin_reciprocal_pairs, square_on_grid
from lipkit.partition_of_unity import PartitionOfUnity

from helpers import make_instance


def grid_instance():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    A = Subset(space, [0, 2])
    return space, A, np.array([0.0, 1.0])


def test_check_k_lipschitz_identity():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    cert = check_k_lipschitz(Coordinate(space), 1.0)
    assert cert.passed
    assert cert.worst_violation <= 1e-9
    # slope exactly 1 somewhere: K slightly smaller must fail
    assert not check_k_lipschitz(Coordinate(space), 0.9).passed


def test_check_k_lipschitz_on_lower_envelope():
    space, A, phi = grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    assert check_k_lipschitz(pair.lower, 1.0).passed
    assert check_k_lipschitz(pair.upper, 1.0).passed


def test_check_k_lipschitz_sin_reciprocal_fails_any_modest_K():
    space, f, pairs = sin_reciprocal_pairs(20)
    cert = check_k_lipschitz(f, 100.0)
    assert not cert.passed
    assert cert.witness is not None
    i, j = cert.witness
    v = f.values()
    d = space.dist(i, j)
    assert abs(v[i] - v[j]) > 100.0 * d


def test_check_k_lipschitz_restricted_pairs():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Coordinate(space)
    cert = check_k_lipschitz(f, 1.0, pairs=[(0, 4), (1, 3)])
    assert cert.passed
    assert cert.details["pairs"] == 2


def test_random_extension_whole_space_returns_phi():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    phi = np.array([0.3, -0.1, 0.2, 0.0, 0.4])
    out = random_k_extension(Subset.whole(space), phi, 1.0, seed=5)
    assert (out.values() == phi).all()


def test_random_extensions_stay_in_envelope_band():
    space, A, phi = grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    lo, hi = pair.lower.values(), pair.upper.values()
    for seed in range(100):
        f = random_k_extension(A, phi, 1.0, seed=seed)
        cert = check_k_lipschitz(f, 1.0)
        assert cert.passed, seed
        v = f.values()
        assert (v[A.members] == phi).all()
        assert (lo - 1e-9 <= v).all() and (v <= hi + 1e-9).all()


def test_convex_combinations_are_k_lipschitz():
    space, A, phi = grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        combo = (Constant(space, lam) * pair.lower
                 + Constant(space, 1.0 - lam) * pair.upper)
        cert = check_k_lipschitz(combo, 1.0)
        assert cert.passed, lam
        assert (combo.values()[A.members] == phi).all() or lam in (0.0, 1.0)


def test_random_extension_rejects_bad_phi():
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    A = Subset(space, [0, 2])
    with pytest.raises(PreconditionError):
        random_k_extension(A, np.array([0.0, 9.0]), 1.0)


def test_random_extension_custom_order():
    rng = np.random.default_rng(17)
    space, A, phi, K = make_instance(rng, n_max=15)
    order = A.complement()[::-1]
    f = random_k_extension(A, phi, K, order=order, seed=3)
    assert check_k_lipschitz(f, K).passed


def test_feasible_interval_matches_envelopes_on_full_prefix():
    space, A, phi = grid_instance()
    pair = mcshane_envelopes(A, phi, 1.0)
    for p in A.complement():
        lo, hi = feasible_interval(space, A.members, phi, int(p), 1.0)
        assert lo == pytest.approx(pair.lower.values()[p], abs=1e-12)
        assert hi == pytest.approx(pair.upper.values()[p], abs=1e-12)


def test_pou_report_single_set_exact():
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = witness_from_balls(space, [[(0, 10.0)]])
    pou = frolik_pou(cover)
    cert = pou_report(pou)
    assert cert.passed
    assert cert.worst_violation == 0.0


def test_pou_report_truncation_fails_with_witness():
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = witness_from_balls(space, [[(0, 10.0)]])
    pou = frolik_pou(cover)
    chopped = PartitionOfUnity(
        space, pou.members[:-1], pou.set_index[:-1],
        [a[a < len(pou.members) - 1] for a in pou.activity],
        cover=pou.cover)
    cert = pou_report(chopped)
    assert not cert.passed
    assert cert.worst_violation > 0.1
    assert cert.witness is not None


def test_certify_local_witness_square_fixture():
    space, f, witness = square_on_grid()
    cert = certify_local_witness(f, witness)
    assert cert.passed


def test_certify_local_witness_constant_zero_rate():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Constant(space, 7.0)
    witness = LocalWitness.from_triples(
        [(p, 10.0, 0.0) for p in range(space.n)])
    assert certify_local_witness(f, witness).passed


def test_certify_local_witness_rejects_cusp_uniform_rate():
    # any uniform rate near the origin loses to the 1/t pair slopes
    space, f, pairs = cusp_curve()
    origin_near = pairs[0][0]
    delta = 4.0 * space.dist(pairs[0][0], pairs[0][1])
    witness = LocalWitness.from_triples(
        [(p, delta, 5.0) for p in range(space.n)])
    cert = certify_local_witness(f, witness)
    assert not cert.passed
    entry, (i, j) = cert.witness
    v = f.values()
    assert v[i] * v[j] < 0.0  # the witnessing pair straddles the cusp
    assert abs(v[i] - v[j]) > 5.0 * space.dist(i, j)


def test_certify_local_witness_coverage_gap_detected():
    space = MetricSpace.from_points([0.0, 1.0, 5.0])
    f = Constant(space, 0.0)
    witness = LocalWitness.from_triples([(0, 2.0, 0.0)])
    cert = certify_local_witness(f, witness)
    assert not cert.passed


def test_certificate_dict_is_strict_json():
    cert = Certificate("check", False, math.nan, 1e-9, (0, 1),
                       details={"rates": np.array([1.0, math.inf, math.nan])})
    d = json.loads(json.dumps(cert.to_dict(), allow_nan=False))
    assert d["worst_violation"] == "nan"
    assert d["details"]["rates"] == [1.0, "inf", "nan"]
