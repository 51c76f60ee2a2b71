import json
import math

import numpy as np
import pytest

from lipkit import (Certificate, Constant, Coordinate, LocalWitness,
                    MetricSpace, PreconditionError, Subset, Tabulated,
                    certify_local_witness, check_k_lipschitz,
                    feasible_interval, frolik_pou, mcshane_envelopes,
                    pou_report, random_k_extension, witness_from_balls)
from lipkit.fixtures import cusp_curve, sin_reciprocal_pairs, square_on_grid
from lipkit.partition_of_unity import PartitionOfUnity

from helpers import make_instance, make_space


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


def test_random_extension_rejects_nan_phi():
    space = MetricSpace.from_points(np.linspace(0.0, 1.0, 20))
    A = Subset(space, [0, 5, 10])
    with pytest.raises(PreconditionError, match="not 5.0-Lipschitz"):
        random_k_extension(A, [0.2, math.nan, 0.5], 5.0)


def test_lipschitz_pair_list_reports_a_nan_pair():
    space = MetricSpace.from_grid(0.0, 1.0, 0.25)
    f = Tabulated(space, [0.0, math.nan, 0.5, 0.5, 0.5])
    cert = check_k_lipschitz(f, 1.0, pairs=[(0, 2), (0, 1), (2, 3)])
    assert not cert.passed
    assert cert.witness == (0, 1)


def test_random_extension_custom_order():
    rng = np.random.default_rng(17)
    space, A, phi, K = make_instance(rng, n_max=15)
    order = A.complement()[::-1]
    f = random_k_extension(A, phi, K, order=order, seed=3)
    assert check_k_lipschitz(f, K).passed


def reference_greedy(A, phi, K, order, seed, tol=1e-9):
    """The greedy draw re-derived one prefix at a time."""
    rng = np.random.default_rng(seed)
    ids, vals = list(A.members), list(phi)
    out = np.full(A.space.n, np.nan)
    out[A.members] = phi
    for p in order:
        lo, hi = feasible_interval(A.space, ids, vals, int(p), K)
        if lo > hi:
            assert lo - hi <= tol
            value = 0.5 * (lo + hi)
        elif lo == hi:
            value = lo
        else:
            value = float(rng.uniform(lo, hi))
        ids.append(int(p))
        vals.append(value)
        out[p] = value
    return out


def asymmetric_space(rng):
    """Unvalidated distances, d(p, q) != d(q, p) off the diagonal."""
    D = make_space(rng, kinds=[1]).pairwise()
    noise = rng.uniform(0.0, 0.05, size=D.shape)
    np.fill_diagonal(noise, 0.0)
    return MetricSpace.from_matrix(D + noise, validate=False)


# kinds 0-3 are the make_space backends, 4 an asymmetric matrix
@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("reverse", [False, True])
def test_random_extension_matches_the_prefix_reference(kind, reverse):
    tol = 1.0 if kind == 4 else 1e-9
    for s in range(6):
        rng = np.random.default_rng([kind, s])
        space = asymmetric_space(rng) if kind == 4 else make_space(rng, kinds=[kind])
        A = Subset(space, rng.choice(space.n, size=int(rng.integers(1, space.n)),
                                     replace=False))
        K = float(rng.uniform(0.2, 4.0))
        # a cone of slope <= K around one anchor is K-Lipschitz on A
        cone = space.pairwise()[int(A.members[0]), A.members]
        phi = float(rng.uniform(-2, 2)) + float(rng.uniform(-1, 1)) * K * cone
        order = A.complement()[::-1] if reverse else A.complement()
        got = random_k_extension(A, phi, K, order=order if reverse else None,
                                 seed=s, tol=tol).values()
        want = reference_greedy(A, phi, K, order, seed=s, tol=tol)
        assert got.tobytes() == want.tobytes(), (kind, s)


def test_random_extension_closes_a_rounding_gap_at_the_midpoint():
    # phi overshoots slope 1 by 1e-12, within tol: the interval at the
    # middle sample is [0.5 + 1e-12, 0.5], and its midpoint is taken
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    A = Subset(space, [0, 2])
    phi = np.array([0.0, 1.0 + 1e-12])
    f = random_k_extension(A, phi, 1.0, tol=1e-9)
    assert f(1) == 0.5 * ((phi[1] - 0.5) + 0.5)
    assert f(1) == reference_greedy(A, phi, 1.0, [1], seed=0)[1]


def test_random_extension_rejects_an_order_that_revisits_a_point():
    space, A, phi = grid_instance()
    with pytest.raises(PreconditionError, match="order revisits point 2"):
        random_k_extension(A, phi, 1.0, order=[1, 2, 3, 4])
    with pytest.raises(PreconditionError, match="order revisits point 3"):
        random_k_extension(A, phi, 1.0, order=[1, 3, 3, 4])


def test_random_extension_rejects_an_order_that_misses_points():
    space, A, phi = grid_instance()
    with pytest.raises(PreconditionError,
                       match=r"order misses 2 point\(s\), first 1"):
        random_k_extension(A, phi, 1.0, order=[4])


def test_random_extension_reports_an_empty_feasible_interval():
    # unvalidated distances that break the triangle law: phi passes the
    # pair precheck within tol, yet no value at 1 is 1-Lipschitz
    D = np.array([[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]])
    space = MetricSpace.from_matrix(D, validate=False)
    A = Subset(space, [0, 2])
    with pytest.raises(PreconditionError,
                       match=r"empty feasible interval at point 1") as err:
        random_k_extension(A, [0.0, 1.0 + 1e-10], 1.0, tol=1e-9)
    assert err.value.witness == 1


@pytest.mark.parametrize("K", [math.inf, math.nan, -1.0])
def test_random_extension_needs_a_finite_nonnegative_constant(K):
    space, A, phi = grid_instance()
    with pytest.raises(PreconditionError, match="finite and nonnegative"):
        random_k_extension(A, phi, K)


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
