import json
import math

import numpy as np
import pytest

from lipkit import (Certificate, Constant, Coordinate, InputError,
                    LipEstimate, LocalWitness, MetricSpace,
                    PreconditionError, Subset, Tabulated,
                    certify_local_witness, check_k_lipschitz,
                    feasible_interval, frolik_pou, global_lip,
                    index_subordinate, mcshane_envelopes, pou_report,
                    random_k_extension, witness_from_balls)
from lipkit import _pairs
from lipkit.fixtures import cusp_curve, sin_reciprocal_pairs, square_on_grid
from lipkit.partition_of_unity import PartitionOfUnity

from helpers import leaf_sums, make_ball_cover, make_space, ref_greedy


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


def test_check_k_lipschitz_counts_the_pairs_it_read():
    """p < q on exactly symmetric distances, every ordered pair on an
    unvalidated matrix one entry off symmetric."""
    D = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for M, pairs in ((D, 6), (np.minimum(D, D.T), 3)):
        f = Tabulated(MetricSpace.from_matrix(M, validate=False),
                      [0.0, 1.0, 2.0])
        assert check_k_lipschitz(f, 1.0).details["pairs"] == pairs


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


@pytest.mark.parametrize("as_field", [False, True], ids=["array", "field"])
@pytest.mark.parametrize("members, phi, bad", [
    ([3], [math.inf], 3),                   # one sample: no pair to check
    ([0, 5, 10], [0.2, -math.inf, math.inf], 5),
])
def test_infinite_phi_is_refused_with_its_sample(members, phi, bad, as_field):
    space = MetricSpace.from_grid(0.0, 1.0, 0.0625)
    A = Subset(space, members)
    if as_field:
        table = np.zeros(space.n)
        table[members] = phi
        phi = Tabulated(space, table)
    for build in (lambda: random_k_extension(A, phi, 5.0),
                  lambda: mcshane_envelopes(A, phi, 5.0)):
        with pytest.raises(PreconditionError, match="infinite") as err:
            build()
        assert err.value.witness == bad


def test_lipschitz_pair_list_reports_a_nan_pair():
    space = MetricSpace.from_grid(0.0, 1.0, 0.25)
    f = Tabulated(space, [0.0, math.nan, 0.5, 0.5, 0.5])
    cert = check_k_lipschitz(f, 1.0, pairs=[(0, 2), (0, 1), (2, 3)])
    assert not cert.passed
    assert cert.witness == (0, 1)


@pytest.mark.parametrize("pairs, message", [
    ([(0, 2.9)], r"pair id 2\.9 at position \(0, 1\) is not an integer"),
    ([(0, -1)], r"pair id -1 at position \(0, 1\) lies outside 0\.\.3"),
    ([(0, 7)], r"pair id 7 at position \(0, 1\) lies outside 0\.\.3"),
    ([(0, 1), (2, 3), (1, math.nan)],
     r"pair id nan at position \(2, 1\) is not an integer"),
    ([(0, 1, 2)], r"pairs must be a list of \(p, q\) sample id pairs"),
], ids=["fraction", "negative", "too-large", "nan", "triple"])
def test_a_listed_pair_must_name_two_samples(pairs, message):
    # before, (0, 2.9) read the pair (0, 2) and PASSed, (0, -1) read
    # sample 3 and (0, 7) raised a bare IndexError
    f = Tabulated(MetricSpace.from_grid(0.0, 3.0, 1.0), [0.0, 1.0, 0.0, 5.0])
    with pytest.raises(InputError, match=message):
        check_k_lipschitz(f, 1.0, pairs=pairs)
    with pytest.raises(InputError, match=message):
        global_lip(f, pairs=pairs)


def test_an_empty_pair_list_checks_nothing():
    f = Tabulated(MetricSpace.from_grid(0.0, 3.0, 1.0), [0.0, 1.0, 0.0, 5.0])
    for pairs in ([], np.empty((0, 2), dtype=int)):
        cert = check_k_lipschitz(f, 1.0, pairs=pairs)
        assert cert.passed and cert.witness is None
        assert cert.details["pairs"] == 0
        assert global_lip(f, pairs=pairs) == LipEstimate(0.0, None)


def asymmetric_space(rng):
    """Unvalidated distances, d(p, q) != d(q, p) off the diagonal."""
    D = make_space(rng, kinds=[1]).pairwise()
    noise = rng.uniform(0.0, 0.05, size=D.shape)
    np.fill_diagonal(noise, 0.0)
    return MetricSpace.from_matrix(D + noise, validate=False)


# kinds 0-3 are the make_space backends, 4 an asymmetric matrix
@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
def test_random_extension_matches_the_prefix_reference(kind):
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
        assert same_as_reference(A, phi, K, seed=s, tol=tol), (kind, s)


def same_as_reference(A, phi, K, seed, tol=1e-9):
    """The draw equals ref_greedy over the ascending complement byte
    for byte."""
    got = random_k_extension(A, phi, K, seed=seed, tol=tol).values()
    want = ref_greedy(A, phi, K, A.complement(), seed=seed, tol=tol)
    return got.tobytes() == want.tobytes()


def test_random_extension_matches_the_reference_at_every_domain_size():
    # on every backend and the asymmetric matrix, for an A of one
    # sample, of all samples but one, and in between
    for kind in (0, 1, 2, 3, 4):
        tol = 1.0 if kind == 4 else 1e-9
        for size in ("one", "all-but-one", "any"):
            for s in range(4):
                rng = np.random.default_rng([kind, s, 9])
                space = asymmetric_space(rng) if kind == 4 \
                    else make_space(rng, kinds=[kind])
                m = {"one": 1, "all-but-one": space.n - 1,
                     "any": int(rng.integers(1, space.n))}[size]
                A = Subset(space, rng.choice(space.n, size=m, replace=False))
                K = float(rng.uniform(0.2, 4.0))
                cone = space.pairwise()[int(A.members[0]), A.members]
                phi = float(rng.uniform(-2, 2)) + float(rng.uniform(-1, 1)) * K * cone
                assert same_as_reference(A, phi, K, s, tol), (kind, size, s)


@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
def test_random_extension_with_constant_zero_is_constant(kind):
    # K = 0: every interval is the point [c, c] and no uniform is drawn
    rng = np.random.default_rng([kind, 11])
    space = asymmetric_space(rng) if kind == 4 else make_space(rng, kinds=[kind])
    A = Subset(space, rng.choice(space.n, size=3, replace=False))
    phi = np.full(3, -0.75)
    assert same_as_reference(A, phi, 0.0, seed=4)
    assert (random_k_extension(A, phi, 0.0).values() == -0.75).all()


def test_random_extension_closes_a_rounding_gap_at_the_midpoint():
    # phi overshoots slope 1 by 1e-12, within tol: the interval at the
    # middle sample is [0.5 + 1e-12, 0.5], and its midpoint is taken
    space = MetricSpace.from_grid(0.0, 1.0, 0.5)
    A = Subset(space, [0, 2])
    phi = np.array([0.0, 1.0 + 1e-12])
    f = random_k_extension(A, phi, 1.0, tol=1e-9)
    assert f(1) == 0.5 * ((phi[1] - 0.5) + 0.5)
    assert f(1) == ref_greedy(A, phi, 1.0, [1], seed=0)[1]
    # on a finer grid the first sample closes at the midpoint, and the
    # rest are drawn against it
    fine = Subset(MetricSpace.from_grid(0.0, 1.0, 0.25), [0, 4])
    assert same_as_reference(fine, phi, 1.0, seed=2)


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


@pytest.mark.parametrize("space", [
    MetricSpace.from_matrix([[0.0, math.inf], [math.inf, 0.0]], validate=False),
    MetricSpace.from_matrix([[0.0, math.nan], [math.nan, 0.0]], validate=False),
    MetricSpace.from_points([-1e200, 1e200], validate=False),
], ids=["inf", "nan", "far-cloud"])
def test_random_extension_refuses_a_non_finite_interval(space):
    with pytest.raises(PreconditionError,
                       match="feasible interval at point 1 is not finite") as err:
        random_k_extension(Subset(space, [0]), [0.0], 1.0)
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
        space, pou.matrix[:-1], pou.set_index[:-1],
        pou.activity[:-1],
        cover=pou.cover)
    cert = pou_report(chopped)
    assert not cert.passed
    assert cert.worst_violation > 0.1
    assert cert.witness is not None


def reference_pou_report(pou, tol=1e-9):
    """pou_report written as per-sample loops over activity index lists:
    the sum of the leaves, the activity scan and the histogram."""
    space, members = pou.space, pou.members
    active = [np.flatnonzero(pou.activity[:, p]) for p in range(space.n)]
    sums = np.array(leaf_sums(*pou.leaves))
    residual = float(np.abs(sums - 1.0).max())
    res_point = int(np.argmax(np.abs(sums - 1.0)))

    activity_worst, activity_witness = 0.0, None
    M = np.stack([m.values() for m in members])
    for p in range(space.n):
        on = set(int(i) for i in active[p])
        for i in range(len(members)):
            if i not in on and M[i, p] != 0.0:
                if abs(M[i, p]) > activity_worst:
                    activity_worst = float(abs(M[i, p]))
                    activity_witness = (i, p)

    histogram = {}
    for p in range(space.n):
        alive = sum(1 for i in active[p] if M[i, p] > 0)
        histogram[alive] = histogram.get(alive, 0) + 1

    negativity = float(-M.min())
    passed = (residual <= tol and activity_worst == 0.0 and negativity <= 0.0)
    return Certificate(
        "pou", passed, max(residual, activity_worst, negativity), tol,
        activity_witness if activity_worst > 0 else (res_point,),
        details={
            "sum_residual": residual,
            "activity_violation": activity_worst,
            "negativity": negativity,
            "member_count": len(members),
            "member_lip": [_pairs.max_slope(space, row)[0] for row in M],
            "active_histogram": {str(k): v
                                 for k, v in sorted(histogram.items())},
        })


def seeded_families(kind, draws=3):
    rng = np.random.default_rng(500 + kind)
    for _ in range(draws):
        space = make_space(rng, n_max=20, kinds=[kind])
        pou = frolik_pou(witness_from_balls(space, make_ball_cover(rng, space)))
        yield pou, index_subordinate(pou)


@pytest.mark.parametrize("kind", [0, 1, 2, 3],
                         ids=["matrix", "points", "graph", "grid"])
def test_pou_report_matches_the_loop_reference(kind):
    for pou, grouped in seeded_families(kind):
        for family in (pou, grouped):
            assert pou_report(family).to_dict() == \
                reference_pou_report(family).to_dict()


def test_pou_report_matches_the_loop_reference_when_truncated():
    for pou, _ in seeded_families(1):
        chopped = PartitionOfUnity(pou.space, pou.matrix[:-1],
                                   pou.set_index[:-1], pou.activity[:-1])
        cert = pou_report(chopped)
        assert not cert.passed
        assert cert.to_dict() == reference_pou_report(chopped).to_dict()


def hidden_entries_family(at_sample_0, at_sample_2):
    """Two members on three samples with one entry each outside the
    activity mask: member 1 at sample 0 and member 0 at sample 2."""
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    rows = [[1.0, 1.0, at_sample_2], [at_sample_0, 0.0, 1.0]]
    mask = [[True, True, False], [False, False, True]]
    return PartitionOfUnity(space, rows, [0, 1], mask)


def test_pou_report_activity_witness_is_first_in_sample_major_order():
    family = hidden_entries_family(0.7, 0.7)
    cert = pou_report(family)
    assert not cert.passed
    assert cert.details["activity_violation"] == 0.7
    assert cert.witness == (1, 0)       # sample 0 comes before sample 2
    assert cert.to_dict() == reference_pou_report(family).to_dict()


def test_pou_report_nan_outside_the_activity_wins():
    cert = pou_report(hidden_entries_family(0.9, math.nan))
    assert not cert.passed
    assert cert.to_dict()["details"]["activity_violation"] == "nan"
    assert cert.witness == (0, 2)


def test_regrouping_does_not_move_the_series_values():
    for kind in (0, 1, 2, 3):
        for pou, grouped in seeded_families(kind, draws=2):
            sums = leaf_sums(pou.matrix, pou.activity)
            assert pou.values().tolist() == sums
            assert grouped.values().tolist() == sums


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


def test_certify_local_witness_checks_both_orders_within_tol():
    pts = np.array([0.0, 1.0, 3.0, 4.5])
    D = np.abs(pts[:, None] - pts[None, :])
    D[2, 0] -= 1e-12            # within the default tol of 1e-9
    space = MetricSpace.from_matrix(D)
    assert not space.exactly_symmetric()
    # slope 1 on every pair but (2, 0), where it is a hair above
    cert = certify_local_witness(Tabulated(space, pts),
                                 LocalWitness.from_triples([(0, 2.0, 1.0)]))
    assert cert.witness == (0, (2, 0))
    assert cert.worst_violation == 3.0 - D[2, 0] > 0.0
    assert cert.details["per_entry_worst"] == [3.0 - D[2, 0]]


def test_k_lipschitz_checks_both_orders_within_tol():
    """A validated matrix symmetric only within tol: the pair (2, 0)
    breaks K = 10 by five times tol, and (0, 2) does not."""
    pts = np.array([0.0, 1.0, 3.0, 4.5])
    D = np.abs(pts[:, None] - pts[None, :])
    D[2, 0] -= 5e-10            # within the default tol of 1e-9
    space = MetricSpace.from_matrix(D)
    assert not space.exactly_symmetric()
    cert = check_k_lipschitz(Tabulated(space, 10.0 * pts), 10.0)
    assert not cert.passed
    assert cert.witness == (2, 0)
    assert cert.worst_violation == 30.0 - 10.0 * D[2, 0] > 4.0e-9
    A = Subset(space, range(4))
    for call in (lambda: mcshane_envelopes(A, 10.0 * pts, 10.0),
                 lambda: random_k_extension(A, 10.0 * pts, 10.0)):
        with pytest.raises(PreconditionError,
                           match=r"not 10.0-Lipschitz on A") as err:
            call()
        assert err.value.witness == (2, 0)


def test_certificate_dict_is_strict_json():
    cert = Certificate("check", False, math.nan, 1e-9, (0, 1),
                       details={"rates": np.array([1.0, math.inf, math.nan])})
    d = json.loads(json.dumps(cert.to_dict(), allow_nan=False))
    assert d["worst_violation"] == "nan"
    assert d["details"]["rates"] == [1.0, "inf", "nan"]


@pytest.mark.parametrize("p, ids", [(-1, [0]), (2.9, [0]), (4, [0]),
                                    (1, [-1]), (1, [0.5]), (1, [[0]])])
def test_feasible_interval_takes_sample_ids_only(p, ids):
    # p = -1 used to return the interval of sample 3, (-3, 3)
    space = MetricSpace.from_grid(0, 3, 1)
    with pytest.raises(InputError):
        feasible_interval(space, ids, [0.0] * len(ids), p, 1.0)
    assert feasible_interval(space, [0], [0.0], 3, 1.0) == (-3.0, 3.0)
