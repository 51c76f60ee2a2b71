import time
import warnings

import numpy as np
import pytest

from lipkit import (Constant, CoverError, CozeroCover, MetricSpace,
                    PartitionOfUnity, PreconditionError, Tabulated,
                    check_k_lipschitz, frolik_pou, global_lip,
                    index_subordinate, mather_refine, nonexpansive_split,
                    pou_report, staircase, staircase_partial_sum,
                    witness_from_balls)
from lipkit import partition_of_unity
from lipkit.fixtures import three_point_shrink

from helpers import (make_ball_cover, make_space, ref_frolik_pou,
                     ref_mather_refine)


def recursion_steps(K, t):
    """The defining recursion, evaluated literally as the oracle."""
    steps = [min(1.0, 1.0 / t)]
    for k in range(2, K + 1):
        steps.append(min(float(k), 1.0 / t) - sum(steps))
    return steps


LOG_GRID = np.geomspace(1e-3, 10.0, 200)


def test_staircase_point_values():
    assert staircase(1, 2.0) == 0.5
    assert staircase(3, 1.0) == 0.0
    assert staircase_partial_sum(3, 0.4) == 2.5


def test_staircase_matches_recursion():
    for t in LOG_GRID:
        rec = recursion_steps(50, float(t))
        for k in range(1, 51):
            assert abs(staircase(k, float(t)) - rec[k - 1]) <= 1e-12, (k, t)


def test_staircase_partial_sums_exact():
    for t in LOG_GRID:
        for K in (1, 2, 5, 17, 50):
            acc = 0.0
            for k in range(1, K + 1):
                acc += staircase(k, float(t))
            assert acc == staircase_partial_sum(K, float(t)) == min(K, 1.0 / t)


def test_staircase_range_and_cozero():
    for t in LOG_GRID:
        for k in range(1, 20):
            v = staircase(k, float(t))
            assert 0.0 <= v <= 1.0
            if k > 1 and v > 0.0:
                assert t < 1.0 / (k - 1)   # coz(l_{k+1}) inside (0, 1/k)


def test_staircase_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        staircase(0, 1.0)
    with pytest.raises(PreconditionError):
        staircase(1, 0.0)
    with pytest.raises(PreconditionError):
        staircase_partial_sum(2, -1.0)


def test_staircase_vectorized():
    out = staircase(2, np.array([0.4, 1.0, 3.0]))
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])


def single_set_cover():
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    return space, CozeroCover(space, [Constant(space, 0.5)])


def test_mather_single_set():
    space, cover = single_set_cover()
    ref = mather_refine(cover)
    np.testing.assert_array_equal(ref.eta.values(), np.full(3, 0.25))
    np.testing.assert_array_equal(ref.gammas[0].values(), np.full(3, 0.375))


def test_mather_three_point_exact_dyadics():
    space, cover, expected = three_point_shrink()
    ref = mather_refine(cover)
    np.testing.assert_array_equal(ref.eta.values(), expected["eta"])
    for g, want, members in zip(ref.gammas, expected["gamma"], expected["sets"]):
        np.testing.assert_array_equal(g.values(), want)
        np.testing.assert_array_equal(g.values() > 0.0, members)


def test_mather_activity_bound():
    space, cover, _ = three_point_shrink()
    ref = mather_refine(cover)
    for p in range(space.n):
        k = ref.active_bound(p)
        assert ref.eta.values()[p] > 2.0 ** -k
        for n in range(k, len(ref.gammas)):
            assert ref.gammas[n].values()[p] == 0.0
    # p = 0: eta = 1/4 > 2^-3, so only sets up to index 3 may be active
    assert ref.active_bound(0) == 3


@pytest.mark.parametrize("rows, message", [
    # both prechecks fail on witness 1: its bound is checked first
    (([0.0, 0.0, 0.75], [0.25, 0.25, 0.0]),
     "witness 1 exceeds its 2^-1 bound by 2.500e-01"),
    (([0.5, 0.0, 0.0], [0.0, 0.05, 0.25]),
     "witness 2 is not 1-Lipschitz: constant 2.000000 at pair (1, 2)"),
    # witness 1's bound failure comes before witness 2's Lipschitz one
    (([0.75, 0.7, 0.65], [0.0, 0.05, 0.25]),
     "witness 1 exceeds its 2^-1 bound by 2.500e-01"),
    # and witness 1's Lipschitz failure before witness 2's bound one
    (([0.0, 0.0, 0.5], [0.5, 0.5, 0.0]),
     "witness 1 is not 1-Lipschitz: constant 5.000000 at pair (1, 2)"),
], ids=["bound-before-lipschitz", "lipschitz", "bound-then-lipschitz",
        "lipschitz-then-bound"])
def test_mather_prechecks_match_the_reference(rows, message):
    space = MetricSpace.from_points([0.0, 1.0, 1.1])
    cover = CozeroCover(space, [Tabulated(space, r) for r in rows])
    for build in (mather_refine, ref_mather_refine):
        with pytest.raises(PreconditionError) as caught:
            build(cover)
        assert str(caught.value) == message
    if "not 1-Lipschitz" in message:
        n = int(message.split()[1])     # "witness n is not ..."
        est = global_lip(cover.witnesses[n - 1])
        assert message.endswith(f"constant {est.value:.6f} "
                                f"at pair {est.witness}")


@pytest.mark.parametrize("build, rows, match", [
    # 2^-2 * 5e-324 rounds to 0, so eta(1) = 0 and active_bound(1) would
    # count forever
    (mather_refine, ([0.5, 0.0, 0.0], [0.0, 5e-324, 0.25]),
     "eta underflows to 0 at sample 1"),
    # normalized, these are the witnesses above, so eta(1) = 0 again and
    # no reciprocal of the mixture is taken
    (frolik_pou, ([1.0, 0.0, 0.0], [0.0, 5e-324, 1.0]),
     "eta underflows to 0 at sample 1"),
    # eta(1) = 5e-324 > 0, but the rebuilt mixture at sample 1 is too
    # small for its reciprocal to be finite
    (frolik_pou, ([0.5, 1e-323, 0.0], [0.0, 0.0, 0.25]),
     "1 / mixture is not finite at sample 1"),
    # the second shrunken witness peaks at a subnormal, so its rescaling
    # factor 1 / beta overflows
    (frolik_pou, ([0.5, 0.5, 0.0], [0.0, 1e-320, 1e-320]),
     "1 / mixture is not finite at sample 0"),
    # 1 / mixture(1) is about 1e300: finite, but past every integer type,
    # so only an exact count reaches the member cap
    (frolik_pou, ([0.5, 1e-300, 0.0], [0.0, 0.0, 0.25]),
     r"needs \d{300} members for 2 sets"),
], ids=["mather-eta-underflow", "frolik-eta-underflow", "frolik-tiny-mixture",
        "frolik-subnormal-peak", "frolik-huge-reciprocal"])
def test_tiny_witnesses_raise_a_cover_error_without_warnings(build, rows,
                                                             match):
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = CozeroCover(space, [Tabulated(space, r) for r in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoverError, match=match):
            build(cover)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_frolik_matches_the_field_tree_reference():
    rng = np.random.default_rng(2024)
    for kind in range(4):
        for _ in range(6):
            space = make_space(rng, n_max=30, kinds=(kind,))
            balls = witness_from_balls(space, make_ball_cover(rng, space))
            # steeper copies take the branch that rescales by 1 / c
            steep = CozeroCover(space, [
                Tabulated(space, rng.uniform(1.0, 3.0) * w.values())
                for w in balls.witnesses])
            for cover in (balls, steep):
                check_against_reference(cover)


def check_against_reference(cover):
    new, ref = frolik_pou(cover), ref_frolik_pou(cover)
    assert same_bits(new.matrix, ref.matrix)
    assert new.set_index == ref.set_index
    assert same_bits(new.activity, ref.activity)
    assert new.k_caps == ref.k_caps
    a, b = new.refinement, ref.refinement
    assert same_bits(np.stack([g.values() for g in a.gammas]),
                     np.stack([g.values() for g in b.gammas]))
    assert same_bits(a.eta.values(), b.eta.values())
    assert a.dominated == b.dominated
    assert new.notes == ref.notes


def test_frolik_nan_witness_fails_as_the_reference_does():
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = CozeroCover(space, [Tabulated(space, [0.5, np.nan, 0.0]),
                                Tabulated(space, [0.0, 0.5, 1.0])])
    messages = []
    for build in (frolik_pou, ref_frolik_pou):
        with pytest.raises(CoverError) as caught:
            build(cover)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == "refinement lost sample 1"


def test_frolik_checks_no_scaled_row_again():
    """The second witness has slope 25/3; scaled by 3/25 it is 1-Lipschitz
    only up to an ulp, which the Mather checks used to refuse at tol 0
    ("witness 2 is not 1-Lipschitz: constant 1.000000")."""
    space = MetricSpace.from_points([0.0, 0.1, 0.2])
    cover = CozeroCover(space, [Constant(space, 0.5), Tabulated(
        space, 25 / 3 * np.array([0.0, 0.1, 0.2]))])
    assert pou_report(frolik_pou(cover, 0.0)).passed
    assert same_bits(frolik_pou(cover, 0.0).matrix, frolik_pou(cover).matrix)


def test_cover_gap_rejected():
    space = MetricSpace.from_points([0.0, 1.0, 5.0])
    with pytest.raises(CoverError):
        witness_from_balls(space, [[(0, 1.0)]])


def test_frolik_single_set_exact_halves():
    space, cover = single_set_cover()
    pou = frolik_pou(cover)
    assert len(pou) == 2
    for m, row in zip(pou.members, pou.matrix):
        np.testing.assert_array_equal(m.values(), np.full(3, 0.5))
        assert np.shares_memory(m.values(), row)    # a view, not a copy
    assert not pou.matrix.flags.writeable
    assert pou.set_index == [0, 0]
    cert = pou_report(pou)
    assert cert.passed and cert.worst_violation == 0.0


def test_frolik_three_point_pipeline():
    space, cover, _ = three_point_shrink()
    pou = frolik_pou(cover)
    cert = pou_report(pou)
    assert cert.passed
    assert cert.worst_violation <= 1e-9
    for m in pou.members:
        assert global_lip(m).finite


def test_frolik_subordination_support():
    space, cover, _ = three_point_shrink()
    pou = frolik_pou(cover)
    wvals = [w.values() for w in cover.witnesses]
    for m, n in zip(pou.members, pou.set_index):
        on = m.values() > 0.0
        assert (wvals[n][on] > 0.0).all()


def test_frolik_makes_one_staircase_row_per_step_index(monkeypatch):
    """The sets alive at step k share one staircase(k, mixture) row, and
    the pass over the witness stack builds no inner cover."""
    rng = np.random.default_rng(11)
    covers = [witness_from_balls(space, make_ball_cover(rng, space))
              for space in (make_space(rng, n_max=30) for _ in range(8))]
    calls = []

    def spy(k, t):
        calls.append(k)
        return staircase(k, t)

    def no_cover(*args):
        raise AssertionError("frolik_pou built a CozeroCover")
    monkeypatch.setattr(partition_of_unity, "staircase", spy)
    monkeypatch.setattr(partition_of_unity, "CozeroCover", no_cover)
    shared = 0
    for cover in covers:
        calls.clear()
        pou = frolik_pou(cover)
        assert calls == list(range(1, max(pou.k_caps) + 1))
        shared += len(pou) > len(calls)
    assert shared      # some family has more members than step indices


def test_frolik_member_cap_fails_loudly(monkeypatch):
    space, cover, _ = three_point_shrink()
    monkeypatch.setattr(partition_of_unity, "_MEMBER_CAP", 2)
    with pytest.raises(CoverError, match="cap 2"):
        frolik_pou(cover)


def test_index_subordinate_single_set_is_one():
    space, cover = single_set_cover()
    grouped = index_subordinate(frolik_pou(cover))
    assert len(grouped) == 1
    np.testing.assert_array_equal(grouped.members[0].values(), np.ones(3))


def test_index_subordinate_holds_the_family_sum(monkeypatch):
    """The regrouped family keeps the leaves of the staircase family,
    so it holds that family's sum: the same array, and the exact
    column sum of the leaves runs once for both."""
    rng = np.random.default_rng(31)
    space = make_space(rng, n_max=20)
    cover = witness_from_balls(space, make_ball_cover(rng, space))
    sums = []
    compute = PartitionOfUnity._compute_values
    monkeypatch.setattr(PartitionOfUnity, "_compute_values",
                        lambda self: sums.append(self) or compute(self))
    pou = frolik_pou(cover)
    grouped = index_subordinate(pou)
    assert grouped.values().tobytes() == pou.values().tobytes()
    assert grouped.values().tobytes() == compute(grouped).tobytes()
    assert sums == [pou]


def test_index_subordinate_three_point_confinement():
    space, cover, expected = three_point_shrink()
    grouped = index_subordinate(frolik_pou(cover))
    assert len(grouped) == 2
    assert grouped.set_index == [0, 1]
    v1, v2 = (m.values() for m in grouped.members)
    assert v1[0] == 1.0 and v2[0] == 0.0    # set 2 misses sample 0
    assert v2[2] == 1.0 and v1[2] == 0.0    # set 1 misses sample 2
    assert pou_report(grouped).passed


def test_index_subordinate_pads_empty_groups():
    """The second witness sits below half the mixture everywhere, so
    mather_refine drops it and frolik_pou gives it no member; the
    regrouping still has one row per cover set, a zero one for it."""
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = CozeroCover(space, [Constant(space, 0.5), Constant(space, 0.01)])
    pou = frolik_pou(cover)
    assert pou.refinement.dominated == [1] and set(pou.set_index) == {0}
    grouped = index_subordinate(pou)
    assert len(grouped) == 2
    assert grouped.set_index == [0, 1]
    np.testing.assert_array_equal(grouped.members[0].values(), np.ones(3))
    np.testing.assert_array_equal(grouped.members[1].values(), np.zeros(3))
    assert not grouped.activity[1].any()
    assert pou_report(grouped).passed


def test_regrouping_preserves_sums_bit_for_bit():
    rng = np.random.default_rng(31)
    space = make_space(rng, n_max=15)
    pou = frolik_pou(witness_from_balls(space, make_ball_cover(rng, space)))
    grouped = index_subordinate(pou)
    a = pou_report(pou)
    b = pou_report(grouped)
    assert a.worst_violation == b.worst_violation


def ulp_distance(a, b):
    """Units in the last place between two nonnegative float arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_blend_reads_the_regrouped_staircase_in_closed_form(monkeypatch):
    """On the support of R_n the staircase steps of set n telescope to
    1/m, so the regrouped member is R_n / m: the blends' partition is
    index_subordinate(frolik_pou(cover)) within one ulp, with the same
    activity, and is built without either."""
    rng = np.random.default_rng(2024)
    covers = [witness_from_balls(space, make_ball_cover(rng, space))
              for space in (make_space(rng, n_max=30) for _ in range(200))]
    grouped = [index_subordinate(frolik_pou(cover)) for cover in covers]

    def staircase_family(*args, **kwargs):
        raise AssertionError("the blend built the staircase family")
    monkeypatch.setattr(partition_of_unity, "frolik_pou", staircase_family)
    monkeypatch.setattr(partition_of_unity, "index_subordinate",
                        staircase_family)
    identical = 0
    for cover, ref in zip(covers, grouped):
        xi = partition_of_unity._blend(
            cover, lambda n, xi: Constant(cover.space, 1.0)).partition
        assert xi.set_index == ref.set_index
        assert same_bits(xi.activity, ref.activity)
        assert ulp_distance(xi.matrix, ref.matrix).max() <= 1
        identical += same_bits(xi.matrix, ref.matrix)
        assert pou_report(xi).passed
    assert identical        # most families agree bit for bit


def test_witness_from_balls_tent_shape():
    space = MetricSpace.from_points([0.0, 1.0, 2.0])
    cover = witness_from_balls(space, [[(0, 1.5)], [(2, 1.5)]])
    np.testing.assert_array_equal(cover.witnesses[0].values(), [1.5, 0.5, 0.0])
    np.testing.assert_array_equal(cover.witnesses[1].values(), [0.0, 0.5, 1.5])


def test_witness_from_balls_rejects_bad_input():
    space = MetricSpace.from_points([0.0, 1.0])
    with pytest.raises(CoverError):
        witness_from_balls(space, [[]])
    with pytest.raises(PreconditionError):
        witness_from_balls(space, [[(0, 0.0)]])


def test_random_ball_cover_pipeline():
    rng = np.random.default_rng(77)
    for _ in range(8):
        space = make_space(rng, n_max=20)
        cover = witness_from_balls(space, make_ball_cover(rng, space))
        pou = frolik_pou(cover)
        cert = pou_report(pou)
        assert cert.passed, cert.summary_line()


def test_split_reconstructs_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(10):
        space = make_space(rng, n_max=20)
        f = Tabulated(space, rng.normal(size=space.n))
        K = global_lip(f).value
        res = nonexpansive_split(f, K)
        m = max(1, int(np.ceil(K)))
        assert len(res.pieces) == m
        for piece in res.pieces:
            assert check_k_lipschitz(piece, K / m).passed
            assert check_k_lipschitz(piece, 1.0).passed
        np.testing.assert_array_equal(res.reconstruction.values(), f.values())


def test_split_piece_counts():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    t = space.coords[:, 0]
    f = Tabulated(space, 2.5 * t)
    assert len(nonexpansive_split(f, 2.5).pieces) == 3
    assert len(nonexpansive_split(Constant(space, 3.0), 0.0).pieces) == 1
    assert len(nonexpansive_split(Tabulated(space, t), 1.0).pieces) == 1


def test_split_refuses_a_constant_past_its_budget(monkeypatch):
    """m (n + 32) above the budget is refused before any work: a finite
    K = 1e300 at once, where it used to build fields until memory ran
    out, and at the edge of a smaller budget K = m pieces pass while
    K = m + 1 are refused."""
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Constant(space, 1.0)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="split budget"):
        nonexpansive_split(f, 1e300)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(partition_of_unity, "_SPLIT_BUDGET", 10 * 37)
    assert nonexpansive_split(f, 10.0).m == 10
    with pytest.raises(PreconditionError, match="split budget"):
        nonexpansive_split(f, 10.5)


def test_split_rejects_false_constant():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Tabulated(space, 2.5 * space.coords[:, 0])
    with pytest.raises(PreconditionError):
        nonexpansive_split(f, 2.0)
