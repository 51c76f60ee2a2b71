import warnings

import numpy as np
import pytest

from lipkit import (Constant, CoverError, CozeroCover, DistanceTo, InputError,
                    MetricSpace, PreconditionError, Tabulated, check_k_lipschitz,
                    frolik_pou, global_lip, index_subordinate, mather_refine,
                    minimum, nonexpansive_split, pou_report, staircase,
                    staircase_partial_sum, witness_from_balls)
from lipkit.fixtures import three_point_shrink

from helpers import make_ball_cover, make_space, ref_frolik_pou


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
    assert same_bits(new.term_matrix(), ref.term_matrix())
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


def test_cover_gap_rejected():
    space = MetricSpace.from_points([0.0, 1.0, 5.0])
    with pytest.raises(CoverError):
        witness_from_balls(space, [[(0, 1.0)]])


def test_frolik_single_set_exact_halves():
    space, cover = single_set_cover()
    pou = frolik_pou(cover)
    assert len(pou) == 2
    for m in pou.members:
        np.testing.assert_array_equal(m.values(), np.full(3, 0.5))
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


def test_frolik_member_cap_fails_loudly():
    space, cover, _ = three_point_shrink()
    with pytest.raises(CoverError):
        frolik_pou(cover, max_members=2)


def test_index_subordinate_single_set_is_one():
    space, cover = single_set_cover()
    grouped = index_subordinate(frolik_pou(cover))
    assert len(grouped) == 1
    np.testing.assert_array_equal(grouped.members[0].values(), np.ones(3))


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
    space, cover = single_set_cover()
    grouped = index_subordinate(frolik_pou(cover), size=3)
    assert len(grouped) == 3
    assert grouped.set_index == [0, 1, 2]
    np.testing.assert_array_equal(grouped.members[1].values(), np.zeros(3))
    np.testing.assert_array_equal(grouped.members[2].values(), np.zeros(3))
    assert pou_report(grouped).passed


def test_index_subordinate_rejects_small_size():
    space, cover, _ = three_point_shrink()
    pou = frolik_pou(cover)
    with pytest.raises(InputError):
        index_subordinate(pou, size=1)


def test_regrouping_preserves_sums_bit_for_bit():
    rng = np.random.default_rng(31)
    space = make_space(rng, n_max=15)
    pou = frolik_pou(witness_from_balls(space, make_ball_cover(rng, space)))
    grouped = index_subordinate(pou)
    a = pou_report(pou)
    b = pou_report(grouped)
    assert a.worst_violation == b.worst_violation


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


def test_split_rejects_false_constant():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Tabulated(space, 2.5 * space.coords[:, 0])
    with pytest.raises(PreconditionError):
        nonexpansive_split(f, 2.0)
