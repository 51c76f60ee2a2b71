import math
import warnings

import numpy as np
import pytest

from lipkit import (Constant, IncreasingCover, InputError, Interval,
                    LocalWitness, MetricSpace, PreconditionError, Subset,
                    Tabulated, certify_local_witness, check_k_lipschitz,
                    decompose, generate_local_witness,
                    generate_pointwise_witness, global_lip,
                    increasing_cover, local_extend, modulus_witness,
                    witness_from_modulus)
from lipkit import _pairs, local_lipschitz
from lipkit.fixtures import (cusp_curve, reciprocal_on_ray,
                             sin_reciprocal_on_interval, square_on_grid)
from lipkit.local_lipschitz import (_cover_from_oscillation, _slice_cover,
                                    _slice_groups)

from helpers import (make_space, ref_certify_local_witness, ref_cover_sets,
                     ref_radii_witness, ref_slice_peaks,
                     ref_witness_from_modulus, triples)

TOL = 1e-9


def restriction_slope(space, f, ids):
    """Exhaustive pair slope of f over the given sample ids."""
    v = f.values()[ids]
    D = space.pairwise()[np.ix_(ids, ids)]
    iu = np.triu_indices(len(ids), 1)
    return float((np.abs(v[:, None] - v[None, :])[iu] / D[iu]).max())


def test_increasing_cover_square_example():
    space, f, witness = square_on_grid()
    cover = increasing_cover(f, witness)
    top = int(cover.thresholds.max())
    assert top == 10
    whole = cover.eta <= 10
    assert whole.all()
    slope = restriction_slope(space, f, np.flatnonzero(whole))
    assert slope == pytest.approx(5.9, rel=1e-9)
    assert slope <= 10.0
    worst, _ = cover.soundness_check()
    assert worst <= TOL


def test_increasing_cover_levels_nested_and_sound():
    space, f, witness = sin_reciprocal_on_interval()
    cover = increasing_cover(f, witness)
    prev = np.zeros(space.n, dtype=bool)
    for t in cover.thresholds:
        cur = cover.eta <= t
        assert (prev <= cur).all()
        ids = np.flatnonzero(cur)
        if ids.size > 1:
            assert restriction_slope(space, f, ids) <= float(t) + TOL
        prev = cur
    assert prev.all()
    worst, _ = cover.soundness_check()
    assert worst <= TOL


def test_increasing_cover_constant_field():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Constant(space, 3.0)
    witness = LocalWitness.from_triples([(p, 10.0, 0.0) for p in range(space.n)])
    cover = increasing_cover(f, witness)
    assert (cover.eta <= 1).all()
    worst, _ = cover.soundness_check()
    assert worst <= TOL


def test_increasing_cover_rejects_failing_witness():
    space, f, _ = square_on_grid()
    bad = LocalWitness.from_triples([(p, 10.0, 0.5) for p in range(space.n)])
    with pytest.raises(PreconditionError):
        increasing_cover(f, bad)


def test_increasing_cover_refuses_a_nan_oscillation():
    space = MetricSpace.from_grid(0, 3, 1)
    f = Tabulated(space, [0.0, math.nan, 0.0, 0.0])
    witness = LocalWitness.from_triples([(p, 0.4, 1.0) for p in range(4)])
    with pytest.raises(PreconditionError, match="NaN") as err:
        increasing_cover(f, witness)
    assert err.value.witness == (0, 1)


def test_an_infinite_oscillation_is_refused_with_its_pair():
    """One infinite value leaves no finite level: both calls of the
    bounded oscillation, and the compressed rule (where inf / inf is a
    NaN), refuse it naming the pair, with no numpy warning."""
    space = MetricSpace.from_grid(0, 3, 1)
    f = Tabulated(space, [0.0, math.inf, 0.0, 0.0])
    witness = LocalWitness.from_triples([(p, 0.4, 1.0) for p in range(4)])
    calls = [(lambda: increasing_cover(f, witness), "infinite"),
             (lambda: modulus_witness(f, witness), "infinite"),
             (lambda: modulus_witness(f, witness, "unbounded"), "NaN")]
    for call, what in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=what) as err:
                call()
        assert err.value.witness == (0, 1)


def test_a_level_past_the_int64_range_is_refused_with_its_entry():
    """osc / delta = 1e200 / 1e-300 overflows to inf, and a finite level
    of 1e19 still has no int64 ceiling: both used to wrap to INT_MIN and
    come out as level 1, an unsound cover.  Each rule refuses the first
    such entry, naming it and its point, with no numpy warning; a level
    just inside the range keeps its exact ceiling."""
    space = MetricSpace.from_grid(0.0, 1.0, 0.25, validate=False)
    f = Tabulated(space, [0.0, 1e200, 0.0, 1e200, 0.0])
    order = [3, 1, 0, 2, 4]
    witness = LocalWitness(order, np.full(5, 1e-300), np.zeros(5))
    for rule in ("bounded", "unbounded"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError,
                               match="entry 0 at point 3 has level") as err:
                modulus_witness(f, witness, rule)
        assert err.value.witness == (0, 3)
    g = Tabulated(space, [0.0, 1.0, 0.0, 1.0, 0.0])   # levels 1 / 0.1 = 10
    rates = [0.0, 0.0, 1e19, 0.0, 0.0]
    with pytest.raises(PreconditionError, match="entry 2 at point 0"):
        increasing_cover(g, LocalWitness(order, np.full(5, 0.1), rates))
    rates[2] = 2.0 ** 62
    cover = increasing_cover(g, LocalWitness(order, np.full(5, 0.1), rates))
    assert cover.thresholds.tolist() == [10, 2 ** 62]
    assert cover.eta.tolist() == [2 ** 62, 10, 10, 10, 10]


def test_gaps_past_the_float_range_are_inf_without_a_warning():
    """|1e308 - (-1e308)| overflows to inf: every pair check reads it as
    an infinite gap, and the local constructions refuse it, quietly."""
    space = MetricSpace.from_grid(0, 3, 1)
    f = Tabulated(space, [0.0, 1e308, -1e308, 0.0])
    witness = LocalWitness.from_triples([(p, 0.6, 1.0) for p in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = check_k_lipschitz(f, 1.0)
        assert not cert.passed and cert.worst_violation == math.inf
        assert global_lip(f).value == math.inf
        assert generate_pointwise_witness(f).constants[1] == math.inf
        cert = certify_local_witness(f, witness)
        assert cert.worst_violation == math.inf
        assert cert.witness == (1, (1, 2))
        for call in (lambda: generate_local_witness(f),
                     lambda: increasing_cover(f, witness),
                     lambda: modulus_witness(f, witness)):
            with pytest.raises(PreconditionError):
                call()


def test_generated_witness_skips_a_tolerated_diagonal():
    """A diagonal entry of 1e-12 passes validation; the radius is still
    the distance to the nearest distinct sample."""
    pts = np.array([0.0, 1.0, 3.0])
    D = np.abs(pts[:, None] - pts[None, :])
    D[0, 0] = 1e-12
    space = MetricSpace.from_matrix(D)
    np.testing.assert_array_equal(space.nearest_positive(), [1.0, 1.0, 2.0])
    witness = generate_local_witness(Tabulated(space, pts))
    assert witness.deltas.tolist() == [1.0, 1.0, 2.0]


def test_a_domain_witness_is_the_sub_space_witness_bit_for_bit():
    """generate_local_witness(f, domain=A) reads the samples of A only:
    its entries are those generated on the sub-space of A's distances
    (the route lipkit insert took), mapped back to sample ids, bit for
    bit, on the four backends and on unvalidated asymmetric matrices,
    one symmetric on A only and one with a zero off the diagonal."""
    rng = np.random.default_rng(37)
    spaces = [make_space(rng, n_max=24, kinds=[k])
              for k in range(4) for _ in range(3)]
    D = rng.uniform(0.5, 3.0, size=(12, 12))
    np.fill_diagonal(D, 0.0)
    D[:6, :6] = np.minimum(D[:6, :6], D[:6, :6].T)
    D[7, 9] = 0.0
    spaces.append(MetricSpace.from_matrix(D, validate=False))
    for space in spaces:
        v = rng.normal(size=space.n)
        v[rng.integers(space.n)] = v[0]         # a tie of values
        domains = [np.arange(min(6, space.n)), [int(rng.integers(space.n))],
                   np.arange(space.n)] + [
            rng.choice(space.n, size=k, replace=False)
            for k in (2, space.n // 2, space.n - 1)]
        for ids in domains:
            A = Subset(space, ids)
            sub = MetricSpace.from_matrix(
                space.pairwise()[np.ix_(A.members, A.members)],
                validate=False)
            want = generate_local_witness(Tabulated(sub, v[A.members]))
            got = generate_local_witness(Tabulated(space, v), domain=A)
            assert got.points.tobytes() == A.members[want.points].tobytes()
            assert got.deltas.tobytes() == want.deltas.tobytes()
            assert got.constants.tobytes() == want.constants.tobytes()


def test_bounded_oscillation_skips_the_sweep_with_the_same_cover():
    """fl(max v - min v) is the swept bounded oscillation bit for bit, so
    the levels, and the thresholds and eta they give, are those of the
    sweep's value."""
    rng = np.random.default_rng(31)
    cases = [(MetricSpace.from_points([0.0]), np.array([3.0]))]
    for _ in range(15):
        space = make_space(rng, n_max=16)
        scale = 10.0 ** float(rng.integers(-3, 4))
        cases.append((space, scale * rng.normal(size=space.n)))
        # ties: repeated extremes
        cases.append((space, rng.choice([-1.5, 0.0, 0.1, 2.0], size=space.n)))
    for space, v in cases:
        witness = generate_local_witness(Tabulated(space, v))
        swept, _ = _pairs.worst_excess(space, v, lambda r, c, d, o: 0.0)
        swept = max(swept, 0.0)
        got = _cover_from_oscillation(space, witness, v, False, TOL)
        assert np.float64(got.osc_bound).tobytes() == \
            np.float64(swept).tobytes()
        levels = np.maximum(swept / witness.deltas, witness.constants)
        assert got.levels.tobytes() == levels.tobytes()


def test_oscillation_refusals_keep_their_pairs():
    space = MetricSpace.from_grid(0, 3, 1)
    witness = LocalWitness.from_triples([(p, 0.4, 1.0) for p in range(4)])
    # equal infinities: a NaN gap, under either rule
    for rule in ("bounded", "unbounded"):
        with pytest.raises(PreconditionError, match="NaN") as err:
            modulus_witness(Tabulated(space, [math.inf, math.inf, 0.0, 0.0]),
                            witness, rule)
        assert err.value.witness == (0, 1)


def test_soundness_check_reports_a_nan_excess():
    space = MetricSpace.from_grid(0, 3, 1)
    v = np.array([0.0, 0.0, math.nan, 0.0])
    # U_1 = {0, 1} holds a finite excess, U_2 the NaN pair (0, 2)
    cover = IncreasingCover(space, [], None, np.array([1, 2]),
                            np.array([1, 1, 2, 2]), 0.0, v, False)
    worst, witness = cover.soundness_check()
    assert math.isnan(worst) and witness == (2, (0, 2))


def check_slice_cover(space, witness, v, extra, monkeypatch):
    """_slice_cover's peaks (seen by a spy on _slice_groups), exponents
    and ball groups against ref_slice_peaks, bit for bit."""
    seen = []

    def spy(peaks, max_slices):
        seen.append(np.array(peaks))
        return _slice_groups(peaks, max_slices)
    monkeypatch.setattr(local_lipschitz, "_slice_groups", spy)
    want = ref_slice_peaks(space, witness, v)
    for max_slices in (1, 3, 8):
        exps, cover = _slice_cover(space, witness, v, max_slices, extra)
        assert seen.pop().tobytes() == want.tobytes()
        ref_exps, groups = _slice_groups(want, max_slices)
        assert exps == ref_exps
        assert cover.witnesses[:len(extra)] == list(extra)
        unions = cover.witnesses[len(extra):]
        assert len(unions) == len(groups)
        for union, grp in zip(unions, groups):
            assert union.centers.tolist() == witness.points[grp].tolist()
            assert union.radii.tolist() == witness.deltas[grp].tolist()


@pytest.mark.parametrize("on_domain", [False, True], ids=["all", "domain"])
@pytest.mark.parametrize("kind", [0, 1, 2, 3],
                         ids=["matrix", "points", "graph", "grid"])
def test_local_layer_matches_the_row_scan_references(kind, on_domain,
                                                     monkeypatch):
    rng = np.random.default_rng(60 + kind)
    for trial in range(4):
        space = make_space(rng, n_max=30, kinds=[kind])
        D = space.pairwise()
        n = space.n
        f = Tabulated(space, rng.normal(size=n))
        witness = generate_local_witness(f) if trial == 0 else \
            ref_radii_witness(f, rng.uniform(0.2, 1.0, n) * D.max() / 3)
        domain = None
        if on_domain:
            domain = Subset(space, rng.choice(n, size=int(rng.integers(1, n)),
                                              replace=False))
        half = rng.permutation(n)[:n // 2 + 1]
        for w in (witness,
                  LocalWitness(witness.points, witness.deltas,
                               0.5 * witness.constants),
                  LocalWitness.from_triples([(int(p), 0.3, 1.0) for p in half])):
            assert certify_local_witness(f, w, domain).to_dict() == \
                ref_certify_local_witness(f, w, domain).to_dict()
        for rule in ("bounded", "unbounded"):
            m = modulus_witness(f, witness, rule)
            # the entry levels, max(K_p, osc_bound / delta_p) per entry
            levels = [max(K, m.cover.osc_bound / delta)
                      for _, delta, K in triples(witness)]
            assert m.cover.levels.tobytes() == np.array(levels).tobytes()
            thresholds, memberships, eta = ref_cover_sets(
                D, witness, m.cover.levels)
            assert np.array_equal(m.cover.thresholds, thresholds)
            assert m.cover.eta.tobytes() == eta.tobytes()
            for t in thresholds:
                assert np.array_equal(m.cover.eta <= t, memberships[int(t)])
            points = rng.choice(n, size=5)
            radii = rng.uniform(0.1, 1.0, 5) * D.max()
            assert triples(witness_from_modulus(m, points, radii)) == \
                triples(ref_witness_from_modulus(m, points, radii))
        # slice peaks of the field, or of its zero-off-domain stub, also
        # on the matrix with one entry a ulp off its mirror, unvalidated
        v = f.values()
        if on_domain:
            v = np.zeros(n)
            v[domain.members] = f.values()[domain.members]
        skew = D.copy()
        skew[0, 1] = np.nextafter(skew[0, 1], math.inf)
        keep = np.isin(witness.points, half)
        partial = LocalWitness(witness.points[keep], witness.deltas[keep],
                               witness.constants[keep])
        for host in (space, MetricSpace.from_matrix(skew, validate=False)):
            check_slice_cover(host, witness, v, (), monkeypatch)
            check_slice_cover(host, partial, v, (Constant(host, 1.0),),
                              monkeypatch)


FIXTURES = {
    "square": square_on_grid,
    "reciprocal": reciprocal_on_ray,
    "sin-reciprocal": sin_reciprocal_on_interval,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decompose_reconstructs(name):
    space, f, witness = FIXTURES[name]()
    dec = decompose(f, witness)
    assert dec.residual() <= TOL
    for member, bound in zip(dec.members, dec.slice_exponents):
        v = member.values()
        assert np.isfinite(v).all()
        assert np.abs(v).max() <= 2.0 ** bound + TOL
        assert global_lip(member).finite


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decompose_members_respect_activity(name):
    space, f, witness = FIXTURES[name]()
    dec = decompose(f, witness)
    M = np.stack([m.values() for m in dec.members])
    for p in range(space.n):
        active = set(np.flatnonzero(dec.series.activity[:, p]).tolist())
        for i in range(len(dec.members)):
            if i not in active:
                assert M[i, p] == 0.0


def test_decompose_single_slice_for_tame_field():
    space = MetricSpace.from_grid(0.0, 2.0, 0.25)
    f = Tabulated(space, 0.6 + 0.1 * np.sin(space.coords[:, 0]))
    dec = decompose(f, generate_local_witness(f))
    assert len(dec.members) == 1
    assert dec.residual() <= TOL


def test_decompose_dropped_member_fails():
    space, f, witness = square_on_grid()
    dec = decompose(f, witness)
    M = np.stack([m.values() for m in dec.members])
    drop = int(np.argmax(np.abs(M).max(axis=1)))
    partial = M.sum(axis=0) - M[drop]
    gap = np.abs(f.values() - partial)
    culprit = int(np.argmax(gap))
    assert gap[culprit] > TOL


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decompose_refuses_a_value_that_is_not_finite(value):
    """Alone in its doubled ball the value meets no pair, so the
    certificate passes; the slices need a finite peak."""
    f = Tabulated(MetricSpace.from_grid(0, 2, 1), [0.0, value, 1.0])
    witness = LocalWitness([0, 1, 2], [0.4] * 3, [1.0] * 3)
    assert certify_local_witness(f, witness).passed
    with pytest.raises(PreconditionError, match=r"f\(1\) = .* not finite") as e:
        decompose(f, witness)
    assert e.value.witness == 1


def test_decompose_rejects_failing_witness():
    space, f, _ = square_on_grid()
    bad = LocalWitness.from_triples([(p, 10.0, 0.1) for p in range(space.n)])
    with pytest.raises(PreconditionError):
        decompose(f, bad)


@pytest.mark.parametrize("name,rule", [("square", "bounded"),
                                       ("sin-reciprocal", "bounded"),
                                       ("reciprocal", "unbounded")])
def test_modulus_bounds_all_pairs(name, rule):
    space, f, witness = FIXTURES[name]()
    mod = modulus_witness(f, witness, rule=rule)
    worst, pair = mod.certify(TOL)
    assert worst <= 0.0, pair
    assert (mod.levels >= mod.cover.eta).all()
    assert check_k_lipschitz(mod.level_field, mod.envelope_constant).passed


def test_modulus_constant_field():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Constant(space, 1.0)
    mod = modulus_witness(f, generate_local_witness(f))
    worst, _ = mod.certify(TOL)
    assert worst <= 0.0
    assert np.isfinite(mod.levels).all()


def test_modulus_levels_are_the_cover_levels():
    space, f, witness = square_on_grid()
    for rule in ("bounded", "unbounded"):
        mod = modulus_witness(f, witness, rule=rule)
        np.testing.assert_array_equal(mod.levels, mod.cover.eta)
        np.testing.assert_array_equal(mod.level_field.values(), mod.levels)
        assert mod.envelope_constant == \
            mod.levels.max() / space.min_positive_distance()


def test_modulus_without_a_positive_distance():
    space = MetricSpace.from_points([0.0])
    f = Constant(space, 2.0)
    mod = modulus_witness(f, LocalWitness.from_triples([(0, 1.0, 0.0)]))
    assert mod.envelope_constant == 0.0
    assert mod.certify(TOL) == (-np.inf, None)


def test_modulus_lets_a_memory_error_through(monkeypatch):
    space, f, witness = square_on_grid()

    def exhausted(self):
        raise MemoryError("no room for the distances")
    monkeypatch.setattr(MetricSpace, "min_positive_distance", exhausted)
    with pytest.raises(MemoryError):
        modulus_witness(f, witness)


def test_modulus_unknown_rule():
    space, f, witness = square_on_grid()
    with pytest.raises(PreconditionError):
        modulus_witness(f, witness, rule="sideways")


def test_modulus_converse_regenerates_witness():
    space, f, witness = square_on_grid()
    mod = modulus_witness(f, witness)
    D = space.pairwise()
    deltas = [float(D[p][D[p] > 0].min()) for p in range(space.n)]
    regenerated = witness_from_modulus(mod, range(space.n), deltas)
    assert certify_local_witness(f, regenerated).passed


def test_witness_from_modulus_shape_checked():
    space, f, witness = square_on_grid()
    mod = modulus_witness(f, witness)
    with pytest.raises(PreconditionError):
        witness_from_modulus(mod, [0, 1], [0.5])


def ray_extension_problem():
    # X samples (0, 3]; A carries 1/t on the middle band [1, 2]
    space = MetricSpace.from_grid(0.1, 3.0, 0.1)
    t = space.coords[:, 0]
    ids = np.flatnonzero((t >= 1.0 - 1e-12) & (t <= 2.0 + 1e-12))
    A = Subset(space, ids)
    phi = 1.0 / t[ids]
    witness = LocalWitness.from_triples([(int(p), 0.25, 4.0) for p in ids])
    return space, A, phi, witness


def test_local_extend_ray_fixture():
    space, A, phi, witness = ray_extension_problem()
    out = local_extend(A, phi, witness, Interval.at_least(0.0, open_end=True))
    v = out.values()
    assert (v > 0.0).all()
    assert np.abs(v[A.members] - phi).max() <= TOL
    assert out.restriction_error <= TOL
    assert certify_local_witness(out, out.local_witness).passed


def test_local_extend_whole_space_exact():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    phi = np.array([0.5, 0.25, 0.75, 0.5, 1.0])
    A = Subset.whole(space)
    out = local_extend(A, phi, generate_local_witness(Tabulated(space, phi)),
                       Interval.closed(0.0, 1.0))
    assert (out.values() == phi).all()
    assert out.restriction_error == 0.0


def test_local_extend_range_precheck():
    space, A, phi, witness = ray_extension_problem()
    bad = phi.copy()
    bad[0] = -1.0
    with pytest.raises(PreconditionError) as err:
        local_extend(A, bad, witness, Interval.at_least(0.0, open_end=True))
    assert "outside the target" in str(err.value)


def test_local_extend_refuses_a_nan_phi():
    space = MetricSpace.from_grid(0, 4, 1)
    A = Subset(space, [0, 2, 4])
    witness = LocalWitness.from_triples([(p, 0.6, 1.0) for p in (0, 2, 4)])
    assert not Interval.real_line().contains(math.nan)
    with pytest.raises(PreconditionError, match="outside the target") as err:
        local_extend(A, [0.0, math.nan, 0.5], witness, Interval.closed(0.0, 1.0))
    assert err.value.witness == 2


def test_local_extend_refuses_an_infinite_phi():
    space = MetricSpace.from_grid(0, 4, 1)
    A = Subset(space, [0, 2, 4])
    witness = LocalWitness.from_triples([(p, 0.6, 1.0) for p in (0, 2, 4)])
    with pytest.raises(PreconditionError, match="infinite") as err:
        local_extend(A, [0.0, 0.5, -math.inf], witness, Interval.real_line())
    assert err.value.witness == 4


def test_local_extend_rejects_offsite_witness():
    space, A, phi, witness = ray_extension_problem()
    stray = LocalWitness.from_triples(triples(witness) + [(0, 0.5, 1.0)])
    with pytest.raises(PreconditionError):
        local_extend(A, phi, stray, Interval.real_line())


@pytest.mark.parametrize("bad", [5, -1])
def test_witness_entry_ids_must_be_samples(bad):
    # -1 would alias the last sample, 5 would raise an IndexError
    space = MetricSpace.from_grid(0, 4, 1)
    A = Subset(space, [0, 2, 4])
    f = Tabulated(space, [0.0, 0.5, 1.0, 0.5, 0.0])
    witness = LocalWitness.from_triples([(p, 1.5, 1.0) for p in (0, 2, bad)])
    message = rf"witness entry id {bad} at position 2 lies outside 0\.\.4"
    for call in (lambda: certify_local_witness(f, witness),
                 lambda: increasing_cover(f, witness),
                 lambda: modulus_witness(f, witness),
                 lambda: local_extend(A, [0.0, 1.0, 0.0], witness,
                                      Interval.closed(0.0, 1.0))):
        with pytest.raises(InputError, match=message):
            call()


def test_local_extend_rejects_failing_witness():
    space, A, phi, witness = ray_extension_problem()
    weak = LocalWitness.from_triples([(int(p), 0.25, 0.01) for p in A.members])
    with pytest.raises(PreconditionError):
        local_extend(A, phi, weak, Interval.real_line())


def test_generated_witness_certifies_by_construction():
    for name in sorted(FIXTURES):
        space, f, _ = FIXTURES[name]()
        assert certify_local_witness(f, generate_local_witness(f)).passed


def test_cusp_has_no_uniform_local_witness():
    # opposite-pair slopes reach 1/t_min = 20, so any uniform rate below
    # that is refuted by some straddling pair
    space, f, pairs = cusp_curve()
    delta = 4.0 * space.dist(*pairs[0])
    for K in (1.0, 5.0, 19.0):
        uniform = LocalWitness.from_triples(
            [(p, delta, K) for p in range(space.n)])
        cert = certify_local_witness(f, uniform)
        assert not cert.passed, K


@pytest.mark.parametrize("points, message", [
    ([-1], r"point -1 at position 0 lies outside 0\.\.3"),
    ([0, 4], r"point 4 at position 1 lies outside 0\.\.3"),
    ([2.5], r"point 2\.5 at position 0 is not an integer"),
    ([[0]], r"points must be a flat list of sample ids"),
], ids=["negative", "too-large", "fraction", "nested"])
def test_witness_from_modulus_takes_only_samples(points, message):
    # before, the point -1 built an entry at -1 from the last sample's ball
    space = MetricSpace.from_grid(0.0, 3.0, 1.0)
    f = Tabulated(space, [0.0, 1.0, 0.0, 5.0])
    m = modulus_witness(f, LocalWitness.from_triples(
        [(p, 1.5, 5.0) for p in range(4)]))
    with pytest.raises(InputError, match=message):
        witness_from_modulus(m, points, [1.0] * len(points))


def test_modulus_gaps_past_the_float_range_raise_no_warning():
    # f(1) - f(2) overflows: the gap is inf, with no RuntimeWarning
    space = MetricSpace.from_grid(0, 3, 1)
    f = np.array([0.0, 1e308, -1e308, 0.0])
    levels = np.ones(4)
    m = local_lipschitz.ModulusWitness("bounded", space, levels,
                                       Tabulated(space, levels), 1.0, f, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert (m.matrix() == 1.0).all()
        witness = witness_from_modulus(m, [1], [1.0])
        unbounded = local_lipschitz.ModulusWitness(
            "unbounded", space, levels, m.level_field, 1.0, f, None)
        assert unbounded.matrix()[1, 2] == math.inf
    assert triples(witness) == [(1, 1.0, 1.0)]


@pytest.mark.parametrize("point", [2.9, math.nan, math.inf])
def test_witness_entry_point_must_be_an_integer(point):
    # 2.9 used to become an entry at sample 2
    with pytest.raises(InputError, match="is not an integer"):
        LocalWitness.from_triples([(0, 1.0, 1.0), (point, 1.0, 1.0)])
    assert LocalWitness.from_triples([(2.0, 1.0, 1.0)]).points.tolist() == [2]


@pytest.mark.parametrize("rows, message", [
    ([(0, 0.0, math.inf), (2.5, 1.0, 1.0)],
     r"entry point 2\.5 at position 1 is not an integer"),
    ([(0, 1.0, 1.0), (1, 1.0, math.inf), (2, 0.0, 1.0)],
     "entry at 1 needs a finite rate"),
    ([(0, 1.0, 1.0), (3, math.nan, math.nan)],
     "entry at 3 needs a positive radius"),
    ([(0, 1.0, -1.0)], "entry at 0 needs a finite rate"),
    ([(0, -0.5, 1.0)], "entry at 0 needs a positive radius"),
    ([], "a witness needs at least one entry"),
], ids=["id-first", "rate", "radius-before-rate", "negative-rate",
        "negative-radius", "empty"])
def test_witness_checks_name_the_first_bad_entry(rows, message):
    # the id rule on every point first, then entry by entry a radius
    # before a rate, then the count
    err = InputError if "integer" in message else PreconditionError
    with pytest.raises(err, match=message):
        LocalWitness.from_triples(rows)


def test_witness_arrays_are_aligned_read_only_copies():
    deltas = np.array([0.5, 1.0])
    w = LocalWitness([0, 2], deltas, [1.0, 3.0])
    deltas[0] = -1.0
    assert triples(w) == [(0, 0.5, 1.0), (2, 1.0, 3.0)]
    assert len(w) == 2
    for a in (w.points, w.deltas, w.constants):
        with pytest.raises(ValueError):
            a[0] = 1
    with pytest.raises(PreconditionError, match="a radius and a rate per"):
        LocalWitness([0, 1], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        LocalWitness.from_triples([(0, 1.0, 1.0), (1, 1.0)])


def big_sine(seed):
    """A sorted uniform 30-point cloud on [0, 1] with f = 1e8 sin(3x + seed)
    and the witness (p, 0.2, 3.5e8) at every sample: values near 1e8,
    where a rounded slope can undershoot a pair by an ulp."""
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, 30))
    space = MetricSpace.from_points(x[:, None])
    return space, Tabulated(space, 1e8 * np.sin(3.0 * x + seed))


def scale_witness(ids):
    return LocalWitness(ids, np.full(len(ids), 0.2), np.full(len(ids), 3.5e8))


@pytest.mark.parametrize("seed", [38, 43, 47])
def test_decompose_builds_its_pieces_at_value_scale_1e8(seed):
    # each piece used to be checked again against its own rounded-down
    # constant, and was refused as "not K-Lipschitz on A"
    space, f = big_sine(seed)
    dec = decompose(f, scale_witness(np.arange(space.n)))
    assert dec.residual() <= 4 * np.spacing(1e8)
    for xi, K in zip(dec.partition.members, dec.constants):
        supp = np.flatnonzero(xi.values() > 0.0)
        assert K == _pairs.max_slope(space, f.values()[supp], supp)[0]


@pytest.mark.parametrize("seed", [15, 30, 52])
def test_local_extend_builds_its_pieces_at_value_scale_1e8(seed):
    space, f = big_sine(seed)
    A = Subset(space, np.arange(0, space.n, 2))
    target = Interval.closed(-1e8, 1e8)
    out = local_extend(A, f, scale_witness(A.members), target)
    assert out.restriction_error <= 4 * np.spacing(1e8)
    assert target.contains(out.values()).all()


def test_blend_pieces_are_not_checked_again(monkeypatch):
    """A piece is built from the constant the blend measured: no pair
    excess sweep proves it again and no closedness scan runs."""
    calls = []

    def spy(name, inner):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(_pairs, "worst_excess",
                        spy("worst_excess", _pairs.worst_excess))
    monkeypatch.setattr(Subset, "is_closed_at_sample_scale",
                        spy("closed", Subset.is_closed_at_sample_scale))
    space, f, witness = square_on_grid()
    dec = decompose(f, witness)
    assert len(dec.pieces) > 1 and calls == []
    space, A, phi, witness = ray_extension_problem()
    out = local_extend(A, phi, witness, Interval.at_least(0.0, open_end=True))
    assert len(out.pieces) > 1 and calls == []


@pytest.mark.parametrize("peak, slice_exponent", [
    (7.999999999999999, 3), (8.0, 4), (1023.9999999999999, 10),
    (1024.0, 11), (0.75, 0)])
def test_a_peak_just_below_a_power_of_two_keeps_its_slice(peak,
                                                          slice_exponent):
    # log2 rounds up to k for a peak just below 2^k; the slice of a peak
    # m is floor(log2 m) + 1, the exponent of its binary form
    assert _slice_groups([peak], 8) == ([slice_exponent], [[0]])
    space = MetricSpace.from_grid(0, 1, 1)
    dec = decompose(Tabulated(space, [peak, peak]),
                    LocalWitness([0, 1], [0.4, 0.4], [0, 0]))
    assert dec.slice_exponents == [slice_exponent]
