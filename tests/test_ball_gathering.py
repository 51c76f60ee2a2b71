"""The member lists of _pairs.ball_members and every reader fed by them
(the segmented doubled-ball sweep, the cover's least ceilings, the
covered mask of the local-witness check and the slice peaks) against
the boolean-mask loops of helpers, bit for bit, on the four backends
and on an unvalidated matrix one ulp off symmetric with NaN, zero and
negative distances, under row blocks small enough that member groups
and pair chunks split a ball."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from helpers import (compress, make_space, ref_ball_masks, ref_ball_sweep,
                     ref_covered, ref_least_ceilings, ref_mask_peaks,
                     ref_radii_witness)
from lipkit import (CoverError, LocalWitness, MetricSpace, Subset, Tabulated,
                    certify_local_witness, modulus_witness)
from lipkit import _pairs, local_lipschitz
from lipkit.certify import _doubled_ball_excess

BLOCKS = [8, 16, 40, None]


def skewed_space(rng):
    """An unvalidated matrix: one entry a ulp above its mirror, a NaN
    in a center's row and between two other samples, a zero and a
    negative distance off the diagonal."""
    D = make_space(rng, n_max=30, kinds=[0]).pairwise().copy()
    n = len(D)
    i, j, k, m = rng.permutation(n)[:4]
    D[i, j] = np.nextafter(D[i, j], math.inf)
    D[0, k] = D[k, 0] = math.nan
    D[j, m] = math.nan
    D[k, m] = D[m, k] = 0.0
    D[i, m] = -0.5
    return MetricSpace.from_matrix(D, validate=False)


def spaces(seed):
    rng = np.random.default_rng(seed)
    out = [make_space(rng, n_max=30, kinds=[k]) for k in range(4)]
    return rng, out + [skewed_space(rng)]


def balls(rng, space, positive=False):
    """Centers (repeats included) and radii: empty balls, the center
    alone, a part, a distance from the center (a sample on the
    boundary, which the open ball leaves out), every sample and
    infinite radii."""
    D = space.pairwise()
    n, top = space.n, float(np.nanmax(np.abs(D)))
    count = int(rng.integers(1, 2 * n))
    centers = rng.integers(n, size=count)
    choices = [1e-300, 0.3 * top, 0.7 * top, 2.0 * top + 1.0, math.inf]
    if not positive:
        choices.append(0.0)
    radii = rng.choice(choices, size=count)
    edge = D[centers, rng.integers(n, size=count)]
    on_edge = (rng.random(count) < 0.3) & (edge > 0)
    radii[on_edge] = edge[on_edge]
    return centers, radii


def values(rng, n):
    v = rng.choice([0.0, 1.0, -2.0, 0.5], size=n) + rng.normal(size=n)
    v[rng.random(n) < 0.15] = math.nan
    v[rng.random(n) < 0.15] = 1.0       # ties
    return v


def blocked(block):
    """_pairs._BLOCK patched to block, or left as it is for None."""
    return (mock.patch.object(_pairs, "_BLOCK", block) if block
            else contextlib.nullcontext())


def check_members(space, centers, radii, inside):
    """The groups are the members of the masks in ball-major order,
    with the distances from their centers; each group holds whole
    balls, at most _BLOCK / 8 members unless they come from one row
    block."""
    D, n = space.pairwise(), space.n
    masks = np.vstack([m for _, m in ref_ball_masks(space, centers, radii)]
                      or [np.zeros((0, n), dtype=bool)])
    if inside is not None:
        masks &= inside
    ball, member = np.divmod(np.flatnonzero(masks), n)
    got, rows = [], max(1, _pairs._BLOCK // n)
    for g in _pairs.ball_members(space, centers, radii, inside):
        g = [a.copy() for a in g]       # the next group reuses the arrays
        if len(g[0]) > max(1, _pairs._BLOCK >> 3):
            assert g[0][0] // rows == g[0][-1] // rows
        got.append(g)
    if got:
        firsts = [g[0][0] for g in got[1:]]
        lasts = [g[0][-1] for g in got[:-1]]
        assert all(a < b for a, b in zip(lasts, firsts))    # whole balls
    got = [np.concatenate(c) for c in zip(*got)] or [np.zeros(0, int)] * 3
    assert np.array_equal(got[0], ball) and np.array_equal(got[1], member)
    assert got[2].tobytes() == D[centers[ball], member].tobytes()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_members_and_sweeps_match_the_mask_loops(seed, block):
    rng, hosts = spaces(seed)
    for space in hosts:
        n = space.n
        v = values(rng, n)
        centers, radii = balls(rng, space)
        K = rng.choice([0.0, 0.5, 2.0, math.inf], size=len(centers))
        zero = float(rng.choice([0.0, math.inf]))
        num = [None, compress][int(rng.integers(2))]
        for inside in (None, rng.random(n) < 0.6):
            with blocked(block), np.errstate(invalid="ignore"):
                check_members(space, centers, radii, inside)
                for value in (
                        lambda d, o, seg: ((o if num is None else num(o))
                                           - K[seg] * d),
                        lambda d, o, seg: _pairs.slope(o, d, zero)):
                    got = _pairs.ball_sweep(space, v, centers, radii, value,
                                            inside)
                    want = ref_ball_sweep(space, v, centers, radii, value,
                                          inside)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", [4, 5])
def test_single_balls_of_the_doubled_gathering_match_the_mask_loops(seed,
                                                                   block):
    """The least ceilings and the covered mask that the doubled-ball
    pass hands on, and the slice peaks, on every host; the cover, the
    certificate and the slices end to end on the valid ones."""
    rng, hosts = spaces(seed)
    for space in hosts:
        n = space.n
        v = values(rng, n)
        centers, deltas = balls(rng, space, positive=True)
        witness = LocalWitness(centers, deltas, rng.uniform(0.0, 2.0,
                                                            len(centers)))
        ceilings = rng.integers(1, 6, size=len(centers))
        inside = rng.random(n) < 0.6
        with blocked(block), np.errstate(invalid="ignore"):
            eta = np.full(n, np.iinfo(ceilings.dtype).max)
            got = _doubled_ball_excess(
                space, v, witness, centers,
                near=lambda ball, s: np.minimum.at(eta, s, ceilings[ball]))
            assert eta.tobytes() == ref_least_ceilings(
                space, centers, deltas, ceilings).tobytes()
            want = ref_ball_sweep(space, v, centers, 2.0 * deltas,
                                  lambda d, o, seg:
                                  o - witness.constants[seg] * d)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
            # the single balls handed on are the masks at delta, as lists
            lists, covered = [], np.zeros(n, dtype=bool)

            def near(ball, s):
                lists.append((ball.copy(), s.copy()))
                covered[s] = True
            _doubled_ball_excess(space, v, witness, centers, inside,
                                 near=near)
            masks = np.vstack([m for _, m in ref_ball_masks(space, centers,
                                                            deltas)])
            ball, member = np.divmod(np.flatnonzero(masks & inside), n)
            got = [np.concatenate(c) for c in zip(*lists)] or [[], []]
            assert np.array_equal(got[0], ball)
            assert np.array_equal(got[1], member)
            assert np.array_equal(covered | ~inside,
                                  ref_covered(space, centers, deltas, inside))
        with blocked(block):
            check_peaks(space, witness, v)
            if space.backend != "matrix" or space.exactly_symmetric():
                check_local_layer(space, rng, inside)


class Seen(Exception):
    pass


def check_peaks(space, witness, v):
    """The peaks _slice_cover hands to _slice_groups, NaN ones too,
    without a numpy warning."""
    def spy(peaks, max_slices):
        raise Seen(peaks.copy())
    with mock.patch.object(local_lipschitz, "_slice_groups", spy), \
            pytest.raises(Seen) as seen:
        local_lipschitz._slice_cover(space, witness, v, 3)
    want = ref_mask_peaks(space, witness.centers(space), witness.deltas, v)
    assert seen.value.args[0].tobytes() == want.tobytes()


def check_local_layer(space, rng, inside):
    """A witness that certifies by construction: the cover's least
    ceilings and the certificate's uncovered samples, on the whole
    space and on a domain."""
    D, n = space.pairwise(), space.n
    f = Tabulated(space, rng.normal(size=n))
    witness = ref_radii_witness(f, rng.uniform(0.2, 1.0, n) * D.max() / 3)
    centers = witness.centers(space)
    for rule in ("bounded", "unbounded"):
        try:
            cover = modulus_witness(f, witness, rule).cover
        except CoverError:
            assert not ref_covered(space, centers, witness.deltas).all()
            continue
        ceilings = np.maximum(1, np.ceil(cover.levels - 1e-9).astype(int))
        assert cover.eta.tobytes() == ref_least_ceilings(
            space, centers, witness.deltas, ceilings).tobytes()
    domain = Subset(space, np.flatnonzero(inside)) if inside.any() else None
    cert = certify_local_witness(f, witness, domain)
    covered = ref_covered(space, centers, witness.deltas,
                          None if domain is None else inside)
    assert cert.details["uncovered"] == np.flatnonzero(~covered).tolist()


def test_a_ball_of_every_sample_is_swept_in_pieces():
    """Every ball holds all 30 samples, or all but the NaN ones on the
    skewed matrix, whose balls read the ordered pairs; blocks of 8, 16
    and 40 entries make each ball a group of its own, laid out one, two
    or five members' rows at a time."""
    rng = np.random.default_rng(7)
    cloud = MetricSpace.from_points(rng.uniform(size=(30, 2)))
    for space in (cloud, skewed_space(rng)):
        v = values(rng, space.n)
        centers = np.arange(space.n)
        radii = np.full(space.n, math.inf)
        for block in (8, 16, 40):
            for zero in (0.0, math.inf):
                def value(d, o, seg):
                    return _pairs.slope(o, d, zero)
                with blocked(block):
                    got = _pairs.ball_sweep(space, v, centers, radii, value)
                    want = ref_ball_sweep(space, v, centers, radii, value)
                assert got[0].tobytes() == want[0].tobytes()
                assert np.array_equal(got[1], want[1])


def test_a_fortran_ordered_matrix_is_held_in_rows():
    """The sweep gathers distances from the flat rows of pairwise(), so
    a space keeps its matrix C-contiguous whatever the order given, and
    sweeps as over a C-ordered copy."""
    rng = np.random.default_rng(8)
    D = make_space(rng, n_max=20, kinds=[0]).pairwise()
    v = values(rng, len(D))
    centers = np.arange(len(D))
    radii = np.full(len(D), 0.5 * float(D.max()))
    given = MetricSpace.from_matrix(np.asfortranarray(D), validate=False)
    assert given.pairwise().flags.c_contiguous
    value = lambda d, o, seg: _pairs.slope(o, d, 0.0)   # noqa: E731
    got = _pairs.ball_sweep(given, v, centers, radii, value)
    want = ref_ball_sweep(MetricSpace.from_matrix(D, validate=False), v,
                          centers, radii, value)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
