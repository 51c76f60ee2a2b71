"""Local Lipschitz witnesses and what they buy globally.

A witness is a finite list of entries (p, delta, K): around p, within
distance delta, the function moves at rate at most K.  Entries are
checked on doubled balls so that any two points of a single ball are
covered by one check.  From a certified witness the module builds

  * an increasing cover U_1 <= U_2 <= ... with the two-point bound
    |f(x) - f(y)| <= n d(x, y) inside U_n,
  * a decomposition f = sum psi_n xi_n into bounded Lipschitz pieces
    carried by a partition of unity over dyadic slices of |f|,
  * a symmetric modulus L(x, y) with |f(x) - f(y)| <= L(x, y) d(x, y)
    from per-point levels, in a bounded and an unbounded flavor,
  * an extension of a function given on part of the sample to all of
    it, staying inside a prescribed interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairs
from .certify import (Certificate, _as_values_on, _doubled_ball_excess,
                      _doubled_balls_hold, _near_pass_pays, _require_constant,
                      certify_local_witness)
from .errors import CoverError, PreconditionError
from .extension import _envelope_pair, _into_interval, _mean
from .metric_space import _DEFAULT_TOL, Subset
from .partition_of_unity import CozeroCover, _BallUnion, _blend
from .scalar_field import (Constant, DistanceTo, Interval, ScalarField,
                           Series, Tabulated, minimum)

_MAX_SLICES = 8


class LocalWitness:
    """Finite local Lipschitz certificate: near points[j], within
    deltas[j], the certified function moves at rate constants[j].

    The three arrays are aligned and read-only, and are checked here
    once: every point an integer (the range is checked where the
    witness meets a space, by centers), then, at the first bad entry,
    a positive radius before a finite nonnegative rate.
    """

    def __init__(self, points, deltas, constants):
        points = _pairs.sample_ids(points, None, "entry point")
        deltas = np.array(deltas, dtype=float)
        constants = np.array(constants, dtype=float)
        if not deltas.shape == constants.shape == points.shape:
            raise PreconditionError("need a radius and a rate per point")
        no_radius = ~(deltas > 0.0)
        bad = no_radius | ~((constants >= 0.0) & np.isfinite(constants))
        if bad.any():
            j = int(np.argmax(bad))
            raise PreconditionError(
                f"entry at {points[j]} needs a "
                f"{'positive radius' if no_radius[j] else 'finite rate'}")
        if not points.size:
            raise PreconditionError("a witness needs at least one entry")
        for a in (points, deltas, constants):
            a.setflags(write=False)
        self.points, self.deltas, self.constants = points, deltas, constants

    @classmethod
    def from_triples(cls, triples) -> "LocalWitness":
        """The witness of (point, delta, constant) triples."""
        return cls(*_pairs.unzip(triples, 3))

    def __len__(self) -> int:
        return self.points.size

    def centers(self, space) -> np.ndarray:
        """The points, refused unless each is a sample of space."""
        return _pairs.sample_ids(self.points, space.n, "witness entry id")


def generate_local_witness(f: ScalarField,
                           domain: Subset | None = None) -> LocalWitness:
    """Exhaustive witness for f with one entry per sample, or per sample
    of domain.

    Radii reach the nearest distinct sample (1 for a lone sample), and
    each rate is the largest two-point slope of f inside the doubled
    ball, so the witness certifies by construction.  With a domain,
    only its samples are read, as certify_local_witness(domain=) reads
    them: the witness is that of f restricted to the domain's sub-space.
    """
    space = f.space
    if domain is None:
        ids, inside = np.arange(space.n), None
        deltas = space.nearest_positive()
    else:
        ids, inside = domain.members, domain.mask()
        deltas = space.nearest_positive(ids)
    deltas[np.isnan(deltas)] = 1.0
    with np.errstate(over="ignore"):
        radii = 2.0 * deltas
    rates, pairs = _pairs.ball_sweep(
        space, f.values(), ids, radii,
        lambda d, o, seg: _pairs.slope(o, d, 0.0), inside=inside)
    rates[pairs[:, 0] < 0] = 0.0        # a lone sample has rate 0
    return LocalWitness(ids, deltas, rates)


# ---------------------------------------------------------------------------
# Increasing covers


@dataclass
class IncreasingCover:
    """Nested sets U_n with |osc| <= n d between any two points of U_n.

    The thresholds are the distinct ceilings of the entry levels
    max(K_p, osc_bound / delta_p), and eta[x] is the least ceiling over
    the single balls containing sample x, so U_n is eta <= n.  The
    oscillation of a pair is |f(x) - f(y)| over the sample values,
    compressed to o/(1 + o) when compressed is set.
    """

    space: object
    witness: LocalWitness
    levels: np.ndarray
    thresholds: np.ndarray
    eta: np.ndarray
    osc_bound: float
    values: np.ndarray
    compressed: bool

    def soundness_check(self):
        """Worst violation of the two-point bound, with its witness
        (threshold, pair) by _pairs._fold; an excess of -inf names none."""
        num = _compress if self.compressed else None
        worst, at = np.array([-math.inf]), np.full((1, 3), -1)
        for t in self.thresholds:
            ids = np.flatnonzero(self.eta <= t)
            e, pair = _pairs.worst_excess(
                self.space, self.values[ids], lambda r, c, d, o: float(t) * d,
                ids=ids, num=num)
            if pair is not None:
                _pairs._fold(np.array([e]), 0, 0, lambda k: (*pair, t),
                             worst, at)
        p, q, t = at[0].tolist()
        return float(worst[0]), (None if worst[0] == -math.inf else (t, (p, q)))


def _compress(o):
    return o / (1.0 + o)


def _cover_from_oscillation(space, witness: LocalWitness, v: np.ndarray,
                            compressed: bool, tol: float) -> IncreasingCover:
    centers = witness.centers(space)
    num = _compress if compressed else None
    # the largest pair oscillation.  On finite values the bounded one is
    # fl(max v - min v): rounded subtraction is monotone, and the pair
    # (argmax, argmin) attains it.  The compressed one is not monotone in
    # the gap, and a NaN or a refusal needs its pair: those sweep, as an
    # excess over a zero cap.  An infinite one leaves no finite level,
    # so it is refused with its pair like a NaN.
    osc_bound = math.inf
    if not compressed and np.isfinite(v).all():
        osc_bound = float(v.max()) - float(v.min())
    if osc_bound == math.inf:
        osc_bound, pair = _pairs.worst_excess(
            space, v, lambda r, c, d, o: 0.0, num=num)
        if math.isnan(osc_bound):
            raise PreconditionError(f"oscillation is NaN at pair {pair}",
                                    witness=pair)
        if osc_bound == math.inf:
            raise PreconditionError(f"oscillation is infinite at pair {pair}",
                                    witness=pair)
        osc_bound = max(osc_bound, 0.0)
    # max(K_p, osc_bound / delta_p); on a tie np.maximum returns its
    # second argument, so a signed zero is K_p's.  A quotient past the
    # float range is inf, refused below with every ceiling past int64
    with np.errstate(over="ignore"):
        levels = np.maximum(osc_bound / witness.deltas, witness.constants)
    ceilings = np.maximum(1.0, np.ceil(levels - tol))
    eta = np.full(space.n, math.inf)

    def near(ball, s):
        # each sample's least ceiling over the single balls holding it
        np.minimum.at(eta, s, ceilings[ball])
    if (_near_pass_pays(space, witness, centers)
            and _doubled_balls_hold(space, v, witness, num, tol)):
        # every doubled ball passes: gather only the single ones
        for ball, s, _ in _pairs.ball_members(space, centers, witness.deltas):
            near(ball, s)
    else:   # the per-ball sweep decides, and names a failing entry
        excess, pairs = _doubled_ball_excess(space, v, witness, centers,
                                             num=num, near=near)
        failed = np.flatnonzero(~(excess <= tol))
        if failed.size:
            j = int(failed[0])
            raise PreconditionError(
                f"entry {j} at point {centers[j]} fails on its "
                f"doubled ball by {excess[j]:.3e}",
                witness=(j, (int(pairs[j, 0]), int(pairs[j, 1]))))
    huge = np.flatnonzero(~(ceilings < 2.0 ** 63))
    if huge.size:
        j = int(huge[0])
        raise PreconditionError(
            f"entry {j} at point {centers[j]} has level {levels[j]:.6g}, "
            f"past the int64 range of the cover's thresholds",
            witness=(j, int(centers[j])))
    uncovered = np.flatnonzero(eta == math.inf)
    if uncovered.size:
        raise CoverError(
            f"{uncovered.size} sample(s) lie in no witness ball, "
            f"first is {int(uncovered[0])}")
    ceilings, eta = ceilings.astype(int), eta.astype(int)
    return IncreasingCover(space, witness, levels,
                           np.unique(ceilings), eta, osc_bound, v, compressed)


def increasing_cover(f: ScalarField, witness: LocalWitness,
                     tol: float = _DEFAULT_TOL) -> IncreasingCover:
    """Increasing cover of the sample from a local witness for f.

    The measured sample oscillation enters the entry levels as
    max(K_p, osc / delta_p).
    """
    return _cover_from_oscillation(f.space, witness, f.values(), False, tol)


# ---------------------------------------------------------------------------
# Moduli of Lipschitz type


@dataclass
class ModulusWitness:
    """Symmetric pair rates L(x, y) with |f(x) - f(y)| <= L(x, y) d(x, y).

    Bounded flavor: L(x, y) = max(level_x, level_y).  Unbounded flavor:
    the levels are built for the compressed oscillation o/(1 + o), and
    L(x, y) = (1 + |f(x) - f(y)|) max(level_x, level_y).

    level_field is the levels themselves as a field.  It is Lipschitz
    with envelope_constant M = (max level) / (min positive distance):
    levels are positive, so |level_x - level_y| <= max level
    = M gap <= M d(x, y) for x != y.
    """

    kind: str
    space: object
    levels: np.ndarray
    level_field: ScalarField
    envelope_constant: float
    f_values: np.ndarray
    cover: IncreasingCover

    def _rates(self, r, c, o):
        """L(x, y) for rows r, columns c and gaps o = |f(x) - f(y)|."""
        base = np.maximum(self.levels[r, None], self.levels[None, c])
        return base * (1.0 + o) if self.kind == "unbounded" else base

    def matrix(self) -> np.ndarray:
        """L(x, y) for every pair; a gap past the float range is inf."""
        f = self.f_values
        with np.errstate(over="ignore"):
            o = np.abs(f[:, None] - f[None, :])
        return self._rates(slice(None), slice(None), o)

    def certify(self, rel_tol: float = _DEFAULT_TOL):
        """Worst relative excess of |osc| over L d across sample pairs."""
        return _pairs.worst_excess(
            self.space, self.f_values,
            lambda r, c, d, o: self._rates(r, c, o) * d * (1.0 + rel_tol))


def modulus_witness(f: ScalarField, witness: LocalWitness, rule: str = "bounded",
                    tol: float = _DEFAULT_TOL) -> ModulusWitness:
    """Per-point levels whose maximum over a pair bounds the slope of f.

    The level of a sample is the first threshold of the increasing
    cover that reaches it, and the level field is that table: on a
    finite sample it is already Lipschitz with the constant
    (max level) / (min positive distance), since two levels differ by
    less than the largest one (see ModulusWitness).  The unbounded rule
    compresses the oscillation to o/(1 + o) first, which is bounded by
    one, and restores the scale in the pair rate.
    """
    if rule not in ("bounded", "unbounded"):
        raise PreconditionError(f"unknown rule {rule!r}")
    space = f.space
    v = f.values()
    cover = _cover_from_oscillation(space, witness, v, rule == "unbounded", tol)
    eta = cover.eta.astype(float)
    try:
        gap = space.min_positive_distance()
    except PreconditionError:       # no positive distance
        gap = math.inf
    M = 0.0 if not math.isfinite(gap) else float(eta.max()) / gap
    level_field = Tabulated(space, eta)
    return ModulusWitness(rule, space, level_field.values(), level_field, M,
                          v, cover)


def witness_from_modulus(modulus: ModulusWitness, points, deltas) -> LocalWitness:
    """Local witness whose rates dominate the modulus on doubled balls."""
    points = _pairs.sample_ids(points, modulus.space.n, "point")
    deltas = np.array(deltas, dtype=float)
    if len(points) != len(deltas):
        raise PreconditionError("need one radius per point")
    f = modulus.f_values
    rates = np.empty(len(points))
    for j, (p, delta) in enumerate(zip(points.tolist(), deltas.tolist())):
        ids = modulus.space.ball(p, 2.0 * delta)
        with np.errstate(over="ignore"):
            o = np.abs(f[ids, None] - f[None, ids])
        rates[j] = modulus._rates(ids, ids, o).max(initial=0.0)
    return LocalWitness(points, deltas, rates)


# ---------------------------------------------------------------------------
# Dyadic slice covers shared by decompose and local_extend


def _slice_groups(ball_peaks, max_slices):
    """Assign balls to dyadic slices by peak |f| over their samples.

    A ball with peak m first fits the slice {|f| < 2^j} at
    j = floor(log2 m) + 1.  Keeping only the largest max_slices
    distinct thresholds lumps small balls upward; the top slice holds
    every ball.  That bounds the cover's set count, and with it the
    O(sets x n) work of the blend and the depth at which its mixture
    sum 2^-n W_n underflows.
    Returns (exponents descending, one list of ball indices per slice).
    """
    firsts = [None if m == 0.0 else math.frexp(m)[1] for m in ball_peaks]
    distinct = sorted({j for j in firsts if j is not None})
    if not distinct:
        distinct = [0]
    kept = distinct[-max_slices:]
    exps = sorted(kept, reverse=True)
    groups = [[b for b, fj in enumerate(firsts) if fj is None or fj <= j]
              for j in exps]
    return exps, groups


def _slice_cover(space, witness: LocalWitness, v: np.ndarray, max_slices,
                 extra=()):
    """Cover carrying one ball union per dyadic slice of |v|.

    Each witness entry's single ball B(p, delta) gets its peak |v| from
    the member lists of _pairs.ball_members (0 for an empty ball), and
    _slice_groups turns the peaks into slices.  Returns (exponents
    descending, the cover of the extra witnesses followed by one
    _BallUnion per slice, of the witness balls its index list names).
    """
    centers, deltas = witness.centers(space), witness.deltas
    size = np.abs(v)
    peaks = np.zeros(len(centers))
    with np.errstate(invalid="ignore"):     # a NaN |v| is the ball's peak
        for ball, s, _ in _pairs.ball_members(space, centers, deltas):
            np.maximum.at(peaks, ball, size[s])
    exps, groups = _slice_groups(peaks, max_slices)
    return exps, CozeroCover(space, list(extra) + [
        _BallUnion(space, centers[grp], deltas[grp], g)
        for g, grp in enumerate(groups)])


# ---------------------------------------------------------------------------
# The pieces of the blends of decompose and local_extend


def _require_certified(f, witness, what, tol, domain=None) -> Certificate:
    """The passing local-witness certificate of f, refused on a FAIL."""
    cert = certify_local_witness(f, witness, domain=domain, tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"witness does not certify {what}: {cert.summary_line()}",
            witness=cert.witness)
    return cert


def _piece(space, v: np.ndarray, supp: np.ndarray, interval: Interval):
    """(K, the McShane extension of v on the samples supp into the
    interval with K), K the exact pair slope of v on supp.

    The blend measured K itself and its anchors are finite values inside
    the interval, so neither is checked again; a K that is not finite is
    refused.
    """
    vals = v[supp]
    K = _pairs.max_slope(space, vals, supp)[0]
    pair = _envelope_pair(Subset(space, supp), vals,
                          np.full(supp.size, _require_constant(K)))
    return K, _into_interval(pair, interval)


# ---------------------------------------------------------------------------
# Decomposition into bounded Lipschitz pieces


@dataclass
class Decomposition:
    """f as a finite sum psi_n xi_n of bounded Lipschitz members."""

    f: ScalarField
    series: Series
    members: list
    pieces: list           # the psi_n, bounded Lipschitz extensions
    constants: list        # exact pair slope of f on each support
    slice_exponents: list  # |f| < 2^j bound carried by each member
    partition: object      # the xi_n, a partition of unity
    certificate: Certificate  # the passing local-witness check of f

    def residual(self) -> float:
        return float(np.abs(self.f.values() - self.series.values()).max())


def decompose(f: ScalarField, witness: LocalWitness,
              tol: float = _DEFAULT_TOL) -> Decomposition:
    """Write f as a finite sum of bounded Lipschitz members.

    Witness balls are grouped into dyadic slices of |f| (a ball joins
    the first slice containing all its samples), the groups carry a
    partition of unity, and on each group's active set f is extended
    within its own range.  Every active weight sits inside its piece's
    anchor set, so the sum returns f up to the partition's unit-sum
    residual.  A value that is not finite is refused, naming its sample.
    """
    space = f.space
    cert = _require_certified(f, witness, "the function", tol)
    v = f.values()
    # a value alone in its doubled ball meets no pair of the certificate,
    # yet its slice is floor(log2 |v|) + 1
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        x = int(bad[0])
        raise PreconditionError(f"f({x}) = {v[x]} is not finite", witness=x)
    exps, cover = _slice_cover(space, witness, v, _MAX_SLICES)
    constants = []

    def piece(n, xi):
        supp = np.flatnonzero(xi.values() > 0.0)
        lo, hi = v[supp].min(initial=math.inf), v[supp].max(initial=-math.inf)
        if not lo < hi:     # no sample, or all one value: every slope is 0
            constants.append(0.0)
            return Constant(space, float(lo) if supp.size else 0.0)
        K, out = _piece(space, v, supp, Interval.closed(lo, hi))
        constants.append(K)
        return out

    series = _blend(cover, piece)
    return Decomposition(f, series, series.terms, series.pieces, constants,
                         exps, series.partition, cert)


# ---------------------------------------------------------------------------
# Local-to-global extension


def local_extend(A: Subset, phi, witness: LocalWitness, interval: Interval,
                 tol: float = _DEFAULT_TOL) -> ScalarField:
    """Extend phi from A to the whole sample from a local witness.

    The witness (entries centered in A) is certified against phi on A
    first; a failing pair is reported and nothing is built.  Witness
    balls, read over the whole space, carry a partition of unity
    together with one extra set living off A; each ball group extends
    phi from the A-part of its active set into the target interval, the
    extra set contributes a constant from the sampled range, and the
    weighted sum restricts to phi on A up to the unit-sum residual.
    """
    space = A.space
    vals = _as_values_on(A, phi, interval)
    in_A = A.mask()
    centers = witness.centers(space)
    outside = np.flatnonzero(~in_A[centers])
    if outside.size:
        j = int(outside[0])
        raise PreconditionError(
            f"witness entry {j} is centered at {centers[j]}, outside the domain")

    stub = np.zeros(space.n)
    stub[A.members] = vals
    _require_certified(Tabulated(space, stub), witness, "phi on the domain",
                       tol, domain=A)

    if len(A) == space.n:
        # nothing to extend: the partition collapses and phi comes back
        out = Tabulated(space, np.array(vals, dtype=float))
        out.restriction_error = 0.0
        out.local_witness = witness
        return out

    # set 0 lives off A; stub is zero there, so a ball's peak is its peak on A
    # and a piece reads phi from it
    off = minimum(Constant(space, 1.0), DistanceTo(space, A.members))
    _, cover = _slice_cover(space, witness, stub, _MAX_SLICES, extra=[off])
    mid = float(_mean(vals.min(), vals.max()))

    def piece(n, xi):
        if n == 0:
            return Constant(space, mid)
        supp = np.flatnonzero((xi.values() > 0.0) & in_A)
        if supp.size == 0:
            supp = np.flatnonzero((cover.witnesses[n].values() > 0.0) & in_A)
        return _piece(space, stub, supp, interval)[1]

    out = _blend(cover, piece)
    out.restriction_error = float(
        np.abs(out.values()[A.members] - vals).max())
    out.local_witness = generate_local_witness(out)
    return out
