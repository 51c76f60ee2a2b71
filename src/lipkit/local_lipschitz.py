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
                      _entry_arrays, certify_local_witness)
from .errors import CoverError, PreconditionError
from .extension import _require_phi_in, extend_to_interval
from .metric_space import _DEFAULT_TOL, Subset
from .partition_of_unity import (_DEFAULT_MEMBER_CAP, CozeroCover,
                                 _BallUnion, _blend)
from .scalar_field import (Constant, DistanceTo, Interval, ScalarField,
                           Series, Tabulated, minimum)

_DEFAULT_MAX_SLICES = 8


@dataclass(frozen=True)
class WitnessEntry:
    point: int
    delta: float
    constant: float


@dataclass
class LocalWitness:
    """Finite local Lipschitz certificate: near entry.point, within
    entry.delta, the certified function moves at rate entry.constant."""

    entries: list

    @classmethod
    def from_triples(cls, triples) -> "LocalWitness":
        entries = []
        for p, delta, K in triples:
            delta = float(delta)
            K = float(K)
            if not (delta > 0.0):
                raise PreconditionError(f"entry at {p} needs a positive radius")
            if not (K >= 0.0 and math.isfinite(K)):
                raise PreconditionError(f"entry at {p} needs a finite rate")
            entries.append(WitnessEntry(int(p), delta, K))
        if not entries:
            raise PreconditionError("a witness needs at least one entry")
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def generate_local_witness(f: ScalarField, deltas=None) -> LocalWitness:
    """Exhaustive witness for f with one entry per sample.

    Default radii reach the nearest distinct sample, and each rate is
    the largest two-point slope of f inside the doubled ball, so the
    witness certifies by construction.
    """
    space = f.space
    if deltas is None:
        deltas = space.nearest_positive()
        deltas[np.isnan(deltas)] = 1.0
    else:
        deltas = np.array([float(deltas[p]) for p in range(space.n)])
    rates, pairs = _pairs.ball_sweep(
        space, f.values(), np.arange(space.n), 2.0 * deltas,
        lambda d, o, seg: _pairs.slope(o, d, 0.0))
    rates[pairs[:, 0] < 0] = 0.0        # a lone sample has rate 0
    return LocalWitness.from_triples(zip(range(space.n), deltas, rates))


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
    entries: list
    levels: np.ndarray
    thresholds: np.ndarray
    eta: np.ndarray
    osc_bound: float
    values: np.ndarray
    compressed: bool

    def soundness_check(self, tol: float = _DEFAULT_TOL):
        """Worst violation of the two-point bound, with its witness; a
        NaN excess beats every number."""
        num = _compress if self.compressed else None
        worst, witness = -math.inf, None
        for t in self.thresholds:
            ids = np.flatnonzero(self.eta <= t)
            e, pair = _pairs.worst_excess(
                self.space, self.values[ids], lambda r, c, d, o: float(t) * d,
                ids=ids, num=num, upper=False, symmetric=True)
            if pair is not None and (e > worst or (e != e and worst == worst)):
                worst = e
                witness = (int(t), pair)
        return worst, witness


def _compress(o):
    return o / (1.0 + o)


def _cover_from_oscillation(space, witness: LocalWitness, v: np.ndarray,
                            compressed: bool, tol: float,
                            bound=None) -> IncreasingCover:
    arrays = _entry_arrays(space, witness.entries)
    num = _compress if compressed else None
    # the largest pair oscillation: an excess over a zero cap
    osc_bound, pair = _pairs.worst_excess(space, v, lambda r, c, d, o: 0.0,
                                          num=num)
    if math.isnan(osc_bound):
        raise PreconditionError(f"oscillation is NaN at pair {pair}",
                                witness=pair)
    osc_bound = max(osc_bound, 0.0)
    if bound is not None:
        if not (osc_bound <= float(bound) + tol):
            raise PreconditionError(
                f"oscillation {osc_bound:.6g} exceeds the supplied bound "
                f"{float(bound):.6g}", witness=pair)
        osc_bound = float(bound)
    excess, pairs = _doubled_ball_excess(space, v, arrays, num=num)
    failed = np.flatnonzero(~(excess <= tol))
    if failed.size:
        j = int(failed[0])
        raise PreconditionError(
            f"entry {j} at point {witness.entries[j].point} fails on its "
            f"doubled ball by {excess[j]:.3e}",
            witness=(j, (int(pairs[j, 0]), int(pairs[j, 1]))))
    levels = np.array([max(e.constant, osc_bound / e.delta)
                       for e in witness.entries])
    centers, deltas, _ = arrays
    ceilings = np.maximum(1, np.ceil(levels - tol).astype(int))
    none = np.iinfo(ceilings.dtype).max
    eta = np.full(space.n, none, dtype=ceilings.dtype)
    # each sample's least ceiling over the single balls holding it
    for a, mask in _pairs.ball_masks(space, centers, deltas):
        held = np.where(mask, ceilings[a:a + len(mask), None], none)
        np.minimum(eta, held.min(axis=0), out=eta)
    uncovered = np.flatnonzero(eta == none)
    if uncovered.size:
        raise CoverError(
            f"{uncovered.size} sample(s) lie in no witness ball, "
            f"first is {int(uncovered[0])}")
    return IncreasingCover(space, list(witness.entries), levels,
                           np.unique(ceilings), eta, osc_bound, v, compressed)


def increasing_cover(f: ScalarField, witness: LocalWitness, bound=None,
                     tol: float = _DEFAULT_TOL) -> IncreasingCover:
    """Increasing cover of the sample from a local witness for f.

    bound is a witnessed oscillation bound for f; it defaults to the
    measured sample oscillation and enters the entry levels as
    max(K_p, bound / delta_p).
    """
    return _cover_from_oscillation(f.space, witness, f.values(), False, tol,
                                   bound=bound)


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
        f = self.f_values
        return self._rates(slice(None), slice(None),
                           np.abs(f[:, None] - f[None, :]))

    def certify(self, rel_tol: float = _DEFAULT_TOL):
        """Worst relative excess of |osc| over L d across sample pairs."""
        return _pairs.worst_excess(
            self.space, self.f_values,
            lambda r, c, d, o: self._rates(r, c, o) * d * (1.0 + rel_tol),
            upper=False, symmetric=True)


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
    points = [int(p) for p in points]
    deltas = [float(d) for d in deltas]
    if len(points) != len(deltas):
        raise PreconditionError("need one radius per point")
    f = modulus.f_values
    triples = []
    for p, delta in zip(points, deltas):
        ids = modulus.space.ball(p, 2.0 * delta)
        o = np.abs(f[ids, None] - f[None, ids])
        K = float(modulus._rates(ids, ids, o).max(initial=0.0))
        triples.append((p, delta, K))
    return LocalWitness.from_triples(triples)


# ---------------------------------------------------------------------------
# Dyadic slice covers shared by decompose and local_extend


def _slice_groups(ball_peaks, max_slices):
    """Assign balls to dyadic slices by peak |f| over their samples.

    A ball with peak m first fits the slice {|f| < 2^j} at
    j = floor(log2 m) + 1.  Keeping only the largest max_slices
    distinct thresholds lumps small balls upward, which keeps the
    downstream staircase family small; the top slice holds every ball.
    Returns (exponents descending, one list of ball indices per slice).
    """
    firsts = [None if m == 0.0 else int(math.floor(math.log2(m))) + 1
              for m in ball_peaks]
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
    the chunked ball masks, without a float copy of a chunk, and
    _slice_groups turns the peaks into slices.  Returns (exponents
    descending, the cover of the extra witnesses followed by one
    _BallUnion per slice).
    """
    centers, deltas, _ = _entry_arrays(space, witness.entries)
    size = np.abs(v)
    peaks = np.empty(len(centers))
    for a, mask in _pairs.ball_masks(space, centers, deltas):
        peaks[a:a + len(mask)] = np.max(np.broadcast_to(size, mask.shape),
                                        axis=1, where=mask, initial=0.0)
    exps, groups = _slice_groups(peaks, max_slices)
    balls = list(zip(centers, deltas))
    return exps, CozeroCover(space, list(extra) + [
        _BallUnion(space, [balls[b] for b in grp], g)
        for g, grp in enumerate(groups)])


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


def decompose(f: ScalarField, witness: LocalWitness, tol: float = _DEFAULT_TOL,
              max_slices: int = _DEFAULT_MAX_SLICES,
              max_members: int = _DEFAULT_MEMBER_CAP) -> Decomposition:
    """Write f as a finite sum of bounded Lipschitz members.

    Witness balls are grouped into dyadic slices of |f| (a ball joins
    the first slice containing all its samples), the groups carry a
    partition of unity, and on each group's active set f is extended
    within its own range.  Every active weight sits inside its piece's
    anchor set, so the sum returns f up to the partition's unit-sum
    residual.
    """
    space = f.space
    cert = certify_local_witness(f, witness, tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"witness does not certify the function: {cert.summary_line()}",
            witness=cert.witness)
    v = f.values()
    exps, cover = _slice_cover(space, witness, v, max_slices)
    constants = []

    def piece(n, xi):
        supp = np.flatnonzero(xi.values() > 0.0)
        vals = v[supp]
        K = _pairs.max_slope(space, vals, supp)[0]
        constants.append(K)
        if supp.size == 0:
            return Constant(space, 0.0)
        lo, hi = float(vals.min()), float(vals.max())
        return Constant(space, lo) if lo == hi else extend_to_interval(
            Subset(space, supp), vals, K, Interval.closed(lo, hi), tol)

    series = _blend(cover, piece, tol, max_members)
    return Decomposition(f, series, series.terms, series.pieces, constants,
                         exps, series.partition, cert)


# ---------------------------------------------------------------------------
# Local-to-global extension


def local_extend(A: Subset, phi, witness: LocalWitness, interval: Interval,
                 tol: float = _DEFAULT_TOL,
                 max_slices: int = _DEFAULT_MAX_SLICES,
                 max_members: int = _DEFAULT_MEMBER_CAP) -> ScalarField:
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
    A.require_nonempty("extension domain")
    if interval.is_degenerate:
        raise PreconditionError(f"degenerate target interval {interval}")
    vals = _as_values_on(A, phi)
    _require_phi_in(interval, A, vals)
    in_A = np.zeros(space.n, dtype=bool)
    in_A[A.members] = True
    centers = _entry_arrays(space, witness.entries)[0]
    outside = np.flatnonzero(~in_A[centers])
    if outside.size:
        j = int(outside[0])
        raise PreconditionError(
            f"witness entry {j} is centered at {centers[j]}, outside the domain")

    stub = np.zeros(space.n)
    stub[A.members] = vals
    cert = certify_local_witness(Tabulated(space, stub), witness,
                                 domain=A, tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"witness does not certify phi on the domain: {cert.summary_line()}",
            witness=cert.witness)

    if len(A) == space.n:
        # nothing to extend: the partition collapses and phi comes back
        out = Tabulated(space, np.array(vals, dtype=float))
        out.restriction_error = 0.0
        out.local_witness = witness
        return out

    # set 0 lives off A; stub is zero there, so a ball's peak is its peak on A
    off = minimum(Constant(space, 1.0), DistanceTo(space, A.members))
    _, cover = _slice_cover(space, witness, stub, max_slices, extra=[off])
    mid = 0.5 * (float(vals.min()) + float(vals.max()))

    def piece(n, xi):
        if n == 0:
            return Constant(space, mid)
        supp = np.flatnonzero((xi.values() > 0.0) & in_A)
        if supp.size == 0:
            supp = np.flatnonzero((cover.witnesses[n].values() > 0.0) & in_A)
        sub_vals = vals[np.searchsorted(A.members, supp)]
        K = _pairs.max_slope(space, sub_vals, supp)[0]
        return extend_to_interval(Subset(space, supp), sub_vals, K, interval,
                                  tol)

    out = _blend(cover, piece, tol, max_members)
    out.restriction_error = float(
        np.abs(out.values()[A.members] - vals).max())
    out.local_witness = generate_local_witness(out)
    return out
