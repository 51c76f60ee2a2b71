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
from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .certify import _as_values_on, certify_local_witness
from .errors import CoverError, PreconditionError
from .extension import Envelope, _require_phi_in, extend_to_interval
from .metric_space import _DEFAULT_TOL, Subset
from .partition_of_unity import (CozeroCover, _BallUnion, frolik_pou,
                                 index_subordinate)
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
    notes: list = field(default_factory=list)

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

    def points(self) -> np.ndarray:
        return np.array([e.point for e in self.entries], dtype=int)


def generate_local_witness(f: ScalarField, deltas=None) -> LocalWitness:
    """Exhaustive witness for f with one entry per sample.

    Default radii reach the nearest distinct sample, and each rate is
    the largest two-point slope of f inside the doubled ball, so the
    witness certifies by construction.
    """
    space = f.space
    D = space.pairwise()
    v = f.values()
    triples = []
    for p in range(space.n):
        if deltas is None:
            row = D[p][D[p] > 0.0]
            delta = float(row.min()) if row.size else 1.0
        else:
            delta = float(deltas[p])
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        triples.append((p, delta, _pairs.max_slope(space, v[ids], ids)[0]))
    return LocalWitness.from_triples(triples)


# ---------------------------------------------------------------------------
# Increasing covers


@dataclass
class IncreasingCover:
    """Nested sets U_n with |osc| <= n d between any two points of U_n.

    eta[x] is the first threshold whose set contains sample x; the
    thresholds are the distinct ceilings of the entry levels
    max(K_p, osc_bound / delta_p).  The oscillation of a pair is
    |f(x) - f(y)| over the sample values, compressed to o/(1 + o) when
    compressed is set.
    """

    space: object
    entries: list
    levels: np.ndarray
    thresholds: np.ndarray
    memberships: dict
    eta: np.ndarray
    osc_bound: float
    values: np.ndarray
    compressed: bool

    def set_at(self, n: int) -> np.ndarray:
        out = np.zeros(self.space.n, dtype=bool)
        for t in self.thresholds:
            if t <= n:
                out |= self.memberships[int(t)]
        return out

    def soundness_check(self, tol: float = _DEFAULT_TOL):
        """Worst violation of the two-point bound, with its witness."""
        num = _compress if self.compressed else None
        worst, witness = -math.inf, None
        for t in self.thresholds:
            ids = np.flatnonzero(self.memberships[int(t)])
            e, pair = _pairs.worst_excess(
                self.space, self.values[ids], lambda r, c, d, o: float(t) * d,
                ids=ids, num=num, upper=False)
            if pair is not None and e > worst:
                worst = e
                witness = (int(t), pair)
        return worst, witness


def _compress(o):
    return o / (1.0 + o)


def _cover_from_oscillation(space, witness: LocalWitness, v: np.ndarray,
                            compressed: bool, tol: float,
                            bound=None) -> IncreasingCover:
    D = space.pairwise()
    num = _compress if compressed else None
    # the largest pair oscillation: an excess over a zero cap
    osc_bound, pair = _pairs.worst_excess(space, v, lambda r, c, d, o: 0.0,
                                          num=num)
    osc_bound = max(osc_bound, 0.0)
    if bound is not None:
        if not (osc_bound <= float(bound) + tol):
            raise PreconditionError(
                f"oscillation {osc_bound:.6g} exceeds the supplied bound "
                f"{float(bound):.6g}", witness=pair)
        osc_bound = float(bound)
    levels = np.empty(len(witness))
    for j, e in enumerate(witness.entries):
        ids = np.flatnonzero(D[e.point] < 2.0 * e.delta)
        hi, pair = _pairs.worst_excess(
            space, v[ids], lambda r, c, d, o: e.constant * d,
            ids=ids, num=num, upper=False)
        if not (hi <= tol):
            raise PreconditionError(
                f"entry {j} at point {e.point} fails on its doubled ball "
                f"by {hi:.3e}", witness=(j, pair))
        levels[j] = max(e.constant, osc_bound / e.delta)
    ceilings = np.maximum(1, np.ceil(levels - tol).astype(int))
    thresholds = np.unique(ceilings)
    memberships = {}
    grown = np.zeros(space.n, dtype=bool)
    eta = np.full(space.n, -1, dtype=int)
    for t in thresholds:
        for j, e in enumerate(witness.entries):
            if ceilings[j] <= t:
                grown |= D[e.point] < e.delta
        memberships[int(t)] = grown.copy()
        fresh = grown & (eta < 0)
        eta[fresh] = int(t)
    uncovered = np.flatnonzero(eta < 0)
    if uncovered.size:
        raise CoverError(
            f"{uncovered.size} sample(s) lie in no witness ball, "
            f"first is {int(uncovered[0])}")
    return IncreasingCover(space, list(witness.entries), levels, thresholds,
                           memberships, eta, osc_bound, v, compressed)


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
    """

    kind: str
    space: object
    levels: np.ndarray
    level_field: ScalarField
    envelope_constant: float
    f_values: np.ndarray
    cover: IncreasingCover

    def evaluate(self, x: int, y: int) -> float:
        base = max(float(self.levels[x]), float(self.levels[y]))
        if self.kind == "unbounded":
            base *= 1.0 + abs(float(self.f_values[x]) - float(self.f_values[y]))
        return base

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
            upper=False)


def modulus_witness(f: ScalarField, witness: LocalWitness, rule: str = "bounded",
                    tol: float = _DEFAULT_TOL) -> ModulusWitness:
    """Per-point levels whose pairwise maximum bounds the slope of f.

    The level of a sample is the first threshold of the increasing
    cover that reaches it; spreading the levels by the lower envelope
    with the constant (max level) / (min positive distance) leaves the
    sample values unchanged while making the level function Lipschitz.
    The unbounded rule compresses the oscillation to o/(1 + o) first,
    which is bounded by one, and restores the scale in the pair rate.
    """
    if rule not in ("bounded", "unbounded"):
        raise PreconditionError(f"unknown rule {rule!r}")
    space = f.space
    v = f.values()
    cover = _cover_from_oscillation(space, witness, v, rule == "unbounded", tol)
    eta = cover.eta.astype(float)
    try:
        gap = space.min_positive_distance()
    except Exception:
        gap = math.inf
    M = 0.0 if not math.isfinite(gap) else float(eta.max()) / gap
    all_ids = np.arange(space.n)
    level_field = Envelope(space, all_ids, eta, np.full(space.n, M), -1)
    return ModulusWitness(rule, space, level_field.values(), level_field, M,
                          v, cover)


def witness_from_modulus(modulus: ModulusWitness, points, deltas) -> LocalWitness:
    """Local witness whose rates dominate the modulus on doubled balls."""
    points = [int(p) for p in points]
    deltas = [float(d) for d in deltas]
    if len(points) != len(deltas):
        raise PreconditionError("need one radius per point")
    D = modulus.space.pairwise()
    L = modulus.matrix()
    triples = []
    for p, delta in zip(points, deltas):
        ids = np.flatnonzero(D[p] < 2.0 * delta)
        K = float(L[np.ix_(ids, ids)].max(initial=0.0))
        triples.append((p, delta, K))
    return LocalWitness.from_triples(triples)


# ---------------------------------------------------------------------------
# Dyadic slice assignment shared by decompose and local_extend


def _slice_groups(ball_peaks, max_slices):
    """Assign balls to dyadic slices by peak |f| over their samples.

    A ball with peak m first fits the slice {|f| < 2^j} at
    j = floor(log2 m) + 1.  Keeping only the largest max_slices
    distinct thresholds lumps small balls upward, which keeps the
    downstream staircase family small; the top slice holds every ball.
    Returns (exponents descending, list of ball index lists, nested).
    """
    firsts = []
    for m in ball_peaks:
        firsts.append(None if m == 0.0 else int(math.floor(math.log2(m))) + 1)
    distinct = sorted({j for j in firsts if j is not None})
    if not distinct:
        distinct = [0]
    kept = distinct[-max_slices:]
    exps = sorted(kept, reverse=True)
    groups = []
    for j in exps:
        members = [b for b, fj in enumerate(firsts)
                   if fj is None or fj <= j]
        groups.append(members)
    return exps, groups


# ---------------------------------------------------------------------------
# Decomposition into bounded Lipschitz pieces


@dataclass
class Decomposition:
    """f as a finite sum psi_n xi_n of bounded Lipschitz members."""

    f: ScalarField
    series: Series
    members: list
    weights: list          # the xi_n, a partition of unity
    pieces: list           # the psi_n, bounded Lipschitz extensions
    supports: list         # sample ids where each xi_n is positive
    constants: list        # exact pair slope of f on each support
    slice_exponents: list  # |f| < 2^j bound carried by each member
    partition: object

    def residual(self) -> float:
        return float(np.abs(self.f.values() - self.series.values()).max())


def decompose(f: ScalarField, witness: LocalWitness, tol: float = _DEFAULT_TOL,
              max_slices: int = _DEFAULT_MAX_SLICES,
              max_members: int = 50_000) -> Decomposition:
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
    D = space.pairwise()
    balls = [(e.point, e.delta) for e in witness.entries]
    peaks = []
    for center, radius in balls:
        ids = np.flatnonzero(D[center] < radius)
        peaks.append(float(np.abs(v[ids]).max(initial=0.0)))
    exps, groups = _slice_groups(peaks, max_slices)
    cover = CozeroCover(space, [
        _BallUnion(space, [balls[b] for b in grp], g)
        for g, grp in enumerate(groups)], tol)
    pou = frolik_pou(cover, tol, max_members)
    grouped = index_subordinate(pou)

    weights, pieces, members = [], [], []
    supports, constants, bounds = [], [], []
    for gi, n in enumerate(grouped.set_index):
        xi = grouped.members[gi]
        supp = np.flatnonzero(xi.values() > 0.0)
        vals = v[supp]
        K = _pairs.max_slope(space, vals, supp)[0]
        if supp.size == 0:
            psi = member = Constant(space, 0.0)
        else:
            lo, hi = float(vals.min()), float(vals.max())
            psi = Constant(space, lo) if lo == hi else extend_to_interval(
                Subset(space, supp), vals, K, Interval.closed(lo, hi), tol)
            member = psi * xi
        weights.append(xi)
        pieces.append(psi)
        members.append(member)
        supports.append(supp)
        constants.append(K)
        bounds.append(exps[n])
    series = Series(space, members, grouped.activity)
    return Decomposition(f, series, members, weights, pieces, supports,
                         constants, bounds, grouped)


# ---------------------------------------------------------------------------
# Local-to-global extension


def local_extend(A: Subset, phi, witness: LocalWitness, interval: Interval,
                 tol: float = _DEFAULT_TOL,
                 max_slices: int = _DEFAULT_MAX_SLICES,
                 max_members: int = 50_000) -> ScalarField:
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
    for j, e in enumerate(witness.entries):
        if not in_A[e.point]:
            raise PreconditionError(
                f"witness entry {j} is centered at {e.point}, outside the domain")

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
        out.pieces = [out]
        out.partition = None
        out.slice_labels = []
        out.restriction_error = 0.0
        out.local_witness = witness
        return out

    D = space.pairwise()
    balls = [(e.point, e.delta) for e in witness.entries]
    peaks = []
    for center, radius in balls:
        ids = np.flatnonzero((D[center] < radius) & in_A)
        peaks.append(float(np.abs(vals[np.searchsorted(A.members, ids)])
                           .max(initial=0.0)))
    exps, groups = _slice_groups(peaks, max_slices)

    fields = []
    labels = []
    off = minimum(Constant(space, 1.0), DistanceTo(space, A.members))
    fields.append(off)
    labels.append("off-domain")
    for g, (j, grp) in enumerate(zip(exps, groups)):
        fields.append(_BallUnion(space, [balls[b] for b in grp], g))
        labels.append(j)
    cover = CozeroCover(space, fields, tol)
    pou = frolik_pou(cover, tol, max_members)
    grouped = index_subordinate(pou)

    mid = 0.5 * (float(vals.min()) + float(vals.max()))
    pieces = []
    for gi, n in enumerate(grouped.set_index):
        if labels[n] == "off-domain":
            pieces.append(Constant(space, mid))
            continue
        xi = grouped.members[gi]
        supp = np.flatnonzero((xi.values() > 0.0) & in_A)
        if supp.size == 0:
            supp = np.flatnonzero((fields[n].values() > 0.0) & in_A)
        sub = Subset(space, supp)
        sub_vals = vals[np.searchsorted(A.members, supp)]
        K = _pairs.max_slope(space, sub_vals, supp)[0]
        pieces.append(extend_to_interval(sub, sub_vals, K, interval, tol))

    members = [pieces[gi] * grouped.members[gi]
               for gi in range(len(grouped.members))]
    out = Series(space, members, grouped.activity)
    out.pieces = pieces
    out.partition = grouped
    out.slice_labels = labels
    out.restriction_error = float(
        np.abs(out.values()[A.members] - vals).max())
    out.local_witness = generate_local_witness(out)
    return out
