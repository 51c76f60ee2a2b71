"""Cozero covers and partitions of unity of Lipschitz type.

A cover is carried by nonnegative witness fields: the n-th set of the
cover is where the n-th witness is positive.  The pipeline normalizes
witnesses to 1-Lipschitz functions bounded by 2^-n, shrinks them so
every sample keeps one witness above half the running mixture, and
splits the reciprocal of the mixture with the unit staircase

    step(k, r) = min(k, r) - min(k - 1, r),      r = 1 / t,

whose partial sums telescope without rounding.  The resulting family is
nonnegative, sums to one, vanishes outside the shrunken sets, and is
finitely active at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import check_k_lipschitz
from .errors import CoverError, InputError, PreconditionError
from .metric_space import _DEFAULT_TOL
from .scalar_field import (Constant, ScalarField, Series, Transported,
                           global_lip, maximum, minimum)

_DEFAULT_MEMBER_CAP = 50_000


# ---------------------------------------------------------------------------
# Unit staircase


def staircase(k: int, t):
    """Value of the k-th unit step at t > 0.

    With r = 1/t the step is min(k, r) - min(k - 1, r).  For r inside
    (k - 1, k] both clamps sit within a factor of two of each other, so
    the subtraction is exact in floating point; elsewhere the clamps
    coincide and the step is exactly 0 or the difference of two small
    integers.  Steps live in [0, 1], step k is positive exactly on
    t < 1 / (k - 1), and partial sums are exact (see
    staircase_partial_sum).
    """
    if k < 1:
        raise PreconditionError(f"step index must be >= 1, got {k}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise PreconditionError("steps are defined for t > 0 only")
    r = 1.0 / t
    out = np.minimum(float(k), r) - np.minimum(float(k - 1), r)
    return float(out) if out.ndim == 0 else out


def staircase_partial_sum(K: int, t):
    """Sum of the first K unit steps.  Equals min(K, 1/t), and the
    left-to-right float sum of the steps hits this value exactly: the
    leading terms are literal ones and the last partial step restores
    the clamp by an exact subtraction."""
    if K < 1:
        raise PreconditionError(f"need at least one step, got K={K}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise PreconditionError("steps are defined for t > 0 only")
    out = np.minimum(float(K), 1.0 / t)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Covers


class CozeroCover:
    """Finitely many nonnegative witness fields whose positivity sets
    cover every sample."""

    def __init__(self, space, witnesses, tol: float = _DEFAULT_TOL):
        witnesses = list(witnesses)
        if not witnesses:
            raise CoverError("a cover needs at least one witness")
        for j, w in enumerate(witnesses):
            if w.space is not space:
                raise PreconditionError(f"witness {j} lives on a different space")
            lo = float(w.values().min())
            if lo < 0.0:
                raise PreconditionError(
                    f"witness {j} takes the negative value {lo:.3e}")
        covered = np.zeros(space.n, dtype=bool)
        for w in witnesses:
            covered |= w.values() > 0.0
        missing = np.flatnonzero(~covered)
        if missing.size:
            raise CoverError(
                f"{missing.size} sample(s) lie outside every cozero set, "
                f"first is {int(missing[0])}")
        self.space = space
        self.witnesses = witnesses
        self.tol = tol

    def __len__(self) -> int:
        return len(self.witnesses)


class _BallUnion(ScalarField):
    """max(0, max over the balls of radius - d(center, .)) for one group
    of open balls: 1-Lipschitz and positive exactly on their union.

    One node whatever the group size, so evaluation never recurses per
    ball; it reads the distance columns DistanceTo reads, so its values
    equal a max-chain of tents bit for bit.  g labels the group in
    error messages.
    """

    def __init__(self, space, balls, g):
        super().__init__(space)
        balls = list(balls)
        if not balls:
            raise CoverError(f"ball group {g} is empty")
        self.centers = np.array([int(c) for c, _ in balls], dtype=int)
        self.radii = np.array([float(r) for _, r in balls])
        for center, radius in zip(self.centers, self.radii):
            if not (radius > 0.0):
                raise PreconditionError(
                    f"ball ({center}, {radius}) in group {g} has no interior")
        if self.centers.min() < 0 or self.centers.max() >= space.n:
            raise InputError(f"ball centers of group {g} lie outside the "
                             f"host space 0..{space.n - 1}")

    def _compute_values(self) -> np.ndarray:
        D = self.space.pairwise()[:, self.centers]
        return np.maximum((self.radii[None, :] - D).max(axis=1), 0.0)


def witness_from_balls(space, groups) -> CozeroCover:
    """Cover with one witness per group of open balls.

    Each group is a list of (center id, radius) pairs; its witness is
    the largest tent max(0, radius - d(center, .)) over the group, so
    it is 1-Lipschitz and positive exactly on the union of the open
    balls.  The groups together must cover every sample.
    """
    return CozeroCover(space, [_BallUnion(space, balls, g)
                               for g, balls in enumerate(groups)])


# ---------------------------------------------------------------------------
# Mather refinement


@dataclass
class MatherRefinement:
    """Shrunken witnesses gamma_n = max(eta_n - eta/2, 0)."""

    cover: CozeroCover
    gammas: list
    eta: ScalarField
    dominated: list = field(default_factory=list)

    def active_bound(self, p: int) -> int:
        """Smallest k with eta(p) > 2^-k; gammas deeper than k vanish at p."""
        v = float(self.eta.values()[p])
        k = 1
        while 2.0 ** -k >= v:
            k += 1
        return k


def mather_refine(cover: CozeroCover, tol: float = _DEFAULT_TOL) -> MatherRefinement:
    """Shrink the cover so every sample keeps a witness above half the
    mixture eta = sum eta_n / 2^n.

    Requires witness n bounded by 2^-n and 1-Lipschitz within
    tolerance.  At the largest witness of a sample the mixture is
    strictly smaller, so positivity survives the shrink; a witness with
    bound 2^-n dies wherever the mixture exceeds 2^-(n-1), which caps
    how many shrunken sets meet any sample.
    """
    space = cover.space
    for n, w in enumerate(cover.witnesses, start=1):
        hi = float(w.values().max())
        bound = 2.0 ** -n
        if hi > bound + tol:
            raise PreconditionError(
                f"witness {n} exceeds its 2^-{n} bound by {hi - bound:.3e}")
        est = global_lip(w)
        if est.value > 1.0 + tol:
            raise PreconditionError(
                f"witness {n} is not 1-Lipschitz: constant {est.value:.6f} "
                f"at pair {est.witness}")
    terms = [Constant(space, 2.0 ** -n) * w
             for n, w in enumerate(cover.witnesses, start=1)]
    eta = Series(space, terms)
    half = Constant(space, 0.5) * eta
    gammas = [maximum(w - half, Constant(space, 0.0)) for w in cover.witnesses]
    dominated = [j for j, g in enumerate(gammas)
                 if float(g.values().max()) == 0.0]
    kept = np.zeros(space.n, dtype=bool)
    for g in gammas:
        kept |= g.values() > 0.0
    lost = np.flatnonzero(~kept)
    if lost.size:
        raise CoverError(f"refinement lost sample {int(lost[0])}")
    return MatherRefinement(cover, gammas, eta, dominated)


# ---------------------------------------------------------------------------
# Partitions of unity


class PartitionOfUnity(Series):
    """Finite family of nonnegative fields with unit sum: a series whose
    terms are the members and whose activity mask bounds the members
    alive at every sample.

    set_index[m] names the cover set the m-th member is subordinated
    to: the member vanishes wherever that set's witness does.
    """

    def __init__(self, space, members, set_index, activity,
                 cover=None, notes=None):
        super().__init__(space, members, activity)
        self.members = self.terms
        self.set_index = list(set_index)
        self.cover = cover
        self.notes = list(notes or [])
        if len(self.set_index) != len(self.members):
            raise PreconditionError("need one set index per member")

    def __len__(self) -> int:
        return len(self.members)


def frolik_pou(cover: CozeroCover, tol: float = _DEFAULT_TOL,
               max_members: int = _DEFAULT_MEMBER_CAP) -> PartitionOfUnity:
    """Partition of unity subordinated to the cover.

    Witnesses are scaled to 1-Lipschitz, clamped at 2^-n, shrunk by
    mather_refine, and renormalized to peak 2^-n again.  The staircase
    of the reciprocal mixture then splits one into pieces

        xi[n, k] = eta_n * (min(k, 1/eta) - min(k - 1, 1/eta)),

    built on shared clamp nodes so the per-sample sums telescope.  The
    piece count per set is the largest staircase index alive on the
    set, which grows like 2^(cover size) divided by the cover's margin;
    the cap fails loudly instead of materializing an infeasible family.
    """
    space = cover.space
    normalized = []
    for n, w in enumerate(cover.witnesses, start=1):
        c = global_lip(w).value
        scaled = w
        if c > 1.0:
            scaled = Constant(space, 1.0 / c) * w
        normalized.append(minimum(Constant(space, 2.0 ** -n), scaled))
    refined = mather_refine(CozeroCover(space, normalized, tol), tol)

    rebuilt = []
    owners = []
    for j, g in enumerate(refined.gammas):
        beta = float(g.values().max())
        if beta == 0.0:
            continue
        unit = minimum(Constant(space, 1.0), Constant(space, 1.0 / beta) * g)
        rebuilt.append(Constant(space, 2.0 ** -(j + 1)) * unit)
        owners.append(j)

    mixture = Series(space, rebuilt)
    recip = Transported("reciprocal", mixture)
    rv = recip.values()
    live_k = np.ceil(rv).astype(int)       # piece k is live at p iff k - 1 < r(p)

    wvals = np.stack([w.values() for w in rebuilt])
    k_caps = []
    for j in range(len(rebuilt)):
        on = wvals[j] > 0.0
        k_caps.append(int(live_k[on].max()))
    total = int(sum(k_caps))
    if total > max_members:
        raise CoverError(
            f"staircase family needs {total} members for {len(rebuilt)} sets "
            f"(cap {max_members}); use fewer sets or better-margined witnesses")

    k_top = max(k_caps)
    clamps = [Constant(space, 0.0)]
    for k in range(1, k_top + 1):
        clamps.append(minimum(Constant(space, float(k)), recip))

    members = []
    set_index = []
    owner_row = []
    member_k = []
    for j, w in enumerate(rebuilt):
        for k in range(1, k_caps[j] + 1):
            members.append(w * (clamps[k] - clamps[k - 1]))
            set_index.append(owners[j])
            owner_row.append(j)
            member_k.append(k)

    owner_row = np.asarray(owner_row)
    member_k_arr = np.asarray(member_k)
    support = wvals > 0.0
    live = support[owner_row, :] & (member_k_arr[:, None] <= live_k[None, :])

    notes = []
    if refined.dominated:
        notes.append(f"dropped dominated set(s) {refined.dominated}")
    pou = PartitionOfUnity(space, members, set_index, live,
                           cover=cover, notes=notes)
    pou.refinement = refined
    pou.rebuilt = rebuilt
    pou.mixture = mixture
    pou.reciprocal = recip
    pou.k_caps = k_caps
    pou.member_k = member_k
    return pou


def index_subordinate(pou: PartitionOfUnity,
                      size: int | None = None) -> PartitionOfUnity:
    """Regroup members that share a cover set into one member per set.

    The output has exactly `size` members (default: the cover's witness
    count, else one past the largest assigned index); sets that
    received no members come back as zero fields.  Each nonempty group
    sums the same leaves as before, so certification sums over the
    regrouped family are bit-identical, and a regrouped member is
    positive only where its set's witness is.
    """
    space = pou.space
    if size is None:
        if pou.cover is not None:
            size = len(pou.cover.witnesses)
        else:
            size = 1 + max(pou.set_index, default=-1)
    high = max(pou.set_index, default=-1)
    if high >= size:
        raise InputError(f"subordination index {high} outside 0..{size - 1}")
    set_index = np.asarray(pou.set_index, dtype=int)
    members = []
    outer = np.zeros((size, space.n), dtype=bool)
    for n in range(size):
        ids = np.flatnonzero(set_index == n)
        if not ids.size:
            members.append(Constant(space, 0.0))
            continue
        inner = pou.activity[ids]
        members.append(Series(space, [pou.members[m] for m in ids], inner))
        outer[n] = inner.any(axis=0)
    return PartitionOfUnity(space, members, list(range(size)), outer,
                            cover=pou.cover,
                            notes=pou.notes + ["regrouped by cover set"])


# ---------------------------------------------------------------------------
# Nonexpansive splitting


@dataclass
class SplitResult:
    pieces: list
    m: int
    reconstruction: ScalarField


def nonexpansive_split(f: ScalarField, K: float,
                       tol: float = _DEFAULT_TOL) -> SplitResult:
    """Split a K-Lipschitz field into m = ceil(K) pieces of constant
    K/m <= 1 that sum back to f bit for bit.

    The pieces are consecutive differences of the scaled copies
    (i/m) f.  Adjacent copies sit within a factor of two of each
    other, so each difference is an exact float subtraction, and the
    summed pieces telescope back to the top copy 1.0 * f exactly.
    """
    if not math.isfinite(K) or K < 0.0:
        raise PreconditionError(f"need a finite nonnegative constant, got {K}")
    cert = check_k_lipschitz(f, K, tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"field is not {K}-Lipschitz: excess {cert.worst_violation:.3e} "
            f"at pair {cert.witness}", witness=cert.witness)
    m = max(1, math.ceil(K))
    if m == 1:
        pieces = [f]
    else:
        scaled = [Constant(f.space, i / m) * f for i in range(1, m + 1)]
        pieces = [scaled[0]]
        for i in range(1, m):
            pieces.append(scaled[i] - scaled[i - 1])
    return SplitResult(pieces, m, Series(f.space, pieces))
