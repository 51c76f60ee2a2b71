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
from .scalar_field import Constant, ScalarField, Series, Tabulated, global_lip

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

    def __init__(self, space, witnesses):
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
    W = np.stack([w.values() for w in cover.witnesses])
    eta = Series(space, [Tabulated(space, 2.0 ** -n * w)
                         for n, w in enumerate(W, start=1)]).values()
    G = np.maximum(W - 0.5 * eta, 0.0)
    lost = np.flatnonzero(~(G > 0.0).any(axis=0))
    if lost.size:
        raise CoverError(f"refinement lost sample {int(lost[0])}")
    zero = np.flatnonzero(eta == 0.0)
    if zero.size:
        raise CoverError(f"mixture eta underflows to 0 at sample {int(zero[0])}")
    dominated = np.flatnonzero(G.max(axis=1) == 0.0).tolist()
    return MatherRefinement(cover, [Tabulated(space, g) for g in G],
                            Tabulated(space, eta), dominated)


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

        xi[n, k] = eta_n * staircase(k, eta),

    computed on the stacked witness values, so the per-sample sums
    telescope; fields are made only for the members handed out.  The
    piece count per set is the largest staircase index alive on the
    set, which grows like 2^(cover size) divided by the cover's margin;
    the cap fails loudly instead of materializing an infeasible family.
    """
    space = cover.space
    normalized = []
    for n, w in enumerate(cover.witnesses, start=1):
        c = global_lip(w).value
        v = w.values()
        if c > 1.0:
            v = (1.0 / c) * v
        normalized.append(Tabulated(space, np.minimum(2.0 ** -n, v)))
    refined = mather_refine(CozeroCover(space, normalized), tol)

    G = np.stack([g.values() for g in refined.gammas])
    beta = G.max(axis=1).tolist()
    owners = [j for j, b in enumerate(beta) if b != 0.0]
    # a subnormal peak or mixture makes a reciprocal overflow; the NaN or
    # inf it leaves reaches recip, whose check names the first such sample
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        R = np.stack([2.0 ** -(j + 1) * np.minimum(1.0, (1.0 / beta[j]) * G[j])
                      for j in owners])
        mixture = Series(space, [Tabulated(space, r) for r in R]).values()
        recip = 1.0 / mixture
    far = np.flatnonzero(~np.isfinite(recip))
    if far.size:
        raise CoverError(f"1 / mixture is not finite at sample {int(far[0])}")
    # piece k is live at p iff k - 1 < recip(p); kept as floats, so a
    # huge finite recip is counted exactly and never cast
    live_k = np.ceil(recip)

    support = R > 0.0
    k_caps = [int(live_k[on].max()) for on in support]
    total = int(sum(k_caps))
    if total > max_members:
        raise CoverError(
            f"staircase family needs {total} members for {len(R)} sets "
            f"(cap {max_members}); use fewer sets or better-margined witnesses")

    # member m is step member_k[m] of rebuilt set owner_row[m]
    owner_row = np.repeat(np.arange(len(R)), k_caps)
    member_k = np.concatenate([np.arange(1, c + 1) for c in k_caps])
    members = [Tabulated(space, R[j] * staircase(int(k), mixture))
               for j, k in zip(owner_row, member_k)]
    set_index = [owners[j] for j in owner_row]
    live = support[owner_row] & (member_k[:, None] <= live_k[None, :])

    notes = []
    if refined.dominated:
        notes.append(f"dropped dominated set(s) {refined.dominated}")
    pou = PartitionOfUnity(space, members, set_index, live,
                           cover=cover, notes=notes)
    pou.refinement = refined
    pou.k_caps = k_caps
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


def _blend(cover: CozeroCover, piece, tol: float, max_members: int) -> Series:
    """The sum over the cover's sets of psi_n xi_n, where xi_n is the
    partition of unity of frolik_pou regrouped by set and psi_n =
    piece(n, xi_n) is the field the caller carries on set n.

    Every xi_n vanishes off set n, so each psi_n only matters where its
    set lives.  The returned series carries the regrouped partition as
    .partition and the psi_n as .pieces.
    """
    grouped = index_subordinate(frolik_pou(cover, tol, max_members))
    pieces = [piece(n, xi) for n, xi in enumerate(grouped.members)]
    out = Series(cover.space, [psi * xi for psi, xi in
                               zip(pieces, grouped.members)], grouped.activity)
    out.partition = grouped
    out.pieces = pieces
    return out


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
