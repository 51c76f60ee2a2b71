"""Cozero covers and partitions of unity of Lipschitz type.

A cover is carried by nonnegative witness fields: the n-th set of the
cover is where the n-th witness is positive.  The pipeline normalizes
witnesses to 1-Lipschitz functions bounded by 2^-n, shrinks them so
every sample keeps one witness above half the running mixture, and
splits the reciprocal of the mixture with the unit staircase

    step(k, r) = min(k, r) - min(k - 1, r),      r = 1 / t,

whose partial sums telescope without rounding.  The resulting family is
nonnegative, sums to one, vanishes outside the shrunken sets, and is
finitely active at every sample.  Regrouped by set, its steps sum to
R_n / m, the shrunken witness over the mixture; the blends read that
closed form and build no staircase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .certify import check_k_lipschitz
from .errors import CoverError, PreconditionError
from .metric_space import _DEFAULT_TOL
from .scalar_field import (Constant, ScalarField, Series, Tabulated,
                           _column_sums, global_lip)

_MEMBER_CAP = 50_000
_SPLIT_BUDGET = 1 << 20     # m (n + 32) of nonexpansive_split, at most


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
        covered = np.zeros(space.n, dtype=bool)
        for j, w in enumerate(witnesses):
            if w.space is not space:
                raise PreconditionError(f"witness {j} lives on a different space")
            lo = float(w.values().min())
            if lo < 0.0:
                raise PreconditionError(
                    f"witness {j} takes the negative value {lo:.3e}")
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

    One pass over the distance columns whatever the group size, computed
    when built, as the cover that holds it reads it at once; it reads
    the columns DistanceTo reads, so its values equal a max-chain of
    tents bit for bit.  centers and radii are aligned; g labels the
    group in error messages.
    """

    def __init__(self, space, centers, radii, g):
        if not len(centers):
            raise CoverError(f"ball group {g} is empty")
        self.centers = _pairs.sample_ids(centers, space.n,
                                         f"group {g} ball center")
        self.radii = np.array(radii, dtype=float)
        bad = np.flatnonzero(~(self.radii > 0.0))
        if bad.size:
            j = bad[0]
            raise PreconditionError(
                f"ball ({self.centers[j]}, {self.radii[j]}) in group {g} "
                f"has no interior")
        out = _pairs.envelope(space, self.centers, self.radii, 1.0, -1)
        super().__init__(space, np.maximum(out, 0.0, out=out))


def witness_from_balls(space, groups) -> CozeroCover:
    """Cover with one witness per group of open balls.

    Each group is a list of (center id, radius) pairs; its witness is
    the largest tent max(0, radius - d(center, .)) over the group, so
    it is 1-Lipschitz and positive exactly on the union of the open
    balls.  The groups together must cover every sample.
    """
    return CozeroCover(space, [_BallUnion(space, *_pairs.unzip(balls, 2), g)
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
        v = self.eta(p)
        k = 1
        while 2.0 ** -k >= v:
            k += 1
        return k


def _shrink(cover: CozeroCover, W: np.ndarray):
    """The shrink of mather_refine on W, the stacked witness rows of the
    cover's sets, which it does not check.  Returns the refinement and
    the read-only matrix G whose rows are its gammas."""
    space = cover.space
    eta = _column_sums(2.0 ** -np.arange(1.0, len(W) + 1)[:, None] * W)
    G = np.maximum(W - 0.5 * eta, 0.0)
    lost = np.flatnonzero(~(G > 0.0).any(axis=0))
    if lost.size:
        raise CoverError(f"refinement lost sample {int(lost[0])}")
    zero = np.flatnonzero(eta == 0.0)
    if zero.size:
        raise CoverError(f"mixture eta underflows to 0 at sample {int(zero[0])}")
    dominated = np.flatnonzero(G.max(axis=1) == 0.0).tolist()
    G.setflags(write=False)
    return MatherRefinement(cover, [ScalarField(space, g) for g in G],
                            Tabulated(space, eta), dominated), G


def mather_refine(cover: CozeroCover, tol: float = _DEFAULT_TOL) -> MatherRefinement:
    """Shrink the cover so every sample keeps a witness above half the
    mixture eta = sum eta_n / 2^n.

    Requires witness n bounded by 2^-n and 1-Lipschitz within
    tolerance.  At the largest witness of a sample the mixture is
    strictly smaller, so positivity survives the shrink; a witness with
    bound 2^-n dies wherever the mixture exceeds 2^-(n-1), which caps
    how many shrunken sets meet any sample.
    """
    W = np.stack([w.values() for w in cover.witnesses])
    lips = _pairs.max_slopes(cover.space, W, zero=math.inf)
    for n, (w, lip) in enumerate(zip(W, lips), start=1):
        hi = float(w.max())
        bound = 2.0 ** -n
        if hi > bound + tol:
            raise PreconditionError(
                f"witness {n} exceeds its 2^-{n} bound by {hi - bound:.3e}")
        if lip > 1.0 + tol:
            est = global_lip(ScalarField(cover.space, w))
            raise PreconditionError(
                f"witness {n} is not 1-Lipschitz: constant {est.value:.6f} "
                f"at pair {est.witness}")
    return _shrink(cover, W)[0]


# ---------------------------------------------------------------------------
# Partitions of unity


class PartitionOfUnity(ScalarField):
    """Finite family of nonnegative fields with unit sum, held as one
    read-only (members, n) matrix and an activity mask of the same
    shape that bounds the members alive at every sample.  members[m]
    is a field holding row m, a view with no copy.

    set_index[m] names the cover set the m-th member is subordinated
    to: the member vanishes wherever that set's witness does.  The
    family's value is the exactly rounded column sum of its rows under
    its mask, computed on first read unless values gives it; a family
    regrouped by index_subordinate is given the sum of the family it
    came from, so regrouping cannot move the sum.
    """

    def __init__(self, space, matrix, set_index, activity,
                 cover=None, notes=None, values=None):
        super().__init__(space, values)
        self.set_index = list(set_index)
        self.matrix = np.asarray(matrix, dtype=float).view()
        self.activity = np.asarray(activity, dtype=bool).view()
        shape = (len(self.set_index), space.n)
        if self.matrix.shape != shape or self.activity.shape != shape:
            raise PreconditionError(f"matrix and activity need shape {shape}")
        self.matrix.setflags(write=False)
        self.activity.setflags(write=False)
        self.members = [ScalarField(space, row) for row in self.matrix]
        self.cover = cover
        self.notes = list(notes or [])

    def _compute_values(self) -> np.ndarray:
        return _column_sums(self.matrix, self.activity)

    def __len__(self) -> int:
        return len(self.set_index)


def _scaled_mixture(cover: CozeroCover):
    """The scaled, refined witnesses R and their mixture m = sum R.

    Witnesses are scaled to 1-Lipschitz, clamped at 2^-n, shrunk as
    mather_refine shrinks them, and renormalized to peak 2^-n again;
    the scaled rows meet mather_refine's bounds by construction (up to
    an ulp of the scaling), so they are not checked again;
    dominated sets, whose shrunken witness vanishes, get no row.
    Returns (refinement, owners, R, mixture, recip): R[i] belongs to
    cover set owners[i], and recip = 1 / mixture is finite everywhere.
    """
    space = cover.space
    W = np.stack([w.values() for w in cover.witnesses])
    for row, c in zip(W, _pairs.max_slopes(space, W, zero=math.inf)):
        if c > 1.0:
            row *= 1.0 / c
    bounds = 2.0 ** -np.arange(1.0, len(W) + 1)
    refined, G = _shrink(cover, np.minimum(bounds[:, None], W))

    beta = G.max(axis=1)
    owners = np.flatnonzero(beta != 0.0)
    # a subnormal peak or mixture makes a reciprocal overflow; the NaN or
    # inf it leaves reaches recip, whose check names the first such sample
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        R = bounds[owners, None] * np.minimum(
            1.0, (1.0 / beta[owners, None]) * G[owners])
        mixture = _column_sums(R)
        recip = 1.0 / mixture
    far = np.flatnonzero(~np.isfinite(recip))
    if far.size:
        raise CoverError(f"1 / mixture is not finite at sample {int(far[0])}")
    return refined, owners, R, mixture, recip


def frolik_pou(cover: CozeroCover, tol: float = _DEFAULT_TOL) -> PartitionOfUnity:
    """Partition of unity subordinated to the cover: the paper's raw
    staircase family.

    The staircase of the reciprocal mixture of _scaled_mixture splits
    one into pieces

        xi[n, k] = R_n * staircase(k, m),

    computed one staircase row per step index k shared by every set
    alive at k, and written one member per row of the family's matrix,
    so the per-sample sums telescope.  The piece count per set is the
    largest staircase index alive on the set, which grows like
    2^(cover size) divided by the cover's margin; past _MEMBER_CAP
    members it fails loudly instead of materializing an infeasible
    family.  The blends read the regrouped form R_n / m and never build
    it (see _blend).
    pou.refinement shrinks the scaled and clamped rows and names the
    given cover.  No check reads tol: the rows are scaled and clamped
    here, so they meet mather_refine's bounds by construction.
    """
    space = cover.space
    refined, owners, R, mixture, recip = _scaled_mixture(cover)
    # piece k is live at p iff k - 1 < recip(p); kept as floats, so a
    # huge finite recip is counted exactly and never cast
    live_k = np.ceil(recip)

    support = R > 0.0
    k_caps = [int(live_k[on].max()) for on in support]
    total = int(sum(k_caps))
    if total > _MEMBER_CAP:
        raise CoverError(
            f"staircase family needs {total} members for {len(R)} sets "
            f"(cap {_MEMBER_CAP}); use fewer sets or better-margined witnesses")

    # the members of rebuilt set j are its steps 1..k_caps[j] in a row
    # run from starts[j]; step k is shared by every set alive at k
    caps = np.array(k_caps)
    starts = np.cumsum(caps) - caps
    members = np.empty((total, space.n))
    live = np.empty((total, space.n), dtype=bool)
    for k in range(1, max(k_caps) + 1):
        alive = np.flatnonzero(caps >= k)
        rows = starts[alive] + (k - 1)
        members[rows] = R[alive] * staircase(k, mixture)
        live[rows] = support[alive] & (k <= live_k)
    set_index = np.repeat(owners, caps).tolist()

    notes = []
    if refined.dominated:
        notes.append(f"dropped dominated set(s) {refined.dominated}")
    pou = PartitionOfUnity(space, members, set_index, live,
                           cover=cover, notes=notes)
    pou.refinement = refined
    pou.k_caps = k_caps
    return pou


def index_subordinate(pou: PartitionOfUnity) -> PartitionOfUnity:
    """Regroup members that share a cover set into one member per set.

    The output has one member per set of pou's cover and per assigned
    index past them; sets that received no members (a dominated set)
    come back as zero rows.  Row n is the exact masked column sum of
    the members assigned to set n, and the output holds pou's values as
    its own, so its sum, and every certification sum over it, is
    bit-identical and computed once; a regrouped member is positive
    only where its set's witness is.
    """
    space = pou.space
    size = max(max(pou.set_index, default=-1) + 1,
               0 if pou.cover is None else len(pou.cover.witnesses))
    set_index = np.asarray(pou.set_index, dtype=int)
    matrix = np.empty((size, space.n))
    outer = np.empty((size, space.n), dtype=bool)
    for n in range(size):
        rows = np.flatnonzero(set_index == n)
        matrix[n] = _column_sums(pou.matrix[rows], pou.activity[rows])
        outer[n] = pou.activity[rows].any(axis=0)
    return PartitionOfUnity(space, matrix, range(size), outer,
                            cover=pou.cover,
                            notes=pou.notes + ["regrouped by cover set"],
                            values=pou.values())


def _blend(cover: CozeroCover, piece) -> Series:
    """The sum over the cover's sets of psi_n xi_n, where xi_n = R_n / m
    is the partition of unity of frolik_pou regrouped by set and psi_n =
    piece(n, xi_n) is the field the caller carries on set n.

    On the support of R_n the staircase steps of set n sum to
    min(cap_n, 1/m) = 1/m, so xi_n = R_n * (1 / m), within an ulp of
    the regrouped staircase and with none built; a dominated set gets
    a zero row.  Each psi_n only matters where its set lives.  The
    series carries the partition, whose value is its own exact column
    sum, as .partition and the psi_n as .pieces.
    """
    space = cover.space
    _, owners, R, _, recip = _scaled_mixture(cover)
    matrix = np.zeros((len(cover), space.n))
    matrix[owners] = R * recip  # positive exactly where R is: m < 1
    partition = PartitionOfUnity(space, matrix, range(len(cover)),
                                 matrix > 0.0, cover=cover)
    pieces = [piece(n, xi) for n, xi in enumerate(partition.members)]
    out = Series(space, [psi * xi for psi, xi in
                         zip(pieces, partition.members)], partition.activity)
    out.partition = partition
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
    A value that is not finite is refused, naming its sample: with a
    pair it fails the K-Lipschitz check, and alone its copies would
    subtract inf - inf.

    The split is bounded: m (n + 32) above _SPLIT_BUDGET = 2^20, for
    n samples, is refused with a PreconditionError before any work.
    The copies, the pieces and the exact sums of the reconstruction
    cost about 22 bytes and 0.75 us per value, and each field about
    32 values' worth of time besides (one x86-64 core), so a split
    stays within about 25 MB and a second, where a finite K such as
    1e300 would otherwise run until memory runs out.
    """
    if not math.isfinite(K) or K < 0.0:
        raise PreconditionError(f"need a finite nonnegative constant, got {K}")
    m = max(1, math.ceil(K))
    if m * (f.space.n + 32) > _SPLIT_BUDGET:
        raise PreconditionError(
            f"K = {K} needs {m:.6g} pieces of {f.space.n} samples: m (n + 32) "
            f"is past the split budget of {_SPLIT_BUDGET}")
    cert = check_k_lipschitz(f, K, tol=tol)
    if not cert.passed:
        raise PreconditionError(
            f"field is not {K}-Lipschitz: excess {cert.worst_violation:.3e} "
            f"at pair {cert.witness}", witness=cert.witness)
    # a value alone, with no pair to check, may still be inf or NaN
    v = f.values()
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        x = int(bad[0])
        raise PreconditionError(f"f({x}) = {v[x]} is not finite", witness=x)
    scaled = [Constant(f.space, i / m) * f for i in range(1, m + 1)]
    pieces = [f] if m == 1 else scaled[:1] + [
        hi - lo for lo, hi in zip(scaled, scaled[1:])]
    return SplitResult(pieces, m, Series(f.space, pieces))
