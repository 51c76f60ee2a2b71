"""Selections and insertions between pointwise window bounds.

An interval mapping assigns each sample the open window
(lower(x), upper(x)), either side optionally absent (unbounded).  The
selection routine picks finitely many dyadic levels stabbing every
margined window, covers the sample with their window witnesses, and
blends the levels through a partition of unity; the result is a
Lipschitz field strictly inside every window.  On top of it sit
insertion between two fields, extension of a partial function to a
selection, and a strictly decreasing staircase of insertions
converging to a target from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, PreconditionError
from .local_lipschitz import LocalWitness, local_extend
from .metric_space import _DEFAULT_TOL, Subset
from .partition_of_unity import _DEFAULT_MEMBER_CAP, CozeroCover, _blend
from .scalar_field import (Constant, DistanceTo, Interval, ScalarField,
                           Tabulated, Transported, maximum, minimum)
from .certify import _as_values_on

_DEPTHS = (1, 2, 3, 6, 12, 20)
_MAX_SETS = 12


@dataclass
class IntervalMapping:
    """Open window (lower(x), upper(x)) at each sample; a None side is
    unbounded.  Sentinel bounds replace an absent side by a constant
    placed one span beyond the present one, so window arithmetic stays
    finite."""

    space: object
    lower: ScalarField | None = None
    upper: ScalarField | None = None

    def __post_init__(self):
        for side in (self.lower, self.upper):
            if side is not None and side.space is not self.space:
                raise PreconditionError("window side lives on a different space")

    def sentinels(self):
        """(lower bounds, upper bounds) as finite arrays."""
        if self.lower is None and self.upper is None:
            n = self.space.n
            return np.full(n, -1.0), np.full(n, 1.0)
        if self.lower is not None and self.upper is not None:
            return self.lower.values().copy(), self.upper.values().copy()
        if self.lower is not None:
            g = self.lower.values()
            span = float(g.max() - g.min())
            return g.copy(), np.full(g.size, float(g.max()) + max(span, 1.0))
        h = self.upper.values()
        span = float(h.max() - h.min())
        return np.full(h.size, float(h.min()) - max(span, 1.0)), h.copy()

    def strict_mask(self, f: ScalarField) -> np.ndarray:
        """Where f sits strictly inside the true (unbounded-aware) windows."""
        v = f.values()
        ok = np.ones(self.space.n, dtype=bool)
        if self.lower is not None:
            ok &= v > self.lower.values()
        if self.upper is not None:
            ok &= v < self.upper.values()
        return ok


@dataclass
class RationalGrid:
    """Finite sorted level set for selections, with its dyadic depth;
    consecutive levels of a generated grid differ by 2^-depth."""

    levels: tuple
    depth: int

    def __post_init__(self):
        lv = tuple(float(r) for r in self.levels)
        if not lv:
            raise PreconditionError("grid needs at least one level")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise PreconditionError("grid levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)

    @staticmethod
    def dyadic(lo: float, hi: float, depth: int) -> "RationalGrid":
        """All multiples of 2^-depth inside [lo, hi]."""
        step = 2.0 ** -int(depth)
        klo = int(np.ceil(lo / step - 1e-12))
        khi = int(np.floor(hi / step + 1e-12))
        if khi < klo:
            raise PreconditionError(
                f"no multiple of 2^-{int(depth)} lies in [{lo}, {hi}]")
        return RationalGrid(tuple(k * step for k in range(klo, khi + 1)),
                            int(depth))


@dataclass
class OpennessReport:
    """Outcome of probing the window graph at one sample."""

    ok: bool
    radius: float
    counterexample: int | None
    probe: tuple


def graph_open_check(mapping: IntervalMapping, x: int, s: float,
                     t: float) -> OpennessReport:
    """Probe openness of the window graph at sample x with s < t.

    With [s, t] inside the window at x, reports a radius r such that
    every sample within r of x keeps [s, t] inside its window: the
    distance to the nearest sample that does not (reported as the
    counterexample), or the sample diameter when all do.  A
    counterexample at distance zero (a duplicate of x with an
    incompatible window) fails the check.
    """
    x = int(x)
    s, t = float(s), float(t)
    if not s < t:
        raise PreconditionError(f"probe needs s < t, got [{s}, {t}]")
    n = mapping.space.n
    good = np.ones(n, dtype=bool)
    if mapping.lower is not None:
        gv = mapping.lower.values()
        if not gv[x] < s:
            raise PreconditionError(
                f"probe value {s} is not inside the window at {x}", witness=x)
        good &= gv < s
    if mapping.upper is not None:
        hv = mapping.upper.values()
        if not t < hv[x]:
            raise PreconditionError(
                f"probe value {t} is not inside the window at {x}", witness=x)
        good &= t < hv
    bad = np.flatnonzero(~good)
    D = mapping.space.pairwise()
    if bad.size == 0:
        return OpennessReport(True, float(D.max()), None, (x, s, t))
    j = int(np.argmin(D[x, bad]))
    radius = float(D[x, bad][j])
    return OpennessReport(radius > 0.0, radius, int(bad[j]), (x, s, t))


def _stab_windows(klo: np.ndarray, khi: np.ndarray):
    """Minimal set of integers hitting every interval [klo_x, khi_x],
    by the classic sweep: order by right endpoint, stab with it when
    the running stab no longer covers.  Biases choices upward."""
    order = np.lexsort((klo, khi))
    chosen = []
    last = None
    for x in order:
        if last is None or last < klo[x]:
            last = int(khi[x])
            chosen.append(last)
    return chosen


def select(mapping: IntervalMapping, grid: RationalGrid | None = None,
           tol: float = _DEFAULT_TOL, depths=_DEPTHS,
           max_sets: int = _MAX_SETS,
           max_members: int = _DEFAULT_MEMBER_CAP) -> ScalarField:
    """Lipschitz field strictly inside every window.

    With an explicit grid, its levels must reach inside every window;
    a minimal upward-biased subset of them stabs all windows.  Without
    one, dyadic levels k 2^-d are tried at increasing depth until
    every window, shrunk by a quarter theta of the narrowest width,
    contains one.  Each chosen level r carries the witness

        min(1, max(0, min(r - lower, upper - r) - cushion)),

    cushion = theta/2 for the dyadic ladder and 0 for an explicit
    grid, so a witness is positive exactly where its level clears the
    cushion inside the window, and the stabbing makes the witnesses
    cover the sample.  Blending the levels through the witnesses'
    partition of unity keeps every sample value a sub-unit convex mix
    of levels admissible there, hence strictly inside its window.
    """
    space = mapping.space
    gt, ht = mapping.sentinels()
    width = ht - gt
    x = int(np.argmin(width))
    if not (width[x] > 0.0):
        raise PreconditionError(
            f"window at sample {x} has no interior (width {width[x]!r})",
            witness=x)

    if grid is not None:
        levels = np.asarray(grid.levels)
        # strict containment against the true one-sided windows
        if mapping.lower is not None:
            klo = np.searchsorted(levels, mapping.lower.values(), side="right")
        else:
            klo = np.zeros(space.n, dtype=np.int64)
        if mapping.upper is not None:
            khi = np.searchsorted(levels, mapping.upper.values(),
                                  side="left") - 1
        else:
            khi = np.full(space.n, levels.size - 1, dtype=np.int64)
        short = np.flatnonzero(klo > khi)
        if short.size:
            raise GridError(
                f"grid too coarse: no level inside the window at sample "
                f"{int(short[0])}; refine the grid", witness=int(short[0]))
        stabs = _stab_windows(klo, khi)
        if len(stabs) > max_sets:
            raise GridError(
                f"{len(stabs)} stabbing levels exceed the cap {max_sets}")
        chosen = [float(levels[k]) for k in stabs]
        depth = grid.depth
        cushion = 0.0
    else:
        theta = float(width.min()) / 4.0
        chosen = None
        depth = None
        for d in depths:
            step = 2.0 ** -d
            klo = np.ceil((gt + theta) / step - 1e-12).astype(np.int64)
            khi = np.floor((ht - theta) / step + 1e-12).astype(np.int64)
            if np.any(klo > khi):
                continue
            stabs = _stab_windows(klo, khi)
            if len(stabs) > max_sets:
                continue
            chosen = [k * step for k in stabs]
            depth = d
            break
        if chosen is None:
            raise GridError(
                f"no dyadic level set of size <= {max_sets} stabs the "
                f"margined windows at depths {tuple(depths)}")
        cushion = theta / 2.0

    # most-covering level first: it receives the heaviest cover weight
    cover_count = []
    for r in chosen:
        inside = (gt + cushion < r) & (r < ht - cushion)
        cover_count.append(int(inside.sum()))
    order = sorted(range(len(chosen)),
                   key=lambda i: (-cover_count[i], -chosen[i]))
    values = [chosen[i] for i in order]

    # ladder levels live inside the sentinel windows, so sentinel
    # margins work there; explicit levels may not, so absent sides
    # must drop out of their margins entirely
    if grid is not None:
        def margin_at(level):
            terms = ([level - mapping.lower] if mapping.lower is not None
                     else [])
            if mapping.upper is not None:
                terms.append(mapping.upper - level)
            if not terms:
                return Constant(space, 1.0)
            return terms[0] if len(terms) == 1 else minimum(*terms)
    else:
        glow = Tabulated(space, gt)
        high = Tabulated(space, ht)
        def margin_at(level):
            return minimum(level - glow, high - level)
    witnesses = []
    for r in values:
        level = Constant(space, r)
        cushioned = maximum(margin_at(level) - Constant(space, cushion),
                            Constant(space, 0.0))
        witnesses.append(minimum(Constant(space, 1.0), cushioned))
    out = _blend(CozeroCover(space, witnesses),
                 lambda n, xi: Constant(space, values[n]), tol, max_members)
    out.chosen_levels = values
    out.grid_depth = depth
    out.margin = cushion
    return out


def select_extend(A: Subset, phi, witness: LocalWitness,
                  mapping: IntervalMapping, tol: float = _DEFAULT_TOL,
                  **select_kwargs) -> Tabulated:
    """Selection through the windows that agrees with phi on A exactly.

    phi (strictly inside its windows on A) is first extended to a
    global Lipschitz field; where that field already sits strictly
    inside the windows it is kept, and elsewhere it is blended toward
    an independent selection, with blend weight d(., A) / (d(., A) +
    d(., failure set)).  The blend vanishes on A, and the returned
    table carries phi on A verbatim.
    """
    space = A.space
    vals = _as_values_on(A, phi)
    probe = np.zeros(space.n)
    probe[A.members] = vals
    inside = mapping.strict_mask(Tabulated(space, probe))
    if not inside[A.members].all():
        x = int(A.members[~inside[A.members]][0])
        raise PreconditionError(
            f"phi({x}) does not sit strictly inside its window", witness=x)

    target = Interval.real_line()
    base = local_extend(A, vals, witness, target, tol)
    in_A = np.zeros(space.n, dtype=bool)
    in_A[A.members] = True
    keep = mapping.strict_mask(base)
    failing = np.flatnonzero(~keep & ~in_A)

    if failing.size == 0:
        blended = base
        selector = None
    else:
        selector = select(mapping, tol=tol, **select_kwargs)
        near = DistanceTo(space, A.members)
        far = DistanceTo(space, failing)
        weight = near * Transported("reciprocal", near + far)
        blended = (Constant(space, 1.0) - weight) * base + weight * selector

    final = blended.values().copy()
    final[A.members] = vals
    out = Tabulated(space, final)
    out.base = base
    out.selector = selector
    out.blend = blended
    return out


def insert(space, lower: ScalarField | None = None,
           upper: ScalarField | None = None, A: Subset | None = None,
           phi=None, witness: LocalWitness | None = None,
           tol: float = _DEFAULT_TOL, **select_kwargs) -> ScalarField:
    """Field strictly between lower and upper at every sample; with A,
    phi, and a witness, also equal to phi on A."""
    mapping = IntervalMapping(space, lower, upper)
    if A is None:
        return select(mapping, tol=tol, **select_kwargs)
    if phi is None or witness is None:
        raise PreconditionError("insertion through A needs phi and a witness")
    return select_extend(A, phi, witness, mapping, tol, **select_kwargs)


def decreasing_approx(phi: ScalarField, steps: int,
                      tol: float = _DEFAULT_TOL, **select_kwargs) -> list:
    """Strictly decreasing insertions pinching down to phi.

    f_1 sits in (phi, phi + 1) and f_{n+1} in (phi, (phi + f_n) / 2),
    so the gaps f_n - phi halve at worst: sup(f_n - phi) < 2^(1-n),
    and each step strictly dominates the next.
    """
    if steps < 1:
        raise PreconditionError(f"need at least one step, got {steps}")
    space = phi.space
    out = []
    ceiling = phi + Constant(space, 1.0)
    for _ in range(steps):
        f = select(IntervalMapping(space, phi, ceiling), tol=tol,
                   **select_kwargs)
        out.append(f)
        ceiling = Constant(space, 0.5) * (phi + f)
    return out
