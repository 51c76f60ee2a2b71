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

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _pairs
from .errors import GridError, PreconditionError
from .local_lipschitz import LocalWitness, local_extend
from .metric_space import _DEFAULT_TOL, Subset
from .partition_of_unity import CozeroCover, _blend
from .scalar_field import (Constant, DistanceTo, Interval, ScalarField,
                           Tabulated, Transported)
from .certify import _as_values_on

_DEPTHS = (1, 2, 3, 6, 12, 20)


@dataclass
class IntervalMapping:
    """Open window (lower(x), upper(x)) at each sample; a None side is
    unbounded."""

    space: object
    lower: ScalarField | None = None
    upper: ScalarField | None = None

    def __post_init__(self):
        for side in (self.lower, self.upper):
            if side is not None and side.space is not self.space:
                raise PreconditionError("window side lives on a different space")

    def bounds(self):
        """The true windows (lo, hi), an absent side at -inf / +inf."""
        n = self.space.n
        return (np.full(n, -np.inf) if self.lower is None
                else self.lower.values(),
                np.full(n, np.inf) if self.upper is None
                else self.upper.values())

    def sentinels(self):
        """(lo, hi) as finite arrays: an absent side becomes a constant
        one span (at least 1) beyond the present one (see _beyond);
        with neither side, the windows are (-1, 1)."""
        lo, hi = self.bounds()
        if self.lower is None and self.upper is None:
            return np.full(lo.size, -1.0), np.full(hi.size, 1.0)
        if self.upper is None:
            return lo, np.full(lo.size, _beyond(lo))
        if self.lower is None:
            return np.full(hi.size, -_beyond(-hi)), hi
        return lo, hi

    def strict_mask(self, f: ScalarField) -> np.ndarray:
        """Where f sits strictly inside the true windows."""
        lo, hi = self.bounds()
        v = f.values()
        return (lo < v) & (v < hi)


def _beyond(g) -> float:
    """A finite level above every entry of g: one span of g (at least
    1) past its top b.  Where that rounds back onto b or overflows
    (|b| past 2^53, or a span past the float range), max(2b, -b),
    capped at the largest float, so a window far from 0 keeps an
    interior and, unless b is beyond half the float range, a margined
    one the dyadic levels can reach."""
    b = float(g.max())
    s = b + max(b - float(g.min()), 1.0)
    if b < s < math.inf:
        return s
    return min(max(2.0 * b, -b), sys.float_info.max)


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
    incompatible window) fails the check.  x must be a sample id (see
    _pairs.sample_ids).
    """
    x = _pairs.sample_id(x, mapping.space.n)
    s, t = float(s), float(t)
    if not s < t:
        raise PreconditionError(f"probe needs s < t, got [{s}, {t}]")
    lo, hi = mapping.bounds()
    good = (lo < s) & (t < hi)
    if not good[x]:
        raise PreconditionError(f"probe value {t if lo[x] < s else s} is not "
                                f"inside the window at {x}", witness=x)
    bad = np.flatnonzero(~good)
    if bad.size == 0:
        return OpennessReport(True, mapping.space.diameter(), None, (x, s, t))
    d = mapping.space.dist_row(x)[bad]
    j = int(np.argmin(d))
    radius = float(d[j])
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


def select(mapping: IntervalMapping) -> ScalarField:
    """Lipschitz field strictly inside every window.

    Dyadic levels k 2^-d are tried at the depths _DEPTHS, then at the
    first d with 2^-d <= theta, until every window, shrunk by a quarter
    theta of the narrowest width (so at least 2 theta long), contains
    one; the widths are read on the sentinel windows, and theta from
    their quarters when every width overflows.  A minimal upward-biased
    set of levels stabs the shrunken windows, and each chosen level r
    carries the witness row

        min(1, max(0, min(r - lower, upper - r) - theta/2)),

    an absent side at infinity, so a witness is positive exactly where
    its level clears the cushion theta/2 inside the true window; a
    depth counts once they cover the sample.  A failing depth whose
    indices k are not finite or reach 2^53 has no exact multiples near
    some window, nor has any deeper one: GridError names the sample.
    Blending the levels through the witnesses' partition of unity
    keeps every sample value a sub-unit convex mix of levels
    admissible there, hence strictly inside its window.  The level
    count has no cap: past about 537 levels the partition's mixture
    underflows, and CoverError names the sample.
    """
    space = mapping.space
    gt, ht = mapping.sentinels()
    with np.errstate(over="ignore"):
        width = ht - gt
    x = int(np.argmin(width))
    if not (width[x] > 0.0):
        raise PreconditionError(
            f"window at sample {x} has no interior (width {float(width[x])!r})",
            witness=x)
    lo, hi = mapping.bounds()

    theta = float(width[x]) / 4.0
    if theta == math.inf:
        theta = float((ht / 4.0 - gt / 4.0).min())
    cushion = theta / 2.0
    # 2^-d <= theta from d = 1 - e, where theta = m 2^e, 1/2 <= m < 1
    depths = _DEPTHS + (1 - math.frexp(theta)[1],)
    for depth in depths:
        step = 2.0 ** -depth
        with np.errstate(over="ignore", invalid="ignore"):
            klo = np.ceil((gt + theta) / step - 1e-12)
            khi = np.floor((ht - theta) / step + 1e-12)
            beyond = ~(np.maximum(np.abs(klo), np.abs(khi)) < 2.0 ** 53)
        short = ~(np.isfinite(klo) & np.isfinite(khi) & (klo <= khi))
        if not short.any():
            chosen = [k * step for k in _stab_windows(klo, khi)]
            # a margin past the float range is inf, capped at 1 anyway
            with np.errstate(over="ignore"):
                witnesses = {r: Tabulated(space, np.minimum(1.0, np.maximum(
                    np.minimum(r - lo, hi - r) - cushion, 0.0)))
                    for r in chosen}
            short = np.all([w.values() == 0 for w in witnesses.values()], 0)
            if not short.any():
                break
        if beyond.any():
            p = int(np.argmax(beyond))
            raise GridError(f"multiples of 2^-{depth} are not exact "
                            f"floats at the window of sample {p}", witness=p)
    else:
        p = int(np.argmax(short))
        raise GridError(
            f"no dyadic level clears the margined window at sample {p} "
            f"at depths {depths}", witness=p)

    # most-covering level first: it receives the heaviest cover weight
    count = {r: int(((gt + cushion < r) & (r < ht - cushion)).sum())
             for r in chosen}
    values = sorted(chosen, key=lambda r: (-count[r], -r))
    out = _blend(CozeroCover(space, [witnesses[r] for r in values]),
                 lambda n, xi: Constant(space, values[n]))
    out.chosen_levels = values
    out.grid_depth = depth
    out.margin = cushion
    return out


def select_extend(A: Subset, phi, witness: LocalWitness,
                  mapping: IntervalMapping,
                  tol: float = _DEFAULT_TOL) -> ScalarField:
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
    lo, hi = mapping.bounds()
    inside = (lo[A.members] < vals) & (vals < hi[A.members])
    if not inside.all():
        x = int(A.members[~inside][0])
        raise PreconditionError(
            f"phi({x}) does not sit strictly inside its window", witness=x)

    target = Interval.real_line()
    base = local_extend(A, vals, witness, target, tol)
    keep = mapping.strict_mask(base)
    failing = np.flatnonzero(~keep & ~A.mask())

    if failing.size == 0:
        blended = base
        selector = None
    else:
        selector = select(mapping)
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
           tol: float = _DEFAULT_TOL) -> ScalarField:
    """Field strictly between lower and upper at every sample; with A,
    phi, and a witness, also equal to phi on A."""
    mapping = IntervalMapping(space, lower, upper)
    if A is None:
        return select(mapping)
    if phi is None or witness is None:
        raise PreconditionError("insertion through A needs phi and a witness")
    return select_extend(A, phi, witness, mapping, tol)


def decreasing_approx(phi: ScalarField, steps: int) -> list:
    """Strictly decreasing insertions pinching down to phi.

    f_1 sits in (phi, phi + 1) and f_{n+1} in (phi, (phi + f_n) / 2),
    so the gaps f_n - phi halve at worst: sup(f_n - phi) < 2^(1-n),
    and each step strictly dominates the next.  The steps run on
    until the windows pass the float resolution near phi (see select).
    """
    if steps < 1:
        raise PreconditionError(f"need at least one step, got {steps}")
    space = phi.space
    out = []
    ceiling = phi + Constant(space, 1.0)
    for _ in range(steps):
        f = select(IntervalMapping(space, phi, ceiling))
        out.append(f)
        ceiling = Constant(space, 0.5) * (phi + f)
    return out
