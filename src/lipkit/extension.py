"""Lipschitz extension by upper and lower envelopes.

The two envelopes of phi: A -> R with constant K are

    lower(p) = max over x in A of  phi(x) - K d(x, p)
    upper(p) = min over x in A of  phi(x) + K d(x, p)

Both restrict to phi on A, both are K-Lipschitz, lower <= upper, and
every K-Lipschitz extension is sandwiched between them.  The same
formulas accept a per-point constant L_x >= 1 in place of K when the
pair compatibility |phi(x)-phi(y)| <= min(L_x, L_y) d(x, y) holds.

Interval codomains: a bounded target clamps the envelopes and averages
them, landing strictly inside the interval away from A; an unbounded
target is handled by the one-sided envelope (global constant) or by a
monotone transport into a bounded interval (per-point constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairs
from .errors import PreconditionError
from .metric_space import _DEFAULT_TOL, Subset
from .scalar_field import (Constant, Interval, ScalarField, Tabulated,
                           Transported)
from .certify import (_as_values_on, _k_lipschitz_values_on,
                      _require_compatible)


class Envelope(ScalarField):
    """One-sided envelope over anchor points with per-anchor constants.

    sign -1 is the lower (sup) envelope, +1 the upper (inf) envelope.
    At anchor ids the tabulated value is returned directly; the scan
    equals it in exact arithmetic, and the short circuit keeps the
    restriction exact in floating point too.
    """

    def __init__(self, space, anchor_ids, anchor_values, anchor_constants, sign: int):
        super().__init__(space)
        self.anchor_ids = _pairs.sample_ids(anchor_ids, space.n, "anchor id")
        self.anchor_values = np.asarray(anchor_values, dtype=float)
        self.anchor_constants = np.asarray(anchor_constants, dtype=float)
        if self.anchor_ids.size == 0:
            raise PreconditionError("envelope needs at least one anchor")
        if not (self.anchor_values.shape == self.anchor_constants.shape
                == self.anchor_ids.shape):
            raise PreconditionError(
                f"need {self.anchor_ids.size} anchor values and constants, "
                f"got shapes {self.anchor_values.shape} and "
                f"{self.anchor_constants.shape}")
        if sign not in (-1, +1):
            raise PreconditionError("envelope sign must be -1 (lower) or +1 (upper)")
        self.sign = int(sign)

    def _compute_values(self) -> np.ndarray:
        out = _pairs.envelope(self.space, self.anchor_ids, self.anchor_values,
                              self.anchor_constants, self.sign)
        out[self.anchor_ids] = self.anchor_values
        return out


@dataclass
class EnvelopePair:
    """Both envelopes of one anchored extension problem."""

    lower: Envelope
    upper: Envelope
    A: Subset
    phi_values: np.ndarray
    constants: np.ndarray


def _envelope_pair(A: Subset, vals: np.ndarray,
                   consts: np.ndarray) -> EnvelopePair:
    return EnvelopePair(Envelope(A.space, A.members, vals, consts, -1),
                        Envelope(A.space, A.members, vals, consts, +1),
                        A, vals, consts)


def mcshane_envelopes(A: Subset, phi, K: float, tol: float = _DEFAULT_TOL) -> EnvelopePair:
    """Envelopes with one global constant 0 <= K < inf."""
    K, vals = _k_lipschitz_values_on(A, phi, K, tol)
    return _envelope_pair(A, vals, np.full(len(A), K))


@dataclass(frozen=True)
class DualityReport:
    exact: bool
    max_abs_diff: float
    witness: int | None


def duality_check(A: Subset, phi, K: float, tol: float = _DEFAULT_TOL) -> DualityReport:
    """lower[phi] against -upper[-phi], and upper[phi] against
    -lower[-phi].  These agree exactly, not within tolerance: negation
    is exact and both scans round the same expressions.  Negation also
    leaves every pair excess unchanged, so -phi is not checked again."""
    pair = mcshane_envelopes(A, phi, K, tol)
    flipped = _envelope_pair(A, -pair.phi_values, pair.constants)
    d1 = pair.lower.values() + flipped.upper.values()
    d2 = pair.upper.values() + flipped.lower.values()
    gap = np.maximum(np.abs(d1), np.abs(d2))
    worst = int(np.argmax(gap))
    m = float(gap[worst])
    return DualityReport(m == 0.0, m, worst if m > 0 else None)


def _require_closed(A: Subset):
    if not A.is_closed_at_sample_scale():
        raise PreconditionError(
            "extension domain has an outside sample at distance zero")


def _mean(a, b):
    """(a + b) / 2 elementwise, exact where a == b, subnormals included;
    where the sum of two finite values overflows, a / 2 + b / 2."""
    with np.errstate(over="ignore"):
        s = np.add(a, b)
    over = np.isinf(s) & np.isfinite(a) & np.isfinite(b)
    return np.where(over, 0.5 * a + 0.5 * b, 0.5 * s)


def _into_interval(pair: EnvelopePair, interval: Interval) -> ScalarField:
    """The one target rule of a McShane pair, with .envelopes set.

    A bounded target averages the clamped envelopes,
    (max(lower, lo) + min(upper, hi)) / 2 by _mean, which restricts to
    phi exactly: both clamps are no-ops at anchors and (v + v)/2 = v.  A
    target bounded below only takes the upper envelope, which sits
    above lo + K d(., A); any other the lower one, below hi - K d(., A).
    """
    if interval.is_bounded:
        out = Tabulated(pair.lower.space, _mean(
            np.maximum(pair.lower.values(), interval.lo),
            np.minimum(pair.upper.values(), interval.hi)))
    elif interval.bounded_below:
        out = pair.upper
    else:
        out = pair.lower
    out.envelopes = pair
    return out


def extend_to_interval(A: Subset, phi, K: float, interval: Interval,
                       tol: float = _DEFAULT_TOL) -> ScalarField:
    """K-Lipschitz extension of phi whose values stay in the interval,
    strictly interior away from A when the interval is bounded.

    Unbounded targets take the one-sided envelope that respects the
    finite endpoint (see _into_interval).  A target equal to the whole
    line returns the lower envelope.
    """
    vals = _as_values_on(A, phi, interval)
    _require_closed(A)
    return _into_interval(mcshane_envelopes(A, vals, K, tol), interval)


# ---------------------------------------------------------------------------
# Per-point constants


@dataclass
class PointwiseWitness:
    """Per-point constants L_x >= 1 on an anchor set.

    Values below 1 are lifted to 1 silently when consumed; aligned()
    returns how many it lifted.
    """

    constants: dict

    @classmethod
    def from_values(cls, A: Subset, values) -> "PointwiseWitness":
        values = np.asarray(values, dtype=float)
        if values.shape != (len(A),):
            raise PreconditionError(
                f"need {len(A)} constants, got shape {values.shape}")
        return cls({int(p): float(v) for p, v in zip(A.members, values)})

    def aligned(self, A: Subset) -> tuple:
        """(array of lifted constants aligned with A.members, lift count)."""
        out = np.empty(len(A))
        lifted = 0
        for i, p in enumerate(A.members):
            if int(p) not in self.constants:
                raise PreconditionError(f"no constant for anchor point {int(p)}",
                                        witness=int(p))
            L = float(self.constants[int(p)])
            if not math.isfinite(L):
                raise PreconditionError(f"constant at {int(p)} must be finite",
                                        witness=int(p))
            if L < 1.0:
                L = 1.0
                lifted += 1
            out[i] = L
        return out, lifted


def pointwise_envelopes(A: Subset, phi, witness: PointwiseWitness,
                        tol: float = _DEFAULT_TOL) -> EnvelopePair:
    """Envelopes with per-anchor constants from the witness."""
    vals = _as_values_on(A, phi)
    consts, _ = witness.aligned(A)
    _require_compatible(A, vals, consts, tol)
    return _envelope_pair(A, vals, consts)


def generate_pointwise_witness(f: ScalarField) -> PointwiseWitness:
    """Exhaustive per-point constants of f over the whole sample, each
    at least 1."""
    slopes = _pairs.max_slope(f.space, f.values(), zero=math.inf, per_row=True)
    return PointwiseWitness({p: max(float(s), 1.0)
                             for p, s in enumerate(slopes)})


def pointwise_extend_to_interval(A: Subset, phi, witness: PointwiseWitness,
                                 interval: Interval,
                                 tol: float = _DEFAULT_TOL) -> ScalarField:
    """Extension with per-point constants into an arbitrary interval.

    Bounded targets reuse the clamp-and-average construction.  The whole
    line goes through arctan: compress phi, extend inside
    (-pi/2, pi/2), map back with tan.  A half-line target is shifted so
    the finite endpoint becomes 1, inverted into (0, 1] by the
    reciprocal transport, extended there, and inverted back; an upper
    half-line is reflected first, and a value whose distance to the
    finite end overflows is refused.  All three transports preserve the
    witness because they are nonexpansive on the relevant ranges.  The
    output carries phi on A verbatim.
    """
    vals = _as_values_on(A, phi, interval)
    _require_closed(A)

    if interval.is_bounded:
        pair = pointwise_envelopes(A, vals, witness, tol)
        out = _into_interval(pair, interval)
    elif interval.is_real_line:
        pair = pointwise_envelopes(A, np.arctan(vals), witness, tol)
        out = Transported("tan", _into_interval(
            pair, Interval.open(-math.pi / 2.0, math.pi / 2.0)))
    else:
        # s = -1 reflects an upper half-line onto [-hi, inf)
        s = 1.0 if interval.bounded_below else -1.0
        shift = (interval.lo if s > 0 else -interval.hi) - 1.0
        with np.errstate(over="ignore"):
            gap = s * vals - shift      # at least 1; inf past the float range
        far = np.flatnonzero(np.isinf(gap))
        if far.size:
            x = int(A.members[far[0]])
            raise PreconditionError(
                f"phi({x}) = {float(vals[far[0]])!r} lies more than the "
                f"largest float from the end of {interval}", witness=x)
        inverted = 1.0 / gap     # lands in (0, 1]
        pair = pointwise_envelopes(A, inverted, witness, tol)
        g = _into_interval(pair, Interval(0.0, 1.0, True, False))
        out = Constant(A.space, s) * (Transported("reciprocal", g)
                                      + Constant(A.space, shift))
    # a transport round trip such as tan(arctan(v)) can miss v
    values = out.values().copy()
    values[A.members] = vals
    out = Tabulated(A.space, values)
    out.envelopes = pair
    out.pointwise_witness = generate_pointwise_witness(out)
    return out

