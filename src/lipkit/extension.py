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
from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .errors import PreconditionError
from .metric_space import _DEFAULT_TOL, Subset
from .scalar_field import (Constant, Interval, ScalarField, Transported,
                           maximum, minimum)
from .certify import _as_values_on


class Envelope(ScalarField):
    """One-sided envelope over anchor points with per-anchor constants.

    sign -1 is the lower (sup) envelope, +1 the upper (inf) envelope.
    At anchor ids the tabulated value is returned directly; the scan
    equals it in exact arithmetic, and the short circuit keeps the
    restriction exact in floating point too.
    """

    def __init__(self, space, anchor_ids, anchor_values, anchor_constants, sign: int):
        super().__init__(space)
        self.anchor_ids = np.asarray(anchor_ids, dtype=int)
        self.anchor_values = np.asarray(anchor_values, dtype=float)
        self.anchor_constants = np.asarray(anchor_constants, dtype=float)
        if sign not in (-1, +1):
            raise PreconditionError("envelope sign must be -1 (lower) or +1 (upper)")
        self.sign = int(sign)

    def _compute_values(self) -> np.ndarray:
        D = self.space.pairwise()[:, self.anchor_ids]
        spread = self.anchor_constants[None, :] * D
        if self.sign < 0:
            out = np.max(self.anchor_values[None, :] - spread, axis=1)
        else:
            out = np.min(self.anchor_values[None, :] + spread, axis=1)
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
    notes: list = field(default_factory=list)


def _check_global_lipschitz_on(A: Subset, vals: np.ndarray, K: float, tol: float):
    excess, pair = _pairs.worst_excess(A.space, vals, lambda r, c, d, o: K * d,
                                       ids=A.members)
    if not (excess <= tol):
        raise PreconditionError(
            f"phi is not {K}-Lipschitz on A: |phi({pair[0]})-phi({pair[1]})| "
            f"exceeds the bound by {excess:.3e}", witness=pair)


def mcshane_envelopes(A: Subset, phi, K: float, tol: float = _DEFAULT_TOL) -> EnvelopePair:
    """Envelopes with one global constant K >= 0."""
    K = float(K)
    if not (K >= 0):
        raise PreconditionError(f"constant must be nonnegative, got {K}")
    A.require_nonempty("extension domain")
    vals = _as_values_on(A, phi)
    _check_global_lipschitz_on(A, vals, K, tol)
    consts = np.full(len(A), K)
    return EnvelopePair(
        lower=Envelope(A.space, A.members, vals, consts, -1),
        upper=Envelope(A.space, A.members, vals, consts, +1),
        A=A, phi_values=vals, constants=consts)


@dataclass(frozen=True)
class DualityReport:
    exact: bool
    max_abs_diff: float
    witness: int | None


def duality_check(A: Subset, phi, K: float, tol: float = _DEFAULT_TOL) -> DualityReport:
    """lower[phi] against -upper[-phi], and upper[phi] against
    -lower[-phi].  These agree exactly, not within tolerance: negation
    is exact and both scans round the same expressions."""
    pair = mcshane_envelopes(A, phi, K, tol)
    flipped = mcshane_envelopes(A, -pair.phi_values, K, tol)
    d1 = pair.lower.values() + flipped.upper.values()
    d2 = pair.upper.values() + flipped.lower.values()
    gap = np.maximum(np.abs(d1), np.abs(d2))
    worst = int(np.argmax(gap))
    m = float(gap[worst])
    return DualityReport(m == 0.0, m, worst if m > 0 else None)


def _require_phi_in(interval: Interval, A: Subset, vals: np.ndarray):
    for i, v in zip(A.members, vals):
        if not interval.contains(float(v)):
            raise PreconditionError(
                f"phi({int(i)}) = {v!r} lies outside the target {interval}",
                witness=int(i))


def _require_usable(interval: Interval, A: Subset):
    if interval.is_degenerate:
        raise PreconditionError(f"degenerate target interval {interval}")
    if not A.is_closed_at_sample_scale():
        raise PreconditionError(
            "extension domain has an outside sample at distance zero")


def _mean_of_clamped(pair: EnvelopePair, interval: Interval) -> ScalarField:
    # (max(lower, a) + min(upper, b)) / 2; restricts to phi exactly
    # because both clamps are no-ops at anchors and (v + v)/2 = v.
    lo = maximum(pair.lower, Constant(pair.lower.space, interval.lo))
    hi = minimum(pair.upper, Constant(pair.upper.space, interval.hi))
    return Constant(pair.lower.space, 0.5) * (lo + hi)


def extend_to_interval(A: Subset, phi, K: float, interval: Interval,
                       tol: float = _DEFAULT_TOL) -> ScalarField:
    """K-Lipschitz extension of phi whose values stay in the interval,
    strictly interior away from A when the interval is bounded.

    Unbounded targets take the one-sided envelope that respects the
    finite endpoint: the upper envelope sits above lo + K d(., A), the
    lower envelope below hi - K d(., A).  A target equal to the whole
    line returns the lower envelope.
    """
    A.require_nonempty("extension domain")
    _require_usable(interval, A)
    vals = _as_values_on(A, phi)
    _require_phi_in(interval, A, vals)
    pair = mcshane_envelopes(A, vals, K, tol)
    if interval.is_bounded:
        out = _mean_of_clamped(pair, interval)
    elif interval.bounded_below:
        out = pair.upper
    elif interval.bounded_above:
        out = pair.lower
    else:
        out = pair.lower
    out.envelopes = pair
    return out


# ---------------------------------------------------------------------------
# Per-point constants


@dataclass
class PointwiseWitness:
    """Per-point constants L_x >= 1 on an anchor set.

    Values below 1 are lifted to 1 silently when consumed; the lift is
    reported through the envelope pair's notes.
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


def _check_pair_compatibility(A: Subset, vals: np.ndarray, consts: np.ndarray,
                              tol: float):
    excess, pair = _pairs.worst_excess(
        A.space, vals,
        lambda r, c, d, o: np.minimum(consts[r, None], consts[None, c]) * d,
        ids=A.members)
    if not (excess <= tol):
        raise PreconditionError(
            f"pair compatibility fails at {pair}: "
            f"|phi difference| exceeds min(L_x, L_y) d by {excess:.3e}",
            witness=pair)


def pointwise_envelopes(A: Subset, phi, witness: PointwiseWitness,
                        tol: float = _DEFAULT_TOL) -> EnvelopePair:
    """Envelopes with per-anchor constants from the witness."""
    A.require_nonempty("extension domain")
    vals = _as_values_on(A, phi)
    consts, lifted = witness.aligned(A)
    _check_pair_compatibility(A, vals, consts, tol)
    notes = []
    if lifted:
        notes.append(f"lifted {lifted} constant(s) below 1 up to 1")
    return EnvelopePair(
        lower=Envelope(A.space, A.members, vals, consts, -1),
        upper=Envelope(A.space, A.members, vals, consts, +1),
        A=A, phi_values=vals, constants=consts, notes=notes)


def generate_pointwise_witness(f: ScalarField, floor: float = 1.0) -> PointwiseWitness:
    """Exhaustive per-point constants of f over the whole sample."""
    slopes = _pairs.max_slope(f.space, f.values(), zero=math.inf, per_row=True)
    return PointwiseWitness({p: max(float(s), floor)
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
    half-line is reflected first.  All three transports preserve the
    witness because they are nonexpansive on the relevant ranges.
    """
    A.require_nonempty("extension domain")
    _require_usable(interval, A)
    vals = _as_values_on(A, phi)
    _require_phi_in(interval, A, vals)

    if interval.is_bounded:
        pair = pointwise_envelopes(A, vals, witness, tol)
        out = _mean_of_clamped(pair, interval)
        out.envelopes = pair
    elif interval.is_real_line:
        compressed = np.arctan(vals)
        pair = pointwise_envelopes(A, compressed, witness, tol)
        g = _mean_of_clamped(pair, Interval.open(-math.pi / 2.0, math.pi / 2.0))
        out = Transported("tan", g)
        out.envelopes = pair
    elif interval.bounded_below:
        shift = interval.lo - 1.0
        shifted = vals - shift                   # lands in (1, inf) or [1, inf)
        inverted = 1.0 / shifted                 # lands in (0, 1]
        pair = pointwise_envelopes(A, inverted, witness, tol)
        g = _mean_of_clamped(pair, Interval(0.0, 1.0, True, False))
        out = Transported("reciprocal", g) + Constant(A.space, shift)
        out.envelopes = pair
    else:
        reflected = Interval(-interval.hi, math.inf, interval.hi_open, True)
        inner = pointwise_extend_to_interval(A, -vals, witness, reflected, tol)
        out = -inner
        out.envelopes = getattr(inner, "envelopes", None)

    out.pointwise_witness = _certified_output_witness(out, tol)
    return out


def _pointwise_excess(f: ScalarField, w: PointwiseWitness) -> tuple:
    """Worst |f(p) - f(x)| - L_p d(p, x) over ordered pairs, with its pair."""
    L = np.array([w.constants[p] for p in range(f.space.n)])
    return _pairs.worst_excess(f.space, f.values(),
                               lambda r, c, d, o: L[r, None] * d, upper=False)


def _certified_output_witness(f: ScalarField, tol: float) -> PointwiseWitness:
    w = generate_pointwise_witness(f)
    excess, pair = _pointwise_excess(f, w)
    if not (excess <= tol):
        raise PreconditionError(
            "generated witness fails to certify the extension "
            f"(pair {pair})", witness=pair)
    return w
