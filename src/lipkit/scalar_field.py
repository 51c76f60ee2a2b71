"""Real-valued fields on a metric sample, each one read-only array.

Fields are built from tabulated values, constants, coordinate
projections, distances to sets, pointwise combinators, a closed set of
named monotone transports, and locally finite series.  Every builder
and operator evaluates when it is applied, except the three lazy kinds
of ScalarField: series, McShane envelopes and partitions of unity,
computed on their first read.  Keeping the algebra closed (no
arbitrary user closures) is what lets every construction downstream
certify its outputs on sample pairs.

Also here: the interval type used as an extension codomain, and the
three Lipschitz diagnostics (global constant, pointwise constant,
upper scaled oscillation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairs
from .errors import DomainError, InputError, PreconditionError
from .metric_space import MetricSpace

_HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True)
class Interval:
    """Real interval with independently open or closed, possibly
    infinite, endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(float(lo), float(hi), False, False)

    @classmethod
    def open(cls, lo: float, hi: float) -> "Interval":
        return cls(float(lo), float(hi), True, True)

    @classmethod
    def real_line(cls) -> "Interval":
        return cls()

    @classmethod
    def at_least(cls, lo: float, open_end: bool = False) -> "Interval":
        return cls(float(lo), math.inf, open_end, True)

    @classmethod
    def at_most(cls, hi: float, open_end: bool = False) -> "Interval":
        return cls(-math.inf, float(hi), True, open_end)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse 'lo,hi,open|closed,open|closed'; lo/hi accept -inf/inf."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise InputError(
                f"interval must be 'lo,hi,open|closed,open|closed', got {text!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise InputError(f"bad interval endpoints in {text!r}") from exc
        if math.isnan(lo) or math.isnan(hi):
            raise InputError(f"interval endpoints must be numbers, got {text!r}")
        flags = []
        for token in parts[2:]:
            if token not in ("open", "closed"):
                raise InputError(f"endpoint flag must be open or closed, got {token!r}")
            flags.append(token == "open")
        return cls(lo, hi, flags[0], flags[1])

    # -- queries --

    @property
    def bounded_below(self) -> bool:
        return math.isfinite(self.lo)

    @property
    def bounded_above(self) -> bool:
        return math.isfinite(self.hi)

    @property
    def is_bounded(self) -> bool:
        return self.bounded_below and self.bounded_above

    @property
    def is_real_line(self) -> bool:
        return not self.bounded_below and not self.bounded_above

    @property
    def is_degenerate(self) -> bool:
        # singleton or empty; never a valid codomain here
        return self.lo >= self.hi

    def contains(self, x):
        """Whether x lies in the interval, elementwise on an array."""
        x = np.asarray(x)
        inside = ((self.lo <= x) & (x <= self.hi)   # NaN is in no interval
                  & ~((x == self.lo) & self.lo_open)
                  & ~((x == self.hi) & self.hi_open))
        return inside if inside.ndim else bool(inside)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


# ---------------------------------------------------------------------------
# Fields

_TRANSPORTS = ("arctan", "tan", "reciprocal")


class ScalarField:
    """A field: its space and one read-only array, a value per sample.

    Built from values, a field holds them from the start, and every
    operator evaluates at once.  A lazy kind implements
    _compute_values() instead and runs it on the first read only, where
    a caller may never read it:

      * Series (and so the blends): a library caller of decompose or
        nonexpansive_split may never read the reconstruction;
      * extension.Envelope: _into_interval leaves one side unread on a
        half-line target, and the benchmark tracer times
        Envelope._compute_values as a layer of its own;
      * partition_of_unity.PartitionOfUnity: the blend partitions of
        local_extend and decreasing_approx are never summed.

    Either way the array is filled once, so scalar calls share the
    exact floats the array path produced.
    """

    def __init__(self, space: MetricSpace, values=None):
        self.space = space
        self._cached = None if values is None else self._hold(values)

    def _hold(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.space.n,):
            raise InputError(
                f"a field needs {self.space.n} values, got shape {v.shape}")
        v.setflags(write=False)
        return v

    def _compute_values(self) -> np.ndarray:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        if self._cached is None:
            self._cached = self._hold(self._compute_values())
        return self._cached

    def __call__(self, p: int) -> float:
        return float(self.values()[_pairs.sample_id(p, self.space.n)])

    # -- operators, each evaluated at once: self is the left operand --

    def _apply(self, ufunc, other, reflected=False) -> "ScalarField":
        field = isinstance(other, ScalarField)
        if field and other.space is not self.space:
            raise DomainError("fields live on different spaces")
        a = self.values()
        b = other.values() if field else float(other)
        return ScalarField(self.space, ufunc(b, a) if reflected else ufunc(a, b))

    def __add__(self, other):
        return self._apply(np.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(np.subtract, other)

    def __rsub__(self, other):
        return self._apply(np.subtract, other, reflected=True)

    def __mul__(self, other):
        return self._apply(np.multiply, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self._apply(np.multiply, -1.0, reflected=True)

    def clamp(self, interval: Interval) -> "ScalarField":
        out = self
        if interval.bounded_below:
            out = maximum(out, interval.lo)
        if interval.bounded_above:
            out = minimum(out, interval.hi)
        return out


def minimum(f: ScalarField, g) -> ScalarField:
    return f._apply(np.minimum, g)


def maximum(f: ScalarField, g) -> ScalarField:
    return f._apply(np.maximum, g)


def Tabulated(space: MetricSpace, values) -> ScalarField:
    """Field given by one value per sample id, held as a copy."""
    return ScalarField(space, np.array(values, dtype=float))


def Constant(space: MetricSpace, value: float) -> ScalarField:
    """The field equal to value at every sample."""
    return ScalarField(space, np.full(space.n, float(value)))


def Coordinate(space: MetricSpace, axis: int = 0) -> ScalarField:
    """Projection onto one coordinate axis; needs a backend with coords."""
    if space.coords is None:
        raise DomainError(f"{space.backend} backend has no coordinates")
    if not (0 <= axis < space.coords.shape[1]):
        raise DomainError(f"axis {axis} outside coordinate dimension "
                          f"{space.coords.shape[1]}")
    return ScalarField(space, space.coords[:, int(axis)].copy())


def DistanceTo(space: MetricSpace, members) -> ScalarField:
    """x -> d(x, S) for a fixed nonempty set of sample ids.  1-Lipschitz."""
    members = np.unique(_pairs.sample_ids(members, space.n,
                                          "distance-to-set id"))
    if members.size == 0:
        raise PreconditionError("distance to the empty set is undefined")
    return ScalarField(space, _pairs.envelope(space, members, -0.0, 1.0, +1))


def Transported(name: str, inner: ScalarField) -> ScalarField:
    """Post-composition with a named monotone transport.

    The set is deliberately closed: arctan (compress the line into
    (-pi/2, pi/2)), tan (its inverse on that interval), and reciprocal
    on strictly positive data.  A value outside the transport's domain
    raises DomainError here, naming its sample.
    """
    if name not in _TRANSPORTS:
        raise InputError(f"unknown transport {name!r}; choose from {_TRANSPORTS}")
    v = inner.values()
    if name == "arctan":
        return ScalarField(inner.space, np.arctan(v))
    if name == "tan":
        if (np.abs(v) >= _HALF_PI).any():
            bad = int(np.argmax(np.abs(v) >= _HALF_PI))
            raise DomainError(
                f"tan transport needs values in (-pi/2, pi/2); "
                f"point {bad} has {float(v[bad])!r}")
        return ScalarField(inner.space, np.tan(v))
    if (v <= 0).any():
        bad = int(np.argmax(v <= 0))
        raise DomainError(
            f"reciprocal transport needs strictly positive values; "
            f"point {bad} has {float(v[bad])!r}")
    return ScalarField(inner.space, 1.0 / v)


def _column_sums(values, mask=True) -> np.ndarray:
    """Exactly rounded sum (math.fsum) of each column's entries where
    mask holds, gathered sample-major (values.T[mask.T]), unsorted as an
    exact sum allows, in blocks of columns of about _pairs._BLOCK entries.
    A block where fsum raises is summed again column by column, by
    _exact_sum."""
    mask = np.broadcast_to(mask, values.shape)
    sums = []
    for c in _pairs.row_blocks(values.shape[1], len(values)):
        flat = values[:, c].T[mask[:, c].T].tolist()
        ends = np.cumsum(mask[:, c].sum(axis=0)).tolist()
        bounds = list(zip([0] + ends, ends))
        try:
            sums += [math.fsum(flat[a:b]) for a, b in bounds]
        except (ValueError, OverflowError):
            sums += [_exact_sum(flat[a:b]) for a, b in bounds]
    return np.array(sums)


def _exact_sum(xs) -> float:
    """The exactly rounded sum of the floats xs, also where math.fsum
    raises: NaN for a NaN or infinities of both signs, an infinity of
    one sign for itself, and for finite xs whose partial sums overflow,
    the exact sum (fractions.Fraction) rounded, or +-inf past the float
    range."""
    try:
        return math.fsum(xs)
    except (ValueError, OverflowError):
        pass
    special = [x for x in xs if not math.isfinite(x)]
    if special:     # float addition makes NaN of a NaN or inf - inf
        return sum(special)
    from fractions import Fraction      # about 2 ms to import: only here
    total = sum(map(Fraction, xs))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


class Series(ScalarField):
    """Locally finite sum of fields.

    activity is a read-only (terms, n) boolean mask: term i may be
    nonzero at sample p only where activity[i, p] holds (all true when
    omitted).  The value at p is the exactly rounded sum of the active
    terms in column p; each term is one summand, whatever its kind.
    Terms outside the mask are required to vanish (pou_report checks
    this for a partition of unity).
    """

    def __init__(self, space: MetricSpace, terms, activity=None):
        super().__init__(space)
        self.terms = list(terms)
        for t in self.terms:
            if t.space is not space:
                raise DomainError("series terms live on different spaces")
        shape = (len(self.terms), space.n)
        if activity is None:
            activity = np.ones(shape, dtype=bool)
        activity = np.array(activity, dtype=bool)
        if activity.shape != shape:
            raise InputError(
                f"activity needs a {shape} mask, got shape {activity.shape}")
        activity.setflags(write=False)
        self.activity = activity

    def _compute_values(self) -> np.ndarray:
        rows = np.array([t.values() for t in self.terms], dtype=float)
        return _column_sums(rows.reshape(-1, self.space.n), self.activity)


# ---------------------------------------------------------------------------
# Lipschitz diagnostics


@dataclass(frozen=True)
class LipEstimate:
    """A worst pair ratio together with the pair achieving it.

    value may be math.inf (flagged by finite=False) when two distinct
    samples at distance zero disagree; on a validated metric every
    estimate is finite and exact over the sampled pairs.
    """

    value: float
    witness: tuple | None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def global_lip(f: ScalarField, pairs=None) -> LipEstimate:
    """Largest |f(p)-f(q)| / d(p,q) over sampled pairs.

    A lower bound for the true constant of any underlying function, and
    the exact constant of the tabulated restriction.  Listed pairs must
    name samples (_pairs.listed_max).  The witness pair is None only
    for an estimate of 0; a NaN estimate names its pair.
    """
    v = f.values()
    if pairs is None:
        best, witness = _pairs.max_slope(f.space, v, zero=math.inf)
    else:
        best, witness = _pairs.listed_max(
            f.space, v, pairs, lambda d, o: _pairs.slope(o, d, math.inf))
    return LipEstimate(0.0, None) if best <= 0 else LipEstimate(best, witness)


def _row_from(f: ScalarField, p) -> tuple:
    """(p, |f(x) - f(p)|, d(x, p)) over the samples x, for a sample id p
    (checked by _pairs.sample_ids); the gaps are quiet, as in _pairs."""
    p = _pairs.sample_id(p, f.space.n)
    v = f.values()
    with np.errstate(invalid="ignore", over="ignore"):
        return p, np.abs(v - v[p]), f.space.dist_row(p)


def pointwise_lip(f: ScalarField, p: int) -> LipEstimate:
    """Largest |f(x)-f(p)| / d(x,p) over all samples x != p; as in
    global_lip, a NaN estimate names its pair."""
    p, gap, d = _row_from(f, p)
    s = _pairs.slope(gap, d, math.inf)
    s[p] = 0.0
    x = int(np.argmax(s))
    best = float(s[x])
    return LipEstimate(best, None if best <= 0 else (p, x))


def scaled_oscillation(f: ScalarField, p: int, radii) -> float:
    """min over the given radii t of sup_{d(x,p)<t} |f(x)-f(p)| / t.

    Approximates the upper scaled oscillation from above; 0.0 as soon
    as one radius isolates p.  Never exceeds pointwise_lip(f, p) for
    any radius set.  A NaN value in any of the balls makes the result
    NaN, as it does pointwise_lip's.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not (radii > 0).all():
        raise InputError("radii must be a nonempty collection of positive reals")
    p, gap, d = _row_from(f, p)
    sups = [gap[d < t].max() if (d < t).any() else 0.0 for t in radii]
    return float(np.min(np.array(sups) / radii))
