"""Real-valued fields on a metric sample, as immutable evaluation trees.

Fields are built from tabulated values, constants, coordinate
projections, distances to sets, pointwise combinators, a closed set of
named monotone transports, and locally finite series.  Keeping the
algebra closed (no arbitrary user closures) is what lets every
construction downstream certify its outputs on sample pairs.

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
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return True     # singleton or empty; never a valid codomain here
        return False

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def contains_values(self, values) -> bool:
        return all(self.contains(float(v)) for v in np.asarray(values, dtype=float).ravel())

    def interior_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


# ---------------------------------------------------------------------------
# Fields

_TRANSPORTS = ("arctan", "tan", "reciprocal", "affine")


class ScalarField:
    """Base class.  Subclasses implement _compute_values(); evaluation is
    vectorized once per field and cached, so scalar calls share the exact
    floats the array path produced."""

    def __init__(self, space: MetricSpace):
        self.space = space
        self._cached = None

    def _compute_values(self) -> np.ndarray:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        if self._cached is None:
            v = np.asarray(self._compute_values(), dtype=float)
            if v.shape != (self.space.n,):
                raise InputError(
                    f"field evaluated to shape {v.shape}, expected ({self.space.n},)")
            v.setflags(write=False)
            self._cached = v
        return self._cached

    def __call__(self, p: int) -> float:
        p = int(p)
        if not (0 <= p < self.space.n):
            raise DomainError(f"point id {p} outside host space of size {self.space.n}")
        return float(self.values()[p])

    # -- operator sugar; all routed through the node classes --

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.space is not self.space:
                raise DomainError("fields live on different spaces")
            return other
        return Constant(self.space, float(other))

    def __add__(self, other):
        return Binary("add", self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Binary("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return Binary("sub", self._coerce(other), self)

    def __mul__(self, other):
        return Binary("mul", self, self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Binary("mul", Constant(self.space, -1.0), self)

    def clamp(self, interval: Interval) -> "ScalarField":
        out = self
        if interval.bounded_below:
            out = Binary("max", out, Constant(self.space, interval.lo))
        if interval.bounded_above:
            out = Binary("min", out, Constant(self.space, interval.hi))
        return out


def minimum(f: ScalarField, g) -> ScalarField:
    return Binary("min", f, f._coerce(g))


def maximum(f: ScalarField, g) -> ScalarField:
    return Binary("max", f, f._coerce(g))


class Tabulated(ScalarField):
    """Field given by one value per sample id."""

    def __init__(self, space: MetricSpace, values):
        super().__init__(space)
        values = np.asarray(values, dtype=float)
        if values.shape != (space.n,):
            raise InputError(
                f"tabulated field needs {space.n} values, got shape {values.shape}")
        self.table = values.copy()

    def _compute_values(self) -> np.ndarray:
        return self.table


class Constant(ScalarField):
    def __init__(self, space: MetricSpace, value: float):
        super().__init__(space)
        self.value = float(value)

    def _compute_values(self) -> np.ndarray:
        return np.full(self.space.n, self.value)


class Coordinate(ScalarField):
    """Projection onto one coordinate axis; needs a backend with coords."""

    def __init__(self, space: MetricSpace, axis: int = 0):
        super().__init__(space)
        if space.coords is None:
            raise DomainError(f"{space.backend} backend has no coordinates")
        if not (0 <= axis < space.coords.shape[1]):
            raise DomainError(f"axis {axis} outside coordinate dimension "
                              f"{space.coords.shape[1]}")
        self.axis = int(axis)

    def _compute_values(self) -> np.ndarray:
        return self.space.coords[:, self.axis].copy()


class DistanceTo(ScalarField):
    """x -> d(x, S) for a fixed nonempty set of sample ids.  1-Lipschitz."""

    def __init__(self, space: MetricSpace, members):
        super().__init__(space)
        members = np.unique(np.asarray(members, dtype=int))
        if members.size == 0:
            raise PreconditionError("distance to the empty set is undefined")
        if members[0] < 0 or members[-1] >= space.n:
            raise InputError("distance-to-set ids outside the host space")
        self.members = members

    def _compute_values(self) -> np.ndarray:
        D = self.space.pairwise()
        return D[:, self.members].min(axis=1)


_BINARY_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


class Binary(ScalarField):
    def __init__(self, op: str, left: ScalarField, right: ScalarField):
        if op not in _BINARY_OPS:
            raise InputError(f"unknown combinator {op!r}")
        if left.space is not right.space:
            raise DomainError("fields live on different spaces")
        super().__init__(left.space)
        self.op = op
        self.left = left
        self.right = right

    def _compute_values(self) -> np.ndarray:
        return _BINARY_OPS[self.op](self.left.values(), self.right.values())


class Transported(ScalarField):
    """Post-composition with a named monotone transport.

    The set is deliberately closed: arctan (compress the line into
    (-pi/2, pi/2)), tan (its inverse on that interval), reciprocal on
    strictly positive data, and affine maps a*t + b.
    """

    def __init__(self, name: str, inner: ScalarField, a: float = 1.0, b: float = 0.0):
        if name not in _TRANSPORTS:
            raise InputError(f"unknown transport {name!r}; choose from {_TRANSPORTS}")
        super().__init__(inner.space)
        self.name = name
        self.inner = inner
        self.a = float(a)
        self.b = float(b)

    def _compute_values(self) -> np.ndarray:
        v = self.inner.values()
        if self.name == "arctan":
            return np.arctan(v)
        if self.name == "tan":
            if (np.abs(v) >= _HALF_PI).any():
                bad = int(np.argmax(np.abs(v) >= _HALF_PI))
                raise DomainError(
                    f"tan transport needs values in (-pi/2, pi/2); "
                    f"point {bad} has {v[bad]!r}")
            return np.tan(v)
        if self.name == "reciprocal":
            if (v <= 0).any():
                bad = int(np.argmax(v <= 0))
                raise DomainError(
                    f"reciprocal transport needs strictly positive values; "
                    f"point {bad} has {v[bad]!r}")
            return 1.0 / v
        return self.a * v + self.b


class Series(ScalarField):
    """Locally finite sum of fields.

    activity, when given, lists for every sample id the term indices
    that may be nonzero there; evaluation sums exactly those terms with
    an exactly rounded sum.  Terms outside the activity sets are
    required to vanish (checked by check_activity, relied on
    everywhere).
    """

    def __init__(self, space: MetricSpace, terms, activity=None):
        super().__init__(space)
        self.terms = list(terms)
        for t in self.terms:
            if t.space is not space:
                raise DomainError("series terms live on different spaces")
        if activity is not None:
            activity = [np.asarray(a, dtype=int) for a in activity]
            if len(activity) != space.n:
                raise InputError("activity needs one index set per sample point")
        self.activity = activity

    def active_indices(self, p: int):
        if self.activity is None:
            return range(len(self.terms))
        return self.activity[p]

    def term_matrix(self) -> np.ndarray:
        if not self.terms:
            return np.zeros((0, self.space.n))
        return np.stack([t.values() for t in self.terms])

    def leaf_values(self, p: int):
        """Flatten nested series: the multiset of non-series term values
        at p.  Regrouping terms leaves this multiset unchanged, which is
        what makes regrouped sums exactly comparable."""
        out = []
        for i in self.active_indices(p):
            t = self.terms[i]
            if isinstance(t, Series):
                out.extend(t.leaf_values(p))
            else:
                out.append(t(p))
        return out

    def _compute_values(self) -> np.ndarray:
        out = np.zeros(self.space.n)
        if not self.terms:
            return out
        M = self.term_matrix()
        for p in range(self.space.n):
            idx = self.active_indices(p)
            out[p] = math.fsum(M[i, p] for i in idx)
        return out

    def check_activity(self) -> float:
        """Largest |value| of any term outside its activity set; 0.0 when
        the declared bound is sound."""
        if self.activity is None or not self.terms:
            return 0.0
        M = self.term_matrix()
        mask = np.ones(M.shape, dtype=bool)
        for p in range(self.space.n):
            mask[np.asarray(self.activity[p], dtype=int), p] = False
        if not mask.any():
            return 0.0
        return float(np.abs(M[mask]).max())


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
    the exact constant of the tabulated restriction.
    """
    v = f.values()
    if pairs is None:
        best, witness = _pairs.max_slope(f.space, v, zero=math.inf)
    else:
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        if not len(pairs):
            return LipEstimate(0.0, None)
        d = np.array([f.space.dist(int(p), int(q)) for p, q in pairs])
        s = _pairs.slope(np.abs(v[pairs[:, 0]] - v[pairs[:, 1]]), d, math.inf)
        k = int(np.argmax(s))
        best, witness = float(s[k]), (int(pairs[k, 0]), int(pairs[k, 1]))
    return LipEstimate(best, witness if best > 0 else None)


def pointwise_lip(f: ScalarField, p: int) -> LipEstimate:
    """Largest |f(x)-f(p)| / d(x,p) over all samples x != p."""
    p = int(p)
    v = f.values()
    s = _pairs.slope(np.abs(v - v[p]), f.space.dist_row(p), math.inf)
    s[p] = 0.0
    x = int(np.argmax(s))
    best = float(s[x])
    return LipEstimate(best, (p, x) if best > 0 else None)


def scaled_oscillation(f: ScalarField, p: int, radii) -> float:
    """min over the given radii t of sup_{d(x,p)<t} |f(x)-f(p)| / t.

    Approximates the upper scaled oscillation from above; 0.0 as soon
    as one radius isolates p.  Never exceeds pointwise_lip(f, p) for
    any radius set.
    """
    p = int(p)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or (radii <= 0).any():
        raise InputError("radii must be a nonempty collection of positive reals")
    v = f.values()
    d = f.space.dist_row(p)
    best = math.inf
    for t in radii:
        inside = d < t
        sup = float(np.abs(v[inside] - v[p]).max()) if inside.any() else 0.0
        best = min(best, sup / float(t))
    return best
