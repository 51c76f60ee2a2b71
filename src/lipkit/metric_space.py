"""Finite metric samples with interchangeable distance backends.

A space is a set of points with dense integer ids 0..n-1 and a distance
function given by one of four backends: an explicit matrix, a Euclidean
point cloud, shortest-path distances on a weighted graph, or a uniform
1-D grid.  Every downstream construction only ever queries distances
between sample ids, so the backends are freely interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _pairs
from .errors import InputError, PreconditionError

_DEFAULT_TOL = 1e-9
_MAX_VIOLATIONS = 64
_RELAX_CHUNK = 1 << 12  # edge relaxations per scatter of _shortest_paths
_FRONT_BLOCK = 1 << 17  # frontier labels per slab of _shortest_paths


@dataclass(frozen=True)
class MetricViolation:
    """One failed metric axiom, with the witnessing ids and its magnitude."""

    kind: str   # "nonfinite", "negative", "diagonal", "symmetry", "positivity", "triangle"
    ids: tuple
    magnitude: float

    def describe(self) -> str:
        return f"{self.kind} violation at {self.ids}: {self.magnitude:.6g}"


@dataclass
class ValidationReport:
    """Outcome of a metric-axiom check over all pairs and triples."""

    n: int
    tolerance: float
    violations: list = field(default_factory=list)
    triangle: str = "checked"       # or "by construction": not swept

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self):
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: v.magnitude)

    def summary(self) -> str:
        if self.ok:
            return f"metric ok: {self.n} points, tolerance {self.tolerance:g}"
        w = self.worst()
        return (f"metric FAILED: {len(self.violations)} violation(s), "
                f"worst {w.describe()}")


def _validate_matrix(D: np.ndarray, tol: float, triangle: str,
                     exact: bool,
                     coordinates: bool = False) -> ValidationReport:
    """Metric axioms of D, the O(n^3) triangle sweep only when triangle
    is "checked".  The report keeps the first 64 violations in the order
    the checks run: nonfinite (magnitude inf), negative, diagonal,
    symmetry (p < q), positivity (p < q when exact says D is exactly
    symmetric, else p != q), triangle.  Within a kind they are row-major;
    triangles (i, k, j) go by middle index k first, then row-major.
    The pair checks read D in the row blocks of _pairs.row_blocks; the
    triangle sweep holds one n x n scratch array for all middle indices.

    coordinates says D came from _coord_dist: a root is never negative,
    the diagonal is 0 (NaN for a non-finite point) and (i, j) and (j, i)
    are one float, NaN and inf included, so with tol >= 0 the negative,
    diagonal and symmetry checks cannot fire and are not run."""
    n = D.shape[0]
    report = ValidationReport(n=n, tolerance=tol, triangle=triangle)
    vio = report.violations

    def _push(kind, ids, mag):
        if len(vio) < _MAX_VIOLATIONS:
            vio.append(MetricViolation(kind, ids, float(mag)))

    def _scan(kind, bad, upper=False):
        """Push kind where the mask of bad(block, r) holds, with the
        magnitude it gives, row-major until the report is full; upper
        keeps the entries above the diagonal."""
        for r in _pairs.row_blocks(n, n):
            if len(vio) >= _MAX_VIOLATIONS:
                return
            mask, mag = bad(D[r], r)
            if upper:
                mask = np.triu(mask, r.start + 1)
            for i, j in np.argwhere(mask):
                _push(kind, (r.start + int(i), int(j)), mag[i, j])

    def _asym(block, r):
        mag = np.abs(block - D[:, r].T)
        return mag > tol, mag

    def _nonpositive(block, r):
        mask = block <= tol
        np.fill_diagonal(mask[:, r.start:], False)
        return mask, tol - block

    # inf - inf is NaN, which no comparison flags; "nonfinite" has
    # reported the entry already
    with np.errstate(invalid="ignore"):
        _scan("nonfinite", lambda b, r: (~np.isfinite(b),
                                         np.broadcast_to(np.inf, b.shape)))
        if not (coordinates and tol >= 0):
            _scan("negative", lambda b, r: (b < -tol, -b))
            diag = np.abs(np.diag(D))
            for i in np.flatnonzero(diag > tol):
                _push("diagonal", (int(i),), diag[i])
            _scan("symmetry", _asym, upper=True)
        _scan("positivity", _nonpositive, upper=exact)
    if triangle != "checked":
        return report
    excess = np.empty((n, n))   # D - (D[:, k] + D[k, :]) at middle index k
    with np.errstate(invalid="ignore"):
        for k in range(n):
            np.add(D[:, k, None], D[None, k, :], out=excess)
            np.subtract(D, excess, out=excess)
            for i, j in np.argwhere(excess > tol):
                if i != k and j != k and i != j:
                    _push("triangle", (int(i), int(k), int(j)), excess[i, j])
            if len(vio) >= _MAX_VIOLATIONS:
                break
    return report


def _coord_dist(x: np.ndarray, rows, absolute: bool = False) -> np.ndarray:
    """Euclidean distances from x[rows] to every point of x: squared
    axis differences summed in axis order, then the root.  dist,
    dist_row and pairwise all use it, so a pair gets one float from
    each, exactly symmetric and zero on the diagonal.  An infinite
    coordinate gives NaN (inf - inf) and a square past the float range
    gives inf, both quietly; validation flags them.  The output is
    filled in the row blocks of _pairs.row_blocks, with one scratch
    block for the later axes, so it is the only n-wide array made.

    absolute, which MetricSpace passes when _abs_is_root(x) holds, fills
    |x_p - x_q| instead, one pass where the root takes three: the same
    floats, as _abs_is_root says why."""
    xr, k = x[rows], x.shape[1]
    out = np.empty((len(xr), len(x)))
    blocks = _pairs.row_blocks(len(xr), len(x))
    scratch = np.empty_like(out[blocks[0]]) if k > 1 else None
    with np.errstate(invalid="ignore", over="ignore"):
        for r in blocks:
            sq = out[r]
            np.subtract(xr[r, 0, None], x[None, :, 0], out=sq)
            if absolute:
                np.abs(sq, out=sq)
                continue
            sq *= sq
            for j in range(1, k):
                t = scratch[:len(sq)]
                np.subtract(xr[r, j, None], x[None, :, j], out=t)
                t *= t
                sq += t
            np.sqrt(sq, out=sq)
    return out


def _abs_is_root(x: np.ndarray) -> bool:
    """Whether |x_p - x_q| is _coord_dist's root bit for bit at every
    pair: one axis of finite coordinates whose span fl(max - min) is
    below 2^511 and whose least positive gap between sorted coordinates
    is at least 2^-511.  Rounding is monotone, so every difference
    d = fl(x_p - x_q) is then 0 or has 2^-511 <= |d| < 2^511, and d * d
    rounds in the normal range, where sqrt(fl(d * d)) = |d| in binary
    floating point with round-to-nearest; a zero d gives +0.0 both
    ways.  Past these bounds the square underflows or overflows, and the
    root, 0 or inf there, is kept."""
    if x.shape[1] != 1 or not np.isfinite(x).all():
        return False
    s = np.sort(x[:, 0])
    if not float(s[-1]) - float(s[0]) < 2.0 ** 511:
        return False    # so no gap below overflows
    gap = np.diff(s)
    return bool(np.min(gap, where=gap > 0, initial=np.inf) >= 2.0 ** -511)


def _shortest_paths(n: int, u, v, w) -> np.ndarray:
    """All-sources shortest-path lengths of the undirected graph with
    edges (u[e], v[e]) of weight w[e] > 0 on nodes 0..n-1, inf where
    no path exists; edges are combined as from_graph states.

    Labels are relaxed in the Bellman-Ford form: each round expands the
    frontier, the (source, node) labels lowered in the round before,
    along every edge at the node, until no label falls.  fl(a + w) is
    monotone in a and at least a for w > 0, so whatever the order of
    relaxation the fixed point is the least left-to-right rounded walk
    sum, the value Dijkstra settles: the floats are those of
    scipy.sparse.csgraph.shortest_path(method="D", directed=False).
    The frontier is one n x n boolean mask.  A source lowers only the
    labels of its own row, so the rows are relaxed in slabs of about
    _FRONT_BLOCK labels, each to its fixed point.  A round takes one
    flatnonzero of the slab and expands those labels in chunks of about
    _RELAX_CHUNK relaxations, scattered with np.minimum.at; slabs and
    chunks bound the temporaries.  (csr sums three or more copies of an
    ordered edge in input order only while its row holds at most 16
    entries; here the order is always the input's.)"""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    ordered, at = np.unique(u * n + v, return_inverse=True)
    summed = np.bincount(at, weights=w, minlength=ordered.size)
    a, b = np.divmod(ordered, n)
    pairs, at = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                          return_inverse=True)
    lighter = np.full(pairs.size, np.inf)
    np.minimum.at(lighter, at, summed)
    # both arcs of each edge, grouped by tail: node k's arcs are
    # head[start[k]:start[k] + deg[k]]
    a, b = np.divmod(pairs, n)
    tail = np.concatenate([a, b])
    order = np.argsort(tail, kind="stable")
    head = np.concatenate([b, a])[order]
    weight = np.concatenate([lighter, lighter])[order]
    deg = np.bincount(tail, minlength=n)
    start = np.cumsum(deg) - deg

    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    label = D.reshape(-1)
    front = np.eye(n, dtype=bool).reshape(-1)
    step = n * max(1, _FRONT_BLOCK // n)
    for top in range(0, n * n, step):
        while (idx := np.flatnonzero(front[top:top + step])).size:
            idx += top
            front[idx] = False
            ends = np.cumsum(deg[idx % n])
            lo = 0
            while lo < idx.size:
                done = int(ends[lo - 1]) if lo else 0
                hi = max(lo + 1, int(np.searchsorted(
                    ends, done + _RELAX_CHUNK, "right")))
                src = idx[lo:hi]
                k = src % n
                cnt = deg[k]
                arc = np.arange(int(ends[hi - 1]) - done) + np.repeat(
                    start[k] - (ends[lo:hi] - cnt - done), cnt)
                # a row offset plus a head is the label (source, head)
                target = np.repeat(src - k, cnt) + head[arc]
                cand = np.repeat(label[src], cnt) + weight[arc]
                fall = cand < label[target]
                target = target[fall]
                np.minimum.at(label, target, cand[fall])
                front[target] = True
                lo = hi
    return D


class MetricSpace:
    """Finite metric space; construct through one of the from_* methods."""

    def __init__(self, backend: str, n: int, coords=None, matrix=None,
                 validate: bool = True, tol: float = _DEFAULT_TOL):
        self.backend = backend
        self.n = int(n)
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self._matrix = (None if matrix is None
                        else np.ascontiguousarray(matrix, dtype=float))
        if matrix is not None:
            self._matrix.setflags(write=False)      # the space's own
        self._symmetric = None
        self._min_positive = None
        self._absolute = None
        if self.n < 1:
            raise InputError("a metric space needs at least one point")
        if validate:
            report = self.validate(tol=tol)
            if not report.ok:
                raise PreconditionError(
                    f"distance data is not a metric: {report.summary()}",
                    witness=tuple(report.worst().ids))

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_matrix(cls, D, validate: bool = True, tol: float = _DEFAULT_TOL) -> "MetricSpace":
        """A space over its own copy of the square matrix D."""
        D = np.array(D, dtype=float, order="C")
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {D.shape}")
        return cls("matrix", D.shape[0], matrix=D, validate=validate, tol=tol)

    @classmethod
    def from_points(cls, coords, validate: bool = True, tol: float = _DEFAULT_TOL) -> "MetricSpace":
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise InputError("point cloud must be an (n, k) array")
        return cls("euclidean", coords.shape[0], coords=coords, validate=validate, tol=tol)

    @classmethod
    def from_graph(cls, n_nodes: int, edges, validate: bool = True,
                   tol: float = _DEFAULT_TOL) -> "MetricSpace":
        """Weighted undirected graph; distances are shortest paths,
        precomputed here once.  Repeated copies of an ordered edge
        (u, v) are summed, in input order; an edge given in both
        directions weighs the lighter of (u, v) and (v, u); self-loops
        are ignored.  A disconnected graph is refused, naming the first
        pair without a path in row-major order."""
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise InputError(f"a graph needs at least one node, got {n_nodes}")
        edges = list(edges)
        ends = _pairs.sample_ids([e[:2] for e in edges], n_nodes, "edge node",
                                 width=2)
        weights = [float(e[2]) for e in edges]
        for (u, v), w in zip(ends.tolist(), weights):
            if not (0 < w < np.inf):
                raise InputError(f"edge ({u},{v}) needs a positive finite weight, got {w}")
        D = _shortest_paths(n_nodes, ends[:, 0], ends[:, 1], weights)
        if np.isinf(D).any():
            i, j = map(int, np.argwhere(np.isinf(D))[0])
            raise InputError(f"graph is disconnected: no path between {i} and {j}")
        return cls("graph", n_nodes, matrix=D, validate=validate, tol=tol)

    @classmethod
    def from_grid(cls, lo: float, hi: float, step: float, validate: bool = True,
                  tol: float = _DEFAULT_TOL) -> "MetricSpace":
        lo, hi, step = float(lo), float(hi), float(step)
        if not np.isfinite([lo, hi, step]).all():
            raise InputError(f"grid needs finite lo, hi and step, got {lo}, {hi}, {step}")
        if not (hi > lo):
            raise InputError(f"grid needs hi > lo, got [{lo}, {hi}]")
        if step <= 0:
            raise InputError(f"grid step must be positive, got {step}")
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        coords = lo + step * np.arange(count)
        return cls("grid", count, coords=coords[:, None], validate=validate,
                   tol=tol)

    # ---- distance queries ---------------------------------------------

    def dist(self, p: int, q: int) -> float:
        """d(p, q) for sample ids p and q (see _pairs.sample_ids)."""
        p, q = _pairs.sample_id(p, self.n), _pairs.sample_id(q, self.n)
        if self._matrix is not None:
            return float(self._matrix[p, q])
        return float(_coord_dist(self.coords[[p, q]], [0],
                                 self._abs_distances())[0, 1])

    def dist_row(self, p: int) -> np.ndarray:
        """Distances from the sample p to every point, computed on demand."""
        p = _pairs.sample_id(p, self.n)
        if self._matrix is not None:
            return self._matrix[p].copy()
        return _coord_dist(self.coords, [p], self._abs_distances())[0]

    def pairwise(self) -> np.ndarray:
        """Full distance matrix, read-only and C-contiguous, cached after
        the first request."""
        if self._matrix is None:
            self._matrix = _coord_dist(self.coords, slice(None),
                                       self._abs_distances())
            self._matrix.setflags(write=False)
        return self._matrix

    def _abs_distances(self) -> bool:
        """_abs_is_root of the coordinates, decided once per space."""
        if self._absolute is None:
            self._absolute = _abs_is_root(self.coords)
        return self._absolute

    def ball(self, center: int, radius: float) -> np.ndarray:
        """Sorted ids strictly within radius of the center (open ball),
        read off the cached pairwise() row without copying it.  Checks
        over many balls read the same rule as member lists, a group of
        balls at a time, through _pairs.ball_members."""
        center = _pairs.sample_id(center, self.n)
        return (self.pairwise()[center] < radius).nonzero()[0]

    def diameter(self) -> float:
        return float(self.pairwise().max())

    def min_positive_distance(self) -> float:
        """Smallest positive d(p, q) over p != q: the least of the row
        minima of _positive_row_min over the pairs of the pair rule,
        swept once per space."""
        if self._min_positive is None:
            self._min_positive = float(np.fmin.reduce(
                self._positive_row_min(True), initial=np.inf))
        if self._min_positive == np.inf:
            raise PreconditionError("no positive pairwise distance in this space")
        return self._min_positive

    def nearest_positive(self, ids=None) -> np.ndarray:
        """Each sample's smallest positive distance to another sample
        (the diagonal is not read), NaN where it has none; with ids, an
        array of sample ids, each one's to the others of ids, aligned
        with them."""
        return self._positive_row_min(False, ids)

    def _positive_row_min(self, symmetric, ids=None) -> np.ndarray:
        """Each row's smallest positive distance over the pairs of
        _pairs.pair_blocks among ids (every ordered pair unless
        symmetric), off the diagonal, NaN where it has none (the last
        row, when symmetric): np.fmin, from a NaN start, passes over the
        entries that are not positive."""
        m = self.n if ids is None else len(ids)
        out = np.full(m, np.nan)
        for r, c, d, _ in _pairs.pair_blocks(self, m, ids, symmetric):
            pos = d > 0
            np.fill_diagonal(pos[:, r.start - c.start:], False)
            out[r] = np.fmin.reduce(d, axis=1, where=pos, initial=np.nan)
        return out

    def exactly_symmetric(self) -> bool:
        """d(p, q) == d(q, p) bit for bit, decided once: by construction
        for coordinates (_coord_dist), row block by row block for a matrix."""
        if self._symmetric is None:
            D = self._matrix
            self._symmetric = self.coords is not None or all(
                np.array_equal(D[r], D[:, r].T)
                for r in _pairs.row_blocks(self.n, self.n))
        return self._symmetric

    # ---- validation ----------------------------------------------------

    def validate(self, tol: float = _DEFAULT_TOL) -> ValidationReport:
        """The O(n^2) checks on every backend, of which point clouds and
        grids run only nonfinite and positivity, the others holding by
        construction of their distances; the O(n^3) triangle sweep runs
        on the matrix backend only, as Euclidean and shortest-path
        distances obey the law by construction."""
        triangle = "checked" if self.backend == "matrix" else "by construction"
        return _validate_matrix(self.pairwise(), tol, triangle,
                                self.exactly_symmetric(),
                                coordinates=self.coords is not None)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"MetricSpace({self.backend}, n={self.n})"


def validate_metric(space_or_matrix, tol: float = _DEFAULT_TOL) -> ValidationReport:
    """Check the metric axioms; triples for the triangle law.

    A raw square array gets every check, all triples included; a
    MetricSpace skips the triangle sweep when it is a metric by
    construction (point cloud, grid, graph), as report.triangle says.
    Violations carry the witnessing ids and the size of the breach.
    """
    if not isinstance(space_or_matrix, MetricSpace):
        space_or_matrix = MetricSpace.from_matrix(space_or_matrix, validate=False)
    return space_or_matrix.validate(tol=tol)


class Subset:
    """Sorted, deduplicated set of sample ids inside a fixed space."""

    def __init__(self, space: MetricSpace, members):
        self.space = space
        self.members = np.unique(_pairs.sample_ids(members, space.n,
                                                   "subset id"))

    @classmethod
    def whole(cls, space: MetricSpace) -> "Subset":
        return cls(space, np.arange(space.n))

    def __contains__(self, p) -> bool:
        p = _pairs.sample_id(p, self.space.n)
        i = np.searchsorted(self.members, p)
        return i < self.members.size and self.members[i] == p

    def __len__(self) -> int:
        return int(self.members.size)

    def __iter__(self):
        return iter(int(p) for p in self.members)

    def mask(self) -> np.ndarray:
        """Whether each sample of the space is a member."""
        inside = np.zeros(self.space.n, dtype=bool)
        inside[self.members] = True
        return inside

    def complement(self) -> np.ndarray:
        return np.flatnonzero(~self.mask())

    def require_nonempty(self, what: str = "subset") -> "Subset":
        if self.members.size == 0:
            raise PreconditionError(f"{what} must be nonempty")
        return self

    def is_closed_at_sample_scale(self) -> bool:
        """True when no outside sample sits at distance zero from the set.

        In a validated metric this always holds; kept as an interface
        contract for callers feeding pseudometric data with validation off.
        d(., set) is DistanceTo's scan; a NaN distance fails the check.
        """
        if self.members.size in (0, self.space.n):
            return True
        return _pairs.envelope(self.space, self.members, -0.0, 1.0,
                               +1)[self.complement()].min() > 0

    def __repr__(self) -> str:
        return f"Subset({len(self)} of {self.space.n})"
