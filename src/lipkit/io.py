"""File formats for spaces, fields, witnesses, covers, and certificates.

Spaces load from CSV (distance matrix or id-prefixed point cloud,
told apart by the zero diagonal of a square matrix) or JSON (grid
{lo, hi, step} or graph {nodes, edges}).  Fields load from value CSVs
(id, value) or small expression trees {op, args}.  All writers format
floats with repr, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import operator
from array import array

import numpy as np

from . import _pairs
from ._version import __version__
from .certify import _jsonable
from .errors import InputError
from .extension import PointwiseWitness
from .local_lipschitz import LocalWitness
from .metric_space import _DEFAULT_TOL, MetricSpace, Subset
from .partition_of_unity import CozeroCover, _BallUnion
from .scalar_field import (Constant, Coordinate, DistanceTo, ScalarField,
                           Tabulated, Transported, maximum, minimum)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}, line {e.lineno}: {e.msg}")


def _read_csv_floats(path):
    """The numeric rows of a CSV file, with the file line of each row.
    Rows are parsed one at a time into one flat array('d'), so no list
    of Python floats outlives its row.  A non-numeric row is refused at
    its line (only line 1 may be a header), blank lines are skipped, and
    a row whose width differs from the first numeric row's is refused
    once the file is read, so a later non-numeric row is reported first."""
    vals, lines, width, ragged = array("d"), [], None, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = list(map(float, line.split(",")))
                except ValueError:
                    if lineno == 1:
                        continue        # tolerated header row
                    raise InputError(f"{path}, line {lineno}: not numeric")
                if width is None:
                    width = len(row)
                elif ragged is None and len(row) != width:
                    ragged = lineno
                vals.fromlist(row)
                lines.append(lineno)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    if not lines:
        raise InputError(f"{path}: empty file")
    if ragged is not None:
        raise InputError(f"{path}, line {ragged}: ragged row")
    return np.frombuffer(vals).reshape(len(lines), width), lines


# ---------------------------------------------------------------------------
# Spaces


def _convert(x, kind, what):
    """x converted by kind (int or float), or an InputError naming what;
    an int must be integral, so 1.5 is refused rather than truncated,
    and a JSON true or false is no number, so it is not read as 1 or 0."""
    try:
        if isinstance(x, bool):
            raise TypeError
        out = kind(x)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {x!r}")
    if kind is int and out != x and not isinstance(x, str):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return out


def _number(path, obj, key, kind):
    """obj[key] converted by kind (int or float), or an InputError."""
    return _convert(obj[key], kind, f"{path}: \"{key}\"")


def load_space(path, tol: float = _DEFAULT_TOL,
               validate: bool = True) -> MetricSpace:
    """Load a metric space, inferring the backend from the file.

    JSON with lo/hi/step is a grid; JSON with nodes/edges is a graph.
    A square CSV with a zero diagonal is a distance matrix; any other
    CSV must carry ids 0..n-1 in its first column and is a point cloud.
    """
    if path.endswith(".json"):
        obj = _read_json(path)
        if not isinstance(obj, dict):
            raise InputError(f"{path}: expected a JSON object")
        if {"lo", "hi", "step"} <= set(obj):
            lo, hi, step = (_number(path, obj, k, float) for k in ("lo", "hi", "step"))
            return MetricSpace.from_grid(lo, hi, step, validate, tol)
        if {"nodes", "edges"} <= set(obj):
            if not isinstance(obj["edges"], list):
                raise InputError(f"{path}: \"edges\" must be a list")
            n, edges = _number(path, obj, "nodes", int), []
            for j, e in enumerate(obj["edges"]):
                try:
                    u, v, w = (e["u"], e["v"], e["w"]) if isinstance(e, dict) else e
                except (KeyError, TypeError, ValueError):
                    raise InputError(f"{path}: edge {j} must be [u, v, w] or "
                                     f"{{\"u\", \"v\", \"w\"}}")
                edges.append((u, v, _convert(w, float, f"{path}: edge {j}")))
            _pairs.sample_ids([e[:2] for e in edges], n, f"{path}: edge node",
                              width=2)
            return MetricSpace.from_graph(n, edges, validate, tol)
        raise InputError(f"{path}: JSON is neither a grid nor a graph")
    data, _ = _read_csv_floats(path)
    n, m = data.shape
    if n == m and float(np.abs(np.diag(data)).max()) == 0.0:
        return MetricSpace.from_matrix(data, validate, tol)
    ids = data[:, 0]
    if m >= 2 and np.array_equal(ids, np.arange(n, dtype=float)):
        return MetricSpace.from_points(data[:, 1:], validate, tol)
    raise InputError(
        f"{path}: CSV is neither a zero-diagonal square matrix nor an "
        f"id-prefixed point cloud")


def load_subset(path, space: MetricSpace) -> Subset:
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: subset must be a JSON array of ids")
    return Subset(space, _pairs.sample_ids(obj, space.n, f"{path}: subset id"))


# ---------------------------------------------------------------------------
# Value tables


def _first_repeat(ids):
    """Position of the first entry equal to an earlier one, or None."""
    later = np.setdiff1d(np.arange(ids.size),
                         np.unique(ids, return_index=True)[1])
    return int(later[0]) if later.size else None


def load_values_csv(path, n):
    """Rows of (id, value); returns (ids, values) in file order.  An
    InputError names the file line of a non-finite entry, of an id that
    is no sample id of 0..n-1 and of a repeated id."""
    data, lines = _read_csv_floats(path)
    if data.shape[1] != 2:
        raise InputError(f"{path}: expected two columns (id, value)")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise InputError(f"{path}, line {lines[bad[0]]}: ids and values "
                         f"must be finite")
    ids = data[:, 0]
    bad = _pairs.first_bad_id(ids, n)
    if bad is None and (i := _first_repeat(ids)) is not None:
        bad = i, "repeats an earlier row"
    if bad:
        i, why = bad
        raise InputError(f"{path}, line {lines[i]}: id {ids[i]:g} {why}")
    return ids.astype(int), data[:, 1]


def _values_at(path, n, ids, what) -> np.ndarray:
    """The values of a value CSV over 0..n-1 at the sample ids."""
    known, vals = load_values_csv(path, n)
    out = np.full(n, np.nan)    # the values are finite: NaN marks a gap
    out[known] = vals
    missing = ids[np.isnan(out[ids])]
    if missing.size:
        raise InputError(f"{path}: no value for {what} {missing[0]}")
    return out[ids]


def values_on_subset(path, A: Subset) -> np.ndarray:
    """Values aligned with A.members, loaded from a value CSV."""
    return _values_at(path, A.space.n, A.members, "subset id")


def field_on_space(path, space: MetricSpace) -> Tabulated:
    """A tabulated field from a value CSV covering every id."""
    return Tabulated(space, _values_at(path, space.n, np.arange(space.n),
                                       "id"))


def save_values_csv(path, values, ids=None):
    values = np.asarray(values, dtype=float).tolist()
    ids = range(len(values)) if ids is None else map(int, ids)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{i},{v!r}" for i, v in zip(ids, values)) + "\n")


def save_wide_csv(path, names, columns):
    """One id column plus one labeled column per field."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(names) + "\n" + "".join(
            f"{p},{','.join(map(repr, row))}\n" for p, row in enumerate(rows)))


# ---------------------------------------------------------------------------
# Witnesses and covers


def _witness_entries(path, keys, entry) -> list:
    """entry(e) for each entry e of a witness JSON array with the keys."""
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: witness must be a JSON array of entries")
    out = []
    for j, e in enumerate(obj):
        try:
            out.append(entry(e))
        except (KeyError, TypeError) as k:
            raise InputError(f"{path}: entry {j} needs keys {keys} ({k})")
    return out


def _entry_points(path, points):
    """The "p" entries of a witness file under the one sample-id rule
    of _pairs.sample_ids (the range is checked where the witness meets
    a space), so a JSON string or bool is refused, not read as an id."""
    return _pairs.sample_ids(points, None, f"{path}: entry point")


def load_local_witness(path) -> LocalWitness:
    points, deltas, constants = _pairs.unzip(_witness_entries(
        path, "p, delta, K", lambda e: (e["p"],
                                        _number(path, e, "delta", float),
                                        _number(path, e, "K", float))), 3)
    return LocalWitness(_entry_points(path, points), deltas, constants)


def load_pointwise_witness(path) -> PointwiseWitness:
    points, constants = _pairs.unzip(_witness_entries(
        path, "p, K", lambda e: (e["p"], _number(path, e, "K", float))), 2)
    points = _entry_points(path, points)
    if (j := _first_repeat(points)) is not None:
        raise InputError(f"{path}: entry {j} repeats point {points[j]}")
    return PointwiseWitness(dict(zip(points.tolist(), constants)))


def load_cover(path, space: MetricSpace) -> CozeroCover:
    """Cover JSON: a list of witnesses, each {"balls": [[center,
    radius], ...]} or {"values": [one number per sample]}."""
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: cover must be a JSON array of witnesses")
    fields = []
    for j, w in enumerate(obj):
        if not isinstance(w, dict):
            raise InputError(f"{path}: witness {j} must be an object")
        if "balls" in w:
            try:
                centers, radii = _pairs.unzip(w["balls"], 2)
            except (TypeError, ValueError):
                raise InputError(f"{path}: witness {j} needs balls given as "
                                 f"[center, radius] pairs")
            fields.append(_BallUnion(
                space, _pairs.sample_ids(centers, space.n,
                                         f"{path}: ball center"),
                [_convert(r, float, f"{path}: ball radius") for r in radii],
                j))
        elif "values" in w:
            try:
                vals = np.asarray(w["values"], dtype=float)
            except (TypeError, ValueError):
                vals = None
            if vals is None or vals.shape != (space.n,):
                raise InputError(
                    f"{path}: witness {j} needs {space.n} values")
            fields.append(Tabulated(space, vals))
        else:
            raise InputError(f"{path}: witness {j} has neither balls nor values")
    return CozeroCover(space, fields)


# ---------------------------------------------------------------------------
# Field expressions


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "min": minimum, "max": maximum}
_UNARY = {"neg", "arctan", "tan", "reciprocal"}


def field_from_tree(tree, space: MetricSpace) -> ScalarField:
    """Build a field from an {op, args} expression tree.

    Leaves: constant(value), tabulated(values), coordinate(axis),
    distance(ids).  Inner nodes: add/sub/mul/min/max on two subtrees,
    neg/arctan/tan/reciprocal on one.
    """
    if isinstance(tree, (int, float)):
        return Constant(space, float(tree))
    if not isinstance(tree, dict) or "op" not in tree:
        raise InputError(f"expression node {tree!r} has no op")
    op = tree["op"]
    if not isinstance(op, str):
        raise InputError(f"op must be a name, got {op!r}")
    args = tree.get("args", [])
    if not isinstance(args, list):
        raise InputError(f"op {op} needs a list of arguments")
    if op == "coordinate" and len(args) <= 1:
        return Coordinate(space, _convert(args[0], int, "coordinate axis")
                          if args else 0)
    if op in ("constant", "tabulated", "distance") and len(args) != 1:
        raise InputError(f"op {op} needs one argument")
    if op == "constant":
        return Constant(space, _convert(args[0], float, "constant value"))
    if op == "tabulated":
        try:
            vals = np.asarray(args[0], dtype=float)
        except (TypeError, ValueError):
            raise InputError("tabulated values must be numbers")
        if vals.shape != (space.n,):
            raise InputError(f"tabulated node needs {space.n} values")
        return Tabulated(space, vals)
    if op == "distance":
        if not isinstance(args[0], list):
            raise InputError("op distance needs a list of ids")
        return DistanceTo(space, _pairs.sample_ids(args[0], space.n,
                                                   "distance id"))
    if op in _BINARY:
        if len(args) != 2:
            raise InputError(f"op {op} needs two arguments")
        return _BINARY[op](field_from_tree(args[0], space),
                           field_from_tree(args[1], space))
    if op in _UNARY:
        if len(args) != 1:
            raise InputError(f"op {op} needs one argument")
        a = field_from_tree(args[0], space)
        return -a if op == "neg" else Transported(op, a)
    raise InputError(f"unknown op {op!r}")


def field_from_spec(spec, space: MetricSpace) -> ScalarField:
    """A field from a number (constant), a CSV path string (tabulated
    values), or an expression tree."""
    if spec is None:
        raise InputError("missing field specification")
    if isinstance(spec, (int, float)):
        return Constant(space, float(spec))
    if isinstance(spec, str):
        return field_on_space(spec, space)
    return field_from_tree(spec, space)


def load_mapping(path, space: MetricSpace):
    """Window file: {"lower": spec|null, "upper": spec|null,
    "phi": spec (optional)}; returns (lower, upper, phi)."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    out = []
    for key in ("lower", "upper", "phi"):
        spec = obj.get(key)
        try:
            out.append(None if spec is None else field_from_spec(spec, space))
        except InputError as e:
            raise InputError(f"{path}: \"{key}\": {e}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# Certificates


def write_certificates(path, certs, config) -> bool:
    """Write the command certificate file; returns True when every
    certificate passed.  Embeds the tool version and the resolved
    configuration, and sorts keys, so reruns are byte-identical."""
    entries = []
    ok = True
    for c in certs:
        d = c if isinstance(c, dict) else c.to_dict()
        entries.append(_jsonable(d))
        ok = ok and bool(d.get("passed", False))
    payload = {"version": __version__, "config": _jsonable(config),
               "certificates": entries, "passed": ok}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ok
