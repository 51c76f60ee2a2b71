"""File formats for spaces, fields, witnesses, covers, and certificates.

Spaces load from CSV (distance matrix or id-prefixed point cloud,
told apart by the zero diagonal of a square matrix) or JSON (grid
{lo, hi, step} or graph {nodes, edges}).  Fields load from value CSVs
(id, value) or small expression trees {op, args}.  All writers format
floats with repr, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

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
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    if lineno == 1:
                        continue        # tolerated header row
                    raise InputError(f"{path}, line {lineno}: not numeric")
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    if not rows:
        raise InputError(f"{path}: empty file")
    width = len(rows[0])
    for i, r in enumerate(rows, start=1):
        if len(r) != width:
            raise InputError(f"{path}, line {i}: ragged row")
    return np.array(rows)


# ---------------------------------------------------------------------------
# Spaces


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
            return MetricSpace.from_grid(float(obj["lo"]), float(obj["hi"]),
                                         float(obj["step"]), validate, tol)
        if {"nodes", "edges"} <= set(obj):
            edges = []
            for j, e in enumerate(obj["edges"]):
                if isinstance(e, dict):
                    try:
                        edges.append((int(e["u"]), int(e["v"]), float(e["w"])))
                    except KeyError as k:
                        raise InputError(f"{path}: edge {j} misses key {k}")
                else:
                    u, v, w = e
                    edges.append((int(u), int(v), float(w)))
            return MetricSpace.from_graph(int(obj["nodes"]), edges, validate, tol)
        raise InputError(f"{path}: JSON is neither a grid nor a graph")
    data = _read_csv_floats(path)
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
    return Subset(space, [int(i) for i in obj])


# ---------------------------------------------------------------------------
# Value tables


def load_values_csv(path):
    """Rows of (id, value); returns (ids, values) in file order."""
    data = _read_csv_floats(path)
    if data.shape[1] != 2:
        raise InputError(f"{path}: expected two columns (id, value)")
    ids = data[:, 0]
    if not np.array_equal(ids, np.round(ids)):
        raise InputError(f"{path}: first column must hold integer ids")
    return ids.astype(int), data[:, 1]


def values_on_subset(path, A: Subset) -> np.ndarray:
    """Values aligned with A.members, loaded from a value CSV."""
    ids, vals = load_values_csv(path)
    lookup = dict(zip(ids.tolist(), vals.tolist()))
    out = np.empty(len(A))
    for i, p in enumerate(A.members):
        if int(p) not in lookup:
            raise InputError(f"{path}: no value for subset id {int(p)}")
        out[i] = lookup[int(p)]
    return out


def field_on_space(path, space: MetricSpace) -> Tabulated:
    """A tabulated field from a value CSV covering every id."""
    ids, vals = load_values_csv(path)
    lookup = dict(zip(ids.tolist(), vals.tolist()))
    out = np.empty(space.n)
    for p in range(space.n):
        if p not in lookup:
            raise InputError(f"{path}: no value for id {p}")
        out[p] = lookup[p]
    return Tabulated(space, out)


def save_values_csv(path, values, ids=None):
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = np.arange(values.size)
    lines = [f"{int(i)},{float(v)!r}" for i, v in zip(ids, values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_wide_csv(path, names, columns):
    """One id column plus one labeled column per field."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    lines = ["id," + ",".join(names)]
    for p in range(n):
        lines.append(str(p) + "," + ",".join(repr(float(c[p])) for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Witnesses and covers


def load_local_witness(path) -> LocalWitness:
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: witness must be a JSON array of entries")
    triples = []
    for j, e in enumerate(obj):
        try:
            triples.append((int(e["p"]), float(e["delta"]), float(e["K"])))
        except (KeyError, TypeError) as k:
            raise InputError(f"{path}: entry {j} needs keys p, delta, K ({k})")
    return LocalWitness.from_triples(triples)


def load_pointwise_witness(path) -> PointwiseWitness:
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: witness must be a JSON array of entries")
    constants = {}
    for j, e in enumerate(obj):
        try:
            constants[int(e["p"])] = float(e["K"])
        except (KeyError, TypeError) as k:
            raise InputError(f"{path}: entry {j} needs keys p, K ({k})")
    return PointwiseWitness(constants)


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
            balls = [(int(c), float(r)) for c, r in w["balls"]]
            fields.append(_BallUnion(space, balls, j))
        elif "values" in w:
            vals = np.asarray(w["values"], dtype=float)
            if vals.shape != (space.n,):
                raise InputError(
                    f"{path}: witness {j} needs {space.n} values")
            fields.append(Tabulated(space, vals))
        else:
            raise InputError(f"{path}: witness {j} has neither balls nor values")
    return CozeroCover(space, fields)


# ---------------------------------------------------------------------------
# Field expressions


_UNARY = {"neg", "arctan", "tan", "reciprocal"}
_BINARY = {"add", "sub", "mul", "min", "max"}


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
    args = tree.get("args", [])
    if op == "constant":
        return Constant(space, float(args[0]))
    if op == "tabulated":
        vals = np.asarray(args[0], dtype=float)
        if vals.shape != (space.n,):
            raise InputError(f"tabulated node needs {space.n} values")
        return Tabulated(space, vals)
    if op == "coordinate":
        return Coordinate(space, int(args[0]) if args else 0)
    if op == "distance":
        return DistanceTo(space, [int(i) for i in args[0]])
    if op in _BINARY:
        if len(args) != 2:
            raise InputError(f"op {op} needs two arguments")
        a = field_from_tree(args[0], space)
        b = field_from_tree(args[1], space)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "min":
            return minimum(a, b)
        return maximum(a, b)
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
        out.append(None if spec is None else field_from_spec(spec, space))
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
