"""Seeded inputs for the benchmark workloads.

Inputs are drawn from a numpy Generator seeded by the workload seed,
so the same seed gives the same arrays and the same files; the ball
cover and the decompose inputs use fixed generators (see ball_cover
and DECOMPOSE_SEED).  The program under test never sees the seed: it
receives only these arrays (library workloads) or the files written
from them (CLI workload).

Fields are smooth functions with a known slope bound, so every input
is valid by construction: phi is K-Lipschitz on A for the stated K, and
every witness certifies the values it is given with.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Slope bound of smooth_values: 0.6 * 3 + 0.4 * 4 = 3.4, rounded up so
# that rounding in the values never brushes the bound.
SLOPE = 3.5
INTERVAL = (-1.25, 1.25)        # target of the extensions; |f| <= 1
# Sizes keep a round to a few seconds, so that one run of run_seconds
# holds several rounds to take medians over (see README).
CLOUD_N = 300
LIB_N = 1200
# decompose on cli-cloud reads inputs made from this fixed seed, so its
# known failure (see README) does not depend on the workload seed; its
# witness has one ball per sample, and at this size the chained ball
# union is deeper than the default recursion limit allows
DECOMPOSE_SEED = 0
COVER_SEED = 0                  # see ball_cover
DECOMPOSE_N = 520
APPROX_STEPS = 3             # --n-max of approx


def smooth_values(coords: np.ndarray, rng) -> np.ndarray:
    """0.6 sin(a.x + b) + 0.4 cos(c.x + d) with |a| = 3 and |c| = 4, so
    the field is SLOPE-Lipschitz for the Euclidean distance."""
    dim = coords.shape[1]
    a = rng.normal(size=dim)
    c = rng.normal(size=dim)
    a *= 3.0 / np.linalg.norm(a)
    c *= 4.0 / np.linalg.norm(c)
    b, d = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return 0.6 * np.sin(coords @ a + b) + 0.4 * np.cos(coords @ c + d)


def euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Distances from coordinate differences; exactly symmetric with a
    zero diagonal, a metric up to rounding."""
    sq = np.zeros((coords.shape[0],) * 2)
    for x in coords.T:
        sq += np.square(x[:, None] - x[None, :])
    return np.sqrt(sq)


def ball_cover(coords: np.ndarray, groups: int = 3, per_group: int = 3,
               margin: float = 0.08) -> list:
    """Groups of (center id, radius) balls covering every sample with
    depth at least margin; few sets keep the staircase family small.

    Centers and radii come from the fixed generator COVER_SEED, each
    center snapped to the nearest sample, so the cover's shape, and
    with it the size of the staircase family the pou pipeline builds,
    does not vary with the workload seed.
    """
    rng = np.random.default_rng(COVER_SEED)

    def row(c):
        return np.sqrt(np.square(coords - coords[c]).sum(axis=1))

    def nearest(point):
        return int(np.argmin(np.square(coords - point).sum(axis=1)))

    out = []
    for _ in range(groups):
        out.append([(nearest(rng.uniform(size=coords.shape[1])),
                     float(rng.uniform(0.35, 0.6))) for _ in range(per_group)])
    depth = np.full(coords.shape[0], -np.inf)
    for balls in out:
        for c, r in balls:
            depth = np.maximum(depth, r - row(c))
    while (depth < margin).any():
        p = int(np.flatnonzero(depth < margin)[0])
        r = float(rng.uniform(3.0, 5.0) * margin)
        out[int(rng.integers(groups))].append((p, r))
        depth = np.maximum(depth, r - row(p))
    return out


class Problem:
    """One seeded problem on one space: values, a subset, witnesses,
    a ball cover and selection windows."""

    def __init__(self, coords: np.ndarray, rng, radius: float):
        n = coords.shape[0]
        self.coords = coords
        self.n = n
        self.f = smooth_values(coords, rng)
        self.A = np.sort(rng.choice(n, size=n // 10, replace=False))
        self.phi = self.f[self.A]
        # per-anchor constants: any L_x >= SLOPE keeps pair compatibility
        self.pointwise = SLOPE * (1.0 + rng.uniform(0.0, 1.0, size=self.A.size))
        self.radius = radius       # local-witness ball radius
        self.cover = ball_cover(coords)
        self.window_lower = self.f - rng.uniform(0.3, 0.6, size=n)
        self.window_upper = self.f + rng.uniform(0.3, 0.6, size=n)
        # approx target: small range, so every step fits the level cap
        self.approx_phi = 0.05 * self.f


def cloud_problem(seed: int, n: int) -> Problem:
    """Uniform points in the unit square."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    return Problem(coords, rng, radius=math.sqrt(8.0 / (math.pi * n)))


def grid1d_problem(seed: int, n: int) -> Problem:
    """The grid 0, 1/(n-1), ..., 1; the seed draws the field and the
    subset, not the samples."""
    rng = np.random.default_rng(seed)
    coords = (np.arange(n) / (n - 1))[:, None]
    return Problem(coords, rng, radius=4.0 / (n - 1))


# ---------------------------------------------------------------------------
# Files for the CLI workload


def _cloud_csv(path, coords):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{p},{x!r},{y!r}\n"
                         for p, (x, y) in enumerate(coords.tolist())))


def _values_csv(path, ids, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(i)},{float(v)!r}\n" for i, v in zip(ids, values)))


def _json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _matrix_csv(path, D):
    with open(path, "w", encoding="utf-8") as fh:
        for row in D:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _local_witness(ids, radius):
    return [{"p": int(p), "delta": radius, "K": SLOPE} for p in ids]


def write_cli_inputs(seed: int, root: str, n: int = CLOUD_N,
                     decompose_n: int = DECOMPOSE_N) -> dict:
    """Write every CLI input file under root; returns the paths and the
    arrays the output checks compare against."""
    os.makedirs(root, exist_ok=True)
    P = cloud_problem(seed, n)
    rng = np.random.default_rng([seed, 1])
    paths = {}

    def at(name):
        paths[name] = os.path.join(root, name)
        return paths[name]

    all_ids = np.arange(n)
    _cloud_csv(at("cloud.csv"), P.coords)
    _json(at("grid.json"), {"lo": 0.0, "hi": 0.5 * (n - 1), "step": 0.5})
    # 4-nearest-neighbour graph plus the path 0-1-...-(n-1), so it is
    # connected; each edge once, since the loader sums repeated edges
    D = euclidean_matrix(P.coords)
    pairs = {(p, p + 1) for p in range(n - 1)}
    near = np.argsort(D, axis=1)[:, 1:5]
    pairs |= {(min(p, int(q)), max(p, int(q))) for p in range(n) for q in near[p]}
    edges = [[p, q, float(D[p, q])] for p, q in sorted(pairs)]
    _json(at("graph.json"), {"nodes": n, "edges": edges})
    M = euclidean_matrix(rng.uniform(0.0, 1.0, size=(n, 3)))
    _matrix_csv(at("matrix.csv"), M)
    # lengthen one pair well past every detour through a third sample
    i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
    bad = M.copy()
    bad[i, j] = bad[j, i] = M[i, j] + 2.0 * float(M.max())
    _matrix_csv(at("matrix_bad.csv"), bad)

    _json(at("A.json"), P.A.tolist())
    _values_csv(at("phi.csv"), P.A, P.phi)
    _values_csv(at("f.csv"), all_ids, P.f)
    _json(at("witness_local.json"), _local_witness(all_ids, P.radius))
    _json(at("witness_A.json"), _local_witness(P.A, 2.0 * P.radius))
    _json(at("witness_pointwise.json"),
          [{"p": int(p), "K": float(L)} for p, L in zip(P.A, P.pointwise)])
    _json(at("cover.json"),
          [{"balls": [[c, r] for c, r in g]} for g in P.cover])
    _values_csv(at("lower.csv"), all_ids, P.window_lower)
    _values_csv(at("upper.csv"), all_ids, P.window_upper)
    _values_csv(at("approx_phi.csv"), all_ids, P.approx_phi)
    _json(at("window.json"), {"lower": paths["lower.csv"],
                              "upper": paths["upper.csv"]})
    _json(at("window_insert.json"), {"lower": paths["lower.csv"],
                                     "upper": paths["upper.csv"],
                                     "phi": paths["f.csv"]})
    _json(at("window_approx.json"), {"phi": paths["approx_phi.csv"]})

    fixed = cloud_problem(DECOMPOSE_SEED, decompose_n)
    _cloud_csv(at("fixed_cloud.csv"), fixed.coords)
    _values_csv(at("fixed_f.csv"), np.arange(fixed.n), fixed.f)
    _json(at("fixed_witness.json"),
          _local_witness(np.arange(fixed.n), fixed.radius))

    return {"paths": paths, "problem": P, "fixed": fixed, "matrix_bad": bad}
