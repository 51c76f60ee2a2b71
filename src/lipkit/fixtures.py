"""Worked fixtures: curves and covers with controlled Lipschitz behavior.

Each builder returns ready-made spaces, fields, and witnesses used by
the demo commands and the test suite: the sin(1/t) crest-trough pairs
whose difference quotients blow up, the cusp curve that is pointwise
but not locally Lipschitz at the origin, bounded and unbounded
reciprocal-type samples with their ball witnesses, and small step
mappings for selection.
"""

from __future__ import annotations

import math

import numpy as np

from .local_lipschitz import LocalWitness
from .metric_space import MetricSpace
from .partition_of_unity import CozeroCover
from .scalar_field import Constant, DistanceTo, Tabulated, minimum


def sin_reciprocal_pairs(n_pairs: int = 20):
    """Crest-trough samples of sin(1/t).

    Pair k holds s_k = 2/((4k+1) pi) and t_k = 2/((4k+3) pi), where
    sin(1/t) is +1 and -1.  The gap |s_k - t_k| shrinks like k^-2
    while the value difference stays 2, so the pair slopes diverge.
    Returns (space, field, pairs) with pairs as (id of s_k, id of t_k).
    """
    ks = np.arange(1, n_pairs + 1)
    s = 2.0 / ((4 * ks + 1) * math.pi)
    t = 2.0 / ((4 * ks + 3) * math.pi)
    x = np.empty(2 * n_pairs)
    x[0::2] = s
    x[1::2] = t
    space = MetricSpace.from_points(x)
    f = Tabulated(space, np.sin(1.0 / x))
    pairs = [(2 * k, 2 * k + 1) for k in range(n_pairs)]
    return space, f, pairs


def cusp_curve(ts=None):
    """The curve u_t = (t^3, t^2) carrying f(u_t) = sign(t) t^2.

    Same-sign pair slopes never exceed 1, but f(u_t) - f(u_{-t}) =
    2 t^2 over the distance 2 |t|^3 gives the slope 1/|t|, so no
    single ball around the origin admits a finite rate.  Returns
    (space, field, opposite_pairs).
    """
    if ts is None:
        ts = np.geomspace(0.05, 1.0, 12)
    ts = np.asarray(ts, dtype=float)
    pts = np.empty((2 * ts.size, 2))
    vals = np.empty(2 * ts.size)
    pts[0::2, 0] = ts ** 3
    pts[0::2, 1] = ts ** 2
    vals[0::2] = ts ** 2
    pts[1::2, 0] = -(ts ** 3)
    pts[1::2, 1] = ts ** 2
    vals[1::2] = -(ts ** 2)
    space = MetricSpace.from_points(pts)
    f = Tabulated(space, vals)
    pairs = [(2 * k, 2 * k + 1) for k in range(ts.size)]
    return space, f, pairs


def square_on_grid(lo: float = -3.0, hi: float = 3.0, step: float = 0.1):
    """f(t) = t^2 on a uniform grid with its standard ball witness
    (p, 1, 2|t_p| + 4): inside the doubled ball the slope |x + y| stays
    under the rate.  Returns (space, field, witness)."""
    space = MetricSpace.from_grid(lo, hi, step)
    t = space.coords[:, 0]
    f = Tabulated(space, t * t)
    witness = LocalWitness(np.arange(space.n), np.ones(space.n),
                           2.0 * np.abs(t) + 4.0)
    return space, f, witness


def reciprocal_on_ray(t_max: float = 4.0, ratio: float = 0.9, n: int = 40):
    """f(t) = 1/t on a geometric sample of (0, t_max].

    Ball radii shrink with t (delta = t/4) and the rates 4/t^2 follow
    the derivative bound on the doubled balls, so the witness certifies
    while no global constant exists down the ray.
    Returns (space, field, witness).
    """
    t = np.sort(t_max * ratio ** np.arange(n))
    space = MetricSpace.from_points(t)
    f = Tabulated(space, 1.0 / t)
    witness = LocalWitness(np.arange(space.n), t / 4.0, 4.0 / t ** 2)
    return space, f, witness


def sin_reciprocal_on_interval(t_min: float = 0.05, t_max: float = 1.0,
                               n: int = 32):
    """f(t) = sin(1/t) on a geometric sample of [t_min, t_max] with the
    same derivative-bound witness as the reciprocal (|f'| <= 1/t^2).
    Returns (space, field, witness)."""
    t = np.geomspace(t_min, t_max, n)
    space = MetricSpace.from_points(t)
    f = Tabulated(space, np.sin(1.0 / t))
    witness = LocalWitness(np.arange(space.n), t / 4.0, 4.0 / t ** 2)
    return space, f, witness


def dowker_step(step: float = 0.25):
    """Step windows with a gap: on [0, 2], the lower field jumps from 0
    to 1 at t = 1 and the upper field from 1/2 to 2, so any selection
    must cross the jump while staying strictly between.
    Returns (space, lower, upper)."""
    space = MetricSpace.from_grid(0.0, 2.0, step)
    t = space.coords[:, 0]
    lower = Tabulated(space, np.where(t < 1.0, 0.0, 1.0))
    upper = Tabulated(space, np.where(t < 1.0, 0.5, 2.0))
    return space, lower, upper


def approx_targets(step: float = 0.25):
    """Targets for the decreasing approximation run: the zero function
    and |t| on [-1, 1].  Returns (space, [fields])."""
    space = MetricSpace.from_grid(-1.0, 1.0, step)
    t = space.coords[:, 0]
    return space, [Constant(space, 0.0), Tabulated(space, np.abs(t))]


def three_point_shrink():
    """Three collinear points with two clamped distance witnesses.

    eta_1 = min(1/2, d(., {2})) and eta_2 = min(1/4, d(., {0})) on
    X = {0, 1, 2} with |.|: every value in the shrink is an exact
    dyadic, so expected mixtures and shrunken witnesses can be compared
    bit for bit.  Returns (space, cover, expected) with expected
    holding "eta", "gamma", and "sets".
    """
    space = MetricSpace.from_points(np.array([0.0, 1.0, 2.0]))
    eta1 = minimum(Constant(space, 0.5), DistanceTo(space, [2]))
    eta2 = minimum(Constant(space, 0.25), DistanceTo(space, [0]))
    cover = CozeroCover(space, [eta1, eta2])
    expected = {
        "eta": np.array([0.25, 0.3125, 0.0625]),
        "gamma": [np.array([0.375, 0.34375, 0.0]),
                  np.array([0.0, 0.09375, 0.21875])],
        "sets": [np.array([True, True, False]),
                 np.array([False, True, True])],
    }
    return space, cover, expected
