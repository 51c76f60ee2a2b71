"""Output checks that do not trust the program under test.

Each check recomputes what it needs from the benchmark's own arrays:
distances from coordinate differences (never the program's cached
matrix), windows and values from the seeded inputs.  A check raises
CheckFailed with the worst offender; it never compares against a
stored copy of an earlier output.  selftest.py feeds every check a
deliberately broken output and confirms that it is rejected.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute slack for comparisons that involve distances: the program
# computes Euclidean distances through a quadratic form, the checks
# through coordinate differences, and the two agree to about 1e-13 on
# unit-scale samples.
TOL = 1e-9
# Relative tolerance between envelopes and their direct max/min formula.
ENVELOPE_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output broke a property the method guarantees."""


def _fail_if(cond, message):
    if cond:
        raise CheckFailed(message)


def envelopes(D_A, phi, consts, A, lower, upper):
    """lower <= upper; lower/upper against max_a (phi_a - c_a d) and
    min_a (phi_a + c_a d); exact restriction to phi on A."""
    gap = lower - upper
    p = int(np.argmax(gap))
    _fail_if(gap[p] > TOL, f"lower exceeds upper at {p} by {gap[p]:.3e}")
    spread = consts[None, :] * D_A
    lo_ref = np.max(phi[None, :] - spread, axis=1)
    hi_ref = np.min(phi[None, :] + spread, axis=1)
    for name, got, ref in (("lower", lower, lo_ref), ("upper", upper, hi_ref)):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        p = int(np.argmax(err))
        _fail_if(err[p] > ENVELOPE_REL_TOL,
                 f"{name} envelope off its formula at {p} by {err[p]:.3e}")
        bad = np.flatnonzero(got[A] != phi)
        _fail_if(bad.size, f"{name} envelope differs from phi at "
                           f"anchor {int(A[bad[0]]) if bad.size else -1}")


def lipschitz(D, v, K):
    """|v_p - v_q| <= K d(p, q) + TOL over every pair."""
    excess = np.abs(v[:, None] - v[None, :]) - K * D
    k = int(np.argmax(excess))
    p, q = divmod(k, v.size)
    _fail_if(excess[p, q] > TOL,
             f"{K}-Lipschitz bound broken at {(p, q)} by {excess[p, q]:.3e}")


def within(v, lo, hi):
    """lo <= v <= hi everywhere."""
    out = np.maximum(lo - v, v - hi)
    p = int(np.argmax(out))
    _fail_if(out[p] > 0.0, f"value {v[p]!r} at {p} leaves [{lo}, {hi}]")


def restriction(v, A, phi, tol=0.0):
    """v equals phi on A, exactly when tol is 0."""
    diff = np.abs(v[A] - phi)
    i = int(np.argmax(diff))
    _fail_if(diff[i] > tol,
             f"restriction to A misses phi at {int(A[i])} by {diff[i]:.3e}")


def sandwich(g, lower, upper):
    """lower <= g <= upper up to TOL."""
    out = np.maximum(lower - g, g - upper)
    p = int(np.argmax(out))
    _fail_if(out[p] > TOL, f"extension leaves the envelope bracket at {p} "
                           f"by {out[p]:.3e}")


def anchor_rates(D_A, v, phi, L):
    """|v(x) - phi_a| <= L_a d(x, a) + TOL for every sample x and anchor a:
    the per-anchor bound that envelopes with constants L guarantee."""
    excess = np.abs(v[:, None] - phi[None, :]) - L[None, :] * D_A
    k = int(np.argmax(excess))
    x, a = divmod(k, phi.size)
    _fail_if(excess[x, a] > TOL,
             f"rate at anchor #{a} broken at sample {x} by {excess[x, a]:.3e}")


def partition(M, member_sets, set_masks):
    """Members nonnegative, summing to one (math.fsum) within TOL, and
    zero off their cover sets.  set_masks[s] marks the samples that may
    lie in set s; a member of set s must vanish everywhere else."""
    neg = float(M.min())
    _fail_if(neg < 0.0, f"a partition member goes negative ({neg:.3e})")
    for p in range(M.shape[1]):
        s = math.fsum(M[:, p].tolist())
        _fail_if(abs(s - 1.0) > TOL, f"members sum to {s!r} at sample {p}")
    for m, s in enumerate(member_sets):
        off = ~set_masks[s] & (M[m] != 0.0)
        _fail_if(off.any(), f"member {m} is nonzero off cover set {s} at "
                            f"sample {int(np.argmax(off)) if off.any() else -1}")


def ball_union_masks(D, groups):
    """For each ball group, the samples inside the open union of its
    balls, widened by TOL so distance rounding cannot flag a sample."""
    masks = []
    for balls in groups:
        m = np.zeros(D.shape[0], dtype=bool)
        for c, r in balls:
            m |= D[c] < r + TOL
        masks.append(m)
    return masks


def modulus(D, f, levels, kind, rel_tol=1e-9):
    """|f(x) - f(y)| <= L(x, y) d(x, y) on every pair, with
    L = max(level_x, level_y), times (1 + |f(x) - f(y)|) when unbounded."""
    _fail_if(not np.isfinite(levels).all() or levels.min() <= 0.0,
             "modulus levels must be positive and finite")
    osc = np.abs(f[:, None] - f[None, :])
    L = np.maximum(levels[:, None], levels[None, :])
    if kind == "unbounded":
        L = L * (1.0 + osc)
    excess = osc - L * D * (1.0 + rel_tol) - TOL
    k = int(np.argmax(excess))
    x, y = divmod(k, f.size)
    _fail_if(excess[x, y] > 0.0,
             f"{kind} modulus broken at {(x, y)} by {excess[x, y]:.3e}")


def strictly_inside(v, lower, upper):
    """lower < v < upper at every sample."""
    margin = np.minimum(v - lower, upper - v)
    p = int(np.argmin(margin))
    _fail_if(not margin[p] > 0.0,
             f"selection touches or leaves its window at {p} "
             f"(margin {margin[p]!r})")


def approx_steps(steps, phi):
    """Strictly decreasing, strictly above phi, and sup(f_n - phi) < 2^(1-n)."""
    _fail_if(not steps, "no approximation steps")
    for n, f in enumerate(steps, start=1):
        gap = f - phi
        _fail_if(not gap.min() > 0.0, f"step {n} is not strictly above phi")
        _fail_if(not gap.max() < 2.0 ** (1 - n),
                 f"step {n} gap {gap.max()!r} reaches 2^(1-{n})")
        if n > 1:
            _fail_if(not (steps[n - 2] - f).min() > 0.0,
                     f"step {n} does not strictly decrease")


def triangle_witness(M, ids, magnitude):
    """The reported triple (i, k, j) breaks d(i, j) <= d(i, k) + d(k, j)
    by the reported magnitude, recomputed from the matrix itself."""
    _fail_if(len(ids) != 3, f"witness {ids} is not a triple")
    i, k, j = (int(x) for x in ids)
    excess = M[i, j] - (M[i, k] + M[k, j])
    _fail_if(not excess > TOL, f"triple {ids} does not break the triangle law")
    _fail_if(abs(excess - magnitude) > TOL * max(1.0, excess),
             f"triple {ids} breaks it by {excess!r}, reported {magnitude!r}")


def decomposition(f, members, exponents, reconstruction):
    """|member_j| <= 2^j, the members sum (math.fsum) to the reported
    reconstruction, and the reconstruction returns f within TOL."""
    for m, j in zip(members, exponents):
        _fail_if(np.abs(m).max() > 2.0 ** j + TOL,
                 f"member over its slice bound 2^{j}")
    total = np.array([math.fsum(col) for col in np.asarray(members).T.tolist()])
    _fail_if(np.abs(total - reconstruction).max() > TOL,
             "members do not sum to the reconstruction")
    restriction(reconstruction, np.arange(f.size), f, tol=TOL)


def certificates_pass(certs):
    """Every certificate in a list of dicts or Certificate objects passed."""
    for c in certs:
        passed = c["passed"] if isinstance(c, dict) else c.passed
        kind = c["kind"] if isinstance(c, dict) else c.kind
        _fail_if(not passed, f"certificate {kind} failed")


# ---------------------------------------------------------------------------
# Readers for the CLI's output files


def read_values_csv(path, n):
    """id,value rows covering ids 0..n-1, in id order."""
    out = np.full(n, np.nan)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            i, v = line.split(",")
            out[int(i)] = float(v)
    _fail_if(np.isnan(out).any(), f"{path} misses ids")
    return out


def read_wide_csv(path):
    """(column names, matrix with one row per column) of a wide CSV."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
        rows = [[float(x) for x in line.split(",")[1:]] for line in fh]
    return names, np.array(rows).T
