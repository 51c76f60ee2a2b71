"""The one exhaustive sweep over sample pairs behind every pair check.

Every check that compares values across sample pairs, an excess
num(|v_p - v_q|) - cap(p, q) or a slope |v_p - v_q| / d(p, q), runs
through the row-blocked sweep here over space.pairwise(), so the pair
set, the tie rule and the NaN rule are decided in one place:

  * only off-diagonal pairs are visited: p < q when the quantity is
    symmetric (upper=True), every ordered pair p != q otherwise;
  * ties resolve to the lexicographically first pair, and NaN counts
    as larger than any number (the numpy.argmax order), so a NaN can
    never hide behind a passing maximum.

Values are aligned with ids, a sorted array of sample ids (every sample
when ids is None); pairs come back as sample ids.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 18        # entries per row block; bounds the temporaries


def slope(o, d, zero):
    """o / d elementwise.  A pair at distance zero has slope `zero` when
    its values differ and 0 when they agree; a negative distance (only
    in unvalidated data) has slope 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(d > 0, o / np.where(d > 0, d, 1.0), 0.0)
    if zero:
        s[(d == 0) & (o > 0)] = zero
    return s


def _sweep(space, v, ids, upper, value, per_row=False):
    """Largest value(r, c, d, o) over the pairs, where a block has row
    positions r, column positions c, distances d and value gaps
    o = |v_p - v_q|.  Returns (x, (p, q)), None when there is no pair,
    or with per_row the array of row maxima (0.0 for a lone sample)."""
    m = len(v)
    rowmax, best = np.zeros(m), None
    if m < 2:
        return rowmax if per_row else None
    D = space.pairwise()
    step = max(1, _BLOCK // m)
    for a in range(0, m - 1 if upper else m, step):
        r, c = slice(a, min(a + step, m)), slice(a + 1 if upper else 0, m)
        d = D[r, c] if ids is None else D[np.ix_(ids[r], ids[c])]
        e = value(r, c, d, np.abs(v[r, None] - v[None, c]))
        if upper:
            e[np.tri(*e.shape, -1, dtype=bool)] = -math.inf
        else:
            np.fill_diagonal(e[:, a:], -math.inf)
        if per_row:
            rowmax[r] = e.max(axis=1)
            continue
        k = int(np.argmax(e))
        if e.flat[k] == -math.inf:      # all -inf: the first valid pair
            k = 1 if (a == 0 and not upper) else 0
        x = float(e.flat[k])
        if best is None or x > best[0] or (x != x and best[0] == best[0]):
            best = (x, a + k // e.shape[1], c.start + k % e.shape[1])
    if per_row or best is None:
        return rowmax if per_row else None
    x, i, j = best
    if ids is not None:
        i, j = ids[i], ids[j]
    return x, (int(i), int(j))


def worst_excess(space, v, cap, ids=None, num=None, upper=True):
    """Largest num(|v_p - v_q|) - cap over sample pairs, with its pair.

    cap(r, c, d, o) returns the cap of a block (see _sweep); num, when
    given, maps the value gaps o to the numerator.  Returns
    (excess, (p, q)), or (-inf, None) when there is no pair.
    """
    out = _sweep(space, v, ids, upper, lambda r, c, d, o:
                 (o if num is None else num(o)) - cap(r, c, d, o))
    return (-math.inf, None) if out is None else out


def max_slope(space, v, ids=None, zero=0.0, per_row=False):
    """Largest |v_p - v_q| / d(p, q) over ordered pairs p != q, with a
    distinct pair at distance zero sloped `zero` (see slope).  Returns
    (value, (p, q)), or (0.0, None) when there is no pair; with per_row,
    the array of each row's largest slope instead.
    """
    out = _sweep(space, v, ids, False, lambda r, c, d, o: slope(o, d, zero),
                 per_row)
    return (0.0, None) if out is None else out
