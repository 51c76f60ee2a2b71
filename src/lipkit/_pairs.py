"""The one exhaustive sweep over sample pairs behind every pair check.

Every check that compares values across sample pairs, an excess
num(|v_p - v_q|) - cap(p, q) or a slope |v_p - v_q| / d(p, q), reads
its pairs here, so the pair set, the tie rule and the NaN rule are
decided in one place:

  * one pair rule: a quantity symmetric in (p, q) reads the pairs
    p < q when the distances are exactly symmetric
    (MetricSpace.exactly_symmetric()), and every ordered pair p != q
    otherwise, as does any other quantity, such as a row cap.  Under
    exact symmetry the value at (i, j), i > j, equals the one at
    (j, i), first in row-major order, so value and pair are the ordered
    ones.  Only pair_blocks turns the rule into row blocks, for _sweep
    (worst_excess, max_slope), max_slopes, and the MetricSpace methods
    min_positive_distance and, on every ordered pair, nearest_positive;
    ball_sweep lays the same pairs out flat from the member lists of
    ball_members, one row per member, many balls to a chunk;
  * ties resolve to the first pair, in row-major order or in the order
    of a list, and NaN counts as larger than any number (the
    numpy.argmax order), so a NaN can never hide behind a passing
    maximum;
  * a value gap past the float range is inf, quietly, and a gap of
    equal infinities is NaN.

Values are aligned with ids, a sorted array of sample ids (every sample
when ids is None); pairs come back as sample ids.  listed_max reads an
explicit pair list instead, with the floats of space.dist.  Ids from a
caller (a pair list, a draw order, a point) pass the one id rule of
sample_ids.

envelope is the one McShane scan: envelopes, draw bounds, ball tents,
closedness and d(., S), whose values -0.0 add to any d bit for bit.

Every reader of the distances reads pairwise() in the row blocks of
row_blocks, at most _BLOCK entries each, so none holds a second n x n
array or an |A| x n gather of its own.  The ball readers keep member
lists instead of boolean rows, a group of about _BLOCK / 8 members at
a time, so no reader holds every member of many large balls at once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError

_BLOCK = 1 << 16    # entries per row block: 512 KB temporaries, kept in L2


def row_blocks(stop, width):
    """Slices a:b covering the rows 0..stop-1 in order, each holding at
    most _BLOCK entries of width columns (one row at least)."""
    step = max(1, _BLOCK // width)
    return [slice(a, min(a + step, stop)) for a in range(0, stop, step)]


def envelope(space, ids, values, scale, sign):
    """The McShane scan: max(values - scale d(x, ids)) for sign -1, or
    min(values + scale d(x, ids)) for sign +1, at every sample x, with
    values and scale scalars or aligned with ids.  D[r, ids] is gathered
    a row block at a time and scaled in place; a NaN wins its row."""
    out, D = np.empty(space.n), space.pairwise()
    pick, join = (np.maximum, np.subtract) if sign < 0 else (np.minimum, np.add)
    for r in row_blocks(space.n, len(ids)):
        s = D[r, ids]
        s *= scale
        pick.reduce(join(values, s, out=s), axis=1, out=out[r])
    return out


def pair_blocks(space, m, ids=None, symmetric=True):
    """The pair rule as blocks (r, c, d, mirror): distances d from row
    positions r to column positions c among the m samples ids (all when
    None).  mirror = symmetric and space.exactly_symmetric() starts the
    columns at the block's first row and skips the last row.  The
    reader masks the diagonal; the first block is the widest."""
    D = space.pairwise()
    mirror = symmetric and space.exactly_symmetric()
    for r in row_blocks(m - 1 if mirror else m, m):
        c = slice(r.start if mirror else 0, m)
        yield r, c, (D[r, c] if ids is None
                     else D[np.ix_(ids[r], ids[c])]), mirror


def first_bad_id(ids, n):
    """(position, why) of the first entry of the float array ids that is
    no integer in 0..n-1, or None.  When n is None the range is that of
    an int64, read on the floats: magnitude below 2^63."""
    whole = np.isfinite(ids) & (ids == np.floor(ids))
    inside = (np.abs(ids) < 2.0 ** 63 if n is None
              else (ids >= 0) & (ids < n))
    bad = ~whole | ~inside
    if bad.any():
        i = int(np.argmax(bad))
        return i, ("is not an integer" if not whole.flat[i]
                   else "lies outside the int64 range" if n is None
                   else f"lies outside 0..{n - 1}")


def sample_ids(ids, n, what, form=None, width=None):
    """ids as an int array, flat or, with width, reshaped to rows of width
    ids: the one rule that decides what a sample id is.  An InputError
    refuses any other list with the message form, and names (as what,
    with its position) the first entry that is no integer in 0..n-1,
    read as given: a bool, even among ints, is no integer."""
    given, ids = ids, np.asarray(ids)
    depth = ids.ndim
    if width:   # a list that does not split into rows stays refused
        ids = ids.reshape(-1, width) if ids.size % width == 0 else ids.ravel()
    if ids.ndim != (2 if width else 1) or (
            ids.size and ids.dtype.kind not in "biuf"):
        raise InputError(form or f"{what}s must be "
                         f"{f'rows of {width}' if width else 'a flat list of'} "
                         f"sample ids")
    items, bools = ids, ids.dtype.kind == "b"
    if not isinstance(given, np.ndarray):
        # a bool among ints is cast to 0 or 1: find one by type, entry by
        # entry only when there is one, to name the first
        flat = given
        for _ in range(depth - 1):
            flat = itertools.chain.from_iterable(flat)
        if not {bool, np.bool_}.isdisjoint(map(type, flat)):
            items = np.array(given, dtype=object).reshape(ids.shape)
            bools = np.reshape([type(x) in (bool, np.bool_)
                                for x in items.flat], ids.shape)
    bad = first_bad_id(np.where(bools, np.nan, ids), n)
    if bad:
        i, why = bad
        x = items.flat[i]
        x = x.item() if isinstance(x, np.generic) else x
        raise InputError(f"{what} {x!r} at position "
                         f"{divmod(i, width) if width else i} {why}")
    return ids.astype(int)


def unzip(rows, width):
    """The width columns of rows of width entries each, as tuples (empty
    ones for no rows); a ValueError refuses a row of another width."""
    columns = tuple(zip(*rows, strict=True)) or ((),) * width
    if len(columns) != width:
        raise ValueError(f"rows must have {width} entries")
    return columns


def sample_id(p, n) -> int:
    """One sample id p as an int, under the rule of sample_ids; an int
    of 0..n-1 (no bool) passes at once, for the one-id accessors."""
    if isinstance(p, (int, np.integer)) and not isinstance(p, bool) \
            and 0 <= p < n:
        return int(p)
    return int(sample_ids([p], n, "point")[0])


def listed_max(space, v, pairs, value):
    """Largest value(d, o) over a list of sample id pairs (p, q), checked
    by sample_ids, with d the float space.dist(p, q) returns, gathered
    at once without building a matrix, and gaps o = |v_p - v_q| as in
    _sweep: (x, (p, q)) for the first largest pair, a NaN beating every
    number, or (-inf, None) for no pair."""
    P = sample_ids(pairs, space.n, "pair id",
                   "pairs must be a list of (p, q) sample id pairs", width=2)
    if not len(P):
        return -math.inf, None
    p, q, x = P[:, 0], P[:, 1], space.coords
    with np.errstate(invalid="ignore", over="ignore"):
        # a space without coordinates holds its matrix; with them, as in
        # _coord_dist, the squares summed in axis order and then the root
        d = (space.pairwise()[p, q] if x is None
             else np.sqrt(sum(np.square(a[p] - a[q]) for a in x.T)))
        e = value(d, np.abs(v[p] - v[q]))
    k = int(np.argmax(e))
    return float(e[k]), (int(P[k, 0]), int(P[k, 1]))


def slope(o, d, zero):
    """o / d elementwise.  A pair at distance zero has slope `zero` when
    its values differ and 0 when they agree; a negative distance (only
    in unvalidated data) has slope 0, and so has a NaN distance; a NaN
    gap over a positive distance stays NaN, and a quotient beyond the
    float range is inf, quietly."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = o / d
    fix = ~(d > 0)
    if fix.any():
        s[fix] = np.where((d[fix] == 0) & (o[fix] > 0), zero, 0.0)
    return s


def _sweep(space, v, ids, value, symmetric, per_row=False):
    """Largest value(r, c, d, o) over the pairs, where a block has row
    positions r, column positions c, distances d and value gaps
    o = |v_p - v_q|.  Returns (x, (p, q)), None when there is no pair,
    or with per_row the array of row maxima (0.0 for a lone sample).

    symmetric declares value symmetric in (p, q) (see pair_blocks).  With
    mirror, masking the diagonal gives the ordered result, and row maxima
    fold each block into its rows and its columns; max is exact and a NaN
    wins either way, so they equal the ordered ones bit for bit."""
    m = len(v)
    if m < 2:
        return np.zeros(m) if per_row else None
    rowmax, best, gaps = np.full(m, -math.inf), None, None
    with np.errstate(invalid="ignore", over="ignore"):
        for r, c, d, mirror in pair_blocks(space, m, ids, symmetric):
            a = r.start
            if gaps is None:            # the first block is the widest
                gaps = np.empty(d.size)
            o = gaps[:d.size].reshape(d.shape)
            np.abs(np.subtract(v[r, None], v[None, c], out=o), out=o)
            e = value(r, c, d, o)
            np.fill_diagonal(e[:, a - c.start:], -math.inf)
            if per_row:
                np.maximum(rowmax[r], e.max(axis=1), out=rowmax[r])
                if mirror:
                    np.maximum(rowmax[c], e.max(axis=0), out=rowmax[c])
            else:
                k = int(np.argmax(e))
                if e.flat[k] == -math.inf:  # all -inf: the first valid pair
                    k = 1 if a == c.start else 0
                x = float(e.flat[k])
                if (best is None or x > best[0]
                        or (x != x and best[0] == best[0])):
                    best = (x, a + k // e.shape[1], c.start + k % e.shape[1])
            del e       # freed before the next block's values are made
    if per_row or best is None:
        return rowmax if per_row else None
    x, i, j = best
    if ids is not None:
        i, j = ids[i], ids[j]
    return x, (int(i), int(j))


def worst_excess(space, v, cap, ids=None, num=None, symmetric=True):
    """Largest num(|v_p - v_q|) - cap over sample pairs, with its pair.

    cap(r, c, d, o) returns the cap of a block (see _sweep); num, when
    given, maps the value gaps o to the numerator.  symmetric declares
    the cap symmetric in (p, q), and the ordered result then comes from
    the pairs p < q on exactly symmetric distances; a row cap passes
    symmetric=False.  Returns (excess, (p, q)), or (-inf, None) when
    there is no pair.
    """
    out = _sweep(space, v, ids, lambda r, c, d, o:
                 (o if num is None else num(o)) - cap(r, c, d, o), symmetric)
    return (-math.inf, None) if out is None else out


def max_slope(space, v, ids=None, zero=0.0, per_row=False):
    """Largest |v_p - v_q| / d(p, q) over ordered pairs p != q, with a
    distinct pair at distance zero sloped `zero` (see slope).  Returns
    (value, (p, q)), or (0.0, None) when there is no pair; with per_row,
    the array of each row's largest slope instead.  The slope is
    symmetric, so the sweep may read only the pairs p < q.
    """
    out = _sweep(space, v, ids, lambda r, c, d, o: slope(o, d, zero), True,
                 per_row)
    return (0.0, None) if out is None else out


def max_slopes(space, V, zero=0.0):
    """max_slope(space, row, zero=zero)[0] for every row of V, value
    only, from one pass over pair_blocks; zero >= 0.

    Each distance block and the positions of its entries that are not
    positive are read once for all rows.  A row's slopes come from the
    same IEEE operations as slope's, in one reused scratch block, so the
    values are bit-identical: the not-positive entries are patched
    afterwards, to `zero` where d == 0 and the quotient is infinite
    (the gap is positive) and to 0 elsewhere, so the diagonal reads 0.
    A NaN slope wins its row.
    """
    V = np.asarray(V, dtype=float)
    rows, m = V.shape
    if m < 2:
        return np.zeros(rows)
    top, scratch = np.full(rows, -math.inf), None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r, c, d, _ in pair_blocks(space, m):
            fix = np.flatnonzero(~(d > 0))
            at_zero = d.ravel()[fix] == 0
            if scratch is None:         # the first block is the widest
                scratch = np.empty(d.size)
            s = scratch[:d.size].reshape(d.shape)
            flat = s.ravel()
            for i, v in enumerate(V):
                np.subtract(v[r, None], v[None, c], out=s)
                np.abs(s, out=s)
                np.divide(s, d, out=s)
                flat[fix] = np.where(at_zero & np.isinf(flat[fix]), zero, 0.0)
                top[i] = np.maximum(top[i], s.max())    # a NaN stays
    return top


# ---------------------------------------------------------------------------
# Many small balls at once


def ball_members(space, centers, radii, inside=None):
    """The open balls B(centers[b], radii[b]), restricted to the samples
    where inside holds, as member lists: yields groups (ball, member, d)
    of ball indices, sample ids and the distances d(centers[ball],
    member), ball-major with ids ascending, the ids MetricSpace.ball
    returns.  The rows of D are compared a row block at a time; a group
    holds whole balls, at most _BLOCK / 8 members unless one row block
    alone has more, and empty balls are left out.  The arrays of a
    group are overwritten by the next one."""
    D, n = space.pairwise(), space.n
    cap = max(1, _BLOCK >> 3)
    ids, dist, count = np.empty((2, cap), dtype=int), np.empty(cap), 0
    for r in row_blocks(len(centers), n):
        rows = D[centers[r]]
        near = rows < radii[r, None]
        if inside is not None:
            near &= inside
        flat = np.flatnonzero(near)
        d = rows.ravel()[flat]
        del rows, near              # not held while a group is read
        k = len(flat)
        if count + k > cap and count:
            yield ids[0, :count], ids[1, :count], dist[:count]
            count = 0
        if k > cap:                 # a group of its own
            ball, member = np.divmod(flat, n)
            del flat
            ball += r.start
            yield ball, member, d
            continue
        at = slice(count, count + k)
        np.divmod(flat, n, out=(ids[0, at], ids[1, at]))
        ids[0, at] += r.start
        dist[at] = d
        count += k
    if count:
        yield ids[0, :count], ids[1, :count], dist[:count]


def ball_sweep(space, v, centers, radii, value, inside=None, each=None):
    """Largest value(d, o, seg) over the sample pairs of each open ball
    B(centers[b], radii[b]), restricted to the samples where inside
    holds, with its pair.  The pairs are laid out flat from the member
    lists of ball_members, with distances d, value gaps o = |v_p - v_q|
    and ball indices seg, and value must be symmetric in (p, q); each,
    when given, is called with every group (ball, member, d) of the
    gathering first, so that one gathering serves another reader too.

    Each ball's result is that of _sweep over its members with
    symmetric=True: pairs p < q on exactly symmetric distances, every
    ordered pair p != q otherwise; the first largest pair in row-major
    order, a NaN larger than any number, and the first pair when every
    value is -inf.  Each member has one row of pairs, and a chunk of
    about _BLOCK / 8 pairs, cut between rows, may span many balls (see
    _sweep_group), so a ball with more pairs is never laid out whole.
    Returns (x, pairs) with pairs[b] = (p, q) as sample ids; a ball with
    fewer than two samples gets -inf and (-1, -1).
    """
    best = np.full(len(centers), -math.inf)
    pairs = np.full((len(centers), 2), -1)
    mirror = space.exactly_symmetric()
    with np.errstate(invalid="ignore", over="ignore"):
        for ball, s, d in ball_members(space, centers, radii, inside):
            if each is not None:
                each(ball, s, d)
            _sweep_group(space, v, value, ball, s, mirror, best, pairs)
            del ball, s, d      # not held while the next group is gathered
    return best, pairs


def _sweep_group(space, v, value, ball, s, mirror, best, pairs):
    """Fold the pairs of a group of whole balls (see ball_members) into
    best and pairs: the rows of at most _BLOCK / 8 members at a time,
    in chunks of about _BLOCK / 8 pairs cut between rows."""
    step = max(1, _BLOCK >> 3)
    # bounds[k]:bounds[k + 1] are the positions in s of the group's k-th ball
    edge = np.flatnonzero(ball[1:] != ball[:-1]) + 1
    bounds = np.concatenate(([0], edge, [len(s)]))
    for g in range(0, len(s), step):
        at = np.arange(g, min(g + step, len(s)))
        run = np.searchsorted(edge, at, side="right")
        # the row of the member at position i reads the positions i+1:last
        # of its ball, or first:last but i without exact symmetry; rows
        # without pairs are dropped
        lo = at + 1 if mirror else bounds[run]
        width = bounds[run + 1] - lo - (not mirror)
        rows = np.flatnonzero(width)
        if not len(rows):
            continue
        at, lo, width = at[rows], lo[rows], width[rows]
        ends = np.cumsum(width)
        cuts = np.searchsorted(ends - width, np.arange(0, ends[-1], step))
        for r0, r1 in zip(cuts, np.append(cuts[1:], len(at))):
            if r0 < r1:
                _fold_rows(space, v, value, s, ball, at[r0:r1], lo[r0:r1],
                           width[r0:r1], mirror, best, pairs)


def _fold_rows(space, v, value, s, ball, at, lo, w, mirror, best, pairs):
    """Lay out the rows of pairs of the members at positions at of s,
    each reading w > 0 positions from lo, and fold their values into
    each ball's running result: a chunk's first maximum of a ball, or
    its first NaN, replaces a strictly smaller result or none.  Rows of
    one ball are adjacent and in order, so its pairs are one segment in
    row-major order."""
    ends = np.cumsum(w)
    starts = ends - w
    pos = np.arange(ends[-1])
    pos += np.repeat(lo - starts, w)        # positions in s
    if not mirror:
        pos += pos >= np.repeat(at, w)      # skip the row's own member
    q = s[pos]
    del pos
    p = s[at]
    idx = np.repeat(p * space.n, w)
    idx += q
    d = space.pairwise().reshape(-1).take(idx)
    del idx
    o = np.repeat(v[p], w)
    o -= v[q]
    np.abs(o, out=o)
    b = ball[at]
    e = value(d, o, np.repeat(b, w))
    del d, o
    # each ball's segment starts at its first row
    lead = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    b = b[lead]
    top = np.maximum.reduceat(e, starts[lead])      # NaN wins
    same = e == np.repeat(top, np.add.reduceat(w, lead))
    if np.isnan(top).any():
        same |= np.isnan(e)
    hit = np.flatnonzero(same)
    hit = hit[np.searchsorted(hit, starts[lead])]   # each ball's first hit
    x, old = e[hit], best[b]
    take = (pairs[b, 0] < 0) | (x > old) | (np.isnan(x) & ~np.isnan(old))
    b, hit = b[take], hit[take]
    best[b] = x[take]
    pairs[b, 0] = p[np.searchsorted(ends, hit, side="right")]
    pairs[b, 1] = q[hit]
