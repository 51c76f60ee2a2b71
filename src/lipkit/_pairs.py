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
    ones.  Only pair_blocks turns the rule into row blocks, for _sweep,
    max_slopes, the cover's near-pair pass (certify._doubled_balls_hold)
    and the one positive-distance walk of MetricSpace, on every ordered
    pair for nearest_positive; pair_tiles into square tiles of the pairs
    p < q, for max_slopes on one sorted axis (below); ball_sweep into
    the member rows of ball_members, many balls to a chunk;
  * one fold, _fold, reduces the values of the pair sources (_sweep,
    listed_max, ball_sweep, the near-pair pass) to worst pairs: the one
    place of the tie, NaN and no-pair-yet rules, under which the first
    pair wins a tie and a NaN beats any number, so it never hides behind
    a passing maximum;
  * one slope rule, _divide, which slope and max_slopes call: o / d,
    then `zero` where d == 0 and the gap is positive, and 0 at every
    other distance that is not positive, the diagonal included;
  * a value gap past the float range is inf, quietly, and a gap of
    equal infinities is NaN.

Values are aligned with ids, a sorted array of sample ids (every sample
when ids is None); pairs come back as sample ids.  listed_max reads an
explicit pair list instead, with the floats of space.dist.  Ids from a
caller (a pair list, a draw order, a point) pass the one id rule of
sample_ids.

max_slopes, which returns values only and so depends on no pair
order, skips work where it can.  One walk, _walk, reads either source:
on a space whose coordinates are one axis in non-decreasing order
(sorted_axis: a grid always, a 1-D cloud given sorted) the tiles of
pair_tiles, T = sqrt(_BLOCK / 4) samples a side, the diagonal band
first and then band by band outward, where the distances grow; on
every other space the row blocks of pair_blocks, none of which it
skips.  A row skips the tile (A, B) when

    bound = fl(fl(max(hi_A - lo_B, hi_B - lo_A)) / dmin)

is finite and at most the row's maximum so far, where hi and lo are
the row's extremes on each side and dmin > 0 is the tile's least
distance (a NaN or a diagonal tile's 0 never is).  Every pair (p, q)
of the tile has v_p - v_q <= hi_A - lo_B and v_q - v_p <= hi_B - lo_A
exactly; correctly rounded subtraction is monotone, and division is
monotone in the numerator and anti-monotone in a positive divisor
d >= dmin, so fl(|v_p - v_q| / d) <= bound and the tile cannot raise
the maximum.  A finite bound needs finite extremes, so a skipped tile
holds no NaN gap (no NaN value, no inf - inf).  The maximum is exact,
so the values are the row blocks' bit for bit (for a NaN's sign, see
max_slopes).  Tiles do not pay on other spaces: on a cloud, spatially
sorted tiles cost gathers and tiles in sample order skip little.

envelope is the one McShane scan: envelopes, draw bounds, ball tents,
closedness and d(., S), whose values -0.0 add to any d bit for bit.

Every reader of the distances reads pairwise() in the row blocks of
row_blocks, at most _BLOCK entries each, so none holds a second n x n
array or an |A| x n gather of its own; the ball readers hold member
lists, not boolean rows, about _BLOCK / 8 members at a time.
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
    step = max(1, _BLOCK // max(1, width))
    return [slice(a, min(a + step, stop)) for a in range(0, stop, step)]


def envelope(space, ids, values, scale, sign):
    """The McShane scan: max(values - scale d(x, ids)) for sign -1, or
    min(values + scale d(x, ids)) for sign +1, at every sample x, with
    values and scale scalars or aligned with ids.  The anchor rows
    d(., a) are read a row block of anchors at a time, as the tail
    updates of certify.random_k_extension read them, and its pending
    constraint one entry at a time: rows of D when the distances are
    exactly symmetric, of D.T otherwise; each block is
    scaled in place and reduced over its anchors.  A NaN wins, and a
    scaled distance or a sum past the float range is inf, quietly.

    Every value is bit for bit that of the column scan, which reduced
    D[r, ids] along its rows, row block r by row block.  max and min are
    exact, so only the bits of a NaN and the sign of a zero can depend
    on how numpy orders a reduction, and there on the block's shape: a
    row block holding a NaN result, or a zero one that may tie -0.0
    with +0.0, is read again as that scan read it.  Such a tie needs a
    -0.0 entry: values - s is -0.0 only for a -0.0 value, and values + s
    only for a -0.0 value and a -0.0 product s, which distances from
    coordinates (never negative or -0.0) and a scale without a sign
    bit never make."""
    D = space.pairwise()
    cols = D if space.exactly_symmetric() else D.T     # cols[a] = d(., a)
    pick, join = (np.maximum, np.subtract) if sign < 0 else (np.minimum, np.add)
    values = np.asarray(values, dtype=float)
    scale = np.asarray(scale, dtype=float)
    out = None
    with np.errstate(over="ignore"):    # past the float range: inf
        for r in row_blocks(len(ids), space.n):
            s = cols[ids[r]]
            s *= scale[r, None] if scale.ndim else scale
            join(values[r, None] if values.ndim else values, s, out=s)
            top = pick.reduce(s, axis=0)
            out = top if out is None else pick(out, top, out=out)
        again = np.isnan(out)
        if (sign < 0 or space.coords is None or np.signbit(scale).any()) and (
                np.signbit(values[values == 0]).any()):
            again |= out == 0
        if again.any():
            for r in row_blocks(space.n, len(ids)):
                redo = again[r]
                if redo.any():
                    s = D[r, ids]
                    s *= scale
                    out[r][redo] = pick.reduce(join(values, s, out=s),
                                               axis=1)[redo]
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


def pair_count(space, m):
    """How many pairs pair_blocks lays out for m samples, symmetric."""
    return m * (m - 1) // (2 if space.exactly_symmetric() else 1)


def tile_side():
    """The side T of the square tiles of pair_tiles: T^2 = _BLOCK / 4."""
    return max(1, math.isqrt(_BLOCK >> 2))


def sorted_axis(space):
    """Whether the space's coordinates are one axis in non-decreasing
    order, as a grid's always are: the spaces whose pairs pair_tiles
    lays out, so that a tile's samples lie close together."""
    x = space.coords
    return (x is not None and x.shape[1] == 1
            and bool((x[1:, 0] >= x[:-1, 0]).all()))


def pair_tiles(space):
    """The pair rule as square tiles (a, b, d): distances d from the
    samples a to the samples b, T = tile_side() of each, on exactly
    symmetric distances only.  The tiles cover the pairs p < q: the
    diagonal band of tiles a == b first, whose reader masks the
    diagonal, then b one tile further out, and so on, each band in row
    order; a pair p > q of a diagonal tile repeats the pair q < p."""
    D, T, n = space.pairwise(), tile_side(), space.n
    tiles = [slice(t, min(t + T, n)) for t in range(0, n, T)]
    for off in range(len(tiles)):
        for a, b in zip(tiles, tiles[off:]):
            yield a, b, D[a, b]


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
    _sweep: (x, (p, q)) for the worst pair (see _fold), or (-inf, None)
    for no pair."""
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
    best, pair = np.array([-math.inf]), np.full((1, 2), -1)
    _fold(e, 0, 0, P.__getitem__, best, pair)
    return float(best[0]), tuple(pair[0].tolist())


def _fold(e, starts, seg, pair_of, best, pairs):
    """Fold a chunk of values e into the running results best[seg[k]]
    and pairs[seg[k]] (none yet while pairs[seg[k], 0] < 0) of its
    segments e[starts[k]:starts[k + 1]], starts[0] = 0; pair_of maps
    chunk positions to the columns of pairs, and with seg one int, e is
    one segment.  The one place of the tie, NaN and no-pair-yet rules:
    a segment's first maximum, or first NaN (the numpy.argmax order),
    replaces a result that is none yet, smaller, or a number under a
    NaN."""
    if isinstance(seg, int):    # in Python scalars: numpy's are slow
        hit = int(e.argmax())
        x, old, none = float(e[hit]), float(best[seg]), int(pairs[seg, 0]) < 0
    else:
        top = np.maximum.reduceat(e, starts)    # a NaN wins
        same = e == np.repeat(top, np.append(starts[1:], len(e)) - starts)
        if np.isnan(top).any():
            same |= np.isnan(e)
        hit = np.flatnonzero(same)
        hit = hit[np.searchsorted(hit, starts)]     # each segment's first
        x, old, none = e[hit], best[seg], pairs[seg, 0] < 0
    take = none | (x > old) | ((x != x) & (old == old))     # x != x: a NaN
    if not isinstance(take, bool):  # the segments whose result changes
        seg, hit, x = seg[take], hit[take], x[take]
    elif not take:
        return
    best[seg], pairs[seg] = x, np.array(pair_of(hit)).T


def slope(o, d, zero, out=None):
    """o / d elementwise by the slope rule of _divide, into out when
    given (o itself may be out); a quotient past the float range is
    inf, quietly."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _divide(o, d, _not_positive(d), zero, out)


def _not_positive(d):
    """(flat positions of the entries of d that are not positive, which
    of them are 0), for _divide; max_slopes reads a block's once."""
    fix = np.flatnonzero(~(d > 0))
    return fix, d[np.unravel_index(fix, d.shape)] == 0


def _divide(o, d, fix, zero, out):
    """The one slope rule, under the caller's errstate: o / d for gaps
    o >= 0, into out (C-contiguous) or a new array.  Then each entry at
    fix = _not_positive(d) (None: none) is `zero` where d == 0 and o / 0
    is infinite, that is, the values differ, and 0 elsewhere: agreeing
    values, the diagonal, a negative or NaN distance (unvalidated data
    only).  A NaN gap over a positive distance stays NaN."""
    s = np.divide(o, d, out=out)
    if fix is not None:
        at, at_zero = fix
        flat = s.ravel()
        flat[at] = np.where(at_zero & np.isinf(flat[at]), zero, 0.0)
    return s


def _sweep(space, v, ids, value, symmetric, empty, per_row=False):
    """Largest value(r, c, d, o) over the pairs, where a block has row
    positions r, column positions c, distances d and value gaps
    o = |v_p - v_q|; o is a buffer the sweep refills for each block, so
    value may write its result into it.  Each block is one chunk of
    _fold, without its leading diagonal entry.  Returns (x, (p, q)),
    (empty, None) when there is no pair, or with per_row the array of
    row maxima (0.0 for a lone sample).

    symmetric declares value symmetric in (p, q) (see pair_blocks).  With
    mirror, masking the diagonal gives the ordered result, and row maxima
    fold each block into its rows and its columns; max is exact and a NaN
    wins either way, so they equal the ordered ones bit for bit."""
    m = len(v)
    if m < 2:
        return np.zeros(m) if per_row else (empty, None)
    rowmax, gaps = np.full(m, -math.inf), None
    best, pair = np.array([-math.inf]), np.full((1, 2), -1)
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
            else:   # leaving out the leading entry when it is diagonal
                k0, w = int(a == c.start), e.shape[1]
                _fold(e.ravel()[k0:], 0, 0, lambda k: (
                    a + (k + k0) // w, c.start + (k + k0) % w), best, pair)
            del e       # freed before the next block's values are made
    if per_row:
        return rowmax
    i, j = pair[0] if ids is None else ids[pair[0]]
    return float(best[0]), (int(i), int(j))


def worst_excess(space, v, cap, ids=None, num=None, symmetric=True):
    """Largest num(|v_p - v_q|) - cap over sample pairs, with its pair.

    cap(r, c, d, o) returns the cap of a block (see _sweep); num, when
    given, maps the value gaps o to the numerator.  symmetric declares
    the cap symmetric in (p, q), and the ordered result then comes from
    the pairs p < q on exactly symmetric distances; a row cap passes
    symmetric=False.  Returns (excess, (p, q)), or (-inf, None) when
    there is no pair.
    """
    def excess(r, c, d, o):     # o is the sweep's gap buffer: reused
        x = o if num is None else num(o)
        return np.subtract(x, cap(r, c, d, o), out=x)
    return _sweep(space, v, ids, excess, symmetric, -math.inf)


def max_slope(space, v, ids=None, zero=0.0, per_row=False):
    """Largest |v_p - v_q| / d(p, q) over ordered pairs p != q, with a
    distinct pair at distance zero sloped `zero` (see slope).  Returns
    (value, (p, q)), or (0.0, None) when there is no pair; with per_row,
    the array of each row's largest slope instead.  The slope is
    symmetric, so the sweep may read only the pairs p < q.
    """
    return _sweep(space, v, ids, lambda r, c, d, o: slope(o, d, zero, o),
                  True, 0.0, per_row)


def max_slopes(space, V, zero=0.0):
    """max_slope(space, row, zero=zero)[0] for every row of V, value
    only; zero >= 0.  _walk reads one axis of sorted coordinates in the
    tiles of pair_tiles and every other space in the row blocks of
    pair_blocks (see the module docstring), each distance block once
    for all rows.  A row's slopes come from slope's rule, _divide, so
    each value is max_slope's bit for bit, but for the sign of a NaN:
    inf / inf makes a negative one, and which NaN a reduction meets
    first depends on its order.  A NaN slope wins its row, and a row
    whose maximum is NaN is read again in the row blocks, as they read
    it.
    """
    V = np.asarray(V, dtype=float)
    rows, m = V.shape
    if m < 2:
        return np.zeros(rows)
    top = np.full(rows, -math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not sorted_axis(space):
            _walk(V, pair_blocks(space, m), zero, top)
            return top
        _walk(V, pair_tiles(space), zero, top, tile_side())
        nan = np.flatnonzero(np.isnan(top))
        if nan.size:
            again = np.full(nan.size, -math.inf)
            _walk(V[nan], pair_blocks(space, m), zero, again)
            top[nan] = again
    return top


def _walk(V, tiles, zero, top, T=None):
    """Fold into top each row's slopes over tiles (a, b, d, ...) of
    distances d from the samples a to the samples b, the first the
    widest.  Given the side T of pair_tiles, a row skips each tile whose
    bound (see the module docstring) is finite and at most its maximum
    so far; without T (row blocks), no tile is skipped."""
    if T:
        starts = np.arange(0, V.shape[1], T)
        hi = np.maximum.reduceat(V, starts, axis=1)     # a NaN wins
        lo = np.minimum.reduceat(V, starts, axis=1)
    scratch = None
    for a, b, d, *_ in tiles:
        if scratch is None:
            scratch = np.empty(d.size)
        s = scratch[:d.size].reshape(d.shape)
        need, fix = range(len(V)), None         # None: every d > 0
        if not (T and (dmin := d.min()) > 0):  # a diagonal tile's is 0
            fix = _not_positive(d)
        else:
            ta, tb = a.start // T, b.start // T
            bound = np.maximum(hi[:, ta] - lo[:, tb], hi[:, tb] - lo[:, ta])
            bound /= dmin
            need = np.flatnonzero(~((bound <= top) & (bound < math.inf)))
        for i in need:
            v = V[i]
            top[i] = np.maximum(top[i],
                                _block_max(v[a], v[b], d, fix, zero, s))


def _block_max(x, y, d, fix, zero, s):
    """Largest slope |x_p - y_q| / d[p, q] over one block, by _divide in
    the scratch s of d's shape, with fix = _not_positive(d) or None when
    every d > 0.  A NaN wins."""
    np.subtract(x[:, None], y[None, :], out=s)
    np.abs(s, out=s)
    return _divide(s, d, fix, zero, s).max()


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
    symmetric=True.  Each member has one row of pairs, and a chunk of
    about _BLOCK / 8 pairs, cut between rows, is a chunk of _fold with
    one segment per ball (see _sweep_group), so a ball with more pairs
    is never laid out whole.
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
    each reading w > 0 positions from lo, and fold them into each ball's
    result: a ball's rows are adjacent, one segment of _fold in order."""
    ends = np.cumsum(w)
    starts = ends - w
    pos = np.arange(ends[-1])
    pos += np.repeat(lo - starts, w)        # positions in s
    if not mirror:
        pos += pos >= np.repeat(at, w)      # skip the row's own member
    q = s[pos]
    p = s[at]
    d = space.pairwise().reshape(-1).take(np.repeat(p * space.n, w) + q)
    o = np.abs(np.repeat(v[p], w) - v[q])
    b = ball[at]
    e = value(d, o, np.repeat(b, w))
    # each ball's segment starts at its first row
    lead = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    _fold(e, starts[lead], b[lead], lambda k: (
        p[np.searchsorted(ends, k, side="right")], q[k]), best, pairs)
