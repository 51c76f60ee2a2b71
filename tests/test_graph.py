"""The graph backend: its input rules, and its shortest paths against
scipy's Dijkstra as an oracle when scipy is installed."""

import heapq
from unittest import mock

import numpy as np
import pytest

from lipkit import InputError, MetricSpace
from lipkit import metric_space


def test_repeated_copies_of_an_ordered_edge_are_summed():
    space = MetricSpace.from_graph(2, [[0, 1, 1.0], [0, 1, 1.0]])
    assert space.dist(0, 1) == 2.0 == space.dist(1, 0)
    # in input order: (1 + 2^-53) + 2^-53 rounds to 1 both times
    tiny = 2.0 ** -53
    space = MetricSpace.from_graph(2, [(0, 1, 1.0), (0, 1, tiny), (0, 1, tiny)])
    assert space.dist(0, 1) == 1.0


def test_an_edge_given_in_both_directions_weighs_the_lighter():
    for edges in ([(0, 1, 3.0), (1, 0, 2.0)], [(1, 0, 2.0), (0, 1, 3.0)]):
        space = MetricSpace.from_graph(2, edges)
        assert space.dist(0, 1) == 2.0 == space.dist(1, 0)


def test_a_self_loop_changes_nothing():
    edges = [(0, 1, 2.0), (1, 2, 3.0)]
    plain = MetricSpace.from_graph(3, edges).pairwise()
    looped = MetricSpace.from_graph(3, edges + [(1, 1, 0.5), (2, 2, 9.0)])
    assert np.array_equal(looped.pairwise(), plain)
    assert MetricSpace.from_graph(1, [(0, 0, 1.0)]).pairwise().tolist() == [[0.0]]


@pytest.mark.parametrize("n, edges, pair", [
    (4, [(0, 1, 1.0), (3, 2, 1.0)], (0, 2)),
    (4, [(0, 2, 1.0), (1, 3, 1.0)], (0, 1)),
    (3, [(1, 2, 1.0)], (0, 1)),
    (2, [(1, 1, 1.0)], (0, 1)),
])
def test_a_disconnected_graph_names_the_first_pair_in_row_major_order(n, edges, pair):
    msg = f"^graph is disconnected: no path between {pair[0]} and {pair[1]}$"
    with pytest.raises(InputError, match=msg):
        MetricSpace.from_graph(n, edges)


# ---- Dijkstra as the oracle: scipy's, and a heap loop that needs no scipy --

def _heap_dijkstra(n, edges):
    """One heap Dijkstra per source, under from_graph's input rules."""
    ordered = {}
    for u, v, w in edges:
        if u != v:
            ordered[u, v] = ordered.get((u, v), 0.0) + float(w)
    arcs = [dict() for _ in range(n)]
    for (u, v), w in ordered.items():
        for a, b in ((u, v), (v, u)):
            arcs[a][b] = min(w, arcs[a].get(b, np.inf))
    D = np.full((n, n), np.inf)
    for s in range(n):
        heap, row = [(0.0, s)], D[s]
        row[s] = 0.0
        while heap:
            d, k = heapq.heappop(heap)
            if d > row[k]:
                continue
            for j, w in arcs[k].items():
                if d + w < row[j]:
                    row[j] = d + w
                    heapq.heappush(heap, (row[j], j))
    return D


def _columns(edges):
    return zip(*edges) if edges else ((), (), ())


def _dijkstra(n, edges):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    u, v, w = _columns(edges)
    g = sparse.csr_matrix((np.array(w, dtype=float), (u, v)), shape=(n, n))
    return csgraph.shortest_path(g, method="D", directed=False)


def _paths(n, edges):
    return metric_space._shortest_paths(n, *_columns(edges))


def _assert_bit_identical(n, edges):
    want = _dijkstra(n, edges)
    got = _paths(n, edges)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if np.isfinite(want).all():
        space = MetricSpace.from_graph(n, edges, validate=False)
        assert space.pairwise().tobytes() == want.tobytes()


def _random_graph(rng, n, connected=True):
    """Edges with repeats, both directions, self-loops and, with small
    integer weights, tied path lengths.  An ordered edge repeats at most
    once: csr sums three or more copies in the order of an unstable sort,
    while lipkit sums them in input order."""
    ties = bool(rng.integers(2))

    def weight():
        return float(rng.integers(1, 4)) if ties else float(rng.uniform(0.05, 3.0))

    edges = []
    if connected:
        order = rng.permutation(n)
        edges += [(int(a), int(b), weight()) for a, b in zip(order, order[1:])]
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        edges.append((int(rng.integers(n)), int(rng.integers(n)), weight()))
    seen, out = set(), []
    for u, v, w in edges:
        if (u, v) in seen:
            continue
        seen.add((u, v))
        out.append((u, v, w))
        roll = rng.random()
        if roll < 0.2:
            out.append((u, v, weight()))            # a repeated ordered edge
        elif roll < 0.4 and (v, u) not in seen:
            seen.add((v, u))
            out.append((v, u, weight()))            # the other direction
        elif roll < 0.5:
            out.append((u, u, weight()))            # a self-loop
    rng.shuffle(out)
    return [tuple(e) for e in out]


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_dijkstra(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    _assert_bit_identical(n, _random_graph(rng, n, connected=seed % 4 != 3))


def test_random_graphs_match_a_heap_dijkstra():
    # runs without scipy; three copies of an edge are summed in input order
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(1, 30))
        edges = _random_graph(rng, n, connected=bool(rng.integers(2)))
        edges += edges[:3]
        assert _paths(n, edges).tobytes() == _heap_dijkstra(n, edges).tobytes()


def test_a_one_node_graph_matches_dijkstra():
    _assert_bit_identical(1, [])
    _assert_bit_identical(1, [(0, 0, 2.5)])


def test_a_long_path_matches_dijkstra():
    # one hop per round; uneven weights sum differently from each end
    n = 300
    rng = np.random.default_rng(7)
    for w in (np.full(n - 1, 0.1), rng.uniform(0.01, 1.0, n - 1)):
        _assert_bit_identical(n, [(i, i + 1, float(w[i])) for i in range(n - 1)])


def test_each_source_sums_its_path_left_to_right():
    # 0.1 + 0.2 + 0.3 from one end, 0.3 + 0.2 + 0.1 from the other
    D = metric_space._shortest_paths(4, [0, 1, 2], [1, 2, 3], [0.1, 0.2, 0.3])
    assert D[0, 3] == 0.6000000000000001 and D[3, 0] == 0.6


@pytest.mark.parametrize("chunk, block", [(1, 1), (2, 30), (5, 1 << 17)])
def test_chunk_and_slab_cuts_match_dijkstra(chunk, block):
    # the hub's 11 arcs outnumber a chunk, so it is expanded in one alone
    rng = np.random.default_rng(chunk)
    with mock.patch.object(metric_space, "_RELAX_CHUNK", chunk), \
            mock.patch.object(metric_space, "_FRONT_BLOCK", block):
        for _ in range(5):
            n = int(rng.integers(2, 25))
            _assert_bit_identical(n, _random_graph(rng, n))
        _assert_bit_identical(12, [(0, j, 1.0 + j / 7) for j in range(1, 12)])
