"""Architecture graphs, shortest paths, Steiner trees, and arch files."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.arch import (_GROW_CACHE_CAP, ArchFileError, ArchGraph,
                            DisconnectedGraphError, get_architecture,
                            list_architectures, parse_arch_json,
                            path_from_successors)
from cnotroute.circuit import one_qubit
from cnotroute.gf2 import BitMatrix
from cnotroute.rowgraph import _reduce_tracked

from conftest import (assert_tables_match_reference, bfs_distances,
                      floyd_warshall_with_path, grid_graph, grown_tree, op_parent,
                      random_connected_graph, rows_reducible_along, tree_parent)


def test_fw_simple_path():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    assert g.dist[0][2] == 2
    assert g.succ[0][2] == 1
    assert g.dist[2][0] == 2


def test_fw_four_cycle_opposite_corners():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = ArchGraph(4, edges)
    oracle = bfs_distances(4, edges)
    assert g.dist[0][2] == oracle[0][2] == 2
    assert g.dist[1][3] == 2
    # two shortest paths each: the hop is the one through the least node
    assert g.succ[0][2] == 1 and g.succ[2][0] == 1
    assert g.succ[1][3] == 0 and g.succ[3][1] == 0


def test_fw_diagonal():
    g = ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    for i in range(4):
        assert g.dist[i][i] == 0
        assert g.succ[i][i] == i


def test_fw_disconnected_names_pair():
    # j is the least node that 0 cannot reach
    for n, edges, j in ((4, [(0, 1), (2, 3)], 2), (5, [(0, 2), (1, 3), (2, 4)], 1),
                        (3, [(1, 2)], 1), (2, [], 1)):
        message = f"graph is disconnected: no path between 0 and {j}"
        with pytest.raises(DisconnectedGraphError) as raised:
            ArchGraph(n, edges)
        assert str(raised.value) == message
        with pytest.raises(DisconnectedGraphError) as reference:
            floyd_warshall_with_path(n, edges)
        assert str(reference.value) == message


def test_fw_matches_bfs_on_random_graphs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 31)
        g = random_connected_graph(rng, n, extra=rng.randrange(4))
        assert g.dist == bfs_distances(n, g.edges)
        for t in range(n):
            for d, ball in enumerate(g.ball[t]):
                assert ball == sum(1 << v for v in range(n) if g.dist[t][v] <= d)
            assert g.ball[t][-1] == (1 << n) - 1


def test_tables_match_floyd_warshall_on_random_graphs():
    rng = random.Random(2022)
    for _ in range(500):
        n = rng.randrange(1, 41)
        # a spanning tree on shuffled labels and up to 2n extra edges, so
        # many pairs have tied shortest paths
        assert_tables_match_reference(
            random_connected_graph(rng, n, extra=rng.randrange(2 * n + 1)))


@st.composite
def connected_graphs(draw):
    """A random spanning tree on shuffled labels plus random extra edges."""
    n = draw(st.integers(1, 14))
    order = draw(st.permutations(range(n)))
    edges = {frozenset((order[i], order[draw(st.integers(0, i - 1))])) for i in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {frozenset(p) for p in draw(st.lists(pairs, max_size=2 * n)) if p[0] != p[1]}
    return ArchGraph(n, [tuple(e) for e in edges])


@settings(max_examples=300, deadline=None, database=None)
@given(connected_graphs())
def test_tables_match_floyd_warshall_property(g):
    assert_tables_match_reference(g)


def test_path_from_successors_trivial():
    succ = ArchGraph(3, [(0, 1), (1, 2)]).succ
    assert path_from_successors(succ, 1, 1) == [1]
    assert path_from_successors(succ, 0, 2) == [0, 1, 2]


def test_path_endpoints_and_adjacency():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randrange(2, 20)
        g = random_connected_graph(rng, n)
        u, v = rng.randrange(n), rng.randrange(n)
        path = path_from_successors(g.succ, u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == g.dist[u][v] + 1
        for a, b in zip(path, path[1:]):
            assert g.is_edge(a, b)


def test_tree_cache_single_edge():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    tree, steiner = grown_tree(g, {0, 1})
    assert tree.keys() - steiner == {0, 1}
    assert tree_parent(tree, 0) == {1: 0}


def test_tree_cache_whole_path():
    g = ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    tree, steiner = grown_tree(g, {0, 1, 2, 3})
    assert tree.keys() - steiner == {0, 1, 2, 3}
    assert tree_parent(tree, 0) == {1: 0, 2: 1, 3: 2}


def test_tree_cache_single_terminal():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    tree, steiner = grown_tree(g, {1})
    assert tree == {1: ()} and steiner == frozenset()
    assert _reduce_tracked([1, 2, 4], tree, steiner, 1) == ((), set())


def test_steiner_cache_and_shared_neighbour_tuples_stay_bounded_on_a_star():
    # every set of two or more leaves gives the hub its own neighbour set,
    # up to 2**40 of them, and every leaf shares {hub}: the tuple table is
    # bounded only because the cache's clear empties it too
    g = ArchGraph(41, [(0, leaf) for leaf in range(1, 41)])
    rng = random.Random(41)
    masks = {}
    while len(masks) < _GROW_CACHE_CAP + 500:
        mask = rng.getrandbits(40) << 1
        if mask & (mask - 1):
            masks[mask] = None
    cache = g._steiner
    for mask in masks:
        entry = cache[mask]
        tree, steiner = cache.tree(entry, mask)
        assert steiner == {0} and entry.inner == 0
        assert tree[0] is cache.tuples[mask]
        assert len(cache) <= _GROW_CACHE_CAP
        assert len(cache.tuples) <= len(cache) + 1
    assert len(cache) == 500


@pytest.mark.parametrize("build", [
    lambda: ArchGraph(2.0, [(0, 1)]),
    lambda: ArchGraph(True, []),
    lambda: ArchGraph(3, [(0, 1.0), (1, 2)]),
    lambda: ArchGraph(3, [(0, True), (1, 2)]),
    lambda: BitMatrix(2, [1.0, 2]),
    lambda: BitMatrix(2, [True, 2]),
    lambda: BitMatrix(2.0, [1, 2]),
    lambda: BitMatrix(True, [1]),
    lambda: one_qubit(5, 0),
], ids=["count float", "count bool", "edge float", "edge bool", "row float", "row bool",
        "matrix size float", "matrix size bool", "label int"])
def test_a_node_count_edge_terminal_mask_or_row_that_is_not_an_int_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def _min_steiner_vertices(g, terminals):
    """Exhaustive minimum Steiner tree size by trying every extra set."""
    others = sorted(set(range(g.n)) - set(terminals))
    adj = {x: set() for x in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(len(terminals), g.n + 1):
        for extra in combinations(others, size - len(terminals)):
            nodes = set(terminals) | set(extra)
            # connected subgraph check by BFS inside `nodes`
            start = next(iter(nodes))
            seen = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in adj[x]:
                    if y in nodes and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if seen == nodes:
                return size
    raise AssertionError("graph disconnected")


def test_tree_cache_grid_close_to_optimal(grid4):
    # Q2, Q6, Q9, Q11 on the 4x4 grid, rooted at Q2 (0-based: 1, 5, 8, 10).
    terminals = {1, 5, 8, 10}
    tree, _ = grown_tree(grid4, terminals)
    best = _min_steiner_vertices(grid4, terminals)
    assert best == 5
    assert len(tree) <= best + 2


def _check_tree_invariants(g, tree, steiner, terminals, root):
    assert tree.keys() - steiner == terminals
    parent = tree_parent(tree, root)
    assert parent.keys() | {root} == tree.keys()
    # connected with one edge fewer than nodes: a tree, on architecture edges
    edges = {(min(a, b), max(a, b)) for a, nbs in tree.items() for b in nbs}
    assert len(edges) == len(tree) - 1
    for a, b in edges:
        assert g.is_edge(a, b)
    # pruning: every leaf is a terminal
    for v, nbs in tree.items():
        if len(nbs) <= 1:
            assert v in terminals
    # one op per tree edge, child to parent, leaving the root a unit vector
    rows = rows_reducible_along([1 << i for i in range(g.n)], terminals)
    ops, _ = _reduce_tracked(rows, tree, steiner, root)
    assert len(ops) == len(edges)
    assert op_parent(ops) == parent
    assert rows[root] == 1


def test_tree_cache_invariants_random():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(2, 21)
        g = random_connected_graph(rng, n, extra=rng.randrange(5))
        k = rng.randrange(1, n + 1)
        terminals = set(rng.sample(range(n), k))
        root = rng.choice(sorted(terminals))
        tree, steiner = grown_tree(g, terminals)
        _check_tree_invariants(g, tree, steiner, terminals, root)


def test_reduction_tree_schedule_shape():
    # R - S - T path with S a Steiner point: swap then add.
    tree = {0: (1,), 1: (0, 2), 2: (1,)}
    ops, _ = _reduce_tracked([0b101, 0b010, 0b100], tree, frozenset({1}), 0)
    assert ops == (("SWAP", 2, 1), ("ADD", 0, 1))
    assert sum(3 if kind == "SWAP" else 1 for kind, _, _ in ops) == 4


def test_arch_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        ArchGraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        ArchGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(DisconnectedGraphError):
        ArchGraph(3, [(0, 1)])


def test_parse_arch_json_roundtrip():
    doc = {
        "name": "toy",
        "nodes": ["A", "B", "C"],
        "edges": [["A", "B"], ["B", "C"]],
        "initial_mapping": [["w1", "B"], ["w2", "A"], ["w3", "C"]],
    }
    g, mapping = parse_arch_json(json.dumps(doc))
    assert g.n == 3 and g.is_edge(0, 1) and g.is_edge(1, 2)
    assert mapping == [1, 0, 2]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("nodes"), "missing field"),
    (lambda d: d["edges"].append(["A", "Z"]), "unknown node"),
    (lambda d: d["edges"].append(["A", "B"]), "duplicate"),
    (lambda d: d.__setitem__("edges", [["A", "B"]]), "disconnected"),
    (lambda d: d["initial_mapping"].__setitem__(0, ["w2", "B"]), "mapped twice"),
])
def test_parse_arch_json_rejects(mutate, message):
    doc = {
        "name": "toy",
        "nodes": ["A", "B", "C"],
        "edges": [["A", "B"], ["B", "C"]],
        "initial_mapping": [["w1", "B"], ["w2", "A"], ["w3", "C"]],
    }
    mutate(doc)
    with pytest.raises(ArchFileError, match=message):
        parse_arch_json(json.dumps(doc))


def test_registry_contents():
    assert list_architectures() == ("9-square", "16-square", "ibm-qx5",
                                    "rigetti-16q-aspen", "ibm-q20-tokyo")
    expected = {
        "9-square": (9, 12),
        "16-square": (16, 24),
        "ibm-qx5": (16, 22),
        "rigetti-16q-aspen": (16, 18),
        "ibm-q20-tokyo": (20, 43),
    }
    for name, (n, n_edges) in expected.items():
        g, mapping = get_architecture(name)
        assert g.n == n
        assert len(g.edges) == n_edges
        assert sorted(mapping) == list(range(n))


def test_registry_stock_mappings():
    g, mapping = get_architecture("9-square")
    # middle row is reversed: w4 -> Q6, w5 -> Q5, w6 -> Q4
    assert [g.names[mapping[w]] for w in range(9)] == \
        ["Q1", "Q2", "Q3", "Q6", "Q5", "Q4", "Q7", "Q8", "Q9"]
    g16, m16 = get_architecture("16-square")
    assert [g16.names[m16[w]] for w in (4, 5, 6, 7)] == ["Q8", "Q7", "Q6", "Q5"]
    assert [g16.names[m16[w]] for w in (12, 13, 14, 15)] == ["Q16", "Q15", "Q14", "Q13"]
    for name in ("ibm-qx5", "rigetti-16q-aspen", "ibm-q20-tokyo"):
        g, mapping = get_architecture(name)
        assert mapping == list(range(g.n))


def test_grid_helper_matches_registry():
    g9, _ = get_architecture("9-square")
    assert grid_graph(3, 3).edges == g9.edges
    g16, _ = get_architecture("16-square")
    assert grid_graph(4, 4).edges == g16.edges


@settings(max_examples=200, deadline=None, database=None)
@given(connected_graphs())
def test_is_edge_equals_edge_set_membership_on_and_off_the_nodes(g):
    """``is_edge`` reads the distance table; -1 and n must not index into it
    (``dist[-1]`` would wrap around to node n - 1)."""
    nodes = range(-1, g.n + 1)
    for u in nodes:
        for v in nodes:
            assert g.is_edge(u, v) == ((min(u, v), max(u, v)) in g.edges), (u, v)
