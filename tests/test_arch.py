"""Architecture graphs, shortest paths, Steiner trees, and arch files."""

import json
import random
from itertools import combinations

import pytest

from cnotroute.arch import (_GROW_CACHE_CAP, ArchFileError, ArchGraph,
                            DisconnectedGraphError, floyd_warshall_with_path,
                            gen_steiner, get_architecture, list_architectures,
                            parse_arch_json, path_from_successors,
                            steiner_entry)
from cnotroute.circuit import one_qubit
from cnotroute.gf2 import BitMatrix
from cnotroute.rowgraph import tree_reduce_tracked

from conftest import (bfs_distances, grid_graph, op_parent,
                      random_connected_graph, rows_reducible_along, tree_parent)


def test_fw_simple_path():
    dist, succ = floyd_warshall_with_path(3, [(0, 1), (1, 2)])
    assert dist[0][2] == 2
    assert succ[0][2] == 1
    assert dist[2][0] == 2


def test_fw_four_cycle_opposite_corners():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    dist, _ = floyd_warshall_with_path(4, edges)
    oracle = bfs_distances(4, edges)
    assert dist[0][2] == oracle[0][2] == 2
    assert dist[1][3] == 2


def test_fw_diagonal():
    dist, succ = floyd_warshall_with_path(4, [(0, 1), (1, 2), (2, 3)])
    for i in range(4):
        assert dist[i][i] == 0
        assert succ[i][i] == i


def test_fw_disconnected_names_pair():
    with pytest.raises(DisconnectedGraphError, match="no path between"):
        floyd_warshall_with_path(4, [(0, 1), (2, 3)])


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


def test_path_from_successors_trivial():
    _, succ = floyd_warshall_with_path(3, [(0, 1), (1, 2)])
    assert path_from_successors(succ, 1, 1) == [1]
    assert path_from_successors(succ, 0, 2) == [0, 1, 2]


def test_path_from_successors_null_entry():
    succ = [[0, None], [None, 1]]
    assert path_from_successors(succ, 0, 1) == []


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


def test_gen_steiner_single_edge():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    tree, steiner = gen_steiner(g, {0, 1})
    assert tree.keys() - steiner == {0, 1}
    assert tree_parent(tree, 0) == {1: 0}


def test_gen_steiner_whole_path():
    g = ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    tree, steiner = gen_steiner(g, {0, 1, 2, 3})
    assert tree.keys() - steiner == {0, 1, 2, 3}
    assert tree_parent(tree, 0) == {1: 0, 2: 1, 3: 2}


def test_gen_steiner_root_must_be_terminal():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    rows = [0b011, 0b010, 0b100]  # rows 0 and 1 XOR to e0
    with pytest.raises(ValueError):
        tree_reduce_tracked(rows, *gen_steiner(g, {0, 1}), 2)
    assert rows == [0b011, 0b010, 0b100]


def test_gen_steiner_single_terminal():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    tree, steiner = gen_steiner(g, {1})
    assert tree == {1: ()} and steiner == frozenset()
    assert tree_reduce_tracked([1, 2, 4], tree, steiner, 1) == ((), set())


@pytest.mark.parametrize("terminals", [(), [3], [0, -1], [-1]])
def test_gen_steiner_rejects_empty_or_foreign_terminals(terminals):
    g = ArchGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"nodes 0\.\.2"):
        gen_steiner(g, terminals)


@pytest.mark.parametrize("mask", [-1, 0, 8, 9])
def test_steiner_entry_rejects_a_mask_off_the_nodes(mask):
    g = ArchGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not a non-empty set of 3 nodes"):
        steiner_entry(g, mask)
    assert mask not in g._steiner_cache


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
    for mask in masks:
        tree, steiner = steiner_entry(g, mask)
        assert steiner == {0}
        assert tree[0] is g._supports[mask]
        assert len(g._steiner_cache) <= _GROW_CACHE_CAP
        assert len(g._supports) <= len(g._steiner_cache) + 1
    assert len(g._steiner_cache) == 500


PATH3 = [(0, 1), (1, 2)]


@pytest.mark.parametrize("build", [
    lambda: ArchGraph(2.0, [(0, 1)]),
    lambda: ArchGraph(True, []),
    lambda: ArchGraph(3, [(0, 1.0), (1, 2)]),
    lambda: ArchGraph(3, [(0, True), (1, 2)]),
    lambda: gen_steiner(ArchGraph(3, PATH3), [0, 2.0]),
    lambda: gen_steiner(ArchGraph(3, PATH3), [0, True]),
    lambda: steiner_entry(ArchGraph(3, PATH3), 5.0),
    lambda: steiner_entry(ArchGraph(3, PATH3), True),
    lambda: BitMatrix(2, [1.0, 2]),
    lambda: BitMatrix(2, [True, 2]),
    lambda: BitMatrix(2.0, [1, 2]),
    lambda: BitMatrix(True, [1]),
    lambda: one_qubit(5, 0),
], ids=["count float", "count bool", "edge float", "edge bool", "terminal float",
        "terminal bool", "mask float", "mask bool", "row float", "row bool",
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


def test_gen_steiner_grid_close_to_optimal(grid4):
    # Q2, Q6, Q9, Q11 on the 4x4 grid, rooted at Q2 (0-based: 1, 5, 8, 10).
    terminals = {1, 5, 8, 10}
    tree, _ = gen_steiner(grid4, terminals)
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
    ops, _ = tree_reduce_tracked(rows, tree, steiner, root)
    assert len(ops) == len(edges)
    assert op_parent(ops) == parent
    assert rows[root] == 1


def test_gen_steiner_invariants_random():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(2, 21)
        g = random_connected_graph(rng, n, extra=rng.randrange(5))
        k = rng.randrange(1, n + 1)
        terminals = set(rng.sample(range(n), k))
        root = rng.choice(sorted(terminals))
        tree, steiner = gen_steiner(g, terminals)
        _check_tree_invariants(g, tree, steiner, terminals, root)


def test_reduction_tree_schedule_shape():
    # R - S - T path with S a Steiner point: swap then add.
    tree = {0: (1,), 1: (0, 2), 2: (1,)}
    ops, _ = tree_reduce_tracked([0b101, 0b010, 0b100], tree, frozenset({1}), 0)
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
