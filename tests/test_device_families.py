"""Routing on device families beyond the five stock devices.

Square grids, small heavy-hex lattices and Sycamore-style diagonal
grids are built in ``conftest`` from their definitions.  On each, mixed
and CNOT-only circuits from random input mappings go through
``route_general`` and ``postprocess``, and both the package verifier
and the benchmark's outside checker must accept every result.  Every
Steiner tree routing grew there, and on the stock devices, must be a
tree with terminal leaves, which the growth proves and no longer checks
at run time, and its cache entry's stored weight and inner mask must
give the column bound ``conftest.entry_bound`` computes from the tree.
Routing builds only the trees it prices or reduces along; the check
builds the others through the same accessor.
Each graph's distance balls, and the hop counts read off them, must
match networkx's shortest paths, and its successor and ball tables the
Floyd-Warshall reference in ``conftest``.  A 600-node path, longer than
any stock device, must build within a memory bound and route, and the
stock devices' tree caches must stay within a memory bound per entry.
"""

import gc
import random
import tracemalloc

import networkx as nx
import pytest

from cnotroute.arch import ArchGraph, get_architecture, list_architectures
from cnotroute.bench import random_cnot_circuit
from cnotroute.circuit import Mapping
from cnotroute.gf2 import vec_support
from cnotroute.heuristic import _open_columns
from cnotroute.synthesis import (equivalence_failure, postprocess, route_cnot_block,
                                 route_general)

from conftest import (assert_tables_match_reference, ball_distances, check, diagonal_grid_graph,
                      entry_bound, grid_graph, heavy_hex_graph, random_connected_graph)
from test_arch import _check_tree_invariants
from test_pinned_output import mixed_circuit

FAMILIES = {
    "grid-2x5": lambda: grid_graph(2, 5),
    "grid-4x4": lambda: grid_graph(4, 4),
    "grid-5x5": lambda: grid_graph(5, 5),
    "grid-9x9": lambda: grid_graph(9, 9),  # node masks wider than 64 bits
    "heavy-hex-2x5": lambda: heavy_hex_graph(2, 5),
    "heavy-hex-3x5": lambda: heavy_hex_graph(3, 5),
    "diagonal-4x4": lambda: diagonal_grid_graph(4, 4),
    "diagonal-5x5": lambda: diagonal_grid_graph(5, 5),
    "diagonal-6x9": lambda: diagonal_grid_graph(6, 9),  # Sycamore's 54-qubit size
}


def _networkx(graph):
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n))
    ref.add_edges_from(graph.edges)
    return ref


def test_families_have_their_defining_shape():
    for build, rows, cols, girth, degree in ((heavy_hex_graph, 2, 5, 12, 3),
                                             (heavy_hex_graph, 3, 5, 12, 3),
                                             (diagonal_grid_graph, 4, 4, 4, 4),
                                             (diagonal_grid_graph, 6, 9, 4, 4)):
        ref = _networkx(build(rows, cols))
        assert nx.is_connected(ref) and nx.is_bipartite(ref)
        assert nx.girth(ref) == girth
        assert max(d for _, d in ref.degree()) == degree
    # heavy-hex 2x5: two hexagons sharing a side, so two degree-3
    # vertices; the other 8 vertices and the 11 edge nodes have degree 2
    hh = _networkx(heavy_hex_graph(2, 5))
    assert sorted(d for _, d in hh.degree()) == [2] * 19 + [3] * 2
    # diagonal grid 4x4: two corners of degree 1 and six interior nodes
    assert sorted(d for _, d in _networkx(diagonal_grid_graph(4, 4)).degree()) == \
        [1] * 2 + [2] * 8 + [4] * 6


@pytest.mark.parametrize("family", FAMILIES)
def test_routed_and_postprocessed_circuits_pass_both_verifiers(family):
    graph = FAMILIES[family]()
    rng = random.Random(family)
    # short blocks between one-qubit gates, then one long CNOT-only block
    circuits = [mixed_circuit(graph.n, 4 * graph.n, rng.randrange(10**6)) for _ in range(4)]
    circuits.append(random_cnot_circuit(graph.n, 2 * graph.n, rng.randrange(10**6)))
    for circuit in circuits:
        nodes = list(range(graph.n))
        rng.shuffle(nodes)
        routed = route_general(circuit, graph, Mapping(nodes))
        final = postprocess(routed)
        assert equivalence_failure(circuit, routed, graph) is None
        assert equivalence_failure(circuit, final, graph) is None
        assert check.routing_failure(circuit, routed, graph) is None
        assert check.postprocess_failure(routed, final, graph) is None
    _check_grown_trees(graph)


def _check_grown_trees(graph):
    """Every cached Steiner tree of ``graph`` is a tree with terminal leaves.

    Each entry's tree is built through the cache's ``tree``, whether
    routing built it or not.  The entry's weight and inner mask must give
    ``entry_bound`` through ``_open_columns`` with no unit row, with
    every terminal's row a unit vector, and with a random set of unit
    rows.
    """
    cache = graph._steiner
    assert cache
    rng = random.Random(graph.n)
    for mask, entry in cache.items():
        built = cache.tree(entry, mask)
        terminals = set(vec_support(mask))
        _check_tree_invariants(graph, built, terminals, max(terminals))
        for units in (0, mask, rng.getrandbits(graph.n)):
            rows = [(1 if units >> u & 1 else 3) << u for u in range(graph.n)]
            # inverse rows: the mask, then e_u for each unit-row node the
            # bound counts; at most n - 2, as the tree's leaves are not inner
            inverse = [mask] + [1 << u for u in vec_support(units & entry.inner)]
            sups = inverse + [0] * (graph.n - len(inverse))
            assert _open_columns(graph, sups) == \
                [(0, mask, entry_bound(rows, *built), entry)]


@pytest.mark.parametrize("name", list_architectures())
def test_every_tree_grown_on_a_stock_device_is_a_tree(name):
    graph, stock = get_architecture(name)
    for seed in range(3):
        route_general(random_cnot_circuit(graph.n, 8 * graph.n, seed), graph, Mapping(stock))
    _check_grown_trees(graph)


def _check_distances(graph):
    lengths = dict(nx.all_pairs_shortest_path_length(_networkx(graph)))
    assert ball_distances(graph) == [[lengths[s][t] for t in range(graph.n)]
                                     for s in range(graph.n)]
    whole = (1 << graph.n) - 1
    diameter = max(max(row.values()) for row in lengths.values())
    for t, balls in enumerate(graph.ball):
        assert len(balls) == diameter + 1
        for d, mask in enumerate(balls):
            assert mask == sum(1 << v for v, k in lengths[t].items() if k <= d)
        assert balls[-1] == whole


@pytest.mark.parametrize("family", FAMILIES)
def test_distances_and_balls_match_networkx(family):
    _check_distances(FAMILIES[family]())


def test_stock_and_random_graph_distances_match_networkx():
    for name in list_architectures():
        _check_distances(get_architecture(name)[0])
    rng = random.Random(8080)
    for _ in range(40):
        n = rng.randrange(1, 20)
        _check_distances(random_connected_graph(rng, n, extra=rng.randrange(n + 1)))


def _relabelled(rng, graph):
    """``graph`` with its node labels shuffled, edges listed in random order."""
    label = list(range(graph.n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    return ArchGraph(graph.n, edges)


def test_tables_match_floyd_warshall_on_devices_families_and_grids():
    rng = random.Random(2211)
    graphs = [get_architecture(name)[0] for name in list_architectures()]
    graphs += [build() for build in FAMILIES.values()]
    graphs += [grid_graph(rows, cols) for rows in range(1, 12) for cols in range(rows, 12, 2)]
    graphs.append(grid_graph(3, 17))
    for graph in graphs:
        assert_tables_match_reference(graph)
        assert_tables_match_reference(_relabelled(rng, graph))


def test_a_600_node_path_builds_in_under_32_mb_and_routes():
    # its tables hold 29.7 MB: 600 successor rows and 600 ball tuples of up
    # to 600 masks each; a 600 x 600 table of hop counts would add 6 MB
    n = 600
    tracemalloc.start()
    try:
        graph = ArchGraph(n, [(i, i + 1) for i in range(n - 1)])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32_000_000
    c = random_cnot_circuit(n, 8, 600)
    routed = route_cnot_block(c, graph, Mapping.identity(n))
    assert equivalence_failure(c, routed, graph) is None


def test_the_stock_tree_caches_hold_at_most_520_bytes_an_entry():
    # 50 routes of 16 CNOTs a device fill the five caches with about 6,850
    # entries, about two in three built; built in place in the growth list,
    # with Steiner masks, they hold 434-444 B an entry on Python 3.10-3.13,
    # and as a dict of tuples with a frozenset of Steiner points, 703 B
    graphs = [get_architecture(name) for name in list_architectures()]
    gc.collect()
    tracemalloc.start()
    try:
        for graph, stock in graphs:
            for seed in range(50):
                route_cnot_block(random_cnot_circuit(graph.n, 16, seed), graph, Mapping(stock))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(len(graph._steiner) for graph, _ in graphs)
    assert entries > 6000
    assert held <= 520 * entries, held / entries
