"""Routing on device families beyond the five stock devices.

Square grids, small heavy-hex lattices and Sycamore-style diagonal
grids are built in ``conftest`` from their definitions.  On each, mixed
and CNOT-only circuits from random input mappings go through
``route_general`` and ``postprocess``, and both the package verifier
and the benchmark's outside checker must accept every result.  Every
Steiner tree routing grew there, and on the stock devices, must be a
tree with terminal leaves, which the growth proves and no longer checks
at run time.  Each graph's distance table and distance balls must match
networkx's shortest paths.
"""

import random

import networkx as nx
import pytest

from cnotroute.arch import get_architecture, list_architectures
from cnotroute.bench import random_cnot_circuit
from cnotroute.circuit import Mapping
from cnotroute.gf2 import vec_support
from cnotroute.synthesis import equivalence_failure, postprocess, route_general

from conftest import (check, diagonal_grid_graph, grid_graph, heavy_hex_graph,
                      random_connected_graph)
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
    """Every cached Steiner tree of ``graph`` is a tree with terminal leaves."""
    assert graph._steiner_cache
    for mask, (tree, steiner) in graph._steiner_cache.items():
        terminals = set(vec_support(mask))
        _check_tree_invariants(graph, tree, steiner, terminals, max(terminals))


@pytest.mark.parametrize("name", list_architectures())
def test_every_tree_grown_on_a_stock_device_is_a_tree(name):
    graph, stock = get_architecture(name)
    for seed in range(3):
        route_general(random_cnot_circuit(graph.n, 8 * graph.n, seed), graph, Mapping(stock))
    _check_grown_trees(graph)


def _check_distances(graph):
    lengths = dict(nx.all_pairs_shortest_path_length(_networkx(graph)))
    assert graph.dist == [[lengths[s][t] for t in range(graph.n)]
                          for s in range(graph.n)]
    whole = (1 << graph.n) - 1
    for t, balls in enumerate(graph.ball):
        assert len(balls) == max(map(max, graph.dist)) + 1
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
