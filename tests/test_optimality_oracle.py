"""Exhaustive small-device oracle: every invertible matrix against its optimum.

``tools/optimality_gaps.py`` holds the search: a breadth-first search
over row additions along edges, from every permutation state, gives each
matrix's fewest ADDs.  Here every matrix on path3 and the triangle is
also routed as a circuit, found by a breadth-first search over
unconstrained CNOTs from the identity, and both the routed and the
postprocessed circuit are checked by the package's verifier and by the
benchmark's outside checker.  Path4's gap histogram is pinned, so a
quality change that the seeded digest set misses still shows.
"""

from itertools import permutations

import pytest

from cnotroute.arch import ArchGraph
from cnotroute.circuit import Circuit, Mapping, cnot
from cnotroute.gf2 import BitMatrix, transpose
from cnotroute.synthesis import (equivalence_failure, linear_matrix, postprocess,
                                 route_cnot_block)

from conftest import check, load_file

gaps = load_file("optimality_gaps", "tools/optimality_gaps.py")


def _circuits(n: int) -> dict:
    """Matrix rows -> a shortest unconstrained CNOT list composing to them."""
    identity = tuple(1 << i for i in range(n))
    # CNOT(c, t) adds row c into row t
    found = gaps.search([identity], [(t, c) for c in range(n) for t in range(n) if c != t])
    out = {}
    for rows in found:
        gates = []
        state = rows
        while found[state][1] is not None:
            _, state, (t, c) = found[state]
            gates.append(cnot(c, t))
        gates.reverse()
        out[rows] = gates
    return out


@pytest.mark.parametrize("name, histogram", [("path3", {0: 138, 2: 30}),
                                             ("triangle", {0: 156, 1: 12})])
def test_every_small_matrix_routes_verified_and_never_below_optimum(name, histogram):
    n, edges = gaps.GRAPHS[name]
    graph = ArchGraph(n, edges)
    best = gaps.min_weights(n, edges)
    circuits = _circuits(n)
    assert len(circuits) == len(best) == 168
    for rows, gates in circuits.items():
        c = Circuit(n, gates)
        assert linear_matrix(gates, n).rows == list(rows)
        routed = route_cnot_block(c, graph, Mapping.identity(n))
        optimum = best[tuple(transpose(BitMatrix(n, list(rows))).rows)]
        assert routed.stats.cnots_routed >= optimum
        final = postprocess(routed)
        for result in (routed, final):
            assert equivalence_failure(c, result, graph) is None
            assert check.routing_failure(c, result, graph) is None
    assert gaps.gap_histogram(n, edges) == histogram


def test_minimum_on_the_triangle_is_the_shortest_circuit_up_to_permutation():
    """On a complete graph, reducing P's transpose to a permutation with the
    fewest ADDs is the same as the shortest CNOT list for P up to its output
    permutation, which the unconstrained search gives independently."""
    n, edges = gaps.GRAPHS["triangle"]
    best = gaps.min_weights(n, edges)
    lengths = {rows: len(gates) for rows, gates in _circuits(n).items()}
    for rows in lengths:
        shortest = min(lengths[tuple(rows[p] for p in perm)]
                       for perm in permutations(range(n)))
        assert best[tuple(transpose(BitMatrix(n, list(rows))).rows)] == shortest


def test_path4_gap_histogram_is_pinned():
    n, edges = gaps.GRAPHS["path4"]
    assert gaps.gap_histogram(n, edges) == {0: 6360, 1: 1944, 2: 5832, 3: 2616, 4: 960,
                                            5: 888, 6: 960, 7: 456, 8: 96, 9: 48}
