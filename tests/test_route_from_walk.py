"""Each routed block is composed once, and the synthesizer starts from that walk.

``route_cnot_block`` composes its gates in one ``synthesis._stops`` walk
and hands the synthesizer's loop the walk's columns of P^-1 as the rows
of (P^T)^-1, where ``heuristic_token_reduction`` inverts P^T itself.
The walk's columns must equal that inverse, and the routed ops the ops
``heuristic_token_reduction`` runs on the same rows.  The synthesizer
reduces and recovers through ``rowgraph``'s ``_reduce_tracked`` and
``_recover``: at every root of grown trees, on graphs of up to 14 nodes
and of over 64, the schedule ``_order`` builds must be the BFS reference
schedule, the reduction must run exactly that schedule, and recovery
must replay a backward subsequence of it that restores every tracked
node.  Graphs, mappings and gate lists are drawn at random, CNOTs and
SWAPs alike.
"""

import random

from hypothesis import given, settings, strategies as st

from cnotroute.circuit import CNOT, SWAP, Circuit, Gate, Mapping
from cnotroute.gf2 import BitMatrix, invert, mat_mul, transpose
from cnotroute.heuristic import heuristic_token_reduction
from cnotroute.rowgraph import ADD, _order, _recover, _reduce_tracked
from cnotroute.synthesis import (_stops, complies, linear_matrix, relabel_circuit,
                                 route_cnot_block)

from conftest import (grown_tree, ops_to_matrix, random_connected_graph,
                      random_reversible_rows, rows_reducible_along)
from test_steiner_rooting import _reference_schedule


@st.composite
def blocks(draw):
    """A random connected graph on 2..12 nodes, a block of CNOTs and SWAPs
    on as many wires, and a random initial mapping."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    gate = st.tuples(st.sampled_from([CNOT, SWAP]), pair).map(lambda t: Gate(t[0], *t[1]))
    gates = draw(st.lists(gate, max_size=3 * n))
    return graph, Circuit(n, gates), Mapping(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None, database=None)
@given(blocks())
def test_the_walks_columns_are_the_inverse_the_synthesizer_starts_from(case):
    graph, c, m0 = case
    n = graph.n
    *_, (_, _, rows, cols) = _stops(c.gates, m0, n)
    matrix = linear_matrix(relabel_circuit(c, m0).gates, n)
    assert rows == matrix.rows
    assert cols == invert(transpose(matrix)).rows


@settings(max_examples=200, deadline=None, database=None)
@given(blocks())
def test_routed_ops_are_the_public_synthesizers(case):
    graph, c, m0 = case
    relabeled = relabel_circuit(c, m0)
    routed = route_cnot_block(c, graph, m0)
    if complies(relabeled, graph):
        assert routed.circuit.gates == relabeled.gates
        return
    rows = transpose(linear_matrix(relabeled.gates, graph.n)).rows
    ops = heuristic_token_reduction(graph, rows)
    assert routed.circuit.gates == tuple(Gate(CNOT if kind == ADD else SWAP, a, b)
                                         for kind, a, b in ops)
    holder = {row.bit_length() - 1: u for u, row in enumerate(rows)}
    assert routed.output_mapping == Mapping([holder[m0[w]] for w in range(graph.n)])


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(st.integers(2, 14), st.integers(65, 90)), st.integers(0, 2**32))
def test_the_cores_run_the_reference_schedule_at_every_root(n, seed):
    rng = random.Random(seed)
    graph = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
    start = random_reversible_rows(rng, graph, rng.randrange(4 * n))
    terminals = frozenset(rng.sample(range(n), rng.randrange(2, min(n, 40) + 1)))
    start = rows_reducible_along(start, terminals)
    grown, steiner = grown_tree(graph, terminals)
    for root in sorted(terminals):
        schedule = _reference_schedule(grown, terminals, root)[0]
        assert tuple(_order(grown, steiner, root)) == schedule
        rows = list(start)
        ops, tracked = _reduce_tracked(rows, grown, steiner, root)
        assert ops == schedule
        assert rows == mat_mul(ops_to_matrix(ops, n), BitMatrix(n, start)).rows
        assert rows[root] == 1  # the terminal rows XOR to e_0
        reduced = BitMatrix(n, list(rows))
        recovered = _recover(rows, ops, tracked)
        assert not tracked
        assert rows == mat_mul(ops_to_matrix(recovered, n), reduced).rows
        backward = iter(reversed(ops))
        assert all(op in backward for op in recovered)  # a backward subsequence
