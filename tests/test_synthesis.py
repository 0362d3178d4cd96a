"""Routing pipeline: circuit/matrix conversion, synthesis, verification,
post-processing, and general-circuit block routing."""

import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.arch import ArchGraph, get_architecture, list_architectures
from cnotroute.circuit import (CNOT, ONEQ, SWAP, Circuit, Gate, Mapping, cnot,
                               one_qubit, swap_gate)
from cnotroute.gf2 import BitMatrix, mat_mul, transpose
from cnotroute.synthesis import (RoutedResult, RouteStats, complies,
                                 equivalence_failure, linear_matrix,
                                 postprocess, relabel_circuit,
                                 route_cnot_block, route_general,
                                 verify_equivalence, _cancel_pairs)

from conftest import bits_of, check, matrix, random_connected_graph


P_BITS = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1]]
PT_BITS = [[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
EXAMPLE_GATES = [cnot(0, 2), cnot(2, 3)]

# The four-qubit example's published factorization: five elementary
# matrices times a transposed permutation recompose the transpose of the
# circuit matrix; the permutation exchanges the first two labels.
FACTORS = [
    [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
]
MT_BITS = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_circuit_to_matrix_worked_example():
    assert bits_of(linear_matrix(EXAMPLE_GATES, 4)) == P_BITS


def test_circuit_to_matrix_empty_and_involution():
    assert linear_matrix([], 3) == BitMatrix.identity(3)
    assert linear_matrix([cnot(0, 1), cnot(0, 1)], 3) == BitMatrix.identity(3)


def test_circuit_to_matrix_rejects_non_cnot():
    with pytest.raises(ValueError, match="not a linear gate"):
        linear_matrix([cnot(0, 1), one_qubit("H", 1)], 2)


@pytest.mark.parametrize("gates, wire", [
    ([cnot(0, -1)], -1), ([cnot(0, 3)], 3), ([swap_gate(-2, 1)], -2),
    ([cnot(0, 1), one_qubit("H", 5)], 5)])
def test_linear_matrix_rejects_wires_outside_0_to_n(gates, wire):
    # a negative wire would otherwise index rows from the end
    with pytest.raises(ValueError, match=rf"uses wire {wire} outside 0\.\.2"):
        linear_matrix(gates, 3)


@st.composite
def linear_gate_lists(draw):
    """n in 1..12 and a random list of CNOT and SWAP gates on n wires."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    gate = st.tuples(st.booleans(), pair).map(
        lambda t: swap_gate(*t[1]) if t[0] else cnot(*t[1]))
    return n, draw(st.lists(gate, max_size=40))


@settings(max_examples=300, deadline=None, database=None)
@given(linear_gate_lists())
def test_linear_matrix_is_the_product_of_elementary_matrices(case):
    n, gates = case
    expected = BitMatrix.identity(n)
    for g in gates:
        step = BitMatrix.identity(n)
        if g.kind == CNOT:  # I + e_target e_control^T
            step.rows[g.b] |= 1 << g.a
        else:  # the permutation exchanging rows a and b
            step.rows[g.a], step.rows[g.b] = 1 << g.b, 1 << g.a
        expected = mat_mul(step, expected)
    assert linear_matrix(gates, n) == expected


def test_factorization_fixture():
    product = matrix(MT_BITS)
    for bits in reversed(FACTORS):
        product = mat_mul(matrix(bits), product)
    assert bits_of(product) == PT_BITS


def test_route_single_adjacent_cnot():
    g = ArchGraph(2, [(0, 1)])
    c = Circuit(2, [cnot(0, 1)])
    r = route_cnot_block(c, g, Mapping.identity(2))
    assert r.circuit.gates == (cnot(0, 1),)
    assert r.output_mapping == Mapping.identity(2)
    assert verify_equivalence(c, r, g)


def test_route_passes_a_compliant_block_through_relabelled():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    m0 = Mapping([1, 0, 2])
    c = Circuit(3, [cnot(0, 2), cnot(1, 0)])  # wires 0-2 sit on no edge until relabelled
    r = route_cnot_block(c, g, m0)
    assert r.circuit.gates == (cnot(1, 2), cnot(0, 1))
    assert r.input_mapping == m0 and r.output_mapping == m0
    assert r.stats.cnots_routed == r.stats.cnots_in == 2
    assert verify_equivalence(c, r, g)


def test_route_passes_a_compliant_block_with_swaps_through_whole():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    m0 = Mapping([1, 0, 2])
    c = Circuit(3, [swap_gate(0, 2), cnot(1, 0), swap_gate(1, 0)])
    r = route_cnot_block(c, g, m0)
    assert r.circuit.gates == (swap_gate(1, 2), cnot(0, 1), swap_gate(0, 1))
    assert r.output_mapping == m0
    assert r.stats.cnots_routed == r.stats.cnots_in == 7
    assert verify_equivalence(c, r, g)
    final = postprocess(r)
    assert {h.kind for h in final.circuit.gates} == {CNOT}
    assert equivalence_failure(c, final, g) is None


def _swaps_as_cnot_triples(gates):
    out = []
    for g in gates:
        out += [cnot(g.a, g.b), cnot(g.b, g.a), cnot(g.a, g.b)] if g.kind == SWAP else [g]
    return out


def test_route_block_with_swaps_equals_its_cnot_triple_expansion(grid3):
    rng = random.Random(47)
    m0 = Mapping([8, 6, 7, 2, 0, 1, 5, 3, 4])
    for _ in range(20):
        gates = [rng.choice((cnot, swap_gate))(*rng.sample(range(9), 2))
                 for _ in range(12)]
        c = Circuit(9, gates)
        assert not complies(relabel_circuit(c, m0), grid3)
        r = route_cnot_block(c, grid3, m0)
        expanded = route_cnot_block(Circuit(9, _swaps_as_cnot_triples(gates)),
                                    grid3, m0)
        assert r.circuit.gates == expanded.circuit.gates
        assert r.output_mapping == expanded.output_mapping
        assert r.stats == expanded.stats
        assert verify_equivalence(c, r, grid3)


def test_route_cnot_block_rejects_a_one_qubit_gate_in_a_compliant_block():
    g = ArchGraph(2, [(0, 1)])
    c = Circuit(2, [cnot(0, 1), one_qubit("H", 0)])
    assert complies(c, g)
    with pytest.raises(ValueError, match="not a linear gate"):
        route_cnot_block(c, g, Mapping.identity(2))


def test_route_worked_example(path4):
    c = Circuit(4, EXAMPLE_GATES)
    r = route_cnot_block(c, path4, Mapping.identity(4))
    assert verify_equivalence(c, r, path4)
    # the synthesized circuit realizes perm^T * P for its output mapping
    perm = BitMatrix(4)
    for w in range(4):
        perm.rows[r.output_mapping[w]] = 1 << w
    assert linear_matrix(r.circuit.gates, 4) == \
        mat_mul(perm, matrix(P_BITS))
    post = postprocess(r)
    assert post.stats.cnots_final <= 7
    assert verify_equivalence(c, post, path4)


def test_route_random_grid_circuits(grid3):
    rng = random.Random(41)
    m0 = Mapping.identity(9)
    for _ in range(100):
        gates = []
        for _ in range(16):
            a, b = rng.sample(range(9), 2)
            gates.append(cnot(a, b))
        c = Circuit(9, gates)
        r = route_cnot_block(c, grid3, m0)
        assert verify_equivalence(c, r, grid3)
        assert complies(r.circuit, grid3)
        p = postprocess(r)
        assert verify_equivalence(c, p, grid3)
        assert complies(p.circuit, grid3)


def test_route_respects_initial_mapping(grid3):
    rng = random.Random(42)
    m0 = Mapping([8, 6, 7, 2, 0, 1, 5, 3, 4])
    for _ in range(20):
        gates = [cnot(*rng.sample(range(9), 2)) for _ in range(8)]
        c = Circuit(9, gates)
        r = route_cnot_block(c, grid3, m0)
        assert r.input_mapping == m0
        assert verify_equivalence(c, r, grid3)


def test_verify_accepts_paper_pair(path4):
    # published routed circuit: swap of the first two nodes as three
    # CNOTs, then two line adds; output mapping exchanges w1 and w2.
    c = Circuit(4, EXAMPLE_GATES)
    routed_gates = [cnot(0, 1), cnot(1, 0), cnot(0, 1), cnot(1, 2), cnot(2, 3)]
    routed = RoutedResult(Circuit(4, routed_gates), Mapping.identity(4),
                          Mapping([1, 0, 2, 3]),
                          RouteStats(2, 5))
    assert verify_equivalence(c, routed, path4)
    # same decomposition expressed with an atomic SWAP gate
    with_swap = RoutedResult(Circuit(4, [swap_gate(0, 1), cnot(1, 2), cnot(2, 3)]),
                             Mapping.identity(4), Mapping([1, 0, 2, 3]),
                             RouteStats(2, 5))
    assert verify_equivalence(c, with_swap, path4)


def test_verify_identity_and_deletion(path4):
    c = Circuit(4, [cnot(0, 1), cnot(1, 2)])
    same = RoutedResult(Circuit(4, list(c.gates)), Mapping.identity(4),
                        Mapping.identity(4), RouteStats(2, 2))
    assert verify_equivalence(c, same, path4)
    broken = RoutedResult(Circuit(4, c.gates[:1]), Mapping.identity(4),
                          Mapping.identity(4), RouteStats(2, 1))
    assert not verify_equivalence(c, broken, path4)
    assert "not equivalent" in equivalence_failure(c, broken, path4)


def test_verify_rejects_off_edge_gate(path4):
    c = Circuit(4, [cnot(0, 3)])
    off = RoutedResult(Circuit(4, [cnot(0, 3)]), Mapping.identity(4),
                       Mapping.identity(4), RouteStats(1, 1))
    reason = equivalence_failure(c, off, path4)
    assert "architecture edge" in reason


def test_postprocess_cancels_adjacent_pair():
    g = ArchGraph(2, [(0, 1)])
    rc = RoutedResult(Circuit(2, [cnot(0, 1), cnot(0, 1)]),
                      Mapping.identity(2), Mapping.identity(2),
                      RouteStats(2, 2))
    out = postprocess(rc)
    assert out.circuit.gates == ()
    assert out.stats.cnots_final == 0


def test_postprocess_swap_orientation_cancels():
    g = ArchGraph(2, [(0, 1)])
    rc = RoutedResult(Circuit(2, [swap_gate(0, 1), cnot(0, 1)]),
                      Mapping.identity(2), Mapping.identity(2),
                      RouteStats(4, 4))
    out = postprocess(rc)
    assert out.stats.cnots_final == 2
    assert linear_matrix(out.circuit.gates, 2) == \
        linear_matrix([swap_gate(0, 1), cnot(0, 1)], 2)


def test_postprocess_empty():
    rc = RoutedResult(Circuit(2), Mapping.identity(2), Mapping.identity(2),
                      RouteStats(0, 0))
    assert postprocess(rc).circuit.gates == ()


def test_postprocess_cancels_across_commuting_gates():
    # shared target in between: the outer pair still cancels
    gates = [cnot(0, 2), cnot(1, 2), cnot(0, 2)]
    rc = RoutedResult(Circuit(3, gates), Mapping.identity(3),
                      Mapping.identity(3), RouteStats(3, 3))
    out = postprocess(rc)
    assert out.circuit.gates == (cnot(1, 2),)
    # control-of-one on target-of-other blocks cancellation
    gates = [cnot(0, 1), cnot(1, 2), cnot(0, 1)]
    rc = RoutedResult(Circuit(3, gates), Mapping.identity(3),
                      Mapping.identity(3), RouteStats(3, 3))
    assert len(postprocess(rc).circuit.gates) == 3


def _postprocess_gates(n, gates):
    rc = RoutedResult(Circuit(n, gates), Mapping.identity(n),
                      Mapping.identity(n), RouteStats(len(gates), len(gates)))
    return postprocess(rc).circuit.gates


def test_postprocess_runs_to_its_fixed_point():
    # each pair of a mirrored CNOT ladder cancels only once the pair
    # inside it has
    for pairs in (12, 1600):
        ladder = [cnot(i, i + 1) for i in range(pairs)]
        assert _postprocess_gates(pairs + 1, ladder + ladder[::-1]) == ()
    # an odd run of equal gates leaves one
    assert _postprocess_gates(2, [cnot(0, 1)] * 20001) == (cnot(0, 1),)


def _commutes_with_cnot(a, b):
    """Can b slide past CNOT a?  Conservative for opaque 1q gates."""
    if b.kind == ONEQ:
        return b.a != a.a and b.a != a.b
    if b.kind != CNOT:
        return False
    if a.a != b.a and a.a != b.b and a.b != b.a and a.b != b.b:
        return True
    if a.a == b.a and a.b != b.b:
        return True
    if a.b == b.b and a.a != b.a:
        return True
    return False


def _quadratic_cancel_pass(gates):
    """Reference pass: scan every later live gate until one blocks."""
    alive = [True] * len(gates)
    for i, gi in enumerate(gates):
        if not alive[i] or gi.kind != CNOT:
            continue
        for j in range(i + 1, len(gates)):
            if not alive[j]:
                continue
            gj = gates[j]
            if gj == gi:
                alive[i] = False
                alive[j] = False
                break
            if not _commutes_with_cnot(gi, gj):
                break
    return [g for keep, g in zip(alive, gates) if keep]


def _quadratic_fixed_point(gates):
    while True:
        cancelled = _quadratic_cancel_pass(gates)
        if len(cancelled) == len(gates):
            return gates
        gates = cancelled


def test_cancel_pairs_reaches_the_quadratic_fixed_point():
    rng = random.Random(45)
    cancelled = 0
    for _ in range(3000):
        n = rng.randrange(2, 7)
        gates = []
        for _ in range(rng.randrange(60)):
            if rng.random() < 0.15:
                gates.append(one_qubit(rng.choice("HST"), rng.randrange(n)))
            else:
                gates.append(cnot(*rng.sample(range(n), 2)))
        out = _cancel_pairs(gates)
        assert _quadratic_cancel_pass(out) == out
        assert len(out) == len(_quadratic_fixed_point(gates))
        assert linear_matrix([g for g in out if g.kind == CNOT], n) == \
            linear_matrix([g for g in gates if g.kind == CNOT], n)
        cancelled += len(gates) - len(out)
    assert cancelled > 5000


@st.composite
def graphs_and_mixed_circuits(draw):
    """A random connected graph on 1..12 nodes, a circuit of CNOTs and
    one-qubit gates on as many wires, and a random initial mapping."""
    n = draw(st.integers(1, 12))
    graph = random_connected_graph(random.Random(draw(st.integers(0, 2**32))), n)
    wire = st.integers(0, n - 1)
    oneqs = st.builds(one_qubit, st.sampled_from("HST"), wire)
    gate = oneqs
    if n > 1:
        cnots = st.tuples(wire, st.integers(1, n - 1)).map(
            lambda p: cnot(p[0], (p[0] + p[1]) % n))
        # hypothesis' one_of merges repeated branches, so draw the kind
        # from a list instead: three CNOTs to each one-qubit gate
        gate = st.sampled_from([cnots, cnots, cnots, oneqs]).flatmap(lambda kind: kind)
    gates = draw(st.lists(gate, max_size=40))
    m0 = Mapping(draw(st.permutations(range(n))))
    return graph, Circuit(n, gates), m0


@settings(max_examples=150, deadline=None, database=None)
@given(graphs_and_mixed_circuits())
def test_route_general_then_postprocess_passes_the_outside_check(case):
    graph, c, m0 = case
    routed = route_general(c, graph, m0)
    final = postprocess(routed)
    assert check.routing_failure(c, routed, graph) is None
    assert check.postprocess_failure(routed, final, graph) is None
    assert equivalence_failure(c, final, graph) is None
    assert final.stats.cnots_final <= routed.stats.cnots_routed
    assert _quadratic_cancel_pass(final.circuit.gates) == list(final.circuit.gates)


def test_postprocess_never_increases_weight(grid3):
    rng = random.Random(43)
    m0 = Mapping.identity(9)
    for _ in range(30):
        gates = [cnot(*rng.sample(range(9), 2)) for _ in range(12)]
        c = Circuit(9, gates)
        r = route_cnot_block(c, grid3, m0)
        p = postprocess(r)
        assert p.stats.cnots_final <= r.stats.cnots_routed


def test_route_general_equals_block_on_cnot_only(grid3):
    rng = random.Random(44)
    m0 = Mapping.identity(9)
    for _ in range(20):
        gates = [cnot(*rng.sample(range(9), 2)) for _ in range(10)]
        c = Circuit(9, gates)
        block = route_cnot_block(c, grid3, m0)
        general = route_general(c, grid3, m0)
        assert general.circuit.gates == block.circuit.gates
        assert general.output_mapping == block.output_mapping
        assert general.stats == block.stats


def test_route_general_one_qubit_passthrough():
    g = ArchGraph(2, [(0, 1)])
    c = Circuit(2, [one_qubit("H", 0), cnot(0, 1), one_qubit("H", 0)])
    r = route_general(c, g, Mapping.identity(2))
    assert r.circuit.gates == (one_qubit("H", 0), cnot(0, 1), one_qubit("H", 0))
    assert r.output_mapping == Mapping.identity(2)


def test_route_general_swap_pre_expansion():
    g = ArchGraph(2, [(0, 1)])
    c = Circuit(2, [swap_gate(0, 1)])
    r = route_general(c, g, Mapping.identity(2))
    assert r.stats.cnots_in == 3
    assert verify_equivalence(Circuit(2, [cnot(0, 1), cnot(1, 0), cnot(0, 1)]),
                              r, g)


def test_route_general_tracks_wires_through_blocks(grid3):
    rng = random.Random(45)
    m0 = Mapping([8, 6, 7, 2, 0, 1, 5, 3, 4])
    for _ in range(10):
        gates = []
        for _ in range(4):
            gates += [cnot(*rng.sample(range(9), 2)) for _ in range(5)]
            gates.append(one_qubit("T", rng.randrange(9)))
        c = Circuit(9, gates)
        r = route_general(c, grid3, m0)
        assert complies(r.circuit, grid3)

        # oracle: replay the same partition through route_cnot_block
        out = []
        current = m0
        run = []
        for gt in c.gates:
            if gt.kind == "cnot":
                run.append(gt)
            else:
                if run:
                    blk = route_cnot_block(Circuit(9, run), grid3, current)
                    assert verify_equivalence(Circuit(9, run), blk, grid3)
                    out += blk.circuit.gates
                    current = blk.output_mapping
                    run = []
                out.append(one_qubit(gt.label, current[gt.a]))
        if run:
            blk = route_cnot_block(Circuit(9, run), grid3, current)
            out += blk.circuit.gates
            current = blk.output_mapping
        assert r.circuit.gates == tuple(out)
        assert r.output_mapping == current


def test_no_router_can_be_handed_an_unknown_kind():
    # a Circuit rejects the gate when built and cannot take it in later
    with pytest.raises(ValueError, match="toffoli"):
        Circuit(9, [Gate("toffoli", 0, 1)])
    empty = Circuit(9)
    with pytest.raises(AttributeError):
        empty.gates.append(Gate("toffoli", 0, 1))
    with pytest.raises(ValueError, match="toffoli"):
        replace(empty, gates=(Gate("toffoli", 0, 1),))


def test_relabel_circuit():
    c = Circuit(3, [cnot(0, 1), one_qubit("H", 2)])
    m = Mapping([2, 0, 1])
    out = relabel_circuit(c, m)
    assert out.gates == (cnot(2, 0), one_qubit("H", 1))


def test_relabel_circuit_keeps_every_kind_and_label():
    c = Circuit(3, [cnot(0, 1), one_qubit("Rz(0.5)", 2), swap_gate(1, 2)])
    out = relabel_circuit(c, Mapping([2, 0, 1]))
    assert out.gates == (cnot(2, 0), one_qubit("Rz(0.5)", 1), swap_gate(0, 1))


def test_route_general_rejects_a_mapping_of_the_wrong_size():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="mapping size must match the architecture"):
        route_general(Circuit(2, [one_qubit("H", 0)]), g, Mapping([1, 0]))


def _swap_mixed_circuit(rng, graph, m0, edge_share, size=30):
    """CNOT, SWAP and one-qubit gates on every wire; a two-qubit gate sits
    on an edge under m0 with probability ``edge_share``."""
    n = graph.n
    wire_at = {node: w for w, node in enumerate(m0.nodes)}
    edges = sorted(graph.edges)
    gates = []
    for _ in range(size):
        kind = rng.choice((CNOT, SWAP, SWAP, ONEQ))
        if kind == ONEQ:
            gates.append(one_qubit(rng.choice("HST"), rng.randrange(n)))
            continue
        if rng.random() < edge_share:
            u, v = edges[rng.randrange(len(edges))]
            a, b = rng.sample((wire_at[u], wire_at[v]), 2)
        else:
            a, b = rng.sample(range(n), 2)
        gates.append(cnot(a, b) if kind == CNOT else swap_gate(a, b))
    return Circuit(n, gates)


@pytest.mark.parametrize("arch", list_architectures())
def test_route_general_swap_mixed_circuits_pass_both_checks(arch):
    graph, stock = get_architecture(arch)
    m0 = Mapping(stock)
    rng = random.Random(48)
    for edge_share in (1.0, 1.0, 0.5, 0.0):
        c = _swap_mixed_circuit(rng, graph, m0, edge_share)
        routed = route_general(c, graph, m0)
        final = postprocess(routed)
        assert equivalence_failure(c, routed, graph) is None
        assert check.routing_failure(c, routed, graph) is None
        assert equivalence_failure(c, final, graph) is None
        assert check.postprocess_failure(routed, final, graph) is None
        kinds = [g.kind for g in c.gates]
        assert routed.stats.cnots_in == kinds.count(CNOT) + 3 * kinds.count(SWAP)
        assert SWAP not in {g.kind for g in final.circuit.gates}
        if edge_share == 1.0:  # every block complies and comes back as given
            assert routed.circuit.gates == relabel_circuit(c, m0).gates


def test_permutation_circuit_routes_to_no_gates():
    # A distance-2 swap written as three CNOTs is pure relabeling: the
    # synthesizer absorbs it into the output mapping and emits nothing.
    g = ArchGraph(3, [(0, 1), (1, 2)])
    c = Circuit(3, [cnot(0, 2), cnot(2, 0), cnot(0, 2)])
    r = route_cnot_block(c, g, Mapping.identity(3))
    assert r.circuit.gates == ()
    assert r.output_mapping == Mapping([2, 1, 0])
    assert verify_equivalence(c, r, g)


def _simulate(gates, state):
    # classical reversible semantics, no matrices involved
    for g in gates:
        if g.kind == "cnot":
            if (state >> g.a) & 1:
                state ^= 1 << g.b
        elif g.kind == "swap":
            if ((state >> g.a) ^ (state >> g.b)) & 1:
                state ^= (1 << g.a) | (1 << g.b)
        else:
            raise ValueError(g)
    return state


def test_truth_table_oracle(grid3):
    # End-to-end check against direct gate simulation: for random basis
    # inputs, the routed circuit computes the original function up to
    # the output mapping.  Independent of every matrix code path.
    rng = random.Random(99)
    m0 = Mapping([8, 6, 7, 2, 0, 1, 5, 3, 4])
    for _ in range(10):
        gates = [cnot(*rng.sample(range(9), 2)) for _ in range(16)]
        c = Circuit(9, gates)
        routed = route_cnot_block(c, grid3, m0)
        for result in (routed, postprocess(routed)):
            mt = result.output_mapping
            for _ in range(30):
                x = rng.randrange(1 << 9)
                node_in = sum(1 << m0[w] for w in range(9) if (x >> w) & 1)
                node_out = _simulate(result.circuit.gates, node_in)
                y_routed = sum(1 << w for w in range(9)
                               if (node_out >> mt[w]) & 1)
                assert y_routed == _simulate(c.gates, x)


def test_gate_count_bound_per_block(grid3):
    rng = random.Random(46)
    bound = 9 * (6 * 7 + 1)
    m0 = Mapping.identity(9)
    for _ in range(20):
        gates = [cnot(*rng.sample(range(9), 2)) for _ in range(64)]
        c = Circuit(9, gates)
        r = route_cnot_block(c, grid3, m0)
        assert r.stats.cnots_routed <= bound


def test_routed_result_round_trips_through_pickle():
    graph, stock = get_architecture("9-square")
    c = Circuit(9, [cnot(0, 8), one_qubit("H", 4), swap_gate(2, 6), cnot(5, 1)])
    routed = postprocess(route_general(c, graph, Mapping(stock)))
    back = pickle.loads(pickle.dumps(routed))
    assert back == routed
    assert type(back.output_mapping) is Mapping and type(back.circuit.gates[0]) is Gate


def test_one_cnot_pipeline_checks_gates_three_times(monkeypatch):
    """A ``Circuit`` checks its gates once, when it is built, and nothing
    checks a held gate list again: over route, postprocess, verify, the
    baseline and verify, only the routed, the post-processed and the
    baseline circuits are built, each checked once."""
    graph, stock = get_architecture("9-square")
    m0 = Mapping(stock)
    from cnotroute.bench import random_cnot_circuit, swap_insertion_baseline
    for seed in range(4):
        c = random_cnot_circuit(9, 16, seed)
        checks = []
        check_gates = Circuit.__post_init__
        monkeypatch.setattr(Circuit, "__post_init__",
                            lambda self: checks.append(self) or check_gates(self))
        routed = route_cnot_block(c, graph, m0)
        final = postprocess(routed)
        assert verify_equivalence(c, final, graph)
        baseline = swap_insertion_baseline(c, graph, m0)
        assert verify_equivalence(c, baseline, graph)
        monkeypatch.undo()
        assert len(checks) == 3
        assert checks == [routed.circuit, final.circuit, baseline.circuit]


def test_route_general_checks_gates_once_over_several_blocks(monkeypatch, grid3):
    """Every block goes through the same core as ``route_cnot_block``, and
    only the one ``Circuit`` holding the whole routed output is built."""
    c = Circuit(9, [cnot(0, 8), one_qubit("H", 3), cnot(4, 2), swap_gate(1, 7),
                    one_qubit("T", 0), cnot(0, 1), one_qubit("S", 8), cnot(8, 0), cnot(2, 6)])
    checks = []
    check_gates = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__",
                        lambda self: checks.append(self) or check_gates(self))
    routed = route_general(c, grid3, Mapping.identity(9))
    monkeypatch.undo()
    assert len(checks) == 1
    assert checks == [routed.circuit]
    assert verify_equivalence(c, routed, grid3)


def test_a_narrower_block_is_routed_as_if_padded_with_idle_wires(grid3):
    c = Circuit(4, [cnot(0, 3), cnot(3, 1), swap_gate(0, 2), cnot(2, 1)])
    m0 = Mapping([8, 1, 6, 3, 4, 5, 2, 7, 0])
    for route in (route_cnot_block, route_general):
        routed = route(c, grid3, m0)
        assert routed.circuit.n_wires == 9 and len(routed.output_mapping) == 9
        assert equivalence_failure(c, routed, grid3) is None
        assert equivalence_failure(c, postprocess(routed), grid3) is None
    with pytest.raises(ValueError, match="10 wires, architecture 9 nodes"):
        route_cnot_block(Circuit(10, [cnot(0, 9)]), grid3, m0)


def test_a_routed_result_is_a_hashable_value(grid3):
    c = Circuit(9, [cnot(0, 8), cnot(4, 2)])
    a, b = (route_cnot_block(c, grid3, Mapping.identity(9)) for _ in range(2))
    assert a == b and hash(a) == hash(b) and len({a, b, postprocess(a)}) == 2
