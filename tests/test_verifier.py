"""The package verifier on mixed circuits: the mutations it must catch,
soundness against unitaries, narrower circuits, and postprocess's check."""

import random
from dataclasses import FrozenInstanceError, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute import synthesis
from cnotroute.arch import ArchGraph, get_architecture
from cnotroute.bench import swap_insertion_baseline
from cnotroute.circuit import (CNOT, ONEQ, SWAP, Circuit, Gate, Mapping, cnot,
                               one_qubit, swap_gate)
from cnotroute.synthesis import (RoutedResult, RouteStats, equivalence_failure,
                                 postprocess, route_cnot_block, route_general,
                                 verify_equivalence)

from conftest import check


@pytest.fixture(scope="module")
def tokyo():
    graph, stock = get_architecture("ibm-q20-tokyo")
    return graph, Mapping(stock)


def _tokyo_circuits(count, seed):
    """Random 20-wire circuits: CNOT runs, each followed by H on every wire."""
    rng = random.Random(seed)
    for _ in range(count):
        gates = []
        for _ in range(3):
            gates += [cnot(*rng.sample(range(20), 2)) for _ in range(12)]
            gates += [one_qubit("H", w) for w in range(20)]
        yield Circuit(20, gates)


def test_catches_one_qubit_gates_placed_by_the_initial_mapping(tokyo):
    graph, m0 = tokyo
    for c in _tokyo_circuits(50, 61):
        routed = postprocess(route_general(c, graph, m0))
        assert equivalence_failure(c, routed, graph) is None
        wires = iter(g.a for g in c.gates if g.kind == ONEQ)
        misplaced = [one_qubit(g.label, m0[next(wires)]) if g.kind == ONEQ else g
                     for g in routed.circuit.gates]
        assert misplaced != routed.circuit.gates
        bad = replace(routed, circuit=Circuit(20, misplaced))
        assert "one-qubit gate" in equivalence_failure(c, bad, graph)
        assert check.routing_failure(c, bad, graph) is not None


def test_catches_a_reversed_output_mapping(tokyo):
    graph, m0 = tokyo
    for c in _tokyo_circuits(50, 62):
        routed = route_general(c, graph, m0)
        reversed_mt = Mapping(routed.output_mapping.nodes[::-1])
        bad = replace(routed, output_mapping=reversed_mt)
        assert "not equivalent" in equivalence_failure(c, bad, graph)
        assert check.routing_failure(c, bad, graph) is not None


@pytest.mark.parametrize("node, sound", [(0, False), (2, True)])
def test_cnot_pair_cancels_across_a_one_qubit_gate_only_off_its_wires(node, sound):
    path3 = ArchGraph(3, [(0, 1), (1, 2)])
    ident = Mapping.identity(3)
    c = Circuit(3, [cnot(0, 1), one_qubit("H", node), cnot(0, 1)])
    cancelled = RoutedResult(Circuit(3, [one_qubit("H", node)]), ident, ident,
                             RouteStats(2, 0))
    reason = equivalence_failure(c, cancelled, path3)
    assert (reason is None) == sound
    routed = RoutedResult(c, ident, ident, RouteStats(2, 2))
    assert (check.postprocess_failure(routed, cancelled, path3) is None) == sound


def test_postprocess_raises_when_a_cancellation_crosses_a_one_qubit_gate(monkeypatch):
    def cancel_past_one_qubit_gates(gates):
        return [g for g in gates if g.kind == ONEQ]

    monkeypatch.setattr(synthesis, "_cancel_pairs", cancel_past_one_qubit_gates)
    ident = Mapping.identity(2)
    rc = RoutedResult(Circuit(2, [cnot(0, 1), one_qubit("H", 0), cnot(0, 1)]),
                      ident, ident, RouteStats(2, 2))
    with pytest.raises(RuntimeError, match="one-qubit gate H on node 0"):
        postprocess(rc)
    # off the CNOTs' wires the same cancellation is sound
    rc = RoutedResult(Circuit(3, [cnot(0, 1), one_qubit("H", 2), cnot(0, 1)]),
                      Mapping.identity(3), Mapping.identity(3), RouteStats(2, 2))
    assert postprocess(rc).circuit.gates == (one_qubit("H", 2),)


def test_a_gate_list_mutated_off_the_edges_after_it_was_built_is_rejected(tokyo):
    """A routed gate list cannot be changed in place, and a circuit
    rebuilt from it with a gate moved off the edges is rejected: pairs
    with node -1, which would wrap around onto an edge of node n - 1, or
    node n by ``Circuit`` itself, and a pair of nodes that are not
    adjacent by the verifier."""
    graph, m0 = tokyo
    n = graph.n
    near = next(v for v in range(n) if graph.is_edge(n - 1, v))
    far = next((u, v) for u, v in combinations(range(n), 2) if not graph.is_edge(u, v))
    c = next(_tokyo_circuits(1, 63))
    routed = route_general(c, graph, m0)
    assert verify_equivalence(c, routed, graph)
    gates = list(routed.circuit.gates)
    k = next(i for i, g in enumerate(gates) if g.kind == CNOT)
    with pytest.raises(TypeError):
        routed.circuit.gates[k] = Gate(CNOT, *far)
    for pair in ((-1, near), (near, -1), (0, n), (n, 0)):
        gates[k] = Gate(CNOT, *pair)
        with pytest.raises(ValueError, match=f"outside 0..{n - 1}"):
            Circuit(n, gates)
    gates[k] = Gate(CNOT, *far)
    moved = replace(routed, circuit=Circuit(n, gates))
    assert not verify_equivalence(c, moved, graph)
    assert "is not on an architecture edge" in equivalence_failure(c, moved, graph)


def test_narrower_circuit_is_routed_and_verified(tokyo):
    graph, m0 = tokyo
    c = Circuit(3, [cnot(0, 2), one_qubit("H", 1), cnot(2, 0), swap_gate(0, 1),
                    one_qubit("T", 2), cnot(1, 2)])
    final = postprocess(route_general(c, graph, m0))
    assert final.circuit.n_wires == graph.n
    assert len(final.output_mapping) == graph.n
    assert equivalence_failure(c, final, graph) is None
    moved = [one_qubit(g.label, (g.a + 1) % graph.n) if g.kind == ONEQ else g
             for g in final.circuit.gates]
    moved = replace(final, circuit=Circuit(graph.n, moved))
    assert equivalence_failure(c, moved, graph) is not None


def test_wider_circuit_is_rejected(tokyo):
    graph, m0 = tokyo
    c = Circuit(21, [cnot(0, 20)])
    with pytest.raises(ValueError, match="21 wires, architecture 20 nodes"):
        route_general(c, graph, m0)
    routed = RoutedResult(Circuit(20), m0, m0, RouteStats(1, 0))
    assert "21 wires" in equivalence_failure(c, routed, graph)


@pytest.mark.parametrize("bad", [Gate(CNOT, -1, 2), Gate(CNOT, 50, 2), Gate(CNOT, 2, "x"),
                                 Gate(CNOT, 2.0, 3), Gate(SWAP, 4, 4), one_qubit("H", -1)],
                         ids=["wire -1", "wire 50", "wire x", "wire 2.0", "one wire twice",
                              "1q on wire -1"])
def test_a_gate_list_changed_after_the_original_was_built_is_rejected(bad):
    """A circuit's gates cannot be changed after ``Circuit`` checked them:
    neither in place nor by assigning the field.  A circuit rebuilt with
    the gate put in, original or routed, raises ``Circuit``'s own
    ValueError, so no router or verifier is ever handed wire -1, which
    would be routed as wire n - 1, or wire 50 or "x", which would raise
    a bare IndexError or TypeError."""
    graph, stock = get_architecture("9-square")
    m0 = Mapping(stock)
    c = Circuit(9, [cnot(0, 4), cnot(8, 1), cnot(3, 5)])
    routed = route_cnot_block(c, graph, m0)
    with pytest.raises(ValueError) as expected:
        Circuit(9, [bad])
    message = str(expected.value)
    with pytest.raises(AttributeError):
        c.gates.append(bad)
    with pytest.raises(FrozenInstanceError):
        c.gates = c.gates + (bad,)
    for circuit in (c, routed.circuit):
        with pytest.raises(ValueError) as raised:
            replace(circuit, gates=circuit.gates + (bad,))
        assert str(raised.value) == message
    assert c.gates == (cnot(0, 4), cnot(8, 1), cnot(3, 5))
    assert verify_equivalence(c, routed, graph)


def test_a_narrower_circuit_changed_onto_an_idle_wire_is_rejected(tokyo):
    # wire 5 has a node but is not one of the circuit's three wires
    graph, m0 = tokyo
    c = Circuit(3, [cnot(0, 1), one_qubit("H", 2)])
    routed = route_general(c, graph, m0)
    for circuit in (c, Circuit(3, [cnot(0, 1)])):
        with pytest.raises(ValueError, match="uses wire 5 outside 0..2"):
            replace(circuit, gates=circuit.gates + (cnot(0, 5),))
    assert equivalence_failure(c, routed, graph) is None


def test_unknown_gate_kind_raises():
    with pytest.raises(ValueError, match="toffoli"):
        Circuit(2, [Gate("toffoli", 0, 1)])


@pytest.mark.parametrize("nodes", [[*range(8), -1], [*range(8), 99], list(range(9))],
                         ids=["node -1", "node 99", "plain list"])
def test_routers_and_the_verifier_take_a_mapping_only(nodes):
    """With [0..7, -1], wire 8 would land on node 8 by negative indexing
    and be reported on node -1; node 99 would raise a bare IndexError in
    the verifier; and a plain list has no ``nodes`` for the baseline."""
    graph, stock = get_architecture("9-square")
    c = Circuit(9, [cnot(0, 4), cnot(8, 1), cnot(3, 5)])
    for route in (route_cnot_block, route_general, swap_insertion_baseline):
        with pytest.raises(ValueError, match="not a Mapping"):
            route(c, graph, nodes)
    routed = route_cnot_block(c, graph, Mapping(stock))
    for bad in (replace(routed, input_mapping=nodes), replace(routed, output_mapping=nodes)):
        assert "not a Mapping" in equivalence_failure(c, bad, graph)
        assert not verify_equivalence(c, bad, graph)


# -- soundness against the unitaries -------------------------------------

def _random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def _unitary(gates, place, n, labels):
    """2^n unitary of a gate list, bit i of a basis index on node i."""
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for g in gates:
        step = np.zeros((dim, dim), dtype=complex)
        if g.kind == ONEQ:
            q = place[g.a]
            m = labels[g.label]
            for v in range(dim):
                for bit in (0, 1):
                    step[v & ~(1 << q) | bit << q, v] = m[bit, v >> q & 1]
        else:
            a, b = place[g.a], place[g.b]
            for v in range(dim):
                if g.kind == CNOT:
                    w = v ^ (v >> a & 1) << b
                else:
                    w = v & ~(1 << a) & ~(1 << b) | (v >> a & 1) << b | (v >> b & 1) << a
                step[w, v] = 1
        u = step @ u
    return u


def _moved(m0, mt, n):
    """The permutation moving the qubit on node m0[w] to node mt[w]."""
    dim = 1 << n
    p = np.zeros((dim, dim))
    for v in range(dim):
        w = 0
        for wire in range(n):
            w |= (v >> m0[wire] & 1) << mt[wire]
        p[w, v] = 1
    return p


def _gates(wires):
    oneq = st.builds(one_qubit, st.sampled_from("HST"), st.integers(0, wires - 1))
    if wires == 1:
        return oneq
    pair = st.lists(st.integers(0, wires - 1), min_size=2, max_size=2,
                    unique=True)
    two = st.tuples(st.booleans(), pair).map(
        lambda t: swap_gate(*t[1]) if t[0] else cnot(*t[1]))
    # hypothesis' one_of merges repeated branches, so draw the kind from a
    # list instead: two two-qubit gates to each one-qubit gate
    return st.sampled_from([two, two, oneq]).flatmap(lambda kind: kind)


MUTATIONS = ("none", "pair", "drop", "insert", "exchange", "move", "label",
             "mapping")


@st.composite
def mutated_routes(draw):
    """An original on k <= n wires, its route on a path, and one mutation."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    c = Circuit(k, draw(st.lists(_gates(k), max_size=12)))
    m0 = Mapping(draw(st.permutations(range(n))))
    path = ArchGraph(n, [(i, i + 1) for i in range(n - 1)])
    routed = route_general(c, path, m0)
    if draw(st.booleans()):
        routed = postprocess(routed)
    gates = list(routed.circuit.gates)
    mt = routed.output_mapping
    kind = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(gates)))
    if kind == "pair" and n > 1:
        g = draw(_gates(n).filter(lambda g: g.kind != ONEQ))
        gates[at:at] = [g, g]
    elif kind == "insert":
        gates.insert(at, draw(_gates(n)))
    elif gates and kind in ("drop", "exchange", "move", "label"):
        i = at % len(gates)
        g = gates[i]
        if kind == "drop":
            del gates[i]
        elif kind == "exchange" and i + 1 < len(gates):
            gates[i], gates[i + 1] = gates[i + 1], g
        elif kind == "move" and g.kind == ONEQ:
            gates[i] = one_qubit(g.label, draw(st.integers(0, n - 1)))
        elif kind == "label" and g.kind == ONEQ:
            gates[i] = one_qubit(draw(st.sampled_from("HST")), g.a)
    elif kind == "mapping":
        mt = Mapping(draw(st.permutations(range(n))))
    bad = RoutedResult(Circuit(n, gates), m0, mt, routed.stats)
    return c, bad, kind, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_routes())
def test_verifier_is_sound_on_unitaries_and_accepts_what_the_outside_check_accepts(case):
    c, routed, kind, seed = case
    n = routed.circuit.n_wires
    # every pair of nodes is an edge, so only equivalence decides
    complete = ArchGraph(n, list(combinations(range(n), 2)))
    reason = equivalence_failure(c, routed, complete)
    if kind in ("none", "pair"):
        assert reason is None
    if reason is None:
        rng = np.random.default_rng(seed)
        labels = {label: _random_unitary(rng) for label in "HST"}
        m0, mt = routed.input_mapping, routed.output_mapping
        expected = _moved(m0, mt, n) @ _unitary(c.gates, m0, n, labels)
        assert np.allclose(_unitary(routed.circuit.gates, range(n), n, labels),
                           expected)
    if c.n_wires == n and check.routing_failure(c, routed, complete) is None:
        assert reason is None
