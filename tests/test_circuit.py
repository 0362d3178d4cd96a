"""Circuit text format, gate constructors, and mappings."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.circuit import (CNOT, ONEQ, SWAP, Circuit, CircuitFormatError, Gate,
                               Mapping, cnot, format_circuit, format_mapping_json,
                               one_qubit, parse_circuit, parse_mapping_json, swap_gate)

SAMPLE = """\
# three wires, mixed gates
qubits 3
cnot 0 2
swap 1 2   # trailing comment
1q H 0
"""


def test_parse_sample():
    c = parse_circuit(SAMPLE)
    assert c.n_wires == 3
    assert c.gates == (cnot(0, 2), swap_gate(1, 2), one_qubit("H", 0))


def test_format_roundtrip():
    c = parse_circuit(SAMPLE)
    assert parse_circuit(format_circuit(c)) == c


@pytest.mark.parametrize("text, message", [
    ("cnot 0 1\n", "expected 'qubits"),
    ("qubits 2\ncnot 0 2\n", "outside"),
    ("qubits 2\ncnot 0\n", "unrecognized"),
    ("qubits 2\nnop 0 1\n", "unrecognized"),
    ("qubits 2\ncnot 1 1\n", "control"),
    ("qubits x\n", "bad qubit count"),
    ("# nothing\n", "missing"),
    ("qubits 2\nswap 0 1 1\n", r"^<circuit>:2: unrecognized"),
    ("qubits 1_6\n", "bad qubit count"),
    ("qubits \uff13\n", "bad qubit count"),
    ("qubits 03\n", "bad qubit count"),
    ("qubits 3\ncnot \u0662 0\n", "bad wire number"),
    ("qubits 3\ncnot +1 -0\n", "bad wire number"),
    ("qubits 3\ncnot 01 0\n", "bad wire number"),
    ("qubits 3\n1q H 2_0\n", "bad wire number"),
])
def test_parse_rejects(text, message):
    with pytest.raises(CircuitFormatError, match=message):
        parse_circuit(text)


def test_gate_constructors_validate():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        swap_gate(2, 2)
    with pytest.raises(ValueError):
        one_qubit("", 0)


@pytest.mark.parametrize("label", ["R z", "a#b", "x\xa0y", "H\n", " H", "#"])
def test_one_qubit_rejects_labels_a_file_cannot_hold(label):
    with pytest.raises(ValueError, match="one token"):
        one_qubit(label, 0)


def test_circuit_wire_range_checked():
    with pytest.raises(ValueError):
        Circuit(2, [cnot(0, 5)])


@pytest.mark.parametrize("gates", [[cnot(0, 1.0)], [cnot(True, 0)], [swap_gate(0, 2.0)],
                                   [one_qubit("H", False)]])
def test_circuit_rejects_wires_that_are_not_ints(gates):
    # format_circuit would write "1.0" or "True", which parse_circuit rejects
    with pytest.raises(ValueError, match="not an int"):
        Circuit(3, gates)


def _wires_loop_error(gates, n):
    """The reference wire check, one ``Gate.wires`` loop per gate: the
    message for the first bad wire or for a CNOT or SWAP on one wire, or
    None if every gate is good."""
    for g in gates:
        for w in g.wires():
            if type(w) is not int:
                return f"gate {g} uses wire {w!r}, which is not an int"
            if not 0 <= w < n:
                return f"gate {g} uses wire {w} outside 0..{n - 1}"
        if g.kind != ONEQ and g.a == g.b:
            return f"gate {g} uses wire {g.a} twice"
    return None


# hypothesis merges repeated branches of ``one_of`` and draws few wires in
# range from these, so a second gate branch keeps every wire in 0..3: whole
# gate lists are then often accepted, though a CNOT or SWAP on one wire is not.
# Each gate's label and unused field are then set as its kind wants them, so
# only its wires can be at fault
_WIRES = st.one_of(st.integers(0, 3), st.integers(-3, 9), st.integers(), st.booleans(),
                   st.floats())
_KINDS = st.sampled_from([CNOT, SWAP, ONEQ])
_GATES = st.one_of(st.builds(Gate, _KINDS, _WIRES, _WIRES),
                   st.builds(Gate, _KINDS, st.integers(0, 3), st.integers(0, 3))).map(
    lambda g: g._replace(b=-1, label="H") if g.kind == ONEQ else g._replace(label=""))


def test_circuit_checks_wires_as_the_wires_loop_does():
    seen = {"accepted": 0, "not an int": 0, "outside": 0, "twice": 0}

    # derandomized: the coverage asserted below depends on the draw
    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 8), st.lists(_GATES, max_size=6))
    def check(n, gates):
        want = _wires_loop_error(gates, n)
        if want is None:
            assert Circuit(n, gates).gates == tuple(gates)
            seen["accepted"] += 1
            return
        with pytest.raises(ValueError) as raised:
            Circuit(n, gates)
        assert type(raised.value) is ValueError and str(raised.value) == want
        seen[next(k for k in ("not an int", "outside", "twice") if k in want)] += 1

    check()
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("gate, message", [
    (Gate("toffoli", 0, 1), "not a cnot, swap or 1q gate"),
    (Gate(5, 0, 1), "not a cnot, swap or 1q gate"),
    (Gate(ONEQ, 0, -1, ""), "one token"),
    (Gate(ONEQ, 0, -1, "a b"), "one token"),
    (Gate(ONEQ, 0, -1, "#x"), "one token"),
    (Gate(ONEQ, 0, -1, 5), "one token"),
    (Gate(ONEQ, 0, 1, "H"), "sets a field that a 1q gate leaves unset"),
    (Gate(CNOT, 0, 1, "H"), "sets a field that a cnot gate leaves unset"),
    (Gate(SWAP, 0, 1, "H"), "sets a field that a swap gate leaves unset"),
])
def test_circuit_rejects_a_gate_the_text_format_cannot_carry(gate, message):
    # format_circuit would write a line parse_circuit rejects or reads back
    # as another gate
    with pytest.raises(ValueError, match=message):
        Circuit(2, [gate])


def test_a_circuit_holds_a_tuple_cannot_change_and_is_hashable():
    gates = [cnot(0, 1), one_qubit("H", 2), swap_gate(1, 2)]
    for given_gates in (gates, tuple(gates), iter(gates), (g for g in gates)):
        c = Circuit(3, given_gates)
        assert type(c.gates) is tuple and c.gates == tuple(gates)
        assert c == Circuit(3, gates) and hash(c) == hash(Circuit(3, gates))
    gates.append(cnot(2, 0))  # the caller's list is not the circuit's
    assert len(c) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.gates = tuple(gates)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.n_wires = 4
    assert Circuit(3).gates == () and len({Circuit(3), Circuit(3, []), Circuit(4)}) == 2


@pytest.mark.parametrize("n_wires", [3.0, True, -1, 0, "3"])
def test_circuit_rejects_a_wire_count_that_is_not_a_positive_int(n_wires):
    # format_circuit would write "qubits 3.0", which parse_circuit rejects
    with pytest.raises(ValueError, match="not a positive int"):
        Circuit(n_wires, [])


def test_mapping_bijection():
    m = Mapping([2, 0, 1])
    assert m[0] == 2
    with pytest.raises(ValueError):
        Mapping([0, 0, 1])


@pytest.mark.parametrize("nodes", [[0.0, 1.0, 2.0], [1, 0.0], [True, False], ["0"]])
def test_mapping_rejects_nodes_that_are_not_ints(nodes):
    with pytest.raises(ValueError, match="bijection"):
        Mapping(nodes)


def test_mapping_is_hashable_and_equal_by_value():
    m = Mapping([2, 0, 1])
    assert m == Mapping((2, 0, 1)) and hash(m) == hash(Mapping((2, 0, 1)))
    assert m != Mapping([0, 1, 2]) and len({m, Mapping([2, 0, 1]), Mapping.identity(3)}) == 2
    assert m == (2, 0, 1) and type(m.nodes) is tuple and m.nodes == (2, 0, 1)


def test_gate_and_mapping_reprs_are_unchanged():
    # error messages embed these
    assert repr(cnot(0, 2)) == "Gate(kind='cnot', a=0, b=2, label='')"
    assert repr(one_qubit("H", 1)) == "Gate(kind='1q', a=1, b=-1, label='H')"
    assert repr(Mapping([2, 0, 1])) == "Mapping([2, 0, 1])"


def test_mapping_json_roundtrip():
    names = ["Q1", "Q2", "Q3"]
    m = Mapping([1, 2, 0])
    text = format_mapping_json(m, names)
    assert parse_mapping_json(text, names) == m


@pytest.mark.parametrize("text, message", [
    ('[["w1", "Q1"]]', "expected 3"),
    ('[["w1", "Q1"], ["w1", "Q2"], ["w3", "Q3"]]', "mapped twice"),
    ('[["w1", "Q9"], ["w2", "Q2"], ["w3", "Q3"]]', "unknown node"),
    ('[["v1", "Q1"], ["w2", "Q2"], ["w3", "Q3"]]', "must look like"),
    *[(json.dumps([[label, "Q1"], ["w2", "Q2"], ["w3", "Q3"]]), "must look like")
      for label in ("w01", "w+1", "w 1", "w1_0", "w\u0663")],
    ('{"w1": "Q1"}', "expected 3"),
    ("not json", "not valid JSON"),
    pytest.param("[" * 100000, "not valid JSON", id="deep nesting-not valid JSON"),
    pytest.param('{"name": "x", "nodes": ["A"], "edges": [], "pad": ' + "1" * 5000 + "}",
                 "not valid JSON", id="long number in object-not valid JSON"),
    pytest.param("[" + "1" * 5000 + "]", "not valid JSON",
                 id="long number in list-not valid JSON"),
])
def test_mapping_json_rejects(text, message):
    with pytest.raises(CircuitFormatError, match=message):
        parse_mapping_json(text, ["Q1", "Q2", "Q3"])


@pytest.mark.parametrize("node", [["Q1"], {"Q1": 1}, 1, None, 1.5, True])
def test_mapping_json_rejects_non_string_node(node):
    text = json.dumps([["w1", node], ["w2", "Q2"], ["w3", "Q3"]])
    with pytest.raises(CircuitFormatError, match="must be a string"):
        parse_mapping_json(text, ["Q1", "Q2", "Q3"])
