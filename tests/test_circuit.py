"""Circuit text format, gate constructors, and mappings."""

import json

import pytest

from cnotroute.circuit import (Circuit, CircuitFormatError, Mapping, cnot,
                               format_circuit, format_mapping_json, one_qubit,
                               parse_circuit, parse_mapping_json, swap_gate)

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
    assert c.gates == [cnot(0, 2), swap_gate(1, 2), one_qubit("H", 0)]


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


def test_mapping_bijection():
    m = Mapping([2, 0, 1])
    assert m[0] == 2
    with pytest.raises(ValueError):
        Mapping([0, 0, 1])


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
