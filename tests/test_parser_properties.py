"""Property: the file parsers fail only with the package's own errors.

Whatever JSON value an architecture or mapping file holds, and whatever
lines a circuit file holds, parsing either succeeds or raises
``ArchFileError`` / ``CircuitFormatError``; never a bare ``KeyError``,
``TypeError`` or other exception the CLI would print as a traceback.
The strategies favour near-valid documents (the right keys, wire labels
and node names), where type confusion is likeliest to slip through.

And every circuit the gate constructors build is written and read back
unchanged: ``one_qubit`` accepts exactly the labels a circuit file can
hold.  ``cli.main`` ``route`` and ``verify`` on generated files exit 0,
1 or 2 and let no exception escape.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.arch import ArchFileError, parse_arch_json
from cnotroute.cli import main
from cnotroute.circuit import (ONEQ, Circuit, CircuitFormatError, Gate, cnot,
                               format_circuit, one_qubit, parse_circuit,
                               parse_mapping_json, swap_gate)

NAMES = ["A", "B", "C"]
names = st.sampled_from(NAMES + ["Z", ""])
wires = st.sampled_from(["w1", "w2", "w3", "w0", "w4", "w", "x1", "w01", "w-1", "w1.5"])
scalars = (st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
           | names | wires | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | names, inner, max_size=4),
    max_leaves=20)


def mostly(valid, other):
    """``valid`` three draws in four, else ``other``."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda pick: valid if pick else other)


pair = mostly(st.tuples(wires, names).map(list),
              st.lists(wires | names | json_values, min_size=2, max_size=2) | json_values)
pairs = mostly(st.lists(pair, min_size=3, max_size=3), st.lists(pair, max_size=4))
arch_docs = st.fixed_dictionaries(
    {"name": mostly(st.just("toy"), json_values),
     "nodes": mostly(st.sampled_from([NAMES[:1], NAMES[:2], NAMES]),
                     st.lists(names, max_size=4) | json_values),
     "edges": mostly(st.sampled_from([[], [["A", "B"]], [["A", "B"], ["B", "C"]]]),
                     st.lists(st.lists(names, min_size=2, max_size=2) | json_values,
                              max_size=5) | json_values)},
    optional={"initial_mapping": mostly(pairs, json_values)})

tokens = st.sampled_from(["qubits", "cnot", "swap", "1q", "H", "#", "0", "1", "2",
                          "3", "-1", "x", "1e3", "99999999999999999999"])
lines = st.lists(tokens | st.text(max_size=3), max_size=4).map(" ".join)
circuit_texts = st.tuples(st.sampled_from(["qubits 3", "qubits 1", "qubits 0"]) | lines,
                          st.lists(lines, max_size=6)).map(lambda t: "\n".join([t[0], *t[1]]))


@settings(max_examples=400, deadline=None, database=None)
@given(mostly(arch_docs, json_values))
def test_parse_arch_json_raises_only_arch_file_error(doc):
    try:
        parse_arch_json(json.dumps(doc))
    except ArchFileError:
        pass


@settings(max_examples=400, deadline=None, database=None)
@given(mostly(pairs, json_values))
def test_parse_mapping_json_raises_only_circuit_format_error(doc):
    try:
        parse_mapping_json(json.dumps(doc), NAMES)
    except CircuitFormatError:
        pass


@settings(max_examples=200, deadline=None, database=None)
@given(st.text(max_size=20))
def test_json_parsers_reject_arbitrary_text_with_their_own_errors(text):
    for parse, error in ((parse_arch_json, ArchFileError),
                         (lambda t: parse_mapping_json(t, NAMES), CircuitFormatError)):
        try:
            parse(text)
        except error:
            pass


@settings(max_examples=400, deadline=None, database=None)
@given(circuit_texts)
def test_parse_circuit_raises_only_circuit_format_error(text):
    try:
        parse_circuit(text)
    except CircuitFormatError:
        pass


labels = st.text(max_size=5) | st.sampled_from(["H", "Rz(0.5)", "R z", "a#b", "x\xa0y"])


@st.composite
def built_circuits(draw):
    """Circuits on 1-4 wires built through ``cnot``, ``swap_gate`` and
    ``one_qubit``; a label the constructor rejects drops its gate."""
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["cnot", "swap", "1q"]))
        if kind == "1q" or a == b:
            try:
                gates.append(one_qubit(draw(labels), a))
            except ValueError:
                pass
        else:
            gates.append((cnot if kind == "cnot" else swap_gate)(a, b))
    return Circuit(n, gates)


@settings(max_examples=300, deadline=None, database=None)
@given(built_circuits())
def test_built_circuits_round_trip_through_the_file_format(c):
    assert parse_circuit(format_circuit(c)) == c


@st.composite
def raw_gate_lists(draw):
    """A wire count and ``Gate`` tuples built directly, not through the
    constructors: mostly of a right kind on its wires, else anything."""
    n = draw(st.integers(1, 4))
    wire = st.integers(0, n - 1)
    likely = (st.builds(Gate, st.sampled_from(["cnot", "swap"]), wire, wire, st.just(""))
              | st.builds(Gate, st.just("1q"), wire, st.just(-1), labels))
    anything = st.builds(Gate, st.sampled_from(["cnot", "swap", "1q", "toffoli", "", 5]),
                         st.integers(-1, 4) | st.booleans() | st.floats(),
                         st.integers(-2, 4) | st.booleans() | st.floats(),
                         labels | st.sampled_from(["", "H", "#x", "a b"]) | st.integers())
    return n, draw(st.lists(mostly(likely, anything), max_size=4))


def test_every_circuit_that_builds_reads_back_equal():
    """Every ``Circuit`` that accepts its ``Gate`` tuples is written and
    read back unchanged; one that does not raises ValueError."""
    built, rejected = [], []

    # derandomized: the coverage asserted below depends on the draw
    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(raw_gate_lists())
    def check(case):
        n, gates = case
        try:
            c = Circuit(n, gates)
        except ValueError:
            rejected.append(gates)
            return
        assert parse_circuit(format_circuit(c)) == c
        built.append(len(c.gates))

    check()
    assert len(built) > 50 and max(built) >= 3 and len(rejected) > 50, (built, len(rejected))


@settings(max_examples=300, deadline=None, database=None)
@given(labels)
def test_one_qubit_accepts_exactly_the_labels_that_round_trip(label):
    try:
        parsed = parse_circuit(f"qubits 1\n1q {label} 0\n").gates
    except CircuitFormatError:
        parsed = None
    try:
        gate = one_qubit(label, 0)
    except ValueError:
        assert parsed != (Gate(ONEQ, 0, -1, label),)
    else:
        assert parsed == (gate,)


@st.composite
def circuit_files(draw):
    """Well-formed circuit text on 1-3 wires."""
    n = draw(st.integers(1, 3))
    lines = [f"qubits {n}"]
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a == b:
            lines.append(f"1q {draw(st.sampled_from(['H', 'T']))} {a}")
        else:
            lines.append(f"{draw(st.sampled_from(['cnot', 'swap']))} {a} {b}")
    return "\n".join(lines) + "\n"


line3 = {"name": "line3", "nodes": NAMES, "edges": [["A", "B"], ["B", "C"]],
         "initial_mapping": [["w1", "C"], ["w2", "A"], ["w3", "B"]]}


@settings(max_examples=150, deadline=None, database=None)
@given(arch=mostly(st.just(line3), mostly(arch_docs, json_values)),
       circuit=mostly(circuit_files(), circuit_texts),
       mapping=mostly(st.none(), mostly(pairs, json_values)),
       routed=st.none() | circuit_texts,
       out_mapping=st.none() | mostly(pairs, json_values))
def test_cli_route_and_verify_exit_cleanly_on_generated_files(arch, circuit, mapping,
                                                              routed, out_mapping):
    """``route`` then ``verify``, each on its own outputs unless replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)

        def put(name, text):
            (d / name).write_text(text, encoding="utf-8")
            return str(d / name)

        arch_path = put("arch.json", json.dumps(arch))
        circuit_path = put("circuit.txt", circuit)
        argv = ["route", circuit_path, "--arch", arch_path,
                "--out", str(d / "routed.txt"), "--report", str(d / "report.json")]
        if mapping is not None:
            argv += ["--mapping", put("mapping.json", json.dumps(mapping))]
        assert main(argv) in (0, 1, 2)

        if routed is not None or not (d / "routed.txt").exists():
            put("routed.txt", routed or "")
        if out_mapping is None and (d / "report.json").exists():
            out_mapping = json.loads((d / "report.json").read_text())["output_mapping"]
        argv = ["verify", circuit_path, str(d / "routed.txt"), "--arch", arch_path,
                "--out-mapping", put("out.json", json.dumps(out_mapping))]
        if mapping is not None:
            argv += ["--in-mapping", str(d / "mapping.json")]
        assert main(argv) in (0, 1, 2)
