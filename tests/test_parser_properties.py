"""Property: the file parsers fail only with the package's own errors.

Whatever JSON value an architecture or mapping file holds, and whatever
lines a circuit file holds, parsing either succeeds or raises
``ArchFileError`` / ``CircuitFormatError``; never a bare ``KeyError``,
``TypeError`` or other exception the CLI would print as a traceback.
The strategies favour near-valid documents (the right keys, wire labels
and node names), where type confusion is likeliest to slip through.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.arch import ArchFileError, parse_arch_json
from cnotroute.circuit import CircuitFormatError, parse_circuit, parse_mapping_json

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
