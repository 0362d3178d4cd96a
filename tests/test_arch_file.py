"""Architecture files with values of the wrong JSON type."""

import json
import shutil
import sys

import pytest

from cnotroute.arch import ArchFileError, get_architecture, parse_arch_json

from conftest import ROOT, load_file

GOOD = {
    "name": "toy",
    "nodes": ["A", "B", "C"],
    "edges": [["A", "B"], ["B", "C"]],
    "initial_mapping": [["w1", "B"], ["w2", "A"], ["w3", "C"]],
}


@pytest.mark.parametrize("doc, message", [
    ([], "JSON object"),
    (5, "JSON object"),
    ({**GOOD, "nodes": 5}, "nodes must be a list"),
    ({**GOOD, "nodes": "ABC"}, "nodes must be a list"),
    ({**GOOD, "nodes": ["A", 1, "C"]}, "nodes must be a list"),
    ({**GOOD, "nodes": ["A", ["B"], "C"]}, "nodes must be a list"),
    ({**GOOD, "edges": 5}, "edges must be a list"),
    ({**GOOD, "edges": {"A": "B"}}, "edges must be a list"),
    ({**GOOD, "edges": [["A", "B"], "BC"]}, "malformed edge"),
    ({**GOOD, "edges": [["A", "B"], 7]}, "malformed edge"),
    ({**GOOD, "edges": [["A", "B"], ["B", "C", "A"]]}, "malformed edge"),
    ({**GOOD, "edges": [["A", "B"], [["B"], "C"]]}, "malformed edge"),
    ({**GOOD, "initial_mapping": 5}, "initial_mapping must be a list"),
    ({**GOOD, "initial_mapping": {"w1": "A"}}, "initial_mapping must be a list"),
    ({**GOOD, "initial_mapping": [["w1", "B"], 3, ["w3", "C"]]}, "malformed mapping"),
    ({**GOOD, "initial_mapping": [["w1", ["B"]], ["w2", "A"], ["w3", "C"]]},
     "unknown node"),
    ({**GOOD, "name": 5}, "name must be a string"),
    ({**GOOD, "name": None}, "name must be a string"),
    ({**GOOD, "name": ["toy"]}, "name must be a string"),
])
def test_wrong_types_raise_arch_file_error(doc, message):
    with pytest.raises(ArchFileError, match=message):
        parse_arch_json(json.dumps(doc))


@pytest.mark.parametrize("label", ["w01", "w+1", "w 1", "w1_0", "w\u0663"])
def test_malformed_wire_label_raises_arch_file_error(label):
    doc = {**GOOD, "initial_mapping": [[label, "B"], ["w2", "A"], ["w3", "C"]]}
    with pytest.raises(ArchFileError, match="must look like"):
        parse_arch_json(json.dumps(doc))


def test_deeply_nested_json_raises_arch_file_error():
    with pytest.raises(ArchFileError, match="not valid JSON"):
        parse_arch_json("[" * 100000)


# Python refuses to convert an integer of more than 4,300 digits with a
# plain ValueError, not a JSONDecodeError
LONG_NUMBER = [
    pytest.param('{"name": "x", "nodes": ["A"], "edges": [], "pad": ' + "1" * 5000 + "}",
                 id="long number in object"),
    pytest.param("[" + "1" * 5000 + "]", id="long number in list"),
]


@pytest.mark.parametrize("text", LONG_NUMBER)
def test_oversized_json_number_raises_arch_file_error(text):
    with pytest.raises(ArchFileError, match="not valid JSON"):
        parse_arch_json(text)


def test_a_copy_loaded_under_another_name_reads_its_own_device_files(tmp_path):
    shutil.copytree(ROOT / "src" / "cnotroute", tmp_path / "cnotroute",
                    ignore=shutil.ignore_patterns("__pycache__"))
    device = tmp_path / "cnotroute" / "archs" / "ibm-qx5.json"
    doc = json.loads(device.read_text("utf-8"))
    device.write_text(json.dumps({**doc, "name": "ibm-qx5 copy"}), "utf-8")
    try:
        copy = load_file("ab_route", "tools/ab_route.py").load_tree(str(tmp_path), "cnotroute_copy")
        assert copy.get_architecture("ibm-qx5")[0].name == "ibm-qx5 copy"
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "cnotroute_copy"]:
            del sys.modules[name]
    assert get_architecture("ibm-qx5")[0].name == "ibm-qx5"
