"""Command-line interface: route, verify, bench, arch subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnotroute
from cnotroute.cli import main
from cnotroute.circuit import parse_circuit

CIRCUIT = """\
qubits 9
cnot 0 8
cnot 3 1
cnot 7 2
"""

ARCH_FILE = {
    "name": "line3",
    "nodes": ["A", "B", "C"],
    "edges": [["A", "B"], ["B", "C"]],
    "initial_mapping": [["w1", "A"], ["w2", "B"], ["w3", "C"]],
}


def test_arch_list(capsys):
    assert main(["arch", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "9-square" in out and "ibm-q20-tokyo" in out


def test_arch_show(capsys):
    assert main(["arch", "show", "9-square"]) == 0
    out = capsys.readouterr().out
    assert "Q1 - Q2" in out and "initial mapping" in out


def test_arch_show_requires_name(capsys):
    assert main(["arch", "show"]) == 2


def test_route_and_verify_roundtrip(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text(CIRCUIT)
    routed = tmp_path / "routed.txt"
    report = tmp_path / "report.json"
    rc = main(["route", str(circ), "--arch", "9-square",
               "--out", str(routed), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verified"] is True
    assert doc["cnots_in"] == 3
    routed_circuit = parse_circuit(routed.read_text())
    assert routed_circuit.n_wires == 9

    out_map = tmp_path / "out_map.json"
    out_map.write_text(json.dumps(doc["output_mapping"]))
    rc = main(["verify", str(circ), str(routed), "--arch", "9-square",
               "--out-mapping", str(out_map)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_detects_tampering(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text(CIRCUIT)
    routed = tmp_path / "routed.txt"
    report = tmp_path / "report.json"
    main(["route", str(circ), "--arch", "9-square", "--out", str(routed),
          "--report", str(report)])
    doc = json.loads(report.read_text())
    out_map = tmp_path / "out_map.json"
    out_map.write_text(json.dumps(doc["output_mapping"]))

    lines = routed.read_text().splitlines()
    assert len(lines) > 1
    routed.write_text("\n".join(lines[:-1]) + "\n")  # drop the final gate
    rc = main(["verify", str(circ), str(routed), "--arch", "9-square",
               "--out-mapping", str(out_map)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_route_with_custom_arch_file_and_mapping(tmp_path):
    arch = tmp_path / "line3.json"
    arch.write_text(json.dumps(ARCH_FILE))
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 3\ncnot 0 2\n")
    mapping = tmp_path / "m.json"
    mapping.write_text(json.dumps([["w1", "C"], ["w2", "B"], ["w3", "A"]]))
    report = tmp_path / "report.json"
    rc = main(["route", str(circ), "--arch", str(arch),
               "--mapping", str(mapping), "--out", str(tmp_path / "r.txt"),
               "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["input_mapping"][0] == ["w1", "C"]
    assert doc["verified"] is True


def test_route_no_postprocess(tmp_path):
    circ = tmp_path / "c.txt"
    circ.write_text(CIRCUIT)
    report = tmp_path / "report.json"
    rc = main(["route", str(circ), "--arch", "9-square",
               "--out", str(tmp_path / "r.txt"), "--no-postprocess",
               "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["cnots_final"] is None


def test_route_general_circuit_is_verified(tmp_path):
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 9\n1q H 0\ncnot 0 8\n")
    report = tmp_path / "report.json"
    rc = main(["route", str(circ), "--arch", "9-square",
               "--out", str(tmp_path / "r.txt"), "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["verified"] is True


def _route_with_report(tmp_path, text, arch):
    circ = tmp_path / "c.txt"
    circ.write_text(text)
    routed = tmp_path / "routed.txt"
    report = tmp_path / "report.json"
    rc = main(["route", str(circ), "--arch", arch, "--out", str(routed),
               "--report", str(report)])
    doc = json.loads(report.read_text())
    out_map = tmp_path / "out_map.json"
    out_map.write_text(json.dumps(doc["output_mapping"]))
    return rc, doc, circ, routed, out_map


def test_verify_rejects_one_qubit_gate_on_the_wrong_node(tmp_path, capsys):
    rc, doc, circ, routed, out_map = _route_with_report(
        tmp_path, "qubits 9\ncnot 0 8\n1q H 0\ncnot 3 1\n", "9-square")
    assert rc == 0 and doc["verified"] is True
    lines = routed.read_text().splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("1q ")]
    node = int(lines[i].split()[2])
    lines[i] = f"1q H {(node + 1) % 9}"
    routed.write_text("\n".join(lines) + "\n")
    rc = main(["verify", str(circ), str(routed), "--arch", "9-square",
               "--out-mapping", str(out_map)])
    assert rc == 1
    assert "FAIL: one-qubit gate H" in capsys.readouterr().out


def test_route_narrower_circuit_pads_idle_wires(tmp_path, capsys):
    rc, doc, circ, routed, out_map = _route_with_report(
        tmp_path, "qubits 3\ncnot 0 2\n1q H 1\ncnot 2 0\ncnot 1 2\n",
        "ibm-q20-tokyo")
    assert rc == 0
    assert doc["verified"] is True
    assert len(doc["input_mapping"]) == len(doc["output_mapping"]) == 20
    assert parse_circuit(routed.read_text()).n_wires == 20
    rc = main(["verify", str(circ), str(routed), "--arch", "ibm-q20-tokyo",
               "--out-mapping", str(out_map)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_route_rejects_wider_circuit(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 10\ncnot 0 9\n")
    rc = main(["route", str(circ), "--arch", "9-square",
               "--out", str(tmp_path / "r.txt")])
    assert rc == 2
    assert "10 wires, architecture 9 nodes" in capsys.readouterr().err


def test_bench_json(capsys):
    rc = main(["bench", "--arch", "9-square", "--counts", "4", "--trials", "2",
               "--seed", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["rows"][0]["gate_count"] == 4


def test_bench_json_equals_the_checked_in_sample(capsys):
    # the report format, key names and rounding included, is pinned by a file
    sample = Path(__file__).resolve().parents[1] / "tools" / "bench_9-square.json"
    rc = main(["bench", "--arch", "9-square", "--counts", "4", "16", "--trials", "5",
               "--seed", "3", "--json"])
    assert rc == 0
    assert capsys.readouterr().out == sample.read_text(encoding="utf-8")


def test_bench_table(capsys):
    rc = main(["bench", "--arch", "9-square", "--counts", "4", "--trials", "1",
               "--seed", "3", "--baseline", "none"])
    assert rc == 0
    assert "architecture: 9-square" in capsys.readouterr().out


def test_missing_file_reports_error(capsys):
    rc = main(["route", "nope.txt", "--arch", "9-square"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["route", "c.txt", "--arch", "16square"],
                                  ["arch", "show", "nope"]])
def test_an_unknown_arch_names_the_built_ins(tmp_path, capsys, argv):
    # a directory is not an architecture file either
    for arg in (argv[-1], str(tmp_path)):
        assert main([*argv[:-1], arg]) == 2
        err = capsys.readouterr().err
        built_ins = ", ".join(cnotroute.list_architectures())
        assert err == f"error: {arg!r} is neither a built-in ({built_ins}) nor a file\n"


def test_bench_with_no_jobs_reports_error(capsys):
    rc = main(["bench", "--arch", "9-square", "--counts", "4", "--trials", "1",
               "--jobs", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jobs must be >= 1" in err


def test_bench_with_repeated_counts_reports_error(capsys):
    rc = main(["bench", "--arch", "9-square", "--counts", "4", "4", "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "without repeats" in err
    assert "Traceback" not in err


def test_arch_file_with_wrong_types_is_an_error_not_a_traceback(tmp_path):
    arch = tmp_path / "bad.json"
    arch.write_text(json.dumps({"name": "x", "nodes": 5, "edges": []}))
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 5\ncnot 0 1\n")
    src = str(Path(cnotroute.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "cnotroute.cli", "route", "--arch", str(arch), str(circ)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "error:" in done.stderr and "nodes must be a list" in done.stderr
    assert "Traceback" not in done.stderr


def test_mapping_with_non_string_node_is_an_error_not_a_traceback(tmp_path):
    arch = tmp_path / "line3.json"
    arch.write_text(json.dumps(ARCH_FILE))
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 3\ncnot 0 2\n")
    mapping = tmp_path / "m.json"
    mapping.write_text(json.dumps([["w1", ["A"]], ["w2", "B"], ["w3", "C"]]))
    src = str(Path(cnotroute.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "cnotroute.cli", "route", "--arch", str(arch),
         "--mapping", str(mapping), str(circ)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "error:" in done.stderr and "must be a string" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flag", ["--arch", "--mapping"])
def test_deeply_nested_json_is_an_error_not_a_traceback(tmp_path, flag):
    files = {"--arch": tmp_path / "line3.json", "--mapping": tmp_path / "m.json"}
    files["--arch"].write_text(json.dumps(ARCH_FILE))
    files["--mapping"].write_text(json.dumps([["w1", "A"], ["w2", "B"], ["w3", "C"]]))
    files[flag].write_text("[" * 100000)
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 3\ncnot 0 2\n")
    src = str(Path(cnotroute.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "cnotroute.cli", "route", "--arch", str(files["--arch"]),
         "--mapping", str(files["--mapping"]), str(circ)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "error:" in done.stderr and "not valid JSON" in done.stderr
    assert "Traceback" not in done.stderr
