"""The benchmark's layer tracer against the package it traces.

``perfbench/tracer.py`` wraps the package's public functions and reads
some of them back by name.  ``Tracer._iterations`` looks up
``heuristic.build_cost_table`` and ``heuristic.loss`` with
``list.index``, so removing or renaming either breaks
``perfbench/run.py --trace 1``; this test routes one circuit under the
tracer and fails in that case.  ``layer_metrics`` reads every other
name through ``dict.get``, so a missing one reads 0 and breaks nothing.
``run.py`` prints ``values[name]`` for every per-layer metric that
``perfbench/metrics.json`` declares, so ``layer_metrics`` must return
each of them.  The tracer files are only read, never changed.
"""

import inspect
import json
import re

import cnotroute as cr

from conftest import ROOT, load_file


def test_tracer_finds_every_name_it_reads():
    tracing = load_file("perfbench_tracer", "perfbench/tracer.py")
    graph = cr.ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    circuit = cr.Circuit(4, [cr.cnot(0, 3), cr.cnot(2, 0), cr.cnot(1, 3)])
    tracer = tracing.Tracer()
    with tracer.active("test.circuit", 1):
        # called through the package namespace, which the tracer patches
        routed = cr.route_cnot_block(circuit, graph, cr.Mapping.identity(4))
    assert cr.verify_equivalence(circuit, routed, graph)
    indexed = set(re.findall(r'index\("(\w+\.\w+)"\)', inspect.getsource(tracing)))
    assert indexed == {"heuristic.build_cost_table", "heuristic.loss"}
    assert indexed <= set(tracer.names)
    table, iterations = tracer.table()
    metrics = tracing.layer_metrics(table, iterations, len(tracer.steiner_keys), 1)
    declared = json.loads((ROOT / "perfbench/metrics.json").read_text())["per_layer"]
    # run.py adds the three trace.* metrics itself, after layer_metrics
    assert {name for name in declared if not name.startswith("trace.")} <= metrics.keys()
    assert metrics["synthesis.route_cnot_block.calls"] == 1
    # the synthesizer starts from the inverse the composing walk carries:
    # the route inverts nothing, and so calls no public inverting wrapper
    assert table["gf2.invert"]["calls"] == 0
    assert table["heuristic.heuristic_token_reduction"]["calls"] == 0
