"""The benchmark's layer tracer against the package it traces.

``perfbench/tracer.py`` wraps the package's public functions and reads
some of them back by name: ``Tracer._iterations`` indexes
``heuristic.build_cost_table`` and ``heuristic.loss``, and
``layer_metrics`` reads one table row per traced function.  Removing or
renaming such a function breaks ``perfbench/run.py --trace 1``; this
test routes one circuit under the tracer and fails in that case.  The
tracer file is only read, never changed.
"""

import inspect
import re

import cnotroute as cr

from conftest import load_file


def test_tracer_finds_every_name_it_reads():
    tracing = load_file("perfbench_tracer", "perfbench/tracer.py")
    graph = cr.ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    circuit = cr.Circuit(4, [cr.cnot(0, 3), cr.cnot(2, 0), cr.cnot(1, 3)])
    tracer = tracing.Tracer()
    with tracer.active("test.circuit", 1):
        # called through the package namespace, which the tracer patches
        routed = cr.route_cnot_block(circuit, graph, cr.Mapping.identity(4))
    assert cr.verify_equivalence(circuit, routed, graph)
    read = set(re.findall(r'(?:get|index)\("(\w+\.\w+)"', inspect.getsource(tracing)))
    assert {"heuristic.build_cost_table", "heuristic.loss"} <= read
    assert read <= set(tracer.names)
    table, iterations = tracer.table()
    metrics = tracing.layer_metrics(table, iterations, len(tracer.steiner_keys), 1)
    assert metrics["synthesis.route_cnot_block.calls"] == 1
    # the synthesizer starts from the inverse the composing walk carries:
    # the route inverts nothing, and so calls no public inverting wrapper
    assert table["gf2.invert"]["calls"] == 0
    assert table["heuristic.heuristic_token_reduction"]["calls"] == 0
    # it reduces and recovers through rowgraph's unchecked cores, so the
    # checked public reduction functions are never called while routing
    assert table["rowgraph.tree_reduce_tracked"]["calls"] == 0
    assert table["rowgraph.reduction_recovery"]["calls"] == 0
