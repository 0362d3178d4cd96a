"""Routing leaves no cyclic garbage.

Everything routing allocates must be freed by reference counting alone,
so that the cyclic collector could be kept off the synthesis path
without leaking.  With the collector disabled, a mix of CNOT-only and
mixed circuits on the five devices goes through every public routing
step, and a collection afterwards must find nothing unreachable.  The
graphs, and the tree caches they hold, must be freed the same way: a
second run builds each circuit's graph anew through
``resolve_architecture`` and drops it after routing, as a command-line
route does, so a cycle through a dropped graph would be left behind.
"""

import gc
import random
import weakref

from cnotroute.arch import get_architecture, list_architectures, resolve_architecture
from cnotroute.bench import random_cnot_circuit, swap_insertion_baseline
from cnotroute.circuit import Mapping, format_circuit, parse_circuit
from cnotroute.synthesis import (postprocess, route_cnot_block, route_general,
                                 verify_equivalence)

from test_pinned_output import mixed_circuit


def test_routing_leaves_no_cyclic_garbage():
    devices = [get_architecture(name) for name in list_architectures()]
    rng = random.Random(2525)
    gc.collect()
    gc.disable()
    try:
        for k in range(25):
            graph, stock = devices[k % len(devices)]
            m0 = Mapping(stock)
            if k % 2:
                circuit = mixed_circuit(graph.n, 8 * (k % 4 + 1), rng.randrange(10**6))
                routed = route_general(circuit, graph, m0)
            else:
                circuit = random_cnot_circuit(graph.n, 8 * (k % 4 + 1), rng.randrange(10**6))
                routed = route_cnot_block(circuit, graph, m0)
                baseline = swap_insertion_baseline(circuit, graph, m0)
                assert verify_equivalence(circuit, baseline, graph)
            assert verify_equivalence(circuit, routed, graph)
            assert verify_equivalence(circuit, postprocess(routed), graph)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_graph_built_and_dropped_per_circuit_leaves_no_cyclic_garbage():
    names = list_architectures()
    rng = random.Random(2727)
    dropped = []
    gc.collect()
    gc.disable()
    try:
        for k in range(10):
            graph, stock = resolve_architecture(names[k % len(names)])
            circuit = mixed_circuit(graph.n, 24, rng.randrange(10**6))
            routed = postprocess(route_general(circuit, graph, Mapping(stock)))
            assert verify_equivalence(circuit, routed, graph)
            assert parse_circuit(format_circuit(routed.circuit)) == routed.circuit
            assert graph._steiner  # trees were grown and cached on this graph
            dropped.append(weakref.ref(graph))
            del graph, routed
        # refcounting alone freed every graph, its cache and its trees
        assert [ref() for ref in dropped] == [None] * len(dropped)
        assert gc.collect() == 0
    finally:
        gc.enable()
