"""Routing leaves no cyclic garbage.

Everything routing allocates must be freed by reference counting alone,
so that the cyclic collector could be kept off the synthesis path
without leaking.  With the collector disabled, a mix of CNOT-only and
mixed circuits on the five devices goes through every public routing
step, and a collection afterwards must find nothing unreachable.
"""

import gc
import random

from cnotroute.arch import get_architecture, list_architectures
from cnotroute.bench import random_cnot_circuit, swap_insertion_baseline
from cnotroute.circuit import Mapping
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
