"""Check routed circuits from outside the router.

The package's own verifier handles linear circuits only, so mixed
circuits (CNOT plus opaque one-qubit gates) are checked here with the
package's public GF(2) and synthesis functions: the router's output
segment by segment (``routing_failure``), then postprocess's output
against it (``postprocess_failure``).

The names below are bound when this module is first imported, before
the traced run wraps the package, so checks never add spans.

Soundness of the segment check.  Relabel the original circuit onto nodes
with the input mapping m0 and split it at its one-qubit runs into linear
blocks O_1, O_2, ...; the routed output splits the same way into L_1,
L_2, ....  With P_0 = I and P_k = L_k P_{k-1} O_k^-1, the routed prefix
equals P_k times the original prefix, by induction.  If every P_k is a
permutation, then at each one-qubit run the routed state is the original
state with its qubits moved by P_k, so a one-qubit gate on wire w acts
on the same logical qubit exactly when it sits on node P_k(m0[w]); and
the final P must be the reported output mapping.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from cnotroute.circuit import ONEQ, SWAP, Circuit, parse_circuit
from cnotroute.gf2 import BitMatrix, invert, mat_mul, row_add
from cnotroute.synthesis import complies, relabel_circuit


def _apply(m: BitMatrix, g) -> None:
    """Compose one CNOT or SWAP (three CNOTs) onto ``m`` from the left."""
    if g.kind == SWAP:
        row_add(m, g.b, g.a)
        row_add(m, g.a, g.b)
        row_add(m, g.b, g.a)
    else:
        row_add(m, g.b, g.a)


def linear_matrix(gates, n: int) -> BitMatrix:
    """GF(2) matrix of a run of CNOT and SWAP gates."""
    m = BitMatrix.identity(n)
    for g in gates:
        _apply(m, g)
    return m


def _runs(gates) -> List[Tuple[bool, list]]:
    """Maximal runs as (is_one_qubit_run, gates)."""
    runs: List[Tuple[bool, list]] = []
    for g in gates:
        oneq = g.kind == ONEQ
        if runs and runs[-1][0] == oneq:
            runs[-1][1].append(g)
        else:
            runs.append((oneq, [g]))
    return runs


def _node_of(p: BitMatrix, basis: int) -> int:
    """The row of permutation p that holds basis vector ``basis``."""
    return p.rows.index(1 << basis)


def routing_failure(original: Circuit, routed, graph) -> Optional[str]:
    """None if ``routed`` (before postprocess) implements ``original``."""
    n = graph.n
    m0 = routed.input_mapping
    out = routed.circuit.gates
    if original.n_wires != n or routed.circuit.n_wires != n:
        return "wire count differs from the architecture"
    p = BitMatrix.identity(n)
    pos = 0
    for oneq, run in _runs(original.gates):
        if oneq:
            for g in run:
                if pos >= len(out) or out[pos].kind != ONEQ:
                    return f"one-qubit gate {g.label} on wire {g.a} is missing"
                h = out[pos]
                pos += 1
                node = _node_of(p, m0[g.a])
                if h.label != g.label or h.a != node:
                    return (f"one-qubit gate {g.label} on wire {g.a} landed as "
                            f"{h.label} on node {h.a}, expected node {node}")
            continue
        start = pos
        while pos < len(out) and out[pos].kind != ONEQ:
            pos += 1
        block = out[start:pos]
        for h in block:
            if not graph.is_edge(h.a, h.b):
                return f"{h.kind} {h.a}-{h.b} is not on an architecture edge"
        o_inv = invert(linear_matrix(relabel_circuit(Circuit(n, run), m0).gates, n))
        p = mat_mul(mat_mul(linear_matrix(block, n), p), o_inv)
        if not p.is_permutation():
            return f"routed block ending at gate {pos} is not a relabelled original block"
    if pos != len(out):
        return f"{len(out) - pos} routed gates left over"
    mt = routed.output_mapping
    if any(_node_of(p, m0[w]) != mt[w] for w in range(n)):
        return "output mapping differs from the routed permutation"
    return None


def _prefixes_at_oneq(gates, n: int) -> List[BitMatrix]:
    """Matrix of the linear gates before each one-qubit gate, in order."""
    m = BitMatrix.identity(n)
    out = []
    for g in gates:
        if g.kind == ONEQ:
            out.append(m.copy())
        else:
            _apply(m, g)
    out.append(m)
    return out


def _untouched(c: BitMatrix, x: int) -> bool:
    """c neither reads nor writes qubit x, so it commutes with a gate on x."""
    bit = 1 << x
    return c.rows[x] == bit and all(r & bit == 0 for i, r in enumerate(c.rows) if i != x)


def postprocess_failure(routed, final, graph) -> Optional[str]:
    """None if ``final`` equals ``routed`` as a circuit with opaque 1q gates.

    Besides edge compliance, the same (label, node) sequence of one-qubit
    gates and the same overall linear map, the linear prefixes before the
    j-th one-qubit gate, A_j in ``final`` and B_j in ``routed``, must differ
    by C_j = A_j B_j^-1 that leaves that gate's node alone.  Then each C_j
    commutes with the j-th gate and the products telescope to
    final = C_last * routed with C_last = I.
    """
    n = graph.n
    if not complies(final.circuit, graph):
        return "postprocessed circuit leaves the architecture edges"
    if (final.input_mapping != routed.input_mapping
            or final.output_mapping != routed.output_mapping):
        return "postprocess changed a mapping"
    oneq = [(g.label, g.a) for g in routed.circuit.gates if g.kind == ONEQ]
    if oneq != [(g.label, g.a) for g in final.circuit.gates if g.kind == ONEQ]:
        return "postprocess changed the one-qubit gate sequence"
    before = _prefixes_at_oneq(routed.circuit.gates, n)
    after = _prefixes_at_oneq(final.circuit.gates, n)
    if before[-1] != after[-1]:
        return "postprocess changed the linear map"
    for (label, node), a, b in zip(oneq, after, before):
        if not _untouched(mat_mul(a, invert(b)), node):
            return f"postprocess moved a CNOT on node {node} across 1q gate {label}"
    return None


def parse_failure(text: str, circuit: Circuit) -> Optional[str]:
    """None if ``text`` parses back to exactly ``circuit``."""
    parsed = parse_circuit(text)
    if parsed.n_wires != circuit.n_wires or parsed.gates != circuit.gates:
        return "circuit text does not parse back to the circuit"
    return None
