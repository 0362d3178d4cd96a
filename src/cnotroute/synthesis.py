"""End-to-end constrained synthesis, verification, and post-processing.

A CNOT block is routed by composing its gates into a GF(2) matrix P,
reducing the row graph carrying P's transpose to a permutation state,
and emitting one CNOT per logged row addition (SWAPs stay atomic until
post-processing picks an orientation).  The routed circuit equals the
original up to the reported output mapping; ``verify_equivalence``
checks exactly that, by direct matrix comparison, plus edge compliance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import List, Optional

from .arch import ArchGraph
from .circuit import CNOT, ONEQ, SWAP, Circuit, Gate, Mapping, cnot, one_qubit, swap_gate
from .gf2 import BitMatrix, mat_mul, transpose, unit_index
from .heuristic import heuristic_token_reduction
from .rowgraph import ADD, RowGraph


@dataclass(frozen=True)
class RouteStats:
    """CNOT weight (SWAP = 3) before routing, after, and after cleanup."""

    cnots_in: int
    cnots_routed: int
    cnots_final: Optional[int] = None


@dataclass(frozen=True)
class RoutedResult:
    circuit: Circuit
    input_mapping: Mapping
    output_mapping: Mapping
    stats: RouteStats


def cnot_weight(gates) -> int:
    total = 0
    for g in gates:
        if g.kind == CNOT:
            total += 1
        elif g.kind == SWAP:
            total += 3
    return total


def linear_matrix(gates, n: int) -> BitMatrix:
    """Compose CNOT and SWAP gates on n wires into their GF(2) matrix.

    Starting from the identity, each CNOT adds the control row into the
    target row and each SWAP exchanges two rows, in gate order (later
    gates multiply on the left).  Raises ValueError on any other gate.
    """
    m = BitMatrix.identity(n)
    for g in gates:
        if g.kind == CNOT:
            m.rows[g.b] ^= m.rows[g.a]
        elif g.kind == SWAP:
            m.rows[g.a], m.rows[g.b] = m.rows[g.b], m.rows[g.a]
        else:
            raise ValueError(f"not a linear gate: {g}")
    return m


def relabel_circuit(c: Circuit, mapping: Mapping) -> Circuit:
    """Move gates from wire indices to node indices."""
    out = []
    for g in c.gates:
        if g.kind == ONEQ:
            out.append(one_qubit(g.label, mapping[g.a]))
        elif g.kind == CNOT:
            out.append(cnot(mapping[g.a], mapping[g.b]))
        else:
            out.append(swap_gate(mapping[g.a], mapping[g.b]))
    return Circuit(len(mapping), out)


def route_cnot_block(c: Circuit, graph: ArchGraph, m0: Mapping) -> RoutedResult:
    """Synthesize a CNOT-only circuit onto the architecture.

    The output mapping is chosen by the synthesis itself: wire w ends on
    the node whose final row is the basis vector indexed by m0(w).  A
    block whose gates all sit on edges already is passed through
    verbatim.
    """
    n = graph.n
    if c.n_wires != n:
        raise ValueError(f"circuit has {c.n_wires} wires, architecture {n} nodes")
    if len(m0) != n:
        raise ValueError("mapping size must match the architecture")
    if not c.is_cnot_only():
        raise ValueError("route_cnot_block accepts CNOT gates only")
    relabeled = [cnot(m0[g.a], m0[g.b]) for g in c.gates]
    weight_in = len(relabeled)
    if all(graph.is_edge(g.a, g.b) for g in relabeled):
        return RoutedResult(Circuit(n, relabeled), m0, m0,
                            RouteStats(weight_in, weight_in))
    rg = RowGraph.from_matrix(graph, transpose(linear_matrix(relabeled, n)))
    gates = [cnot(a, b) if kind == ADD else swap_gate(a, b)
             for kind, a, b in heuristic_token_reduction(rg)]
    holder = [0] * n
    for u, row in enumerate(rg.rows):
        holder[unit_index(row)] = u
    mt = Mapping([holder[m0[w]] for w in range(n)])
    return RoutedResult(Circuit(n, gates), m0, mt,
                        RouteStats(weight_in, cnot_weight(gates)))


def equivalence_failure(c: Circuit, routed: RoutedResult,
                        graph: ArchGraph) -> Optional[str]:
    """None if the routed result is sound, else a human-readable reason."""
    n = graph.n
    if c.n_wires != n:
        return f"original circuit has {c.n_wires} wires, architecture {n} nodes"
    if routed.circuit.n_wires != n:
        return f"routed circuit has {routed.circuit.n_wires} wires, architecture {n} nodes"
    if len(routed.input_mapping) != n or len(routed.output_mapping) != n:
        return "mapping size does not match the architecture"
    for g in c.gates:
        if g.kind == ONEQ:
            return "verifier handles linear (CNOT/SWAP) circuits only"
    for g in routed.circuit.gates:
        if g.kind == ONEQ:
            return "verifier handles linear (CNOT/SWAP) circuits only"
        if not graph.is_edge(g.a, g.b):
            return (f"gate {g.kind} {graph.names[g.a]}-{graph.names[g.b]} "
                    f"is not on an architecture edge")
    m0 = routed.input_mapping
    mt = routed.output_mapping
    lhs = linear_matrix(routed.circuit.gates, n)
    rhs = linear_matrix(relabel_circuit(c, m0).gates, n)
    perm = BitMatrix(n)
    for w in range(n):
        perm.rows[mt[w]] = 1 << m0[w]
    if lhs != mat_mul(perm, rhs):
        return "routed circuit is not equivalent to the original up to the output mapping"
    return None


def verify_equivalence(c: Circuit, routed: RoutedResult, graph: ArchGraph) -> bool:
    """Routed == permutation * original, and every gate on an edge."""
    return equivalence_failure(c, routed, graph) is None


def complies(circuit: Circuit, graph: ArchGraph) -> bool:
    """Every two-qubit gate sits on an architecture edge."""
    return all(g.kind == ONEQ or graph.is_edge(g.a, g.b) for g in circuit.gates)


def _expand_swaps(gates: List[Gate]) -> List[Gate]:
    """Replace SWAPs by three CNOTs, oriented to abut an equal neighbour."""
    out: List[Gate] = []
    for idx, g in enumerate(gates):
        if g.kind != SWAP:
            out.append(g)
            continue
        a, b = g.a, g.b
        prev = out[-1] if out else None
        nxt = gates[idx + 1] if idx + 1 < len(gates) else None
        # a SWAP is cnot(c, t) cnot(t, c) cnot(c, t) for either orientation;
        # start or end it with the CNOT its neighbour already is
        if prev is not None and prev.kind == CNOT and {prev.a, prev.b} == {a, b}:
            c = prev.a
        elif nxt is not None and nxt.kind == CNOT and {nxt.a, nxt.b} == {a, b}:
            c = nxt.a
        else:
            c = a
        t = b if c == a else a
        out.extend((cnot(c, t), cnot(t, c), cnot(c, t)))
    return out


def _cancel_pairs(gates: List[Gate]) -> List[Gate]:
    """Cancel equal CNOT pairs across commuting gates in one left-to-right pass.

    ``on_wire[w]`` lists, in order, the indices into ``kept`` of the live
    gates on wire w.  Each CNOT(c, t) walks back along wire c past CNOTs
    with control c and another target, which commute with it.  If the
    first other gate it meets is CNOT(c, t) and every gate on wire t
    since then is a CNOT with target t (another control, since gates on
    both wires were met on wire c), everything between commutes and the
    two cancel; the earlier one leaves both wire lists at once.  SWAPs
    must already be expanded.

    The output is a fixed point: no equal pair in it has only commuting
    gates between.  Take such survivors A before B.  When B came, every
    live gate between them either survives, and commutes by assumption,
    or is cancelled later by a partner after B.  A gate of the second
    kind commutes with B too: had it not, the partner's walk would have
    stopped at the surviving B.  So B's walk reached A, or an equal gate
    between, and cancelled, a contradiction.
    """
    kept: List[Optional[Gate]] = []
    on_wire = defaultdict(list)
    for g in gates:
        if g.kind == CNOT:
            c, t = g.a, g.b
            on_c = on_wire[c]
            k = len(on_c) - 1
            while k >= 0:
                h = kept[on_c[k]]
                if h.kind != CNOT or h.a != c or h.b == t:
                    break
                k -= 1
            if k >= 0 and kept[on_c[k]] == g:
                j = on_c[k]
                on_t = on_wire[t]
                m = len(on_t) - 1
                while on_t[m] != j:
                    h = kept[on_t[m]]
                    if h.kind != CNOT or h.b != t:
                        break
                    m -= 1
                if on_t[m] == j:
                    del on_c[k]
                    del on_t[m]
                    kept[j] = None
                    continue
        on_wire[g.a].append(len(kept))
        if g.kind != ONEQ:
            on_wire[g.b].append(len(kept))
        kept.append(g)
    return [g for g in kept if g is not None]


def postprocess(rc: RoutedResult) -> RoutedResult:
    """Expand SWAPs and cancel CNOT pairs across commuting gates.

    Two equal CNOTs cancel when everything between them commutes with
    the first (disjoint supports, shared control, or shared target).
    One pass of ``_cancel_pairs`` reaches the fixed point, where no such
    pair is left.  Equivalence and edge usage are preserved by
    construction and re-checked.
    """
    before = rc.circuit.gates
    gates = _cancel_pairs(_expand_swaps(list(before)))
    n = rc.circuit.n_wires
    has_linear = any(g.kind != ONEQ for g in before)
    if has_linear:
        old = linear_matrix([g for g in before if g.kind != ONEQ], n)
        new = linear_matrix([g for g in gates if g.kind != ONEQ], n)
        if old != new:
            raise RuntimeError("post-processing changed the circuit's linear map")
    stats = replace(rc.stats, cnots_final=cnot_weight(gates))
    return RoutedResult(Circuit(n, gates), rc.input_mapping,
                        rc.output_mapping, stats)


def _partition_runs(gates: List[Gate]) -> List[tuple]:
    """Greedy maximal runs of CNOTs and of one-qubit gates, in scan order."""
    runs: List[tuple] = []
    for g in gates:
        kind = ONEQ if g.kind == ONEQ else CNOT
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(g)
        else:
            runs.append((kind, [g]))
    return runs


def route_general(c: Circuit, graph: ArchGraph, m0: Mapping) -> RoutedResult:
    """Route a circuit of CNOT, SWAP, and opaque one-qubit gates.

    Input SWAPs are pre-expanded to CNOT triples.  CNOT blocks are
    synthesized one at a time, each starting from the previous block's
    output mapping; one-qubit gates pass through on their wire's current
    node.
    """
    if c.n_wires != graph.n:
        raise ValueError(f"circuit has {c.n_wires} wires, architecture {graph.n} nodes")
    expanded: List[Gate] = []
    for g in c.gates:
        if g.kind == SWAP:
            expanded += [cnot(g.a, g.b), cnot(g.b, g.a), cnot(g.a, g.b)]
        elif g.kind in (CNOT, ONEQ):
            expanded.append(g)
        else:
            raise ValueError(f"unsupported gate kind {g.kind!r} ({g})")
    current = m0
    out: List[Gate] = []
    for kind, run in _partition_runs(expanded):
        if kind == ONEQ:
            out.extend(one_qubit(g.label, current[g.a]) for g in run)
        else:
            block = route_cnot_block(Circuit(c.n_wires, run), graph, current)
            out.extend(block.circuit.gates)
            current = block.output_mapping
    return RoutedResult(Circuit(graph.n, out), m0, current,
                        RouteStats(cnot_weight(expanded), cnot_weight(out)))
