"""End-to-end constrained synthesis, verification, and post-processing.

A linear block, a run of CNOT and SWAP gates, is routed by composing
its gates into a GF(2) matrix P, reducing the rows of P's transpose,
one per node, to a permutation state, and emitting one CNOT per row
addition and one SWAP per row exchange that reduction runs.  A block
already on edges passes through as given.  SWAPs, the input's and the
router's alike, stay atomic until post-processing picks an orientation.
The routed circuit equals the original up to the reported output
mapping.

``_stops`` is the package's one walk from a gate list to GF(2) rows: it
carries the rows of the list's linear prefix and the columns of that
prefix's inverse, one XOR or exchange per gate, and stops at every
one-qubit gate and once at the end.  ``linear_matrix`` is its last stop.
``_route_block``, the block core of both routers, takes both forms from
one walk: the rows, transposed, are what the synthesizer reduces, and
the columns of P^-1 are the rows of (P^T)^-1, the inverse the
synthesizer starts from, so it calls the unchecked loop
``heuristic._token_reduction`` with no inversion.

A ``Circuit`` checks its gates once, when it is built, and holds them
as a tuple, so no function here checks a circuit's gates again: a walk
meets only CNOT, SWAP and one-qubit gates on the circuit's wires.  The
routers and the verifier take a ``Mapping`` only, which is a bijection
by construction.  The routed gates are built as plain ``Gate`` tuples,
their two nodes distinct by construction, and each router checks them
once, in the one ``Circuit`` that holds its whole output.

One rule decides correctness for linear and mixed circuits alike.
``_moved_failure`` zips two such walks and requires, at each pair of
one-qubit gates, that the linear difference between them moves the
gate's qubit and nothing else, and at the end that it is the mapping
permutation.  ``equivalence_failure`` (and so ``verify_equivalence``)
checks the router's output against the original this way, plus edge
compliance; ``postprocess`` checks its output against its input.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import groupby
from typing import List, Optional

from .arch import ArchGraph
from .circuit import CNOT, ONEQ, SWAP, Circuit, Gate, Mapping
from .gf2 import BitMatrix, _transpose_rows
from .heuristic import _token_reduction
from .rowgraph import ADD


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
    kinds = [g.kind for g in gates]
    return kinds.count(CNOT) + 3 * kinds.count(SWAP)


def linear_matrix(gates, n: int) -> BitMatrix:
    """Compose CNOT and SWAP gates on n wires into their GF(2) matrix.

    The last stop of ``_stops`` on the unplaced wires: starting from the
    identity, each CNOT adds the control row into the target row and
    each SWAP exchanges two rows, in gate order (later gates multiply on
    the left).  Raises ValueError on a one-qubit gate, and through
    ``Circuit`` on any other gate or a wire outside 0..n-1.
    """
    for label, node, rows, _ in _stops(Circuit(n, gates).gates, range(n), n):
        if label is not None:
            raise ValueError(f"not a linear gate: 1q {label} {node}")
    return BitMatrix(n, rows)


def relabel_circuit(c: Circuit, mapping: Mapping) -> Circuit:
    """Move gates from wire indices to node indices, each keeping its kind."""
    return Circuit(len(mapping), [
        Gate(g.kind, mapping[g.a], g.b if g.kind == ONEQ else mapping[g.b], g.label)
        for g in c.gates])


def route_cnot_block(c: Circuit, graph: ArchGraph, m0: Mapping) -> RoutedResult:
    """Synthesize a block of CNOT and SWAP gates onto the architecture.

    The block is routed by ``_route_block``; a one-qubit gate raises
    ValueError.  As in ``route_general``, a circuit narrower than the
    graph is routed as if padded with idle wires.
    """
    _check_fit(c, m0, graph.n)
    gates, mt = _route_block(c.gates, graph, m0)
    return RoutedResult(Circuit(graph.n, gates), m0, mt,
                        RouteStats(cnot_weight(c.gates), cnot_weight(gates)))


def _route_block(gates, graph: ArchGraph, m0: Mapping) -> tuple:
    """(routed gates, output mapping) of a list of CNOT and SWAP gates.

    The gates are composed by one ``_stops`` walk into the block's GF(2)
    matrix P on the nodes; a one-qubit gate raises ValueError.  The
    walk's columns of P^-1 are the rows of (P^T)^-1, the inverse the
    synthesizer starts from, so nothing is inverted here.
    The output mapping is chosen by the synthesis itself: wire w ends on
    the node whose final row is the basis vector indexed by m0(w).  A
    block whose gates all sit on edges already is passed through
    verbatim, SWAPs included.  The gates must be checked already, and
    ``m0`` fit the graph; the routed gates are plain ``Gate`` tuples for
    the caller's one ``Circuit``.
    """
    n = graph.n
    for label, node, rows, cols in _stops(gates, m0, n):
        if label is not None:
            raise ValueError(f"not a linear gate: 1q {label} on node {node}")
    dist = graph.dist
    # checked gates and a fitting m0 name in-range nodes
    if all(dist[m0[a]][m0[b]] == 1 for _, a, b, _ in gates):
        return [Gate(g.kind, m0[g.a], m0[g.b]) for g in gates], m0
    rows = _transpose_rows(rows)
    # wires are distinct by construction: a row op names two nodes
    routed = [Gate(CNOT if kind == ADD else SWAP, a, b)
              for kind, a, b in _token_reduction(graph, rows, cols)]
    # rows is now a permutation: ascending rows e_0, e_1, ... name their holders
    holder = sorted(range(n), key=rows.__getitem__)
    return routed, Mapping([holder[m0[w]] for w in range(n)])


def _check_fit(c: Circuit, m0, n: int) -> None:
    """Raise ValueError unless ``c`` has at most n wires and ``m0`` is a
    ``Mapping`` onto the n nodes: what every router asks of its input."""
    if c.n_wires > n:
        raise ValueError(f"circuit has {c.n_wires} wires, architecture {n} nodes")
    if not isinstance(m0, Mapping):
        raise ValueError(f"mapping {m0!r} is a {type(m0).__name__}, not a Mapping")
    if len(m0) != n:
        raise ValueError("mapping size must match the architecture")


def _stops(gates, place, n: int):
    """Walk a gate list, yielding its linear prefix at every one-qubit gate.

    Keeps the rows of the prefix's GF(2) matrix R, with wire w placed on
    node ``place[w]``, and the columns of R^-1.  A gate is R' = E R with
    E elementary and self-inverse, so R'^-1 = R^-1 E: CNOT(c, t) adds
    row c into row t and column t into column c, and a SWAP exchanges
    both pairs.  Yields (label, node, rows, columns) at each one-qubit
    gate and (None, None, rows, columns) once at the end; the lists are
    live, so read them before advancing.
    """
    rows = [1 << i for i in range(n)]
    cols = list(rows)
    for g in gates:
        if g.kind == ONEQ:
            yield g.label, place[g.a], rows, cols
            continue
        a, b = place[g.a], place[g.b]
        if g.kind == CNOT:
            rows[b] ^= rows[a]
            cols[a] ^= cols[b]
        else:
            rows[a], rows[b] = rows[b], rows[a]
            cols[a], cols[b] = cols[b], cols[a]
    yield None, None, rows, cols


def _moved_failure(before, after, m0, mt, n: int) -> Optional[str]:
    """None if ``after`` equals ``before`` with its qubits moved by m0, then mt.

    ``before`` acts on wires placed on nodes by m0; ``after`` acts on
    nodes.  One-qubit gates are opaque: equal labels are the only thing
    known to be the same gate.  Let B and A be the linear prefixes
    before the k-th one-qubit gates, acting on node j = m0[wire] in
    ``before`` and on node x in ``after``, and Q = A B^-1.  Requiring
    row x of A to equal row j of B makes row x of Q the unit row e_j,
    and requiring column x of A^-1 to equal column j of B^-1 makes
    column j of Q the unit column e_x.  So Q carries qubit j to node x
    and mixes nothing else onto it or off it: as a unitary, Q is a wire
    move j -> x tensored with a reversible map on the other qubits, and
    Q U_j = U_x Q for any one-qubit gate U.  By induction over the
    one-qubit gates, the part of ``after`` through its k-th one-qubit
    gate is Q_k times the part of ``before`` through its k-th, P_k.
    With F and D the linear segments of ``after`` and ``before`` since
    the previous one-qubit gates, Q_k = F Q_{k-1} D^-1, so
    U_x F Q_{k-1} P_{k-1} = U_x Q_k D P_{k-1} = Q_k U_j D P_{k-1}
    = Q_k P_k.  At the end Q must be the permutation sending node m0[w]
    to mt[w], which is row mt[w] of A equal to row m0[w] of B for every
    wire w.  A Q that is a permutation at every one-qubit gate, as the
    segment check of ``perfbench/check.py`` requires, passes each test
    here, so whatever that check accepts this one accepts.
    """
    for (label, j, b_rows, b_cols), (other, x, a_rows, a_cols) in zip(
            _stops(before, m0, n), _stops(after, range(n), n)):
        if label != other:
            return "the one-qubit gates differ from the original's"
        if label is None:
            break
        if a_rows[x] != b_rows[j] or a_cols[x] != b_cols[j]:
            return (f"one-qubit gate {label} on node {x} does not act on the "
                    f"qubit that node {j} holds in the original")
    if any(a_rows[mt[w]] != b_rows[m0[w]] for w in range(n)):
        return "routed circuit is not equivalent to the original up to the output mapping"
    return None


def equivalence_failure(c: Circuit, routed: RoutedResult,
                        graph: ArchGraph) -> Optional[str]:
    """None if the routed result is sound, else a human-readable reason.

    The original may have fewer wires than the graph has nodes; the
    rest are idle.  Both mappings must be ``Mapping``s of the graph's
    size.  Every two-qubit gate of the routed circuit must sit on an
    edge, and the circuit must equal the original up to the mappings,
    one-qubit gates included (see ``_moved_failure``).
    """
    n = graph.n
    if c.n_wires > n:
        return f"original circuit has {c.n_wires} wires, architecture {n} nodes"
    if routed.circuit.n_wires != n:
        return f"routed circuit has {routed.circuit.n_wires} wires, architecture {n} nodes"
    for m in (routed.input_mapping, routed.output_mapping):
        if not isinstance(m, Mapping) or len(m) != n:
            return f"mapping {m!r} is not a Mapping onto the architecture's {n} nodes"
    # the routed Circuit holds in-range int wires, on n wires as checked above
    dist = graph.dist
    for kind, a, b, _ in routed.circuit.gates:
        if kind != ONEQ and dist[a][b] != 1:
            return (f"gate {kind} {graph.names[a]}-{graph.names[b]} "
                    "is not on an architecture edge")
    return _moved_failure(c.gates, routed.circuit.gates, routed.input_mapping,
                          routed.output_mapping, n)


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
        # a Gate is an immutable tuple, so one serves both outer CNOTs
        out.extend((ct := Gate(CNOT, c, t), Gate(CNOT, t, c), ct))
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
    pair is left.  Expansion keeps each SWAP's pair of nodes and
    cancellation only deletes gates, so edge usage is kept by
    construction and not re-checked.  Equivalence is re-checked with
    one-qubit gates in place (``_moved_failure``); a failure raises
    RuntimeError.
    """
    before = rc.circuit.gates
    gates = _cancel_pairs(_expand_swaps(list(before)))
    n = rc.circuit.n_wires
    reason = _moved_failure(before, gates, range(n), range(n), n)
    if reason is not None:
        raise RuntimeError(f"post-processing changed the circuit: {reason}")
    stats = replace(rc.stats, cnots_final=cnot_weight(gates))
    return RoutedResult(Circuit(n, gates), rc.input_mapping,
                        rc.output_mapping, stats)


def route_general(c: Circuit, graph: ArchGraph, m0: Mapping) -> RoutedResult:
    """Route a circuit of CNOT, SWAP, and opaque one-qubit gates.

    Each maximal run of CNOTs and SWAPs is one block, synthesized by
    ``_route_block`` from the previous block's output mapping; input
    SWAPs stay atomic until ``postprocess`` expands them.  One-qubit
    gates pass through on their wire's current node.  A circuit narrower
    than the graph is routed as if padded with idle wires, which still
    appear in both mappings.
    """
    _check_fit(c, m0, graph.n)
    current = m0
    out: List[Gate] = []
    for is_oneq, run in groupby(c.gates, key=lambda g: g.kind == ONEQ):
        if is_oneq:
            out.extend(Gate(ONEQ, current[g.a], -1, g.label) for g in run)
        else:
            gates, current = _route_block(list(run), graph, current)
            out.extend(gates)
    return RoutedResult(Circuit(graph.n, out), m0, current,
                        RouteStats(cnot_weight(c.gates), cnot_weight(out)))
