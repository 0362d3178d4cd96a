"""Cost table, assignment loss, and the greedy token-reduction synthesizer.

Every iteration of the synthesizer prices each remaining reduction
(node, basis vector) as the op weight of its tracked reduction plus
recovery, then commits the candidate whose resulting state has the
cheapest perfect node-to-basis assignment.  All nodes reducible to one
basis index e share a terminal set, the support of row e of the inverse,
and so one Steiner tree: ``rowgraph.reduction_costs`` prices every root
of that tree in one pass, from values on its directed edges that several
roots share, instead of rooting and replaying the tree once per node
(the recurrence, and the invariant that makes it exact, are documented
there).

Only the *open block* of the cost table is priced: the non-basic nodes
against the basis indices e whose inverse row is not a unit vector.  A
basic node u holding e_f is the only support of row f of the inverse
(the unique row combination yielding e_f is {u}), so row f is the unit
vector e_u and column f of the full table has a single finite entry,
(u, f) = 0.  Every finite assignment therefore pins u to f at cost 0,
and a non-basic node can never be sent to f.  Basic nodes and pinned
indices are in bijection, so the block is square; its minimum
assignment total equals the full table's, and its cheapest entries are
the full table's cheapest entries over non-basic rows, in the same
order.  ``build_cost_table`` and ``cost`` remain the full-table
reference and price through the same ``reduction_costs`` as the block.

The synthesizer inverts the matrix once and then carries the inverse,
in column form: per node u, the mask of basis indices e whose inverse
row contains u, which are exactly the e that u can be reduced to.  A
row operation is R' = E R with E elementary and self-inverse, so
R'^-1 = R^-1 E: ADD(a, b) (row a ^= row b) adds column a of the inverse
into column b, and SWAP(a, b) exchanges the two columns.  The update is
exact, so the carried columns always equal the transposed inverse of
the current matrix, and the block reads its supports off them in one
transposition pass instead of a fresh Gauss-Jordan elimination.

Tied cheapest entries are broken by look-ahead, scored by the loss of
each candidate's resulting state; the smallest (loss, candidate index)
wins, the first strict minimum in candidate order.  Most candidates
lose, and a column-minimum bound (the standard lower bound of the
linear assignment problem) proves it before they are fully priced:
``reduction_costs`` adds non-negative recovery weights to the schedule
weight |V| - 1 + 2|S| of a column's tree, and each column is assigned
exactly one row, so a trial's loss is at least the sum of its priced
columns' minima plus its unpriced columns' schedule weights.  Every
candidate is first trial-run and recorded (ops, rows, carried columns)
to give its bound before pricing; candidates are then priced in
ascending (bound, index) order, and pricing stops, skipping the
assignment, once the bound shows the candidate cannot beat the best
(loss, index) so far.  The winner is never cut short, so its full block
serves the next iteration, and it is committed from its record rather
than reduced again.  The committed ops are exactly the unpruned ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from scipy.optimize import linear_sum_assignment

from .arch import ArchGraph, gen_steiner, steiner_entry
from .gf2 import SingularMatrixError, invert, transpose, vec_support
from .rowgraph import (ADD, RowGraph, RowOp, reduction_costs,
                       reduction_recovery, tree_reduce_tracked)


class AssignmentError(ValueError):
    """Raised when no finite perfect assignment exists."""


def max_tree_cost(n: int) -> int:
    """Worst-case op weight of reducing one node on an n-node graph."""
    return 6 * (n - 2) + 1 if n >= 2 else 1


def infinite_cost(n: int) -> int:
    """Sentinel for unreachable (node, basis) pairs.

    Set to n * (n * max_tree_cost) + 1 so a full assignment of finite
    entries is always cheaper than touching a single sentinel.
    """
    return n * (n * max_tree_cost(n)) + 1


@dataclass(frozen=True)
class CostTable:
    """entries[i][j] = op weight to reduce node nodes[i] to columns[j].

    ``columns`` are basis indices and ``n`` is the graph size.  The full
    table labels its rows and columns 0..n-1 (the default); the open
    block labels the non-basic nodes and unpinned basis indices it
    keeps, both ascending.
    """

    n: int
    entries: Tuple[Tuple[int, ...], ...]
    infinite: int
    supports: Tuple[Tuple[int, ...], ...]  # reachable terminal set per column
    nodes: Optional[Tuple[int, ...]] = None
    columns: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        for field in ("nodes", "columns"):
            if getattr(self, field) is None:
                object.__setattr__(self, field, tuple(range(len(self.entries))))


@dataclass(frozen=True)
class Assignment:
    by_node: Tuple[int, ...]  # basis index per table row, in row order
    total: int


def cost(rg: RowGraph, u: int, e: int) -> int:
    """Reduction cost for one (node, basis vector) pair.

    The op weight (SWAP counts as 3) of the tracked reduction and
    recovery; the row graph is untouched.  Returns the table's infinite
    sentinel when no row combination containing u yields e.
    """
    n = rg.graph.n
    inv = invert(rg.matrix())
    if inv is None:
        raise SingularMatrixError("row graph is not reversible")
    if not (inv.rows[e] >> u) & 1:
        return infinite_cost(n)
    if rg.rows[u] == 1 << e:
        return 0
    grown, steiner, _ = steiner_entry(rg.graph, vec_support(inv.rows[e]))
    return reduction_costs(rg.rows, grown, steiner, [u])[0]


def build_cost_table(rg: RowGraph) -> CostTable:
    """All n^2 reduction costs; the row graph is left unchanged."""
    graph = rg.graph
    n = graph.n
    inv = invert(rg.matrix())
    if inv is None:
        raise SingularMatrixError("row graph is not reversible")
    sentinel = infinite_cost(n)
    entries = [[sentinel] * n for _ in range(n)]
    supports = []
    rows = rg.rows
    for e in range(n):
        sup = vec_support(inv.rows[e])
        supports.append(sup)
        ebit = 1 << e
        roots = []
        for u in sup:
            if rows[u] == ebit:
                entries[u][e] = 0
            else:
                roots.append(u)
        if roots:
            grown, steiner, _ = steiner_entry(graph, sup)
            for u, c in zip(roots, reduction_costs(rows, grown, steiner, roots)):
                entries[u][e] = c
    return CostTable(n, tuple(tuple(r) for r in entries), sentinel,
                     tuple(supports))


def _inverse_columns(rg: RowGraph) -> List[int]:
    """Column form of the inverse: per node u, the mask of e with u in inv[e]."""
    inv = invert(rg.matrix())
    if inv is None:
        raise SingularMatrixError("row graph is not reversible")
    return transpose(inv).rows


def _apply_to_columns(cols: List[int], ops: Sequence[RowOp]) -> None:
    """Carry the column form through row ops: R' = E R gives R'^-1 = R^-1 E."""
    for op in ops:
        a, b = op.a, op.b
        if op.kind == ADD:
            cols[b] ^= cols[a]
        else:
            cols[a], cols[b] = cols[b], cols[a]


def _open_columns(graph: ArchGraph, cols: Sequence[int]) -> list:
    """(basis index, support, grown tree, Steiner points) per open column.

    ``cols`` is the column form of the inverse, as ``_inverse_columns``
    gives and ``_apply_to_columns`` carries.  A column is open when its
    inverse row, the support, has at least two nodes; columns ascend.
    """
    # transpose the columns into each inverse row's support, ascending
    sups = [[] for _ in range(graph.n)]
    for u, col in enumerate(cols):
        while col:
            low = col & -col
            sups[low.bit_length() - 1].append(u)
            col ^= low
    opened = []
    for e, sup in enumerate(sups):
        if len(sup) >= 2:
            sup = tuple(sup)
            grown, steiner, _ = steiner_entry(graph, sup)
            opened.append((e, sup, grown, steiner))
    return opened


def _schedule_weight(grown, steiner) -> int:
    """|V| - 1 + 2|S|: the least entry any root of the tree can be priced at."""
    return len(grown) - 1 + 2 * len(steiner)


def _open_block(rg: RowGraph, cols: Sequence[int],
                bound: Optional[int] = None) -> Optional[CostTable]:
    """The cost table restricted to non-basic nodes x unpinned basis indices.

    ``cols`` is the column form of the inverse of ``rg``'s matrix.  With
    a ``bound``, returns None as soon as the block's minimum assignment
    total provably exceeds it.  Each column is assigned exactly one row,
    and every entry of a column is at least its tree's schedule weight
    (``reduction_costs`` adds recovery weights, never negative), so the
    total is at least the priced columns' minima plus the unpriced
    columns' schedule weights.  Columns are priced heaviest schedule
    first, which raises that lower bound fastest.
    """
    graph = rg.graph
    n = graph.n
    rows = rg.rows
    # rows of an invertible matrix are nonzero, so r & (r - 1) == 0 means unit
    nodes = [u for u, r in enumerate(rows) if r & (r - 1)]
    position = [-1] * n
    for i, u in enumerate(nodes):
        position[u] = i
    opened = _open_columns(graph, cols)
    weights = [_schedule_weight(grown, steiner) for _, _, grown, steiner in opened]
    low = sum(weights)
    if bound is not None and low > bound:
        return None
    sentinel = infinite_cost(n)
    entries = [[sentinel] * len(nodes) for _ in nodes]
    for j in sorted(range(len(opened)), key=weights.__getitem__, reverse=True):
        _, sup, grown, steiner = opened[j]
        # distinct unit rows XOR to weight len(sup) >= 2, not to e_e, so
        # at least one node of the support is non-basic
        roots = [u for u in sup if position[u] >= 0]
        costs = reduction_costs(rows, grown, steiner, roots)
        for u, c in zip(roots, costs):
            entries[position[u]][j] = c
        if bound is not None:
            low += min(costs) - weights[j]
            if low > bound:
                return None
    return CostTable(n, tuple(tuple(r) for r in entries), sentinel,
                     tuple(sup for _, sup, _, _ in opened), tuple(nodes),
                     tuple(e for e, _, _, _ in opened))


def hungarian_assign(table: CostTable) -> Assignment:
    """Minimum-total bijection of the table's rows onto its columns."""
    entries = table.entries
    if not entries:
        return Assignment((), 0)
    row_ind, col_ind = linear_sum_assignment(entries)
    by_node = [0] * len(entries)
    total = 0
    for r, c in zip(row_ind, col_ind):
        value = entries[r][c]
        if value >= table.infinite:
            raise AssignmentError("no finite perfect assignment exists")
        by_node[r] = table.columns[c]
        total += value
    return Assignment(tuple(by_node), total)


def loss(rg: RowGraph) -> int:
    """Total cost of the cheapest node-to-basis assignment."""
    return hungarian_assign(_open_block(rg, _inverse_columns(rg))).total


def _cheapest(block: CostTable) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """(node, basis, support) of the block's minimum entries, node-major."""
    best = min(min(r) for r in block.entries)
    if best >= block.infinite:
        raise AssignmentError("no reducible pair found; state corrupt")
    return [(block.nodes[i], block.columns[j], block.supports[j])
            for i, r in enumerate(block.entries)
            for j, c in enumerate(r) if c == best]


def _reduce_pair(rg: RowGraph, u: int, e: int,
                 terminals: FrozenSet[int]) -> None:
    tree = gen_steiner(rg.graph, terminals, u)
    ops, tracked = tree_reduce_tracked(rg, tree)
    reduction_recovery(rg, ops, tracked, tree)


def heuristic_token_reduction(rg: RowGraph) -> List[RowOp]:
    """Reduce the row graph to basic form, greedily and with look-ahead.

    Loop until basic: price the open block and shortlist its cheapest
    entries.  A lone candidate is committed at once.  Ties are broken by
    look-ahead: each candidate is trial-run (reduce, recover), its ops,
    rows and carried columns are recorded, its open columns' trees give
    a lower bound on its loss, and the state is rolled back.  Candidates
    are then scored in ascending (bound, index) order, each with the
    row graph holding its trial state, and the smallest (loss, index)
    wins: the first strict minimum in candidate order, candidates being
    ordered by (node, basis).  A candidate whose bound shows it cannot
    beat the best so far (see ``_open_block``) is neither priced in full
    nor assigned, so pruning never changes the winner.  The winner is
    committed from its record, rows restored and ops appended, and its
    trial block and columns serve the next iteration.  Each commit makes
    at least one more node basic, so the loop runs at most n times.  The
    inversion on entry is the only singularity check; it raises
    ``SingularMatrixError``, basic or not.
    """
    cols = _inverse_columns(rg)
    start = rg.mark()
    block = None
    while not rg.is_basic():
        if block is None:
            block = _open_block(rg, cols)
        candidates = _cheapest(block)
        mark = rg.mark()
        if len(candidates) == 1:
            u, e, sup = candidates[0]
            _reduce_pair(rg, u, e, frozenset(sup))
            _apply_to_columns(cols, rg.op_log[mark:])
            block = None
            continue
        base = list(rg.rows)
        trials = []
        for index, (u, e, sup) in enumerate(candidates):
            _reduce_pair(rg, u, e, frozenset(sup))
            ops = rg.op_log[mark:]
            trial_cols = list(cols)
            _apply_to_columns(trial_cols, ops)
            low = sum(_schedule_weight(grown, steiner) for _, _, grown, steiner
                      in _open_columns(rg.graph, trial_cols))
            trials.append((low, index, ops, list(rg.rows), trial_cols))
            rg.rows[:] = base
            del rg.op_log[mark:]
        trials.sort(key=lambda t: t[:2])
        best = None
        for low, index, ops, rows, trial_cols in trials:
            bound = None
            if best is not None:
                # a later index must win outright, an earlier one may tie
                bound = best[0] - (index > best[1])
                if low > bound:
                    break  # every later trial's (bound, index) is larger
            rg.rows[:] = rows
            rg.op_log.extend(ops)
            trial = _open_block(rg, trial_cols, bound)
            if trial is not None:
                trial_loss = hungarian_assign(trial).total
                if best is None or (trial_loss, index) < best[:2]:
                    best = (trial_loss, index, ops, rows, trial_cols, trial)
            rg.rows[:] = base
            del rg.op_log[mark:]
        _, _, ops, rows, cols, block = best
        rg.rows[:] = rows
        rg.op_log.extend(ops)
    return list(rg.op_log[start:])
