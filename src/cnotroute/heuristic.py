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
there).  A node outside that support cannot be reduced to e, so its
entry is ``math.inf``, a forbidden pair of the assignment.

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
order.  ``build_cost_table`` remains the full-table reference and
prices through the same ``reduction_costs`` as the block.

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
linear assignment problem) proves it before they are fully priced.  No
entry of a column is below ``rowgraph.reduction_bound`` of its tree,
whose proof is in ``rowgraph.reduction_costs``.  Each column is
assigned exactly one row, so a trial's loss is at least the sum of its
priced columns' minima plus its unpriced columns' bounds.  Every
candidate is first trial-run and recorded (ops, rows, carried columns)
to give its bound before pricing; candidates are then priced in
ascending (bound, index) order, and pricing stops, skipping the
assignment, once the bound shows the candidate cannot beat the best
(loss, index) so far.  A lone candidate needs no bound.  The winner is
never cut short, so its full block serves the next iteration, and it is
committed from its record rather than reduced again.  The committed ops
are exactly the unpruned ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from scipy.optimize import linear_sum_assignment

from .arch import ArchGraph, steiner_entry
from .gf2 import BitMatrix, invert, transpose, vec_support
from .rowgraph import (ADD, RowOp, reduction_bound, reduction_costs,
                       reduction_recovery, tree_reduce_tracked)


class AssignmentError(ValueError):
    """Raised when no finite perfect assignment exists."""


@dataclass(frozen=True)
class CostTable:
    """entries[i][j] = op weight to reduce node nodes[i] to columns[j].

    ``columns`` are basis indices; an entry is ``math.inf`` where the
    node is outside the column's support.  The full table labels its
    rows and columns 0..n-1; the open block labels the non-basic nodes
    and unpinned basis indices it keeps, both ascending.
    """

    entries: Tuple[Tuple[float, ...], ...]
    supports: Tuple[int, ...]  # reachable terminal set per column, as a mask
    nodes: Tuple[int, ...]
    columns: Tuple[int, ...]


@dataclass(frozen=True)
class Assignment:
    by_node: Tuple[int, ...]  # basis index per table row, in row order
    total: int


def build_cost_table(graph: ArchGraph, rows: Sequence[int]) -> CostTable:
    """All n^2 reduction costs of ``rows``, one per node; ``rows`` is left unchanged."""
    n = graph.n
    inv = invert(BitMatrix(n, rows))
    entries = [[math.inf] * n for _ in range(n)]
    supports = []
    for e in range(n):
        sup = inv.rows[e]
        supports.append(sup)
        ebit = 1 << e
        roots = []
        for u in vec_support(sup):
            if rows[u] == ebit:
                entries[u][e] = 0
            else:
                roots.append(u)
        if roots:
            grown, steiner = steiner_entry(graph, sup)
            for u, c in zip(roots, reduction_costs(rows, grown, steiner, roots)):
                entries[u][e] = c
    return CostTable(tuple(tuple(r) for r in entries), tuple(supports),
                     tuple(range(n)), tuple(range(n)))


def _inverse_columns(n: int, rows: Sequence[int]) -> List[int]:
    """Column form of the inverse: per node u, the mask of e with u in inv[e].

    ``rows`` must hold exactly ``n`` rows.
    """
    return transpose(invert(BitMatrix(n, rows))).rows


def _apply_to_columns(cols: List[int], ops: Sequence[RowOp]) -> None:
    """Carry the column form through row ops: R' = E R gives R'^-1 = R^-1 E."""
    for kind, a, b in ops:
        if kind == ADD:
            cols[b] ^= cols[a]
        else:
            cols[a], cols[b] = cols[b], cols[a]


def _open_columns(graph: ArchGraph, cols: Sequence[int]) -> list:
    """(basis index, support, grown tree, Steiner points) per open column.

    ``cols`` is the column form of the inverse, as ``_inverse_columns``
    gives and ``_apply_to_columns`` carries; transposed, it gives each
    inverse row, the support.  A column is open when its support has at
    least two nodes; columns ascend.
    """
    opened = []
    for e, sup in enumerate(transpose(BitMatrix(graph.n, cols)).rows):
        if sup & (sup - 1):
            grown, steiner = steiner_entry(graph, sup)
            opened.append((e, sup, grown, steiner))
    return opened


def _column_bounds(rows: Sequence[int], opened: list) -> List[int]:
    """A lower bound on every entry of each open column.

    ``opened`` is ``_open_columns`` of the inverse of ``rows``.  Each
    bound is ``reduction_bound`` of the column's tree with the support's
    unit-row terminals; it holds at every root that holds a non-unit
    row, as the block's roots do.
    """
    basic = 0
    for u, r in enumerate(rows):
        if not r & (r - 1):
            basic |= 1 << u
    return [reduction_bound(grown, steiner, sup & basic)
            for _, sup, grown, steiner in opened]


def _open_block(graph: ArchGraph, rows: Sequence[int], opened: list,
                weights: Optional[List[int]] = None,
                bound: Optional[int] = None) -> Optional[CostTable]:
    """The cost table restricted to non-basic nodes x unpinned basis indices.

    ``rows`` holds one row per node of ``graph`` and ``opened`` is
    ``_open_columns`` of the inverse of its matrix.  With a ``bound``
    and the columns' ``weights`` (``_column_bounds``), returns None as
    soon as the block's minimum assignment total provably exceeds the
    bound.  Each column is assigned exactly one row and no entry is below
    its column's weight, so the total is at least the priced columns'
    minima plus the unpriced columns' weights.  Columns are then priced
    heaviest weight first, which raises that lower bound fastest.
    Without a bound, columns are priced in order and ``weights`` is
    unused.
    """
    n = graph.n
    # rows of an invertible matrix are nonzero, so r & (r - 1) == 0 means unit
    nodes = [u for u, r in enumerate(rows) if r & (r - 1)]
    position = [-1] * n
    nonbasic = 0
    for i, u in enumerate(nodes):
        position[u] = i
        nonbasic |= 1 << u
    order = range(len(opened))
    if bound is not None:
        low = sum(weights)
        order = sorted(order, key=weights.__getitem__, reverse=True)
    entries = [[math.inf] * len(nodes) for _ in nodes]
    for j in order:
        _, sup, grown, steiner = opened[j]
        # distinct unit rows XOR to weight |sup| >= 2, not to e_e, so at
        # least one node of the support is non-basic
        roots = vec_support(sup & nonbasic)
        costs = reduction_costs(rows, grown, steiner, roots)
        for u, c in zip(roots, costs):
            entries[position[u]][j] = c
        if bound is not None:
            low += min(costs) - weights[j]
            if low > bound:
                return None
    return CostTable(tuple(tuple(r) for r in entries),
                     tuple(column[1] for column in opened), tuple(nodes),
                     tuple(column[0] for column in opened))


def hungarian_assign(table: CostTable) -> Assignment:
    """Minimum-total bijection of the table's rows onto its columns.

    Raises ``AssignmentError`` if every bijection uses a ``math.inf``
    entry.
    """
    entries = table.entries
    if not entries:
        return Assignment((), 0)
    try:
        row_ind, col_ind = linear_sum_assignment(entries)
    except ValueError as err:  # scipy: "cost matrix is infeasible"
        raise AssignmentError("no finite perfect assignment exists") from err
    by_node = [0] * len(entries)
    total = 0
    for r, c in zip(row_ind, col_ind):
        by_node[r] = table.columns[c]
        total += entries[r][c]
    return Assignment(tuple(by_node), total)


def loss(graph: ArchGraph, rows: Sequence[int]) -> int:
    """Total cost of the cheapest node-to-basis assignment of ``rows``."""
    opened = _open_columns(graph, _inverse_columns(graph.n, rows))
    return hungarian_assign(_open_block(graph, rows, opened)).total


def _cheapest(block: CostTable) -> List[Tuple[int, int, int]]:
    """(node, basis, support mask) of the block's minimum entries, node-major.

    The minimum is finite: a non-basic node u lies in the support of some
    open column.  Were every e with u in inv[e] pinned, each such inv[e]
    would be the unit vector e_u; the inverse being invertible, there is
    then one such e, and row u of the matrix is e_e: u would be basic.
    """
    best = min(min(r) for r in block.entries)
    return [(block.nodes[i], block.columns[j], block.supports[j])
            for i, r in enumerate(block.entries)
            for j, c in enumerate(r) if c == best]


def _reduce_pair(graph: ArchGraph, rows: List[int], u: int, mask: int) -> List[RowOp]:
    """Reduce ``rows`` in place at u along the tree of ``mask``, then recover.

    Returns the ops run, reduction then recovery.
    """
    ops, tracked = tree_reduce_tracked(rows, *steiner_entry(graph, mask), u)
    return [*ops, *reduction_recovery(rows, ops, tracked)]


def heuristic_token_reduction(graph: ArchGraph, rows: List[int]) -> List[RowOp]:
    """Reduce ``rows`` to basic form in place, greedily and with look-ahead.

    ``rows`` holds one row per node of ``graph``; returns the ops run.
    Price the open block once, then loop while it has non-basic nodes:
    shortlist the block's cheapest entries and break ties by look-ahead.
    Each candidate is trial-run (reduce, recover) on its own copy of the
    rows, and its ops, rows and carried columns are recorded; its open
    columns' bounds (``_column_bounds``) sum to a lower bound on its loss.
    Candidates are then scored in ascending (bound, index) order, each
    priced from its recorded rows, and the smallest (loss, index) wins:
    the first strict minimum in candidate order, candidates being
    ordered by (node, basis).  A candidate whose bound shows it cannot
    beat the best so far (see ``_open_block``) is neither priced in full
    nor assigned, so pruning never changes the winner.  A lone candidate
    takes the same path and skips only its bounds and the assignment,
    which would decide nothing.
    The winner is committed from its record, its rows copied in and its
    ops appended, and its trial block and columns serve the next
    iteration.  Each commit makes at least one more node basic, so the
    loop runs at most n times.  The inversion on entry is the only
    singularity check; it raises ``SingularMatrixError``, basic or not,
    and a ``ValueError`` if there is not one row per node.
    """
    cols = _inverse_columns(graph.n, rows)
    block = _open_block(graph, rows, _open_columns(graph, cols))
    out: List[RowOp] = []
    while block.nodes:
        trials = []
        candidates = _cheapest(block)
        for index, (u, _, sup) in enumerate(candidates):
            trial_rows = list(rows)
            ops = _reduce_pair(graph, trial_rows, u, sup)
            trial_cols = list(cols)
            _apply_to_columns(trial_cols, ops)
            opened = _open_columns(graph, trial_cols)
            # a lone candidate wins unpriced by any bound, so it needs none
            weights = _column_bounds(trial_rows, opened) if len(candidates) > 1 else None
            trials.append((sum(weights or ()), index, ops, trial_rows, trial_cols,
                           opened, weights))
        trials.sort(key=lambda t: t[:2])
        best = None
        for low, index, ops, trial_rows, trial_cols, opened, weights in trials:
            bound = None
            if best is not None:
                # a later index must win outright, an earlier one may tie
                bound = best[0] - (index > best[1])
                if low > bound:
                    break  # every later trial's (bound, index) is larger
            trial = _open_block(graph, trial_rows, opened, weights, bound)
            if trial is not None:
                # a lone trial wins whatever its loss
                trial_loss = hungarian_assign(trial).total if len(trials) > 1 else 0
                if best is None or (trial_loss, index) < best[:2]:
                    best = (trial_loss, index, ops, trial_rows, trial_cols, trial)
        _, _, ops, best_rows, cols, block = best
        rows[:] = best_rows
        out.extend(ops)
    return out
