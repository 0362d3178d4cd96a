"""Cost table, assignment loss, and the greedy token-reduction synthesizer.

Every iteration of the synthesizer prices each remaining reduction
(node, basis vector) as the op weight of its tracked reduction plus
recovery, then commits the candidate whose resulting state has the
cheapest perfect node-to-basis assignment.  All nodes reducible to one
basis index e share a terminal set, the support of row e of the inverse,
and so one Steiner tree: ``rowgraph._costs`` prices every root of that
tree in one pass, from values on its directed edges that several roots
share, instead of rooting and replaying the tree once per node (the
recurrence, and the invariant that makes it exact, are documented
there).  A node outside that support cannot be reduced to e, so its
entry is ``math.inf``, a forbidden pair of the assignment.  The trees
are read off the graph's tree cache (``arch._SteinerCache``: an entry
per terminal mask, grown on a miss, and its ``tree`` method to build an
entry's tree).  They are trees with terminal leaves by the growth proof
in ``arch``, so ``rowgraph``'s ``_costs``, ``_reduce_tracked`` and
``_recover`` price, reduce along and recover them without checks.

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
prices through the same ``rowgraph._costs`` as the block.

The synthesizer starts from the rows of the inverse and carries the
inverse from there in both forms.  ``heuristic_token_reduction`` gets
those rows from one inversion, which is also its singularity check.
``synthesis._route_block`` gets them from the walk that composed the
block (``synthesis._stops``), whose columns of P^-1 are the rows of
(P^T)^-1, and calls the loop, ``_token_reduction``, directly.  The two
forms are its rows, the supports (``sups[e]``, the nodes whose
rows XOR to e_e), and its columns (``cols[u]``, the basis indices e
whose inverse row contains u).  A row operation is R' = E R with E
elementary and self-inverse, so R'^-1 = R^-1 E: ADD(a, b) (row a ^=
row b) adds column a of the inverse into column b, and SWAP(a, b)
exchanges the two columns.  Since e is in ``cols[u]`` exactly when u is
in ``sups[e]``, the columns name the rows to touch: ADD(a, b) flips bit
b of each row e in ``cols[a]``, and SWAP(a, b) flips bits a and b of
each row in ``cols[a] ^ cols[b]``, the rows where the two bits differ.
The update is exact, so both forms always equal the inverse of the
current matrix, and the block reads its supports off the carried rows
with neither a fresh Gauss-Jordan elimination nor a transposition.

Each open column is recorded with the lower bound on its entries that
``rowgraph._costs`` proves, taken when the column is opened
(``_open_columns``) from the terms its tree cache entry stores and the
unit rows, with no tree built: only the columns priced build
theirs, from the entry the record holds.

A step needs the whole block only to score tied candidates.  Its
cheapest entries alone decide the step when one is cheapest, and
``_cheapest_bounded`` finds them without the block: it prices columns in
ascending bound order and stops at the first bound above the running
minimum, since no entry of that column or a later one can reach it.  A
bound equal to the minimum is priced, so every tied entry is found.

Tied cheapest entries are broken by look-ahead, scored by the loss of
each candidate's resulting state, as in the paper; but where the paper
scores every tied candidate, only the ``_PRICED_TRIALS`` (3) with the
lowest lower bounds on their loss compete.  A column-minimum bound (the
standard lower bound of the linear assignment problem; Burkard,
Dell'Amico & Martello, *Assignment Problems*, ch. 4) gives each
candidate's: each column is assigned exactly one row, so a trial's loss
is at least the sum of its priced columns' minima plus its unpriced
columns' bounds.  Every candidate is first trial-run and recorded (ops,
rows, carried inverse) to give its bound with no column priced, and
candidates are sorted by (bound, index).  The first three are priced in
that order, and the smallest (loss, index) among them wins, the first
strict minimum in candidate order.  Pricing stops, skipping the
assignment, once the bound shows the candidate cannot beat the best
(loss, index) so far, so this pruning never changes the winner of the
three.  The winner is never cut short, so its full block gives the next
step's cheapest entries, and it is committed from its record rather
than reduced again.  A step with three or fewer candidates is the
paper's rule; with more, the lowest-bound trial is the winner most of
the time, and ``tools/tiebreak.txt`` gives what the cut costs in CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .arch import ArchGraph, SteinerEntry
from .gf2 import BitMatrix, _transpose_rows, invert, vec_support
from .rowgraph import ADD, RowOp, _costs, _recover, _reduce_tracked

# tie trials priced per step, lowest (bound, index) first; None prices all
_PRICED_TRIALS = 3


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
    for e, sup in enumerate(inv.rows):
        ebit = 1 << e
        roots = []
        for u in vec_support(sup):
            if rows[u] == ebit:
                entries[u][e] = 0
            else:
                roots.append(u)
        if roots:
            built = graph._steiner.tree(graph._steiner[sup], sup)
            for u, c in zip(roots, _costs(rows, *built, roots)):
                entries[u][e] = c
    return CostTable(tuple(tuple(r) for r in entries), tuple(inv.rows),
                     tuple(range(n)), tuple(range(n)))


def _carry_inverse(sups: List[int], cols: List[int], ops: Sequence[RowOp]) -> None:
    """Carry both forms of the inverse through row ops: R' = E R gives R'^-1 = R^-1 E.

    Each op changes one or two columns, and the inverse rows it changes
    are those the columns name (see the module docstring).
    """
    for kind, a, b in ops:
        if kind == ADD:
            flip, touched = 1 << b, cols[a]
            cols[b] ^= touched
        else:
            flip, touched = 1 << a | 1 << b, cols[a] ^ cols[b]
            cols[a], cols[b] = cols[b], cols[a]
        for e in vec_support(touched):
            sups[e] ^= flip


def _open_columns(graph: ArchGraph, sups: Sequence[int]) -> list:
    """(basis index, support, bound, tree entry) per open column, columns ascending.

    ``sups`` holds the rows of the inverse of some rows, as ``invert``
    gives them and ``_carry_inverse`` carries them: row e is the support
    of column e, read as it is, with no transposition.  A column is open
    when its support has at least two nodes.  The entry is the support's
    tree cache entry, looked up (and grown on a miss) but not built;
    pricing and reduction build it from the entry held here, so a cache
    clear in between does not grow it again.  The bound is the one
    proved in ``rowgraph._costs`` on every root that holds a
    non-unit row, as the block's roots do: the entry's weight plus the
    count of its ``inner`` terminals that hold a unit row.  Node u holds
    the unit row e_f exactly when inverse row f is e_u (row f of R^-1 R
    is row u of R, and row u of R R^-1 is row f of R^-1), so the unit
    rows are read off the columns that are not open.
    """
    cache = graph._steiner
    units = 0
    opened = []
    for e, sup in enumerate(sups):
        if sup & (sup - 1):
            opened.append((e, sup, cache[sup]))
        else:
            units |= sup
    return [(e, sup, entry.weight + (units & entry.inner).bit_count(), entry)
            for e, sup, entry in opened]


def _open_block(graph: ArchGraph, rows: Sequence[int], opened: list,
                cutoff: float = math.inf) -> Optional[CostTable]:
    """The cost table restricted to non-basic nodes x unpinned basis indices.

    ``rows`` holds one row per node of ``graph`` and ``opened`` is
    ``_open_columns`` of the inverse of its matrix.  Returns None as soon
    as the block's minimum assignment total provably exceeds ``cutoff``.
    Each column is assigned exactly one row and no entry is below its
    column's bound, so the total is at least the priced columns' minima
    plus the unpriced columns' bounds.  Columns are priced heaviest bound
    first, which raises that sum fastest.  The sum only rises, to the sum
    of all minima, so whether the block is returned does not depend on
    the order; the default cutoff never prunes.
    """
    nodes = [u for u, r in enumerate(rows) if r & (r - 1)]
    position = [-1] * graph.n
    nonbasic = 0
    for i, u in enumerate(nodes):
        position[u] = i
        nonbasic |= 1 << u
    bounds = [column[2] for column in opened]
    low = sum(bounds)
    entries = [[math.inf] * len(nodes) for _ in nodes]
    for j in sorted(range(len(opened)), key=bounds.__getitem__, reverse=True):
        _, sup, bound, entry = opened[j]
        # distinct unit rows XOR to weight |sup| >= 2, not to e_e, so at
        # least one node of the support is non-basic
        roots = vec_support(sup & nonbasic)
        costs = _costs(rows, *graph._steiner.tree(entry, sup), roots)
        for u, c in zip(roots, costs):
            entries[position[u]][j] = c
        low += min(costs) - bound
        if low > cutoff:
            return None
    return CostTable(tuple(tuple(r) for r in entries),
                     tuple(column[1] for column in opened), tuple(nodes),
                     tuple(column[0] for column in opened))


def _min_assignment(entries: Sequence[Sequence[float]]) -> List[int]:
    """Column per row of a minimum-total bijection of a square matrix.

    Shortest augmenting paths with potentials (Jonker & Volgenant 1987;
    Burkard, Dell'Amico & Martello, *Assignment Problems*, ch. 4).  Row
    potentials u and column potentials v keep every reduced cost
    c[i][j] - u[i] - v[j] non-negative and zero on matched pairs.  The
    start is Jonker & Volgenant's column reduction: v is each column's
    minimum and u is 0, and each column is matched to the first row
    holding its minimum, if that row is still free.  Each row still free
    is then matched by one Dijkstra search over reduced costs, from the
    row to the nearest free column through matched pairs.  The potential
    update keeps the invariant and zeroes the path, so flipping it keeps
    every match of zero reduced cost, and a matching of such pairs is of
    minimum total.  ``math.inf`` entries are forbidden pairs: if a
    column or a search reaches only them, no finite bijection exists
    (Hall's condition fails) and ``AssignmentError`` is raised.  The
    total is unique; among tied optima the bijection is whichever this
    search reaches first, which need not be another solver's.
    """
    n = len(entries)
    columns = list(zip(*entries))
    v = [min(c) for c in columns]
    if math.inf in v:
        raise AssignmentError("no finite perfect assignment exists")
    u = [0] * n
    col_of = [-1] * n
    row_of = [-1] * n
    for j, c in enumerate(columns):
        i = c.index(v[j])
        if col_of[i] < 0:
            row_of[j], col_of[i] = i, j
    free = [i for i in range(n) if col_of[i] < 0]
    for s in free:
        dist = [math.inf] * n
        pred = [s] * n
        todo = list(range(n))
        settled = []
        i, reach = s, 0
        while True:
            r, h = entries[i], reach - u[i]
            reach = math.inf
            for k in todo:
                d = r[k] + h - v[k]
                if d < dist[k]:
                    dist[k], pred[k] = d, i
                else:
                    d = dist[k]
                # on a tie a free column wins: it ends the search
                if d < reach or d == reach and row_of[k] < 0:
                    reach, j = d, k
            if reach == math.inf:
                raise AssignmentError("no finite perfect assignment exists")
            todo.remove(j)
            settled.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        # reach is now the path's length; the free column j ends it
        u[s] += reach
        for k in settled:
            step = reach - dist[k]
            v[k] -= step
            if row_of[k] >= 0:
                u[row_of[k]] += step
        while True:
            i = pred[j]
            row_of[j] = i
            j, col_of[i] = col_of[i], j
            if i == s:
                break
    return col_of


def hungarian_assign(table: CostTable) -> Assignment:
    """A minimum-total bijection of the table's rows onto its columns.

    Raises ``AssignmentError`` if the table is not square, with one
    column label per row and as many entries in every row, or if every
    bijection uses a ``math.inf`` entry.  The total is unique; on tied
    optima ``by_node`` is the one ``_min_assignment`` reaches first.
    """
    entries = table.entries
    # as many rows as column labels, and as many entries in every row
    if {len(table.columns), *map(len, entries)} != {len(entries)}:
        raise AssignmentError("a bijection needs a square table, a column per row")
    col_of = _min_assignment(entries)
    return Assignment(tuple(table.columns[j] for j in col_of),
                      sum(r[j] for r, j in zip(entries, col_of)))


def loss(graph: ArchGraph, rows: Sequence[int]) -> int:
    """Total cost of the cheapest node-to-basis assignment of ``rows``."""
    opened = _open_columns(graph, invert(BitMatrix(graph.n, rows)).rows)
    return hungarian_assign(_open_block(graph, rows, opened)).total


def _cheapest(block: CostTable, opened: list) -> List[tuple]:
    """(node, basis, support, tree entry) of the block's minimum entries, node-major.

    ``opened`` is the ``_open_columns`` list the block was priced from.
    The minimum is finite: a non-basic node u lies in the support of some
    open column.  Were every e with u in inv[e] pinned, each such inv[e]
    would be the unit vector e_u; the inverse being invertible, there is
    then one such e, and row u of the matrix is e_e: u would be basic.
    """
    best = min(min(r) for r in block.entries)
    return [(block.nodes[i], opened[j][0], opened[j][1], opened[j][3])
            for i, r in enumerate(block.entries)
            for j, c in enumerate(r) if c == best]


def _cheapest_bounded(graph: ArchGraph, rows: Sequence[int], opened: list) -> List[tuple]:
    """``_cheapest(_open_block(graph, rows, opened), opened)``, without the block.

    ``opened`` is ``_open_columns`` of the inverse of ``rows``.  Columns
    are priced in ascending bound order until a bound
    exceeds the least entry priced so far: no entry of that column or a
    later one can be a minimum.  A bound equal to it is priced, so ties
    are kept.  The entries equal to the minimum are returned node-major,
    as ``_cheapest`` orders them; the list is empty when no column is
    open, that is when every row is a unit vector.
    """
    best = math.inf
    found = []
    for e, sup, bound, entry in sorted(opened, key=itemgetter(2)):
        if bound > best:
            break
        roots = [u for u in vec_support(sup) if rows[u] & (rows[u] - 1)]
        for u, c in zip(roots, _costs(rows, *graph._steiner.tree(entry, sup), roots)):
            if c <= best:
                if c < best:
                    best = c
                    found = []
                found.append((u, e, sup, entry))
    # (node, basis) pairs are distinct, so no two entries are compared
    found.sort()
    return found


def _reduce_pair(graph: ArchGraph, rows: List[int], u: int, sup: int,
                 entry: SteinerEntry) -> List[RowOp]:
    """Reduce ``rows`` in place at u along the tree of ``sup``, then recover.

    ``entry`` is ``sup``'s tree entry, whose tree is built if it is not
    yet.  Returns the ops run, reduction then recovery.  Nothing is
    checked: the tree is grown, u is a terminal of it, and the rows of
    ``sup``, a support, XOR to a unit vector.
    """
    ops, tracked = _reduce_tracked(rows, *graph._steiner.tree(entry, sup), u)
    return [*ops, *_recover(rows, ops, tracked)]


def heuristic_token_reduction(graph: ArchGraph, rows: List[int]) -> List[RowOp]:
    """Reduce ``rows`` to basic form in place, greedily and with look-ahead.

    ``rows`` holds one row per node of ``graph``; returns the ops run.
    Each step takes the cheapest entries of the open block, and loops
    while there are any, that is while some node is non-basic.  On entry
    and after a lone candidate they come from ``_cheapest_bounded``,
    which prices only the columns that can hold them.  A lone candidate
    wins whatever its loss, so it is reduced and recovered on ``rows``
    directly, and the carried inverse follows its ops.  Tied candidates
    are broken by look-ahead: each is trial-run (reduce, recover) on its
    own copy of the rows, and its ops, rows and carried inverse (both
    forms) are recorded; its open columns' bounds (``_open_columns``)
    sum to a lower bound on its loss.  Only the ``_PRICED_TRIALS`` (3)
    candidates lowest in (bound, index) are then scored, in that order,
    each priced from its recorded rows, and the smallest (loss, index)
    among them wins: the first strict minimum in candidate order,
    candidates being ordered by (node, basis).  The paper scores every
    candidate; this differs from it only at steps with more than three.
    A candidate whose bound shows it cannot beat the best so far (see
    ``_open_block``) is neither priced in full nor assigned, so pruning
    never changes the winner.  The winner is committed from its record,
    its rows copied in and its ops appended; its trial block is
    complete, and gives the next step's cheapest entries
    (``_cheapest``), each with the tree entry its column was opened
    with.  Each commit makes at least one more node basic, so the loop
    runs at most n times.  The inversion on entry is the only
    singularity check; it raises
    ``SingularMatrixError``, basic or not, and a ``ValueError`` if there
    is not one row per node.
    """
    return _token_reduction(graph, rows, invert(BitMatrix(graph.n, rows)).rows)


def _token_reduction(graph: ArchGraph, rows: List[int], sups: List[int]) -> List[RowOp]:
    """``heuristic_token_reduction`` from the rows of the inverse, checking nothing.

    ``sups`` must be the rows of the inverse of ``rows``' matrix, which
    ``synthesis._stops`` carries as the columns of the composed block's
    inverse.  ``rows`` is reduced in place; ``sups`` may change too.
    """
    cols = _transpose_rows(sups)
    candidates = _cheapest_bounded(graph, rows, _open_columns(graph, sups))
    out: List[RowOp] = []
    while candidates:
        if len(candidates) == 1:
            u, _, sup, entry = candidates[0]
            ops = _reduce_pair(graph, rows, u, sup, entry)
            _carry_inverse(sups, cols, ops)
            out.extend(ops)
            candidates = _cheapest_bounded(graph, rows, _open_columns(graph, sups))
            continue
        trials = []
        for index, (u, _, sup, entry) in enumerate(candidates):
            trial_rows, trial_sups, trial_cols = list(rows), list(sups), list(cols)
            ops = _reduce_pair(graph, trial_rows, u, sup, entry)
            _carry_inverse(trial_sups, trial_cols, ops)
            opened = _open_columns(graph, trial_sups)
            low = sum(column[2] for column in opened)
            # the ops and the carried inverse ride along for the winner's commit
            trials.append((low, index, trial_rows, opened, ops, trial_sups, trial_cols))
        trials.sort(key=lambda t: t[:2])
        best = (math.inf, 0)  # so the first trial is priced in full
        for low, index, trial_rows, opened, *carried in trials[:_PRICED_TRIALS]:
            # a later index must win outright, an earlier one may tie
            cutoff = best[0] - (index > best[1])
            if low > cutoff:
                break  # every later trial's (bound, index) is larger
            block = _open_block(graph, trial_rows, opened, cutoff)
            if block is not None:
                trial_loss = hungarian_assign(block).total
                if (trial_loss, index) < best[:2]:
                    best = (trial_loss, index, trial_rows, opened, block, *carried)
        _, _, best_rows, opened, block, ops, sups, cols = best
        rows[:] = best_rows
        out.extend(ops)
        candidates = _cheapest(block, opened) if block.nodes else []
    return out
