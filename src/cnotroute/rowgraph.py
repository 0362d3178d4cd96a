"""Row lists and their reduction primitives.

The synthesis state is a plain list holding one packed matrix row per
architecture node.  Node addition XORs an adjacent row in (one CNOT); a
swap exchanges two adjacent rows (three CNOTs).  ``_reduce_tracked``
reduces along one Steiner tree rooted at one of its terminals, leaving
the root holding a standard basis vector, and ``_recover`` restores the
unit vectors that reduction disturbed.  Both change the row list in
place and return the operations they ran, so the synthesizer can emit
them as a circuit.

A row operation is a plain ``(kind, a, b)`` tuple, everywhere from a
reduction's schedule to the synthesizer's result.  ``(ADD, a, b)``
means row a ^= row b, and is emitted as one CNOT with control a and
target b.  ``(SWAP, a, b)`` exchanges rows a and b; in a schedule a is
the tree child and b its parent.  Both are self-inverse, so undoing a
list of ops replays it backwards.

``_costs`` gives the weight that reduction and recovery would spend
along the same tree at each of many roots, without running them: a
recurrence over the tree's directed edges, each edge's value shared by
every root on its far side.  A lower bound on those weights from the
tree's shape and its unit-row terminals alone is proved beside the
recurrence.  One walk, ``_order``, builds every reduction schedule, for
``_reduce_tracked`` and for ``_costs`` on large trees.

Nothing here checks its input.  The only trees are the ones a graph's
tree cache grows, in the one form its ``arch._SteinerCache.tree``
defines, and they are trees with terminal leaves by the growth proof in
``arch._grow_steiner_graph``.
``heuristic`` reduces at a node of a support, whose rows XOR to a unit
vector by definition, and recovers from the ops the reduction has just
returned, which ``_order`` built as ADDs and SWAPs of two distinct tree
nodes.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

ADD = "ADD"
SWAP = "SWAP"
RowOp = Tuple[str, int, int]  # (kind, a, b), as above


def _hand_up(row: int, steiner: bool, below: list) -> tuple:
    """(s, f, R0, R1) of one node from its children's, ascending."""
    if steiner:
        acc, f, first0, first1 = below[0]
        start = 1
    else:
        acc, f, start = row, False, 0
    r0 = 0
    for i in range(start, len(below)):
        s, fx, a0, a1 = below[i]
        if not f and acc and not acc & (acc - 1):
            f = True
        acc ^= s
        r0 += a1 if fx else a0
    rho = acc
    r1 = r0
    tracked = True
    for i in range(len(below) - 1, start - 1, -1):
        rho ^= below[i][0]
        r1 += 1
        if rho and not rho & (rho - 1):
            tracked = False
            break
    if steiner:
        r0 += first0
        r1 += 3 + first1 if tracked else first0
    return acc, f, r0, r1


def _order(tree, steiner: int, root: int) -> List[RowOp]:
    """The reduction schedule of ``tree`` at ``root``.

    ``tree`` and ``steiner`` are a built tree and its Steiner mask, in
    the form ``arch._SteinerCache.tree`` defines, and ``root`` is a
    terminal.  The schedule is the post-order with children in
    neighbour order: ("SWAP", child, parent) for each Steiner parent's
    first child, ("ADD", parent, child) everywhere else.  Pushing each node's
    children in order makes one stack walk a pre-order with children
    reversed; reversed, that is the schedule.  A child's op is fixed as
    its parent is expanded; the root is a terminal, so its children are
    ADDs.
    """
    pre = []
    stack = [(c, root, (ADD, root, c)) for c in tree[root]]
    while stack:
        node, up, op = stack.pop()
        pre.append(op)
        swap = steiner >> node & 1
        for c in tree[node]:
            if c != up:
                stack.append((c, node, (SWAP, c, node) if swap else (ADD, node, c)))
                swap = False
    pre.reverse()
    return pre


# Trees up to this many nodes are priced by plain recursion, at most this
# deep; larger ones first memoize every edge value along their schedule.
_RECURSIVE_NODES = 256


def _costs(rows: Sequence[int], tree, steiner: int, size: int, roots: Sequence[int]) -> List[int]:
    """Reduce + recover weight of ``tree`` rooted at each of ``roots``.

    ``tree``, ``steiner`` and ``size`` are the triple
    ``arch._SteinerCache.tree`` returns, in the form it defines, which
    ``_reduce_tracked`` takes too, and ``roots`` are one or more of the
    tree's terminals.  Entry k equals the op weight (SWAP 3, ADD 1) that
    ``_reduce_tracked(rows, tree, steiner, size, roots[k])`` and then
    ``_recover`` would run on a copy of ``rows``, without running
    either.

    The value of a directed edge p -> c depends only on c's side of the
    tree, so it is shared by every root on p's side.  With x1 < ... < xm
    the neighbours of c other than p, the value is (s, f, R0, R1):
    s the row c hands up, f whether c is tracked when its subtree is
    done, R0/R1 the recovery weight inside the subtree when c enters
    recovery untracked/tracked; w(x) = R1(x) if f(x) else R0(x).

    - Terminal c: acc = rows[c]; for i = 1..m, f is set if acc is a unit
      vector, then acc ^= s(xi); s = acc.  R0 = sum w(xi).  R1 = R0 plus
      the undo steps: rho = s, rho ^= s(xi) for i = m..1, stopping after
      the first unit rho.
    - Steiner c: x1 swaps up, so acc = s(x1), f = f(x1), and the fold
      runs over i >= 2.  The undo runs i = m..2; if it never reaches a
      unit rho, c is still tracked at the swap back, which costs 3 and
      hands x1 the tracked bit: R1 = sum_{i>=2} w(xi) + steps +
      (R0(x1) if rho turned unit else 3 + R1(x1)); R0 = sum_{i>=2}
      w(xi) + R0(x1).
    - Root r: |V| - 1 + 2|S| + sum of w(x) over r's neighbours.

    Invariant: a node that is tracked when its recovery starts holds its
    forward-final row (an ADD child keeps s untouched; a swapped-down
    first child is handed back exactly s(x1) = s(c) ^ s(xm) ^ ... ^
    s(x2)), so each subtree's recovery depends on one entering bit.

    Lower bound: root r costs at least |V| - 1 + 2|S| + U, where U
    counts the terminals other than r that have two or more neighbours
    and hold a unit row.  The schedule weighs |V| - 1 + 2|S| at every
    root (one op per edge, a SWAP per Steiner point).  Such a terminal t
    has a child, as only one neighbour is its parent.  Terminals are
    never SWAP parents, and t's row changes only through its own ADDs
    until t's own op, which follows them; so its first ADD sees the
    unit input row and ``_reduce_tracked`` tracks t.  A mark moves only
    by the SWAP of a Steiner parent's first child, which is the parent's
    first op, so marks never merge and the U marks are still distinct
    after the schedule.  Replaying backwards, ``_recover`` spends at
    least one op per mark: an ADD on the marked node, or the SWAP that
    hands the mark back to a child that holds none.  Each entry of
    ``arch``'s tree cache stores the mask of the terminals with two or
    more neighbours and the weight |V| - 1 + 2|S|, and
    ``heuristic._open_columns`` bounds each cost-table column by the two
    without building the tree.

    Edge values are memoized at branch nodes, where roots share them;
    along paths they are recomputed, which is cheaper on small trees
    than any bookkeeping.  A tree of more than ``_RECURSIVE_NODES``
    nodes memoizes every edge value, both ways: leaves-first along the
    schedule ``_order`` builds at ``roots[0]``, then back towards the
    leaves, so no call there recurses more than two edges deep.
    """
    memo = {}
    shallow = size <= _RECURSIVE_NODES

    def hand(p, c):
        """The value of edge p -> c."""
        nbs = tree[c]
        if len(nbs) == 1:
            return rows[c], False, 0, 0
        if shallow and len(nbs) == 2:  # most nodes of a grown tree lie on a path
            s, f, a0, a1 = hand(c, nbs[nbs[0] == p])
            if steiner >> c & 1:
                return s, f, a0, a1 + 3
            row = rows[c]
            w = a1 if f else a0
            return row ^ s, row != 0 and not row & (row - 1), w, w + 1
        v = memo.get((p, c))
        if v is None:
            v = memo[p, c] = _hand_up(rows[c], steiner >> c & 1,
                                      [hand(c, x) for x in nbs if x != p])
        return v

    base = size - 1 + 2 * steiner.bit_count()
    out = []
    try:
        if not shallow:
            edges = [(b, a) if kind == ADD else (a, b)  # (child, parent)
                     for kind, a, b in _order(tree, steiner, roots[0])]
            for c, p in edges:
                hand(p, c)
            for c, p in reversed(edges):
                hand(c, p)
        for r in roots:
            total = base
            for x in tree[r]:
                s, f, r0, r1 = hand(r, x)
                total += r1 if f else r0
            out.append(total)
    finally:
        # hand's closure cell holds hand: break the cycle so refcounting frees the memo
        hand = None
    return out


def _reduce_tracked(rows: List[int], tree, steiner: int, size: int,
                    root: int) -> Tuple[Tuple[RowOp, ...], Set[int]]:
    """Reduce along ``tree`` rooted at ``root``, leaving f(root) a unit vector.

    ``tree``, ``steiner``, ``size`` and ``root`` are as ``_costs`` takes
    them; ``size`` is not read, so the triple ``arch._SteinerCache.tree``
    returns is passed whole.  The terminal rows must XOR to a standard
    basis vector.  Runs ``_order``'s schedule on ``rows`` in place.
    Returns the ops run and the set of nodes whose standard basis
    vectors were disturbed and that ``_recover`` must restore.  SWAP
    entries migrate membership from the child to the parent, following
    the payload.  The root is
    never tracked: its row may pass through a unit vector while the
    terminal contributions accumulate, and recovery must not undo the
    reduction it serves.
    """
    pre = _order(tree, steiner, root)
    tracked: Set[int] = set()
    for kind, a, b in pre:
        if kind == ADD:
            r = rows[a]
            if a != root and r and r & (r - 1) == 0:
                tracked.add(a)
            rows[a] = r ^ rows[b]
        else:
            if a in tracked:
                tracked.add(b)
                tracked.discard(a)
            rows[a], rows[b] = rows[b], rows[a]
    return tuple(pre), tracked


def _recover(rows: List[int], operations: Sequence[RowOp], tracked: Set[int]) -> List[RowOp]:
    """Restore every tracked node to a unit vector; returns the ops used.

    Replays on ``rows``, in reverse, just the ops needed to restore
    tracked nodes.  The ops must be ones ``_reduce_tracked`` returned,
    which ``_order`` built as ADDs and SWAPs of two distinct tree nodes.
    """
    recover = []
    for kind, a, b in reversed(operations):
        if kind == ADD:
            if a in tracked:
                r = rows[a] ^ rows[b]
                rows[a] = r
                recover.append((ADD, a, b))
                if r and r & (r - 1) == 0:
                    tracked.discard(a)
        else:
            if b in tracked:
                rows[a], rows[b] = rows[b], rows[a]
                tracked.add(a)
                tracked.discard(b)
                recover.append((SWAP, a, b))
    return recover
