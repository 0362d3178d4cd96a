"""Row lists and their reduction primitives.

The synthesis state is a plain list holding one packed matrix row per
architecture node.  Node addition XORs an adjacent row in (one CNOT); a
swap exchanges two adjacent rows (three CNOTs).  ``tree_reduce_tracked``
reduces along one Steiner tree (``arch.gen_steiner``) rooted at one of
its terminals, leaving the root holding a standard basis vector, and
``reduction_recovery`` restores the unit vectors that reduction
disturbed.  Both change the row list in place and return the operations
they ran, so the synthesizer can emit them as a circuit.

A row operation is a plain ``(kind, a, b)`` tuple, everywhere from a
reduction's schedule to the synthesizer's result.  ``(ADD, a, b)``
means row a ^= row b, and is emitted as one CNOT with control a and
target b.  ``(SWAP, a, b)`` exchanges rows a and b; in a schedule a is
the tree child and b its parent.  Both are self-inverse, so undoing a
list of ops replays it backwards.

``reduction_costs`` gives the weight that reduction and recovery would
spend along the same tree at each of many roots, without running them:
a recurrence over the tree's directed edges, each edge's value shared
by every root on its far side.  The schedule rule it prices, which tree
edge becomes a SWAP, is ``tree_reduce_tracked``'s, beside it.
``reduction_bound`` gives a lower bound on those weights from the
tree's shape and its unit-row terminals alone, proved beside the
recurrence.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from .gf2 import is_unit, vec_support

ADD = "ADD"
SWAP = "SWAP"
RowOp = Tuple[str, int, int]  # (kind, a, b), as above


class ReductionError(ValueError):
    """Raised when a reduction precondition does not hold."""


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


# Trees up to this many nodes are priced by plain recursion, at most this
# deep; larger ones first memoize their edge values leaves-first.
_RECURSIVE_NODES = 256


def reduction_costs(rows: Sequence[int], tree, steiner, roots: Sequence[int]) -> List[int]:
    """Reduce + recover weight of ``tree`` rooted at each of ``roots``.

    ``tree`` is an unrooted tree whose leaves are terminals (node ->
    ascending neighbour tuple), ``steiner`` its non-terminal nodes and
    ``roots`` terminals: the pair ``arch.gen_steiner`` returns, which
    ``tree_reduce_tracked`` takes too.  Entry k equals the op weight
    (SWAP 3, ADD 1) that ``tree_reduce_tracked(rows, tree, steiner,
    roots[k])`` and then ``reduction_recovery`` would run on a copy of
    ``rows``, without running either.

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
    unit input row and ``tree_reduce_tracked`` tracks t.  A mark moves
    only by the SWAP of a Steiner parent's first child, which is the
    parent's first op, so marks never merge and the U marks are still
    distinct after the schedule.  Replaying backwards,
    ``reduction_recovery`` spends at least one op per mark: an ADD on
    the marked node, or the SWAP that hands the mark back to a child
    that holds none.  ``reduction_bound`` gives this bound, and
    ``heuristic`` bounds its cost-table columns by it.

    Edge values are memoized at branch nodes, where roots share them;
    along paths they are recomputed, which is cheaper on small trees
    than any bookkeeping.  A tree of more than ``_RECURSIVE_NODES``
    nodes is first rooted at ``roots[0]`` and every edge value the roots
    need is memoized leaves-first, then towards the other roots, so no
    call there recurses more than two edges deep.

    Raises ``ReductionError`` if a root is not a terminal of the tree or
    the walk from the roots meets a cycle.
    """
    for r in roots:
        if r not in tree or r in steiner:
            raise ReductionError(f"root {r} is not a terminal of the tree")
    memo = {}
    shallow = len(tree) <= _RECURSIVE_NODES

    def hand(p, c):
        """The value of edge p -> c."""
        nbs = tree[c]
        if len(nbs) == 1:
            return rows[c], False, 0, 0
        if shallow and len(nbs) == 2:  # most nodes of a grown tree lie on a path
            s, f, a0, a1 = hand(c, nbs[nbs[0] == p])
            if c in steiner:
                return s, f, a0, a1 + 3
            row = rows[c]
            w = a1 if f else a0
            return row ^ s, row != 0 and not row & (row - 1), w, w + 1
        v = memo.get((p, c))
        if v is None:
            v = memo[p, c] = _hand_up(rows[c], c in steiner,
                                      [hand(c, x) for x in nbs if x != p])
        return v

    base = len(tree) - 1 + 2 * len(steiner)
    out = []
    try:
        if not shallow:
            top = roots[0]
            parent = {top: -1}
            order = [top]
            for c in order:
                if len(order) > len(tree):
                    raise ReductionError("the tree has a cycle")
                for x in tree[c]:
                    if x != parent[c]:
                        parent[x] = c
                        order.append(x)
            for c in reversed(order[1:]):
                hand(parent[c], c)
            need = set()
            for r in roots:
                while r != top and r not in need:
                    need.add(r)
                    r = parent[r]
            for c in order:
                if c in need:
                    hand(c, parent[c])
        for r in roots:
            total = base
            for x in tree[r]:
                s, f, r0, r1 = hand(r, x)
                total += r1 if f else r0
            out.append(total)
    except RecursionError:  # only a cycle recurses that deep on a small tree
        raise ReductionError("the tree has a cycle") from None
    finally:
        # hand's closure cell holds hand: break the cycle so refcounting frees the memo
        hand = None
    return out


def reduction_bound(tree, steiner, units: int) -> int:
    """|V| - 1 + 2|S| + U, the lower bound proved in ``reduction_costs``.

    ``tree`` and ``steiner`` are as ``reduction_costs`` takes them, and
    ``units`` is the mask of the tree's terminals that hold a unit row.
    U counts those with two or more neighbours.  The bound holds at
    every root outside ``units``.
    """
    weight = len(tree) - 1 + 2 * len(steiner)
    for t in vec_support(units):
        weight += len(tree[t]) > 1
    return weight


def tree_reduce_tracked(rows: List[int], tree, steiner,
                        root: int) -> Tuple[Tuple[RowOp, ...], Set[int]]:
    """Reduce along ``tree`` rooted at ``root``, leaving f(root) a unit vector.

    ``tree`` and ``steiner`` are as ``reduction_costs`` takes them: an
    unrooted tree (node -> ascending neighbour tuple) and its
    non-terminal nodes, whose terminal rows must XOR to a standard basis
    vector.  ``root`` is a terminal.  The schedule is the post-order
    with ascending children: ("SWAP", child, parent) for each Steiner
    parent's first child, ("ADD", parent, child) everywhere else.
    Pushing each node's children in ascending order makes one stack walk
    a pre-order with descending children; reversed, that is the
    schedule.  A child's op is fixed as its parent is expanded.

    Runs the schedule on ``rows`` in place.  Returns the ops run and the
    set of nodes whose standard basis vectors were disturbed and that
    ``reduction_recovery`` must restore.  SWAP entries migrate
    membership from the child to the parent, following the payload.  The
    root is never tracked: its row may pass through a unit vector while
    the terminal contributions accumulate, and recovery must not undo
    the reduction it serves.  Raises ``ReductionError``, leaving ``rows``
    unchanged, if ``root`` is not a terminal of the tree, a tree node has
    no row, the terminal rows do not XOR to a unit vector, or ``tree`` is
    not a tree.
    """
    if root not in tree or root in steiner:
        raise ReductionError(f"root {root} is not a terminal of the tree")
    n = len(rows)
    acc = 0
    for t in tree:
        if not 0 <= t < n:
            raise ReductionError(f"tree node {t} has no row (there are {n} rows)")
        if t not in steiner:
            acc ^= rows[t]
    if not is_unit(acc):
        raise ReductionError("terminal rows do not XOR to a standard basis vector")
    size = len(tree)
    pre = []
    stack = [(root, -1, None)]
    while stack:
        node, up, op = stack.pop()
        if op is not None:
            pre.append(op)
            if len(pre) == size:
                raise ReductionError("the tree has a cycle")
        swap = node in steiner
        for c in tree[node]:
            if c != up:
                stack.append((c, node, (SWAP, c, node) if swap else (ADD, node, c)))
                swap = False
    if len(pre) != size - 1:
        raise ReductionError(f"the tree does not join every node to root {root}")
    pre.reverse()
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


def reduction_recovery(rows: List[int], operations: Sequence[RowOp],
                       tracked: Set[int]) -> List[RowOp]:
    """Restore every tracked node to a unit vector; returns the ops used.

    Replays on ``rows``, in reverse, just the ops needed to restore
    tracked nodes.
    """
    n = len(rows)
    for kind, a, b in operations:
        if not (0 <= a < n and 0 <= b < n):
            raise ReductionError(f"operation {(kind, a, b)} targets a node outside the graph")
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
