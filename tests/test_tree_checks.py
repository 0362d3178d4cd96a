"""The one tree check at rowgraph's public edge.

``reduction_costs`` and ``tree_reduce_tracked`` check every tree they
are given in the same walk, so they accept exactly the same trees and
roots and reject the rest with ``ReductionError`` before any row
changes.  Named cases pin inputs that once slipped through one of them
or raised a bare ``KeyError``; a hypothesis property then edits random
trees into every kind of malformed adjacency and compares the two.

Input of the wrong shape fails the same way: a second property puts
values that are not nodes (None, bools, floats, strings, lists) into
the nodes, neighbour tuples and roots of random trees, and into the ops
given to ``reduction_recovery``; the only exception pricing, reduction
or recovery raises is ``ReductionError``, with the rows left unchanged.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from cnotroute.rowgraph import (ADD, SWAP, ReductionError, reduction_costs,
                                reduction_recovery, tree_reduce_tracked)

from conftest import rows_reducible_along


def _both_reject(rows, tree, steiner, root, match):
    with pytest.raises(ReductionError, match=match):
        reduction_costs(rows, tree, steiner, [root])
    before = list(rows)
    with pytest.raises(ReductionError, match=match):
        tree_reduce_tracked(rows, tree, steiner, root)
    assert rows == before


def test_a_forest_is_rejected():
    # each component alone is a tree
    forest = {0: (1,), 1: (0,), 2: (3,), 3: (2,)}
    with pytest.raises(ReductionError, match="does not join"):
        reduction_costs([3, 2, 12, 9], forest, frozenset(), [0, 2])
    _both_reject([3, 2, 12, 8], forest, frozenset(), 0, "does not join")


def test_a_neighbour_missing_from_the_tree_is_rejected():
    # node 2 has a row but no adjacency entry
    _both_reject([3, 2, 4], {0: (1, 2), 1: (0,)}, frozenset(), 0, r"edge \(0, 2\)")


def test_a_one_way_edge_is_rejected():
    _both_reject([3, 2], {0: (1,), 1: ()}, frozenset(), 0, "once at each end")
    _both_reject([3, 2], {0: (), 1: (0,)}, frozenset(), 0, "does not join")


def test_a_negative_node_has_no_row():
    # Python would index it as the last row
    _both_reject([3, 2], {0: (-1,), -1: (0,)}, frozenset(), 0, "node -1 has no row")


def test_a_steiner_leaf_is_rejected():
    # the schedule would ADD the leaf's row into the root's
    _both_reject([1, 2], {0: (1,), 1: (0,)}, frozenset({1}), 0, "Steiner point is a leaf")


def test_a_steiner_point_off_the_tree_is_rejected():
    # it would add 2 to every price and nothing to the reduction
    _both_reject([3, 2], {0: (1,), 1: (0,)}, frozenset({5}), 0, "Steiner point")


def test_pricing_needs_a_root():
    with pytest.raises(ReductionError, match="no root"):
        reduction_costs([1], {0: ()}, frozenset(), [])


def _weight(ops):
    return sum(3 if kind == SWAP else 1 for kind, _, _ in ops)


# Edits that turn a tree into a malformed adjacency: add a listed
# neighbour (a one-way edge, a cycle, a duplicate, a self-loop or a
# missing node), drop one (a one-way edge, or two make a forest), toggle
# a Steiner point (a leaf, a root, or one off the tree), or add a lone
# node.  Nodes run from -1 to n, so -1 and n have no row.
def _edits(n):
    node = st.integers(-1, n)
    return st.lists(st.one_of(
        st.tuples(st.just("add"), node, node),
        st.tuples(st.just("drop"), node, st.integers(0, 3)),
        st.tuples(st.just("steiner"), node),
        st.tuples(st.just("node"), node),
    ), max_size=2)


@st.composite
def tree_inputs(draw):
    """(rows, tree, steiner, roots), the tree a random tree, edited or not."""
    n = draw(st.integers(1, 7))
    nodes = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    adjacency = {nodes[0]: []}
    for i in range(1, len(nodes)):
        p = nodes[draw(st.integers(0, i - 1))]
        adjacency[nodes[i]] = [p]
        adjacency[p].append(nodes[i])
    interior = sorted(v for v, nbs in adjacency.items() if len(nbs) > 1)
    steiner = set(draw(st.sets(st.sampled_from(interior)))) if interior else set()
    for edit in draw(st.one_of(st.just([]), _edits(n))):
        kind, v = edit[:2]
        if kind == "add":
            adjacency.setdefault(v, []).append(edit[2])
        elif kind == "drop" and adjacency.get(v):
            del adjacency[v][edit[2] % len(adjacency[v])]
        elif kind == "steiner":
            steiner ^= {v}
        elif kind == "node":
            adjacency.setdefault(v, [])
    tree = {v: tuple(sorted(nbs)) for v, nbs in adjacency.items()}
    terminals = [t for t in tree if t not in steiner]
    rows = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
    if terminals and all(0 <= t < n for t in terminals):
        # the one precondition reduction checks and pricing does not
        rows = rows_reducible_along(rows, terminals)
    roots = draw(st.lists(st.sampled_from(terminals), min_size=1, max_size=3)) if terminals else []
    if not roots or not draw(st.integers(0, 5)):
        roots.append(draw(st.integers(-1, n)))  # most likely not a terminal
    return rows, tree, frozenset(steiner), roots


def test_pricing_and_reduction_accept_the_same_trees():
    seen = {"accepted": 0, "rejected": 0}

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(tree_inputs())
    def check(case):
        rows, tree, steiner, roots = case
        before = list(rows)
        try:
            prices = reduction_costs(rows, tree, steiner, roots)
        except ReductionError:
            prices = None
        assert rows == before
        replayed = []
        for root in roots:
            work = list(rows)
            try:
                ops, tracked = tree_reduce_tracked(work, tree, steiner, root)
            except ReductionError:
                assert work == before
                continue
            ops += tuple(reduction_recovery(work, ops, tracked))
            assert work[root] and not work[root] & (work[root] - 1)
            replayed.append(_weight(ops))
        if prices is None:
            assert len(replayed) < len(roots)
            seen["rejected"] += 1
        else:
            assert prices == replayed
            seen["accepted"] += 1

    check()
    assert seen["accepted"] > 100 and seen["rejected"] > 100, seen


hashable_junk = st.none() | st.booleans() | st.floats(-1, 4) | st.text(max_size=2)
junk = hashable_junk | st.lists(st.integers(0, 3), max_size=2)


@st.composite
def junk_tree_inputs(draw):
    """(rows, tree, steiner, roots): a random tree, edited or not, with one
    to three spots replaced by junk: a node's key, its neighbour tuple, one
    of its neighbours, or one of the roots."""
    rows, tree, steiner, roots = draw(tree_inputs())
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(tree)))
        spot = draw(st.sampled_from(["key", "neighbours", "neighbour", "root"]))
        if spot == "key":
            tree[draw(hashable_junk)] = tree.pop(node)
        elif spot == "neighbours":
            tree[node] = draw(junk)  # lists of nodes among it
        elif spot == "neighbour" and type(tree[node]) is tuple and tree[node]:
            i = draw(st.integers(0, len(tree[node]) - 1))
            tree[node] = tree[node][:i] + (draw(junk),) + tree[node][i + 1:]
        elif spot == "root":
            roots[draw(st.integers(0, len(roots) - 1))] = draw(junk)
    return rows, tree, steiner, roots


def _fails_only_with_reduction_error(call, rows):
    """Run ``call(rows)``; True if it raised ``ReductionError``, rows unchanged."""
    before = list(rows)
    try:
        call(rows)
    except ReductionError:
        assert rows == before
        return True
    return False


def test_junk_in_a_tree_or_its_ops_raises_only_reduction_error():
    seen = {"tree rejected": 0, "ops rejected": 0}

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(junk_tree_inputs())
    @example(([3, 2], {0: "1", 1: (0,)}, frozenset(), [1]))
    @example(([3, 2], {0: (1,), 1.0: (0,)}, frozenset(), [0]))
    @example(([3, 2], {0: (1,), 1: (0,)}, frozenset(), [0, [1]]))
    def check_tree(case):
        rows, tree, steiner, roots = case
        seen["tree rejected"] += _fails_only_with_reduction_error(
            lambda work: reduction_costs(work, tree, steiner, roots), rows)
        for root in roots:
            _fails_only_with_reduction_error(
                lambda work: tree_reduce_tracked(work, tree, steiner, root), rows)

    node = st.integers(-1, 3) | junk
    op = (st.tuples(st.sampled_from([ADD, SWAP, "FOO"]), node, node)
          | st.lists(node, max_size=4).map(tuple) | junk)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=4),
           st.lists(op, max_size=4), st.sets(st.integers(0, 3)))
    @example([1, 2], [(ADD, "x", 1)], set())
    @example([1, 2], [(ADD, 0, 1, 2)], {0})
    def check_ops(rows, ops, tracked):
        seen["ops rejected"] += _fails_only_with_reduction_error(
            lambda work: reduction_recovery(work, ops, tracked), rows)

    check_tree()
    check_ops()
    assert seen["tree rejected"] > 300 and seen["ops rejected"] > 150, seen
