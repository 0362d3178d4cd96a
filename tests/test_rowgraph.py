"""Row-list primitives: tree reduction, recovery and the ops they return."""

import random

import pytest

from cnotroute.arch import ArchGraph, gen_steiner
from cnotroute.gf2 import BitMatrix, invert, is_unit, mat_mul
from cnotroute.rowgraph import (ReductionError, reduction_costs,
                                reduction_recovery, tree_reduce_tracked)

from conftest import (non_unit_nodes, ops_to_matrix, random_connected_graph,
                      random_reversible_rows, unit_combinations)


def test_node_add_worked_example(path4):
    # f(B) = e0+e2+e3, f(C) = e2+e3: adding C into B leaves e0.
    rows = [0b0010, 0b1101, 0b1100, 0b1000]
    ops, _ = tree_reduce_tracked(rows, *gen_steiner(path4, {1, 2}), 1)
    assert rows[1] == 0b0001
    assert list(ops) == [("ADD", 1, 2)]


def test_swap_counts_three_in_emission():
    # root 0, Steiner point 1, terminal 2; nothing needs recovery
    path = {0: (1,), 1: (0, 2), 2: (1,)}
    assert reduction_costs([0b101, 0b010, 0b100], path, {1}, [0]) == [3 + 1]


def test_tree_reduce_single_edge():
    g = ArchGraph(2, [(0, 1)])
    rows = [0b11, 0b10]
    ops, _ = tree_reduce_tracked(rows, *gen_steiner(g, {0, 1}), 0)
    assert rows[0] == 0b01
    assert list(ops) == [("ADD", 0, 1)]


def test_tree_reduce_steiner_path():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # root R=0, steiner S=1, terminal T=2
    rows = [0b101, 0b010, 0b100]
    ops, _ = tree_reduce_tracked(rows, *gen_steiner(g, {0, 2}), 0)
    assert rows == [0b001, 0b100, 0b010]
    assert list(ops) == [("SWAP", 2, 1), ("ADD", 0, 1)]


def test_tree_reduce_root_only():
    g = ArchGraph(2, [(0, 1)])
    rows = [0b01, 0b10]
    ops, _ = tree_reduce_tracked(rows, *gen_steiner(g, {0}), 0)
    assert list(ops) == []


def test_tree_reduce_checks_precondition():
    g = ArchGraph(2, [(0, 1)])
    rows = [0b11, 0b01]
    tree, steiner = gen_steiner(g, {0})  # XOR over {0} = 0b11, not a unit
    before = list(rows)
    with pytest.raises(ReductionError):
        tree_reduce_tracked(rows, tree, steiner, 0)
    assert rows == before


def test_tree_reduce_rejects_tree_nodes_without_rows():
    g = ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    rows = [1, 2]
    with pytest.raises(ReductionError, match="no row"):
        tree_reduce_tracked(rows, *gen_steiner(g, {2, 3}), 2)
    assert rows == [1, 2]


@pytest.mark.parametrize("root", [1, 3])  # a Steiner point, a node off the tree
def test_tree_reduce_rejects_a_root_that_is_not_a_terminal(root):
    g = ArchGraph(4, [(0, 1), (1, 2), (2, 3)])
    rows = [0b101, 0b010, 0b100, 0b1000]  # rows 0 and 2 XOR to e0
    with pytest.raises(ReductionError, match="not a terminal"):
        tree_reduce_tracked(rows, *gen_steiner(g, {0, 2}), root)
    assert rows == [0b101, 0b010, 0b100, 0b1000]


@pytest.mark.parametrize("tree", [
    {0: (1, 2), 1: (0, 2), 2: (0, 1)},  # a cycle
    {0: (1,), 1: (0,), 2: ()},  # node 2 cut off from the root
], ids=["cycle", "disconnected"])
def test_tree_reduce_rejects_an_adjacency_that_is_not_a_tree(tree):
    rows = [0b001, 0b010, 0b010]  # all three rows XOR to e0
    with pytest.raises(ReductionError, match="cycle|does not join"):
        tree_reduce_tracked(rows, tree, frozenset(), 0)
    assert rows == [0b001, 0b010, 0b010]


def test_tracked_no_recovery_needed():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    rows = [0b101, 0b010, 0b100]
    ops, tracked = tree_reduce_tracked(rows, *gen_steiner(g, {0, 2}), 0)
    assert tracked == set()
    assert ops == (("SWAP", 2, 1), ("ADD", 0, 1))


def test_tracked_unit_parent_enters_set():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # terminals {0, 1, 2}: rows XOR to e2; node 1 holds a unit and is a
    # through-station, so its vector is disturbed.
    rows = [0b011, 0b001, 0b110]
    ops, tracked = tree_reduce_tracked(rows, *gen_steiner(g, {0, 1, 2}), 0)
    assert tracked == {1}
    assert rows[0] == 0b100


def test_tracked_replay_reproduces_state():
    rng = random.Random(21)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 12))
        rows = random_reversible_rows(rng, g, 3 * g.n)
        u = rng.choice(non_unit_nodes(rows) or [0])
        e, nodes = unit_combinations(BitMatrix(g.n, rows), u)[0]
        baseline = BitMatrix(g.n, rows)
        ops, _ = tree_reduce_tracked(rows, *gen_steiner(g, nodes), u)
        assert all(g.is_edge(a, b) for _, a, b in ops)
        assert mat_mul(ops_to_matrix(ops, g.n), baseline) == BitMatrix(g.n, rows)


def test_recovery_empty_set_no_ops():
    rows = [1, 2, 4, 8]
    out = reduction_recovery(rows, [], set())
    assert out == []
    assert rows == [1, 2, 4, 8]


def test_recovery_single_add():
    rows = [0b11, 0b10]  # ADD(0, 1) disturbed the unit on node 0
    ops = [("ADD", 0, 1)]
    rec = reduction_recovery(rows, ops, {0})
    assert rec == [("ADD", 0, 1)]
    assert rows == [0b01, 0b10]


def test_reduce_recover_drops_exactly_one_non_unit():
    rng = random.Random(22)
    hits = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 12))
        rows = random_reversible_rows(rng, g, 3 * g.n)
        non_unit = non_unit_nodes(rows)
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = unit_combinations(BitMatrix(g.n, rows), u)[0]
        ops, tracked = tree_reduce_tracked(rows, *gen_steiner(g, nodes), u)
        reduction_recovery(rows, ops, tracked)
        assert tracked == set(), "recovery must restore every tracked node"
        assert is_unit(rows[u])
        after = len(non_unit_nodes(rows))
        assert after <= len(non_unit) - 1
        if after == len(non_unit) - 1:
            hits += 1
    assert hits > 20


def test_recovery_never_touches_non_unit_root():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 10))
        rows = random_reversible_rows(rng, g, 3 * g.n)
        non_unit = non_unit_nodes(rows)
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = unit_combinations(BitMatrix(g.n, rows), u)[0]
        ops, tracked = tree_reduce_tracked(rows, *gen_steiner(g, nodes), u)
        root_row = rows[u]
        rec = reduction_recovery(rows, ops, tracked)
        assert rows[u] == root_row == 1 << e
        for _, a, b in rec:
            assert u not in (a, b)


def test_tracked_then_full_reverse_is_identity():
    rng = random.Random(24)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, 14))
        rows = random_reversible_rows(rng, g, 2 * g.n)
        baseline = list(rows)
        non_unit = non_unit_nodes(rows)
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = unit_combinations(BitMatrix(g.n, rows), u)[0]
        ops, _ = tree_reduce_tracked(rows, *gen_steiner(g, nodes), u)
        undo = ops_to_matrix(reversed(ops), g.n)
        assert mat_mul(undo, BitMatrix(g.n, rows)).rows == baseline


def test_returned_ops_matrix_oracle():
    rng = random.Random(25)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        rows = random_reversible_rows(rng, g, 3 * g.n)
        before = BitMatrix(g.n, rows)
        run = []
        while non_unit_nodes(rows):
            u = non_unit_nodes(rows)[0]
            e, nodes = unit_combinations(BitMatrix(g.n, rows), u)[0]
            ops, tracked = tree_reduce_tracked(rows, *gen_steiner(g, nodes), u)
            run += ops
            run += reduction_recovery(rows, ops, tracked)
        composed = ops_to_matrix(run, g.n)
        assert mat_mul(composed, before) == BitMatrix(g.n, rows)


def test_reversibility_invariant_under_ops():
    rng = random.Random(26)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        rows = random_reversible_rows(rng, g, 4 * g.n)
        invert(BitMatrix(g.n, rows))  # raises SingularMatrixError if singular


def test_recovery_rejects_out_of_range_ops():
    with pytest.raises(ReductionError, match="outside the graph"):
        reduction_recovery([1, 2, 4, 8], [("ADD", 0, 9)], {0})


def test_recovery_rejects_an_op_on_one_row():
    # ADD(0, 0) would leave row 0 zero, the rows singular
    rows = [1, 2]
    with pytest.raises(ReductionError, match="two rows"):
        reduction_recovery(rows, [("ADD", 0, 0)], {0})
    assert rows == [1, 2]


def test_recovery_rejects_an_unknown_op_kind():
    rows = [1, 2]
    with pytest.raises(ReductionError, match="ADD or SWAP"):
        reduction_recovery(rows, [("SWAP", 0, 1), ("FOO", 0, 1)], {1})
    assert rows == [1, 2]
