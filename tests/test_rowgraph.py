"""Row-graph primitives, tree reduction, recovery, and the simple reducer."""

import random

import pytest

from cnotroute.arch import ArchGraph, ReductionTree, gen_steiner
from cnotroute.gf2 import (BitMatrix, SingularMatrixError, invert, is_unit,
                           mat_mul, solve_unit_combinations)
from cnotroute.rowgraph import (ReductionError, RowGraph, reduction_recovery,
                                simple_token_reduction, tree_reduce,
                                tree_reduce_tracked)

from conftest import (ops_to_matrix, random_connected_graph,
                      random_reversible_rowgraph)


def _rows(*vals):
    return list(vals)


def test_node_add_worked_example(path4):
    # f(B) = e0+e2+e3, f(C) = e2+e3: adding C into B leaves e0.
    rg = RowGraph(path4, _rows(0b0010, 0b1101, 0b1100, 0b1000))
    rg.node_add(1, 2)
    assert rg.rows[1] == 0b0001
    assert rg.op_log == [("ADD", 1, 2)]


def test_node_add_is_involution(path4):
    rg = RowGraph(path4, _rows(0b0110, 0b0001, 0b1010, 0b1111))
    before = list(rg.rows)
    rg.node_add(2, 3)
    rg.node_add(2, 3)
    assert rg.rows == before


def test_node_add_requires_edge(path4):
    rg = RowGraph(path4, _rows(1, 2, 4, 8))
    with pytest.raises(ReductionError, match="not adjacent"):
        rg.node_add(0, 3)


def test_node_add_can_zero_a_row_transiently(path4):
    rg = RowGraph(path4, _rows(0b0010, 0b0010, 0b0100, 0b1000))
    rg.node_add(0, 1)
    assert rg.rows[0] == 0
    assert invert(rg.matrix()) is None  # started singular, stays singular


def test_swap_nodes_worked_example(path4):
    rg = RowGraph(path4, _rows(0b1101, 0b0010, 0b1100, 0b1000))
    rg.swap_nodes(0, 1)
    assert rg.rows[0] == 0b0010
    assert rg.rows[1] == 0b1101
    assert rg.op_log == [("SWAP", 0, 1)]
    rg.swap_nodes(0, 1)
    assert rg.rows[:2] == [0b1101, 0b0010]


def test_swap_counts_three_in_emission():
    tree = ReductionTree(0, {1: 0, 2: 1}, {0, 2})
    assert tree.schedule_cost == 3 + 1


def test_tree_reduce_single_edge():
    g = ArchGraph(2, [(0, 1)])
    rg = RowGraph(g, _rows(0b11, 0b10))
    tree = gen_steiner(g, {0, 1}, 0)
    tree_reduce(rg, tree)
    assert rg.rows[0] == 0b01
    assert rg.op_log == [("ADD", 0, 1)]


def test_tree_reduce_steiner_path():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # root R=0, steiner S=1, terminal T=2
    rg = RowGraph(g, _rows(0b101, 0b010, 0b100))
    tree = ReductionTree(0, {1: 0, 2: 1}, {0, 2})
    tree_reduce(rg, tree)
    assert rg.rows == [0b001, 0b100, 0b010]
    assert rg.op_log == [("SWAP", 2, 1), ("ADD", 0, 1)]


def test_tree_reduce_root_only():
    g = ArchGraph(2, [(0, 1)])
    rg = RowGraph(g, _rows(0b01, 0b10))
    tree = gen_steiner(g, {0}, 0)
    tree_reduce(rg, tree)
    assert rg.op_log == []


def test_tree_reduce_checks_precondition():
    g = ArchGraph(2, [(0, 1)])
    rg = RowGraph(g, _rows(0b11, 0b01))
    tree = gen_steiner(g, {0}, 0)  # XOR over {0} = 0b11, not a unit
    before = list(rg.rows)
    with pytest.raises(ReductionError):
        tree_reduce(rg, tree)
    assert rg.rows == before


def test_tracked_no_recovery_needed():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    rg = RowGraph(g, _rows(0b101, 0b010, 0b100))
    tree = ReductionTree(0, {1: 0, 2: 1}, {0, 2})
    ops, tracked = tree_reduce_tracked(rg, tree)
    assert tracked == set()
    assert ops == (("SWAP", 2, 1), ("ADD", 0, 1))


def test_tracked_unit_parent_enters_set():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # terminals {0, 1, 2}: rows XOR to e2; node 1 holds a unit and is a
    # through-station, so its vector is disturbed.
    rg = RowGraph(g, _rows(0b011, 0b001, 0b110))
    tree = gen_steiner(g, {0, 1, 2}, 0)
    ops, tracked = tree_reduce_tracked(rg, tree)
    assert tracked == {1}
    assert rg.rows[0] == 0b100


def test_tracked_replay_reproduces_state():
    rng = random.Random(21)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 12))
        rg = random_reversible_rowgraph(rng, g, 3 * g.n)
        u = rng.choice(rg.non_unit_nodes() or [0])
        e, nodes = solve_unit_combinations(rg.matrix(), u)[0]
        tree = gen_steiner(g, nodes, u)
        baseline = list(rg.rows)
        ops, _ = tree_reduce_tracked(rg, tree)
        after = list(rg.rows)
        fresh = RowGraph(g, baseline)
        for kind, a, b in ops:
            if kind == "ADD":
                fresh.node_add(a, b)
            else:
                fresh.swap_nodes(a, b)
        assert fresh.rows == after


def test_recovery_empty_set_no_ops(path4):
    rg = RowGraph(path4, _rows(1, 2, 4, 8))
    out = reduction_recovery(rg, [], set())
    assert out == []
    assert rg.rows == [1, 2, 4, 8]


def test_recovery_single_add():
    g = ArchGraph(2, [(0, 1)])
    rg = RowGraph(g, _rows(0b01, 0b10))
    rg.node_add(0, 1)  # disturbs the unit on node 0
    ops = [("ADD", 0, 1)]
    rec = reduction_recovery(rg, ops, {0})
    assert rec == [("ADD", 0, 1)]
    assert rg.rows == [0b01, 0b10]


def test_reduce_recover_drops_exactly_one_non_unit():
    rng = random.Random(22)
    hits = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 12))
        rg = random_reversible_rowgraph(rng, g, 3 * g.n)
        non_unit = rg.non_unit_nodes()
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = solve_unit_combinations(rg.matrix(), u)[0]
        tree = gen_steiner(g, nodes, u)
        ops, tracked = tree_reduce_tracked(rg, tree)
        reduction_recovery(rg, ops, tracked)
        assert tracked == set(), "recovery must restore every tracked node"
        assert is_unit(rg.rows[u])
        after = len(rg.non_unit_nodes())
        assert after <= len(non_unit) - 1
        if after == len(non_unit) - 1:
            hits += 1
    assert hits > 20


def test_recovery_never_touches_non_unit_root():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 10))
        rg = random_reversible_rowgraph(rng, g, 3 * g.n)
        non_unit = rg.non_unit_nodes()
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = solve_unit_combinations(rg.matrix(), u)[0]
        tree = gen_steiner(g, nodes, u)
        ops, tracked = tree_reduce_tracked(rg, tree)
        root_row = rg.rows[u]
        rec = reduction_recovery(rg, ops, tracked)
        assert rg.rows[u] == root_row == 1 << e
        for _, a, b in rec:
            assert u not in (a, b)


def test_tracked_then_full_reverse_is_identity():
    rng = random.Random(24)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, 14))
        rg = random_reversible_rowgraph(rng, g, 2 * g.n)
        baseline = list(rg.rows)
        non_unit = rg.non_unit_nodes()
        if not non_unit:
            continue
        u = rng.choice(non_unit)
        e, nodes = solve_unit_combinations(rg.matrix(), u)[0]
        tree = gen_steiner(g, nodes, u)
        mark = rg.mark()
        tree_reduce_tracked(rg, tree)
        rg.undo_to(mark)
        assert rg.rows == baseline


def test_op_log_matrix_oracle():
    rng = random.Random(25)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        rg = RowGraph.from_matrix(g, BitMatrix.identity(g.n))
        before = rg.matrix()
        edges = sorted(g.edges)
        for _ in range(3 * g.n):
            u, v = rng.choice(edges)
            if rng.random() < 0.4:
                rg.swap_nodes(u, v)
            else:
                rg.node_add(u, v)
        composed = ops_to_matrix(rg.op_log, g.n)
        assert mat_mul(composed, before) == rg.matrix()


def test_reversibility_invariant_under_ops():
    rng = random.Random(26)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        rg = random_reversible_rowgraph(rng, g, 4 * g.n)
        assert invert(rg.matrix()) is not None


def test_simple_reduction_already_basic(grid3):
    rg = RowGraph.from_matrix(grid3, BitMatrix.identity(9))
    assert simple_token_reduction(rg) == []


def test_simple_reduction_two_node_path():
    g = ArchGraph(2, [(0, 1)])
    rg = RowGraph(g, _rows(0b11, 0b10))
    ops = simple_token_reduction(rg)
    assert ops == [("ADD", 0, 1)]
    assert rg.is_basic()


def test_simple_reduction_rejects_singular(grid3):
    rows = [1] * 9
    rg = RowGraph(grid3, rows)
    with pytest.raises(SingularMatrixError):
        simple_token_reduction(rg)


def test_simple_reduction_grid_bound_and_equivalence(grid3):
    rng = random.Random(27)
    n = 9
    bound = n * (6 * (n - 2) + 1)
    for _ in range(25):
        rg = random_reversible_rowgraph(rng, grid3, 40)
        before = rg.matrix()
        ops = simple_token_reduction(rg)
        assert rg.is_basic()
        assert rg.matrix().is_permutation()
        weight = sum(3 if kind == "SWAP" else 1 for kind, _, _ in ops)
        assert weight <= bound
        assert mat_mul(ops_to_matrix(ops, n), before) == rg.matrix()


def test_recovery_rejects_out_of_range_ops(path4):
    rg = RowGraph(path4, [1, 2, 4, 8])
    with pytest.raises(ReductionError, match="outside the graph"):
        reduction_recovery(rg, [("ADD", 0, 9)], {0})


def test_undo_to_restores_rows_and_log(grid3):
    rng = random.Random(28)
    rg = random_reversible_rowgraph(rng, grid3, 20)
    baseline = list(rg.rows)
    mark = rg.mark()
    rg.node_add(0, 1)
    rg.swap_nodes(3, 4)
    rg.node_add(1, 2)
    rg.undo_to(mark)
    assert rg.rows == baseline
    assert len(rg.op_log) == mark
