"""Row-list primitives: tree reduction, recovery and the ops they return."""

import random

from cnotroute.arch import ArchGraph
from cnotroute.gf2 import BitMatrix, invert, is_unit, mat_mul
from cnotroute.rowgraph import _costs, _recover, _reduce_tracked

from conftest import (cache_form, grown_tree, non_unit_nodes, ops_to_matrix,
                      random_connected_graph, random_reversible_rows, unit_combinations)


def test_node_add_worked_example(path4):
    # f(B) = e0+e2+e3, f(C) = e2+e3: adding C into B leaves e0.
    rows = [0b0010, 0b1101, 0b1100, 0b1000]
    ops, _ = _reduce_tracked(rows, *grown_tree(path4, {1, 2}), 1)
    assert rows[1] == 0b0001
    assert list(ops) == [("ADD", 1, 2)]


def test_swap_counts_three_in_emission():
    # root 0, Steiner point 1, terminal 2; nothing needs recovery
    path = {0: (1,), 1: (0, 2), 2: (1,)}
    assert _costs([0b101, 0b010, 0b100], *cache_form(path, {1}), [0]) == [3 + 1]


def test_tree_reduce_single_edge():
    g = ArchGraph(2, [(0, 1)])
    rows = [0b11, 0b10]
    ops, _ = _reduce_tracked(rows, *grown_tree(g, {0, 1}), 0)
    assert rows[0] == 0b01
    assert list(ops) == [("ADD", 0, 1)]


def test_tree_reduce_steiner_path():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # root R=0, steiner S=1, terminal T=2
    rows = [0b101, 0b010, 0b100]
    ops, _ = _reduce_tracked(rows, *grown_tree(g, {0, 2}), 0)
    assert rows == [0b001, 0b100, 0b010]
    assert list(ops) == [("SWAP", 2, 1), ("ADD", 0, 1)]


def test_tree_reduce_root_only():
    g = ArchGraph(2, [(0, 1)])
    rows = [0b01, 0b10]
    ops, _ = _reduce_tracked(rows, *grown_tree(g, {0}), 0)
    assert list(ops) == []


def test_tracked_no_recovery_needed():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    rows = [0b101, 0b010, 0b100]
    ops, tracked = _reduce_tracked(rows, *grown_tree(g, {0, 2}), 0)
    assert tracked == set()
    assert ops == (("SWAP", 2, 1), ("ADD", 0, 1))


def test_tracked_unit_parent_enters_set():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    # terminals {0, 1, 2}: rows XOR to e2; node 1 holds a unit and is a
    # through-station, so its vector is disturbed.
    rows = [0b011, 0b001, 0b110]
    ops, tracked = _reduce_tracked(rows, *grown_tree(g, {0, 1, 2}), 0)
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
        ops, _ = _reduce_tracked(rows, *grown_tree(g, nodes), u)
        assert all(g.is_edge(a, b) for _, a, b in ops)
        assert mat_mul(ops_to_matrix(ops, g.n), baseline) == BitMatrix(g.n, rows)


def test_recovery_empty_set_no_ops():
    rows = [1, 2, 4, 8]
    out = _recover(rows, [], set())
    assert out == []
    assert rows == [1, 2, 4, 8]


def test_recovery_single_add():
    rows = [0b11, 0b10]  # ADD(0, 1) disturbed the unit on node 0
    ops = [("ADD", 0, 1)]
    rec = _recover(rows, ops, {0})
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
        ops, tracked = _reduce_tracked(rows, *grown_tree(g, nodes), u)
        _recover(rows, ops, tracked)
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
        ops, tracked = _reduce_tracked(rows, *grown_tree(g, nodes), u)
        root_row = rows[u]
        rec = _recover(rows, ops, tracked)
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
        ops, _ = _reduce_tracked(rows, *grown_tree(g, nodes), u)
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
            ops, tracked = _reduce_tracked(rows, *grown_tree(g, nodes), u)
            run += ops
            run += _recover(rows, ops, tracked)
        composed = ops_to_matrix(run, g.n)
        assert mat_mul(composed, before) == BitMatrix(g.n, rows)


def test_reversibility_invariant_under_ops():
    rng = random.Random(26)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        rows = random_reversible_rows(rng, g, 4 * g.n)
        invert(BitMatrix(g.n, rows))  # raises SingularMatrixError if singular
