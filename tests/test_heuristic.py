"""Cost table, Hungarian assignment, loss, and the main synthesizer."""

import math
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import cnotroute

from cnotroute.arch import ArchGraph
from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, mat_mul
from cnotroute.heuristic import (Assignment, AssignmentError, CostTable,
                                 _reduce_pair, build_cost_table,
                                 heuristic_token_reduction, hungarian_assign,
                                 loss)

from conftest import (brute_force_unit_combinations, matrix, non_unit_nodes,
                      ops_to_matrix, random_connected_graph,
                      random_reversible_rows)


def _table(entries):
    n = len(entries)
    return CostTable(tuple(tuple(r) for r in entries), (0,) * n,
                     tuple(range(n)), tuple(range(n)))


def test_cost_zero_when_already_held(path4):
    assert build_cost_table(path4, [0b0001, 0b0010, 0b0100, 0b1000]).entries[0][0] == 0


def test_cost_two_node_path():
    g = ArchGraph(2, [(0, 1)])
    assert build_cost_table(g, [0b11, 0b10]).entries[0][0] == 1


def test_cost_infinite_iff_inverse_zero():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(2, 6)
        g = random_connected_graph(rng, n)
        rows = random_reversible_rows(rng, g, 3 * n)
        inv = invert(BitMatrix(n, rows))
        oracle = {u: brute_force_unit_combinations(BitMatrix(n, rows), u)
                  for u in range(n)}
        entries = build_cost_table(g, rows).entries
        for u in range(n):
            reachable = {e for e, _ in oracle[u]}
            for e in range(n):
                c = entries[u][e]
                if e in reachable:
                    assert math.isfinite(c)
                    assert (inv.rows[e] >> u) & 1
                else:
                    assert c == math.inf
                    assert not (inv.rows[e] >> u) & 1


def test_cost_leaves_state_bit_identical():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randrange(2, 10)
        g = random_connected_graph(rng, n)
        rows = random_reversible_rows(rng, g, 3 * n)
        snapshot = list(rows)
        build_cost_table(g, rows)
        assert rows == snapshot


def test_build_cost_table_basic_state(grid3):
    table = build_cost_table(grid3, [1 << i for i in range(9)])
    for u in range(9):
        row = table.entries[u]
        assert row[u] == 0
        assert sum(1 for v in row if v == 0) == 1


def test_build_cost_table_worked_example(path4):
    pt = matrix([[1, 0, 1, 1], [0, 1, 0, 0],
                 [0, 0, 1, 1], [0, 0, 0, 1]])
    table = build_cost_table(path4, pt.rows)
    inv = invert(pt)
    for u in range(4):
        for e in range(4):
            finite = math.isfinite(table.entries[u][e])
            assert finite == bool((inv.rows[e] >> u) & 1)
        assert any(math.isfinite(v) for v in table.entries[u])
    # hand-traced entries on the A-B-C-D line
    assert table.entries[0][0] == 4   # swap then add through the line
    assert table.entries[2][2] == 1   # one add from the right neighbour
    assert table.entries[1][1] == 0
    assert table.entries[3][3] == 0


def test_build_cost_table_rows_have_finite_entry():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randrange(2, 10)
        g = random_connected_graph(rng, n)
        table = build_cost_table(g, random_reversible_rows(rng, g, 3 * n))
        for u in range(n):
            assert any(math.isfinite(v) for v in table.entries[u])
        for e in range(n):
            assert any(math.isfinite(table.entries[u][e]) for u in range(n))


def test_hungarian_two_by_two():
    asg = hungarian_assign(_table([[1, 2], [2, 4]]))
    assert asg.by_node == (1, 0)
    assert asg.total == 4


def test_hungarian_diagonal_zero():
    asg = hungarian_assign(_table([[0, 5, 5], [5, 0, 5], [5, 5, 0]]))
    assert asg.by_node == (0, 1, 2)
    assert asg.total == 0


def test_hungarian_vs_factorial_brute_force():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randrange(1, 7)
        entries = [[rng.randrange(50) for _ in range(n)] for _ in range(n)]
        asg = hungarian_assign(_table(entries))
        best = min(sum(entries[u][p[u]] for u in range(n))
                   for p in permutations(range(n)))
        assert asg.total == best
        assert sorted(asg.by_node) == list(range(n))
        assert sum(entries[u][asg.by_node[u]] for u in range(n)) == best


def test_hungarian_rejects_infinite_assignment():
    inf = math.inf
    for entries in ([[inf, inf], [1, 2]],  # an all-inf row
                    [[inf, 1], [inf, 2]],  # an all-inf column
                    # a Hall violation: every row and column has a finite
                    # entry, but rows 0 and 1 reach only column 0
                    [[1, inf, inf], [2, inf, inf], [3, 4, 5]]):
        with pytest.raises(AssignmentError):
            hungarian_assign(_table(entries))


@pytest.mark.parametrize("entries", [[[1], [2]], [[1, 2]], [[1, 2], [3, 4, 5]]],
                         ids=["2x1", "1x2", "ragged"])
def test_hungarian_rejects_a_table_that_is_not_square(entries):
    with pytest.raises(AssignmentError, match="square"):
        hungarian_assign(_table(entries))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    # entries 0-9 force ties, 0-49 spread the totals, inf forbids pairs
    st.lists(st.one_of(st.integers(0, 9), st.integers(0, 49), st.just(math.inf)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_hungarian_is_the_brute_force_minimum(entries):
    n = len(entries)
    best = min(sum(entries[u][p[u]] for u in range(n)) for p in permutations(range(n)))
    if best == math.inf:
        with pytest.raises(AssignmentError):
            hungarian_assign(_table(entries))
        return
    asg = hungarian_assign(_table(entries))
    assert asg.total == best
    assert sorted(asg.by_node) == list(range(n))
    assert sum(entries[u][asg.by_node[u]] for u in range(n)) == best


def test_hungarian_total_matches_scipy():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(1, 21)
        forbidden = rng.choice([0, 0.2, 0.5])
        entries = [[math.inf if rng.random() < forbidden else rng.randrange(30)
                    for _ in range(n)] for _ in range(n)]
        try:
            rows, cols = linear_sum_assignment(entries)
        except ValueError:  # scipy: "cost matrix is infeasible"
            with pytest.raises(AssignmentError):
                hungarian_assign(_table(entries))
            continue
        assert hungarian_assign(_table(entries)).total == sum(
            entries[r][c] for r, c in zip(rows, cols))


def test_routing_imports_no_third_party_module():
    src = str(Path(cnotroute.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, cnotroute as cr\n"
        "graph, stock = cr.resolve_architecture('ibm-qx5')\n"
        "circuit = cr.random_cnot_circuit(graph.n, 64, 5)\n"
        "routed = cr.route_cnot_block(circuit, graph, cr.Mapping(stock))\n"
        "assert cr.verify_equivalence(circuit, cr.postprocess(routed), graph)\n"
        "print(sorted({'scipy', 'numpy'} & {m.split('.')[0] for m in sys.modules}))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_hungarian_avoids_sentinel_for_reversible():
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randrange(2, 9)
        g = random_connected_graph(rng, n)
        table = build_cost_table(g, random_reversible_rows(rng, g, 3 * n))
        asg = hungarian_assign(table)
        for u in range(n):
            assert math.isfinite(table.entries[u][asg.by_node[u]])


def test_loss_zero_for_basic(grid3):
    assert loss(grid3, [1 << i for i in range(9)]) == 0


def test_loss_finite_for_reversible():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        assert math.isfinite(loss(g, random_reversible_rows(rng, g, 3 * g.n)))


def test_heuristic_on_basic_input(grid3):
    rows = [1 << i for i in range(9)]
    assert heuristic_token_reduction(grid3, rows) == []
    assert rows == [1 << i for i in range(9)]


def test_heuristic_worked_example(path4):
    pt = matrix([[1, 0, 1, 1], [0, 1, 0, 0],
                 [0, 0, 1, 1], [0, 0, 0, 1]])
    rows = list(pt.rows)
    ops = heuristic_token_reduction(path4, rows)
    assert not non_unit_nodes(rows)
    final = BitMatrix(4, rows)
    assert final.is_permutation()
    # the op product applied to the start matrix reproduces the end state
    assert mat_mul(ops_to_matrix(ops, 4), pt) == final


def test_heuristic_monotone_progress_and_bound():
    rng = random.Random(38)
    for _ in range(6):
        g = random_connected_graph(rng, 9, extra=3)
        rows = random_reversible_rows(rng, g, 30)

        counts = [len(non_unit_nodes(rows))]
        total_iters = 0
        ops = []
        while non_unit_nodes(rows):
            table = build_cost_table(g, rows)
            non_unit = non_unit_nodes(rows)
            best = min(table.entries[u][e] for u in non_unit for e in range(9))
            u, e = next((u, e) for u in non_unit for e in range(9)
                        if table.entries[u][e] == best)
            sup = table.supports[e]
            ops += _reduce_pair(g, rows, u, sup, g._steiner[sup])
            counts.append(len(non_unit_nodes(rows)))
            total_iters += 1
            assert counts[-1] < counts[-2]
        assert total_iters <= 9
        weight = sum(3 if kind == "SWAP" else 1 for kind, _, _ in ops)
        assert weight <= 9 * (6 * 7 + 1)


def test_heuristic_random_instances_verified(grid3):
    rng = random.Random(39)
    bound = 9 * (6 * 7 + 1)
    for _ in range(100):
        rows = random_reversible_rows(rng, grid3, 40)
        before = BitMatrix(9, rows)
        ops = heuristic_token_reduction(grid3, rows)
        assert not non_unit_nodes(rows)
        assert BitMatrix(9, rows).is_permutation()
        assert mat_mul(ops_to_matrix(ops, 9), before) == BitMatrix(9, rows)
        weight = sum(3 if kind == "SWAP" else 1 for kind, _, _ in ops)
        assert weight <= bound


def test_heuristic_rejects_singular(grid3):
    rows = [1] * 9  # every row e0: unit rows, still singular
    with pytest.raises(SingularMatrixError):
        heuristic_token_reduction(grid3, rows)


@pytest.mark.parametrize("rows", [[1, 2, 12], [1, -2, 4]])
def test_heuristic_rejects_rows_outside_n_bits(rows):
    path3 = ArchGraph(3, [(0, 1), (1, 2)])
    given = list(rows)
    with pytest.raises(ValueError, match="3-bit vectors"):
        heuristic_token_reduction(path3, rows)
    assert rows == given


@pytest.mark.parametrize("count", [8, 10])
@pytest.mark.parametrize("price", [heuristic_token_reduction, build_cost_table, loss])
def test_wrong_row_count_is_rejected(grid3, price, count):
    rows = [1 << i for i in range(count)]
    with pytest.raises(ValueError, match="expected 9 rows"):
        price(grid3, rows)
    assert rows == [1 << i for i in range(count)]


def test_loss_trajectory_diagnostic(grid3, capsys):
    # Recorded as a metric, not asserted: greedy steps may regress the
    # loss locally, but the trajectory should be visible when debugging.
    rng = random.Random(40)
    rows = random_reversible_rows(rng, grid3, 30)
    trajectory = [loss(grid3, rows)]
    while non_unit_nodes(rows):
        table = build_cost_table(grid3, rows)
        non_unit = non_unit_nodes(rows)
        best = min(table.entries[u][e] for u in non_unit for e in range(9))
        u, e = next((u, e) for u in non_unit for e in range(9)
                    if table.entries[u][e] == best)
        sup = table.supports[e]
        _reduce_pair(grid3, rows, u, sup, grid3._steiner[sup])
        trajectory.append(loss(grid3, rows))
    print(f"loss trajectory: {trajectory}")
    assert trajectory[-1] == 0
    regressions = sum(1 for a, b in zip(trajectory, trajectory[1:]) if b > a)
    print(f"local regressions: {regressions}/{len(trajectory) - 1}")
