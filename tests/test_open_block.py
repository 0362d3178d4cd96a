"""The open block against the full cost table it stands in for.

At every stage of a greedy reduction on random connected graphs, the
block (non-basic nodes x basis indices with a non-unit inverse row) must
give the full table's loss, its entries and its cheapest candidates in
the same order, and the synthesizer must commit the same steps as a
full-table reference loop written here.
"""

import random

import pytest

from cnotroute.gf2 import SingularMatrixError, invert, is_unit
from cnotroute.heuristic import (_cheapest, _inverse_columns, _open_block,
                                 _open_columns, _reduce_pair, build_cost_table,
                                 heuristic_token_reduction, hungarian_assign,
                                 loss)
from cnotroute.rowgraph import RowGraph

from conftest import (non_unit_nodes, random_connected_graph,
                      random_reversible_rowgraph)


def _full_candidates(rg, table):
    """Cheapest full-table entries over non-basic rows, node-major."""
    non_unit = non_unit_nodes(rg)
    best = min(table.entries[u][e] for u in non_unit for e in range(table.n))
    return [(u, e) for u in non_unit for e in range(table.n)
            if table.entries[u][e] == best]


def _fresh_open(rg):
    return _open_columns(rg.graph, _inverse_columns(rg))


def _reference_reduction(rg):
    """The synthesizer loop over full tables, re-priced every iteration."""
    start = rg.mark()
    while non_unit_nodes(rg):
        table = build_cost_table(rg)
        candidates = _full_candidates(rg, table)
        chosen = candidates[0]
        if len(candidates) > 1:
            best_loss = None
            mark = rg.mark()
            base = list(rg.rows)
            for u, e in candidates:
                _reduce_pair(rg, u, e, table.supports[e])
                trial_loss = hungarian_assign(build_cost_table(rg)).total
                rg.rows[:] = base
                del rg.op_log[mark:]
                if best_loss is None or trial_loss < best_loss:
                    best_loss = trial_loss
                    chosen = (u, e)
        u, e = chosen
        _reduce_pair(rg, u, e, table.supports[e])
    return list(rg.op_log[start:])


def _states(seed, graphs):
    """Row graphs at every stage of a greedy cheapest-first reduction."""
    rng = random.Random(seed)
    for _ in range(graphs):
        n = rng.randrange(2, 13)
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        rg = random_reversible_rowgraph(rng, g, rng.randrange(1, 4 * n))
        yield rg
        while non_unit_nodes(rg):
            table = build_cost_table(rg)
            u, e = _full_candidates(rg, table)[0]
            _reduce_pair(rg, u, e, table.supports[e])
            yield rg


def _check_state(rg):
    full = build_cost_table(rg)
    block = _open_block(rg.graph, rg.rows, _fresh_open(rg))
    inv = invert(rg.matrix())
    assert block.nodes == tuple(non_unit_nodes(rg))
    assert block.columns == tuple(e for e in range(rg.graph.n)
                                  if not is_unit(inv.rows[e]))
    assert len(block.entries) == len(block.nodes)
    for i, u in enumerate(block.nodes):
        assert len(block.entries[i]) == len(block.columns)
        for j, e in enumerate(block.columns):
            assert block.entries[i][j] == full.entries[u][e]
    for j, e in enumerate(block.columns):
        assert block.supports[j] == full.supports[e] == inv.rows[e]
    assert loss(rg) == hungarian_assign(full).total
    assert hungarian_assign(block).total == hungarian_assign(full).total
    if block.nodes:
        assert [(u, e) for u, e, _ in _cheapest(block)] == \
            _full_candidates(rg, full)


def test_block_matches_full_table_at_every_stage():
    states = basic = 0
    for rg in _states(3031, 120):
        _check_state(rg)
        states += 1
        basic += rg.graph.n - len(non_unit_nodes(rg))
    assert states > 500
    assert basic > states  # many states are mostly basic


def test_block_and_full_table_both_reject_singular_states():
    rng = random.Random(3032)
    checked = 0
    for rg in _states(3033, 40):
        n = rg.graph.n
        u, v = rng.sample(range(n), 2)
        rows = list(rg.rows)
        rows[u] = rows[v]
        singular = RowGraph(rg.graph, rows)
        for price in (build_cost_table,
                      lambda s: _open_block(s.graph, s.rows, _fresh_open(s)), loss):
            with pytest.raises(SingularMatrixError):
                price(singular)
        checked += 1
    assert checked > 100


def test_synthesizer_commits_the_full_table_reference_steps():
    rng = random.Random(3034)
    for _ in range(40):
        n = rng.randrange(2, 10)
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        rg = random_reversible_rowgraph(rng, g, 4 * n)
        twin = RowGraph(g, rg.rows)
        assert heuristic_token_reduction(rg) == _reference_reduction(twin)
        assert rg.rows == twin.rows
