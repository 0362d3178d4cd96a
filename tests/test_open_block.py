"""The open block against the full cost table it stands in for.

At every stage of a greedy reduction on random connected graphs, the
block (non-basic nodes x basis indices with a non-unit inverse row) must
give the full table's loss, its entries and its cheapest candidates in
the same order, and the synthesizer must commit the same steps as a
full-table reference loop written here.
"""

import math
import random
from itertools import chain

import pytest

from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, is_unit
from cnotroute.heuristic import (_cheapest, _inverse_columns, _open_block,
                                 _open_columns, _reduce_pair, build_cost_table,
                                 heuristic_token_reduction, hungarian_assign,
                                 loss)

from conftest import (diagonal_grid_graph, heavy_hex_graph, non_unit_nodes,
                      random_connected_graph, random_reversible_rows)


def _full_candidates(rows, table):
    """Cheapest full-table entries over non-basic rows, node-major."""
    non_unit = non_unit_nodes(rows)
    n = len(table.entries)
    best = min(table.entries[u][e] for u in non_unit for e in range(n))
    return [(u, e) for u in non_unit for e in range(n)
            if table.entries[u][e] == best]


def _fresh_open(g, rows):
    return _open_columns(g, _inverse_columns(g.n, rows))


def _reference_reduction(g, rows):
    """The synthesizer loop over full tables, re-priced every iteration."""
    out = []
    while non_unit_nodes(rows):
        table = build_cost_table(g, rows)
        candidates = _full_candidates(rows, table)
        chosen = candidates[0]
        if len(candidates) > 1:
            best_loss = None
            for u, e in candidates:
                trial = list(rows)
                _reduce_pair(g, trial, u, table.supports[e])
                trial_loss = hungarian_assign(build_cost_table(g, trial)).total
                if best_loss is None or trial_loss < best_loss:
                    best_loss = trial_loss
                    chosen = (u, e)
        u, e = chosen
        out += _reduce_pair(g, rows, u, table.supports[e])
    return out


def _stages(g, rows):
    """(graph, rows) at every stage of a greedy cheapest-first reduction of ``rows``."""
    yield g, rows
    while non_unit_nodes(rows):
        table = build_cost_table(g, rows)
        u, e = _full_candidates(rows, table)[0]
        _reduce_pair(g, rows, u, table.supports[e])
        yield g, rows


def _states(seed, graphs):
    """Every stage of greedy reductions of random rows on random graphs."""
    rng = random.Random(seed)
    for _ in range(graphs):
        n = rng.randrange(2, 13)
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        yield from _stages(g, random_reversible_rows(rng, g, rng.randrange(1, 4 * n)))


def _check_state(g, rows):
    full = build_cost_table(g, rows)
    block = _open_block(g, rows, _fresh_open(g, rows))
    inv = invert(BitMatrix(g.n, rows))
    assert block.nodes == tuple(non_unit_nodes(rows))
    assert block.columns == tuple(e for e in range(g.n)
                                  if not is_unit(inv.rows[e]))
    assert len(block.entries) == len(block.nodes)
    for i, u in enumerate(block.nodes):
        assert len(block.entries[i]) == len(block.columns)
        for j, e in enumerate(block.columns):
            assert block.entries[i][j] == full.entries[u][e]
    for j, e in enumerate(block.columns):
        assert block.supports[j] == full.supports[e] == inv.rows[e]
    assert loss(g, rows) == hungarian_assign(full).total
    assert hungarian_assign(block).total == hungarian_assign(full).total
    if block.nodes:
        assert [(u, e) for u, e, _ in _cheapest(block)] == \
            _full_candidates(rows, full)


def test_block_matches_full_table_at_every_stage():
    states = basic = 0
    for g, rows in _states(3031, 120):
        _check_state(g, rows)
        states += 1
        basic += g.n - len(non_unit_nodes(rows))
    assert states > 500
    assert basic > states  # many states are mostly basic


def test_every_non_basic_node_has_a_finite_entry():
    """The invariant that leaves the block's minimum and its loss finite.

    A non-basic node lies in the support of some open column, so its
    block row holds a finite entry, and a finite assignment exists.
    """
    rng = random.Random(3035)
    devices = [(g, random_reversible_rows(rng, g, walk))
               for g in (heavy_hex_graph(2, 5), heavy_hex_graph(3, 5), diagonal_grid_graph(4, 4))
               for walk in (g.n, 4 * g.n, 16 * g.n)]
    states = chain(_states(3036, 120), *(_stages(g, rows) for g, rows in devices))
    priced = 0
    for g, rows in states:
        block = _open_block(g, rows, _fresh_open(g, rows))
        for u, entries in zip(block.nodes, block.entries):
            assert any(math.isfinite(c) for c in entries), u
        assert math.isfinite(hungarian_assign(block).total)
        priced += len(block.nodes)
    assert priced > 3000, priced


def test_block_and_full_table_both_reject_singular_states():
    rng = random.Random(3032)
    checked = 0
    for g, rows in _states(3033, 40):
        u, v = rng.sample(range(g.n), 2)
        singular = list(rows)
        singular[u] = singular[v]
        for price in (build_cost_table,
                      lambda g, s: _open_block(g, s, _fresh_open(g, s)), loss):
            with pytest.raises(SingularMatrixError):
                price(g, singular)
        checked += 1
    assert checked > 100


def test_synthesizer_commits_the_full_table_reference_steps():
    rng = random.Random(3034)
    for _ in range(40):
        n = rng.randrange(2, 10)
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        rows = random_reversible_rows(rng, g, 4 * n)
        twin = list(rows)
        assert heuristic_token_reduction(g, rows) == _reference_reduction(g, twin)
        assert rows == twin
