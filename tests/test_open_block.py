"""The open block against the full cost table it stands in for.

At every stage of a greedy reduction on random connected graphs, the
block (non-basic nodes x basis indices with a non-unit inverse row) must
give the full table's loss, its entries and its cheapest candidates in
the same order, and the synthesizer must commit the same steps as the
full-table reference loop in ``conftest``.  Pricing and reduction must
build each tree from the entry its open column holds, not grow it again
after the tree cache is cleared.
"""

import math
import random
from itertools import chain

import pytest

from cnotroute import arch, heuristic, synthesis
from cnotroute.arch import get_architecture
from cnotroute.bench import random_cnot_circuit
from cnotroute.circuit import Mapping
from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, is_unit
from cnotroute.heuristic import (_cheapest, _open_block, _open_columns, _reduce_pair,
                                 build_cost_table, heuristic_token_reduction,
                                 hungarian_assign, loss)
from cnotroute.synthesis import route_cnot_block

from conftest import (diagonal_grid_graph, heavy_hex_graph, non_unit_nodes,
                      random_connected_graph, random_reversible_rows, reference_reduction)


def _full_candidates(rows, table):
    """Cheapest full-table entries over non-basic rows, node-major."""
    non_unit = non_unit_nodes(rows)
    n = len(table.entries)
    best = min(table.entries[u][e] for u in non_unit for e in range(n))
    return [(u, e) for u in non_unit for e in range(n)
            if table.entries[u][e] == best]


def _fresh_open(g, rows):
    return _open_columns(g, invert(BitMatrix(g.n, rows)).rows)


def _reduce_along(g, rows, u, sup):
    """``_reduce_pair`` along the tree of ``sup``, with its cache entry."""
    return _reduce_pair(g, rows, u, sup, g._steiner[sup])


def _stages(g, rows):
    """(graph, rows) at every stage of a greedy cheapest-first reduction of ``rows``."""
    yield g, rows
    while non_unit_nodes(rows):
        table = build_cost_table(g, rows)
        u, e = _full_candidates(rows, table)[0]
        _reduce_along(g, rows, u, table.supports[e])
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
    opened = _fresh_open(g, rows)
    block = _open_block(g, rows, opened)
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
        assert [(u, e) for u, e, _, _ in _cheapest(block, opened)] == \
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
        assert heuristic_token_reduction(g, rows) == reference_reduction(g, twin)
        assert rows == twin


def test_pricing_grows_no_tree_when_the_cache_is_cleared_after_opening(monkeypatch):
    """A cache cleared every 8 terminal sets makes no tree grow inside
    ``_open_block``, ``_cheapest_bounded`` or ``_reduce_pair``, committed
    or trial: they build the trees of the entries their open columns
    hold."""
    grown = {"pricing": 0, "reduction": 0, "elsewhere": 0}
    reductions = {"committed": 0, "trial": 0}
    inside = []
    grow = arch._grow_steiner_graph
    reduce = heuristic._reduce_pair

    def grow_counted(g, mask):
        grown[inside[-1] if inside else "elsewhere"] += 1
        return grow(g, mask)

    def marked(kind, call):
        def call_marked(*args):
            inside.append(kind)
            out = call(*args)
            inside.pop()
            return out
        return call_marked

    def reduce_counted(graph, rows, *args):
        # the synthesizer reduces its own rows to commit, a copy to trial
        reductions["committed" if rows is committed[0] else "trial"] += 1
        return reduce(graph, rows, *args)

    monkeypatch.setattr(arch, "_GROW_CACHE_CAP", 8)
    monkeypatch.setattr(arch, "_grow_steiner_graph", grow_counted)
    for name, kind in (("_open_block", "pricing"), ("_cheapest_bounded", "pricing")):
        monkeypatch.setattr(heuristic, name, marked(kind, getattr(heuristic, name)))
    monkeypatch.setattr(heuristic, "_reduce_pair", marked("reduction", reduce_counted))
    synthesize = heuristic._token_reduction
    committed = [None]

    def synthesize_noted(graph, rows, sups):
        committed[0] = rows
        return synthesize(graph, rows, sups)

    monkeypatch.setattr(synthesis, "_token_reduction", synthesize_noted)
    graph, stock = get_architecture("ibm-q20-tokyo")
    for seed in range(4):
        route_cnot_block(random_cnot_circuit(graph.n, 64, 3037 + seed), graph, Mapping(stock))
    assert grown["elsewhere"] > 1000, grown
    assert reductions["committed"] > 20 and reductions["trial"] > 150, reductions
    assert grown["pricing"] == grown["reduction"] == 0, grown
