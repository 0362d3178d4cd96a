"""Bound-and-prune look-ahead against an unpruned reference.

``heuristic_token_reduction`` stops pricing a tie candidate once the
sum of its open block's column minima, with unpriced columns counted at
their lower bound |V| - 1 + 2|S| + U (schedule weight plus the unit-row
terminals with two or more tree neighbours), shows that its loss cannot
beat the best (loss, index) so far.  The device-scale test checks that
pruning never changes a committed step; the property test checks the
inequalities the bound rests on; the pinned-set test caps the pricing
work the bound leaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute import heuristic
from cnotroute.arch import (ArchGraph, get_architecture, list_architectures,
                           steiner_entry)
from cnotroute.bench import random_cnot_circuit
from cnotroute.gf2 import transpose, vec_support
from cnotroute.heuristic import (_cheapest, _column_bounds, _inverse_columns,
                                 _open_block, _open_columns, _reduce_pair,
                                 heuristic_token_reduction, hungarian_assign)
from cnotroute.rowgraph import reduction_costs
from cnotroute.synthesis import linear_matrix

from conftest import entry_bound, non_unit_nodes
from test_pinned_output import routes


def _fresh_open(graph, rows):
    return _open_columns(graph, _inverse_columns(graph.n, rows))


def _reference_reduction(graph, rows, stats):
    """The look-ahead without bounds: every candidate priced and assigned.

    Each trial is priced from a fresh inverse, the first strict minimum
    of the losses in candidate order wins and is re-run to commit.
    """
    out = []
    while non_unit_nodes(rows):
        candidates = _cheapest(_open_block(graph, rows, _fresh_open(graph, rows)))
        chosen = candidates[0]
        if len(candidates) > 1:
            losses = []
            for u, e, sup in candidates:
                trial = list(rows)
                _reduce_pair(graph, trial, u, sup)
                losses.append(hungarian_assign(
                    _open_block(graph, trial, _fresh_open(graph, trial))).total)
            best = min(losses)
            chosen = candidates[losses.index(best)]
            stats["candidates"] += len(candidates)
            stats["equal_best"] += losses.count(best) > 1
        u, e, sup = chosen
        out += _reduce_pair(graph, rows, u, sup)
    return out


@pytest.mark.parametrize("arch", list_architectures())
def test_pruned_synthesizer_matches_the_unpruned_reference(arch, monkeypatch):
    stats = {"candidates": 0, "equal_best": 0, "assigned": 0, "cut": 0}
    assign = heuristic.hungarian_assign
    price = heuristic._open_block

    def assign_counted(block):
        stats["assigned"] += 1
        return assign(block)

    def price_counted(graph, rows, opened, weights=None, bound=None):
        block = price(graph, rows, opened, weights, bound)
        stats["cut"] += block is None
        return block

    monkeypatch.setattr(heuristic, "hungarian_assign", assign_counted)
    monkeypatch.setattr(heuristic, "_open_block", price_counted)
    graph, _ = get_architecture(arch)
    for gates in (32, 64, 128, 256):
        for seed in range(2):
            c = random_cnot_circuit(graph.n, gates, 6061 + 1000 * gates + seed)
            rows = transpose(linear_matrix(c.gates, graph.n)).rows
            twin = list(rows)
            assert heuristic_token_reduction(graph, rows) == \
                _reference_reduction(graph, twin, stats)
            assert rows == twin
    # pruning fired, both mid-pricing and before it, and equal losses
    # occurred, so the (loss, index) rule was exercised
    assert stats["cut"] > 0
    assert stats["assigned"] + stats["cut"] < stats["candidates"]
    assert stats["equal_best"] > 0


@st.composite
def walked_states(draw):
    """(graph, rows): a random connected graph on 1..14 nodes and the rows
    after a random row-op walk from the identity."""
    n = draw(st.integers(1, 14))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[i], label[draw(st.integers(0, i - 1))])))
             for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    rows = [1 << i for i in range(n)]
    if edges:
        walk = st.tuples(st.sampled_from(edges), st.booleans(), st.booleans())
        for (a, b), flip, swap in draw(st.lists(walk, max_size=4 * n)):
            if flip:
                a, b = b, a
            if swap:
                rows[a], rows[b] = rows[b], rows[a]
            else:
                rows[a] ^= rows[b]
    return ArchGraph(n, edges), rows


def test_bound_is_a_lower_bound_on_every_entry_and_the_loss():
    raised = []

    # derandomized: the count asserted below varies with the draw, and
    # about one run in eight with a random draw fell short of it
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(walked_states())
    def check(state):
        graph, rows = state
        opened = _fresh_open(graph, rows)
        weights = _column_bounds(rows, opened)
        block = _open_block(graph, rows, opened)
        position = {u: i for i, u in enumerate(block.nodes)}
        minima = []
        for j, sup in enumerate(block.supports):
            grown, steiner = steiner_entry(graph, sup)
            schedule = len(grown) - 1 + 2 * len(steiner)
            assert weights[j] == entry_bound(rows, grown, steiner)
            raised.append(weights[j] > schedule)
            roots = [u for u in vec_support(sup) if u in position]
            costs = reduction_costs(rows, grown, steiner, roots)
            assert schedule >= sup.bit_count() - 1
            assert costs == [block.entries[position[u]][j] for u in roots]
            assert all(r[j] >= weights[j] for r in block.entries)
            minima.append(min(block.entries[i][j] for i in range(len(block.nodes))))
        total = hungarian_assign(block).total
        assert total >= sum(minima) >= sum(weights)
        # a bound the loss meets never prunes; one below the minima always does
        assert _open_block(graph, rows, opened, weights, total) == block
        if minima:
            assert _open_block(graph, rows, opened, weights, sum(minima) - 1) is None

    check()
    # U raised the bound of some generated columns
    assert sum(raised) > 10, (sum(raised), len(raised))


def test_pricing_work_on_the_pinned_set_stays_within_its_counts(monkeypatch):
    """Routing the pinned set prices at most 8,911 columns in 544 solves.

    Without U in the bound it took 13,325 ``reduction_costs`` calls and
    589 assignment solves.
    """
    counts = {"priced": 0, "solved": 0}
    price = heuristic.reduction_costs
    assign = heuristic.hungarian_assign

    def price_counted(*args):
        counts["priced"] += 1
        return price(*args)

    def assign_counted(table):
        counts["solved"] += 1
        return assign(table)

    monkeypatch.setattr(heuristic, "reduction_costs", price_counted)
    monkeypatch.setattr(heuristic, "hungarian_assign", assign_counted)
    for graph, circuit, route, m0 in routes():
        route(circuit, graph, m0)
    assert counts["priced"] <= 8_911, counts
    assert counts["solved"] <= 544, counts
