"""Bound-and-prune look-ahead against an unpruned reference.

``heuristic_token_reduction`` stops pricing a tie candidate once the
sum of its open block's column minima, with unpriced columns counted at
their trees' schedule weight |V| - 1 + 2|S|, shows that its loss cannot
beat the best (loss, index) so far.  The device-scale test checks that
pruning never changes a committed step; the property test checks the
inequalities the bound rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute import heuristic
from cnotroute.arch import (ArchGraph, get_architecture, list_architectures,
                           steiner_entry)
from cnotroute.bench import random_cnot_circuit
from cnotroute.gf2 import BitMatrix, transpose
from cnotroute.heuristic import (_cheapest, _inverse_columns, _open_block,
                                 _reduce_pair, heuristic_token_reduction,
                                 hungarian_assign)
from cnotroute.rowgraph import RowGraph, reduction_costs
from cnotroute.synthesis import circuit_to_matrix


def _reference_reduction(rg, stats):
    """The look-ahead without bounds: every candidate priced and assigned.

    Each trial is priced from a fresh inverse, the first strict minimum
    of the losses in candidate order wins and is re-run to commit.
    """
    start = rg.mark()
    while not rg.is_basic():
        candidates = _cheapest(_open_block(rg, _inverse_columns(rg)))
        chosen = candidates[0]
        if len(candidates) > 1:
            losses = []
            for u, e, sup in candidates:
                mark = rg.mark()
                _reduce_pair(rg, u, e, frozenset(sup))
                losses.append(hungarian_assign(
                    _open_block(rg, _inverse_columns(rg))).total)
                rg.undo_to(mark)
            best = min(losses)
            chosen = candidates[losses.index(best)]
            stats["candidates"] += len(candidates)
            stats["equal_best"] += losses.count(best) > 1
        u, e, sup = chosen
        _reduce_pair(rg, u, e, frozenset(sup))
    return list(rg.op_log[start:])


@pytest.mark.parametrize("arch", list_architectures())
def test_pruned_synthesizer_matches_the_unpruned_reference(arch, monkeypatch):
    stats = {"candidates": 0, "equal_best": 0, "assigned": 0, "cut": 0}
    assign = heuristic.hungarian_assign
    price = heuristic._open_block

    def assign_counted(block):
        stats["assigned"] += 1
        return assign(block)

    def price_counted(rg, cols, bound=None):
        block = price(rg, cols, bound)
        stats["cut"] += block is None
        return block

    monkeypatch.setattr(heuristic, "hungarian_assign", assign_counted)
    monkeypatch.setattr(heuristic, "_open_block", price_counted)
    graph, _ = get_architecture(arch)
    for gates in (32, 64, 128, 256):
        for seed in range(2):
            c = random_cnot_circuit(graph.n, gates, 6061 + 1000 * gates + seed)
            rg = RowGraph.from_matrix(graph, transpose(circuit_to_matrix(c)))
            twin = rg.clone()
            assert heuristic_token_reduction(rg) == \
                _reference_reduction(twin, stats)
            assert rg.rows == twin.rows
    # pruning fired, both mid-pricing and before it, and equal losses
    # occurred, so the (loss, index) rule was exercised
    assert stats["cut"] > 0
    assert stats["assigned"] + stats["cut"] < stats["candidates"]
    assert stats["equal_best"] > 0


@st.composite
def walked_states(draw):
    """A random connected graph on 1..14 nodes and a random row-op walk."""
    n = draw(st.integers(1, 14))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[i], label[draw(st.integers(0, i - 1))])))
             for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    rg = RowGraph.from_matrix(ArchGraph(n, edges), BitMatrix.identity(n))
    if edges:
        walk = st.tuples(st.sampled_from(edges), st.booleans(), st.booleans())
        for (a, b), flip, swap in draw(st.lists(walk, max_size=4 * n)):
            if flip:
                a, b = b, a
            if swap:
                rg.swap_nodes(a, b)
            else:
                rg.node_add(a, b)
    return rg


@settings(max_examples=300, deadline=None, database=None)
@given(walked_states())
def test_bound_is_a_lower_bound_on_every_entry_and_the_loss(rg):
    cols = _inverse_columns(rg)
    block = _open_block(rg, cols)
    position = {u: i for i, u in enumerate(block.nodes)}
    minima = []
    for j, sup in enumerate(block.supports):
        grown, steiner, _ = steiner_entry(rg.graph, sup)
        weight = len(grown) - 1 + 2 * len(steiner)
        roots = [u for u in sup if u in position]
        costs = reduction_costs(rg.rows, grown, steiner, roots)
        assert weight >= len(sup) - 1
        assert all(c >= weight for c in costs)
        assert costs == [block.entries[position[u]][j] for u in roots]
        minima.append(min(block.entries[i][j] for i in range(len(block.nodes))))
    total = hungarian_assign(block).total
    assert total >= sum(minima)
    # a bound the loss meets never prunes; one below the minima always does
    assert _open_block(rg, cols, total) == block
    if minima:
        assert _open_block(rg, cols, sum(minima) - 1) is None
