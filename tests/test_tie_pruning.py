"""Bound-and-prune look-ahead against an unpruned reference.

``heuristic_token_reduction`` scores only the ``_PRICED_TRIALS`` tie
candidates lowest in (bound, index), and stops pricing one once the sum
of its open block's column minima, with unpriced columns counted at
their lower bound |V| - 1 + 2|S| + U (schedule weight plus the unit-row
terminals with two or more tree neighbours), shows that its loss cannot
beat the best (loss, index) so far.  The device-scale tests check that
pruning never changes a committed step, under the router's rule and,
with every trial priced, under the paper's; a small state shows the two
rules commit different steps; the property test checks the inequalities
the bound rests on; the pinned-set test caps the pricing work the bound
leaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute import heuristic
from cnotroute.arch import ArchGraph, get_architecture, list_architectures
from cnotroute.bench import random_cnot_circuit
from cnotroute.gf2 import BitMatrix, invert, transpose, vec_support
from cnotroute.heuristic import (_cheapest_bounded, _open_block, _open_columns,
                                 heuristic_token_reduction, hungarian_assign)
from cnotroute.rowgraph import _costs
from cnotroute.synthesis import linear_matrix

from conftest import dict_form, entry_bound, grown_tree, reference_reduction
from test_pinned_output import routes


def _fresh_open(graph, rows):
    return _open_columns(graph, invert(BitMatrix(graph.n, rows)).rows)


def _device_states(archs, gate_counts):
    """(rows, graph) to reduce: two random circuits a device and gate count."""
    for arch in archs:
        graph, _ = get_architecture(arch)
        for gates in gate_counts:
            for seed in range(2):
                c = random_cnot_circuit(graph.n, gates, 6061 + 1000 * gates + seed)
                yield transpose(linear_matrix(c.gates, graph.n)).rows, graph


@pytest.mark.parametrize("arch", list_architectures())
def test_pruned_synthesizer_matches_the_unpruned_reference(arch, monkeypatch):
    stats = {"candidates": 0, "equal_best": 0, "rule_changed": 0, "assigned": 0, "cut": 0}
    assign = heuristic.hungarian_assign
    price = heuristic._open_block

    def assign_counted(block):
        stats["assigned"] += 1
        return assign(block)

    def price_counted(*args):
        block = price(*args)
        stats["cut"] += block is None
        return block

    monkeypatch.setattr(heuristic, "hungarian_assign", assign_counted)
    monkeypatch.setattr(heuristic, "_open_block", price_counted)
    for rows, graph in _device_states([arch], (32, 64, 128, 256)):
        twin = list(rows)
        assert heuristic_token_reduction(graph, rows) == \
            reference_reduction(graph, twin, stats=stats)
        assert rows == twin
    # pruning fired, both mid-pricing and before it, and equal losses
    # occurred, so the (loss, index) rule was exercised
    assert stats["cut"] > 0
    assert stats["assigned"] + stats["cut"] < stats["candidates"]
    assert stats["equal_best"] > 0


def test_with_every_trial_priced_the_synthesizer_is_the_papers_rule(monkeypatch):
    """With ``_PRICED_TRIALS`` unlimited, every tie trial competes, as in the paper."""
    differs = 0
    for rows, graph in _device_states(list_architectures(), (64, 256)):
        routed = heuristic_token_reduction(graph, list(rows))
        with monkeypatch.context() as patch:
            patch.setattr(heuristic, "_PRICED_TRIALS", None)
            twin = list(rows)
            every = heuristic_token_reduction(graph, twin)
        assert every == reference_reduction(graph, rows, priced=None)
        assert twin == rows
        differs += every != routed
    # the corpus holds circuits the two rules route differently
    assert differs > 0


def test_only_the_three_lowest_bound_trials_compete():
    """Seven tied candidates, the three of bound 9 each losing 12: (1, 5),
    fourth at bound 10, would win at loss 10 were every trial priced."""
    graph = ArchGraph(6, [(0, 2), (0, 3), (0, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    rows = [48, 34, 56, 49, 52, 2]
    opened = _fresh_open(graph, rows)
    assert len(_cheapest_bounded(graph, rows, opened)) == 7
    routed = heuristic_token_reduction(graph, list(rows))
    assert routed[0] == ("ADD", 2, 0)
    assert routed == reference_reduction(graph, list(rows))
    assert reference_reduction(graph, list(rows), priced=None)[0] == ("ADD", 1, 5)


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
        bounds = [bound for _, _, bound, _ in opened]
        block = _open_block(graph, rows, opened)
        position = {u: i for i, u in enumerate(block.nodes)}
        minima = []
        for j, sup in enumerate(block.supports):
            built = grown_tree(graph, vec_support(sup))
            grown, steiner = dict_form(*built)
            schedule = len(grown) - 1 + 2 * len(steiner)
            assert bounds[j] == entry_bound(rows, *built)
            raised.append(bounds[j] > schedule)
            roots = [u for u in vec_support(sup) if u in position]
            costs = _costs(rows, *built, roots)
            assert schedule >= sup.bit_count() - 1
            assert costs == [block.entries[position[u]][j] for u in roots]
            assert all(r[j] >= bounds[j] for r in block.entries)
            minima.append(min(block.entries[i][j] for i in range(len(block.nodes))))
        total = hungarian_assign(block).total
        assert total >= sum(minima) >= sum(bounds)
        # a bound the loss meets never prunes; one below the minima always does
        assert _open_block(graph, rows, opened, total) == block
        if minima:
            assert _open_block(graph, rows, opened, sum(minima) - 1) is None

    check()
    # U raised the bound of some generated columns
    assert sum(raised) > 10, (sum(raised), len(raised))


def test_pricing_work_on_the_pinned_set_stays_within_its_counts(monkeypatch):
    """Routing the pinned set prices at most 6,411 columns in 530 solves.

    Both are the measured counts, so any extra pricing fails.  With every
    tie trial priced it took 7,730 and 544; without U in the bound as
    well, 13,325 pricing calls and 589 assignment solves.  The
    synthesizer prices through ``_costs``, so that is what is counted.
    """
    counts = {"priced": 0, "solved": 0}
    price = heuristic._costs
    assign = heuristic.hungarian_assign

    def price_counted(*args):
        counts["priced"] += 1
        return price(*args)

    def assign_counted(table):
        counts["solved"] += 1
        return assign(table)

    monkeypatch.setattr(heuristic, "_costs", price_counted)
    monkeypatch.setattr(heuristic, "hungarian_assign", assign_counted)
    for graph, circuit, route, m0 in routes():
        route(circuit, graph, m0)
    assert counts["priced"] <= 6_411, counts
    assert counts["solved"] <= 530, counts
