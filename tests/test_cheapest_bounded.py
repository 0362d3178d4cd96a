"""Cheapest-only pricing against the full open block it stands in for.

``heuristic._cheapest_bounded`` prices an open block's columns in
ascending bound order and stops at the first bound above the least
entry priced so far.  Its list must equal ``_cheapest`` of the full
block exactly, order included.  It is checked at every state the
synthesizer prices, on the five devices, on the device families and on
random connected graphs of 2-24 nodes drawn by hypothesis.  The states
met must include ties at the minimum, a minimum held by a column whose
bound equals it, columns left unpriced, and a single open column.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute import heuristic
from cnotroute.arch import ArchGraph, get_architecture, list_architectures
from cnotroute.gf2 import BitMatrix, invert
from cnotroute.heuristic import (_cheapest, _cheapest_bounded, _open_block, _open_columns,
                                 heuristic_token_reduction)

from conftest import random_reversible_rows, reference_reduction
from test_device_families import FAMILIES


def _check(graph, rows, opened, stats):
    """``_cheapest_bounded`` against ``_cheapest`` of the full block, at one state."""
    block = _open_block(graph, rows, opened)
    found = _cheapest_bounded(graph, rows, opened)
    if not block.nodes:
        assert found == []
        return
    assert found == _cheapest(block, opened)
    least = min(map(min, block.entries))
    stats["states"] += 1
    stats["ties"] += len(found) > 1
    stats["single"] += len(opened) == 1
    stats["unpriced"] += max(bound for _, _, bound, _ in opened) > least
    held = {basis for _, basis, _, _ in found}
    stats["bound_equal"] += any(bound == least and e in held
                                for e, _, bound, _ in opened)


@pytest.fixture
def checked(monkeypatch):
    """Check every state the synthesizer prices; returns the counts of ``_check``."""
    stats = dict.fromkeys(("states", "ties", "single", "unpriced", "bound_equal"), 0)
    price = heuristic._open_block
    bounded = heuristic._cheapest_bounded

    def price_checked(graph, rows, opened, *cutoff):
        _check(graph, rows, opened, stats)
        return price(graph, rows, opened, *cutoff)

    def bounded_checked(graph, rows, opened):
        _check(graph, rows, opened, stats)
        return bounded(graph, rows, opened)

    monkeypatch.setattr(heuristic, "_open_block", price_checked)
    monkeypatch.setattr(heuristic, "_cheapest_bounded", bounded_checked)
    return stats


def _reduce_checked(graph, rows):
    heuristic_token_reduction(graph, rows)
    assert BitMatrix(graph.n, rows).is_permutation()


def _assert_coverage(stats, states):
    assert stats["states"] > states, stats
    for met in ("ties", "single", "unpriced", "bound_equal"):
        assert stats[met] > 0, (met, stats)


def test_equal_on_the_five_devices(checked):
    rng = random.Random(2323)
    for name in list_architectures():
        graph, _ = get_architecture(name)
        for walk in (graph.n, graph.n, 4 * graph.n, 4 * graph.n, 16 * graph.n, 16 * graph.n):
            _reduce_checked(graph, random_reversible_rows(rng, graph, walk))
    _assert_coverage(checked, 400)


@pytest.mark.parametrize("family", ["grid-4x4", "heavy-hex-2x5", "diagonal-5x5", "grid-9x9"])
def test_equal_on_the_device_families(family, checked):
    graph = FAMILIES[family]()
    rng = random.Random(family)
    for walk in (graph.n, 4 * graph.n):
        _reduce_checked(graph, random_reversible_rows(rng, graph, walk))
    _assert_coverage(checked, 20)


@st.composite
def connected_states(draw):
    """(graph, rows): a random connected graph on 2..24 nodes and the rows
    after a random row-addition walk from the identity."""
    n = draw(st.integers(2, 24))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[i], label[draw(st.integers(0, i - 1))])))
             for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    rows = [1 << i for i in range(n)]
    for (a, b), flip in draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                                      min_size=1, max_size=3 * n)):
        if flip:
            a, b = b, a
        rows[a] ^= rows[b]
    return ArchGraph(n, edges), rows


def test_equal_on_random_connected_graphs(checked):
    # derandomized: the coverage asserted below depends on the draw
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(connected_states())
    def check(state):
        graph, rows = state
        _reduce_checked(graph, rows)

    check()
    _assert_coverage(checked, 600)


def test_a_single_open_column():
    # path 0-1-2 with row 0 = e0 + e1: inverse row 0 is the one non-unit row
    graph = ArchGraph(3, [(0, 1), (1, 2)])
    rows = [0b011, 0b010, 0b100]
    opened = _open_columns(graph, invert(BitMatrix(3, rows)).rows)
    assert [(e, sup) for e, sup, *_ in opened] == [(0, 0b011)]
    assert _cheapest_bounded(graph, rows, opened) == [(0, 0, 0b011, opened[0][3])]
    assert _cheapest_bounded(graph, [1, 2, 4], _open_columns(graph, [1, 2, 4])) == []


def test_a_tie_whose_winner_leaves_every_row_basic():
    """The one step is a tie whose winner leaves every row a unit vector,
    so the loop must end on the winner's empty block."""
    graph = ArchGraph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 4)])
    rows = [4, 19, 1, 10, 16]
    opened = _open_columns(graph, invert(BitMatrix(5, rows)).rows)
    assert len(_cheapest_bounded(graph, rows, opened)) > 1
    twin = list(rows)
    assert heuristic_token_reduction(graph, rows) == reference_reduction(graph, twin)
    assert rows == twin
    assert BitMatrix(5, rows).is_permutation()
