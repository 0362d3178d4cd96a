"""The synthesizer's carried inverse against a fresh inversion.

``heuristic_token_reduction`` inverts the matrix once, in column form,
and carries that form through every trial and committed reduction by
column operations.  After each step the carried columns must equal the
transposed inverse of the matrix the row graph then holds.
"""

import random

import pytest

from cnotroute import heuristic
from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, transpose
from cnotroute.heuristic import heuristic_token_reduction
from cnotroute.rowgraph import SWAP, RowGraph

from conftest import (entry_bound, non_unit_nodes, random_connected_graph,
                      random_reversible_rowgraph)


def _fresh_columns(rg):
    return transpose(invert(rg.matrix())).rows


def _fresh_supports(graph, rows):
    """(e, support mask of inverse row e) per open e, from a fresh inverse."""
    inv = invert(BitMatrix(graph.n, rows))
    return [(e, sup) for e, sup in enumerate(inv.rows) if sup.bit_count() >= 2]


def test_carried_columns_equal_a_fresh_inverse_after_every_step(monkeypatch):
    counts = {"carried": 0, "trials": 0, "priced": 0, "bounded": 0, "swaps": 0}
    state = {}
    carry = heuristic._apply_to_columns
    price = heuristic._open_block
    pick = heuristic._cheapest

    def carry_checked(cols, ops):
        carry(cols, ops)
        assert cols == _fresh_columns(state["rg"])
        counts["carried"] += 1
        counts["swaps"] += sum(kind == SWAP for kind, _, _ in ops)

    def price_checked(graph, rows, opened, weights=None, bound=None):
        assert [(e, sup) for e, sup, _, _ in opened] == _fresh_supports(graph, rows)
        if weights is not None:
            assert weights == [entry_bound(rows, grown, steiner)
                               for _, _, grown, steiner in opened]
            counts["bounded"] += 1
        counts["priced"] += 1
        return price(graph, rows, opened, weights, bound)

    def pick_counted(block):
        found = pick(block)
        if len(found) > 1:
            counts["trials"] += len(found)
        return found

    monkeypatch.setattr(heuristic, "_apply_to_columns", carry_checked)
    monkeypatch.setattr(heuristic, "_open_block", price_checked)
    monkeypatch.setattr(heuristic, "_cheapest", pick_counted)
    rng = random.Random(5051)
    for _ in range(12):
        for n in range(1, 15):
            g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
            ops = rng.randrange(1, 4 * n) if n > 1 else 0
            rg = state["rg"] = random_reversible_rowgraph(rng, g, ops)
            heuristic_token_reduction(rg)
            assert rg.matrix().is_permutation()
    # every trial replays its ops; every commit without a tie does too
    commits = counts["carried"] - counts["trials"]
    assert counts["trials"] > 1000 and commits > 250
    assert counts["swaps"] > 100
    assert counts["priced"] > 1000 and counts["bounded"] > 500


def test_singular_inputs_raise_basic_or_not():
    rng = random.Random(5052)
    for n in range(2, 15):
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        u, v = rng.sample(range(n), 2)
        rows = [1 << i for i in range(n)]
        rows[u] = rows[v]
        basic = RowGraph(g, rows)
        assert not non_unit_nodes(basic)
        with pytest.raises(SingularMatrixError):
            heuristic_token_reduction(basic)
        if n < 3:
            continue
        rows = random_reversible_rowgraph(rng, g, 4 * n).rows
        u, v, w = rng.sample(range(n), 3)
        rows[u] = rows[v] ^ rows[w]
        scrambled = RowGraph(g, rows)
        assert non_unit_nodes(scrambled)
        with pytest.raises(SingularMatrixError):
            heuristic_token_reduction(scrambled)
