"""The synthesizer's carried inverse against a fresh inversion.

``heuristic_token_reduction`` inverts the matrix once and carries the
inverse in both forms, rows and columns, through every trial and
committed reduction.  After each step, trials included, the carried
rows must equal a fresh inverse of the matrix the rows then hold, and
the carried columns its transpose.  Both pricing paths, the full block
of a tie trial and the cheapest-only pricing of ``_cheapest_bounded``,
must see the open columns' supports of a fresh inverse and bounds equal
to ``entry_bound``; tie candidates are counted on both.
"""

import random

import pytest

from cnotroute import heuristic
from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, transpose, vec_support
from cnotroute.heuristic import heuristic_token_reduction
from cnotroute.rowgraph import SWAP

from conftest import (entry_bound, grown_tree, non_unit_nodes, random_connected_graph,
                      random_reversible_rows)


def _fresh_inverse(graph, rows):
    """(rows, columns) of a fresh inverse of ``rows``."""
    inv = invert(BitMatrix(graph.n, rows))
    return inv.rows, transpose(inv).rows


def _fresh_supports(n, rows):
    """(e, support mask of inverse row e) per open e, from a fresh inverse."""
    inv = invert(BitMatrix(n, rows))
    return [(e, sup) for e, sup in enumerate(inv.rows) if sup.bit_count() >= 2]


def _check_opened(graph, rows, opened):
    """Open columns' supports against a fresh inverse, their bounds against ``entry_bound``."""
    assert [(e, sup) for e, sup, _, _ in opened] == _fresh_supports(len(rows), rows)
    assert [bound for _, _, bound, _ in opened] == \
        [entry_bound(rows, *grown_tree(graph, vec_support(sup))) for _, sup, _, _ in opened]


def test_carried_columns_equal_a_fresh_inverse_after_every_step(monkeypatch):
    counts = {"carried": 0, "trials": 0, "priced": 0, "bounded": 0, "swaps": 0}
    state = {}
    reduce = heuristic._reduce_pair
    carry = heuristic._carry_inverse
    price = heuristic._open_block
    pick = heuristic._cheapest
    pick_bounded = heuristic._cheapest_bounded

    def reduce_recorded(graph, rows, *args):
        # each trial reduces its own copy of the rows, and its inverse is
        # carried through the ops right after
        state["reduced"] = graph, rows
        return reduce(graph, rows, *args)

    def carry_checked(sups, cols, ops):
        carry(sups, cols, ops)
        assert (sups, cols) == _fresh_inverse(*state["reduced"])
        counts["carried"] += 1
        counts["swaps"] += sum(kind == SWAP for kind, _, _ in ops)

    def price_checked(graph, rows, opened, *cutoff):
        _check_opened(graph, rows, opened)
        counts["bounded"] += 1
        counts["priced"] += 1
        return price(graph, rows, opened, *cutoff)

    def count_ties(found):
        # every tie candidate is trial-run, whichever path found the tie
        if len(found) > 1:
            counts["trials"] += len(found)
        return found

    def pick_counted(block, opened):
        return count_ties(pick(block, opened))

    def pick_bounded_checked(graph, rows, opened):
        # the cheapest-only path orders and stops by these bounds
        _check_opened(graph, rows, opened)
        counts["bounded"] += 1
        counts["priced"] += 1
        return count_ties(pick_bounded(graph, rows, opened))

    monkeypatch.setattr(heuristic, "_reduce_pair", reduce_recorded)
    monkeypatch.setattr(heuristic, "_carry_inverse", carry_checked)
    monkeypatch.setattr(heuristic, "_open_block", price_checked)
    monkeypatch.setattr(heuristic, "_cheapest", pick_counted)
    monkeypatch.setattr(heuristic, "_cheapest_bounded", pick_bounded_checked)
    rng = random.Random(5051)
    for _ in range(12):
        for n in range(1, 15):
            g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
            ops = rng.randrange(1, 4 * n) if n > 1 else 0
            rows = random_reversible_rows(rng, g, ops)
            heuristic_token_reduction(g, rows)
            assert BitMatrix(n, rows).is_permutation()
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
        assert not non_unit_nodes(rows)
        with pytest.raises(SingularMatrixError):
            heuristic_token_reduction(g, rows)
        if n < 3:
            continue
        rows = random_reversible_rows(rng, g, 4 * n)
        u, v, w = rng.sample(range(n), 3)
        rows[u] = rows[v] ^ rows[w]
        assert non_unit_nodes(rows)
        with pytest.raises(SingularMatrixError):
            heuristic_token_reduction(g, rows)
