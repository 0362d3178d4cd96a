"""One-pass pricing of every root against replaying each root's schedule.

``reduction_costs`` prices a terminal set's Steiner tree at all requested
roots from directed-edge values shared between roots.  The oracle here
is the replay it replaces: run ``tree_reduce_tracked`` at one root of
the same tree (``gen_steiner``'s, or a hand-built adjacency) and then
``reduction_recovery`` on a copy of the rows, and weigh the ops they
return.  States come from random row-op walks from the identity (many
unit rows, so tracking and undo stops fire often) on random graphs and
on heavy-hex and diagonal grids, whose degree-2 bridge qubits make many
Steiner points, and from every stage of a greedy reduction that the
replay itself drives.  Long synthetic paths and caterpillars check that
tree depth is not limited by recursion.
"""

import gc
import random

import pytest

from cnotroute.arch import steiner_entry
from cnotroute.gf2 import BitMatrix, invert, is_unit, vec_support
from cnotroute.heuristic import _reduce_pair
from cnotroute.rowgraph import (SWAP, ReductionError, reduction_costs,
                                reduction_recovery, tree_reduce_tracked)

from conftest import (diagonal_grid_graph, entry_bound, heavy_hex_graph,
                      non_unit_nodes, random_connected_graph,
                      random_reversible_rows, rows_reducible_along)


def _replay(rows, tree, steiner, root):
    """Op weight of reducing along ``tree`` at ``root`` and recovering, on a copy of ``rows``."""
    rows = list(rows)
    ops, tracked = tree_reduce_tracked(rows, tree, steiner, root)
    ops += tuple(reduction_recovery(rows, ops, tracked))
    return sum(3 if kind == SWAP else 1 for kind, _, _ in ops)


def _check_state(g, rows, stats):
    """Compare every (column, root in its support) of one state.

    Every root must also cost at least the column's lower bound
    ``entry_bound``, less one if the root itself is a unit-row terminal
    with two or more neighbours, which the bound does not count.
    Returns the replayed prices by (node, basis).
    """
    inv = invert(BitMatrix(g.n, rows))
    prices = {}
    for e in range(g.n):
        sup = vec_support(inv.rows[e])
        grown, steiner = steiner_entry(g, inv.rows[e])
        want = [_replay(rows, grown, steiner, u) for u in sup]
        assert reduction_costs(rows, grown, steiner, sup) == want
        low = entry_bound(rows, grown, steiner)
        for u, price in zip(sup, want):
            assert reduction_costs(rows, grown, steiner, [u]) == [price]
            prices[u, e] = price
            least = low - (is_unit(rows[u]) and len(grown[u]) >= 2)
            assert price >= least, (u, e)
            stats["tight"] += price == least
            stats["interior"] += least > len(grown) - 1 + 2 * len(steiner)
    return prices


def _commit_cheapest(g, rows, prices):
    """Commit the cheapest non-basic replayed pair, lowest (node, basis) first."""
    inv = invert(BitMatrix(g.n, rows))
    non_unit = set(non_unit_nodes(rows))
    price, u, e = min((p, u, e) for (u, e), p in prices.items() if u in non_unit)
    _reduce_pair(g, rows, u, inv.rows[e])


def test_every_root_equals_the_replay():
    rng = random.Random(4099)
    samples = 0
    states = 0
    stats = {"tight": 0, "interior": 0}
    draws = []
    for n in range(1, 15):
        for _ in range(12 + 3 * n):
            g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
            walk = rng.randrange(0, 3 * n + 1) if n > 1 else 0
            draws.append((g, random_reversible_rows(rng, g, walk)))
    for g in (heavy_hex_graph(2, 5), heavy_hex_graph(3, 5), diagonal_grid_graph(4, 4)):
        for walk in (g.n // 2, g.n, 2 * g.n, 4 * g.n, 8 * g.n):
            draws.append((g, random_reversible_rows(rng, g, walk)))
    for g, rows in draws:
        while True:
            prices = _check_state(g, rows, stats)
            samples += len(prices)
            states += 1
            if not non_unit_nodes(rows):
                break
            _commit_cheapest(g, rows, prices)
    assert states > 1000
    assert samples >= 50_000, samples
    # the bound was met exactly, and raised by U, many times
    assert stats["tight"] > 10_000 and stats["interior"] > 1000, stats


def _random_rows(rng, tree, terminals, ops):
    """Identity rows scrambled by random additions along tree edges.

    One terminal row is then corrected so that the terminal rows XOR to
    e_0, as the rows of a support of the inverse do.
    """
    rows = [1 << i for i in range(len(tree))]
    edges = [(a, b) for a, nbs in tree.items() for b in nbs]
    for _ in range(ops):
        a, b = rng.choice(edges)
        rows[a] ^= rows[b]
    return rows_reducible_along(rows, terminals)


def _check_long_tree(rng, tree, terminals, roots):
    rows = _random_rows(rng, tree, terminals, 3 * len(tree))
    roots = roots + rng.sample(sorted(terminals), 6)
    steiner = frozenset(tree) - terminals
    got = reduction_costs(rows, tree, steiner, roots)
    for root, price in zip(roots, got):
        assert price == _replay(rows, tree, steiner, root)


def test_long_path_prices_without_recursion():
    rng = random.Random(5003)
    n = 5000
    tree = {i: tuple(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)}
    terminals = frozenset({0, n - 1} | {i for i in range(n) if rng.random() < 0.5})
    _check_long_tree(rng, tree, terminals, [0, n - 1])


def test_long_caterpillar_prices_without_recursion():
    rng = random.Random(5009)
    spine = 2000
    adjacency = {i: [] for i in range(spine)}
    for i in range(1, spine):
        adjacency[i - 1].append(i)
        adjacency[i].append(i - 1)
    while len(adjacency) < 5000:
        i = rng.randrange(spine)
        leg = len(adjacency)
        adjacency[leg] = [i]
        adjacency[i].append(leg)
    tree = {x: tuple(sorted(nbs)) for x, nbs in adjacency.items()}
    # leaves must be terminals; the spine mixes terminals and Steiner points
    terminals = frozenset({0, spine - 1} | {x for x in tree if len(tree[x]) == 1
                                            or rng.random() < 0.4})
    _check_long_tree(rng, tree, terminals, [0, spine - 1])


def test_pricing_leaves_no_garbage_cycles():
    """Each call's memo is freed by reference counting, not by the cyclic GC."""
    tree = {0: (1,), 1: (0, 2, 3), 2: (1,), 3: (1, 4), 4: (3,)}
    rows = [0b00011, 0b00110, 0b00100, 0b01000, 0b01110]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            reduction_costs(rows, tree, frozenset({1}), [0, 2, 3, 4])
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _cycle(n):
    return {i: tuple(sorted({(i - 1) % n, (i + 1) % n})) for i in range(n)}


def test_small_cycle_is_rejected():
    with pytest.raises(ReductionError, match="cycle"):
        reduction_costs([1, 2, 7], _cycle(3), frozenset(), [0])


def test_large_cycle_is_rejected():
    n = 300  # above the size priced by plain recursion
    rows = [1 << i for i in range(n)]
    with pytest.raises(ReductionError, match="cycle"):
        reduction_costs(rows, _cycle(n), frozenset(), [0, n // 2])


def test_root_outside_the_tree_is_rejected():
    tree = {0: (1,), 1: (0, 2), 2: (1,)}
    with pytest.raises(ReductionError, match="root 5"):
        reduction_costs([1, 2, 7, 8, 16, 32], tree, frozenset(), [0, 5])


def test_steiner_root_is_rejected():
    tree = {0: (1,), 1: (0, 2), 2: (1,)}
    rows = [3, 4, 2]
    with pytest.raises(ReductionError, match="root 1"):
        reduction_costs(rows, tree, frozenset({1}), [0, 1])
    # the reduction it would price rejects the same root
    with pytest.raises(ReductionError, match="root 1"):
        tree_reduce_tracked(list(rows), tree, frozenset({1}), 1)
