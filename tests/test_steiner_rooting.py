"""Steiner tree growth and rooting against references written here.

For random connected graphs and terminal sets, the grown graph must be a
tree with terminal leaves, and the ops ``_reduce_tracked`` runs at every
root must match the schedule built from a BFS rooting with ascending
children.  Growth yields masks; the cache entry's weight and inner mask,
read off them, must agree with the tree the graph's tree cache builds
from them when it is first asked for, and that tree with a nearest-pair
reference.  Growth's masks must equal those of the one-scan reference in
``conftest`` on random graphs, wide ones included, and on the stock
devices.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cnotroute.arch import (ArchGraph, _grow_steiner_graph, get_architecture,
                           list_architectures, path_from_successors)
from cnotroute.rowgraph import _reduce_tracked

from conftest import (entry_bound, grid_graph, grown_tree, op_parent,
                      random_connected_graph, random_reversible_rows,
                      reference_grow_steiner_graph, rows_reducible_along, tree_parent)
from test_device_families import FAMILIES


def _check_tree_with_terminal_leaves(g, grown, terminals):
    assert terminals <= grown.keys()
    edges = {(min(a, b), max(a, b)) for a, nbs in grown.items() for b in nbs}
    assert len(edges) == len(grown) - 1
    for a, b in edges:
        assert g.is_edge(a, b)
    start = next(iter(grown))
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in grown[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == grown.keys()
    for node, nbs in grown.items():
        if len(nbs) == 1:
            assert node in terminals


def _reference_schedule(grown, terminals, root):
    """BFS parents, ascending children, recursive post-order."""
    parent = {root: None}
    order = [root]
    for x in order:
        for y in sorted(grown[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    children = {x: sorted(y for y in order if parent[y] == x) for x in order}

    post = []

    def visit(x):
        for y in children[x]:
            visit(y)
        post.append(x)

    visit(root)
    schedule = []
    cost = 0
    for u in post[:-1]:
        p = parent[u]
        if p not in terminals and children[p][0] == u:
            schedule.append(("SWAP", u, p))
            cost += 3
        else:
            schedule.append(("ADD", p, u))
            cost += 1
    return tuple(schedule), cost, parent


def _mask(terminals):
    return sum(1 << t for t in terminals)


def _samples(seed, graphs):
    rng = random.Random(seed)
    for _ in range(graphs):
        n = rng.randrange(1, 21)
        g = random_connected_graph(rng, n, extra=rng.randrange(2 * n + 1))
        for _ in range(3):
            yield g, frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))


def _wide_samples(seed):
    """Terminal sets on graphs of 65-140 nodes and a 9x9 grid: masks over 64 bits."""
    rng = random.Random(seed)
    graphs = [grid_graph(9, 9)]
    for _ in range(9):
        n = rng.randrange(65, 141)
        graphs.append(random_connected_graph(rng, n, extra=rng.randrange(n // 2)))
    for g in graphs:
        for _ in range(3):
            yield g, frozenset(rng.sample(range(g.n), rng.randrange(2, 41)))


def test_every_root_matches_bfs_reference():
    rng = random.Random(2012)
    count = 0
    for g, terminals in _samples(2011, 200):
        grown, steiner = grown_tree(g, terminals)
        _check_tree_with_terminal_leaves(g, grown, terminals)
        assert steiner == grown.keys() - terminals
        again, points = grown_tree(g, sorted(terminals))
        assert again is grown and points is steiner
        rows = rows_reducible_along(
            random_reversible_rows(rng, g, 2 * (g.n - 1)), terminals)
        for root in sorted(terminals):
            schedule, cost, parent = _reference_schedule(
                grown, terminals, root)
            assert cost == len(grown) - 1 + 2 * len(steiner)
            reduced = list(rows)
            ops, _ = _reduce_tracked(reduced, grown, steiner, root)
            assert ops == schedule
            assert reduced[root] == 1
            del parent[root]
            assert tree_parent(grown, root) == op_parent(ops) == parent
            assert parent.keys() | {root} == grown.keys()
            count += 1
    assert count > 1000


def test_rooted_tree_keeps_exactly_the_grown_edges():
    rng = random.Random(14)
    checked = 0
    for _ in range(80):
        n = rng.randrange(3, 16)
        g = random_connected_graph(rng, n)
        terminals = frozenset(rng.sample(range(n), rng.randrange(2, n + 1)))
        grown, _ = grown_tree(g, terminals)
        grown_edges = {(min(a, b), max(a, b))
                       for a, nbs in grown.items() for b in nbs}
        root = min(terminals)
        rows = rows_reducible_along([1 << i for i in range(n)], terminals)
        ops, _ = _reduce_tracked(rows, *grown_tree(g, terminals), root)
        assert len(ops) == len(grown_edges)
        assert {(min(a, b), max(a, b)) for _, a, b in ops} == grown_edges
        checked += 1
    assert checked > 20


def test_one_terminal_mask_gets_one_memoized_tree():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(2, 16)
        g = random_connected_graph(rng, n, extra=rng.randrange(n + 1))
        mask = _mask(rng.sample(range(n), rng.randrange(1, n + 1)))
        cache = g._steiner
        entry = cache[mask]
        tree, steiner = cache.tree(entry, mask)
        assert cache[mask] is entry
        again, points = cache.tree(cache[mask], mask)
        assert again is tree and points is steiner


def _reference_grow(g, terminals):
    """Nearest-pair growth, rescanning every (terminal, tree node) pair.

    Each step joins the pair minimizing (distance, u, v) by a shortest
    path; the first pair is drawn from the terminals alone.
    """
    if len(terminals) == 1:
        return {next(iter(terminals)): ()}

    def nearest(first, second):
        return min((g.dist[u][v], u, v) for u in first for v in second if u != v)

    adjacency = {}

    def add(u, v):
        path = path_from_successors(g.succ, u, v)
        for x in path:
            adjacency.setdefault(x, set())
        for a, b in zip(path, path[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)

    _, u, v = nearest(terminals, terminals)
    add(u, v)
    remaining = set(terminals) - adjacency.keys()
    while remaining:
        _, u, v = nearest(remaining, set(adjacency))
        add(u, v)
        remaining -= adjacency.keys()
    return {x: tuple(sorted(nbs)) for x, nbs in adjacency.items()}


def test_incremental_growth_matches_nearest_pair_reference():
    # on a triangle every pair is at distance 1: the first path joins the
    # least pair (0, 1), and terminal 2 joins the least tree node, 0
    triangle = ArchGraph(3, [(0, 1), (1, 2), (0, 2)])
    # neighbour masks per node, the tree's nodes, and the attach node 0
    assert _grow_steiner_graph(triangle, 0b111) == ([0b110, 0b001, 0b001], 0b111, 0b001)
    assert grown_tree(triangle, {0, 1, 2})[0] == {0: (1, 2), 1: (0,), 2: (0,)}
    count = 0
    for g, terminals in [(triangle, {0, 1, 2}), *_samples(2027, 200), *_wide_samples(2028)]:
        assert grown_tree(g, terminals)[0] == _reference_grow(g, terminals)
        count += 1
    assert count == 601 + 30


@st.composite
def graphs_and_masks(draw):
    """(graph, mask): a random connected graph on 1..24 or 65..100 nodes,
    or a stock device, and a terminal mask with at least one of its nodes."""
    name = draw(st.sampled_from([None, None, *list_architectures()]))
    if name is None:
        rng = draw(st.randoms(use_true_random=False))
        n = draw(st.one_of(st.integers(1, 24), st.integers(65, 100)))
        graph = random_connected_graph(rng, n, extra=draw(st.integers(0, n)))
    else:
        graph = get_architecture(name)[0]
    nodes = st.frozensets(st.integers(0, graph.n - 1), min_size=1)
    return graph, draw(st.one_of(st.integers(1, (1 << graph.n) - 1),
                                 nodes.map(lambda ts: sum(1 << t for t in ts))))


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_and_masks())
def test_growth_equals_the_one_scan_reference(case):
    graph, mask = case
    assert _grow_steiner_graph(graph, mask) == reference_grow_steiner_graph(graph, mask)


@st.composite
def graphs_and_terminal_sets(draw):
    """(graph, terminal sets): a random connected graph on 2..24 nodes, a
    stock device or a device family, and up to four distinct sets of its nodes."""
    name = draw(st.sampled_from([None, *list_architectures(), *FAMILIES]))
    if name is None:
        rng = draw(st.randoms(use_true_random=False))
        n = draw(st.integers(2, 24))
        graph = random_connected_graph(rng, n, extra=draw(st.integers(0, 2 * n)))
    elif name in FAMILIES:
        graph = FAMILIES[name]()
    else:
        graph = get_architecture(name)[0]
    sets = draw(st.lists(st.frozensets(st.integers(0, graph.n - 1), min_size=1),
                         min_size=1, max_size=4, unique=True))
    return graph, sets


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(graphs_and_terminal_sets())
def test_entry_bound_terms_agree_with_the_tree_built_on_first_use(case):
    graph, sets = case
    for terminals in sets:
        mask = _mask(terminals)
        entry = graph._steiner[mask]
        weight, inner, adjacency, nodes = entry.weight, entry.inner, entry.adjacency, entry.nodes
        assert entry.tree is None and entry.steiner is None  # grown, not built
        tree, steiner = grown_tree(graph, terminals)
        assert tree == _reference_grow(graph, terminals)
        assert nodes == _mask(tree)
        assert adjacency == [_mask(tree.get(w, ())) for w in range(graph.n)]
        assert steiner == tree.keys() - terminals
        assert weight == len(tree) - 1 + 2 * len(steiner)
        assert inner == sum(1 << t for t in terminals if len(tree[t]) >= 2)
        # with every row a unit vector the reference bound counts all of inner
        units = [1 << u for u in range(graph.n)]
        assert entry_bound(units, tree, steiner) == weight + inner.bit_count()
        again, points = grown_tree(graph, terminals)
        assert again is tree and points is steiner
        assert graph._steiner[mask] is entry
        assert entry.adjacency is None and entry.nodes is None  # the masks are dropped
