"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest

from cnotroute.arch import ArchGraph
from cnotroute.gf2 import BitMatrix, invert, is_unit, mat_mul, transpose, vec_support
from cnotroute.heuristic import _inverse_columns

CHECK = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


def _load_check():
    """The benchmark's outside checker, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check()


def random_connected_graph(rng: random.Random, n: int, extra: int = 2) -> ArchGraph:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        a = nodes[i]
        b = nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ArchGraph(n, sorted(edges))


def grid_graph(rows: int, cols: int) -> ArchGraph:
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return ArchGraph(n, edges)


def heavy_hex_graph(rows: int, cols: int) -> ArchGraph:
    """A heavy-hex lattice: a hexagonal lattice with one more node on every edge.

    The hexagonal lattice is drawn as a brick wall: ``rows`` chains of
    ``cols`` vertices, with vertex (r, c) joined to (r + 1, c) when
    r + c is even.  Vertices are nodes r * cols + c; the node on each
    edge follows them, so vertices have degree at most 3 and edge nodes
    degree 2.
    """
    n = rows * cols
    lattice = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    lattice += [(r * cols + c, (r + 1) * cols + c)
                for r in range(rows - 1) for c in range(cols) if (r + c) % 2 == 0]
    edges = []
    for i, (a, b) in enumerate(lattice):
        edges += [(a, n + i), (n + i, b)]
    return ArchGraph(n + len(lattice), edges)


def diagonal_grid_graph(rows: int, cols: int) -> ArchGraph:
    """A Sycamore-style grid: each node couples to its diagonal neighbours.

    Node (r, c) is r * cols + c.  It is joined to (r + 1, c), and to
    (r + 1, c + 1) on even rows or (r + 1, c - 1) on odd rows: a square
    lattice turned by 45 degrees, interior nodes of degree 4.
    """
    edges = []
    for r in range(rows - 1):
        side = 1 if r % 2 == 0 else -1
        for c in range(cols):
            for d in (0, side):
                if 0 <= c + d < cols:
                    edges.append((r * cols + c, (r + 1) * cols + c + d))
    return ArchGraph(rows * cols, edges)


def random_reversible_rows(rng: random.Random, graph: ArchGraph, n_ops: int) -> list:
    """Identity rows, one per node, scrambled by random adjacent row additions."""
    rows = [1 << i for i in range(graph.n)]
    edges = sorted(graph.edges)
    for _ in range(n_ops):
        u, v = rng.choice(edges)
        if rng.random() < 0.5:
            u, v = v, u
        rows[u] ^= rows[v]
    return rows


def entry_bound(rows, grown, steiner) -> int:
    """|V| - 1 + 2|S| + U for a grown tree: U counts its terminals with two
    or more neighbours that hold a unit row."""
    interior = sum(1 for t, nbs in grown.items()
                   if t not in steiner and len(nbs) >= 2 and is_unit(rows[t]))
    return len(grown) - 1 + 2 * len(steiner) + interior


def non_unit_nodes(rows) -> list:
    """Nodes whose row is not a standard basis vector, ascending."""
    return [u for u, r in enumerate(rows) if not is_unit(r)]


def random_invertible_matrix(rng: random.Random, n: int) -> BitMatrix:
    """Random invertible matrix built from random row operations."""
    m = BitMatrix.identity(n)
    if n == 1:
        return m
    for _ in range(n * n):
        a, b = rng.sample(range(n), 2)
        m.rows[a] ^= m.rows[b]
    if rng.random() < 0.5:
        rng.shuffle(m.rows)
    invert(m)  # raises SingularMatrixError if the construction is wrong
    return m


def matrix(bits) -> BitMatrix:
    """A square matrix from 0/1 row lists."""
    return BitMatrix(len(bits), [sum(b << j for j, b in enumerate(row)) for row in bits])


def bits_of(m: BitMatrix) -> list:
    return [[(r >> j) & 1 for j in range(m.n)] for r in m.rows]


def unit_combinations(m: BitMatrix, u: int):
    """(e, nodes) pairs, e ascending, whose rows XOR to e_e, with u in nodes.

    Read off the synthesizer's column form of the inverse, as its open
    block reads them: column u holds the e that u can reach, and row e of
    the inverse holds the nodes.  Raises SingularMatrixError.
    """
    cols = _inverse_columns(m.n, m.rows)
    inv = transpose(BitMatrix(m.n, cols)).rows
    return [(e, frozenset(vec_support(inv[e]))) for e in vec_support(cols[u])]


def brute_force_unit_combinations(m: BitMatrix, u: int):
    """Subset-enumeration oracle for ``unit_combinations``.

    Enumerates every subset of rows containing u and keeps those whose
    XOR is a standard basis vector.  Exponential; for small n only.
    """
    n = m.n
    others = [i for i in range(n) if i != u]
    found = []
    for k in range(len(others) + 1):
        for combo in combinations(others, k):
            acc = m.rows[u]
            for i in combo:
                acc ^= m.rows[i]
            if is_unit(acc):
                found.append((acc.bit_length() - 1, frozenset((u,) + combo)))
    found.sort(key=lambda t: t[0])
    return found


def bfs_distances(n: int, edges) -> list:
    """Breadth-first-search all-pairs hop counts; oracle for Floyd-Warshall."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    out = []
    for s in range(n):
        dist = [None] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] is None:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        out.append(dist)
    return out


def tree_parent(tree, root) -> dict:
    """child -> parent links of an unrooted tree (node -> neighbours) rooted at ``root``."""
    parent = {root: None}
    order = [root]
    for x in order:
        for y in tree[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    del parent[root]
    return parent


def op_parent(ops) -> dict:
    """child -> parent links of a reduction schedule: SWAP(child, parent), ADD(parent, child)."""
    return {(a if kind == "SWAP" else b): (b if kind == "SWAP" else a)
            for kind, a, b in ops}


def rows_reducible_along(rows, terminals) -> list:
    """A copy of ``rows`` with one terminal row corrected so the terminal rows XOR to e_0."""
    rows = list(rows)
    acc = 0
    for t in terminals:
        acc ^= rows[t]
    rows[min(terminals)] ^= acc ^ 1
    return rows


def ops_to_matrix(ops, n: int) -> BitMatrix:
    """Compose logged row ops into the matrix they apply from the left."""
    m = BitMatrix.identity(n)
    for kind, a, b in ops:
        if kind == "ADD":
            step = BitMatrix.identity(n)
            step.rows[a] ^= 1 << b
        else:
            step = BitMatrix.identity(n)
            step.rows[a], step.rows[b] = step.rows[b], step.rows[a]
        m = mat_mul(step, m)
    return m


@pytest.fixture
def path4() -> ArchGraph:
    """The A-B-C-D line used by the worked four-qubit example."""
    return ArchGraph(4, [(0, 1), (1, 2), (2, 3)], names=["A", "B", "C", "D"])


@pytest.fixture
def grid3() -> ArchGraph:
    return grid_graph(3, 3)


@pytest.fixture
def grid4() -> ArchGraph:
    return grid_graph(4, 4)
