"""Architecture graphs, all-pairs shortest paths, and Steiner trees.

An architecture is an undirected connected graph of physical qubits.
Distance, successor and distance-ball tables are built once per graph,
by one breadth-first walk from each node; ``ball[t][d]`` is the mask of
the nodes within distance d of t.  ``succ[s][j]``, the first hop of the
one shortest s–j path every tree follows, is j for a neighbour j and
otherwise the first hop to the least node that can be the largest
interior node of a shortest s–j path: Floyd–Warshall's choice.  A
terminal set is an int mask, bit t for node t, as the synthesizer reads
it off a row of the inverse.  Each graph holds one tree cache,
``_SteinerCache``, a dict from terminal mask to ``SteinerEntry``: a
lookup that misses grows the mask's one Steiner-style tree and stores
its entry.  Growth keeps each tree node's neighbours as an int mask,
and the entry holds those masks with the tree's schedule weight
|V| - 1 + 2|S| and the mask of its terminals with two or more tree
neighbours, the terms of the lower bound proved in
``rowgraph._costs``; most grown trees are ruled out by that bound alone.
The cache's ``tree`` method builds the unrooted tree (node -> ascending
neighbour tuple) and its Steiner points from an entry's masks the first
time the tree is priced or reduced, and keeps them in the entry in place
of the masks; the tuples come from one table in the cache, so all of a
graph's trees share one immutable tuple per neighbour set, and the table
is cleared with the entries.  The cache is the package's one source of
trees.  A tree does not depend on the root; pricing (``rowgraph._costs``)
and reduction (``rowgraph._reduce_tracked``) both read it and pick the
root themselves.  A grown tree is a tree whose leaves are terminals by
the proof in ``_grow_steiner_graph``, which checks nothing at run time,
and nothing that reads a tree checks it again.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .circuit import load_json, parse_wire_pairs
from .gf2 import vec_support


class DisconnectedGraphError(ValueError):
    """Raised when a graph that must be connected is not."""


class ArchFileError(ValueError):
    """Raised for malformed architecture files."""


def path_from_successors(succ, u: int, v: int) -> List[int]:
    """Path [u, ..., v] following the successor table."""
    path = [u]
    while u != v:
        u = succ[u][v]
        path.append(u)
    return path


def _rows_from(adj: List[List[int]], s: int) -> Tuple[list, list, list]:
    """Node s's rows of ``dist``, ``succ`` and ``ball``, in one breadth-first walk.

    Layer d of the walk holds the nodes at distance d from s, and ball[d]
    is the mask of layers 0..d.  The successor is the one Floyd–Warshall
    picks with the nodes as its outer loop in ascending order: the first
    hop from s to a neighbour j is j, and to any farther j it is the
    first hop to k, the least node that can be the largest interior node
    of a shortest s–j path (Floyd–Warshall last shortens the s–j entry at
    that k and copies the s–k hop, already final).  ``top[y]`` carries,
    for each node y reached, the least node that can be the largest node
    other than s on a shortest s–y path, so y's k is the least ``top``
    among its predecessors in the layer before.  A predecessor x with
    top[x] = k is k itself or has k as its own k, so by induction on
    distance its hop is the hop to k: predecessors that tie on k give the
    same hop.  The layer is walked in ascending ``top``, so the first
    predecessor to reach y is such a one, and y takes its hop.  Raises
    DisconnectedGraphError naming s and the least node it cannot reach.
    """
    n = len(adj)
    dist = [0] * n
    succ = [s] * n
    top = [0] * n
    seen = 1 << s
    ball = []
    layer = [s]
    while layer:
        ball.append(seen)
        d = len(ball)
        after = []
        for x in sorted(layer, key=top.__getitem__):
            for y in adj[x]:
                if not seen >> y & 1:
                    seen |= 1 << y
                    after.append(y)
                    dist[y] = d
                    succ[y] = succ[x] if x != s else y
                    top[y] = max(top[x], y)
        layer = after
    if seen != (1 << n) - 1:
        j = next(j for j in range(n) if not seen >> j & 1)
        raise DisconnectedGraphError(f"graph is disconnected: no path between {s} and {j}")
    return dist, succ, ball


class ArchGraph:
    """Connected architecture graph with its distance tables and tree cache.

    ``n``, ``names``, ``edges``, ``dist``, ``succ`` and ``ball`` are
    fixed when the graph is built; the Steiner-tree cache ``_steiner``
    (a ``_SteinerCache``) fills as trees are grown, its table of shared
    neighbour tuples as they are built, and the two are cleared together.
    ``dist[s][j]`` is the hop count and ``succ[s][j]`` the next node on
    the shortest s–j path trees follow: j itself when s and j are
    adjacent, else the next node towards k, the least node that can be
    the largest interior node of a shortest s–j path.
    """

    def __init__(self, n: int, edges, names: Optional[Sequence[str]] = None,
                 name: str = ""):
        if type(n) is not int or n < 1:
            raise ValueError(f"graph needs a node count that is a positive int, got {n!r}")
        self.n = n
        self.name = name
        if names is None:
            names = [f"Q{i + 1}" for i in range(n)]
        if len(names) != n:
            raise ValueError("one display name per node required")
        self.names = tuple(names)
        seen = set()
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) is not a pair of nodes 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.edges: FrozenSet[Tuple[int, int]] = frozenset(seen)
        rows = [_rows_from(adj, s) for s in range(n)]
        self.dist = [dist for dist, _, _ in rows]
        self.succ = [succ for _, succ, _ in rows]
        # ball[t][d]: mask of the nodes within distance d of t, for d up to
        # the diameter, where every ball is the whole graph
        depth = max(len(ball) for _, _, ball in rows)
        self.ball = tuple(tuple(ball + ball[-1:] * (depth - len(ball))) for _, _, ball in rows)
        self._steiner = _SteinerCache(self.ball, self.succ)

    def is_edge(self, u: int, v: int) -> bool:
        """True if u and v are nodes one hop apart; False for anything else."""
        return (type(u) is type(v) is int and 0 <= u < self.n and 0 <= v < self.n
                and self.dist[u][v] == 1)

    def __repr__(self) -> str:
        return f"ArchGraph({self.name or self.n!r}, n={self.n}, edges={len(self.edges)})"


def _grow_steiner_graph(g, mask: int) -> Tuple[List[int], int, int]:
    """Grow a tree spanning the terminals in ``mask`` from shortest paths.

    A shortest path joins the nearest pair of terminals, then each
    remaining terminal u nearest the tree joins its nearest tree node v,
    ties broken to the smallest (distance, u, v).  The distance balls
    find that pair without a distance table scan: for d = 1, 2, ... and
    each remaining u ascending, the first ball[u][d] to meet the tree
    holds the pair, with v its lowest tree bit.  Every smaller d met no
    tree node from any u, so d is the least distance; at that d the ball
    meets the tree only at distance d, so u is the least terminal there
    and v the least tree node at distance d from u.  For the first path
    the "tree" of u is the terminals above u: the smallest of (u, v) and
    (v, u) is the one with u < v.  That target depends on u, so the
    first path is found by its own scan; every later probe is one
    ``ball[u][d] & tree``.  Neither scan needs a bound on d: the last
    ball of a connected graph is the whole graph, which holds the tree
    and, for the least remaining u, a terminal above u.  The result is a
    tree whose leaves are all terminals: an interior node w of a u-v
    path is strictly nearer to u than v, so were it a tree node or a
    terminal, (u, w) or (w, v) would be a nearer pair.  Each path thus
    meets the tree only at v, and only its ends other than v, all
    terminals, are left with one neighbour.  The only terminals a path
    adds are therefore u, and v on the first path, so the list of
    remaining terminals drops just those and stays ascending.  Each path
    adds as many edges as new nodes, so the result has one edge fewer
    than nodes and is connected: a tree.  Nothing here re-checks that;
    ``test_arch._check_tree_invariants`` does, on random graphs and on
    every tree routing grows on the device families.

    ``g`` is a graph or its tree cache: only its ``ball`` and ``succ``
    tables are read.  Returns (adjacency, nodes, inner), all masks:
    ``adjacency[w]`` the neighbours of each tree node w (0 off the
    tree), ``nodes`` the tree's nodes, and ``inner`` its terminals with
    two or more tree neighbours.  Path interiors are not terminals, and
    every tree node has a neighbour once the first path is laid, so
    those terminals are the attach nodes v of the joins after the first.
    """
    adjacency = [0] * len(g.ball)
    if not mask & (mask - 1):
        return adjacency, mask, 0
    ball = g.ball
    succ = g.succ
    remaining = list(vec_support(mask))
    d = 1
    while True:
        for u in remaining:
            hit = ball[u][d] & mask >> u + 1 << u + 1
            if hit:
                break
        else:
            d += 1
            continue
        break
    v = (hit & -hit).bit_length() - 1
    # a path's interior holds no terminal, so it adds u, and v if first
    remaining.remove(v)
    tree = inner = 0
    while True:  # lay the u-v path, then find the next join
        remaining.remove(u)
        x, xbit = u, 1 << u
        tree |= xbit
        while x != v:
            y = succ[x][v]
            ybit = 1 << y
            adjacency[x] |= ybit
            adjacency[y] |= xbit
            tree |= ybit
            x, xbit = y, ybit
        if not remaining:
            return adjacency, tree, inner & mask
        d = 1
        while True:
            for u in remaining:
                hit = ball[u][d] & tree
                if hit:
                    break
            else:
                d += 1
                continue
            break
        v = (hit & -hit).bit_length() - 1
        inner |= 1 << v


_GROW_CACHE_CAP = 4000


class SteinerEntry:
    """One terminal set's grown tree, as the tree cache holds it.

    ``weight`` is the tree's schedule weight |V| - 1 + 2|S| and
    ``inner`` the mask of its terminals with two or more tree
    neighbours: the terms of the lower bound proved in
    ``rowgraph._costs``, read in O(1) with no tree built.
    ``adjacency`` and ``nodes`` are the masks ``_grow_steiner_graph``
    returns, until ``_SteinerCache.tree`` builds ``tree`` and
    ``steiner`` from them and sets them to None; ``tree`` and
    ``steiner`` are None until then.
    """

    __slots__ = ("weight", "inner", "adjacency", "nodes", "tree", "steiner")

    def __init__(self, weight: int, inner: int, adjacency: List[int], nodes: int):
        self.weight, self.inner, self.adjacency, self.nodes = weight, inner, adjacency, nodes
        self.tree = self.steiner = None


class _Supports(dict):
    """Neighbour mask -> its ascending tuple, stored on first lookup."""

    def __missing__(self, mask: int) -> tuple:
        support = self[mask] = vec_support(mask)
        return support


class _SteinerCache(dict):
    """Terminal mask -> its ``SteinerEntry``, grown on the first lookup.

    One per graph, built from the graph's ``ball`` and ``succ`` alone, so
    it holds no reference back to the graph.  A miss grows the tree
    (``_grow_steiner_graph``) and stores its entry; the mask must name a
    non-empty set of the graph's nodes, which is not checked: the
    synthesizer's masks are rows of the inverse of a checked
    ``BitMatrix``.  Past ``_GROW_CACHE_CAP`` terminal sets a miss drops
    every entry and the shared neighbour tuples with them: sustained
    runs would otherwise grow both unbounded, the tuples by up to
    2**degree neighbour sets at one node.
    """

    def __init__(self, ball, succ):
        self.ball, self.succ = ball, succ
        self.tuples = _Supports()

    def __missing__(self, mask: int) -> SteinerEntry:
        if len(self) >= _GROW_CACHE_CAP:
            self.clear()
            self.tuples.clear()
        adjacency, nodes, inner = _grow_steiner_graph(self, mask)
        # |V| - 1 + 2|S| with |S| = |V| - |T|
        weight = 3 * nodes.bit_count() - 2 * mask.bit_count() - 1
        entry = self[mask] = SteinerEntry(weight, inner, adjacency, nodes)
        return entry

    def tree(self, entry: SteinerEntry, mask: int) -> tuple:
        """(grown tree, Steiner points) of ``mask``'s entry, built once.

        The tree is node -> ascending neighbour tuple, keys ascending,
        each tuple read from ``tuples`` so that every tree of the graph
        with the same neighbour set at some node shares one tuple object
        for it; the Steiner points are its non-terminal nodes.  The first
        call for an entry builds both from its masks, keeps them in the
        entry and drops the masks; later calls return the same tree and
        set.  Only pricing and reduction need them, so a tree whose bound
        alone rules it out is never built.  A held entry is built even if
        the cache has been cleared since it was fetched, so the tree is
        not grown again.
        """
        if entry.tree is None:
            adjacency, nodes, tuples = entry.adjacency, entry.nodes, self.tuples
            entry.tree = {w: tuples[adjacency[w]] for w in vec_support(nodes)}
            entry.steiner = frozenset(vec_support(nodes & ~mask))
            entry.adjacency = entry.nodes = None
        return entry.tree, entry.steiner


# ---------------------------------------------------------------------------
# Architecture files and the built-in registry.

_BUILTIN = ("9-square", "16-square", "ibm-qx5", "rigetti-16q-aspen",
            "ibm-q20-tokyo")


def parse_arch_json(text: str, source: str = "<arch>") -> Tuple[ArchGraph, Optional[List[int]]]:
    """Parse an architecture file.

    Schema: an object with fields ``name`` (str), ``nodes`` (list of
    display names), ``edges`` (list of [name, name] pairs) and optional
    ``initial_mapping`` (list of [wire, name] pairs, wires "w1".."wn").
    Returns the graph and the initial mapping as a wire->node list.
    """
    data = load_json(text, source, ArchFileError)
    if not isinstance(data, dict):
        raise ArchFileError(f"{source}: top level must be a JSON object")
    for field in ("name", "nodes", "edges"):
        if field not in data:
            raise ArchFileError(f"{source}: missing field {field!r}")
    if not isinstance(data["name"], str):
        raise ArchFileError(f"{source}: name must be a string")
    names = data["nodes"]
    if not (isinstance(names, list) and all(isinstance(nm, str) for nm in names)):
        raise ArchFileError(f"{source}: nodes must be a list of name strings")
    if len(set(names)) != len(names):
        raise ArchFileError(f"{source}: duplicate node names")
    index = {nm: i for i, nm in enumerate(names)}
    if not isinstance(data["edges"], list):
        raise ArchFileError(f"{source}: edges must be a list of [name, name] pairs")
    edges = []
    for pair in data["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(nm, str) for nm in pair)):
            raise ArchFileError(f"{source}: malformed edge {pair!r}")
        a, b = pair
        if a not in index or b not in index:
            raise ArchFileError(f"{source}: edge {pair!r} names unknown node")
        edges.append((index[a], index[b]))
    try:
        graph = ArchGraph(len(names), edges, names, name=data["name"])
    except (ValueError, DisconnectedGraphError) as exc:
        raise ArchFileError(f"{source}: {exc}") from exc
    mapping = None
    if "initial_mapping" in data:
        if not isinstance(data["initial_mapping"], list):
            raise ArchFileError(f"{source}: initial_mapping must be a list of [wire, name] pairs")
        mapping = parse_wire_pairs(data["initial_mapping"], names, source, ArchFileError)
    return graph, mapping


def load_arch_file(path: str) -> Tuple[ArchGraph, Optional[List[int]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arch_json(fh.read(), source=path)


def list_architectures() -> Tuple[str, ...]:
    return _BUILTIN


def get_architecture(name: str) -> Tuple[ArchGraph, List[int]]:
    """Load a built-in architecture and its stock initial mapping."""
    if name not in _BUILTIN:
        raise KeyError(f"unknown architecture {name!r}; known: {', '.join(_BUILTIN)}")
    text = resources.files(__package__).joinpath(f"archs/{name}.json").read_text("utf-8")
    graph, mapping = parse_arch_json(text, source=name)
    if mapping is None:
        raise ArchFileError(f"{name}: built-in file lacks initial_mapping")
    return graph, mapping


def resolve_architecture(name_or_path: str) -> Tuple[ArchGraph, Optional[List[int]]]:
    """Accept either a registry name or a path to an architecture file.

    Raises ``OSError``, listing the built-ins, if it is neither.
    """
    if name_or_path in _BUILTIN:
        return get_architecture(name_or_path)
    if not os.path.isfile(name_or_path):
        raise OSError(f"{name_or_path!r} is neither a built-in ({', '.join(_BUILTIN)}) nor a file")
    return load_arch_file(name_or_path)
