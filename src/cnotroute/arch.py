"""Architecture graphs, all-pairs shortest paths, and Steiner trees.

An architecture is an undirected connected graph of physical qubits.
Distance, successor and distance-ball tables are built once per graph;
``ball[t][d]`` is the mask of the nodes within distance d of t.  A
terminal set is an int mask, bit t for node t, as the synthesizer reads
it off a row of the inverse.  One Steiner-style tree is grown per mask,
on demand, into one cache entry (``steiner_entry``): the unrooted tree
and its Steiner points.  The tree does not depend on the root; pricing
(``rowgraph.reduction_costs``) and reduction
(``rowgraph.tree_reduce_tracked``) both read it and pick the root
themselves.  Growth keeps each tree node's neighbours as an int mask and
turns it into the ascending neighbour tuple through one table per graph,
so all cached trees share one immutable tuple per neighbour set; the
table is cleared with the cache.  ``gen_steiner`` is the same lookup for
callers holding an iterable of nodes.  A grown tree is a tree whose
leaves are terminals by the proof in ``_grow_steiner_graph``, which
checks nothing at run time; ``rowgraph``'s public functions check every
tree they are given, and the synthesizer prices grown trees through its
unchecked cores.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .circuit import load_json, parse_wire_pairs
from .gf2 import vec_support

INF = 10**9


class DisconnectedGraphError(ValueError):
    """Raised when a graph that must be connected is not."""


class ArchFileError(ValueError):
    """Raised for malformed architecture files."""


def floyd_warshall_with_path(n: int, edges) -> Tuple[list, list]:
    """Hop-count shortest distances plus successor table.

    Edges are symmetrized; unit weights.  succ[i][j] is a neighbour of i
    on a shortest i->j path (succ[i][i] = i).  Raises
    DisconnectedGraphError naming an unreachable pair.
    """
    dist = [[INF] * n for _ in range(n)]
    succ: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
        succ[i][i] = i
    for u, v in edges:
        dist[u][v] = 1
        dist[v][u] = 1
        succ[u][v] = v
        succ[v][u] = u
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            if dik == INF:
                continue
            si = succ[i]
            sik = si[k]
            for j in range(n):
                alt = dik + dk[j]
                if di[j] > alt:
                    di[j] = alt
                    si[j] = sik
    for i in range(n):
        for j in range(n):
            if dist[i][j] >= INF:
                raise DisconnectedGraphError(
                    f"graph is disconnected: no path between {i} and {j}"
                )
    return dist, succ


def path_from_successors(succ, u: int, v: int) -> List[int]:
    """Path [u, ..., v] following the successor table; [] if no entry."""
    if succ[u][v] is None:
        return []
    path = [u]
    x = u
    while x != v:
        x = succ[x][v]
        path.append(x)
    return path


class _Supports(dict):
    """Neighbour mask -> its ascending tuple, stored on first lookup."""

    def __missing__(self, mask: int) -> tuple:
        support = self[mask] = vec_support(mask)
        return support


class ArchGraph:
    """Immutable connected architecture graph with distance tables."""

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
        norm = []
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) is not a pair of nodes 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        self.edges: FrozenSet[Tuple[int, int]] = frozenset(norm)
        self.dist, self.succ = floyd_warshall_with_path(n, norm)
        # ball[t][d]: mask of the nodes within distance d of t, for d up to
        # the diameter, where every ball is the whole graph
        depth = max(map(max, self.dist)) + 1
        ball = []
        for row in self.dist:
            rings = [0] * depth
            for v, d in enumerate(row):
                rings[d] |= 1 << v
            for d in range(1, depth):
                rings[d] |= rings[d - 1]
            ball.append(tuple(rings))
        self.ball = tuple(ball)
        # terminal mask -> (grown tree, Steiner points); the neighbour tuples
        # of the cached trees, one per neighbour mask, are cleared with it
        self._steiner_cache: Dict[int, tuple] = {}
        self._supports = _Supports()

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def __repr__(self) -> str:
        return f"ArchGraph({self.name or self.n!r}, n={self.n}, edges={len(self.edges)})"


def _grow_steiner_graph(g: ArchGraph, mask: int) -> dict:
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
    (v, u) is the one with u < v.  The result is a tree whose leaves are
    all terminals: an interior node w of a u-v path is strictly nearer
    to u than v, so were it a tree node or a terminal, (u, w) or (w, v)
    would be a nearer pair.  Each path thus meets the tree only at v,
    and only its ends other than v, all terminals, are left with one
    neighbour.  Each path adds as many edges as new nodes, so the result
    has one edge fewer than nodes and is connected: a tree.  Nothing here
    re-checks that; ``test_arch._check_tree_invariants`` does, on random
    graphs and on every tree routing grows on the device families.

    Each node's neighbours are kept as an int mask, one OR per path-edge
    end.  Returns an adjacency map node -> ascending neighbour tuple, the
    tuple read from ``g._supports``, so every tree of ``g`` with the same
    neighbour set at some node shares one tuple object for it.
    """
    if not mask & (mask - 1):
        return {mask.bit_length() - 1: ()}
    ball = g.ball
    succ = g.succ
    depth = len(ball[0])
    adjacency: Dict[int, int] = {}
    tree = 0
    remaining = vec_support(mask)
    while remaining:
        for d in range(1, depth):
            for u in remaining:
                # while the tree is empty, the first path's v is a terminal above u
                hit = ball[u][d] & (tree or mask >> u + 1 << u + 1)
                if hit:
                    break
            else:
                continue
            break
        v = (hit & -hit).bit_length() - 1
        adjacency[u] = 0
        tree |= 1 << u
        x = u
        while x != v:
            y = succ[x][v]
            adjacency[x] |= 1 << y
            if y in adjacency:
                adjacency[y] |= 1 << x
            else:
                adjacency[y] = 1 << x
                tree |= 1 << y
            x = y
        remaining = vec_support(mask & ~tree)
    supports = g._supports
    return {node: supports[nbs] for node, nbs in adjacency.items()}


_GROW_CACHE_CAP = 4000


def steiner_entry(g: ArchGraph, mask: int) -> tuple:
    """The cache entry for one terminal mask, grown on first use.

    The entry is (grown tree, Steiner points): the unrooted tree as node
    -> ascending neighbour tuple, and its non-terminal nodes.  Past
    ``_GROW_CACHE_CAP`` terminal sets the cache is dropped wholesale, and
    the graph's shared neighbour tuples with it: sustained runs would
    otherwise grow both unbounded, the tuples by up to 2**degree
    neighbour sets at one node.  Raises ValueError on a miss unless the
    mask names a non-empty set of ``g``'s nodes.
    """
    cache = g._steiner_cache
    entry = cache.get(mask)
    if entry is None:
        if type(mask) is not int or not 0 < mask < 1 << g.n:
            raise ValueError(f"terminal mask {mask} is not a non-empty set of {g.n} nodes")
        if len(cache) >= _GROW_CACHE_CAP:
            cache.clear()
            g._supports.clear()
        grown = _grow_steiner_graph(g, mask)
        entry = cache[mask] = (
            grown, frozenset(w for w in grown if not mask >> w & 1))
    return entry


def gen_steiner(g: ArchGraph, terminals) -> tuple:
    """Approximate Steiner tree spanning ``terminals``: (tree, Steiner points).

    ``terminals`` is any non-empty iterable of nodes of ``g``; the result
    is the cache entry ``steiner_entry`` holds for their mask, so every
    form of one set gets the same tree.
    """
    nodes = set(terminals)
    if not nodes or any(type(t) is not int or not 0 <= t < g.n for t in nodes):
        raise ValueError(f"terminals must be one or more of the nodes 0..{g.n - 1}")
    return steiner_entry(g, sum(1 << t for t in nodes))


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
    text = resources.files("cnotroute").joinpath(f"archs/{name}.json").read_text("utf-8")
    graph, mapping = parse_arch_json(text, source=name)
    if mapping is None:
        raise ArchFileError(f"{name}: built-in file lacks initial_mapping")
    return graph, mapping


def resolve_architecture(name_or_path: str) -> Tuple[ArchGraph, Optional[List[int]]]:
    """Accept either a registry name or a path to an architecture file."""
    if name_or_path in _BUILTIN:
        return get_architecture(name_or_path)
    return load_arch_file(name_or_path)
