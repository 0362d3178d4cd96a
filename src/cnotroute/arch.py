"""Architecture graphs, all-pairs shortest paths, and reduction trees.

An architecture is an undirected connected graph of physical qubits.
Distance and successor tables are built once per graph.  Steiner-style
reduction trees are grown on demand into one cache entry per terminal
set (``steiner_entry``): the unrooted grown tree, its Steiner points and
a memo of the trees ``gen_steiner`` has rooted at its terminals.  Pricing
reads the unrooted tree and prices all roots at once; only committed
reductions root a tree.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .circuit import load_json, parse_wire_pairs

INF = 10**9
# the kinds of the (kind, a, b) row ops that the rowgraph module describes
ADD = "ADD"
SWAP = "SWAP"


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


class ArchGraph:
    """Immutable connected architecture graph with distance tables."""

    def __init__(self, n: int, edges, names: Optional[Sequence[str]] = None,
                 name: str = ""):
        if n < 1:
            raise ValueError("graph needs at least one node")
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
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        self.edges: FrozenSet[Tuple[int, int]] = frozenset(norm)
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.dist, self.succ = floyd_warshall_with_path(n, norm)
        # terminal set -> (grown tree, Steiner points, root -> ReductionTree)
        self._steiner_cache: Dict[FrozenSet[int], tuple] = {}

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def node_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown node name {name!r}") from None

    def __repr__(self) -> str:
        return f"ArchGraph({self.name or self.n!r}, n={self.n}, edges={len(self.edges)})"


class ReductionTree:
    """Tree inside an architecture graph, rooted at a terminal, as an op plan.

    ``schedule`` is the post-order (ascending children) plan consumed by
    the row-graph reducers: ("SWAP", child, parent) for each Steiner
    parent's first child, ("ADD", parent, child) everywhere else.
    ``schedule_cost`` weighs SWAP 3, ADD 1; when all leaves are
    terminals it is |V| - 1 + 2|S| for every root.  ``parent``,
    ``vertices``, ``steiner_points`` and ``post_order`` are derived from
    the schedule on demand.  The constructor checks the child -> parent
    map given and roots it through ``_root_at``, as ``gen_steiner``
    roots a grown tree.
    """

    __slots__ = ("root", "terminals", "schedule", "schedule_cost")

    def __init__(self, root: int, parent: Dict[int, int], terminals):
        if root in parent:
            raise ValueError("root must not have a parent")
        adjacency: Dict[int, List[int]] = {root: []}
        for c, p in parent.items():
            adjacency.setdefault(c, []).append(p)
            adjacency.setdefault(p, []).append(c)
        for nbs in adjacency.values():
            nbs.sort()
        term = frozenset(terminals) & adjacency.keys()
        if root not in term:
            raise ValueError("root must be a terminal")
        self._root_at(adjacency, term, root)
        if len(self.schedule) != len(adjacency) - 1:
            raise ValueError("parent links must form one tree under the root")

    def _root_at(self, adjacency, terminals: FrozenSet[int], root: int) -> None:
        """Set every slot by rooting an undirected tree at ``root``.

        ``adjacency`` maps each node to its ascending neighbours, and its
        non-terminal nodes are the Steiner points.  Pushing each node's
        children in ascending order makes one stack walk a pre-order with
        descending children; reversed, that is the post-order with
        ascending children.  A child's op is fixed as its parent is
        expanded: a Steiner parent swaps with its first child.
        """
        pre = []
        swaps = 0
        stack = [(root, -1, None)]
        while stack:
            node, up, op = stack.pop()
            if op is not None:
                pre.append(op)
            swap = node not in terminals
            for c in adjacency[node]:
                if c != up:
                    stack.append((c, node, (SWAP, c, node) if swap else (ADD, node, c)))
                    swaps += swap
                    swap = False
        pre.reverse()
        self.root = root
        self.terminals = terminals
        self.schedule = tuple(pre)
        self.schedule_cost = len(pre) + 2 * swaps

    @property
    def post_order(self) -> Tuple[int, ...]:
        return tuple(a if kind == SWAP else b
                     for kind, a, b in self.schedule) + (self.root,)

    @property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(self.post_order)

    @property
    def steiner_points(self) -> FrozenSet[int]:
        return self.vertices - self.terminals

    @property
    def parent(self) -> Dict[int, int]:
        return dict(self.edge_list())

    def edge_list(self) -> List[Tuple[int, int]]:
        """(child, parent) pairs in post-order."""
        return [(a, b) if kind == SWAP else (b, a)
                for kind, a, b in self.schedule]

    def __repr__(self) -> str:
        return (f"ReductionTree(root={self.root}, vertices={sorted(self.vertices)}, "
                f"steiner={sorted(self.steiner_points)})")


def nearest_neighbours(first, second, dist) -> Tuple[int, int]:
    """Pair (u, v), u in first, v in second, minimizing dist[u][v].

    Pairs with u == v are skipped; ties break to the smallest (u, v).
    When both inputs are the same set only pairs u < v are scanned: the
    smallest of (u, v) and (v, u) is always the one with u < v.
    """
    firsts = sorted(first)
    same = first == second
    seconds = firsts if same else sorted(second)
    best = None
    for i, u in enumerate(firsts):
        du = dist[u]
        for v in (seconds[i + 1:] if same else seconds):
            if u == v:
                continue
            d = du[v]
            if best is None or d < best[0]:
                best = (d, u, v)
    if best is None:
        raise ValueError("no candidate pair")
    return best[1], best[2]


def _grow_steiner_graph(g: ArchGraph, terminals: FrozenSet[int]) -> dict:
    """Grow a tree spanning the terminals from shortest paths.

    A shortest path joins the nearest pair of terminals, then each
    remaining terminal u nearest the tree joins its nearest tree node v,
    ties broken to the smallest (distance, u, v).  Each remaining
    terminal keeps its (distance, nearest tree node) pair, updated with
    only the nodes each new path adds, and the next pair is chosen in
    the same pass.  The result is a tree whose leaves are all terminals:
    an interior node w of a u-v path is strictly nearer to u than v, so
    were it a tree node or a terminal, (u, w) or (w, v) would be a
    nearer pair.  Each path thus meets the tree only at v, and only its
    ends other than v, all terminals, are left with one neighbour.

    Returns an adjacency map node -> sorted neighbour tuple; raises
    AssertionError if the result is not such a tree (a path that met the
    tree twice would add more edges than nodes).
    """
    if len(terminals) == 1:
        (only,) = terminals
        return {only: ()}
    dist = g.dist
    succ = g.succ
    adjacency: Dict[int, List[int]] = {}
    dnear = dict.fromkeys(terminals, INF)  # remaining terminal -> distance
    wnear = dict.fromkeys(terminals, -1)   # ... and its nearest tree node
    u, v = nearest_neighbours(terminals, terminals, dist)
    while True:
        adjacency[u] = []
        path = [u]  # the nodes this path adds: all but v after the first
        x = u
        while x != v:
            y = succ[x][v]
            adjacency[x].append(y)
            if y in adjacency:
                adjacency[y].append(x)
            else:
                adjacency[y] = [x]
                path.append(y)
            x = y
        for w in path:
            if w in dnear:
                del dnear[w]
                del wnear[w]
        if not dnear:
            break
        bd = INF + 1
        for t, d0 in dnear.items():
            w0 = wnear[t]
            dt = dist[t]
            for w in path:
                d = dt[w]
                if d < d0 or (d == d0 and w < w0):
                    d0, w0 = d, w
            dnear[t] = d0
            wnear[t] = w0
            if d0 < bd or (d0 == bd and t < u):
                bd, u, v = d0, t, w0
    if (sum(map(len, adjacency.values())) != 2 * (len(adjacency) - 1)
            or any(len(adjacency[w]) < 2 for w in adjacency.keys() - terminals)):
        raise AssertionError(
            f"grown graph for terminals {sorted(terminals)} is not a tree "
            "with terminal leaves")
    return {node: tuple(sorted(nbs)) for node, nbs in adjacency.items()}


_GROW_CACHE_CAP = 4000


def steiner_entry(g: ArchGraph, terminals) -> tuple:
    """The cache entry for one terminal set, grown on first use.

    The entry is (grown tree, Steiner points, root -> ReductionTree
    memo): the unrooted tree as node -> ascending neighbour tuple, its
    non-terminal nodes, and the trees ``gen_steiner`` has rooted so far.
    Pricing reads the first two, so only committed reductions root.  Past
    ``_GROW_CACHE_CAP`` terminal sets the cache, memos included, is
    dropped wholesale; sustained runs would otherwise grow it unbounded.
    """
    key = frozenset(terminals)
    cache = g._steiner_cache
    entry = cache.get(key)
    if entry is None:
        if len(cache) >= _GROW_CACHE_CAP:
            cache.clear()
        grown = _grow_steiner_graph(g, key)
        entry = cache[key] = (grown, frozenset(grown) - key, {})
    return entry


def gen_steiner(g: ArchGraph, terminals, root: int) -> ReductionTree:
    """Approximate Steiner tree spanning ``terminals``, rooted at ``root``.

    The unrooted tree comes from ``steiner_entry``; each root is rooted
    by one stack walk and memoized in the entry.  ``schedule_cost`` is
    the same for every root.
    """
    key = frozenset(terminals)
    grown, _, trees = steiner_entry(g, key)
    tree = trees.get(root)
    if tree is None:
        if root not in key:
            raise ValueError(f"root {root} not in terminal set")
        tree = ReductionTree.__new__(ReductionTree)
        tree._root_at(grown, key, root)
        trees[root] = tree
    return tree


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
