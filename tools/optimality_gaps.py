"""How far the router sits from optimal on every small device, exhaustively.

    python3 tools/optimality_gaps.py

For every invertible matrix on path3, the triangle and the six connected
4-node graphs (path, star, cycle, paw, diamond, K4), a breadth-first
search over row additions along edges, started from every permutation
matrix, gives the fewest ADDs that reduce the matrix's rows to a
permutation state.  A SWAP is three ADDs on its edge, so ADDs alone
reach that minimum.  The router's weight (SWAP = 3) on the same rows is
``heuristic_token_reduction``'s, before post-processing; the gap is the
difference.  Prints one line per graph: the matrices, the share routed
optimally, the largest gap and the gap histogram.  Raises RuntimeError
if a reduction ends off a permutation or below the minimum.  Takes no
options; the package is read from ``src/`` beside this file when it is
not installed.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cnotroute.arch import ArchGraph  # noqa: E402
from cnotroute.heuristic import heuristic_token_reduction  # noqa: E402
from cnotroute.rowgraph import SWAP  # noqa: E402

GRAPHS = {
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def search(starts, moves) -> dict:
    """Breadth-first search over row tuples from ``starts``.

    A move (a, b) adds row b into row a.  Returns state -> (distance,
    previous state, move), the previous state and move None at a start.
    Every move is self-inverse, so the distance from the starts is also
    the distance to them.
    """
    seen = {s: (0, None, None) for s in starts}
    frontier = list(seen)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for a, b in moves:
                rows = list(state)
                rows[a] ^= rows[b]
                rows = tuple(rows)
                if rows not in seen:
                    seen[rows] = (depth, state, (a, b))
                    nxt.append(rows)
        frontier = nxt
    return seen


def min_weights(n: int, edges) -> dict:
    """Row tuple -> fewest ADDs along ``edges`` reducing it to a permutation."""
    starts = [tuple(1 << p for p in perm) for perm in permutations(range(n))]
    moves = [(a, b) for u, v in edges for a, b in ((u, v), (v, u))]
    return {rows: found[0] for rows, found in search(starts, moves).items()}


def routed_weight(graph: ArchGraph, rows) -> int:
    """``heuristic_token_reduction``'s weight on a copy of ``rows``, SWAP = 3.

    Raises RuntimeError if the rows it leaves are not a permutation.
    """
    rows = list(rows)
    ops = heuristic_token_reduction(graph, rows)
    if sorted(rows) != [1 << i for i in range(graph.n)]:
        raise RuntimeError(f"reduction ended on {rows}, not a permutation")
    return sum(3 if kind == SWAP else 1 for kind, _, _ in ops)


def gap_histogram(n: int, edges) -> Counter:
    """Gap -> number of matrices, over every invertible matrix on the graph.

    Raises RuntimeError if any routed weight is below the minimum.
    """
    graph = ArchGraph(n, edges)
    gaps = Counter()
    for rows, best in min_weights(n, edges).items():
        gap = routed_weight(graph, rows) - best
        if gap < 0:
            raise RuntimeError(f"rows {rows} routed below their minimum {best}")
        gaps[gap] += 1
    return gaps


def main() -> int:
    print(f"{'graph':<9} {'matrices':>8} {'optimal':>8} {'max gap':>7}  histogram")
    for name, (n, edges) in GRAPHS.items():
        gaps = gap_histogram(n, edges)
        total = sum(gaps.values())
        print(f"{name:<9} {total:>8} {gaps[0] / total:>8.1%} {max(gaps):>7}  "
              f"{dict(sorted(gaps.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
