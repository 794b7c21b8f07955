"""Immutable simple-graph container, BFS distances, and edge-list I/O.

Vertices are dense integer ids 0..n-1. All distances are exact integer hop
counts; nothing in this module touches floating point.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same undirected edge appears twice."""


class VertexOutOfRangeError(GraphError):
    """A vertex id falls outside 0..n-1."""


class DisconnectedError(GraphError):
    """Operation requires a connected graph."""


class SingleVertexError(GraphError):
    """Operation requires at least two vertices."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text."""


class InvariantViolation(GraphError):
    """A proven statement failed on concrete input: an implementation bug."""


ROW_BLOCK = 32  # distance rows per block in bulk passes: scratch is O(ROW_BLOCK * (n + m))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in adjacency-list form.

    Invariants (enforced by :func:`validate`): no self-loops, no duplicate
    edges, adjacency is symmetric with sorted neighbor lists, and ``m`` is
    half the sum of the list lengths. Instances are immutable and safe to
    share across threads.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, w) with u < w, sorted."""
        for u in range(self.n):
            for w in self.adjacency[u]:
                if u < w:
                    yield u, w

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)


def validate(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a Graph from an edge list, rejecting invalid input.

    Raises:
        VertexOutOfRangeError: n < 1 or an endpoint outside 0..n-1.
        SelfLoopError: an edge (u, u).
        DuplicateEdgeError: the same undirected pair listed twice.
    """
    if n < 1:
        raise VertexOutOfRangeError(f"need n >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            raise VertexOutOfRangeError(f"edge ({u}, {w}) outside 0..{n - 1}")
        if u == w:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, w) if u < w else (w, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(w)
        adj[w].append(u)
    return Graph(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj), m=len(seen))


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Exact hop distances from ``source`` via breadth-first search.

    The tuple is row ``source`` of :func:`distance_matrix` as Python ints.
    Raises DisconnectedError if any vertex is unreachable and
    VertexOutOfRangeError for an invalid source.
    """
    if not (0 <= source < g.n):
        raise VertexOutOfRangeError(f"source {source} outside 0..{g.n - 1}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    reached = 1
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                reached += 1
                queue.append(w)
    if reached != g.n:
        raise DisconnectedError(
            f"graph is disconnected: {g.n - reached} of {g.n} vertices "
            f"unreachable from {source}"
        )
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    try:
        bfs_distances(g, 0)
    except DisconnectedError:
        return False
    return True


def distance_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype holding every hop distance (at most n - 1)."""
    return np.dtype(np.int16 if n < 32768 else np.int32)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as a read-only n x n array, row v from source v.

    One BFS per source fills the rows; the dtype is :func:`distance_dtype`
    of n. Raises DisconnectedError on disconnected input.
    """
    arr = np.empty((g.n, g.n), dtype=distance_dtype(g.n))
    for v in range(g.n):
        arr[v] = bfs_distances(g, v)
    arr.setflags(write=False)
    return arr


def diameter(g: Graph) -> int:
    """Max over all pairs of d(u, v), by BFS from every vertex (O(n) memory)."""
    best = 0
    for v in range(g.n):
        best = max(best, max(bfs_distances(g, v)))
    return best


def is_path_graph(g: Graph) -> bool:
    """True iff the connected graph g is a path (K_1 and K_2 included)."""
    if g.n == 1:
        return True
    degs = sorted(g.degree_sequence())
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


# --- canonical edge-list text format ---
# First line "n m", then m lines "u v" (0-indexed, whitespace separated).
# Lines starting with '#' are comments and ignored.

def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise EdgeListParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListParseError(f"non-integer header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise EdgeListParseError(f"header declares {m} edges, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListParseError(f"non-integer edge line {ln!r}") from exc
    return validate(edges, n)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(path: str | Path, g: Graph) -> None:
    Path(path).write_text(format_edge_list(g))
