"""Immutable simple-graph container, BFS distances, and edge-list I/O.

Vertices are dense integer ids 0..n-1. All distances are exact integer hop
counts; nothing in this module touches floating point.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
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
MAX_VERTICES = 32767  # largest n whose distance matrix fits int16: n * n * 2 bytes, about 2 GiB
# verify --checks all on K_600 (179 700 edges) peaks at 296 MiB, about 1.5 KiB per
# edge, so this edge budget is about 1.5 GiB, of the order of the largest distance matrix
MAX_EDGES = 2**20
BIT_ROUTE_RATIO = 2  # distance_matrix goes bit-parallel when ecc(0) * ceil(n / 64) <= this * (n + m)


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

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR (indptr, indices): u's neighbors are indices[indptr[u]:indptr[u + 1]]."""
        indptr = np.array([0, *accumulate(map(len, self.adjacency))], dtype=np.intp)
        indices = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp, count=2 * self.m)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, w) with u < w, sorted."""
        for u in range(self.n):
            for w in self.adjacency[u]:
                if u < w:
                    yield u, w


def validate(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a Graph from an edge list, rejecting invalid input; the one constructor of Graph.

    Raises:
        VertexOutOfRangeError: n outside 1..MAX_VERTICES or an endpoint outside 0..n-1.
        SelfLoopError: an edge (u, u).
        DuplicateEdgeError: the same undirected pair listed twice.
        GraphError: more than MAX_EDGES edges.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise VertexOutOfRangeError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
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
    if len(seen) > MAX_EDGES:
        raise GraphError(f"{len(seen)} edges, more than {MAX_EDGES}")
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
        raise _disconnected(g.n, g.n - reached, source)
    return tuple(dist)


def _disconnected(n: int, unreachable: int, source: int) -> DisconnectedError:
    return DisconnectedError(
        f"graph is disconnected: {unreachable} of {n} vertices unreachable from {source}"
    )


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    try:
        bfs_distances(g, 0)
    except DisconnectedError:
        return False
    return True


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as a read-only n x n array, row v from source v.

    One Python BFS from vertex 0 checks connectivity (DisconnectedError
    otherwise) and gives ecc(0), which brackets the diameter within a factor
    of 2. :func:`takes_bit_route` then picks the route: the bit-parallel BFS
    of :func:`_bit_distances`, or one Python BFS per source, with the probe
    reused as row 0. The dtype is int16, which holds n - 1 < MAX_VERTICES.
    """
    row0 = bfs_distances(g, 0)
    if takes_bit_route(g, max(row0)):
        arr = _bit_distances(g)
    else:
        arr = np.empty((g.n, g.n), dtype=np.int16)
        arr[0] = row0
        for v in range(1, g.n):
            arr[v] = bfs_distances(g, v)
    arr.setflags(write=False)
    return arr


def takes_bit_route(g: Graph, ecc0: int) -> bool:
    """True iff :func:`distance_matrix` runs the bit-parallel BFS on g, where ecc(0) = ecc0.

    A level of the bit route costs about ceil(n / 64) words per vertex and
    edge, and it runs diam <= 2 ecc(0) levels; a Python BFS costs n + m per
    source. So low-diameter graphs go to bits, and long paths stay in
    Python. Below one full word (n < 64) the per-level numpy calls cost
    more than the whole Python pass. BIT_ROUTE_RATIO was fitted on grids
    (square and long thin), G(n, p), trees, stars, complete graphs, cycles
    and paths of 64 to 3630 vertices: bits won at 2 or below, by 1.2x to
    240x, with paths near n = 64 within 10% either way. Above 2 they still
    won at path 600 (ratio 5.0, 0.079 against 0.105 s, medians of 5 on a
    shared 2-core host) and lost at cycle 2000 (8.0, 1.18 against 0.64 s).
    """
    return g.n >= 64 and ecc0 * -(-g.n // 64) <= BIT_ROUTE_RATIO * (g.n + g.m)


def _bit_distances(g: Graph) -> np.ndarray:
    """The writable distance matrix, unpacked from :func:`_distance_planes`.

    Distances are symmetric, so row u of the planes is row u of the matrix.
    The BFS scratch is freed before the matrix is allocated, so the route
    peaks at the matrix, the planes and one block of unpacked rows.
    """
    planes = _distance_planes(g)
    out = np.zeros((g.n, g.n), dtype=np.int16)
    for start in range(0, g.n, ROW_BLOCK):
        blk = out[start:start + ROW_BLOCK]
        for k, plane in enumerate(planes):
            bytes_ = plane[start:start + ROW_BLOCK].astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(bytes_, axis=1, count=g.n, bitorder="little")
            blk |= np.left_shift(bits, k, dtype=blk.dtype)
    return out


def _distance_planes(g: Graph) -> list[np.ndarray]:
    """Bit k of d(s, u) as bit s of row u of plane k, by one BFS from all n sources at once.

    Each vertex u owns a bit row of ceil(n / 64) uint64 words, bit s of the
    row standing for source s. One level ORs each vertex's neighbor rows of
    the frontier together, ``np.bitwise_or.reduceat(F[indices], indptr)``,
    and keeps the bits of sources that had not reached u yet. A bit first
    set at level l is the distance d(s, u) = l, so it is ORed into plane k
    for each set bit k of l: the planes are bit-sliced counters,
    bit_length(diam) of them, each n x ceil(n / 64) words.

    The gather runs over vertex ranges whose neighbor rows take at most
    n * n / 2 bytes, a quarter of the int16 matrix, even on K_n. Raises
    DisconnectedError with the text of ``bfs_distances(g, 0)`` when some
    source cannot reach every vertex.
    """
    n = g.n
    words = -(-n // 64)
    indptr, indices = g.csr
    if n > 1 and not all(g.adjacency):  # an isolated vertex has no neighbor rows to reduce
        bfs_distances(g, 0)  # and is unreachable, so this raises
    ptr = indptr.tolist()
    cap = max(1, n * n // (16 * words))  # gathered neighbor rows per vertex range
    cuts = [0]
    for v in range(1, n):
        if ptr[v + 1] - ptr[cuts[-1]] > cap:
            cuts.append(v)
    cuts.append(n)
    ranges = [(a, b, indices[ptr[a]:ptr[b]], indptr[a:b] - ptr[a])
              for a, b in zip(cuts, cuts[1:])]
    gathered = np.empty((max(len(idx) for _, _, idx, _ in ranges), words), dtype=np.uint64)

    ids = np.arange(n)
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[ids, ids >> 6] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    unseen = ~frontier
    if n % 64:
        unseen[:, -1] &= np.uint64((1 << n % 64) - 1)  # padding bits stand for no source
    new = np.zeros_like(frontier)
    planes: list[np.ndarray] = []
    level = 0
    while unseen.any():
        level += 1
        for a, b, idx, offsets in ranges:
            rows = np.take(frontier, idx, axis=0, out=gathered[:len(idx)], mode="clip")
            np.bitwise_or.reduceat(rows, offsets, axis=0, out=new[a:b])
        reached = new
        reached &= unseen
        if not reached.any():
            raise _disconnected(n, int(np.count_nonzero(unseen[:, 0] & np.uint64(1))), 0)
        unseen ^= reached
        if level.bit_length() > len(planes):
            planes.append(np.zeros((n, words), dtype=np.uint64))
        for k in range(level.bit_length()):
            if level >> k & 1:
                planes[k] |= reached
        frontier, new = new, frontier
    return planes


def is_path_graph(g: Graph) -> bool:
    """True iff the connected graph g is a path (K_1 and K_2 included)."""
    degs = sorted(map(len, g.adjacency))
    return g.n == 1 or degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


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
    if n > MAX_VERTICES:
        raise EdgeListParseError(f"header declares {n} vertices, more than {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise EdgeListParseError(f"header declares {m} edges, more than {MAX_EDGES}")
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
