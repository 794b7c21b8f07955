"""Immutable simple-graph container, BFS distances, and edge-list I/O.

Vertices are dense integer ids 0..n-1. All distances are exact integer hop
counts; nothing in this module touches floating point.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
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
MAX_VERTICES = 32767  # largest n whose distance matrix fits int16: n * n * 2 bytes, about 2 GiB
# set when verify --checks all on K_600 (179 700 edges) peaked at 196 MiB RSS, about 1.1 KiB
# per edge, so about 1.1 GiB, of the order of the largest distance matrix; with the battery's
# edge scratch bounded (verify.EDGE_BUDGET) that run peaks at 92 MiB, what boundary() alone
# takes, so the same cap now stands for about 0.5 GiB
MAX_EDGES = 2**20
BIT_ROUTE_RATIO = 2  # distance_matrix goes bit-parallel when ecc(0) * ceil(n / 64) <= this * (n + m)
TREE_ROUTE_ECC = 16  # a tree with n >= 64 takes the row recurrence when ecc(0) >= this
DISTANCE_ROUTES = ("tree", "bits", "python")  # named by distance_route; python is the reference


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in adjacency-list form.

    Invariants (enforced by :func:`validate`): no self-loops, no duplicate
    edges, adjacency is symmetric with sorted neighbor lists, and ``m`` is
    half the sum of the list lengths. ``csr`` is the same adjacency as a
    read-only intp pair (indptr, indices): u's neighbors are
    ``indices[indptr[u]:indptr[u + 1]]``. It takes no part in equality.
    Instances are immutable and safe to share across threads.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    csr: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

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


def validate(edges: Iterable[tuple[int, int]] | np.ndarray, n: int) -> Graph:
    """Build a Graph from an edge list, rejecting invalid input; the one constructor of Graph.

    ``edges`` is an iterable of pairs or an (m, 2) integer array. The checks
    run on the array of ends: one sort of the directed keys u * n + w gives
    the neighbor lists in order, both as tuples and as the CSR, and a key
    that sorts next to its equal is a duplicate edge or a self-loop. A
    rejected list is scanned again in input order by :func:`_first_fault`,
    so the error names its first bad edge, with ranges tested before
    self-loops and self-loops before duplicates.

    Raises:
        VertexOutOfRangeError: n outside 1..MAX_VERTICES or an endpoint outside 0..n-1.
        SelfLoopError: an edge (u, u).
        DuplicateEdgeError: the same undirected pair listed twice.
        GraphError: more than MAX_EDGES edges.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise VertexOutOfRangeError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        ends = np.array(edges, dtype=np.intp).reshape(len(edges), 2)
    except (OverflowError, TypeError, ValueError):  # an id beyond intp, or not pairs
        ends = None
    keys = None
    if ends is not None and (ends.view(np.uintp) < n).all():  # a negative id wraps past n
        u, w = ends.T
        keys = np.concatenate((u * n + w, w * n + u))
        keys.sort()
        if (keys[1:] == keys[:-1]).any():  # a self-loop (u, u) lists the key u * n + u twice
            keys = None
    if keys is None:
        raise _first_fault(edges.tolist() if isinstance(edges, np.ndarray) else edges, n)
    if len(ends) > MAX_EDGES:
        raise GraphError(f"{len(ends)} edges, more than {MAX_EDGES}")
    heads = keys % n
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n))  # u's keys are u*n .. u*n + n-1
    indptr.setflags(write=False)
    heads.setflags(write=False)
    flat, cuts = heads.tolist(), indptr.tolist()
    adjacency = tuple(tuple(flat[a:b]) for a, b in zip(cuts, cuts[1:]))
    return Graph(n=n, adjacency=adjacency, m=len(ends), csr=(indptr, heads))


def _first_fault(edges: Iterable[tuple[int, int]], n: int) -> GraphError:
    """The error for the first bad edge of a list that :func:`validate` rejected."""
    seen: set[tuple[int, int]] = set()
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            return VertexOutOfRangeError(f"edge ({u}, {w}) outside 0..{n - 1}")
        if u == w:
            return SelfLoopError(f"self-loop at vertex {u}")
        key = (u, w) if u < w else (w, u)
        if key in seen:
            return DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
    return InvariantViolation(f"validate rejected {len(seen)} edges that scan as valid")


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
    of 2. The routes that :func:`distance_route` names give the same matrix:
    "tree", the row recurrence of :func:`_tree_distances`; "bits", the
    bit-parallel BFS of :func:`_bit_distances`; "python", one Python BFS per
    source, with the probe reused as row 0. The dtype is int16, which holds
    n - 1 < MAX_VERTICES.
    """
    row0 = bfs_distances(g, 0)
    route = distance_route(g, max(row0))
    if route == "tree":
        arr = _tree_distances(g, row0)
    elif route == "bits":
        arr = _bit_distances(g)
    else:
        arr = np.empty((g.n, g.n), dtype=np.int16)
        arr[0] = row0
        for v in range(1, g.n):
            arr[v] = bfs_distances(g, v)
    arr.setflags(write=False)
    return arr


def distance_route(g: Graph, ecc0: int) -> str:
    """The route of :func:`distance_matrix` on the connected g, where ecc(0) = ecc0.

    Below one full word (n < 64) "python" wins: the per-level numpy calls of
    the bit route cost more than the whole Python pass, and on the 145
    labeled trees with 2 <= n <= 5 it takes 14-17 us per graph against 37 us
    for the recurrence.

    "tree": g is connected, so m = n - 1 makes it a tree, which takes the
    recurrence when ecc(0) >= TREE_ROUTE_ECC. The recurrence costs a few
    numpy calls per row whatever the depth, while the bit route costs one
    level per unit of diameter, and ecc(0) <= diam <= 2 ecc(0). So deep
    trees go to the recurrence, and shallow, bushy ones (stars, binary
    trees, short-legged spiders) stay on bits. TREE_ROUTE_ECC was fitted on
    these trees, in ms, medians of 5 on a shared 2-core host (about +-15%):

    ========================  ======  ============  ==========
    tree (n)                  ecc(0)  bits          recurrence
    ========================  ======  ============  ==========
    path 600 / 2000           n - 1   75 / 2975     2.6 / 19
    random_tree(600, 1)       61      10.0          3.2
    random_tree(2000, 1)      97      191           19
    caterpillar 200x2 (600)   200     14.7          1.9
    spider 20x30 (601)        30      5.3           1.7
    spider 37x16 (593)        16      5.7           3.3
    caterpillar 16x36 (592)   16      3.2           3.8
    caterpillar 24x24 (600)   24      3.9           3.9
    binary 600 / 2000         9 / 10  3.8 / 34      3.5 / 23
    spider 100x6 (601)        6       1.7           1.7
    star 600 / 2000           1       1.0 / 7.8     3.8 / 19
    ========================  ======  ============  ==========

    Rooted at the center, as in a spider, diam = 2 ecc(0) and the
    recurrence wins from ecc(0) = 12 at n = 100 to 2000. Rooted at an end
    of a caterpillar, diam = ecc(0) and it breaks even near 24 for n <= 600
    and near 12 at n = 2000. At 16 the worst loss measured was 1.2x
    (caterpillar 16x11, n = 192, 0.98 against 0.80 ms), against gains up to
    2.4x at the same ecc(0) (spider 124x16, n = 1985). (The Python BFS
    takes 0.105 s on path 600 and 1.2 s on path 2000.)

    "bits": a level of the bit route costs about ceil(n / 64) words per
    vertex and edge, and it runs diam <= 2 ecc(0) levels; a Python BFS
    costs n + m per source. So low-diameter graphs, ecc(0) * ceil(n / 64)
    <= BIT_ROUTE_RATIO * (n + m), go to bits, and long cycles and other long
    thin graphs stay on "python". BIT_ROUTE_RATIO was fitted on grids
    (square and long thin), G(n, p), trees, stars, complete graphs, cycles
    and paths of 64 to 3630 vertices: bits won at 2 or below, by 1.2x to
    240x, with paths near n = 64 within 10% either way. Above 2 they still
    won at cycle 600 (ratio 2.5, 0.041 against 0.091 s) and grid 6x600
    (3.38, 3.65 against 4.23 s), and lost at cycle 2000 (8.0, 1.18 against
    0.64 s), medians of 5 on a shared 2-core host.
    """
    if g.n >= 64 and g.m == g.n - 1 and ecc0 >= TREE_ROUTE_ECC:
        return "tree"
    if g.n >= 64 and ecc0 * -(-g.n // 64) <= BIT_ROUTE_RATIO * (g.n + g.m):
        return "bits"
    return "python"


def _tree_distances(g: Graph, row0: tuple[int, ...]) -> np.ndarray:
    """The writable distance matrix of the tree g, where row0 = ``bfs_distances(g, 0)``.

    One iterative DFS from vertex 0 lists the vertices in preorder, so the
    subtree of c is the preorder range [tin(c), tin(c) + size(c)). Row 0 in
    preorder columns is the depth; the row of a child c is its parent's
    row plus 1, minus 2 on c's subtree. Each row is stored at its vertex id
    and then its columns go back to vertex order, ROW_BLOCK rows at a time,
    so the route peaks at the matrix plus one block. A graph with a cycle
    raises InvariantViolation once the DFS reaches a vertex twice, instead
    of looping on the cycle.
    """
    n = g.n
    adjacency = g.adjacency
    parent = [-1] * n
    parent[0] = 0  # reached: every reached vertex has a parent
    order: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adjacency[u]:
            if w != parent[u]:
                if parent[w] >= 0:
                    raise InvariantViolation(f"tree route reached vertex {w} twice: not a tree")
                parent[w] = u
                stack.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    tin = np.argsort(order)

    out = np.empty((n, n), dtype=np.int16)
    out[0] = np.asarray(row0, dtype=np.int16)[order]
    for i in range(1, n):
        c = order[i]
        row = out[c]
        np.add(out[parent[c]], 1, out=row)  # at most n <= MAX_VERTICES, so int16 never wraps
        row[i:i + size[c]] -= 2
    for start in range(0, n, ROW_BLOCK):
        out[start:start + ROW_BLOCK] = out[start:start + ROW_BLOCK, tin]
    return out


def _bit_distances(g: Graph) -> np.ndarray:
    """The writable distance matrix, unpacked from :func:`_distance_planes`.

    Distances are symmetric, so row u of the planes is row u of the matrix.
    The planes are unpacked in blocks of max(ROW_BLOCK, 2^16 // n) rows, so
    a block holds at most max(ROW_BLOCK n, 2^16) entries, and small graphs
    pay the per-call cost far fewer times: blocks of ROW_BLOCK rows
    unpacked the 404-vertex annulus in 0.67-0.68 ms against 0.37-0.40 ms,
    and G(400, 0.02) in 0.33-0.34 against 0.18-0.20 ms. The BFS scratch is
    freed before the matrix is allocated, so the route peaks at the
    matrix, the planes and one block of unpacked rows.
    """
    planes = _distance_planes(g)
    out = np.zeros((g.n, g.n), dtype=np.int16)
    rows = max(ROW_BLOCK, 2**16 // g.n)
    for start in range(0, g.n, rows):
        blk = out[start:start + rows]
        for k, plane in enumerate(planes):
            bytes_ = plane[start:start + rows].astype("<u8", copy=False).view(np.uint8)
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
# First line "n m", then m lines "u v" (0-indexed, whitespace separated), each
# number an ASCII integer [+-]?[0-9]+.
# Lines starting with '#' are comments and ignored.
# Canonical text, what format_edge_list writes, is read in array passes: lines
# of two ASCII numbers of at most 9 digits, one space or tab apart, each line
# ending in a newline. Any other text takes the line parser, which words every
# parse error; both give the same Graph.
_CANONICAL = re.compile(r"(?:[0-9]{1,9}[ \t][0-9]{1,9}\n)+")


def _ascii_int(token: str) -> int:
    """The int of a token matching [+-]?[0-9]+; int() alone also takes '_' and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    if _CANONICAL.fullmatch(text):
        nums = np.fromstring(text, dtype=np.intp, sep=" ")  # every token is 1 to 9 digits
        n, m = nums[:2].tolist()
        if n <= MAX_VERTICES and m <= MAX_EDGES and len(nums) == 2 * m + 2:
            return validate(nums[2:].reshape(m, 2), n)
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise EdgeListParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = _ascii_int(head[0]), _ascii_int(head[1])
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
            edges.append((_ascii_int(parts[0]), _ascii_int(parts[1])))
        except ValueError as exc:
            raise EdgeListParseError(f"non-integer edge line {ln!r}") from exc
    return validate(edges, n)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())
