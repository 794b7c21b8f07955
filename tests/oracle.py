"""Independent brute-force oracles used to freeze expected test values.

The first part works on a raw (n, edges) pair and stays deliberately
separate from the package code paths: distances come from Floyd-Warshall
instead of BFS, the boundary criteria are evaluated with fractions.Fraction
averages instead of integer cross-multiplication, and the Laplacian route
goes through an explicit numpy matrix product.

The next part holds the per-source references on a ``Graph``: one slice by
the integer neighbor sum, one by the Laplacian matrix, and the layer
decomposition with the per-layer dichotomy of Theorem 2. They read the
package's ``Graph`` and BFS, and are the references that the block passes
of ``boundary()`` and of the check battery are compared with.

The last part is the per-vertex witness search of Proposition 4: for each
vertex, its certifiers in increasing order read off the full distance
matrix, antipodal descents first and equal-distance ties second. It is the
reference for the block search of ``graphboundary.euclid``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import graphboundary
from graphboundary import (
    CASE_ANTIPODAL_DESCENT,
    CASE_EQUAL_DISTANCE,
    BoundaryReport,
    Graph,
    GridGraph,
    InvariantViolation,
    NonUniquenessWitness,
    WitnessNotFoundError,
    bfs_distances,
)

INF = float("inf")


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def floyd_warshall(n, edges):
    """All-pairs distances, INF where unreachable."""
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def connected(n, edges):
    return all(d != INF for d in floyd_warshall(n, edges)[0])


def diameter(n, edges):
    dist = floyd_warshall(n, edges)
    return max(max(row) for row in dist)


def slice_members(n, edges, v, dist=None):
    """{u : mean over neighbors w of d(w,v) < d(u,v)}, via Fraction."""
    adj = adjacency(n, edges)
    dist = dist if dist is not None else floyd_warshall(n, edges)
    out = set()
    for u in range(n):
        if not adj[u]:
            continue
        avg = Fraction(sum(dist[w][v] for w in adj[u]), len(adj[u]))
        if avg < dist[u][v]:
            out.add(u)
    return out


def boundary(n, edges):
    dist = floyd_warshall(n, edges)
    out = set()
    for v in range(n):
        out |= slice_members(n, edges, v, dist)
    return out


def cejz(n, edges):
    """Chartrand-Erwin-Johns-Zhang boundary via the literal definition."""
    if n == 1:
        return set()
    adj = adjacency(n, edges)
    dist = floyd_warshall(n, edges)
    out = set()
    for u in range(n):
        for v in range(n):
            if all(dist[w][v] <= dist[u][v] for w in adj[u]):
                out.add(u)
                break
    return out


def laplacian_positive(n, edges, v):
    """{u : (L f_v)(u) > 0} with L = D - A as explicit numpy matrices."""
    A = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        A[a, b] = 1
        A[b, a] = 1
    D = np.diag(A.sum(axis=1))
    L = D - A
    dist = floyd_warshall(n, edges)
    f = np.array([dist[w][v] for w in range(n)], dtype=np.int64)
    return set(np.nonzero(L @ f > 0)[0].tolist())


def leaves(n, edges):
    adj = adjacency(n, edges)
    return {u for u in range(n) if len(adj[u]) == 1}


# canonical edge lists for small fixtures

def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(k):
    return [(0, i) for i in range(1, k + 1)]


def grid_edges(rows, cols):
    """Row-major ids; returns (n, edges)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return rows * cols, edges


# --- per-source references on a Graph ---

def boundary_slice(g: Graph, dist: Sequence[int]) -> frozenset[int]:
    """Members u with  sum_{w ~ u} d(w, v) < deg(u) * d(u, v)  for the distance row of v."""
    dist = [int(x) for x in dist]  # Python ints: sums over a numpy row would wrap in its dtype
    members = []
    for u, nbrs in enumerate(g.adjacency):
        s = 0
        for w in nbrs:
            s += dist[w]
        d = len(nbrs) * dist[u]
        if s < d:
            members.append(u)
    return frozenset(members)


def laplacian_matrix(g: Graph) -> np.ndarray:
    """L = D - A as an int64 matrix (degree matrix minus adjacency matrix)."""
    indptr, indices = g.csr
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[np.arange(g.n).repeat(indptr[1:] - indptr[:-1]), indices] = 1
    return np.diag(a.sum(axis=1)) - a


def laplacian_slice(g: Graph, dist: Sequence[int], lap: np.ndarray | None = None) -> frozenset[int]:
    """{u : (L f_v)(u) > 0} computed literally through the matrix route.

    Cross-check for :func:`boundary_slice`: the two must agree on every
    input, since (L f_v)(u) = deg(u) d(u, v) - sum_{w ~ u} d(w, v).
    Pass a precomputed ``lap`` when checking many sources on one graph.
    """
    if lap is None:
        lap = laplacian_matrix(g)
    f = np.asarray(dist, dtype=np.int64)
    return frozenset(int(u) for u in np.nonzero(lap @ f > 0)[0])


def cejz_boundary(g: Graph) -> frozenset[int]:
    """CEJZ boundary, read off the package's ``boundary()`` report."""
    return frozenset(graphboundary.boundary(g).cejz_boundary)


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers A_0..A_ell from a source, with inter-layer edge counts.

    ``cross_edges[i-1]`` is |E(A_{i-1}, A_i)| for 1 <= i <= ell.
    ``slice_per_layer[i]`` counts members of the source's boundary slice
    inside A_i, for 0 <= i <= ell.
    """

    source: int
    ell: int
    layers: tuple[tuple[int, ...], ...]
    cross_edges: tuple[int, ...]
    slice_per_layer: tuple[int, ...]


def layer_decompose(g: Graph, v0: int, dist: Sequence[int] | None = None,
                    members: Iterable[int] | None = None) -> LayerDecomposition:
    """Decompose the connected graph into distance layers from v0.

    Pass ``dist`` (a distance row of v0) and ``members`` (v0's slice) to
    skip the BFS and the slice evaluation; the result is the same.
    """
    if dist is None:
        dist = bfs_distances(g, v0)
    if members is None:
        members = boundary_slice(g, dist)
    ell = max(dist)
    layer_lists: list[list[int]] = [[] for _ in range(ell + 1)]
    for u, d in enumerate(dist):
        layer_lists[d].append(u)
    cross = [0] * ell
    for nbrs, du in zip(g.adjacency, dist):
        # BFS layers differ by at most 1: count each cross edge at its outer end
        inner = 0
        for w in nbrs:
            if dist[w] < du:
                inner += 1
        if inner:
            cross[du - 1] += inner
    per_layer = [0] * (ell + 1)
    for u in members:
        per_layer[dist[u]] += 1
    return LayerDecomposition(
        source=v0,
        ell=ell,
        layers=tuple(map(tuple, layer_lists)),  # filled in increasing vertex id
        cross_edges=tuple(cross),
        slice_per_layer=tuple(per_layer),
    )


def check_dichotomy(ld: LayerDecomposition, delta: int) -> list[bool]:
    """Verify the per-layer edge/boundary dichotomy of the decomposition.

    For 1 <= i <= ell - 1:
        |E(A_{i-1}, A_i)| <= |E(A_i, A_{i+1})| + delta * |slice ∩ A_i|
    and for the last layer:
        |E(A_{ell-1}, A_ell)| <= delta * |A_ell|  with  A_ell ⊆ slice.

    These hold for every connected graph; a failure raises
    InvariantViolation naming the offending layer, because it can only
    mean a bug.
    """
    ell = ld.ell
    passes = []
    for i in range(1, ell):
        ok = ld.cross_edges[i - 1] <= ld.cross_edges[i] + delta * ld.slice_per_layer[i]
        if not ok:
            raise InvariantViolation(f"dichotomy failed at layer {i} (source {ld.source})")
        passes.append(ok)
    if ell >= 1:
        last = len(ld.layers[ell])
        if ld.slice_per_layer[ell] != last:
            raise InvariantViolation(
                f"outermost layer not fully in the slice (source {ld.source})"
            )
        if ld.cross_edges[ell - 1] > delta * last:
            raise InvariantViolation(
                f"too many edges into the outermost layer (source {ld.source})"
            )
        passes.append(True)
    return passes


# --- per-vertex witness search of Proposition 4 ---

def witness_search(
    u: int,
    certifiers: list[int],
    axis_pairs: list[tuple[int, int]],
    nbrs: tuple[int, ...],
    dm: np.ndarray,
    collect_all: bool,
) -> list[NonUniquenessWitness]:
    """Antipodal-descent witnesses first, equal-distance ties second."""
    found = []
    for v in certifiers:
        du = dm[u, v]
        for axis, (a, b) in enumerate(axis_pairs):
            if dm[a, v] == du - 1 and dm[b, v] == du - 1:
                found.append(
                    NonUniquenessWitness(u, v, CASE_ANTIPODAL_DESCENT, (a, b), axis)
                )
                if not collect_all:
                    return found
    for v in certifiers:
        du = dm[u, v]
        for w in nbrs:
            if dm[w, v] == du:
                found.append(NonUniquenessWitness(u, v, CASE_EQUAL_DISTANCE, (w,)))
                if not collect_all:
                    return found
    return found


def classify_prop4(
    gg: GridGraph,
    report: BoundaryReport,
    all_witnesses: bool = False,
) -> list[tuple[int, NonUniquenessWitness]]:
    """The (vertex, witness) pairs of every full-degree boundary vertex, one vertex at a time."""
    g = gg.graph
    dm = report.distances
    index = {c: vid for vid, c in enumerate(gg.coordinates)}
    full = 2 * gg.dimension
    out = []
    for u in report.boundary:
        if g.degree(u) != full:
            continue
        cu = gg.coordinates[u]
        pairs = []
        for axis in range(gg.dimension):
            plus = list(cu)
            plus[axis] += 1
            minus = list(cu)
            minus[axis] -= 1
            pairs.append((index[tuple(plus)], index[tuple(minus)]))
        hits = witness_search(u, report.certifiers(u), pairs, g.adjacency[u], dm, all_witnesses)
        if not hits:
            raise WitnessNotFoundError(f"no witness for full-degree boundary vertex {u}")
        out.extend((u, h) for h in hits)
    return out


def classify_cycle(
    g: Graph,
    report: BoundaryReport,
    all_witnesses: bool = False,
) -> list[tuple[int, NonUniquenessWitness]]:
    """The (vertex, witness) pairs of every boundary vertex of a cycle: its two neighbors are
    its one axis."""
    if g.n < 3 or any(len(a) != 2 for a in g.adjacency):
        raise ValueError("not a cycle graph")
    dm = report.distances
    out = []
    for u in report.boundary:
        nbrs = g.adjacency[u]
        hits = witness_search(u, report.certifiers(u), [nbrs], nbrs, dm, all_witnesses)
        if not hits:
            raise WitnessNotFoundError(f"no witness for cycle vertex {u}")
        out.extend((u, h) for h in hits)
    return out
