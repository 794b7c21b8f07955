"""Independent brute-force oracles used to freeze expected test values.

Everything here works on a raw (n, edges) pair and stays deliberately
separate from the package code paths: distances come from Floyd-Warshall
instead of BFS, the boundary criteria are evaluated with fractions.Fraction
averages instead of integer cross-multiplication, and the Laplacian route
goes through an explicit numpy matrix product.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

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

def slice_witnesses(n, edges, v, dist=None):
    """{u: (S, D)} over the slice of v: S = sum of neighbor distances, D = deg(u) * d(u, v)."""
    adj = adjacency(n, edges)
    dist = dist if dist is not None else floyd_warshall(n, edges)
    return {
        u: (sum(dist[w][v] for w in adj[u]), len(adj[u]) * dist[u][v])
        for u in slice_members(n, edges, v, dist)
    }


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
