"""The preorder row recurrence behind ``distance_matrix`` on trees, called
directly so that trees below the route threshold are covered too, against
``bfs_distances`` and the Floyd-Warshall oracle; the disconnected input with
m = n - 1; and the bound on the kernel's scratch memory."""

import tracemalloc
from heapq import heapify, heappop, heappush
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from graphboundary import DisconnectedError, distance_matrix, enumerate_connected, validate
from graphboundary import core
from graphboundary.core import _tree_distances, bfs_distances
from graphboundary.generators import path, random_tree, star


def spider(legs, length):
    """Vertex 0 with ``legs`` paths of ``length`` vertices hanging off it."""
    return validate([(0 if j == 0 else 1 + k * length + j - 1, 1 + k * length + j)
                     for k in range(legs) for j in range(length)], 1 + legs * length)


def caterpillar(spine, leaves):
    """A path 0..spine-1 with ``leaves`` pendant vertices on each spine vertex."""
    legs = [(u, spine + u * leaves + j) for u in range(spine) for j in range(leaves)]
    return validate([(u, u + 1) for u in range(spine - 1)] + legs, spine * (leaves + 1))


def broom(handle, bristles):
    """A path 0..handle-1 whose last vertex carries ``bristles`` leaves."""
    return validate([(u, u + 1) for u in range(handle - 1)]
                    + [(handle - 1, handle + j) for j in range(bristles)], handle + bristles)


def binary(n):
    """The heap-ordered binary tree: the parent of v is (v - 1) // 2."""
    return validate([((v - 1) // 2, v) for v in range(1, n)], n)


def pruefer_tree(n, code):
    """The labeled tree on n >= 2 vertices with Pruefer sequence ``code`` (length n - 2)."""
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapify(leaves)
    edges = []
    for x in code:
        edges.append((heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return validate(edges, n)


def relabeled(g, perm):
    return validate([(perm[u], perm[w]) for u, w in g.edges()], g.n)


def assert_tree_route_exact(g, floyd_warshall=True):
    out = _tree_distances(g, bfs_distances(g, 0))
    assert out.dtype == np.int16 and out.shape == (g.n, g.n)
    assert out.tolist() == [list(bfs_distances(g, v)) for v in range(g.n)]
    if floyd_warshall:
        assert out.tolist() == oracle.floyd_warshall(g.n, list(g.edges()))


def test_tree_route_on_all_labeled_trees_up_to_6():
    count = 0
    for g in enumerate_connected(6):
        if g.m == g.n - 1:
            assert_tree_route_exact(g)
            count += 1
    assert count == 1442  # sum of n ** (n - 2) over n = 1..6


WORD_SIZES = [63, 64, 65, 127, 128, 129]

pruefer_trees = st.one_of(st.integers(2, 200), st.sampled_from(WORD_SIZES)).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    .map(lambda code: pruefer_tree(n, code))
)


@settings(max_examples=60, deadline=None)
@given(pruefer_trees)
def test_tree_route_on_hypothesis_trees(g):
    # Floyd-Warshall is cubic in pure Python, so the oracle checks the smaller trees
    assert_tree_route_exact(g, floyd_warshall=g.n <= 70)


@pytest.mark.parametrize("n", WORD_SIZES)
def test_tree_route_at_word_boundaries(n):
    for g in (path(n), random_tree(n, n), binary(n)):
        assert g.n == n
        assert_tree_route_exact(g)


SHAPES = {
    "K2": path(2),
    "path3": path(3),
    "path200": path(200),
    "star1": star(1),
    "star2": star(2),
    "star200": star(200),
    "broom10+50": broom(10, 50),
    "broom1+5": broom(1, 5),
    "spider5x12": spider(5, 12),
    "spider20x3": spider(20, 3),
    "caterpillar20x3": caterpillar(20, 3),
    "caterpillar1x4": caterpillar(1, 4),
    "binary2": binary(2),
    "binary127": binary(127),
    "binary200": binary(200),
}


@pytest.mark.parametrize("g", SHAPES.values(), ids=SHAPES.keys())
def test_tree_route_on_tree_shapes(g):
    assert_tree_route_exact(g, floyd_warshall=g.n <= 130)
    # the same tree with vertex 0 moved elsewhere changes the preorder
    perm = list(range(1, g.n)) + [0]
    assert_tree_route_exact(relabeled(g, perm), floyd_warshall=False)


def test_tree_route_scratch_is_one_block_of_rows():
    g = path(2000)
    row0 = bfs_distances(g, 0)
    tracemalloc.start()
    try:
        out = _tree_distances(g, row0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a permuted copy of the matrix would cost out.nbytes; one block of rows costs 128 KB here
    assert peak - out.nbytes < out.nbytes / 8


def test_disconnected_input_with_tree_edge_count_raises_the_probe_text():
    # a triangle plus a disjoint path of 61 vertices: n = 64 and m = 63 = n - 1
    g = validate([(0, 1), (1, 2), (0, 2)] + [(u, u + 1) for u in range(3, 63)], 64)
    assert (g.n, g.m) == (64, 63)
    with pytest.raises(DisconnectedError) as probe:
        bfs_distances(g, 0)
    with mock.patch.object(core, "_tree_distances", wraps=_tree_distances) as kernel, \
            pytest.raises(DisconnectedError) as route:
        distance_matrix(g)
    assert str(route.value) == str(probe.value) == \
        "graph is disconnected: 61 of 64 vertices unreachable from 0"
    assert kernel.call_count == 0
