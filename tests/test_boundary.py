import json
import tracemalloc

import numpy as np
import pytest

import oracle
from oracle import boundary_slice, cejz_boundary, laplacian_matrix, laplacian_slice
from graphboundary import (
    DisconnectedError,
    VertexOutOfRangeError,
    bfs_distances,
    boundary,
    report_to_dict,
    validate,
)
from graphboundary.generators import complete, cycle, grid, path, random_tree, star


def members(g, source):
    return boundary_slice(g, bfs_distances(g, source))


def test_slice_path3_from_endpoint():
    g = path(3)
    dist = bfs_distances(g, 0)
    sl = boundary_slice(g, dist)
    assert sl == {2}
    # the middle vertex ties exactly: S = 0 + 2 = 2 = deg * dist
    assert (dist[0] + dist[2], 2 * dist[1]) == (2, 2)
    assert 1 not in sl
    # the far end is strict: S = 1 < 2 = deg * dist
    assert (dist[1], 1 * dist[2]) == (1, 2)


def test_slice_of_a_distance_matrix_row_is_exact():
    # a path of 163 edges ending in a hub with 199 leaves: seen from vertex 0 the hub
    # has S = 162 + 199 * 164 = 32798 > D = 200 * 163 = 32600, past the int16 range
    g = validate([(i, i + 1) for i in range(163)] + [(163, 164 + j) for j in range(199)], 363)
    rep = boundary(g)
    assert rep.distances.dtype == np.int16
    got = boundary_slice(g, rep.distances[0])
    assert got == boundary_slice(g, bfs_distances(g, 0)) == rep.slices[0].members
    assert 163 not in got


def test_slice_star_from_leaf():
    # K_{1,4}: center 0, leaves 1..4; seen from leaf 1 the other leaves
    # are boundary, the center ties
    g = star(4)
    assert members(g, 1) == {2, 3, 4}
    assert members(g, 1) == oracle.slice_members(5, oracle.star_edges(4), 1)


def test_slice_grid_corner_frozen():
    g = grid(5, 5).graph
    got = members(g, 0)
    assert got == {9, 14, 19, 21, 22, 23, 24}  # far-side rim, from brute force
    assert got == oracle.slice_members(25, oracle.grid_edges(5, 5)[1], 0)
    # no degree-4 interior vertex appears
    assert all(g.degree(u) < 4 for u in got)


def test_slice_source_never_member():
    g = grid(4, 4).graph
    for v in range(g.n):
        assert v not in members(g, v)


def test_boundary_path_is_endpoints():
    for n in (2, 3, 9):
        rep = boundary(path(n))
        assert rep.boundary == (0, n - 1)


def test_boundary_tree_is_leaf_set():
    g = random_tree(30, 3)
    rep = boundary(g)
    assert set(rep.boundary) == {u for u in range(30) if g.degree(u) == 1}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_boundary_grid_is_rim(n):
    rep = boundary(grid(n, n).graph)
    rim = {r * n + c for r in range(n) for c in range(n)
           if r in (0, n - 1) or c in (0, n - 1)}
    assert set(rep.boundary) == rim
    assert len(rep.boundary) == 4 * n - 4


def test_boundary_raises_on_disconnected():
    with pytest.raises(DisconnectedError):
        boundary(validate([(0, 1), (2, 3)], 4))


def test_boundary_single_vertex_empty():
    rep = boundary(validate([], 1))
    assert rep.boundary == () and rep.cejz_boundary == ()


def test_witness_is_smallest_certifier():
    g = path(4)
    rep = boundary(g)
    for u, v in rep.witness.items():
        certifiers = [sl.source for sl in rep.slices if u in sl.members]
        assert v == min(certifiers)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cejz_grid_corners(n):
    got = cejz_boundary(grid(n, n).graph)
    assert got == {0, n - 1, n * (n - 1), n * n - 1}


def test_cejz_tree_leaves():
    for seed in range(4):
        g = random_tree(12, seed)
        got = cejz_boundary(g)
        assert got == {u for u in range(12) if g.degree(u) == 1}
        assert got == oracle.cejz(12, list(g.edges()))


def test_cejz_complete_graph_is_everything():
    assert cejz_boundary(complete(4)) == {0, 1, 2, 3}


def test_laplacian_slice_path3():
    g = path(3)
    assert laplacian_slice(g, bfs_distances(g, 0)) == {2}


def test_laplacian_slice_cycle5():
    g = cycle(5)
    got = laplacian_slice(g, bfs_distances(g, 0))
    assert got == {2, 3}  # the two far vertices, at distance 2
    assert got == oracle.laplacian_positive(5, oracle.cycle_edges(5), 0)


def test_laplacian_matrix_row_sums_vanish():
    lap = laplacian_matrix(grid(3, 3).graph)
    assert lap.sum(axis=1).tolist() == [0] * 9
    assert (lap.diagonal() >= 0).all()


@pytest.mark.parametrize(
    "g",
    [path(6), cycle(7), complete(5), star(5), grid(4, 5).graph, random_tree(15, 9)],
    ids=["path", "cycle", "complete", "star", "grid", "tree"],
)
def test_laplacian_slice_equals_boundary_slice(g):
    lap = laplacian_matrix(g)
    for v in range(g.n):
        dist = bfs_distances(g, v)
        assert laplacian_slice(g, dist, lap) == boundary_slice(g, dist)


def test_report_json_schema():
    rep = boundary(grid(3, 3).graph)
    doc = report_to_dict(rep, include_slices=True)
    assert list(doc) == [
        "n", "m", "max_degree", "diameter",
        "boundary", "cejz_boundary", "witness", "slices",
    ]
    assert doc["n"] == 9 and doc["m"] == 12
    assert doc["cejz_boundary"] == [0, 2, 6, 8]
    assert set(doc["witness"]) == {str(u) for u in doc["boundary"]}
    json.dumps(doc)  # serializable as-is


def test_boundary_thread_count_invariant():
    # include_slices and threads are accepted and ignored
    g = grid(9, 9).graph
    a = boundary(g, include_slices=True, threads=1)
    for b in (boundary(g, include_slices=True, threads=4), boundary(g), boundary(g, False, 2)):
        assert a == b
        assert np.array_equal(a.slice_bits, b.slice_bits)
        assert np.array_equal(a.distances, b.distances)
        assert a.slices == b.slices


def test_dense_block_pass_sums_in_int32():
    # casting the int16 neighbor gather to int64 for the sums peaked at 50.5 MiB here
    g = complete(400)
    tracemalloc.start()
    try:
        rep = boundary(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.boundary == rep.cejz_boundary == tuple(range(400))
    assert peak < 40 * 2**20


@pytest.mark.parametrize("u", [-1, 5, 6, 9])
def test_certifiers_reject_an_out_of_range_vertex(u):
    # 5 and 6 fall in the padding bits of a packed row of path 5, 9 past its one byte
    rep = boundary(path(5))
    with pytest.raises(VertexOutOfRangeError, match=f"vertex {u} outside 0..4"):
        rep.certifiers(u)
