import json

import pytest

import oracle
from graphboundary import (
    DisconnectedError,
    MissingSlicesError,
    bfs_distances,
    boundary,
    boundary_slice,
    cejz_boundary,
    laplacian_matrix,
    laplacian_slice,
    report_to_dict,
    validate,
)
from graphboundary.generators import complete, cycle, grid, path, random_tree, star


def members(g, source):
    return boundary_slice(g, bfs_distances(g, source)).members


def test_slice_path3_from_endpoint():
    g = path(3)
    df = bfs_distances(g, 0)
    sl = boundary_slice(g, df)
    assert sl.members == {2}
    # the middle vertex ties exactly: S = 0 + 2 = 2 = deg * dist
    assert (df.dist[0] + df.dist[2], 2 * df.dist[1]) == (2, 2)
    assert 1 not in sl.members
    # the far end is strict: S = 1 < 2 = deg * dist
    assert (df.dist[1], 1 * df.dist[2]) == (1, 2)


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
    rep = boundary(g, include_slices=True)
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
        df = bfs_distances(g, v)
        assert laplacian_slice(g, df, lap) == boundary_slice(g, df).members


def test_report_json_schema():
    rep = boundary(grid(3, 3).graph, include_slices=True)
    doc = report_to_dict(rep, include_slices=True)
    assert list(doc) == [
        "n", "m", "max_degree", "diameter",
        "boundary", "cejz_boundary", "witness", "slices",
    ]
    assert doc["n"] == 9 and doc["m"] == 12
    assert doc["cejz_boundary"] == [0, 2, 6, 8]
    assert set(doc["witness"]) == {str(u) for u in doc["boundary"]}
    json.dumps(doc)  # serializable as-is


def test_report_without_slices_rejects_slice_dump():
    rep = boundary(path(3))
    with pytest.raises(MissingSlicesError, match="without slices"):
        report_to_dict(rep, include_slices=True)


def test_boundary_thread_count_invariant():
    g = grid(9, 9).graph
    a = boundary(g, include_slices=True, threads=1)
    b = boundary(g, include_slices=True, threads=4)
    assert a == b
