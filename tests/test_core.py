import tracemalloc
from itertools import combinations

import pytest

import oracle
from graphboundary import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    GraphError,
    SelfLoopError,
    VertexOutOfRangeError,
    bfs_distances,
    distance_matrix,
    format_edge_list,
    is_connected,
    is_path_graph,
    parse_edge_list,
    validate,
)
from graphboundary import boundary, core
from graphboundary.generators import complete, cycle, grid, path, star


def test_validate_smallest_connected_graph():
    g = validate([(0, 1)], 2)
    assert g.n == 2 and g.m == 1
    assert g.adjacency == ((1,), (0,))


def test_validate_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        validate([(0, 0)], 1)


def test_validate_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        validate([(0, 1), (1, 0)], 2)


def test_validate_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        validate([(0, 2)], 2)
    with pytest.raises(VertexOutOfRangeError):
        validate([], 0)


def test_validate_refuses_more_than_max_vertices():
    # refused before any adjacency list exists: 32 768 empty lists would take over 1 MiB
    tracemalloc.start()
    try:
        with pytest.raises(VertexOutOfRangeError, match=f"n <= {core.MAX_VERTICES}, got "):
            validate([], core.MAX_VERTICES + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_validate_refuses_more_than_max_edges(monkeypatch):
    edges = list(combinations(range(5), 2))  # the 10 edges of K_5
    monkeypatch.setattr(core, "MAX_EDGES", 9)
    with pytest.raises(GraphError, match="10 edges, more than 9"):
        validate(edges, 5)
    assert validate(edges[:9], 5).m == 9


def test_bfs_path_distances():
    assert bfs_distances(path(3), 0) == (0, 1, 2)


def test_bfs_cycle_distances():
    assert bfs_distances(cycle(4), 0) == (0, 1, 2, 1)


def test_bfs_grid_corner_matches_floyd_warshall():
    gg = grid(3, 3)
    dist = bfs_distances(gg.graph, 0)
    assert max(dist) == 4
    fw = oracle.floyd_warshall(gg.graph.n, list(gg.graph.edges()))
    assert dist == tuple(fw[0])


def test_bfs_raises_on_disconnected():
    g = validate([(0, 1), (2, 3)], 4)
    with pytest.raises(DisconnectedError):
        bfs_distances(g, 0)


def test_bfs_rejects_bad_source():
    with pytest.raises(VertexOutOfRangeError):
        bfs_distances(path(3), 3)


@pytest.mark.parametrize("n", [2, 3, 7, 11])
def test_diameter_path(n):
    assert boundary(path(n)).diameter == n - 1


def test_diameter_complete():
    assert boundary(complete(5)).diameter == 1


def test_diameter_grid_matches_brute_force():
    gg = grid(5, 5)
    assert boundary(gg.graph).diameter == 8
    assert boundary(gg.graph).diameter == oracle.diameter(gg.graph.n, list(gg.graph.edges()))


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 2), (7, 3), (8, 4)])
def test_diameter_cycle(n, expected):
    assert boundary(cycle(n)).diameter == expected


def test_is_connected():
    assert is_connected(validate([], 1))
    assert not is_connected(validate([(0, 1), (2, 3)], 4))
    # seeded sparse graph, cross-checked by reachability on the raw edges
    from graphboundary import erdos_renyi

    g = erdos_renyi(20, 0.05, 1)
    assert g.m == 11  # frozen from the seeded stream
    assert is_connected(g) == oracle.connected(g.n, list(g.edges())) == False


def test_is_path_graph():
    assert is_path_graph(path(7))
    assert is_path_graph(path(1))
    assert is_path_graph(path(2))
    assert not is_path_graph(cycle(7))
    assert not is_path_graph(star(3))


def test_distance_matrix_symmetric_zero_diagonal():
    dm = distance_matrix(grid(4, 3).graph)
    assert (dm == dm.T).all()
    assert (dm.diagonal() == 0).all()
    assert dm.max() == oracle.diameter(12, list(grid(4, 3).graph.edges()))


# --- edge-list text format ---

def test_edge_list_round_trip():
    g = grid(3, 4).graph
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_whitespace():
    g = parse_edge_list("# a path\n3 2\n0 1\n\n# middle comment\n1 2\n")
    assert g == path(3)


def test_edge_list_format_exact():
    assert format_edge_list(path(2)) == "2 1\n0 1\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0 1\n",
        "2 2\n0 1\n",
        "2 1\n0 1 2\n",
        "x y\n",
        "2 1\na b\n",
    ],
)
def test_edge_list_parse_errors(text):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(text)
