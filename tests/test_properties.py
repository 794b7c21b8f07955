"""Property tests: the theorem-level invariants over randomized graph corpora."""

from itertools import combinations

import hypothesis.strategies as st
from hypothesis import assume, given, settings

import oracle
from oracle import boundary_slice, cejz_boundary, check_dichotomy, laplacian_matrix, laplacian_slice, layer_decompose
from graphboundary import (
    bfs_distances,
    boundary,
    check_mps,
    check_theorem1,
    check_theorem2,
    distance_matrix,
    erdos_renyi,
    is_connected,
    is_path_graph,
    random_tree,
    validate,
)


@st.composite
def connected_graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    g = validate([pairs[i] for i in range(len(pairs)) if mask >> i & 1], n)
    assume(is_connected(g))
    return g


@given(connected_graphs())
def test_distance_field_invariants(g):
    for v in range(g.n):
        dist = bfs_distances(g, v)
        assert dist[v] == 0
        for u, w in g.edges():
            assert abs(dist[u] - dist[w]) <= 1
        for u in range(g.n):
            if u != v:
                assert any(dist[w] == dist[u] - 1 for w in g.adjacency[u])


@given(connected_graphs(max_n=7))
def test_bfs_agrees_with_floyd_warshall(g):
    fw = oracle.floyd_warshall(g.n, list(g.edges()))
    for v in range(g.n):
        assert bfs_distances(g, v) == tuple(fw[v])


@settings(max_examples=150)
@given(connected_graphs())
def test_laplacian_route_equals_sum_route(g):
    lap = laplacian_matrix(g)
    for v in range(g.n):
        dist = bfs_distances(g, v)
        assert laplacian_slice(g, dist, lap) == boundary_slice(g, dist)


@settings(max_examples=150)
@given(connected_graphs())
def test_inclusion_of_cejz_in_boundary(g):
    rep = boundary(g)
    assert set(rep.cejz_boundary) <= set(rep.boundary)
    assert cejz_boundary(g) == set(rep.cejz_boundary)


@given(connected_graphs())
def test_degree_one_vertices_are_boundary(g):
    rep = boundary(g)
    for u in range(g.n):
        if g.degree(u) == 1:
            assert u in rep.boundary


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=999))
def test_tree_boundary_is_exactly_the_leaves(n, seed):
    g = random_tree(n, seed)
    leaves = {u for u in range(n) if g.degree(u) == 1}
    rep = boundary(g)
    assert set(rep.boundary) == leaves
    assert set(rep.cejz_boundary) == leaves


@given(connected_graphs())
def test_at_least_two_boundary_vertices_and_path_characterization(g):
    rep = boundary(g)
    assert len(rep.boundary) >= 2
    if len(rep.boundary) == 2:
        assert is_path_graph(g)


@given(connected_graphs())
def test_diameter_pair_lands_in_both_boundaries(g):
    dm = distance_matrix(g)
    diam = int(dm.max())
    rep = boundary(g)
    for u in range(g.n):
        for w in range(g.n):
            if dm[u, w] == diam:
                assert u in rep.boundary and w in rep.boundary
                assert u in rep.cejz_boundary and w in rep.cejz_boundary


@given(connected_graphs())
def test_source_never_in_its_own_slice(g):
    rep = boundary(g)
    for sl in rep.slices:
        assert sl.source not in sl.members
        dist = rep.distances[sl.source].tolist()
        for u, nbrs in enumerate(g.adjacency):
            s = sum(dist[w] for w in nbrs)
            d = len(nbrs) * dist[u]
            assert (s < d) == (u in sl.members)


@given(connected_graphs())
def test_boundary_is_union_of_slices(g):
    rep = boundary(g)
    union = set()
    for sl in rep.slices:
        union |= sl.members
    assert union == set(rep.boundary)


@settings(max_examples=120)
@given(connected_graphs())
def test_layer_invariants(g):
    for v0 in range(g.n):
        ld = layer_decompose(g, v0)
        dist = bfs_distances(g, v0)
        members = boundary_slice(g, dist)
        assert ld.layers[0] == (v0,)
        assert sorted(u for layer in ld.layers for u in layer) == list(range(g.n))
        for i in range(1, ld.ell + 1):
            layer = ld.layers[i]
            assert ld.cross_edges[i - 1] >= len(layer)
            for u in layer:
                assert any(dist[w] == i - 1 for w in g.adjacency[u])
        # no neighbor deeper: forced into the slice (outermost layer included)
        for u in range(g.n):
            if all(dist[w] <= dist[u] for w in g.adjacency[u]):
                assert u in members
        assert set(ld.layers[ld.ell]) <= members


@settings(max_examples=120)
@given(connected_graphs())
def test_inequalities_hold_everywhere(g):
    rep = boundary(g)
    assert check_theorem1(g, rep).passed
    assert check_mps(g, rep).passed
    delta = g.max_degree
    for v in range(g.n):
        assert check_theorem2(g, v, rep).passed
        assert all(check_dichotomy(layer_decompose(g, v), delta))


@given(connected_graphs(max_n=8))
def test_distance_matrix_triangle_inequality(g):
    dm = distance_matrix(g)
    assert (dm == dm.T).all()
    assert (dm.diagonal() == 0).all()
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                assert dm[u, w] <= dm[u, v] + dm[v, w]


@given(
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=99),
)
def test_erdos_renyi_deterministic_in_seed(n, p, seed):
    assert erdos_renyi(n, p, seed) == erdos_renyi(n, p, seed)
