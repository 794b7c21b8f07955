"""The bit-parallel all-sources BFS behind ``distance_matrix``, called directly
so that graphs below the route threshold are covered too, against
``bfs_distances`` and the Floyd-Warshall oracle; the route rule on the
bench shapes for all three routes; the disconnected-input message on
both BFS routes; and the bound on the kernel's scratch memory."""

import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from test_distance_pass import graphs_and_long_paths
from test_tree_distances import binary, caterpillar, spider
from graphboundary import (
    DisconnectedError,
    DomainSpec,
    distance_matrix,
    enumerate_connected,
    lattice_discretize,
    validate,
)
from graphboundary import core
from graphboundary.core import (
    _bit_distances,
    _tree_distances,
    bfs_distances,
    takes_bit_route,
    takes_tree_route,
)
from graphboundary.generators import complete, cycle, erdos_renyi, grid, path, random_tree, star


def assert_bit_route_exact(g):
    bits = _bit_distances(g)
    assert bits.dtype == np.int16 and bits.shape == (g.n, g.n)
    assert bits.tolist() == [list(bfs_distances(g, v)) for v in range(g.n)]
    assert bits.tolist() == oracle.floyd_warshall(g.n, list(g.edges()))


def connected_gnp(n, p, seed=0):
    while not core.is_connected(g := erdos_renyi(n, p, seed)):
        seed += 1
    return g


def test_bit_route_on_all_small_graphs():
    count = 0
    for g in enumerate_connected(5):
        assert_bit_route_exact(g)
        count += 1
    assert count == 772


@settings(max_examples=150)
@given(graphs_and_long_paths)
def test_bit_route_on_hypothesis_graphs(g):
    assert_bit_route_exact(g)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_bit_route_at_word_boundaries(n):
    # the last word is full at 64 and 128 and holds one source at 65 and 129
    for g in (cycle(n), random_tree(n, n), connected_gnp(n, 0.08)):
        assert g.n == n
        assert_bit_route_exact(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 200])
def test_bit_route_counter_planes(n):
    # diameter n - 1 needs bit_length(n - 1) planes: 1 at n = 2, 8 at n = 129..200
    g = path(n)
    assert int(_bit_distances(g).max()).bit_length() == (n - 1).bit_length()
    assert_bit_route_exact(g)


@pytest.mark.parametrize("g", [star(1), star(2), star(63), star(64), star(200),
                               complete(1), complete(3), complete(64), complete(65)],
                         ids=["K2", "star2", "star63", "star64", "star200",
                              "K1", "K3", "K64", "K65"])
def test_bit_route_on_stars_and_complete_graphs(g):
    assert_bit_route_exact(g)


def disconnected_graphs():
    yield validate([], 2)
    yield validate([(1, 2)], 3)  # isolated vertex 0
    yield validate([(0, 1)], 3)  # isolated last vertex
    yield validate([(u, u + 1) for u in range(69)] + [(u, u + 1) for u in range(70, 139)], 140)
    yield validate([(0, w) for w in range(1, 100)], 130)


@pytest.mark.parametrize("g", list(disconnected_graphs()),
                         ids=["2K1", "K1+K2", "K2+K1", "two_paths", "star_plus_isolated"])
def test_disconnected_input_raises_the_same_text_on_both_routes(g):
    with pytest.raises(DisconnectedError) as probe:
        bfs_distances(g, 0)
    with pytest.raises(DisconnectedError) as python_route:
        distance_matrix(g)
    with pytest.raises(DisconnectedError) as bit_route:
        _bit_distances(g)
    assert str(python_route.value) == str(bit_route.value) == str(probe.value)


@given(st.integers(2, 12), st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
def test_bit_route_raises_exactly_when_disconnected(n, pairs):
    g = validate({(min(e), max(e)) for e in pairs if max(e) < n and e[0] != e[1]}, n)
    try:
        expected = distance_matrix(g)
    except DisconnectedError as exc:
        with pytest.raises(DisconnectedError) as bit_route:
            _bit_distances(g)
        assert str(bit_route.value) == str(exc)
    else:
        assert (_bit_distances(g) == expected).all()


def route_of(g):
    """The route ``distance_matrix`` takes on the connected g: "tree", "bits" or "python"."""
    ecc0 = max(bfs_distances(g, 0))
    if takes_tree_route(g, ecc0):
        assert not takes_bit_route(g, ecc0)
        return "tree"
    return "bits" if takes_bit_route(g, ecc0) else "python"


def test_route_rule_on_the_bench_shapes():
    annulus = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.1)).graph
    # deep trees take the row recurrence
    for g in (path(600), path(2000), random_tree(600, 1), random_tree(2000, 1),
              caterpillar(200, 2), spider(20, 30)):
        assert route_of(g) == "tree", g.n
    # low diameter takes bits, shallow bushy trees included
    for g in (annulus, connected_gnp(400, 0.02), grid(40, 40).graph, grid(60, 60).graph,
              star(599), star(2000), spider(100, 6), binary(600), complete(64)):
        assert route_of(g) == "bits", g.n
    # long cycles, and everything below one full word, keep the Python BFS
    for g in (cycle(2000), path(63), star(62), complete(63)):
        assert route_of(g) == "python", g.n
    assert {route_of(g) for g in enumerate_connected(5)} == {"python"}


def test_distance_matrix_runs_the_chosen_route():
    for g, route in ((grid(8, 8).graph, "bits"), (star(63), "bits"), (grid(7, 9).graph, "python"),
                     (cycle(600), "python"), (path(63), "python"), (path(600), "tree"),
                     (random_tree(600, 1), "tree")):
        with mock.patch.object(core, "_bit_distances", wraps=_bit_distances) as bits, \
                mock.patch.object(core, "_tree_distances", wraps=_tree_distances) as tree, \
                mock.patch.object(core, "bfs_distances", wraps=bfs_distances) as bfs:
            dm = distance_matrix(g)
        assert (bits.call_count, tree.call_count) == (route == "bits", route == "tree"), g.n
        assert bfs.call_count == (g.n if route == "python" else 1)  # the probe, then one per source
        assert dm.dtype == np.int16 and not dm.flags.writeable
        assert dm.tolist() == [list(bfs_distances(g, v)) for v in range(g.n)]


@pytest.mark.parametrize("g", [complete(400), erdos_renyi(400, 0.5, 0)], ids=["K400", "G400_half"])
def test_bit_route_scratch_stays_within_one_matrix(g):
    words = -(-g.n // 64)
    csr = 2 * g.m * np.dtype(np.intp).itemsize  # the neighbor index array
    tracemalloc.start()
    try:
        out = _bit_distances(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes - csr <= out.nbytes
    # one gather of every neighbor row at once would not fit
    assert 2 * g.m * words * 8 > 10 * out.nbytes
