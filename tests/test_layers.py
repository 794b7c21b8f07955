from fractions import Fraction

import pytest

import oracle
from graphboundary import (
    SingleVertexError,
    check_dichotomy,
    check_mps,
    check_theorem1,
    check_theorem2,
    inequality_report,
    layer_decompose,
    slice_overlap_stats,
    sweep_rows,
    theorem2_bound,
    validate,
)
from graphboundary.generators import complete, cycle, grid, path, star
from graphboundary.layers import SWEEP_COLUMNS


def sizes(ld):
    return [len(layer) for layer in ld.layers]


def test_layers_path_from_endpoint():
    ld = layer_decompose(path(4), 0)
    assert sizes(ld) == [1, 1, 1, 1]
    assert ld.cross_edges == (1, 1, 1)
    assert ld.ell == 3


def test_layers_complete_graph():
    ld = layer_decompose(complete(4), 0)
    assert sizes(ld) == [1, 3]
    assert ld.cross_edges == (3,)


def test_layers_grid_corner_diagonals():
    ld = layer_decompose(grid(4, 4).graph, 0)
    assert sizes(ld) == [1, 2, 3, 4, 3, 2, 1]


def test_layers_partition_and_origin():
    g = grid(3, 4).graph
    for v in range(g.n):
        ld = layer_decompose(g, v)
        assert ld.layers[0] == (v,)
        assert sorted(u for layer in ld.layers for u in layer) == list(range(g.n))
        assert all(a < b for layer in ld.layers for a, b in zip(layer, layer[1:]))


def test_cross_edges_at_least_layer_size():
    for g in (path(6), cycle(8), grid(4, 4).graph, star(5)):
        for v in range(g.n):
            ld = layer_decompose(g, v)
            for i in range(1, ld.ell + 1):
                assert ld.cross_edges[i - 1] >= len(ld.layers[i])


def test_dichotomy_path_tight_interior():
    g = path(5)
    ld = layer_decompose(g, 0)
    assert ld.cross_edges == (1, 1, 1, 1)
    # interior layers: 1 <= 1 + 2*0, exactly tight
    assert ld.slice_per_layer == (0, 0, 0, 0, 1)
    assert check_dichotomy(ld, 2) == [True] * 4


def test_dichotomy_star_from_leaf():
    ld = layer_decompose(star(6), 1)
    assert sizes(ld) == [1, 1, 5]
    assert check_dichotomy(ld, 6) == [True, True]


def test_dichotomy_passes_everywhere():
    for g in (cycle(9), grid(4, 5).graph, complete(6), star(7)):
        delta = g.max_degree
        for v in range(g.n):
            assert all(check_dichotomy(layer_decompose(g, v), delta))


def test_theorem1_path10():
    entry = check_theorem1(path(10))
    assert entry.observed == 2
    assert entry.bound == Fraction(10, 36)
    assert entry.margin == 2 - Fraction(10, 36)
    assert entry.passed


def test_theorem1_grid10():
    entry = check_theorem1(grid(10, 10).graph)
    assert entry.observed == 36  # brute-forced rim count
    assert entry.bound == Fraction(100, 144)
    assert entry.passed


def test_theorem1_complete5():
    entry = check_theorem1(complete(5))
    assert entry.observed == 5
    assert entry.bound == Fraction(5, 8)
    assert entry.passed


def test_theorem1_single_vertex_rejected():
    with pytest.raises(SingleVertexError):
        check_theorem1(validate([], 1))


def test_theorem2_path_endpoint():
    # slice from an endpoint holds exactly the far endpoint
    for n in (3, 6, 11):
        entry = check_theorem2(path(n), 0)
        assert entry.observed == 1
        assert entry.bound == Fraction(n - 1, 4 * (n - 2) + 1)
        assert entry.passed


def test_theorem2_cycle6():
    entry = check_theorem2(cycle(6), 0)
    assert entry.observed == 1  # just the antipode
    assert entry.bound == Fraction(5, 9)
    assert entry.passed


def test_theorem2_grid_center():
    entry = check_theorem2(grid(5, 5).graph, 12)
    assert entry.bound == Fraction(24, 57)
    assert entry.observed == 12  # frozen from brute force
    assert entry.observed == len(
        oracle.slice_members(25, oracle.grid_edges(5, 5)[1], 12)
    )


def test_theorem2_complete_graph_tight():
    # diam = 1 collapses the denominator: bound = n - 1, met with equality
    for n in (2, 4, 7):
        g = complete(n)
        assert theorem2_bound(n, n - 1, 1) == n - 1
        for v in range(n):
            entry = check_theorem2(g, v)
            assert entry.observed == n - 1
            assert entry.margin == 0


@pytest.mark.parametrize(
    "g,cejz_size,delta",
    [(complete(4), 4, 3), (star(8), 8, 8), (path(2), 2, 1)],
    ids=["K4", "K18", "P2"],
)
def test_mps_examples(g, cejz_size, delta):
    entry = check_mps(g)
    assert entry.observed == cejz_size
    assert entry.bound == delta + 2
    assert entry.passed
    assert 2**entry.observed >= delta + 2


def test_inequality_report_fields():
    rep = inequality_report(grid(5, 5).graph)
    assert (rep.n, rep.m, rep.delta, rep.diam) == (25, 40, 4, 8)
    assert rep.boundary_size == 16 and rep.cejz_size == 4
    assert rep.min_slice_size >= 1
    assert rep.all_passed
    assert rep.mps_bound_log2 == pytest.approx(2.584962500721156)


def test_margins_are_exact_rationals():
    rep = inequality_report(cycle(7))
    for entry in (rep.theorem1, rep.theorem2_min, rep.mps):
        assert isinstance(entry.bound, Fraction)
        assert isinstance(entry.margin, Fraction)
        assert entry.bound > 0


def test_slice_overlap_stats_path():
    stats = slice_overlap_stats(path(5))
    # every source except an endpoint itself certifies that endpoint
    assert stats["boundary_size"] == 2
    assert stats["certifier_counts"] == {0: 4, 4: 4}
    assert stats["mean_certifiers"] == Fraction(4)


def test_sweep_rows_columns_and_checks():
    rows = sweep_rows("grid", "5,5", grid(5, 5).graph)
    assert [r["check"] for r in rows] == ["theorem1", "theorem2", "mps"]
    for row in rows:
        assert list(row) == list(SWEEP_COLUMNS)
        assert row["pass"] is True
