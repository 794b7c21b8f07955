"""The shared distance pass: block-evaluated reports against the oracle,
reuse of one distance matrix across the battery, and the packed slice rows
every report carries."""

import dataclasses
import sys
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import oracle
from oracle import boundary_slice, layer_decompose
from test_properties import connected_graphs
from graphboundary import (
    ALL_CHECKS,
    DomainSpec,
    GraphError,
    InvariantViolation,
    BoundarySlice,
    boundary,
    distance_matrix,
    enumerate_connected,
    lattice_discretize,
    random_tree,
    run_battery,
)
from graphboundary import cli, core, layers
from graphboundary.boundary import _check_report
from graphboundary.generators import complete, cycle, grid, path, star


def flip_bits(rep, pairs):
    """``rep`` with u's membership in the slice of v flipped for each (v, u), in the packed rows."""
    bits = rep.slice_bits.copy()
    for v, u in pairs:
        bits[v, u >> 3] ^= 1 << (u & 7)
    return dataclasses.replace(rep, slice_bits=bits)


def assert_matches_oracle(g):
    edges = list(g.edges())
    dist = oracle.floyd_warshall(g.n, edges)
    rep = boundary(g)
    assert rep.slice_bits.shape == (g.n, (g.n + 7) // 8)
    assert rep.slice_rows(0, g.n).shape == (g.n, g.n)
    witness = {}
    for v, row in enumerate(rep.slice_rows(0, g.n)):
        expected = oracle.slice_members(g.n, edges, v, dist)
        assert set(np.flatnonzero(row).tolist()) == expected
        assert rep.slices[v] == BoundarySlice(source=v, members=frozenset(expected))
        assert all((v in rep.certifiers(u)) == (u in expected) for u in range(g.n))
        for u in sorted(expected):
            witness.setdefault(u, v)
    assert len(rep.slices) == g.n
    assert rep.witness == witness
    assert rep.boundary == tuple(sorted(witness))
    assert set(rep.cejz_boundary) == oracle.cejz(g.n, edges)
    assert rep.diameter == max(max(row) for row in dist)


def test_block_report_equals_oracle_on_all_small_graphs():
    count = 0
    for g in enumerate_connected(5):
        assert_matches_oracle(g)
        count += 1
    assert count == 772


graphs_and_long_paths = st.one_of(
    connected_graphs(),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.sampled_from([path(n), cycle(max(n, 3)), star(n)])
    ),
    st.integers(min_value=2, max_value=60).map(path),
    st.tuples(st.integers(2, 40), st.integers(0, 10**6)).map(lambda t: random_tree(*t)),
)


@given(graphs_and_long_paths, st.integers(min_value=1, max_value=8))
def test_block_report_equals_oracle_at_any_block_size(g, block):
    # small blocks put block edges inside long paths
    with mock.patch.object(core, "ROW_BLOCK", block):
        assert_matches_oracle(g)


def test_multi_block_report_equals_per_source_route():
    g = path(2 * core.ROW_BLOCK + 5)
    rep = boundary(g)
    for v, row in enumerate(rep.distances.tolist()):
        assert rep.slices[v].members == boundary_slice(g, row)
    assert rep.boundary == rep.cejz_boundary == (0, g.n - 1)
    assert rep.witness == {0: 1, g.n - 1: 0}


def test_distance_matrix_int16_and_read_only():
    dm = distance_matrix(grid(4, 5).graph)
    assert dm.dtype == np.int16
    assert not dm.flags.writeable
    with pytest.raises(ValueError):
        dm[0, 1] = 7
    bits = boundary(grid(4, 5).graph).slice_bits
    assert bits.dtype == np.uint8 and bits.shape == (20, 3)
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0, 1] = 1


def assert_csr_is_the_adjacency(g):
    indptr, indices = g.csr
    assert indptr.dtype == indices.dtype == np.intp
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert indptr.shape == (g.n + 1,) and indices.shape == (2 * g.m,)
    assert [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(g.n)] == \
        [list(a) for a in g.adjacency]
    assert g.csr is g.csr  # built once


def test_csr_equals_adjacency_on_all_small_graphs():
    count = 0
    for g in enumerate_connected(5):
        assert_csr_is_the_adjacency(g)
        count += 1
    assert count == 772


@given(graphs_and_long_paths)
def test_csr_equals_adjacency_on_hypothesis_graphs(g):
    assert_csr_is_the_adjacency(g)


def test_csr_is_read_only():
    for arr in grid(4, 5).graph.csr:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_rows_match_matrix_across_blocks():
    # dichotomy reduces distance rows a block at a time; the last source's
    # doctored slice must be found at every block size
    g = path(2 * core.ROW_BLOCK + 5)
    rep = boundary(g)
    assert rep.certifiers(0)[-1] == g.n - 1
    bad = flip_bits(rep, [(g.n - 1, 0)])
    expected = [(True, f"sources={g.n}"),
                (False, f"outermost layer not fully in the slice (source {g.n - 1})")]
    for block in range(1, 9):
        with mock.patch.object(core, "ROW_BLOCK", block):
            outcomes = [run_battery(g, ("dichotomy",), report=r)[0] for r in (rep, bad)]
        assert [(oc.passed, oc.detail) for oc in outcomes] == expected


def test_layer_decompose_with_precomputed_row_and_members():
    g = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2)).graph
    rep = boundary(g)
    for v, row in enumerate(rep.distances.tolist()):
        members = np.flatnonzero(rep.slice_rows(v, v + 1)[0]).tolist()
        assert layer_decompose(g, v) == layer_decompose(g, v, row, members)
        assert layer_decompose(g, v) == layer_decompose(g, v, row, rep.slices[v].members)
        assert layer_decompose(g, v) == layer_decompose(g, v, row)


def test_battery_runs_one_distance_pass():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    assert core.takes_bit_route(gg.graph, max(core.bfs_distances(gg.graph, 0)))
    boundary_module = sys.modules["graphboundary.boundary"]
    calls, sources = [], []
    real = core.bfs_distances

    def counting(g):
        calls.append(g)
        return distance_matrix(g)

    def counting_bfs(g, source):
        sources.append(source)
        return real(g, source)

    with mock.patch.object(boundary_module, "distance_matrix", counting), \
            mock.patch.object(core, "bfs_distances", counting_bfs):
        outcomes = run_battery(gg.graph, ALL_CHECKS, gg=gg)
    assert [oc.check for oc in outcomes] == list(ALL_CHECKS)
    assert all(oc.passed for oc in outcomes)
    assert calls == [gg.graph]
    assert sources == [0]  # the bit route's connectivity probe, and no other BFS


@pytest.mark.parametrize("argv, passes", [
    (("sweep", "--family", "grid", "--sizes", "3,4,5"), 3),
    (("prop4", "--family", "annulus", "--params", "0.4,1.0", "--lam", "0.2"), 1),
], ids=["sweep", "prop4"])
def test_sweep_and_prop4_run_one_distance_pass_per_graph(argv, passes, capsys):
    boundary_module = sys.modules["graphboundary.boundary"]
    calls = []

    def counting(g):
        calls.append(g)
        return distance_matrix(g)

    with mock.patch.object(boundary_module, "distance_matrix", counting):
        assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out
    assert len(calls) == passes


def test_python_route_runs_one_bfs_per_source():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.25))
    assert not core.takes_bit_route(gg.graph, max(core.bfs_distances(gg.graph, 0)))
    calls = []
    real = core.bfs_distances

    def counting(g, source):
        calls.append(source)
        return real(g, source)

    with mock.patch.object(core, "bfs_distances", counting):
        outcomes = run_battery(gg.graph, ALL_CHECKS, gg=gg)
    assert [oc.check for oc in outcomes] == list(ALL_CHECKS)
    assert all(oc.passed for oc in outcomes)
    # the connectivity probe from vertex 0 is reused as row 0
    assert sorted(calls) == list(range(gg.graph.n))


def test_thm2_checks_the_weakest_source_once(monkeypatch):
    g = grid(4, 4).graph
    rep = boundary(g)
    calls = []
    real = layers.check_theorem2

    def counting(g, v, report):
        calls.append(v)
        return real(g, v, report)

    monkeypatch.setattr(layers, "check_theorem2", counting)
    (outcome,) = run_battery(g, ("thm2",), report=rep)
    assert outcome.passed and outcome.detail == "sources=16 min_margin=190/41 (4.63415)"
    assert len(calls) == 1


def test_thm2_failure_names_the_emptied_source():
    g = grid(4, 4).graph
    rep = boundary(g)
    bad = flip_bits(rep, [(5, u) for u in rep.slices[5].members])
    (outcome,) = run_battery(g, ("thm2",), report=bad)
    assert not outcome.passed
    assert outcome.detail == "source=5 observed=0 bound=15/41 (0.365854)"


@pytest.mark.parametrize("check, detail", [
    ("laplacian", "mismatch at source 7"),
    ("dichotomy", "outermost layer not fully in the slice (source 7)"),
])
def test_cross_checks_fail_on_a_bad_slice(check, detail):
    g = grid(5, 5).graph
    rep = boundary(g)
    v = 7
    u = int(rep.distances[v].argmax())  # a farthest vertex is always in the slice
    assert v in rep.certifiers(u)
    (outcome,) = run_battery(g, (check,), report=flip_bits(rep, [(v, u)]))
    assert (outcome.passed, outcome.detail) == (False, detail)


def test_report_check_raises_typed_error():
    rep = boundary(grid(3, 3).graph)
    with pytest.raises(InvariantViolation, match="CEJZ"):
        _check_report(dataclasses.replace(rep, cejz_boundary=rep.cejz_boundary + (4,)))
    with pytest.raises(InvariantViolation, match="witness"):
        _check_report(dataclasses.replace(rep, witness={}))
    assert issubclass(InvariantViolation, GraphError)


@pytest.mark.parametrize("block", [1, 3, 32])
@pytest.mark.parametrize("g", [complete(1), path(63), path(70), grid(9, 9).graph],
                         ids=["K_1", "path63", "path70", "grid9x9"])
def test_row_blocks_walk_the_whole_report_in_order(g, block):
    # below 64 vertices distance_matrix runs one Python BFS per source; path 70 and
    # grid 9x9 take the bit-parallel route
    rep = boundary(g)
    with mock.patch.object(core, "ROW_BLOCK", block):
        blocks = list(rep.row_blocks())
    assert [start for start, _, _ in blocks] == list(range(0, g.n, block))
    assert np.array_equal(np.concatenate([dist for _, dist, _ in blocks]), rep.distances)
    rows = np.concatenate([member for _, _, member in blocks])
    assert rows.dtype == bool and rows.shape == (g.n, g.n)
    assert [set(np.flatnonzero(row).tolist()) for row in rows] == \
        [sl.members for sl in rep.slices]
