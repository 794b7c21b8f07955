"""The shared distance pass: block-evaluated reports against the oracle,
reuse of one distance matrix across the battery, slices built only where
they are read, and typed errors for reports that lack slices."""

import dataclasses
import sys
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import oracle
from test_properties import connected_graphs
from graphboundary import (
    ALL_CHECKS,
    DomainSpec,
    GraphError,
    InvariantViolation,
    BoundarySlice,
    MissingSlicesError,
    boundary,
    DistanceField,
    boundary_slice,
    check_mps,
    check_theorem1,
    check_theorem2,
    classify_prop4,
    distance_matrix,
    enumerate_connected,
    inequality_report,
    lattice_discretize,
    layer_decompose,
    random_tree,
    run_battery,
    slice_overlap_stats,
)
from graphboundary import core, layers
from graphboundary.boundary import _check_report
from graphboundary.cli import main
from graphboundary.core import distance_dtype
from graphboundary.generators import cycle, grid, path, star

def assert_matches_oracle(g):
    edges = list(g.edges())
    dist = oracle.floyd_warshall(g.n, edges)
    rep = boundary(g, include_slices=True)
    witness = {}
    for v, sl in enumerate(rep.slices):
        expected = oracle.slice_members(g.n, edges, v, dist)
        assert sl.source == v
        assert sl.members == expected
        for u in sorted(expected):
            witness.setdefault(u, v)
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
    rep = boundary(g, include_slices=True)
    for v, row in enumerate(rep.distances.rows()):
        ref = boundary_slice(g, DistanceField(source=v, dist=tuple(row)))
        assert rep.slices[v].members == ref.members
    assert rep.boundary == rep.cejz_boundary == (0, g.n - 1)
    assert rep.witness == {0: 1, g.n - 1: 0}


def test_distance_matrix_int16_and_read_only():
    dm = distance_matrix(grid(4, 5).graph)
    assert dm.dist.dtype == np.int16
    assert not dm.dist.flags.writeable
    with pytest.raises(ValueError):
        dm.dist[0, 1] = 7


def test_distance_dtype_rule():
    # decided from n alone, so the large case needs no allocation
    assert distance_dtype(1) == np.int16
    assert distance_dtype(32767) == np.int16
    assert distance_dtype(32768) == np.int32
    assert distance_dtype(10**6) == np.int32


def test_rows_match_matrix_across_blocks():
    g = grid(5, 7).graph
    dm = distance_matrix(g)
    with mock.patch.object(core, "ROW_BLOCK", 4):
        rows = list(dm.rows())
    assert rows == dm.dist.tolist()
    assert all(type(x) is int for x in rows[3])


def test_layer_decompose_with_precomputed_row_and_members():
    g = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2)).graph
    rep = boundary(g, include_slices=True)
    for v, row in enumerate(rep.distances.rows()):
        assert layer_decompose(g, v) == layer_decompose(g, v, row, rep.slices[v].members)
        assert layer_decompose(g, v) == layer_decompose(g, v, row)


def test_battery_runs_one_distance_pass():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    calls = []
    real = core.bfs_distances

    def counting(g, source):
        calls.append(source)
        return real(g, source)

    with mock.patch.object(core, "bfs_distances", counting), \
            mock.patch.object(layers, "bfs_distances", counting):
        outcomes = run_battery(gg.graph, ALL_CHECKS, gg=gg)
    assert [oc.check for oc in outcomes] == list(ALL_CHECKS)
    assert all(oc.passed for oc in outcomes)
    assert sorted(calls) == list(range(gg.graph.n))


def test_battery_rejects_report_without_slices():
    g = grid(3, 3).graph
    # laplacian and dichotomy read the slices directly, not through layers
    for checks in (ALL_CHECKS, ("laplacian",), ("dichotomy",)):
        with pytest.raises(MissingSlicesError):
            run_battery(g, checks, report=boundary(g))


@pytest.mark.parametrize("entry", [
    lambda g, rep: check_theorem2(g, 0, rep),
    lambda g, rep: inequality_report(g, rep),
    lambda g, rep: slice_overlap_stats(g, rep),
], ids=["check_theorem2", "inequality_report", "slice_overlap_stats"])
def test_layers_reject_report_without_slices(entry):
    g = grid(3, 3).graph
    with pytest.raises(MissingSlicesError):
        entry(g, boundary(g))


def test_prop4_rejects_report_without_slices():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    with pytest.raises(MissingSlicesError):
        classify_prop4(gg, boundary(gg.graph))


@pytest.fixture
def slice_blocks(monkeypatch):
    """Records the first source of every block of slices that gets built."""
    boundary_module = sys.modules["graphboundary.boundary"]
    real = boundary_module._block_slices
    starts = []

    def counting(*args):
        starts.append(args[0])
        return real(*args)

    monkeypatch.setattr(boundary_module, "_block_slices", counting)
    return starts


def test_theorem1_and_mps_build_no_slices(slice_blocks):
    g = grid(4, 5).graph
    rep = boundary(g, include_slices=True)
    slice_blocks.clear()
    assert check_theorem1(g) == check_theorem1(g, rep)
    assert check_mps(g) == check_mps(g, rep)
    assert slice_blocks == []
    inequality_report(g)
    assert slice_blocks == [0]


def test_boundary_cli_builds_slices_only_with_the_flag(tmp_path, slice_blocks):
    el = str(tmp_path / "g.el")
    assert main(["gen", "--family", "star", "--params", "6", "--out", el]) == 0
    for fmt in ("text", "json", "dot"):
        assert main(["boundary", "--in", el, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    assert slice_blocks == []
    assert main(["boundary", "--in", el, "--slices", "--out", str(tmp_path / "s.txt")]) == 0
    assert slice_blocks == [0]


def test_thm2_checks_the_weakest_source_once(monkeypatch):
    g = grid(4, 4).graph
    rep = boundary(g, include_slices=True)
    calls = []
    real = layers.check_theorem2

    def counting(g, v, report=None):
        calls.append(v)
        return real(g, v, report)

    monkeypatch.setattr(layers, "check_theorem2", counting)
    (outcome,) = run_battery(g, ("thm2",), report=rep)
    assert outcome.passed and outcome.detail == "sources=16 min_margin=190/41 (4.63415)"
    assert len(calls) == 1


def test_thm2_failure_names_the_emptied_source():
    g = grid(4, 4).graph
    rep = boundary(g, include_slices=True)
    slices = list(rep.slices)
    slices[5] = BoundarySlice(source=5, members=frozenset())
    (outcome,) = run_battery(g, ("thm2",), report=dataclasses.replace(rep, slices=tuple(slices)))
    assert not outcome.passed
    assert outcome.detail == "source=5 observed=0 bound=15/41 (0.365854)"


def test_report_check_raises_typed_error():
    rep = boundary(grid(3, 3).graph)
    with pytest.raises(InvariantViolation, match="CEJZ"):
        _check_report(dataclasses.replace(rep, cejz_boundary=rep.cejz_boundary + (4,)))
    with pytest.raises(InvariantViolation, match="witness"):
        _check_report(dataclasses.replace(rep, witness={}))
    assert issubclass(InvariantViolation, GraphError)
    assert issubclass(MissingSlicesError, GraphError)
