"""The dense enum sweep against the per-graph path.

``connected_chunks`` + ``batch_boundary`` + ``run_batch`` evaluate a whole
graph size at once; every row must equal what ``boundary`` and
``run_battery`` give for the same graph, on true data and on corrupted
arrays, and the sweep must stay chunked.
"""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from graphboundary import InvariantViolation, boundary, distance_matrix, run_battery, validate
from graphboundary.boundary import BoundaryReport, batch_boundary
from graphboundary.cli import main
from graphboundary.generators import (
    connected_chunks,
    enumerate_connected,
    mask_edges,
    path,
    star,
)
from graphboundary.verify import _BATCH_RUNNERS, ALL_CHECKS, run_batch

CHECKS = tuple(c for c in ALL_CHECKS if c != "prop4")


def graphs_of(n, masks):
    return [validate(mask_edges(n, mask), n) for mask in masks.tolist()]


def report_of(batch, b, g):
    """The BoundaryReport of graph b, built from the batch arrays as they stand."""
    slices = batch.slices[b]
    members = np.flatnonzero(slices.any(axis=0)).tolist()
    return BoundaryReport(
        n=g.n, m=g.m, max_degree=g.max_degree, diameter=int(batch.distances[b].max()),
        boundary=tuple(members), cejz_boundary=tuple(np.flatnonzero(batch.cejz[b]).tolist()),
        witness={u: int(slices[:, u].argmax()) for u in members},
        distances=batch.distances[b].astype(np.int16),
        slice_bits=np.packbits(slices, axis=1, bitorder="little"),
    )


def test_batch_runners_cover_every_check_but_prop4():
    assert set(_BATCH_RUNNERS) == set(ALL_CHECKS) - {"prop4"}


def test_chunks_follow_the_enumeration_order():
    masks = [(n, mask) for n, ms, _, _ in connected_chunks(6) for mask in ms.tolist()]
    assert len(masks) == 27476
    assert [validate(mask_edges(n, mask), n) for n, mask in masks] == list(enumerate_connected(6))


def test_batch_rows_equal_per_graph_reports_on_all_graphs_up_to_6():
    count = 0
    for n, masks, adjacency, distances in connected_chunks(6):
        batch = batch_boundary(adjacency, distances)
        passed = run_batch(batch, CHECKS)
        assert all(ok.all() for ok in passed.values())
        members, diameter = batch.boundary, batch.diameter
        max_degree, m = batch.max_degree, batch.m
        for b, g in enumerate(graphs_of(n, masks)):
            rep = boundary(g)
            assert (batch.distances[b] == rep.distances).all()
            assert (batch.slices[b] == rep.slice_rows(0, n)).all()
            assert tuple(np.flatnonzero(batch.cejz[b]).tolist()) == rep.cejz_boundary
            assert tuple(np.flatnonzero(members[b]).tolist()) == rep.boundary
            assert diameter[b] == rep.diameter
            assert max_degree[b] == g.max_degree and m[b] == g.m
            verdicts = [oc.passed for oc in run_battery(g, CHECKS, report=rep)]
            assert verdicts == [bool(passed[c][b]) for c in CHECKS]
            count += 1
    assert count == 27476


def corruptions(batch, b):
    """Copies of ``batch`` with graph b's arrays corrupted in one place each.

    One slice bit, one distance entry (up or down by one) or one CEJZ bit is
    flipped. No single flip breaks Theorem 1: the boundary stays nonempty,
    the diameter cannot drop, and 2 Delta diam >= n holds for n <= 6, so the
    last copy clears all of graph b's slices.
    """
    n = batch.n
    for v in range(n):
        for u in range(n):
            slices = batch.slices.copy()
            slices[b, v, u] ^= True
            yield dataclasses.replace(batch, slices=slices)
            for step in (1, -1):
                if batch.distances[b, v, u] + step >= 0:
                    dist = batch.distances.copy()
                    dist[b, v, u] += step
                    yield dataclasses.replace(batch, distances=dist)
        cejz = batch.cejz.copy()
        cejz[b, v] ^= True
        yield dataclasses.replace(batch, cejz=cejz)
    slices = batch.slices.copy()
    slices[b] = False
    yield dataclasses.replace(batch, slices=slices)


def test_batch_verdicts_equal_the_battery_on_corrupted_arrays():
    failing = Counter()
    for n, masks, adjacency, distances in connected_chunks(4):
        batch = batch_boundary(adjacency, distances)
        for b, g in enumerate(graphs_of(n, masks)):
            for bad in corruptions(batch, b):
                passed = run_batch(bad, CHECKS)
                outcomes = run_battery(g, CHECKS, report=report_of(bad, b, g))
                assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS]
                failing.update(oc.check for oc in outcomes if not oc.passed)
    assert set(failing) == set(CHECKS)


def test_two_member_boundaries_pass_prop3_only_on_paths():
    # the corrupted sweep stops at n = 4, below the first non-path whose degrees have
    # two leaves and n - 3 twos: a triangle with two pendant vertices at one corner
    graphs = [path(5), validate([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)], 5), star(4),
              validate([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)], 5)]
    adjacency = np.array([[[w in nbrs for w in range(g.n)] for nbrs in g.adjacency]
                          for g in graphs])
    batch = batch_boundary(adjacency, np.array([distance_matrix(g) for g in graphs], np.int8))
    slices = np.zeros_like(batch.slices)
    slices[:, 0, 3] = slices[:, 0, 4] = True
    batch = dataclasses.replace(batch, slices=slices)
    got = run_batch(batch, ("prop3",))["prop3"].tolist()
    assert got == [run_battery(g, ("prop3",), report=report_of(batch, b, g))[0].passed
                   for b, g in enumerate(graphs)]
    assert got == [True, False, False, False]


def test_cejz_outside_the_boundary_raises():
    adjacency = np.array([[[False, True], [True, False]]])
    with pytest.raises(InvariantViolation, match="CEJZ boundary escaped"):
        batch_boundary(adjacency, np.zeros((1, 2, 2), dtype=np.int8))


def test_enum_sweep_to_6_stays_chunked(tmp_path, capsys):
    # all 32768 masks of n = 6 in one pass trace 43 MiB; chunks of ENUM_CHUNK trace under 1 MiB
    tracemalloc.start()
    try:
        out = str(tmp_path / "o")
        assert main(["verify", "--family", "enum", "--nmax", "6", "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert capsys.readouterr() == ("", "")
