"""The dense enum sweep against the per-graph path.

``connected_chunks`` reads every graph with n <= n_max off the masks of n_max
vertices, each on n_max slots, and ``batch_boundary`` + ``run_batch`` evaluate
a chunk of them at once; every row must equal what ``boundary`` and
``run_battery`` give for the same graph, on true data and on corrupted
arrays, whatever the memory order of the stacks and however many absent
slots pad the graph, and the sweep must stay chunked.
"""

import dataclasses
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from exhaustive import CHECKS, per_graph_pass
from test_battery_blocks import BUDGETS
from graphboundary import (
    InvariantViolation,
    boundary,
    check_mps,
    distance_matrix,
    run_battery,
    validate,
    verify,
)
from graphboundary.boundary import BoundaryReport, batch_boundary
from graphboundary.cli import main
from graphboundary.generators import (
    _dense_distances,
    connected_chunks,
    enumerate_connected,
    mask_edges,
    path,
    star,
)
from graphboundary import generators
from graphboundary.verify import _BATCH_RUNNERS, ALL_CHECKS, enum_sweep, run_batch


def graphs_of(n_max, sizes, masks):
    """The graphs of a chunk of connected_chunks(n_max), from their (order, mask) keys."""
    return [validate(mask_edges(n_max, mask), n) for n, mask in zip(sizes.tolist(), masks.tolist())]


def mask_of(n_max, g):
    """The edge mask of g's edges among the pairs of n_max vertices."""
    pairs = {pair: i for i, pair in enumerate(combinations(range(n_max), 2))}
    return sum(1 << pairs[edge] for edge in g.edges())


def adjacency_of(graphs):
    """The (B, n, n) bool adjacency stack of graphs on the same n vertices."""
    return np.array([[[w in nbrs for w in range(g.n)] for nbrs in g.adjacency] for g in graphs])


def report_of(batch, b, g):
    """The BoundaryReport of graph b, built from its first g.n slots as the arrays stand."""
    n = g.n
    slices, distances = batch.slices[b, :n, :n], batch.distances[b, :n, :n]
    members = np.flatnonzero(slices.any(axis=0)).tolist()
    return BoundaryReport(
        n=n, m=g.m, max_degree=g.max_degree, diameter=int(distances.max()),
        boundary=tuple(members), cejz_boundary=tuple(np.flatnonzero(batch.cejz[b, :n]).tolist()),
        witness={u: int(slices[:, u].argmax()) for u in members},
        distances=distances.astype(np.int16),
        slice_bits=np.packbits(slices, axis=1, bitorder="little"),
    )


def layouts(stack):
    """The values of a (B, n, n) stack in C order, batch-inner and as a non-contiguous view."""
    wide = np.zeros(stack.shape[:2] + (2 * stack.shape[2],), stack.dtype)
    wide[:, :, ::2] = stack
    inner = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
    return {"C": np.ascontiguousarray(stack), "batch-inner": inner, "view": wide[:, :, ::2]}


def batch_inner(stack):
    """True iff the graph index b is the contiguous axis of ``stack``, its [v, u] C-ordered."""
    return stack.transpose(1, 2, 0).flags.c_contiguous


def layout_free_pass(adjacency, distances):
    """(batch, verdicts) of the stacks, after checking that every layout gives the same."""
    ref = batch_boundary(np.ascontiguousarray(adjacency), np.ascontiguousarray(distances))
    verdicts = run_batch(ref, CHECKS)
    for (name, a), d in zip(layouts(adjacency).items(), layouts(distances).values()):
        batch = batch_boundary(a, d)
        assert (batch.slices == ref.slices).all() and (batch.cejz == ref.cejz).all(), name
        assert all(batch_inner(x) for x in (batch.adjacency, batch.distances, batch.slices)), name
        passed = run_batch(batch, CHECKS)
        assert all((passed[c] == verdicts[c]).all() for c in CHECKS), name
    return ref, verdicts


def relaid(batch):
    """Copies of ``batch`` whose three stacks are in each layout of :func:`layouts`."""
    for a, d, s in zip(*(layouts(x).values() for x in (batch.adjacency, batch.distances,
                                                         batch.slices))):
        yield dataclasses.replace(batch, adjacency=a, distances=d, slices=s)


def test_connected_chunks_are_batch_inner():
    # b is the contiguous axis of both stacks, as batch_boundary stores them
    for sizes, masks, adjacency, distances in connected_chunks(6):
        for stack in (adjacency, distances):
            assert stack.shape == (len(masks), 6, 6) and batch_inner(stack)
            assert len(masks) == 1 or stack.strides[0] == stack.itemsize
        assert sizes.shape == masks.shape


def test_batch_route_is_layout_free_on_every_chunk_up_to_5():
    for n_max in range(1, 6):
        [(_, _, adjacency, distances)] = connected_chunks(n_max)
        _, verdicts = layout_free_pass(adjacency, distances)
        assert all(ok.all() for ok in verdicts.values())


def test_batch_runners_cover_every_check_but_prop4():
    assert set(_BATCH_RUNNERS) == set(ALL_CHECKS) - {"prop4"}


def test_chunks_follow_the_enumeration_order():
    # the (order, mask) keys, sorted over the chunks, give enumerate_connected's graphs
    keys = sorted((n, mask) for sizes, masks, _, _ in connected_chunks(6)
                  for n, mask in zip(sizes.tolist(), masks.tolist()))
    assert len(keys) == 27476
    assert [validate(mask_edges(6, mask), n) for n, mask in keys] == list(enumerate_connected(6))


def test_chunks_are_one_dense_pass_per_size_up_to_5():
    # 1024 masks of n_max vertices a chunk: every n_max <= 5 (at most 2^10 masks) is one
    # pass, n_max = 6 is 32, and each chunk runs in (order, mask) order
    assert [len(list(connected_chunks(n))) for n in range(1, 7)] == [1, 1, 1, 1, 1, 32]
    for k, (sizes, masks, _, _) in enumerate(connected_chunks(6)):
        assert (masks // 1024 == k).all()
        keys = sizes.astype(np.int64) << 16 | masks
        assert (np.diff(keys) > 0).all()


def test_every_connected_graph_appears_once_on_its_first_order_slots():
    # per order, 1, 1, 4, 38, 728 and 26 704 graphs (OEIS A001187), each key once; a
    # graph's own slots hold _dense_distances of its own adjacency on order slots, and
    # its absent slots have no edges, 0 in their columns and source 0's row as rows
    keys = Counter()
    for sizes, masks, adjacency, distances in connected_chunks(6):
        assert batch_inner(adjacency) and batch_inner(distances)
        keys.update(zip(sizes.tolist(), masks.tolist()))
        for n in np.unique(sizes).tolist():
            rows = sizes == n
            own = np.ascontiguousarray(adjacency[rows, :n, :n])
            assert (own == adjacency_of(graphs_of(6, sizes[rows], masks[rows]))).all()
            assert (distances[rows, :n, :n] == _dense_distances(own)).all()
            assert not adjacency[rows, n:].any() and not adjacency[rows, :, n:].any()
            assert not distances[rows, :, n:].any()
            assert (distances[rows, n:] == distances[rows, :1]).all()
    assert max(keys.values()) == 1
    assert Counter(n for n, _ in keys) == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def test_dense_distances_are_exact_up_to_128_vertices():
    # int8 holds n - 1 <= 127; past it the entries would wrap negative without an error
    adjacency = adjacency_of([path(128)])
    far = np.arange(128)
    assert (_dense_distances(adjacency)[0] == abs(far[:, None] - far[None, :])).all()
    with pytest.raises(ValueError, match="at most 128 vertices"):
        _dense_distances(adjacency_of([path(129)]))


def reference_arrays(adjacency, distances):
    """sigma = sum_{w ~ u} d(v, w) - deg(u) d(v, u) and the CEJZ sets, straight from sums.

    u is in the slice of v iff sigma[b, v, u] < 0, with the sum over a (B, n, n, n)
    gather in int64, and CEJZ-certified by v iff it has a neighbor and no neighbor w
    has d(v, w) > d(v, u), the rule of ``boundary()``, on any integer array.
    """
    gathered = distances[:, :, None] * adjacency[:, None]  # [b, v, u, w]: d(v, w) if w ~ u
    deg = adjacency.sum(axis=2)
    sigma = gathered.sum(axis=3, dtype=np.int64) - deg[:, None] * distances.astype(np.int64)
    step = distances[:, :, None, :].astype(np.int64) - distances[:, :, :, None]
    level = (~adjacency[:, None] | (step <= 0)).all(axis=3)
    return sigma, (level & (deg > 0)[:, None]).any(axis=1)


def test_batch_slices_equal_the_defining_sum_on_any_int8_distances():
    # the slices and CEJZ sets are exact for any int8 distances of a symmetric
    # adjacency, hop distances or not, and a CEJZ member outside the boundary raises
    rng = np.random.default_rng(2201)
    values = [np.arange(-1, 3), np.arange(5), np.arange(-128, 128), np.array([-128, 127])]
    outcomes = Counter()
    for trial in range(240):
        n = int(rng.integers(1, 10))
        upper = np.triu(rng.random((4, n, n)) < rng.uniform(0.1, 0.9), 1)
        adjacency = upper | upper.transpose(0, 2, 1)
        distances = rng.choice(values[trial % 4], size=(4, n, n)).astype(np.int8)
        sigma, cejz = reference_arrays(adjacency, distances)
        if (cejz & ~(sigma < 0).any(axis=1)).any():
            with pytest.raises(InvariantViolation, match="CEJZ boundary escaped"):
                batch_boundary(adjacency, distances)
            outcomes["raised"] += 1
            continue
        batch = batch_boundary(adjacency, distances)
        assert (batch.slices == (sigma < 0)).all() and (batch.cejz == cejz).all()
        outcomes["equal"] += 1
        outcomes["ties"] += int(((sigma == 0) & adjacency.any(axis=2)[:, None]).any())
    assert min(outcomes.values()) >= 20, outcomes


def test_batch_sums_are_exact_at_the_int16_edge():
    # K_128 with distances of -128 and 127: a term d(v, w) - d(v, u) reaches +-255, past
    # int8, and two rows drive sigma to +-127 * 255, the ends of what int16 must hold
    rng = np.random.default_rng(128)
    adjacency = ~np.eye(128, dtype=bool)[None]
    distances = rng.choice(np.array([-128, 127], np.int8), size=(1, 128, 128))
    distances[0, 0] = -128
    distances[0, 0, 1] = 127  # sigma(0, 1) = -127 * 255
    distances[0, 2] = 127
    distances[0, 2, 3] = -128  # sigma(2, 3) = +127 * 255
    sigma, cejz = reference_arrays(adjacency, distances)
    assert sigma[0, 0, 1] == -127 * 255 and sigma[0, 2, 3] == 127 * 255
    batch = batch_boundary(adjacency, distances)
    assert (batch.slices == (sigma < 0)).all() and (batch.cejz == cejz).all()
    assert batch.cejz.any() and not batch.slices.all()


def test_batch_rows_equal_per_graph_reports_on_all_graphs_up_to_6():
    # the graphs of order n in a chunk follow the ``seen[n]`` earlier ones of that order
    # in the enumeration order, and so the rows of the per-graph pass at those indices;
    # their first n slots hold the per-graph arrays
    reference = per_graph_pass()
    seen = Counter()
    for sizes, masks, adjacency, distances in connected_chunks(6):
        batch = batch_boundary(adjacency, distances)
        passed = run_batch(batch, CHECKS)
        assert all(ok.all() for ok in passed.values())
        for n in np.unique(sizes).tolist():
            own = np.flatnonzero(sizes == n)
            rows = slice(seen[n], seen[n] + len(own))
            seen[n] += len(own)
            ref = reference[n]
            assert (batch.distances[own, :n, :n] == ref.distances[rows]).all()
            assert (batch.slices[own, :n, :n] == ref.slices[rows]).all()
            assert (batch.cejz[own, :n] == ref.cejz[rows]).all()
            assert (batch.boundary[own, :n] == ref.boundary[rows]).all()
            assert (batch.diameter[own] == ref.diameter[rows]).all()
            assert (batch.max_degree[own] == ref.max_degree[rows]).all()
            assert (batch.m[own] == ref.m[rows]).all()
            assert (np.column_stack([passed[c][own] for c in CHECKS]) == ref.passed[rows]).all()
    assert seen == {n: len(ref.passed) for n, ref in reference.items()}
    assert sum(seen.values()) == 27476


def corruptions(batch, b, n):
    """Copies of ``batch`` with graph b's arrays corrupted in one place each.

    One slice bit, one distance entry (up or down by one) or one CEJZ bit of
    graph b's first n slots, its own, is flipped, and its absent slots, if
    any, are kept absent: their rows repeat the corrupted row 0. No single
    flip breaks Theorem 1: the boundary stays nonempty, the diameter cannot
    drop, and 2 Delta diam >= n holds for n <= 6, so the last copy clears
    all of graph b's slices.
    """
    for v in range(n):
        for u in range(n):
            slices = batch.slices.copy()
            slices[b, v, u] ^= True
            slices[b, n:] = slices[b, 0]
            yield dataclasses.replace(batch, slices=slices)
            for step in (1, -1):
                if batch.distances[b, v, u] + step >= 0:
                    dist = batch.distances.copy()
                    dist[b, v, u] += step
                    dist[b, n:] = dist[b, 0]
                    yield dataclasses.replace(batch, distances=dist)
        cejz = batch.cejz.copy()
        cejz[b, v] ^= True
        yield dataclasses.replace(batch, cejz=cejz)
    slices = batch.slices.copy()
    slices[b] = False
    yield dataclasses.replace(batch, slices=slices)


def test_batch_verdicts_equal_the_battery_on_corrupted_arrays(monkeypatch):
    # every graph with n <= 4 on its own n slots and padded into every larger stack
    # up to 4 slots: a corruption of its own slots gets run_battery's verdicts, and
    # every other graph of the stack keeps its own
    failing = Counter()
    for n_max in range(1, 5):
        [(sizes, masks, adjacency, distances)] = connected_chunks(n_max)
        batch = batch_boundary(adjacency, distances)
        for b, g in enumerate(graphs_of(n_max, sizes, masks)):
            for bad in corruptions(batch, b, g.n):
                passed = run_batch(bad, CHECKS)
                others = np.arange(len(batch)) != b
                assert all(passed[c][others].all() for c in CHECKS)
                for copy in relaid(bad):  # the same verdicts in every memory order
                    again = run_batch(copy, CHECKS)
                    assert all((again[c] == passed[c]).all() for c in CHECKS)
                rep = report_of(bad, b, g)
                for budget in BUDGETS:  # the battery's block checks, however they split
                    monkeypatch.setattr(verify, "EDGE_BUDGET", budget)
                    outcomes = run_battery(g, CHECKS, report=rep)
                    assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS]
                failing.update(oc.check for oc in outcomes if not oc.passed)
    assert set(failing) == set(CHECKS)


def step_corruptions(batch, b, n):
    """(kind, copy) for each copy of ``batch`` with one distance entry of graph b's own
    slots set to -1, to d + 2, or to d - 2 where that stays >= 0; its absent rows repeat
    the corrupted row 0, as in :func:`corruptions`."""
    for v in range(n):
        for u in range(n):
            d = int(batch.distances[b, v, u])
            for kind, value in (("negative", -1), ("up by 2", d + 2), ("down by 2", d - 2)):
                if value >= 0 or kind == "negative":
                    dist = batch.distances.copy()
                    dist[b, v, u] = value
                    dist[b, n:] = dist[b, 0]
                    yield kind, dataclasses.replace(batch, distances=dist)


def test_batch_verdicts_equal_the_battery_on_negative_and_long_step_entries():
    # a negative entry, or an edge that steps by 2, must send its row to the per-source
    # recount, as the battery's walk does; the negative keys once wrapped inside the
    # batch tally's add.at, and 450 of the 696 -1 copies passed a dichotomy the battery fails
    failing = Counter()
    for n_max in range(1, 5):
        [(sizes, masks, adjacency, distances)] = connected_chunks(n_max)
        batch = batch_boundary(adjacency, distances)
        index = np.arange(len(batch))
        for b, g in enumerate(graphs_of(n_max, sizes, masks)):
            for kind, bad in step_corruptions(batch, b, g.n):
                passed = run_batch(bad, CHECKS)
                outcomes = run_battery(g, CHECKS, report=report_of(bad, b, g))
                assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS], \
                    (kind, n_max, b)
                assert all(passed[c][index != b].all() for c in CHECKS)  # the others keep theirs
                failing.update((kind, oc.check) for oc in outcomes if not oc.passed)
    assert {check for kind, check in failing if kind == "negative"} >= {"dichotomy", "laplacian"}
    assert all(failing[kind, "dichotomy"] for kind in ("up by 2", "down by 2")), failing


def plain_steps(adjacency, distances):
    """[v][u] = max(0, max over w ~ u of d(v, w) - d(v, u)) of one graph, in plain Python."""
    adj, dist = adjacency.tolist(), distances.tolist()
    slots = range(len(adj))
    return [[max([0] + [row[w] - row[u] for w in slots if adj[u][w]]) for u in slots]
            for row in dist]


def test_steps_are_the_largest_neighbor_step_floored_at_zero():
    # the dichotomy's long-step test reads the steps of the kernel's own pass, so they
    # must be the plain maximum on true and on corrupted distances alike
    for n_max in range(1, 5):
        [(sizes, masks, adjacency, distances)] = connected_chunks(n_max)
        batch = batch_boundary(adjacency, distances)
        assert batch.steps.dtype == np.int16
        for b, n in enumerate(sizes.tolist()):
            assert batch.steps[b].tolist() == plain_steps(adjacency[b], distances[b]), (n_max, b)
            others = np.arange(len(batch)) != b
            for kind, bad in step_corruptions(batch, b, n):
                steps = bad.steps
                assert steps[b].tolist() == plain_steps(bad.adjacency[b], bad.distances[b]), \
                    (kind, n_max, b)
                assert (steps[others] == batch.steps[others]).all()


def test_batch_dichotomy_routes_that_disagree_raise(monkeypatch):
    # source 2 of the path 0-1-2-3, graph 1, with its slice cleared: its outermost layer
    # leaves the slice, and a per-source count that passed it would contradict the flag
    adjacency = adjacency_of([star(3), path(4)])
    batch = batch_boundary(adjacency, _dense_distances(adjacency))
    slices = batch.slices.copy()
    slices[1, 2] = False
    bad = dataclasses.replace(batch, slices=slices)
    assert run_batch(bad, ("dichotomy",))["dichotomy"].tolist() == [True, False]
    monkeypatch.setattr(verify, "_dichotomy_detail", lambda *args: None)
    with pytest.raises(InvariantViolation, match="flags source 2 of graph 1"):
        run_batch(bad, ("dichotomy",))


def test_padded_graphs_equal_their_unpadded_chunks():
    # every graph with n <= 5 on 6 slots: its first n slots hold its own arrays, those
    # of the same graph on n slots, where connected_chunks(n) gives it no absent slot;
    # an absent slot is in no slice and no CEJZ set and, with no neighbor, its step is 0;
    # an absent source repeats source 0, and every verdict is the unpadded one
    unpadded = {n: next(connected_chunks(n)) for n in range(1, 6)}
    seen = Counter()
    for sizes, masks, adjacency, distances in connected_chunks(6):
        padded = batch_boundary(adjacency, distances)
        assert padded.steps.max() <= 1  # no edge steps by 2 on hop distances
        verdicts = run_batch(padded, CHECKS)
        assert all(ok.all() for ok in verdicts.values())
        for n in np.unique(sizes[sizes < 6]).tolist():
            rows = np.flatnonzero(sizes == n)
            own_sizes, own_masks, a, d = unpadded[n]
            full = np.flatnonzero(own_sizes == n)[seen[n]:seen[n] + len(rows)]
            seen[n] += len(rows)
            assert graphs_of(6, sizes[rows], masks[rows]) == graphs_of(n, own_sizes[full],
                                                                        own_masks[full])
            a, d = a[full], d[full]
            batch = batch_boundary(a, d)
            real = (rows, slice(n), slice(n))
            assert (padded.adjacency[real] == a).all() and (padded.distances[real] == d).all()
            assert (padded.slices[real] == batch.slices).all()
            assert (padded.cejz[rows, :n] == batch.cejz).all() and not padded.cejz[rows, n:].any()
            assert (padded.steps[real] == batch.steps).all()
            assert not padded.slices[rows, :, n:].any() and not padded.steps[rows, :, n:].any()
            for name in ("distances", "slices", "steps"):
                rows_of = getattr(padded, name)[rows]
                assert (rows_of[:, n:] == rows_of[:, :1]).all(), name
            assert (padded.order[rows] == n).all()
            assert (padded.diameter[rows] == batch.diameter).all()
            own = run_batch(batch, CHECKS)
            assert all((verdicts[c][rows] == own[c]).all() for c in CHECKS)
    assert seen == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def test_bounds_are_skipped_on_the_single_vertex_of_a_mixed_stack():
    # K_1 and K_2 among larger graphs on 5 slots, with every slice and CEJZ set
    # cleared: thm1, thm2 and mps then fail on every graph of two or more vertices,
    # K_2 included, as run_battery's do, and pass as skipped on K_1 alone
    graphs = [validate([], 1), validate([(0, 1)], 2), path(4), star(4), path(5)]
    [(sizes, masks, adjacency, distances)] = connected_chunks(5)
    keys = list(zip(sizes.tolist(), masks.tolist()))
    rows = [keys.index((g.n, mask_of(5, g))) for g in graphs]
    sizes, adjacency, distances = sizes[rows], adjacency[rows], distances[rows]
    for b, g in enumerate(graphs):  # the stack's rows are these graphs, on 5 slots
        assert (distances[b, :g.n, :g.n] == distance_matrix(g)).all()
    batch = batch_boundary(adjacency, distances)
    assert sizes.tolist() == batch.order.tolist() == [1, 2, 4, 5, 5]
    assert all(ok.all() for ok in run_batch(batch, CHECKS).values())
    cleared = dataclasses.replace(batch, slices=np.zeros_like(batch.slices),
                                  cejz=np.zeros_like(batch.cejz))
    passed = run_batch(cleared, CHECKS)
    for c in ("thm1", "thm2", "mps"):
        assert passed[c].tolist() == [True, False, False, False, False], c
    for b, g in enumerate(graphs):
        outcomes = run_battery(g, CHECKS, report=report_of(cleared, b, g))
        assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS]
    assert run_battery(graphs[0], ("thm1",))[0].detail == "skipped: single vertex"


def test_padded_verdicts_equal_the_battery_on_corrupted_arrays():
    # the corrupted-array sweep on every graph with n <= 3 in the first stack of
    # connected_chunks(6), the widest the enum sweep builds, so 3 to 5 of its slots
    # are absent: a corruption of a graph's own slots gets run_battery's verdicts
    failing = Counter()
    sizes, masks, adjacency, distances = next(connected_chunks(6))
    small = sizes < 4  # the first rows, since a chunk runs in (order, mask) order
    assert small[:small.sum()].all()
    batch = batch_boundary(adjacency[small], distances[small])
    for b, g in enumerate(graphs_of(6, sizes[small], masks[small])):
        n = g.n
        for bad in corruptions(batch, b, n):
            passed = run_batch(bad, CHECKS)
            outcomes = run_battery(g, CHECKS, report=report_of(bad, b, g))
            assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS]
            others = np.arange(len(batch)) != b  # every other graph keeps its verdicts
            assert all(passed[c][others].all() for c in CHECKS)
            failing.update(oc.check for oc in outcomes if not oc.passed)
    assert len(batch) == 6 and set(failing) == set(CHECKS)


@pytest.mark.parametrize("n_max, stacks", [(1, 1), (2, 1), (3, 1), (5, 1), (6, 32)])
def test_enum_sweep_makes_one_stack_per_chunk_of_the_largest_size(n_max, stacks, monkeypatch):
    # one distance pass and one batch_boundary per chunk of n_max-vertex masks, every
    # graph order read off them: 1 at n_max 5 and 32 at n_max 6
    calls, passes = [], []

    def counted(adjacency, distances):
        calls.append(adjacency.shape)
        return batch_boundary(adjacency, distances)

    def counted_distances(adjacency):
        passes.append(adjacency.shape)
        return _dense_distances(adjacency)

    monkeypatch.setattr(verify, "batch_boundary", counted)
    monkeypatch.setattr(generators, "_dense_distances", counted_distances)
    sweep = enum_sweep(n_max, CHECKS)
    assert len(calls) == stacks and {shape[1:] for shape in calls} == {(n_max, n_max)}
    assert len(passes) == stacks and {shape[1:] for shape in passes} == {(n_max, n_max)}
    assert sweep.graphs == sum(shape[0] for shape in calls)
    assert sum(sweep.failures.values()) == 0


def test_two_member_boundaries_pass_prop3_only_on_paths():
    # the corrupted sweep stops at n = 4, below the first non-path whose degrees have
    # two leaves and n - 3 twos: a triangle with two pendant vertices at one corner
    graphs = [path(5), validate([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)], 5), star(4),
              validate([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)], 5)]
    adjacency = adjacency_of(graphs)
    batch = batch_boundary(adjacency, np.array([distance_matrix(g) for g in graphs], np.int8))
    slices = np.zeros_like(batch.slices)
    slices[:, 0, 3] = slices[:, 0, 4] = True
    batch = dataclasses.replace(batch, slices=slices)
    got = run_batch(batch, ("prop3",))["prop3"].tolist()
    assert got == [run_battery(g, ("prop3",), report=report_of(batch, b, g))[0].passed
                   for b, g in enumerate(graphs)]
    assert got == [True, False, False, False]


def random_connected(n, rng):
    """A random tree on n vertices plus edges of a random density, randomly relabeled."""
    label = rng.permutation(n)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    extra = np.triu(rng.random((n, n)) < rng.uniform(0, 0.5), 1)
    edges.update(zip(*np.nonzero(extra)))
    return validate([(int(label[u]), int(label[w])) for u, w in sorted(edges)], n)


@pytest.mark.parametrize("n", range(7, 17))
def test_batch_route_equals_the_per_graph_route_past_the_exhaustive_range(n):
    rng = np.random.default_rng(n)
    graphs = [random_connected(n, rng) for _ in range(12)]
    adjacency = adjacency_of(graphs)
    distances = _dense_distances(adjacency)
    batch, passed = layout_free_pass(adjacency, distances)
    for b, g in enumerate(graphs):
        rep = boundary(g)
        assert (distances[b] == distance_matrix(g)).all()
        assert (batch.slices[b] == rep.slice_rows(0, n)).all()
        assert np.flatnonzero(batch.cejz[b]).tolist() == list(rep.cejz_boundary)
        outcomes = run_battery(g, CHECKS, report=rep)
        assert [oc.passed for oc in outcomes] == [bool(passed[c][b]) for c in CHECKS]
    assert len({g.m for g in graphs}) > 1


@pytest.mark.parametrize("shapes", [
    ((3, 4, 4), (1, 4, 4)),  # broadcast, and reported as a failed theorem before
    ((4, 4), (4, 4)),  # an AxisError before
    ((3, 4, 4), (3, 4)),
    ((3, 4, 5), (3, 4, 5)),
])
def test_batch_boundary_takes_only_two_equal_b_n_n_stacks(shapes):
    a_shape, d_shape = shapes
    adjacency = np.zeros(a_shape, bool)
    adjacency[..., 0, 1] = adjacency[..., 1, 0] = True  # one edge: K_2 plus isolated vertices
    message = re.escape(f"two (B, n, n) stacks of one shape, got {a_shape} and {d_shape}")
    with pytest.raises(ValueError, match=message):
        batch_boundary(adjacency, np.zeros(d_shape, np.int8))


@pytest.mark.parametrize("dtype, n", [
    (np.int16, 4),  # the sums are int16, so the terms must come from int8 entries
    (np.int64, 4),
    (np.uint8, 4),
    (np.int8, 129),  # |sigma| <= (n - 1) * 255 fits int16 only for n <= 128
])
def test_batch_boundary_takes_only_int8_distances_up_to_128_vertices(dtype, n):
    adjacency = np.zeros((2, n, n), bool)
    adjacency[:, 0, 1] = adjacency[:, 1, 0] = True
    message = re.escape(f"int8 distances on at most 128 vertices, got {np.dtype(dtype)} on {n}")
    with pytest.raises(ValueError, match=message):
        batch_boundary(adjacency, np.zeros((2, n, n), dtype))


def test_an_empty_stack_gives_empty_verdicts():
    # the dichotomy's layer width took the maximum of no distances and raised
    empty = batch_boundary(np.zeros((0, 4, 4), bool), np.zeros((0, 4, 4), np.int8))
    assert {c: v.shape for c, v in run_batch(empty, CHECKS).items()} == dict.fromkeys(CHECKS, (0,))


def test_batch_boundary_builds_no_n_cubed_array():
    # 256 graphs of 24 vertices: the old (B, n, n, n) gather traced 7.5 MiB; the loop
    # over w's (B, n, n) int16 arrays, with the batch-inner copies of these graph-major
    # stacks, trace about 1.7
    rng = np.random.default_rng(24)
    adjacency = adjacency_of([random_connected(24, rng) for _ in range(256)])
    distances = _dense_distances(adjacency)
    tracemalloc.start()
    try:
        batch_boundary(adjacency, distances)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def stack_of_48(family):
    """(graphs, batch) of 256 graphs of 48 vertices: random ones, with a dozen or so
    layers, or single-edge flips of a path, with up to 47."""
    rng = np.random.default_rng(48)
    if family == "random":
        graphs = [random_connected(48, rng) for _ in range(256)]
    else:
        extra = [(u, w) for u in range(48) for w in range(u + 2, 48)]
        graphs = [validate([(v, v + 1) for v in range(47)] + [extra[k]], 48)
                  for k in rng.choice(len(extra), 256, replace=False)]
    adjacency = adjacency_of(graphs)
    return graphs, batch_boundary(adjacency, _dense_distances(adjacency))


def traced_run(check, batch):
    """(pass vector, traced peak in bytes) of ``_BATCH_RUNNERS[check]`` on ``batch``."""
    tracemalloc.start()
    try:
        passed = _BATCH_RUNNERS[check](batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return passed, peak


@pytest.mark.parametrize("family", ["random", "path flips"])
def test_batch_dichotomy_builds_no_n_cubed_array(family):
    # 256 graphs of 48 vertices: the (B, n, n, n) nearer compare traced 54 MiB; the
    # dichotomy now reads the sign of L f, from one loop over w per block of sources
    graphs, batch = stack_of_48(family)
    expected = [run_battery(g, ("dichotomy",), report=report_of(batch, b, g))[0].passed
                for b, g in enumerate(graphs[:8])]
    passed, peak = traced_run("dichotomy", batch)
    assert peak < 4 * 2**20
    assert passed.all() and passed[:8].tolist() == expected


@pytest.mark.parametrize("family", ["random", "path flips"])
def test_batch_laplacian_scratch_is_bounded_at_48_vertices(family):
    # the same stacks: a loop over w on whole (B, n, n) int32 arrays traced 5.6 MiB, and
    # on blocks of sources whose int16 arrays hold at most 2^16 entries it stays in cache
    graphs, batch = stack_of_48(family)
    expected = [run_battery(g, ("laplacian",), report=report_of(batch, b, g))[0].passed
                for b, g in enumerate(graphs[:8])]
    passed, peak = traced_run("laplacian", batch)
    assert peak < 2 * 2**20
    assert passed.all() and passed[:8].tolist() == expected


@pytest.mark.parametrize("leaves", range(61, 71))
def test_batch_mps_passes_stars_with_more_than_62_cejz_members(leaves):
    # the CEJZ set of a star is its leaves, so 2^|CEJZ| passes the int64 range at 63
    g = star(leaves)
    adjacency = adjacency_of([g])
    batch = batch_boundary(adjacency, _dense_distances(adjacency))
    assert batch.cejz.sum() == leaves
    assert run_batch(batch, ("mps",))["mps"].tolist() == [True]
    assert check_mps(g, boundary(g)).passed


def test_replaced_copies_recompute_the_derived_arrays():
    # a replaced copy must read its own arrays, or the corrupted-array sweep compares
    # the runners against the original's cache
    adjacency = adjacency_of([path(4), star(3)])
    batch = batch_boundary(adjacency, _dense_distances(adjacency))
    assert batch.boundary is batch.boundary  # computed once per report
    before = {name: getattr(batch, name).copy()
              for name in ("degrees", "max_degree", "m", "diameter", "boundary", "steps")}
    cycle = batch.adjacency.copy()
    cycle[0, 0, 3] = cycle[0, 3, 0] = True  # the path 0-1-2-3 closed into a 4-cycle
    far = batch.distances.copy()
    far[0, 0, 3] = far[0, 3, 0] = 5
    empty = np.zeros_like(batch.slices)
    closed = dataclasses.replace(batch, adjacency=cycle)
    assert (closed.degrees == cycle.sum(axis=2)).all() and closed.degrees[0, 0] == 2
    assert closed.m.tolist() == [4, 3] and closed.max_degree.tolist() == [2, 3]
    stretched = dataclasses.replace(batch, distances=far)
    assert stretched.diameter.tolist() == [5, 2]
    shortcut = batch.distances.copy()
    shortcut[0, 0, 3] = 1  # from source 0, vertex 3 is now nearer than its neighbor 2
    assert before["steps"][0, 0, 2] == 1 and before["steps"][0, 0, 3] == 0
    short = dataclasses.replace(batch, distances=shortcut)
    assert short.steps[0, 0, 2] == 0 and short.steps[0, 0, 3] == 1
    cleared = dataclasses.replace(batch, slices=empty)
    assert not cleared.boundary.any() and before["boundary"].any(axis=1).all()
    for name, value in before.items():  # the original keeps its own values
        assert (getattr(batch, name) == value).all()
    assert batch.m.tolist() == [3, 3] and batch.diameter.tolist() == [3, 2]


def test_reports_compare_by_identity():
    # the generated eq compared the array fields as tuples, and so raised on the
    # truth value of an elementwise comparison of more than one graph
    [(_, _, adjacency, distances)] = connected_chunks(3)
    first, second = batch_boundary(adjacency, distances), batch_boundary(adjacency, distances)
    assert len(first) > 1
    assert first == first and first != second and first != dataclasses.replace(first)
    assert len({first, second}) == 2


def test_cejz_outside_the_boundary_raises():
    adjacency = np.array([[[False, True], [True, False]]])
    with pytest.raises(InvariantViolation, match="CEJZ boundary escaped"):
        batch_boundary(adjacency, np.zeros((1, 2, 2), dtype=np.int8))


def test_enum_sweep_to_6_stays_chunked(tmp_path, capsys):
    # all 32768 masks of n = 6 in one pass trace 32 MiB; chunks of ENUM_CHUNK trace 1.75 MiB
    tracemalloc.start()
    try:
        out = str(tmp_path / "o")
        assert main(["verify", "--family", "enum", "--nmax", "6", "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert capsys.readouterr() == ("", "")
