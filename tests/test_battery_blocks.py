"""The battery's laplacian and dichotomy checks, two verdicts on one walk over
a report's blocks of sources, against the per-source references in ``oracle``:
``laplacian_slice`` through the literal matrix, and ``layer_decompose`` plus
``check_dichotomy``. Slices are flipped at random so that failing outcomes,
detail strings included, are compared too, at several block sizes and edge
budgets: the budget cuts blocks into sub-blocks of sources, each with one L f.
The dichotomy decides a row from the sign of L f: where no edge steps by more
than 1, a layer's sum of L f is its cross-edge difference and |L f| <= deg <=
delta, so where also L f > 0 exactly on the slice every layer inequality
holds and only the outermost layer's containment can fail. The identity and
the bound are checked on the oracle alone. Rows that break a premise (a
slice that is not the positive part of L f, an edge that steps by 2, a
negative entry) are recounted, and each kind is checked against the
reference or its own detail. ``verify._dichotomy_detail``, the one-row
recount that writes a failing dichotomy's detail, is held to the same
reference on every source row of every connected graph with n <= 5."""

import dataclasses
import re
import tracemalloc
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from oracle import (
    check_dichotomy,
    floyd_warshall,
    laplacian_matrix,
    laplacian_slice,
    layer_decompose,
    slice_members,
)
from test_distance_pass import flip_bits, graphs_and_long_paths
from test_properties import connected_graphs
from graphboundary import (
    InvariantViolation,
    boundary,
    enumerate_connected,
    run_battery,
)
from graphboundary import core, verify
from graphboundary.generators import complete, cycle, erdos_renyi, grid, path, random_tree
from graphboundary.verify import CheckOutcome

CHECKS = ("laplacian", "dichotomy")


def laplacian_reference(g, rep):
    lap = laplacian_matrix(g)
    for v, row in enumerate(rep.distances.tolist()):
        if laplacian_slice(g, row, lap) != rep.slices[v].members:
            return CheckOutcome("laplacian", False, f"mismatch at source {v}")
    return CheckOutcome("laplacian", True, f"sources={g.n}")


def reference_detail(g, v, row, members):
    """check_dichotomy's message for source v's layers, or None where they pass."""
    try:
        check_dichotomy(layer_decompose(g, v, row, members), g.max_degree)
    except InvariantViolation as exc:
        return str(exc)
    return None


def dichotomy_reference(g, rep):
    for v, row in enumerate(rep.distances.tolist()):
        detail = reference_detail(g, v, row, sorted(rep.slices[v].members))
        if detail is not None:
            return CheckOutcome("dichotomy", False, detail)
    return CheckOutcome("dichotomy", True, f"sources={g.n}")


def flipped(rep, rng, flips):
    return flip_bits(rep, rng.integers(rep.n, size=(flips, 2)).tolist())


# edge budgets: one source per sub-block; 7, which splits blocks unevenly on these
# small graphs; the default
BUDGETS = (1, 7, verify.EDGE_BUDGET)


def block_outcomes(g, rep, block):
    want = [laplacian_reference(g, rep), dichotomy_reference(g, rep)]
    for budget in BUDGETS:
        with mock.patch.object(core, "ROW_BLOCK", block), \
                mock.patch.object(verify, "EDGE_BUDGET", budget):
            assert run_battery(g, CHECKS, report=rep) == want
    return want


def test_block_checks_equal_references_on_all_small_graphs():
    rng = np.random.default_rng(2201)
    details = set()
    count = 0
    for g in enumerate_connected(5):
        rep = boundary(g)
        block = 1 + count % 8
        assert all(oc.passed for oc in block_outcomes(g, rep, block))
        for flips in (1, 2, 3):
            details.add(block_outcomes(g, flipped(rep, rng, flips), block)[1].detail)
        count += 1
    assert count == 772
    # both slice-dependent messages of check_dichotomy are reached, the mid-layer one
    # included; "too many edges into the outermost layer" depends on the distances alone
    kinds = {d.split(" (source")[0].split(" at layer")[0] for d in details}
    assert kinds == {f"sources={n}" for n in range(1, 6)} | {
        "dichotomy failed",
        "outermost layer not fully in the slice",
    }


@given(graphs_and_long_paths, st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_block_checks_equal_references_at_any_block_size(g, block, flips, seed):
    rep = boundary(g)
    block_outcomes(g, flipped(rep, np.random.default_rng(seed), flips), block)


# (source, edge) entries of every kind of cut between layers: bipartite layers cross on
# every entry; C_9 and G(30, 0.3) mix crossing and internal entries; in K_7 an edge
# crosses layers only from its own two ends. An internal edge adds nothing to a layer
# sum of L f, a crossing one adds 1 at its outer end and -1 at its inner end. Blocks of
# one source and of several are compared
CHUNK_KINDS = {
    "all cross": (grid(4, 5).graph, random_tree(12, 5), cycle(8)),
    "mixed": (cycle(9), erdos_renyi(30, 0.3, 7)),
    "almost none": (complete(7),),
}


def cross_share(g, rep):
    """The share of (source, edge) pairs whose ends lie in different layers."""
    tails, heads = np.array(list(g.edges())).T
    return np.mean(rep.distances[:, tails] != rep.distances[:, heads])


@pytest.mark.parametrize("kind", CHUNK_KINDS)
def test_dichotomy_chunks_of_every_kind_equal_the_reference(kind):
    rng = np.random.default_rng(2102)
    for g in CHUNK_KINDS[kind]:
        rep = boundary(g)
        share = cross_share(g, rep)
        assert {"all cross": share == 1, "mixed": 0 < share < 1,
                "almost none": share == 2 / g.n}[kind]
        for flips in range(4):
            bad = flipped(rep, rng, flips)
            for block in (1, 3, core.ROW_BLOCK):
                block_outcomes(g, bad, block)


def test_dichotomy_mid_layer_failure_names_the_layer():
    # from the corner of a 5 x 5 grid, 8 edges enter layer 5 and 6 leave it, so the
    # inequality at layer 5 rests on the layer's two slice members
    g = grid(5, 5).graph
    rep = boundary(g)
    bad = flip_bits(rep, [(0, u) for u in rep.slices[0].members if rep.distances[0, u] == 5])
    (outcome,) = run_battery(g, ("dichotomy",), report=bad)
    assert outcome == dichotomy_reference(g, bad)
    assert outcome.detail == "dichotomy failed at layer 5 (source 0)"


def test_dichotomy_detail_equals_the_reference_on_every_row():
    # every source row, not only the first one flagged, as it stands and with 1-3 of its
    # slice bits flipped: the recount returns None exactly where the reference passes
    rng = np.random.default_rng(2402)
    kinds = Counter()
    for g in enumerate_connected(5):
        rep = boundary(g)
        tails, heads = verify._edge_ends(g)
        for v, row in enumerate(rep.distances):
            for flips in range(4):
                member = rep.slice_rows(v, v + 1)[0].copy()
                member[rng.choice(g.n, size=min(flips, g.n), replace=False)] ^= True
                want = reference_detail(g, v, row.tolist(), np.flatnonzero(member).tolist())
                got = verify._dichotomy_detail(row, member, tails, heads, g.max_degree, v)
                assert got == want
                assert got is None or flips
                kinds[got and got.split(" (source")[0].split(" at layer")[0]] += 1
    # both slice-dependent messages are reached, and passing rows too, flipped or not
    assert set(kinds) == {None, "dichotomy failed", "outermost layer not fully in the slice"}
    assert min(kinds.values()) >= 20


def test_dichotomy_routes_that_disagree_raise(monkeypatch):
    g = grid(5, 5).graph
    rep = boundary(g)
    bad = flip_bits(rep, [(7, u) for u in rep.slices[7].members])
    monkeypatch.setattr(verify, "_dichotomy_detail", lambda *args: None)
    with pytest.raises(InvariantViolation, match="flags source 7"):
        run_battery(g, ("dichotomy",), report=bad)


def spied_recounts(monkeypatch):
    """The sources that ``verify._dichotomy_detail`` is called for, in call order."""
    real = verify._dichotomy_detail
    sources = []

    def spy(*args):
        sources.append(args[-1])
        return real(*args)

    monkeypatch.setattr(verify, "_dichotomy_detail", spy)
    return sources


@pytest.mark.parametrize("g", [grid(4, 5).graph, cycle(9), erdos_renyi(30, 0.3, 7)],
                         ids=["grid", "cycle", "gnp"])
def test_a_slice_widened_in_a_middle_layer_is_recounted_and_passes(g, monkeypatch):
    # a vertex of a middle layer put into v's slice only loosens v's layer inequalities,
    # so the reference passes; the laplacian fails at v, and the row is recounted, as a
    # mismatched row, and passes without raising
    rep = boundary(g)
    recounted = spied_recounts(monkeypatch)
    widened = 0
    for v, row in enumerate(rep.distances.tolist()):
        for u, d in enumerate(row):
            if 0 < d < max(row) and u not in rep.slices[v].members:
                bad = flip_bits(rep, [(v, u)])
                recounted.clear()
                want = dichotomy_reference(g, bad)
                assert want.passed
                assert run_battery(g, CHECKS, report=bad) == [
                    CheckOutcome("laplacian", False, f"mismatch at source {v}"), want]
                assert recounted == [v]
                widened += 1
    assert widened >= g.n


@pytest.mark.parametrize("checks", [("dichotomy",), CHECKS], ids=["alone", "both"])
def test_rows_with_a_negative_entry_fail_the_dichotomy(checks):
    # no hop distance is negative. Row 2 of the path 0-1-2-3-4 with -1 at vertex 4 steps
    # by 2 along edge (3, 4), where a layer count of -1 cannot be made; shifted down by 1
    # it keeps every step and L f, and so every slice. Either row is recounted and fails
    # on its negative entry first
    g = path(5)
    rep = boundary(g)
    for row in ([2, 1, 0, 1, -1], [1, 0, -1, 0, 1]):
        dist = rep.distances.copy()
        dist[2] = row
        bad = dataclasses.replace(rep, distances=dist)
        *lap, outcome = run_battery(g, checks, report=bad)
        assert outcome == CheckOutcome("dichotomy", False, "negative distance (source 2)")
        assert lap == [laplacian_reference(g, bad)] * (len(checks) - 1)


def test_block_checks_hold_no_n_by_n_int64_array():
    g = path(1200)
    rep = boundary(g)
    tracemalloc.start()
    try:
        outcomes = run_battery(g, CHECKS, report=rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(oc.passed for oc in outcomes)
    assert peak < g.n ** 2 * 8 // 4


def traced_peak(g, checks):
    rep = boundary(g)
    tracemalloc.start()
    try:
        outcomes = run_battery(g, checks, report=rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(oc.passed for oc in outcomes)
    return peak


def test_laplacian_scratch_is_bounded_on_dense_graphs():
    # flat intp keys of both ends of every edge for a block of 32 sources traced 38.4 MiB
    # on this graph; sub-blocks of EDGE_BUDGET // m sources (here one) trace about 1.5 MiB
    assert traced_peak(complete(300), ("laplacian",)) < 4 * 2**20


def test_dichotomy_builds_no_flat_edge_keys():
    # flat intp keys of both ends of every edge, for a whole block of sources, peaked at
    # 39.8 MiB traced on this graph, and int32 layer keys gathered for all edges at once
    # at 18.6 MiB; the dichotomy walks the laplacian's sub-blocks of EDGE_BUDGET // m
    # sources, whose keys hold max(EDGE_BUDGET, m) entries, alone or with the laplacian
    assert traced_peak(complete(300), ("dichotomy",)) < 4 * 2**20
    assert traced_peak(complete(300), CHECKS) < 4 * 2**20


def assert_divergence_identity(g):
    # with f = d(v, .), whose steps along an edge are at most 1, the sum of L f over a
    # layer A_j is |E(A_{j-1}, A_j)| - |E(A_j, A_{j+1})|; all from the oracle
    lap = laplacian_matrix(g)
    for v in range(g.n):
        ld = layer_decompose(g, v)
        f = np.zeros(g.n, np.int64)
        for j, layer in enumerate(ld.layers):
            f[list(layer)] = j
        lf = lap @ f
        cross = (0, *ld.cross_edges, 0)  # cross[j] = |E(A_{j-1}, A_j)|, none into A_0 or A_{ell+1}
        assert [int(lf[list(layer)].sum()) for layer in ld.layers] == [
            cross[j] - cross[j + 1] for j in range(ld.ell + 1)]


def test_layer_sums_of_lf_are_the_cross_edge_differences_on_all_small_graphs():
    count = 0
    for g in enumerate_connected(5):
        assert_divergence_identity(g)
        count += 1
    assert count == 772


@given(connected_graphs(min_n=1, max_n=12))
def test_layer_sums_of_lf_are_the_cross_edge_differences(g):
    assert_divergence_identity(g)


def assert_lf_within_degree_and_positive_on_the_slice(g):
    # with f = d(v, .) from Floyd-Warshall, -deg(u) <= (L f)(u) <= deg(u), since every
    # edge steps by at most 1, and (L f)(u) > 0 exactly on the slice of v, both by the
    # matrix route and by the Fraction average; all from the oracle
    edges = list(g.edges())
    dist = floyd_warshall(g.n, edges)
    lap = laplacian_matrix(g)
    deg = np.diag(lap)
    for v in range(g.n):
        row = [dist[u][v] for u in range(g.n)]
        lf = lap @ np.array(row, np.int64)
        assert (-deg <= lf).all() and (lf <= deg).all()
        positive = set(np.flatnonzero(lf > 0).tolist())
        assert positive == laplacian_slice(g, row, lap) == slice_members(g.n, edges, v, dist)


def test_lf_is_within_the_degree_and_positive_on_the_slice_on_all_small_graphs():
    count = 0
    for g in enumerate_connected(5):
        assert_lf_within_degree_and_positive_on_the_slice(g)
        count += 1
    assert count == 772


@given(connected_graphs(min_n=1, max_n=12))
def test_lf_is_within_the_degree_and_positive_on_the_slice(g):
    assert_lf_within_degree_and_positive_on_the_slice(g)


def steps_of_two(g, rep):
    """Copies of ``rep`` with one entry d(v, u) moved by 1, so that exactly one edge at u
    steps by 2 in row v: every such entry of every row."""
    tails, heads = np.array(list(g.edges())).T
    for v, row in enumerate(rep.distances.tolist()):
        for u in range(g.n):
            for step in (1, -1):
                if row[u] + step < 0:
                    continue
                moved = np.array(row)
                moved[u] += step
                if np.count_nonzero(abs(moved[tails] - moved[heads]) > 1) == 1:
                    dist = rep.distances.copy()
                    dist[v, u] += step
                    yield dataclasses.replace(rep, distances=dist)


# graph -> the verdicts its rows with one step of 2 get: on the grid every such row
# passes, so each is a recounted row whose recount passes it and that must not raise
STEPPED = {"path": (path(7), {True, False}), "grid": (grid(4, 5).graph, {True}),
           "cycle": (cycle(9), {True, False})}


@pytest.mark.parametrize("name", STEPPED)
def test_rows_that_step_by_two_are_recounted(name):
    # the layer sums of L f are the cross-edge differences only where every edge steps by
    # at most 1; a row where one edge steps by 2 is recounted, and its outcome, pass or
    # fail, is the reference's
    g, kinds = STEPPED[name]
    verdicts = Counter()
    for bad in steps_of_two(g, boundary(g)):
        want = dichotomy_reference(g, bad)
        assert run_battery(g, ("dichotomy",), report=bad) == [want]
        assert run_battery(g, CHECKS, report=bad) == [laplacian_reference(g, bad), want]
        verdicts[want.passed] += 1
    assert set(verdicts) == kinds


def capped_rows(g, rep):
    """Copies of ``rep`` with row v capped at a level c below its eccentricity, min(d, c),
    and v's slice reset to where L f of the capped row is positive: every step stays at
    most 1 and no entry of the row mismatches, so only the containment of A_c can fail."""
    lap = laplacian_matrix(g)
    for v, row in enumerate(rep.distances.tolist()):
        for c in range(1, max(row)):
            capped = np.minimum(row, c)
            positive = set(np.flatnonzero(lap @ capped > 0).tolist())
            dist = rep.distances.copy()
            dist[v] = capped
            flips = [(v, u) for u in positive ^ rep.slices[v].members]
            yield dataclasses.replace(flip_bits(rep, flips), distances=dist)


@pytest.mark.parametrize("g", [path(7), grid(4, 5).graph, cycle(9), erdos_renyi(30, 0.3, 7)],
                         ids=["path", "grid", "cycle", "gnp"])
def test_rows_that_only_leave_the_outermost_layer_out_are_flagged(g):
    # a capped row breaks no premise of the sign argument, so it is recounted only because
    # the containment test flags it. Each fails there, as in the reference: a vertex u at
    # v's eccentricity has every neighbor at level c or above, so (L f)(u) = 0
    passed = CheckOutcome("laplacian", True, f"sources={g.n}")
    capped = 0
    for bad in capped_rows(g, boundary(g)):
        want = dichotomy_reference(g, bad)
        assert want.detail.startswith("outermost layer not fully in the slice")
        assert run_battery(g, CHECKS, report=bad) == [passed, want]
        capped += 1
    assert capped >= g.n


def counted_walks(g, rep, checks, budget, monkeypatch):
    """(outcomes, calls of the L f helper) of ``checks`` at edge budget ``budget``."""
    real = verify._incidence_laplacian
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(verify, "_incidence_laplacian", counting)
    monkeypatch.setattr(verify, "EDGE_BUDGET", budget)
    return run_battery(g, checks, report=rep), len(calls)


def walked_sub_blocks(g, budget, outcomes):
    """The sub-blocks a walk computes L f for: all of them while a check passes, else up to
    the one that holds the last of the checks' first failing sources."""
    rows = min(core.ROW_BLOCK, g.n, max(1, budget // max(g.m, 1)))
    stop = g.n - 1
    if not any(oc.passed for oc in outcomes):
        stop = max(int(re.search(r"source (\d+)", oc.detail).group(1)) for oc in outcomes)
    block = stop - stop % core.ROW_BLOCK
    return sum(-(-min(core.ROW_BLOCK, g.n - start) // rows)
               for start in range(0, block, core.ROW_BLOCK)) + (stop - block) // rows + 1


@pytest.mark.parametrize("g", [grid(9, 9).graph, cycle(70), complete(12)],
                         ids=["grid", "cycle", "complete"])
def test_both_checks_take_one_walk_in_either_order(g, monkeypatch):
    # L f is computed once per sub-block for the pair, in either order, and each outcome
    # is the reference's, in the order asked for. The walk covers every sub-block while a
    # check still passes, and stops at the sub-block where the later check first fails:
    # flipped bits of sources 1 and n - 1 fail the laplacian at source 1, and clearing
    # source 1's slice fails both checks there
    rep = boundary(g)
    last = g.n - 1
    late = flip_bits(rep, [(1, 0), (last, next(iter(rep.slices[last].members)))])
    early = flip_bits(rep, [(1, u) for u in rep.slices[1].members])
    for bad in (rep, late, early):
        want = {"laplacian": laplacian_reference(g, bad),
                "dichotomy": dichotomy_reference(g, bad)}
        for budget in BUDGETS:
            for checks in (CHECKS, CHECKS[::-1], ("laplacian",)):
                outcomes, walked = counted_walks(g, bad, checks, budget, monkeypatch)
                assert outcomes == [want[c] for c in checks]
                assert walked == walked_sub_blocks(g, budget, outcomes)
    assert not any(oc.passed for oc in want.values())  # early: both fail at source 1
    assert {re.search(r"source (\d+)", oc.detail).group(1) for oc in want.values()} == {"1"}
