"""The dense route of the battery's L f walk against the incidence route and the oracle.

Dense graphs (``verify.walk_route`` names them "product") take L f_v from one
float32 product per group of sources, with a Laplacian read off the graph's
CSR, and read their long steps off row gathers of the transposed group.
Sparse graphs, and any group past the exactness bound 2 delta max|d| < 2^24,
keep the incidence route. Forced through either route by ``routes.forced``,
every outcome must be the same, detail strings included: on corrupted arrays
(slice bits, entries moved by 1 or 2, negative entries, widened slices), on
K_n up to n = 600 and on dense G(n, p); on n <= 6, see ``tests/exhaustive.py``.
``tests/oracle.py`` is the reference where it runs fast enough.
"""

import dataclasses
import importlib
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from oracle import laplacian_matrix
from routes import counted, forced
from test_battery_blocks import CHECKS, dichotomy_reference, flipped, laplacian_reference
from test_distance_pass import flip_bits
from test_enum_batch import corruptions, graphs_of, report_of, step_corruptions
from traced import traced
from graphboundary import boundary, is_connected, run_battery, validate
from graphboundary import verify
from graphboundary.boundary import batch_boundary
from graphboundary.generators import (
    DomainSpec,
    complete,
    connected_chunks,
    cycle,
    erdos_renyi,
    grid,
    lattice_discretize,
    path,
    random_tree,
)
from graphboundary.verify import CheckOutcome

kernel = importlib.import_module("graphboundary.boundary")


def both_routes(g, rep, checks=CHECKS):
    """The outcomes of ``checks`` on the incidence route, after asserting the dense route's
    are the same."""
    with forced("walk", "incidence"):
        want = run_battery(g, checks, report=rep)
    with forced("walk", "product"):
        assert run_battery(g, checks, report=rep) == want
    return want


def passing(n):
    return [CheckOutcome(c, True, f"sources={n}") for c in CHECKS]


def test_product_route_equals_the_incidence_route_on_corrupted_arrays():
    # every graph with n <= 4: one slice bit, one entry moved by 1, one CEJZ bit or all
    # slices cleared, then one entry set to -1 or moved by 2; both routes give the same
    # outcomes, and every kind of failure is reached
    failing = Counter()
    for n_max in range(1, 5):
        [(sizes, masks, adjacency, distances)] = connected_chunks(n_max)
        batch = batch_boundary(adjacency, distances)
        for b, g in enumerate(graphs_of(n_max, sizes, masks)):
            kinds = [("moved by 1", bad) for bad in corruptions(batch, b, g.n)]
            for kind, bad in kinds + list(step_corruptions(batch, b, g.n)):
                outcomes = both_routes(g, report_of(bad, b, g))
                failing.update((kind, oc.check) for oc in outcomes if not oc.passed)
    assert {kind for kind, _ in failing} == {"moved by 1", "negative", "up by 2", "down by 2"}
    assert {check for _, check in failing} == set(CHECKS)


@pytest.mark.parametrize("g", [grid(4, 5).graph, cycle(9), erdos_renyi(30, 0.3, 7)],
                         ids=["grid", "cycle", "gnp"])
def test_widened_slices_give_the_same_outcomes_on_both_routes(g):
    # a middle-layer vertex put into v's slice fails the laplacian at v and passes the
    # dichotomy's recount, on either route
    rep = boundary(g)
    widened = 0
    for v, row in enumerate(rep.distances.tolist()):
        for u, d in enumerate(row):
            if 0 < d < max(row) and u not in rep.slices[v].members:
                assert both_routes(g, flip_bits(rep, [(v, u)])) == [
                    CheckOutcome("laplacian", False, f"mismatch at source {v}"),
                    CheckOutcome("dichotomy", True, f"sources={g.n}")]
                widened += 1
    assert widened >= g.n


@pytest.mark.parametrize("n", [128, 300, 600])
def test_complete_graphs_take_the_product_and_agree_with_both_references(n):
    # K_n from one full group of rows up; the laplacian's oracle reference runs at every
    # n, the dichotomy's only on the smallest, where its per-source Python count is quick
    g = complete(n)
    rep = boundary(g)
    assert verify.walk_route(g) == "product"
    patch, products = counted(verify, "_product_laplacian")
    with patch:
        outcomes = run_battery(g, CHECKS, report=rep)
    assert outcomes == passing(n) and len(products) == -(-n // verify.PRODUCT_ROWS)
    assert both_routes(g, rep) == outcomes
    assert outcomes[0] == laplacian_reference(g, rep)
    if n == 128:
        assert outcomes[1] == dichotomy_reference(g, rep)


def test_corrupted_complete_graph_gives_the_same_outcomes_on_both_routes():
    # K_130 is a group of 128 rows and one of 2. On it every row spans 0..1, so no row is
    # gathered for long steps until an entry is moved: each corruption, in either group,
    # gets the incidence route's outcomes, detail strings included
    g = complete(130)
    rep = boundary(g)
    seen = set()
    for v in (3, 129):
        for u, value in ((0, 2), (v - 1, 3), (v - 2, -1), (v - 3, 0)):
            dist = rep.distances.copy()
            dist[v, u] = value
            bad = dataclasses.replace(rep, distances=dist)
            seen.update(oc.detail for oc in both_routes(g, bad))
        seen.update(oc.detail for oc in both_routes(g, flip_bits(rep, [(v, (v + 1) % g.n)])))
    assert {"mismatch at source 3", "negative distance (source 3)",
            "outermost layer not fully in the slice (source 3)"} <= seen


@st.composite
def dense_graphs(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.floats(min_value=0.2, max_value=1.0))
    g = erdos_renyi(n, p, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if not is_connected(g):  # join it along a path, keeping it dense
        g = validate(sorted(set(g.edges()) | {(u, u + 1) for u in range(n - 1)}), n)
    return g


@settings(max_examples=60, deadline=None)
@given(dense_graphs(2, 40), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_product_route_equals_the_references_on_dense_graphs(g, size, flips, seed):
    # forced through the product in groups of ``size`` sources, with slice bits flipped
    rep = flipped(boundary(g), np.random.default_rng(seed), flips)
    want = [laplacian_reference(g, rep), dichotomy_reference(g, rep)]
    with mock.patch.object(verify, "PRODUCT_ROWS", size):
        assert both_routes(g, rep) == want


@settings(max_examples=12, deadline=None)
@given(dense_graphs(verify.PRODUCT_ROWS, 180))
def test_dense_graphs_past_one_group_take_the_product_unforced(g):
    rep = boundary(g)
    assert verify.walk_route(g) == "product"
    with forced("walk", "incidence"):
        want = run_battery(g, CHECKS, report=rep)
    assert run_battery(g, CHECKS, report=rep) == want == passing(g.n)


def test_rule_sends_sparse_and_large_graphs_to_the_incidence_route():
    # the floor PRODUCT_MIN_N = 48 sends K_127 and path 48 to the product, K_47 not
    dense = {"K_600": complete(600), "G(400, 0.05)": erdos_renyi(400, 0.05, 1),
             "K_127": complete(127), "path 48": path(48)}
    lollipop = validate([(u, w) for u in range(40) for w in range(u + 1, 40)]
                        + [(39 + i, 40 + i) for i in range(2000)], 2040)
    sparse = {"annulus": lattice_discretize(DomainSpec("annulus", (0.4, 1.0), 0.08, None)).graph,
              "grid 60x60": grid(60, 60).graph, "path 8000": path(8000),
              "cycle 2000": cycle(2000), "lollipop": lollipop,
              "random_tree(2000, 1)": random_tree(2000, 1), "K_47": complete(47)}
    assert {name: verify.walk_route(g) for name, g in {**dense, **sparse}.items()} == {
        **dict.fromkeys(dense, "product"), **dict.fromkeys(sparse, "incidence")}
    with mock.patch.object(verify, "PRODUCT_MAX_N", 599):
        assert verify.walk_route(dense["K_600"]) == "incidence"
    with mock.patch.object(verify, "PRODUCT_MIN_N", 128):
        assert verify.walk_route(dense["K_127"]) == "incidence"
    with mock.patch.object(verify, "PRODUCT_DENSITY", 19):
        assert verify.walk_route(dense["G(400, 0.05)"]) == "incidence"


@pytest.mark.parametrize("patch", ["exactness bound", "cap"])
def test_patched_bound_or_cap_sends_the_walk_to_the_incidence_route(patch):
    g = complete(300)
    rep = boundary(g)
    bad = flip_bits(rep, [(200, 7)])
    products, product_calls = counted(verify, "_product_laplacian")
    incidences, incidence_calls = counted(verify, "_incidence_laplacian")
    limit = ("FLOAT32_EXACT", 1) if patch == "exactness bound" else ("PRODUCT_MAX_N", 299)
    with products, incidences, mock.patch.object(verify, *limit):
        outcomes = run_battery(g, CHECKS, report=bad)
    with forced("walk", "incidence"):
        assert outcomes == run_battery(g, CHECKS, report=bad)
    assert outcomes[0].detail == "mismatch at source 200"
    assert not product_calls and incidence_calls


def test_a_group_past_the_exactness_bound_takes_the_incidence_route():
    # K_300 has delta = 299, so an entry of 30 000 puts 2 delta max|d| past 2^24 in the
    # group of sources 256..299 alone; the other two groups keep the product
    g = complete(300)
    rep = boundary(g)
    dist = rep.distances.copy()
    dist[260, 5] = 30000
    bad = dataclasses.replace(rep, distances=dist)
    products, product_calls = counted(verify, "_product_laplacian")
    incidences, incidence_calls = counted(verify, "_incidence_laplacian")
    with products, incidences:
        outcomes = run_battery(g, CHECKS, report=bad)
    with forced("walk", "incidence"):
        assert outcomes == run_battery(g, CHECKS, report=bad)
    # row 260 is recounted for its long steps, and its layers pass: the walk covers every
    # group, and the last one in 44 sub-blocks of one source, as m > EDGE_BUDGET
    assert [oc.detail for oc in outcomes] == ["mismatch at source 260", "sources=300"]
    assert len(product_calls) == 2 and len(incidence_calls) == 44


@pytest.mark.parametrize("n, top", [(257, 2**15 - 1), (300, 2**24 // 600), (600, 2**24 // 1200)])
def test_product_is_exact_up_to_the_bound(n, top):
    # rows of int16 entries with max|f| just under 2^24 / (2 delta), on K_n: every entry of
    # the product equals the int64 product; at delta = 256 that is every int16 row
    g = complete(n)
    assert 2 * g.max_degree * top < verify.FLOAT32_EXACT
    rng = np.random.default_rng(n)
    rows = rng.integers(-top, top, size=(8, n), endpoint=True).astype(np.int16)
    rows[:, :4] = [top, -top, top, -top]
    lap = verify._dense_laplacian(g)
    assert (lap == laplacian_matrix(g)).all()
    f, prod = np.empty((8, n), np.float32), np.empty((8, n), np.float32)
    lf = np.empty((8, n), np.int32)
    verify._product_laplacian(rows, lap, f, prod, lf)
    assert (lf == rows.astype(np.int64) @ laplacian_matrix(g)).all()


@given(st.lists(st.lists(st.integers(0, 2**15 - 1), min_size=6, max_size=6), min_size=6,
                max_size=6), st.integers(min_value=1, max_value=64))
def test_long_steps_are_the_rows_with_an_edge_step_over_1(rows, budget):
    # any nonnegative int16 matrix on a 6-cycle with a chord, in edge blocks of any budget
    g = validate([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)], 6)
    rep = dataclasses.replace(boundary(g), distances=np.array(rows, np.int16))
    want = [any(abs(r[t] - r[h]) > 1 for t, h in g.edges()) for r in rows]
    with mock.patch.object(kernel, "_STEP_BUDGET", budget):
        assert rep.long_steps(*verify._edge_ends(g)).tolist() == want


def test_rows_that_span_at_most_1_are_not_gathered():
    # K_600's rows hold only 0 and 1, so no edge can step by 2: nothing is transposed or
    # gathered, where the transposed copy alone would trace 0.69 MiB
    g = complete(600)
    rep = boundary(g)
    ends = verify._edge_ends(g)
    long, peak = traced(rep.long_steps, *ends)
    assert not long.any() and peak < 2**16
