"""The padded neighbor layout of ``boundary()`` against the plain-Python slice and the oracle.

Every neighbor list is padded with its own vertex up to the width of its
class, and the pads must change no slice, no CEJZ verdict and no witness.
The pinned graphs put vertices on both sides of the class edges (degrees
4 | 5, 8 | 9, 16 | 17 and 33), and every graph runs with one row per block,
three rows per block and the default block, so that several blocks and a
short last block are evaluated. A star of 300 leaves and a random tree of
300 vertices put the members of several classes in scattered vertex order.
"""

import importlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from graphboundary import (
    DomainSpec,
    bfs_distances,
    boundary,
    boundary_slice,
    core,
    erdos_renyi,
    lattice_discretize,
    random_tree,
    validate,
)
from graphboundary.generators import complete, grid, path, star

kernel = importlib.import_module("graphboundary.boundary")

BLOCKS = [(1, 0), (3, 0), (core.ROW_BLOCK, kernel.GATHER_BUDGET)]  # (ROW_BLOCK, GATHER_BUDGET)


def hub_chain(degrees):
    """Hubs 0..k - 1 of the given degrees, each joined to the next by a path of 3 edges, plus leaves."""
    edges = []
    n = len(degrees)
    for hub in range(len(degrees) - 1):
        edges += [(hub, n), (n, n + 1), (n + 1, hub + 1)]
        n += 2
    for hub, d in enumerate(degrees):
        links = (hub > 0) + (hub < len(degrees) - 1)
        edges += [(hub, n + j) for j in range(d - links)]
        n += d - links
    return validate(edges, n)


def hub_on_path(d, length=6):
    """A hub of degree d: a path of ``length`` edges from it, and d - 1 leaves."""
    edges = [(i, i + 1) for i in range(length)] + [(0, length + j) for j in range(1, d)]
    return validate(edges, length + d)


def star_and_clique(leaves, k):
    """A star with ``leaves`` leaves whose center is joined to one vertex of K_k."""
    clique = [(leaves + 1 + a, leaves + 1 + b) for a in range(k) for b in range(a + 1, k)]
    return validate([(0, j) for j in range(1, leaves + 1)] + clique + [(0, leaves + 1)],
                    leaves + 1 + k)


PINNED = {
    "K_1": validate([], 1),
    "K_2": path(2),
    "P_3": path(3),
    "hub_chain": hub_chain((4, 5, 8, 9, 16, 17, 33)),
    **{f"hub_{d}_on_path": hub_on_path(d) for d in (4, 5, 8, 9, 16, 17, 33)},
    "star_and_clique": star_and_clique(9, 8),
    "star_33": star(33),
    "K_17": complete(17),
}


@st.composite
def hubbed_graphs(draw):
    """Random trees, whose parent draws shrink toward vertex 0 and so make hubs, plus extra edges."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = {(draw(st.integers(min_value=0, max_value=u - 1)), u) for u in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=2 * n)) if p[0] != p[1]}
    return validate(sorted(edges), n)


def reports_at_every_block(g):
    """``boundary(g)`` with each of the BLOCKS settings."""
    for block, budget in BLOCKS:
        with mock.patch.object(core, "ROW_BLOCK", block), \
                mock.patch.object(kernel, "GATHER_BUDGET", budget):
            yield boundary(g)


def first_certifiers(slices):
    """The smallest source whose slice holds u, for every u in some slice."""
    witness = {}
    for v, members in enumerate(slices):
        for u in members:
            witness.setdefault(u, v)
    return witness


def assert_exact(g):
    """Every block size gives the slices, CEJZ set and witnesses of the references."""
    edges = list(g.edges())
    dist = oracle.floyd_warshall(g.n, edges)
    slices = [boundary_slice(g, bfs_distances(g, v)) for v in range(g.n)]
    assert slices == [oracle.slice_members(g.n, edges, v, dist) for v in range(g.n)]
    witness = first_certifiers(slices)
    cejz = tuple(sorted(oracle.cejz(g.n, edges)))
    for rep in reports_at_every_block(g):
        assert [sl.members for sl in rep.slices] == slices
        assert rep.witness == witness
        assert rep.boundary == tuple(sorted(witness))
        assert rep.cejz_boundary == cejz


@pytest.mark.parametrize("name", PINNED)
def test_pinned_graphs_equal_the_references(name):
    assert_exact(PINNED[name])


@settings(max_examples=60, deadline=None)
@given(hubbed_graphs())
def test_hypothesis_graphs_equal_the_references(g):
    assert_exact(g)


@pytest.mark.parametrize("g", [star(300), random_tree(300, 1)],
                         ids=["star_300", "random_tree_300"])
def test_scattered_classes_equal_the_definitions(g):
    """Several classes whose members interleave in vertex order, against BFS rows."""
    assert len(kernel._padded_layout(g)) > 1
    rows = [bfs_distances(g, v) for v in range(g.n)]
    slices = [boundary_slice(g, row) for row in rows]
    cejz = tuple(u for u in range(g.n) if any(
        all(row[w] <= row[u] for w in g.adjacency[u]) for row in rows))
    witness = first_certifiers(slices)
    for rep in reports_at_every_block(g):
        assert [sl.members for sl in rep.slices] == slices
        assert rep.witness == witness
        assert rep.cejz_boundary == cejz


@pytest.mark.parametrize("name", PINNED)
def test_layout_pads_each_list_with_its_own_vertex(name):
    g = PINNED[name]
    classes = kernel._padded_layout(g)
    verts = [np.arange(g.n)[members].tolist() for members, _, _ in classes]
    assert sorted(sum(verts, [])) == list(range(g.n))
    assert all(ids == sorted(ids) for ids in verts)
    for ids, (_, w, slots) in zip(verts, classes):
        assert slots.shape == (w, len(ids))
        for i, u in enumerate(ids):
            assert sorted(slots[:, i].tolist()) == sorted([*g.adjacency[u], *[u] * (w - g.degree(u))])


def test_widths_keep_the_top_three_bits_of_the_degree():
    g = PINNED["hub_chain"]
    classes = kernel._padded_layout(g)
    assert [w for _, w, _ in classes] == [1, 2, 4, 5, 8, 10, 16, 20, 40]
    for members, w, _ in classes:
        for u in members.tolist():
            d = g.degree(u)
            assert d <= w < d + max(1, d / 4)


ONE_CLASS = {
    "path_600": path(600),
    "K_40": complete(40),
    "grid_8x8": grid(8, 8).graph,
    "annulus_0.08": lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.08)).graph,
}


@pytest.mark.parametrize("name", ONE_CLASS)
def test_near_regular_graphs_take_one_class_in_vertex_order(name):
    # padding every list to Delta costs at most 2n slots more than the classes would
    g = ONE_CLASS[name]
    [(members, w, slots)] = kernel._padded_layout(g)
    assert (members, w, slots.shape) == (slice(None), g.max_degree, (g.max_degree, g.n))


@pytest.mark.parametrize("g", [random_tree(600, 1), erdos_renyi(400, 0.02, 12345)],
                         ids=["random_tree_600", "gnp_400"])
def test_skewed_degrees_take_several_classes(g):
    classes = kernel._padded_layout(g)
    assert len(classes) > 1
    assert all(isinstance(members, np.ndarray) for members, _, _ in classes)


def test_sparse_graphs_take_more_rows_per_block():
    gathered = []
    packbits = np.packbits

    def spy(member, *args, **kwargs):  # one call per block, on its slice rows
        gathered.append(len(member))
        return packbits(member, *args, **kwargs)

    with mock.patch.object(np, "packbits", spy):
        boundary(path(600))
    assert gathered == [54] * 11 + [6]  # 2^16 // (2 * 600) rows, then what is left
    gathered.clear()
    with mock.patch.object(np, "packbits", spy):
        boundary(complete(40))
    assert gathered == [40]
