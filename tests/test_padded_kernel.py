"""The padded neighbor layout of ``boundary()`` against the plain-Python slice and the oracle.

Every neighbor list is padded with its own vertex up to the width of its
class, and the pads must change no slice, no CEJZ verdict and no witness.
The pinned graphs put vertices on both sides of the class edges (degrees
4 | 5, 8 | 9, 16 | 17 and 33), and every graph runs with staging blocks of
one row and of three rows, with staging blocks of seven rows gathered two
rows at a time, and with the defaults, so that several staging blocks, a
short last staging block, several chunks of one class within a staging
block and a short last chunk are evaluated. A star of 300 leaves and a
random tree of 300 vertices put the members of several classes in
scattered vertex order.
"""

import importlib
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from oracle import boundary_slice
from graphboundary import (
    DomainSpec,
    bfs_distances,
    boundary,
    core,
    erdos_renyi,
    lattice_discretize,
    random_tree,
    validate,
)
from graphboundary.generators import complete, grid, path, star

kernel = importlib.import_module("graphboundary.boundary")

# (ROW_BLOCK, GATHER_BUDGET, staging rows): None keeps _STAGE_BUDGET, and a GATHER_BUDGET of 0
# gathers each class ROW_BLOCK rows at a time, so (2, 0, 7) stages 2 + 2 + 2 + 1 rows per block
BLOCKS = [(1, 0, 0), (3, 0, 0), (2, 0, 7), (core.ROW_BLOCK, kernel.GATHER_BUDGET, None)]


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
    for block, budget, rows in BLOCKS:
        stage = kernel._STAGE_BUDGET if rows is None else rows * g.n
        with mock.patch.object(core, "ROW_BLOCK", block), \
                mock.patch.object(kernel, "GATHER_BUDGET", budget), \
                mock.patch.object(kernel, "_STAGE_BUDGET", stage):
            yield boundary(g)


def first_certifiers(slices):
    """The smallest source whose slice holds u, for every u in some slice."""
    witness = {}
    for v, members in enumerate(slices):
        for u in members:
            witness.setdefault(u, v)
    return witness


def assert_exact(g):
    """Every block size gives the slices, CEJZ set, witnesses and diameter of the references."""
    edges = list(g.edges())
    dist = oracle.floyd_warshall(g.n, edges)
    diameter = max(max(row) for row in dist)
    slices = [boundary_slice(g, bfs_distances(g, v)) for v in range(g.n)]
    assert slices == [oracle.slice_members(g.n, edges, v, dist) for v in range(g.n)]
    witness = first_certifiers(slices)
    cejz = tuple(sorted(oracle.cejz(g.n, edges)))
    for rep in reports_at_every_block(g):
        assert [sl.members for sl in rep.slices] == slices
        assert rep.witness == witness
        assert rep.boundary == tuple(sorted(witness))
        assert rep.cejz_boundary == cejz
        assert rep.diameter == diameter


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


def staging_and_gathers(g, stage=kernel._STAGE_BUDGET):
    """The rows of each staging block and (rows, class size) of each gather in ``boundary(g)``."""
    staged, gathers = [], []
    packbits = np.packbits

    class Logged(np.ndarray):  # logs the gathers of padded slots, the one 2-D index
        def __getitem__(self, key):
            if isinstance(key, tuple) and getattr(key[-1], "ndim", 0) == 2:
                gathers.append((len(self), key[-1].shape[1]))
            return super().__getitem__(key)

    def spy(member, *args, **kwargs):  # one call per staging block, on its slice rows
        staged.append(len(member))
        return packbits(member, *args, **kwargs)

    dm = kernel.distance_matrix(g).view(Logged)
    with mock.patch.object(kernel, "distance_matrix", lambda _: dm), \
            mock.patch.object(np, "packbits", spy), \
            mock.patch.object(kernel, "_STAGE_BUDGET", stage):
        boundary(g)
    return staged, gathers


def test_sparse_graphs_take_more_rows_per_block():
    # one staging block of n <= 2^20 // n rows, then chunks of 2^16 // (2 * 600) = 54 rows
    assert staging_and_gathers(path(600)) == ([600], [(54, 600)] * 11 + [(6, 600)])
    assert staging_and_gathers(complete(40)) == ([40], [(40, 40)])
    # 100 rows a staging block, each gathered as 54 + 46
    assert staging_and_gathers(path(600), 100 * 600) == ([100] * 6, [(54, 600), (46, 600)] * 6)


def test_each_class_is_gathered_in_chunks_sized_to_the_class():
    # classes of width 1, 2, 3, 4, 5, 6 with 209, 234, 119, 28, 8, 2 members: chunks of
    # 2^16 // slots = 313, 140, 183, 585, 1638, 5461 rows, the last two cut at the staging
    # block's 600: 15 gathers, where 54-row blocks of every class would take 12 * 6 = 72
    g = random_tree(600, 1)
    assert [(w, slots.shape[1]) for _, w, slots in kernel._padded_layout(g)] == [
        (1, 209), (2, 234), (3, 119), (4, 28), (5, 8), (6, 2)]
    assert staging_and_gathers(g) == ([600], [
        (313, 209), (287, 209),
        *[(140, 234)] * 4, (40, 234),
        *[(183, 119)] * 3, (51, 119),
        (585, 28), (15, 28), (600, 8), (600, 2)])


SCRATCH_BOUND = 3 * 2**20  # twice the 1 MiB of staged slice rows, plus 1 MiB


@pytest.mark.parametrize("g", [erdos_renyi(400, 0.02, 12345), random_tree(600, 1),
                               grid(30, 30).graph, path(2000), star(1999)],
                         ids=["gnp_400", "random_tree_600", "grid_30x30", "path_2000", "star_2000"])
def test_block_scratch_stays_within_a_fixed_bound(g):
    # the staged slice rows, their copy in the witness step and one chunk's gather; the matrix
    # is computed beforehand, and only the packed slices outlive the call
    dm = kernel.distance_matrix(g)
    with mock.patch.object(kernel, "distance_matrix", lambda _: dm):
        boundary(g)  # the graph's cached adjacency arrays
        tracemalloc.start()
        try:
            rep = boundary(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - rep.slice_bits.nbytes < SCRATCH_BOUND
