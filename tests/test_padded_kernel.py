"""The padded neighbor layout of ``boundary()`` against the plain-Python slice and the oracle.

Every neighbor list is padded with its own vertex up to the width of its
class, and the pads must change no slice, no CEJZ verdict and no witness.
The pinned graphs put vertices on both sides of the class edges (degrees
4 | 5, 8 | 9, 16 | 17 and 33), and every graph runs with one row per block,
three rows per block and the default block, so that several blocks and a
short last block are evaluated, through both layout builders.
"""

import importlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from graphboundary import bfs_distances, boundary, boundary_slice, core, validate
from graphboundary.generators import complete, path, star

kernel = importlib.import_module("graphboundary.boundary")

BLOCKS = [(1, 0), (3, 0), (core.ROW_BLOCK, kernel.GATHER_BUDGET)]  # (ROW_BLOCK, GATHER_BUDGET)
BUILDERS = [0, kernel.PYTHON_LAYOUT]  # with PYTHON_LAYOUT = 0 every layout is built with numpy


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


def assert_exact(g):
    """Every block size and layout builder give the slices, CEJZ set and witnesses of the references."""
    edges = list(g.edges())
    dist = oracle.floyd_warshall(g.n, edges)
    slices = [boundary_slice(g, bfs_distances(g, v)) for v in range(g.n)]
    assert slices == [oracle.slice_members(g.n, edges, v, dist) for v in range(g.n)]
    witness = {}
    for v, members in enumerate(slices):
        for u in members:
            witness.setdefault(u, v)
    cejz = tuple(sorted(oracle.cejz(g.n, edges)))
    for block, budget in BLOCKS:
        for python_layout in BUILDERS:
            with mock.patch.object(core, "ROW_BLOCK", block), \
                    mock.patch.object(kernel, "GATHER_BUDGET", budget), \
                    mock.patch.object(kernel, "PYTHON_LAYOUT", python_layout):
                rep = boundary(g)
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


@pytest.mark.parametrize("python_layout", BUILDERS)
@pytest.mark.parametrize("name", PINNED)
def test_layout_pads_each_list_with_its_own_vertex(name, python_layout):
    g = PINNED[name]
    with mock.patch.object(kernel, "PYTHON_LAYOUT", python_layout):
        flat, classes, order, rank, width = kernel._padded_layout(g)
    verts = np.arange(g.n)[order].tolist()
    assert sorted(verts) == list(range(g.n))
    assert [verts[i] for i in np.arange(g.n)[rank]] == list(range(g.n))
    widths = np.broadcast_to(width, (g.n,)).tolist()
    end, size = 0, 0
    for lo, hi, w, offset in classes:
        assert (lo, offset) == (end, size)
        slots = flat[offset:offset + w * (hi - lo)].reshape(w, hi - lo)
        for i, u in enumerate(verts[lo:hi]):
            assert widths[lo + i] == w
            assert sorted(slots[:, i].tolist()) == sorted([*g.adjacency[u], *[u] * (w - g.degree(u))])
        end, size = hi, size + w * (hi - lo)
    assert (end, size) == (g.n, len(flat))


def test_widths_keep_the_top_three_bits_of_the_degree():
    g = PINNED["hub_chain"]
    flat, classes, order, rank, width = kernel._padded_layout(g)
    assert [w for _, _, w, _ in classes] == [1, 2, 4, 5, 8, 10, 16, 20, 40]
    for u, w in zip(order.tolist(), width.tolist()):
        d = g.degree(u)
        assert d <= w < d + max(1, d / 4)
    # padding a path to Delta = 2 costs two slots; it keeps one class in vertex order
    assert kernel._padded_layout(path(600))[2:4] == (slice(None), slice(None))


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
