import hashlib
import math
from itertools import combinations

import pytest

from oracle import cejz_boundary
from graphboundary import (
    DisconnectedDiscretizationWarning,
    DomainSpec,
    EmptyDomainError,
    boundary,
    complete,
    cycle,
    enumerate_connected,
    erdos_renyi,
    format_edge_list,
    grid,
    grid_d,
    hypercube,
    is_connected,
    lattice_discretize,
    path,
    random_tree,
    splitmix64,
    star,
    validate,
)
from graphboundary.generators import unit_step_edges


def test_path_edges():
    assert list(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]


def test_cycle3_is_triangle():
    assert cycle(3) == complete(3)


def test_star_layout():
    g = star(3)
    assert g.degree(0) == 3 and all(g.degree(u) == 1 for u in (1, 2, 3))


def test_hypercube_cube():
    g = hypercube(3)
    assert g.n == 8 and g.m == 12
    assert all(g.degree(u) == 3 for u in range(8))


@pytest.mark.parametrize("bad", [0, -2])
def test_parameter_range_errors(bad):
    for fn in (path, complete, star, hypercube):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        cycle(2)


def test_grid_2x2_is_c4():
    g = grid(2, 2).graph
    assert g.n == 4 and g.m == 4
    assert all(g.degree(u) == 2 for u in range(4))


def test_grid_1xn_is_path():
    assert grid(1, 6).graph == path(6)


def test_grid_5x5_counts():
    gg = grid(5, 5)
    assert gg.graph.n == 25 and gg.graph.m == 40
    assert gg.dimension == 2
    assert gg.coordinates[7] == (1, 2)


def test_grid_degree_bound():
    for gg in (grid(4, 7), grid_d((3, 3, 3))):
        assert gg.graph.max_degree <= 2 * gg.dimension


def test_grid_d_neighbors_differ_one_step():
    gg = grid_d((2, 3, 2))
    for u, w in gg.graph.edges():
        diff = [abs(a - b) for a, b in zip(gg.coordinates[u], gg.coordinates[w])]
        assert sorted(diff) == [0] * (gg.dimension - 1) + [1]


def test_random_tree_smallest():
    assert random_tree(1, 5).n == 1
    assert random_tree(2, 5).m == 1


@pytest.mark.parametrize("n,seed", [(2, 0), (9, 1), (25, 7), (60, 42)])
def test_random_tree_is_tree(n, seed):
    g = random_tree(n, seed)
    assert g.m == n - 1
    assert is_connected(g)


def test_random_tree_deterministic():
    a = random_tree(40, 11)
    b = random_tree(40, 11)
    assert a == b
    assert a != random_tree(40, 12)


def test_random_tree_boundary_is_leaf_set():
    g = random_tree(50, 7)
    leaves = {u for u in range(50) if g.degree(u) == 1}
    assert set(boundary(g).boundary) == leaves


def test_splitmix64_reference_stream():
    # first outputs for seed 0 (SplitMix64 reference values)
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F


def test_erdos_renyi_extremes():
    assert erdos_renyi(6, 0.0, 3).m == 0
    assert erdos_renyi(6, 1.0, 3) == complete(6)


def test_erdos_renyi_seeded_regression():
    g = erdos_renyi(30, 0.2, 42)
    assert g.m == 87  # frozen from the pinned stream
    mean = 0.2 * math.comb(30, 2)
    sigma = math.sqrt(math.comb(30, 2) * 0.2 * 0.8)
    assert abs(g.m - mean) <= 4 * sigma
    assert g == erdos_renyi(30, 0.2, 42)


def test_erdos_renyi_rejects_bad_p():
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 0)


# --- lattice discretization ---

@pytest.mark.parametrize(
    "gg",
    [
        grid(1, 1),
        grid(4, 7),
        grid_d((2, 3, 2)),
        lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2)),
        lattice_discretize(DomainSpec.l_shape(1.0, 1.0, 0.25)),
        lattice_discretize(DomainSpec.slit_disk(1.0, 0.2, offset=(0.1, 0.0))),
    ],
    ids=["grid1x1", "grid4x7", "grid_d232", "annulus", "l_shape", "slit_disk"],
)
def test_unit_step_edges_rebuild_lattice_graphs(gg):
    coords, n = gg.coordinates, gg.graph.n
    pairwise = [
        (u, w) for u, w in combinations(range(n), 2)
        if sum(abs(a - b) for a, b in zip(coords[u], coords[w])) == 1
    ]
    assert validate(pairwise, n) == gg.graph
    assert validate(unit_step_edges(coords), n) == gg.graph


def test_rectangle_unit_quarter_mesh_is_grid():
    spec = DomainSpec.rectangle(1.0, 1.0, 0.25)  # default offset lam/2 = 1/8
    gg = lattice_discretize(spec)
    assert gg.graph.n == 16 and gg.graph.m == 24
    assert set(gg.coordinates) == {(i, j) for i in range(4) for j in range(4)}
    assert gg.scale == 0.25


def test_disk_unit_spacing_strict_interior():
    # radius 1 with spacing 1 at offset (0, 0): only the origin is strictly
    # inside the open disk; the four axis points sit on the boundary
    gg = lattice_discretize(DomainSpec.disk(1.0, 1.0, offset=(0.0, 0.0)))
    assert gg.graph.n == 1
    assert gg.coordinates == ((0, 0),)


def test_disk_empty_domain():
    with pytest.raises(EmptyDomainError):
        lattice_discretize(DomainSpec.disk(0.3, 1.0))


def test_annulus_discretization_connected_with_two_rims():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    g = gg.graph
    assert g.n == 68  # frozen mesh size
    assert is_connected(g)
    rep = boundary(g)
    # hole: vertices adjacent to the inner cavity are boundary too, so the
    # boundary exceeds one rim's worth of vertices
    assert len(rep.boundary) > 20
    assert set(rep.boundary) < set(range(g.n))


def test_slit_disk_blocks_paths():
    # offset rows onto y = 0 so the slit actually swallows mesh points
    whole = lattice_discretize(DomainSpec.disk(1.0, 0.2, offset=(0.1, 0.0)))
    slit = lattice_discretize(DomainSpec.slit_disk(1.0, 0.2, offset=(0.1, 0.0)))
    assert slit.graph.n < whole.graph.n
    assert is_connected(slit.graph)


def test_disconnected_discretization_warns_but_returns():
    # thin ring sampled at four disjoint arcs: 8 vertices in 4 components
    spec = DomainSpec.annulus(0.6, 0.9, 0.5, offset=(0.25, 0.25))
    with pytest.warns(DisconnectedDiscretizationWarning):
        gg = lattice_discretize(spec)
    assert gg.graph.n == 8
    assert not is_connected(gg.graph)


def test_sector_discretization_inside_wedge():
    gg = lattice_discretize(DomainSpec.sector(1.0, 0.25, 0.1))
    ox, oy = gg.offset
    for i, j in gg.coordinates:
        x, y = ox + 0.1 * i, oy + 0.1 * j
        assert x * x + y * y < 1.0
        assert 0 < math.atan2(y, x) < math.pi / 2


def test_l_shape_has_notch():
    gg = lattice_discretize(DomainSpec.l_shape(1.0, 1.0, 0.25))
    assert (3, 3) not in set(gg.coordinates)  # the cut quadrant
    assert (1, 1) in set(gg.coordinates)


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec.annulus(1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        DomainSpec.disk(-1.0, 0.1)
    with pytest.raises(ValueError):
        DomainSpec("blob", (1.0,), 0.1)
    with pytest.raises(ValueError):
        DomainSpec.disk(1.0, 0.0)
    with pytest.raises(ValueError, match="opening fraction"):
        DomainSpec.sector(1.0, 1.0, 0.2)
    with pytest.raises(ValueError, match="disk parameters must be finite"):
        DomainSpec.disk(math.inf, 0.1)
    with pytest.raises(ValueError, match="lattice scale must be positive"):
        DomainSpec.disk(1.0, math.nan)
    with pytest.raises(ValueError, match="lattice offset must be finite"):
        DomainSpec.disk(1.0, 0.1, offset=(math.inf, 0.0))


# --- exhaustive enumeration ---

def test_enumerate_connected_counts():
    counts = {}
    for g in enumerate_connected(4):
        counts[g.n] = counts.get(g.n, 0) + 1
        assert is_connected(g)
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38}


def test_enumerate_matches_oracle_on_n3():
    got = {tuple(sorted(g.edges())) for g in enumerate_connected(3) if g.n == 3}
    # the three labeled paths plus the triangle
    assert got == {
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
        ((0, 1), (0, 2), (1, 2)),
    }


def test_enumerate_stream_is_pinned():
    # the order and the labels of every graph with n <= 5, as edge-list text
    digest = hashlib.sha256()
    for g in enumerate_connected(5):
        digest.update(format_edge_list(g).encode())
    assert digest.hexdigest() == "f7a201bd57fc3cbe828ed019fb1a48844a017063e1efdaffe0628475113bf0f6"


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        list(enumerate_connected(7))


def test_grid_cejz_always_four_corners():
    for n in (2, 3, 6):
        assert len(cejz_boundary(grid(n, n).graph)) == 4


def test_real_coordinates_round_trip():
    # point = offset + scale * coordinate, and every point lies strictly inside the disk
    gg = lattice_discretize(DomainSpec.disk(1.0, 0.2, offset=(0.1, 0.0)))
    real = gg.real_coordinates()
    assert len(real) == gg.graph.n
    assert all(x * x + y * y < 1.0 for x, y in real)
    back = [tuple(round((x - o) / gg.scale) for x, o in zip(p, gg.offset)) for p in real]
    assert back == list(gg.coordinates)
    plain = grid(2, 3)
    assert plain.real_coordinates() == [tuple(map(float, c)) for c in plain.coordinates]
