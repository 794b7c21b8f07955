import dataclasses
import math

import numpy as np
import pytest

from graphboundary import (
    CASE_ANTIPODAL_DESCENT,
    CASE_EQUAL_DISTANCE,
    AlphaTooLargeError,
    DomainSpec,
    InvariantViolation,
    WitnessNotFoundError,
    boundary,
    classify_cycle,
    classify_prop4,
    cycle,
    distance_matrix,
    grid,
    lattice_discretize,
    radial_laplacian_identity_check,
    sector_check,
    verify_witness,
    verify_witnesses,
)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10])
def test_solid_grid_has_no_full_degree_boundary(n):
    # the rim is the boundary and no rim vertex has degree 4
    gg = grid(n, n)
    assert classify_prop4(gg, boundary(gg.graph)) == []


def test_cycle5_every_vertex_equal_distance_case():
    g = cycle(5)
    pairs = classify_cycle(g, boundary(g))
    assert [u for u, _ in pairs] == [0, 1, 2, 3, 4]
    assert all(w.case == CASE_EQUAL_DISTANCE for _, w in pairs)
    # odd cycle: the antipodal tie, e.g. vertex 0 seen from 2 ties with neighbor 4
    w0 = pairs[0][1]
    assert (w0.witness, w0.neighbors) == (2, (4,))


def test_cycle6_witnesses_exist_and_verify():
    g = cycle(6)
    dm = distance_matrix(g)
    for u, w in classify_cycle(g, boundary(g), all_witnesses=True):
        assert verify_witness(w, dm[w.witness])


def test_cycle_rejects_non_cycle():
    g = grid(2, 3).graph
    with pytest.raises(ValueError):
        classify_cycle(g, boundary(g))


def test_annulus_full_degree_witnesses():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    pairs = classify_prop4(gg, boundary(gg.graph))
    assert len(pairs) == 24  # frozen: degree-4 vertices flanking the hole
    dm = distance_matrix(gg.graph)
    assert all(verify_witness(w, dm[w.witness]) for _, w in pairs)
    # shortest paths run around both sides of the hole: antipodal descent
    assert {w.case for _, w in pairs} == {CASE_ANTIPODAL_DESCENT}


def test_annulus_all_witnesses_include_axis_info():
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    for u, w in classify_prop4(gg, boundary(gg.graph), all_witnesses=True):
        if w.case == CASE_ANTIPODAL_DESCENT:
            assert w.axis in (0, 1)
            assert len(w.neighbors) == 2
        else:
            assert w.axis is None
            assert len(w.neighbors) == 1


def test_all_witnesses_come_from_every_certifying_source():
    # at a degree-4 lattice vertex u, every source v whose slice holds u
    # gives a witness: a neighbor at d(u, v), or else at least three of the
    # four at d(u, v) - 1, two of them on one axis
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.15))
    rep = boundary(gg.graph)
    pairs = classify_prop4(gg, rep, all_witnesses=True)
    full = [u for u in rep.boundary if gg.graph.degree(u) == 4]
    certified = {(u, v) for u in full for v in rep.certifiers(u)}
    assert {(u, w.witness) for u, w in pairs} == certified
    assert len(certified) > len(full) > 0


def test_witness_search_failure_is_an_error():
    # doctor the report to claim the center of a 3x3 grid is boundary;
    # no source certifies it, so the classifier must refuse
    gg = grid(3, 3)
    rep = boundary(gg.graph)
    fake = dataclasses.replace(rep, boundary=(4,))
    with pytest.raises(WitnessNotFoundError):
        classify_prop4(gg, report=fake)
    assert issubclass(WitnessNotFoundError, InvariantViolation)  # a bug, not bad input


def test_sector_check_narrow():
    chk = sector_check(1.0, 0.01)
    assert chk.bound == pytest.approx(math.pi * 0.01)
    assert chk.arc_length == pytest.approx(2 * math.pi * 0.01)
    assert chk.ratio == 2.0  # exact float identity, not approx
    assert chk.diameter == 1.0
    assert chk.area == pytest.approx(math.pi * 0.01)


def test_sector_check_scale_invariant_ratio():
    assert sector_check(2.0, 0.05).ratio == 2.0
    assert sector_check(0.3, 0.001).ratio == 2.0


def test_sector_alpha_too_large():
    with pytest.raises(AlphaTooLargeError):
        sector_check(1.0, 0.2)
    with pytest.raises(ValueError):
        sector_check(1.0, -0.1)
    with pytest.raises(ValueError):
        sector_check(0.0, 0.05)


@pytest.mark.parametrize(
    "r, alpha",
    [(1.0, math.nan), (math.nan, 0.01), (math.inf, 0.01), (1e-200, 1e-200), (1e200, 0.05)],
)
def test_sector_rejects_non_finite_or_degenerate_sizes(r, alpha):
    with pytest.raises(ValueError):
        sector_check(r, alpha)


@pytest.mark.parametrize("alpha_max", [0.5, math.nan])
def test_sector_cap_stays_at_one_sixth(alpha_max):
    # past alpha = 1/6 the chord between the arc ends is longer than r
    with pytest.raises(AlphaTooLargeError):
        sector_check(1.0, 0.2, alpha_max=alpha_max)
    assert sector_check(1.0, 1 / 6, alpha_max=alpha_max).diameter == 1.0


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, 1e-200])
def test_radial_identity_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step"):
        radial_laplacian_identity_check(2, [(1.0, 0.0)], step=step)


def test_radial_identity_unit_circle():
    assert radial_laplacian_identity_check(2, [(1.0, 0.0)], step=1e-3) < 1e-5


def test_radial_identity_three_dim():
    assert radial_laplacian_identity_check(3, [(1.0, 1.0, 1.0)], step=1e-3) < 1e-5


def test_radial_identity_near_origin_larger_but_bounded():
    near = radial_laplacian_identity_check(2, [(0.1, 0.0)], step=1e-3)
    far = radial_laplacian_identity_check(2, [(1.0, 0.0)], step=1e-3)
    assert far < near < 1e-3  # truncation grows like 1/r^2 relative
    assert near == pytest.approx(2.5e-5, rel=0.2)


def test_radial_identity_second_order_convergence():
    coarse = radial_laplacian_identity_check(2, [(1.0, 0.0)], step=1e-2)
    fine = radial_laplacian_identity_check(2, [(1.0, 0.0)], step=5e-3)
    assert 3.5 < coarse / fine < 4.5


def test_radial_identity_input_guards():
    with pytest.raises(ValueError):
        radial_laplacian_identity_check(1, [(1.0,)])
    with pytest.raises(ValueError):
        radial_laplacian_identity_check(2, [(1e-4, 0.0)], step=1e-3)
    with pytest.raises(ValueError):
        radial_laplacian_identity_check(2, [(1.0, 0.0, 0.0)])


def test_equal_distance_witnesses_verify_and_doctored_copies_fail():
    # on an odd cycle the farthest vertex from u has a tied neighbor of u, and u's
    # other neighbor is one step closer, so it is no equal-distance witness
    g = cycle(9)
    rep = boundary(g)
    pairs = classify_cycle(g, rep, all_witnesses=True)
    assert len(pairs) == 18
    assert {w.case for _, w in pairs} == {CASE_EQUAL_DISTANCE}
    dm = distance_matrix(g)
    for u, w in pairs:
        row = dm[w.witness]
        assert verify_witness(w, row)
        (other,) = set(g.adjacency[u]) - set(w.neighbors)
        assert not verify_witness(dataclasses.replace(w, neighbors=(other,)), row)
        assert not verify_witness(dataclasses.replace(w, case="unknown"), row)


def _witness_holds(w, row):
    """The defining equalities of a witness, one scalar at a time."""
    du = int(row[w.vertex])
    if w.case == CASE_EQUAL_DISTANCE:
        return len(w.neighbors) == 1 and int(row[w.neighbors[0]]) == du
    if w.case == CASE_ANTIPODAL_DESCENT:
        return len(w.neighbors) == 2 and all(int(row[x]) == du - 1 for x in w.neighbors)
    return False


def test_block_witness_check_equals_the_scalar_equalities():
    # every witness of an annulus lattice, and doctored copies: neighbors swapped
    # for the vertex itself, cut short, doubled, a case renamed, the source moved
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.1))
    rep = boundary(gg.graph)
    dm = distance_matrix(gg.graph)
    ws = [w for _, w in classify_prop4(gg, rep, all_witnesses=True)]
    ws += [dataclasses.replace(w, witness=(w.witness + 1) % gg.graph.n) for w in ws[::3]]
    ws += [dataclasses.replace(w, neighbors=(w.vertex,) * len(w.neighbors)) for w in ws[::5]]
    ws += [dataclasses.replace(w, neighbors=w.neighbors[:1]) for w in ws[::7]]
    ws += [dataclasses.replace(w, neighbors=w.neighbors * 2) for w in ws[::11]]
    ws += [dataclasses.replace(w, case=CASE_EQUAL_DISTANCE) for w in ws[1::5]]
    ws += [dataclasses.replace(w, case="unknown") for w in ws[2::9]]
    expected = [_witness_holds(w, dm[w.witness]) for w in ws]
    assert 0 < sum(expected) < len(ws)
    assert verify_witnesses(ws, rep.row_blocks()).tolist() == expected
    assert [verify_witness(w, dm[w.witness]) for w in ws] == expected
    assert verify_witnesses(ws, []).tolist() == [False] * len(ws)  # no block holds a source
    assert verify_witnesses([], rep.row_blocks()).tolist() == []
