"""The block witness search of Proposition 4 against the per-vertex reference search.

``classify_prop4`` and ``classify_cycle`` walk ``BoundaryReport.row_blocks()``
and test a block's certified vertices as arrays. ``tests/oracle.py`` keeps the
per-vertex search they replaced: each vertex's certifiers in increasing
order, read off the full distance matrix. Both must return the same list, in
first-witness and in all-witness mode, at every block size.

Lattices are bipartite, so their witnesses are all antipodal descents, and a
cycle's vertices each have one kind only: descents on even cycles, ties on
odd ones. The report of C_6 plus the chord 2-4, read through the cycle's
neighbor pairs, gives vertex 0 a tie at its smallest certifier 2 and a descent
at 3, and an annulus report with one vertex's slice bits doctored gives it a
certifier below its first descent that gives no witness. These two pin the
search order: descents before ties, each in source order.
"""

import dataclasses
import itertools

import pytest

import oracle
from graphboundary import (
    CASE_ANTIPODAL_DESCENT,
    CASE_EQUAL_DISTANCE,
    DomainSpec,
    GridGraph,
    boundary,
    classify_cycle,
    classify_prop4,
    core,
    cycle,
    lattice_discretize,
    validate,
)
from graphboundary.generators import unit_step_edges


def _from_coordinates(points, dimension):
    points = tuple(points)
    return GridGraph(validate(unit_step_edges(points), len(points)), points, dimension)


def _doctored(gg):
    """The lattice's report with one extra certifier, below its first descent, for the
    first full-degree boundary vertex whose first descent is not at source 0."""
    rep = boundary(gg.graph)
    u, w = next((u, w) for u, w in oracle.classify_prop4(gg, rep) if w.witness > 0)
    bits = rep.slice_bits.copy()
    bits[0, u >> 3] |= 1 << (u & 7)
    return dataclasses.replace(rep, slice_bits=bits)


LATTICES = {
    **{f"annulus {lam}": (lambda lam=lam: lattice_discretize(DomainSpec.annulus(0.4, 1.0, lam)))
       for lam in (0.2, 0.1, 0.07, 0.05)},
    "annulus 0.1 shifted": lambda: lattice_discretize(
        DomainSpec.annulus(0.4, 1.0, 0.1, offset=(0.03, 0.05))),
    "annulus 0.08 (lowdiam-verify)": lambda: lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.08)),
    "square with a square hole": lambda: _from_coordinates(
        [(i, j) for i in range(12) for j in range(12) if not (4 <= i < 8 and 4 <= j < 8)], 2),
    "cube shell": lambda: _from_coordinates(
        [c for c in itertools.product(range(8), repeat=3) if not all(3 <= x < 5 for x in c)], 3),
}


@pytest.fixture(scope="module")
def lattice_cases():
    """(name, lattice, report, {all_witnesses: reference pairs}), the doctored annulus last."""
    cases = []
    for name, build in LATTICES.items():
        gg = build()
        cases.append((name, gg, boundary(gg.graph)))
    gg = cases[0][1]
    cases.append(("annulus 0.2 doctored", gg, _doctored(gg)))
    return [(name, gg, rep, {a: oracle.classify_prop4(gg, rep, a) for a in (False, True)})
            for name, gg, rep in cases]


@pytest.fixture(scope="module")
def cycle_cases():
    """(name, cycle, report, {all_witnesses: reference pairs}): cycles 3..40, then C_6 read
    through the report of C_6 plus the chord 2-4."""
    cases = [(f"cycle {n}", cycle(n), boundary(cycle(n))) for n in range(3, 41)]
    chorded = validate([(i, (i + 1) % 6) for i in range(6)] + [(2, 4)], 6)
    cases.append(("cycle 6 through C_6 + 2-4", cycle(6), boundary(chorded)))
    return [(name, g, rep, {a: oracle.classify_cycle(g, rep, a) for a in (False, True)})
            for name, g, rep in cases]


@pytest.mark.parametrize("row_block", [1, 3, 32])
def test_lattice_search_equals_the_per_vertex_reference(row_block, lattice_cases, monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK", row_block)
    for name, gg, rep, ref in lattice_cases:
        for all_witnesses, expected in ref.items():
            assert classify_prop4(gg, rep, all_witnesses) == expected, (name, all_witnesses)


@pytest.mark.parametrize("row_block", [1, 3, 32])
def test_cycle_search_equals_the_per_vertex_reference(row_block, cycle_cases, monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK", row_block)
    for name, g, rep, ref in cycle_cases:
        for all_witnesses, expected in ref.items():
            assert classify_cycle(g, rep, all_witnesses) == expected, (name, all_witnesses)


def test_every_lattice_case_has_full_degree_boundary_vertices(lattice_cases):
    for name, gg, rep, ref in lattice_cases:
        full = [u for u in rep.boundary if gg.graph.degree(u) == 2 * gg.dimension]
        assert full and [u for u, _ in ref[False]] == full, name


def _first_witnesses(cases):
    return [(name, rep, u, w) for name, _, rep, ref in cases for u, w in ref[False]]


def test_the_corpus_pins_the_search_order(lattice_cases, cycle_cases):
    first = _first_witnesses(lattice_cases) + _first_witnesses(cycle_cases)
    ties = {name for name, _, _, w in first if w.case == CASE_EQUAL_DISTANCE}
    late = {(name, u) for name, rep, u, w in first
            if w.case == CASE_ANTIPODAL_DESCENT and w.witness != rep.certifiers(u)[0]}
    assert "cycle 5" in ties
    assert any(name == "annulus 0.2 doctored" for name, _ in late)
    # vertex 0 of the chorded view: a tie at its smallest certifier, the descent kept
    assert ("cycle 6 through C_6 + 2-4", 0) in late
    _, _, rep, ref = cycle_cases[-1]
    assert rep.certifiers(0) == [2, 3, 4]
    assert [(w.witness, w.case) for u, w in ref[True] if u == 0] == [
        (3, CASE_ANTIPODAL_DESCENT), (2, CASE_EQUAL_DISTANCE), (4, CASE_EQUAL_DISTANCE)]

