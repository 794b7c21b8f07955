"""Array passes over canonical input against the line parser and the scalar checks.

``parse_edge_list`` reads canonical text, what ``format_edge_list`` writes,
in array passes, and every other text with the line parser. Mutations of
canonical files must give the line parser's outcome: the same Graph, or the
same exception class and message. ``validate`` decides on arrays and must
agree with the scalar edge scan it replaced, ints beyond int64 included. The
coordinate sidecar's key check must give the verdict of rebuilding the
graph from the points, ``validate(unit_step_edges(coords), n) == g``.
"""

import json
import tempfile
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from graphboundary import (
    DuplicateEdgeError,
    GraphError,
    SelfLoopError,
    VertexOutOfRangeError,
    core,
    format_edge_list,
    parse_edge_list,
    validate,
)
from graphboundary.cli import _CliError, _load_input
from graphboundary.generators import DomainSpec, grid, lattice_discretize, random_tree, unit_step_edges


def outcome(fn, *args):
    """("graph", n, adjacency, csr lists) or (exception class, message)."""
    try:
        g = fn(*args)
    except (GraphError, ValueError) as exc:
        return type(exc), str(exc)
    return "graph", g.n, g.adjacency, g.m, [a.tolist() for a in g.csr]


# --- the edge-list text ---

def canonical(n, edges):
    return "".join(f"{u} {w}\n" for u, w in [(n, len(edges)), *edges])


# each mutation takes the canonical lines (without their newlines) and a draw
MUTATIONS = {
    "crlf": lambda ls, i: "\r\n".join(ls) + "\r\n",
    "one_crlf": lambda ls, i: "\n".join(ls[:i] + [ls[i] + "\r"] + ls[i + 1:]) + "\n",
    "tab": lambda ls, i: join(ls, i, ls[i].replace(" ", "\t")),
    "tabs_and_spaces": lambda ls, i: join(ls, i, ls[i].replace(" ", " \t ")),
    "two_spaces": lambda ls, i: join(ls, i, ls[i].replace(" ", "  ")),
    "leading_space": lambda ls, i: join(ls, i, " " + ls[i]),
    "trailing_space": lambda ls, i: join(ls, i, ls[i] + " "),
    "plus": lambda ls, i: join(ls, i, "+" + ls[i]),
    "minus": lambda ls, i: join(ls, i, ls[i].replace(" ", " -")),
    "minus_zero": lambda ls, i: join(ls, i, "-0 " + ls[i].split()[1]),
    "leading_zeros": lambda ls, i: join(ls, i, "00" + ls[i]),
    "nine_digits": lambda ls, i: join(ls, i, ls[i].replace(" ", " " + "0" * (9 - len(ls[i].split()[1])))),
    "ten_digits": lambda ls, i: join(ls, i, "0" * (10 - len(ls[i].split()[0])) + ls[i]),
    "huge": lambda ls, i: join(ls, i, ls[i].split()[0] + " 98765432109876543210"),
    "beyond_int64": lambda ls, i: join(ls, i, f"{2**63} " + ls[i].split()[1]),
    "underscore": lambda ls, i: join(ls, i, ls[i][0] + "_0" + ls[i][1:]),
    "arabic_digit": lambda ls, i: join(ls, i, ls[i].replace("1", "١")),
    "fullwidth_digit": lambda ls, i: join(ls, i, ls[i].replace("0", "０")),
    "comment": lambda ls, i: join(ls, i, "# note\n" + ls[i]),
    "trailing_comment": lambda ls, i: join(ls, i, ls[i] + " # note"),
    "blank_line": lambda ls, i: join(ls, i, "\n" + ls[i]),
    "spaces_line": lambda ls, i: join(ls, i, " \t\n" + ls[i]),
    "no_final_newline": lambda ls, i: "\n".join(ls),
    "extra_token": lambda ls, i: join(ls, i, ls[i] + " 1"),
    "lone_token": lambda ls, i: join(ls, i, ls[i].split()[0]),
    "header_m_up": lambda ls, i: join(ls, 0, bump(ls[0], 1)),
    "header_m_down": lambda ls, i: join(ls, 0, bump(ls[0], -1)),
    "dropped_line": lambda ls, i: "\n".join(ls[:i] + ls[i + 1:]) + "\n" if i else "",
    "duplicate": lambda ls, i: "\n".join([bump(ls[0], 1), *ls[1:], ls[i]]) + "\n",
    "reversed_duplicate": lambda ls, i: "\n".join(
        [bump(ls[0], 1), *ls[1:], " ".join(ls[i].split()[::-1])]) + "\n",
    "self_loop": lambda ls, i: "\n".join([bump(ls[0], 1), *ls[1:], "0 0"]) + "\n",
    "out_of_range": lambda ls, i: "\n".join([bump(ls[0], 1), *ls[1:], "0 " + ls[0].split()[0]]) + "\n",
    "n_zero": lambda ls, i: join(ls, 0, "0 " + ls[0].split()[1]),
    "n_too_big": lambda ls, i: join(ls, 0, f"{core.MAX_VERTICES + 1} " + ls[0].split()[1]),
    "m_too_big": lambda ls, i: join(ls, 0, ls[0].split()[0] + f" {core.MAX_EDGES + 1}"),
    "empty": lambda ls, i: "",
    "only_newline": lambda ls, i: "\n",
}


def join(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"


def bump(header, by):
    n, m = header.split()
    return f"{n} {int(m) + by}"


def raw_edge_lists(max_n=9):
    """(n, edges) with ids up to n + 1, so self-loops, duplicates and bad ids all occur."""
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=12)))


def assert_same_as_line_parser(text):
    assert outcome(parse_edge_list, text) == outcome(core._parse_lines, text), repr(text)


@settings(max_examples=400, deadline=None)
@given(raw_edge_lists(), st.sampled_from(sorted(MUTATIONS)), st.integers(0, 10**6))
def test_mutated_canonical_text_parses_as_the_line_parser_reads_it(raw, mutation, draw):
    n, edges = raw
    lines = canonical(n, edges).splitlines()
    assert_same_as_line_parser(canonical(n, edges))
    assert_same_as_line_parser(MUTATIONS[mutation](lines, draw % len(lines)))


def corpus():
    """Fixed canonical texts: valid graphs, and lists with every kind of bad edge."""
    texts = [format_edge_list(g) for g in (
        grid(3, 4).graph, random_tree(30, 7), validate(list(combinations(range(7), 2)), 7),
        validate([], 1), lattice_discretize(DomainSpec("annulus", (0.4, 1.0), 0.2)).graph)]
    texts += [canonical(n, edges) for n, edges in [
        (3, [(0, 1), (1, 2), (2, 0)]), (3, [(2, 1), (0, 1)]), (4, [(0, 1), (1, 0)]),
        (4, [(0, 1), (2, 2)]), (4, [(0, 4), (1, 1)]), (4, [(1, 1), (0, 4)]), (4, [(3, 2), (2, 3)]),
        (2, [(0, 1), (0, 1), (5, 5)]), (1, []), (5, [(0, 1)] * 3), (0, [])]]
    return texts


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutation_of_the_corpus_parses_as_the_line_parser_reads_it(mutation):
    for text in corpus():
        lines = text.splitlines()
        assert_same_as_line_parser(text)
        for i in range(len(lines)):
            assert_same_as_line_parser(MUTATIONS[mutation](lines, i))


def test_canonical_text_takes_the_array_pass(monkeypatch):
    def refuse(text):
        raise AssertionError(f"line parser called on {text!r}")

    monkeypatch.setattr(core, "_parse_lines", refuse)
    for text in corpus()[:5] + ["2 1\n0\t1\n", "3 1\n000000002 1\n"]:
        parse_edge_list(text)
    for text, error in [("3 2\n0 1\n1 1\n", SelfLoopError), ("3 2\n0 1\n1 0\n", DuplicateEdgeError),
                        ("3 1\n0 3\n", VertexOutOfRangeError), ("0 0\n", VertexOutOfRangeError)]:
        with pytest.raises(error):
            parse_edge_list(text)


def test_mutations_leave_the_canonical_grammar():
    # every mutation but the tab (one space or one tab apart), the nine-digit id
    # and the zeros of a short id, and those that only add or drop whole edges,
    # makes text the array pass refuses, so the line parser words the outcome
    still_canonical = {"tab", "nine_digits", "leading_zeros", "header_m_up", "header_m_down",
                       "dropped_line", "duplicate", "reversed_duplicate", "self_loop",
                       "out_of_range", "n_zero", "n_too_big", "m_too_big"}
    lines = canonical(5, [(0, 1), (1, 2), (3, 4)]).splitlines()
    for name, mutate in MUTATIONS.items():
        text = mutate(lines, 1)
        assert bool(core._CANONICAL.fullmatch(text)) == (name in still_canonical), name


# --- validate on arrays against the scalar scan ---

def scanned(edges, n):
    """The scalar edge scan validate replaced: the Graph's fields, or the first fault."""
    if not 1 <= n <= core.MAX_VERTICES:
        return VertexOutOfRangeError, f"need 1 <= n <= {core.MAX_VERTICES}, got {n}"
    seen, adj = set(), [[] for _ in range(n)]
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            return VertexOutOfRangeError, f"edge ({u}, {w}) outside 0..{n - 1}"
        if u == w:
            return SelfLoopError, f"self-loop at vertex {u}"
        key = (u, w) if u < w else (w, u)
        if key in seen:
            return DuplicateEdgeError, f"duplicate edge {key}"
        seen.add(key)
        adj[u].append(w)
        adj[w].append(u)
    if len(seen) > core.MAX_EDGES:
        return GraphError, f"{len(seen)} edges, more than {core.MAX_EDGES}"
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    indptr = np.cumsum([0, *map(len, adjacency)]).tolist()
    return "graph", n, adjacency, len(seen), [indptr, [w for a in adjacency for w in a]]


ODD_IDS = [-1, -(2**63), -(2**63) - 1, 2**63 - 1, 2**63, 2**64, 2**70, -(2**90)]


@settings(max_examples=300, deadline=None)
@given(raw_edge_lists(), st.lists(st.tuples(st.integers(0, 12), st.sampled_from(ODD_IDS)),
                                  max_size=2))
def test_validate_equals_the_scalar_scan(raw, odd):
    n, edges = raw
    for at, big in odd:  # ids outside int64 or negative, at any place of the list
        edges = edges[:at] + [(big, 0) if at % 2 else (0, big)] + edges[at:]
    assert outcome(validate, edges, n) == scanned(edges, n)
    assert outcome(validate, iter(edges), n) == scanned(edges, n)
    if all(-(2**63) <= x < 2**63 for e in edges for x in e):
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        assert outcome(validate, ends, n) == scanned(edges, n)


@pytest.mark.parametrize("n", [0, -3, core.MAX_VERTICES + 1])
def test_validate_refuses_bad_n_before_any_edge(n):
    assert outcome(validate, [(0, 0)], n) == scanned([(0, 0)], n)


def test_validate_max_edges_comes_after_the_faults(monkeypatch):
    monkeypatch.setattr(core, "MAX_EDGES", 2)
    assert outcome(validate, [(0, 1), (1, 2), (2, 3)], 4) == (GraphError, "3 edges, more than 2")
    assert outcome(validate, [(0, 1), (1, 2), (2, 2)], 4) == (SelfLoopError, "self-loop at vertex 2")


# --- the coordinate sidecar's key check ---

SHIFTS = [0, -7, 2**62, 2**62 + 5, 2**63 - 4, -(2**63), 2**64, -(2**80)]


@st.composite
def lattice_cases(draw):
    """(points, edges): distinct points near the origin, each axis shifted, perhaps a far
    outlier, and their unit-step edges with some dropped and some non-steps added."""
    d = draw(st.integers(1, 3))
    box = st.tuples(*[st.integers(-3, 3)] * d)
    points = draw(st.lists(box, min_size=1, max_size=24, unique=True))
    if draw(st.booleans()):
        points.append(tuple(draw(st.sampled_from([2**21, -(2**40), 2**61, 2**65])) for _ in range(d)))
    shift = [draw(st.sampled_from(SHIFTS)) for _ in range(d)]
    points = [tuple(x + s for x, s in zip(p, shift)) for p in points]
    edges = unit_step_edges(points)
    for _ in range(draw(st.integers(0, 2))):
        if edges and draw(st.booleans()):
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif len(points) > 1:
            u, w = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2,
                                 unique=True))
            if (u, w) not in edges and (w, u) not in edges:
                edges.append((u, w))
    if len(points) > 1 and draw(st.integers(0, 4)) == 0:  # one point moved onto another
        i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
        points[i] = points[j]
    return d, points, edges


def sidecar_verdict(d, points, edges):
    n = len(points)
    with tempfile.TemporaryDirectory() as tmp:
        el = Path(tmp) / "g.el"
        el.write_text(format_edge_list(validate(edges, n)))
        Path(str(el) + ".coords.json").write_text(json.dumps(
            {"dimension": d, "scale": None, "offset": None, "coordinates": points}))
        try:
            _load_input(str(el))
        except _CliError as exc:
            return str(exc).split(": ", 1)[1]
    return "accepted"


def expected_verdict(points, edges):
    n = len(points)
    if len(set(points)) != n:
        return "duplicate coordinates"
    if validate(unit_step_edges(points), n) != validate(edges, n):
        return "not the unit-step relation"
    return "accepted"


@settings(max_examples=300, deadline=None)
@given(lattice_cases())
def test_sidecar_key_check_equals_rebuilding_the_graph(case):
    d, points, edges = case
    verdict = sidecar_verdict(d, points, edges)
    if verdict.startswith("edges of"):
        verdict = "not the unit-step relation"
    assert verdict == expected_verdict(points, edges)


@pytest.mark.parametrize("points, edges", [
    ([(0,), (1,), (2,)], [(0, 1), (1, 2)]),
    ([(0,), (1,), (2,)], [(0, 1)]),
    ([(0,), (2,), (1,)], [(0, 1), (1, 2)]),
    ([(2**63 - 1,), (2**63,), (-(2**63),)], [(0, 1)]),
    ([(2**63 - 1,), (2**63,), (-(2**63),)], [(0, 1), (1, 2)]),
    ([(0, 2**62), (0, 2**62 + 1), (1, -(2**62))], [(0, 1)]),
    ([(0, 0, 0), (2**21, 2**21, 2**21), (0, 0, 1)], [(0, 2)]),
    ([(0, 0, 0), (2**21, 2**21, 2**21), (0, 0, 1)], [(0, 1), (0, 2)]),
    ([(5, 5), (5, 5)], []),
    ([(0, 0), (1, 1)], [(0, 1)]),  # one step along each of two axes is not a unit step
    ([(0, 0), (2, 0)], [(0, 1)]),
])
def test_sidecar_key_check_on_fixed_points(points, edges):
    verdict = sidecar_verdict(len(points[0]), points, edges)
    if verdict.startswith("edges of"):
        verdict = "not the unit-step relation"
    assert verdict == expected_verdict(points, edges)
