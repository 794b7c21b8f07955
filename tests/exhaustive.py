"""One per-graph pass over every connected labeled graph with n <= 6, shared by the tests.

The pass runs ``boundary()`` and ``run_battery`` on each graph of
``enumerate_connected(NMAX)`` once per test session. ``per_graph_pass()`` keeps
each graph's fields as rows of arrays stacked by graph size, in enumeration
order: by edge mask within a size, the order in which the graphs of that size
appear over the chunks of ``connected_chunks``. These graphs take the reference
routes (``routes.REFERENCES``); the pass forces each other route on its domain in
``DOMAINS``, and ``forced_runs()`` keeps how many graphs it ran on and where it
failed. "product" must give every graph the battery's laplacian and dichotomy
outcomes, details included; "tree" on the trees and "bits" on n <= 5 (3 s more
on n = 6) must run after the probe alone and give an int16 matrix equal to the
report's, which must be the oracle's.
"""

from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from oracle import floyd_warshall
from routes import counted, forced
from graphboundary import Graph, boundary, core, distance_matrix, enumerate_connected, run_battery
from graphboundary.verify import ALL_CHECKS

NMAX = 6
CHECKS = tuple(c for c in ALL_CHECKS if c != "prop4")
WALK_CHECKS = ("laplacian", "dichotomy")  # the two verdicts of one L f walk
HELD = 1024  # graphs held at a time, so that each route is forced once per chunk of them
DOMAINS = {  # route -> (the graphs of the pass it is forced on, and how many they are)
    ("walk", "product"): (lambda g: True, 27476),
    ("distance", "tree"): (lambda g: g.m == g.n - 1, 1442),  # sum of n ** (n - 2), n = 1..6
    ("distance", "bits"): (lambda g: g.n <= 5, 772),
}


@dataclass(frozen=True)
class SizeRows:
    """Row b of every array belongs to graph b of one size n, in enumeration order.

    ``distances`` and ``slices`` are (B, n, n), as in the reports;
    ``boundary`` and ``cejz`` are (B, n) bool; ``passed`` is (B, len(CHECKS))
    bool, column c the verdict of ``CHECKS[c]``.
    """

    m: np.ndarray
    max_degree: np.ndarray
    diameter: np.ndarray
    distances: np.ndarray
    slices: np.ndarray
    boundary: np.ndarray
    cejz: np.ndarray
    passed: np.ndarray


@cache
def small_graphs() -> tuple[Graph, ...]:
    """The 772 connected labeled graphs with n <= 5, in enumeration order, built once."""
    graphs = tuple(enumerate_connected(5))
    assert len(graphs) == 772
    return graphs


def per_graph_pass() -> dict[int, SizeRows]:
    """The per-graph reports and verdicts of every connected graph with n <= NMAX, by size."""
    return _pass()[0]


def forced_runs() -> dict[tuple[str, str], list]:
    """(kind, name) -> [the number of graphs that route was forced on, those it failed]."""
    return _pass()[1]


@cache
def _pass() -> tuple[dict[int, SizeRows], dict[tuple[str, str], list]]:
    fields: dict[int, list[tuple]] = {}
    runs = {route: [0, []] for route in DOMAINS}  # graphs forced, and those that failed
    graphs = enumerate_connected(NMAX)
    while chunk := list(islice(graphs, HELD)):
        held = []
        for g in chunk:
            rep = boundary(g)
            outcomes = run_battery(g, CHECKS, report=rep)
            held.append((g, rep, [oc for oc in outcomes if oc.check in WALK_CHECKS]))
            fields.setdefault(g.n, []).append((g.m, g.max_degree, rep.diameter, rep.distances,
                                               rep.slice_rows(0, g.n), rep.boundary,
                                               rep.cejz_boundary,
                                               tuple(oc.passed for oc in outcomes)))
        for route, (domain, _) in DOMAINS.items():
            patch, bfs = counted(core, "bfs_distances")
            with forced(*route), patch:
                for g, rep, walk in held:
                    if domain(g):
                        runs[route][0] += 1
                        bfs.clear()
                        if not _agrees(route[0], g, rep, walk, bfs.__len__):
                            runs[route][1].append(g)
    return {n: _stack(n, rows) for n, rows in fields.items()}, runs


def _agrees(kind: str, g: Graph, rep, walk: list, bfs) -> bool:
    """Whether the forced route of ``kind`` gives g the reference's outcomes or int16 matrix
    and runs no BFS but the distance probe (``bfs()`` counts them)."""
    if kind == "walk":
        return run_battery(g, WALK_CHECKS, report=rep) == walk and bfs() == 0
    dm = distance_matrix(g)
    return bfs() == 1 and dm.dtype == np.int16 and dm.tolist() == rep.distances.tolist() == \
        floyd_warshall(g.n, list(g.edges()))


def _stack(n: int, rows: list[tuple]) -> SizeRows:
    m, max_degree, diameter, distances, slices, members, cejz, passed = zip(*rows)
    stacked = SizeRows(
        m=np.array(m), max_degree=np.array(max_degree), diameter=np.array(diameter),
        distances=np.stack(distances), slices=np.stack(slices),
        boundary=_masks(n, members), cejz=_masks(n, cejz), passed=np.array(passed, dtype=bool),
    )
    for array in vars(stacked).values():  # every caller shares the cached arrays
        array.setflags(write=False)
    return stacked


def _masks(n: int, sets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    out = np.zeros((len(sets), n), dtype=bool)
    for b, vertices in enumerate(sets):
        out[b, list(vertices)] = True
    return out
