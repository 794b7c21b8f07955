"""One per-graph pass over every connected labeled graph with n <= 6, shared by the tests.

``per_graph_pass()`` runs ``boundary()`` and ``run_battery`` on each graph
of ``enumerate_connected(NMAX)`` once per test session. The acceptance
criterion on the exhaustive corpus and the agreement test of the batch
evaluator both read it, so the 27 476 per-graph batteries run once, not
twice. Each graph's fields are kept as rows of arrays stacked by graph
size, in enumeration order: by edge mask within a size, the order in which
the graphs of that size appear over the chunks of ``connected_chunks``.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from graphboundary import boundary, enumerate_connected, run_battery
from graphboundary.verify import ALL_CHECKS

NMAX = 6
CHECKS = tuple(c for c in ALL_CHECKS if c != "prop4")


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
def per_graph_pass() -> dict[int, SizeRows]:
    """The per-graph reports and verdicts of every connected graph with n <= NMAX, by size."""
    fields: dict[int, list[tuple]] = {}
    for g in enumerate_connected(NMAX):
        rep = boundary(g)
        verdicts = tuple(oc.passed for oc in run_battery(g, CHECKS, report=rep))
        fields.setdefault(g.n, []).append((g.m, g.max_degree, rep.diameter, rep.distances,
                                           rep.slice_rows(0, g.n), rep.boundary,
                                           rep.cejz_boundary, verdicts))
    return {n: _stack(n, rows) for n, rows in fields.items()}


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
