"""Check battery: run every machine-verifiable statement against one graph.

Each check returns a CheckOutcome; a failed outcome on connected input
always indicates a bug somewhere in this package, never a counterexample,
because every checked statement is a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryReport, laplacian_matrix, sliced
from .core import Graph, is_path_graph
from .euclid import WitnessNotFoundError, classify_prop4, verify_witness
from .generators import GridGraph
from .layers import (
    InvariantViolation,
    check_dichotomy,
    check_mps,
    check_theorem1,
    inequality_report,
    layer_decompose,
)


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    passed: bool
    detail: str


def _rat(value) -> str:
    """num/den plus a decimal rendering; decisions never use the decimal."""
    return f"{value} ({float(value):.6g})"


def _check_prop1(g, report, gg):
    ok = set(report.cejz_boundary) <= set(report.boundary)
    return CheckOutcome(
        "prop1", ok, f"cejz={len(report.cejz_boundary)} boundary={len(report.boundary)}"
    )


def _check_prop2(g, report, gg):
    leaves = {u for u in range(g.n) if g.degree(u) == 1}
    bset = set(report.boundary)
    ok = leaves <= bset
    detail = f"leaves={len(leaves)}"
    if g.m == g.n - 1 and g.n >= 2:  # tree: boundary is exactly the leaf set
        ok = ok and bset == leaves
        detail += " tree=yes"
    return CheckOutcome("prop2", ok, detail)


def _check_prop3(g, report, gg):
    size = len(report.boundary)
    if g.n < 2:
        return CheckOutcome("prop3", size == 0, "single vertex")
    ok = size >= 2 and (size != 2 or is_path_graph(g))
    return CheckOutcome("prop3", ok, f"boundary={size}")


def _check_thm1(g, report, gg):
    entry = check_theorem1(g, report)
    return CheckOutcome(
        "thm1", entry.passed, f"observed={entry.observed} bound={_rat(entry.bound)}"
    )


def _check_thm2(g, report, gg):
    # the bound is the same at every source, so it holds iff it holds at the weakest
    entry = inequality_report(g, report).theorem2_min
    detail = (f"sources={g.n} min_margin={_rat(entry.margin)}" if entry.passed
              else f"source={entry.source} observed={entry.observed} bound={_rat(entry.bound)}")
    return CheckOutcome("thm2", entry.passed, detail)


def _check_mps(g, report, gg):
    entry = check_mps(g, report)
    return CheckOutcome("mps", entry.passed, f"cejz={entry.observed} delta+2={entry.bound}")


def _check_laplacian(g, report, gg):
    # column v of L @ D^T is L f_v; its positive entries must be the slice of v
    positive = (laplacian_matrix(g) @ report.distances.T.astype(np.int64)).T > 0
    bad = np.nonzero((positive != report.in_slice).any(axis=1))[0]
    if bad.size:
        return CheckOutcome("laplacian", False, f"mismatch at source {bad[0]}")
    return CheckOutcome("laplacian", True, f"sources={g.n}")


def _check_dichotomy(g, report, gg):
    delta = g.max_degree
    for v, row in enumerate(report.distances):
        members = np.flatnonzero(report.in_slice[v]).tolist()
        try:
            check_dichotomy(layer_decompose(g, v, row.tolist(), members), delta)
        except InvariantViolation as exc:
            return CheckOutcome("dichotomy", False, str(exc))
    return CheckOutcome("dichotomy", True, f"sources={g.n}")


def _check_prop4(g, report, gg):
    try:
        pairs = classify_prop4(gg, report)
    except WitnessNotFoundError as exc:
        return CheckOutcome("prop4", False, str(exc))
    bad = [u for u, w in pairs if not verify_witness(w, report.distances)]
    if bad:
        return CheckOutcome("prop4", False, f"unverifiable witnesses for {bad}")
    return CheckOutcome("prop4", True, f"full_degree_boundary={len(pairs)}")


_RUNNERS = {
    "prop1": _check_prop1,
    "prop2": _check_prop2,
    "prop3": _check_prop3,
    "thm1": _check_thm1,
    "thm2": _check_thm2,
    "mps": _check_mps,
    "laplacian": _check_laplacian,
    "dichotomy": _check_dichotomy,
    "prop4": _check_prop4,
}
ALL_CHECKS = tuple(_RUNNERS)
_BOUNDS = {"thm1", "thm2", "mps"}  # stated for graphs with at least two vertices


def run_battery(
    g: Graph,
    checks: tuple[str, ...] = ALL_CHECKS,
    gg: GridGraph | None = None,
    report: BoundaryReport | None = None,
) -> list[CheckOutcome]:
    """Run the named checks; prop4 is skipped unless ``gg`` supplies coordinates.

    Every check reads the distance matrix of ``report``. A given report must
    carry slices, else MissingSlicesError is raised. On a single vertex the
    bounds thm1, thm2 and mps pass as skipped.
    """
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    report = sliced(g, report)
    out = []
    for name in checks:
        if name == "prop4" and gg is None:
            continue
        if g.n < 2 and name in _BOUNDS:
            out.append(CheckOutcome(name, True, "skipped: single vertex"))
        else:
            out.append(_RUNNERS[name](g, report, gg))
    return out
