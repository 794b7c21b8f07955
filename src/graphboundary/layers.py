"""The isoperimetric inequality checks, read off a boundary report.

Two theorems on the distance layers A_i = {v : d(v, v0) = i} are verified
here (``verify`` counts the per-layer dichotomy behind the second):

* global bound:      |boundary|            >= |V| / (2 * Delta * diam)
* per-source bound:  |slice of any v|      >= (|V| - 1) / (2 * Delta * (diam - 1) + 1)

plus the cited lower bound |CEJZ boundary| >= log2(Delta + 2).

Each check reads the diameter, boundary and slices off the BoundaryReport
it is handed, so one ``boundary(g)`` feeds all of them; nothing here
computes distances.

Every pass/fail decision is made in exact rational arithmetic: Fraction
comparisons for the two size bounds, and the log2 bound rewritten as the
integer comparison 2**observed >= Delta + 2. Floats appear only as display
values, never in a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundaryReport
from .core import Graph, SingleVertexError


@dataclass(frozen=True)
class BoundEntry:
    """One inequality check: observed quantity vs exact rational bound.

    ``margin`` is observed minus bound in the entry's comparison domain.
    For the two size bounds that domain is the set size itself. For the
    log2 bound the comparison is done as 2**observed >= Delta + 2, so
    ``bound`` is Delta + 2 and ``margin`` is 2**observed - (Delta + 2);
    this keeps the arithmetic exact.
    """

    check: str
    source: int | None
    observed: int
    bound: Fraction
    margin: Fraction
    passed: bool


def _size_entry(check: str, source: int | None, observed: int, bound: Fraction) -> BoundEntry:
    return BoundEntry(check=check, source=source, observed=observed, bound=bound,
                      margin=Fraction(observed) - bound, passed=observed >= bound)


def check_theorem1(g: Graph, report: BoundaryReport) -> BoundEntry:
    """Global isoperimetric bound |boundary| >= |V| / (2 * Delta * diam); needs no slices."""
    if g.n < 2:
        raise SingleVertexError("bound needs at least two vertices")
    bound = Fraction(g.n, 2 * g.max_degree * report.diameter)
    return _size_entry("theorem1", None, len(report.boundary), bound)


def theorem2_bound(n: int, delta: int, diam: int) -> Fraction:
    # diam = 1 collapses the denominator to 1, so complete graphs need no special case
    return Fraction(n - 1, 2 * delta * (diam - 1) + 1)


def check_theorem2(g: Graph, v: int, report: BoundaryReport) -> BoundEntry:
    """Per-source refined bound |slice of v| >= (|V|-1) / (2*Delta*(diam-1)+1)."""
    if g.n < 2:
        raise SingleVertexError("bound needs at least two vertices")
    bound = theorem2_bound(g.n, g.max_degree, report.diameter)
    return _size_entry("theorem2", v, int(report.slice_rows(v, v + 1).sum()), bound)


def check_theorem2_min(g: Graph, report: BoundaryReport) -> BoundEntry:
    """:func:`check_theorem2` at the weakest source, the lowest among ties.

    The bound is the same at every source, so it holds iff it holds there.
    """
    sizes = np.concatenate([rows.sum(axis=1) for _, _, rows in report.row_blocks()])
    return check_theorem2(g, int(sizes.argmin()), report)


def check_mps(g: Graph, report: BoundaryReport) -> BoundEntry:
    """Cited bound |CEJZ boundary| >= log2(Delta + 2), in integers; needs no slices."""
    observed = len(report.cejz_boundary)
    target = g.max_degree + 2
    return BoundEntry(
        check="mps",
        source=None,
        observed=observed,
        bound=Fraction(target),
        margin=Fraction(2**observed - target),
        passed=2**observed >= target,
    )


def slice_overlap_stats(g: Graph, report: BoundaryReport) -> dict:
    """How many sources certify each boundary member (overlap of the slices).

    Exploratory output only; no theorem fixes what these numbers should be.
    """
    certifiers = sum(rows.sum(axis=0) for _, _, rows in report.row_blocks())
    counts = {u: int(certifiers[u]) for u in report.boundary}
    values = sorted(counts.values())
    return {
        "boundary_size": len(values),
        "min_certifiers": values[0] if values else 0,
        "max_certifiers": values[-1] if values else 0,
        "mean_certifiers": Fraction(sum(values), len(values)) if values else Fraction(0),
        "certifier_counts": counts,
    }


# CSV sweep schema (fixed): one row per (graph, check). The check column
# identifies the row; bounds and margins are num/den pairs of the exact
# rationals from BoundEntry.
SWEEP_COLUMNS = (
    "family",
    "params",
    "check",
    "n",
    "m",
    "delta",
    "diam",
    "boundary_size",
    "cejz_size",
    "bound_value_num",
    "bound_value_den",
    "margin_num",
    "margin_den",
    "pass",
)


def sweep_rows(family: str, params: str, g: Graph, report: BoundaryReport) -> list[dict]:
    """One CSV row per check: theorem1, theorem2 at its weakest source, and mps."""
    rows = []
    for entry in (check_theorem1(g, report), check_theorem2_min(g, report),
                  check_mps(g, report)):
        rows.append(
            {
                "family": family,
                "params": params,
                "check": entry.check,
                "n": g.n,
                "m": g.m,
                "delta": g.max_degree,
                "diam": report.diameter,
                "boundary_size": len(report.boundary),
                "cejz_size": len(report.cejz_boundary),
                "bound_value_num": entry.bound.numerator,
                "bound_value_den": entry.bound.denominator,
                "margin_num": entry.margin.numerator,
                "margin_den": entry.margin.denominator,
                "pass": entry.passed,
            }
        )
    return rows
