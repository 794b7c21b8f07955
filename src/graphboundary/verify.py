"""Check battery: run every machine-verifiable statement against one graph.

Each check returns a CheckOutcome; a failed outcome on connected input
always indicates a bug somewhere in this package, never a counterexample,
because every checked statement is a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryReport, boundary
from .core import Graph, is_path_graph
from .euclid import WitnessNotFoundError, classify_prop4, verify_witness
from .generators import GridGraph
from .layers import (
    InvariantViolation,
    check_dichotomy,
    check_mps,
    check_theorem1,
    check_theorem2_min,
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
    entry = check_theorem2_min(g, report)
    detail = (f"sources={g.n} min_margin={_rat(entry.margin)}" if entry.passed
              else f"source={entry.source} observed={entry.observed} bound={_rat(entry.bound)}")
    return CheckOutcome("thm2", entry.passed, detail)


def _check_mps(g, report, gg):
    entry = check_mps(g, report)
    return CheckOutcome("mps", entry.passed, f"cejz={entry.observed} delta+2={entry.bound}")


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The ends (u, w) of every edge with u < w, as two arrays read off ``g.csr``."""
    indptr, indices = g.csr
    tails = np.arange(g.n).repeat(indptr[1:] - indptr[:-1])
    lower = tails < indices
    return tails[lower], indices[lower]


def _check_laplacian(g, report, gg):
    # incidence route L = B B^T: edge (u, w) adds f(u) - f(w) to (L f)(u) and subtracts it
    # at w; the positive entries of L f_v must be the slice of v
    # int32 is exact, since adjacent distances differ by at most 1 and so |(L f)(u)| <= deg(u);
    # at half the scratch of int64, a block's arrays stay inside the allocator's reused heap
    for start, dist, member in report.row_blocks():
        b = len(dist)
        if not start:  # flat keys r * n + u of both edge ends, sized by the first, longest block
            rows = np.arange(0, b * g.n, g.n)[:, None]
            tail_keys, head_keys = ((rows + ends).ravel() for ends in _edge_ends(g))
        f = dist.astype(np.int32).ravel()
        tail, head = tail_keys[:b * g.m], head_keys[:b * g.m]
        diff = f[tail] - f[head]
        lf = np.zeros_like(f)
        np.add.at(lf, tail, diff)
        np.subtract.at(lf, head, diff)
        bad = np.flatnonzero((lf > 0) != member.ravel())
        if bad.size:
            return CheckOutcome("laplacian", False, f"mismatch at source {start + bad[0] // g.n}")
    return CheckOutcome("laplacian", True, f"sources={g.n}")


def _dichotomy_flags(dist, member, tails, heads, delta) -> np.ndarray:
    """Rows of a block of sources whose layers break the dichotomy, in increasing order.

    For each row r, column j of the counts is layer j's cross edges (those joining
    A_{j-1} and A_j, counted at their outer end as layer_decompose does), size and
    slice members: one integer bincount each over the keys r * width + j.
    """
    b = len(dist)
    ell = dist.max(axis=1)
    width = int(ell.max()) + 1
    keys = np.arange(b, dtype=np.int32)[:, None] * width + dist  # < ROW_BLOCK * n
    k_tail, k_head = keys[:, tails], keys[:, heads]
    outer = np.maximum(k_tail, k_head)[k_tail != k_head]  # each cross edge, at its outer end
    # freed before bincount copies outer to intp: a block's scratch then stays small enough
    # for the allocator to reuse it, instead of trimming the heap and faulting it in again
    del k_tail, k_head
    cross = np.bincount(outer, minlength=b * width)
    size = np.bincount(keys.ravel(), minlength=b * width)
    members = np.bincount(keys[member], minlength=b * width)
    last = np.arange(b) * width + ell
    last_bad = (ell >= 1) & ((members[last] != size[last]) | (cross[last] > delta * size[last]))
    # mid-layer test |E(A_{j-1}, A_j)| <= |E(A_j, A_{j+1})| + delta |slice ∩ A_j| on every
    # column: it cannot fail at j = 0, which has no cross edges, nor past ell, where all
    # is empty, and at j = ell it fails only where last_bad holds; so it flags the same
    # rows as the test on layers 1..ell-1
    cross = cross.reshape(b, width)
    slack = delta * members.reshape(b, width)
    slack[:, :-1] += cross[:, 1:]
    return np.flatnonzero((cross > slack).any(axis=1) | last_bad)


def _check_dichotomy(g, report, gg):
    tails, heads = _edge_ends(g)
    delta = g.max_degree
    for start, dist, member in report.row_blocks():
        flagged = _dichotomy_flags(dist, member, tails, heads, delta)
        if flagged.size:  # the per-source reference writes the detail of the first one
            r = int(flagged[0])
            members = np.flatnonzero(member[r]).tolist()
            try:
                check_dichotomy(layer_decompose(g, start + r, dist[r].tolist(), members), delta)
            except InvariantViolation as exc:
                return CheckOutcome("dichotomy", False, str(exc))
            raise InvariantViolation(f"dichotomy: the block count flags source {start + r}, "
                                     "the per-source count passes it")
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

    Every check reads the distance matrix and the slices of ``report``. On
    a single vertex the bounds thm1, thm2 and mps pass as skipped.
    """
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    report = report or boundary(g)
    out = []
    for name in checks:
        if name == "prop4" and gg is None:
            continue
        if g.n < 2 and name in _BOUNDS:
            out.append(CheckOutcome(name, True, "skipped: single vertex"))
        else:
            out.append(_RUNNERS[name](g, report, gg))
    return out
