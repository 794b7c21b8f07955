"""Check battery: run every machine-verifiable statement against one graph.

Each check returns a CheckOutcome; a failed outcome on connected input
always indicates a bug somewhere in this package, never a counterexample,
because every checked statement is a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BatchReport, BoundaryReport, batch_boundary, boundary
from .core import Graph, is_path_graph, validate
from .euclid import WitnessNotFoundError, classify_prop4, verify_witness
from .generators import GridGraph, connected_chunks, mask_edges
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


def _layer_keys(dist) -> tuple[np.ndarray, np.ndarray, int]:
    """(keys r * width + d, ell per row, width) for a stack of distance rows."""
    ell = dist.max(axis=1)
    width = int(ell.max()) + 1
    return np.arange(len(dist), dtype=np.int32)[:, None] * width + dist, ell, width


def _broken_rows(keys, outer, member, ell, width, delta) -> np.ndarray:
    """Bool per row of ``keys``: True where the row's layers break the dichotomy.

    For each row r, column j of the counts is layer j's cross edges (those joining
    A_{j-1} and A_j, counted at their outer end as layer_decompose does; ``outer``
    holds the key of that end once per edge), size and slice members: one integer
    bincount each over the keys r * width + j. ``delta`` is one maximum degree, or
    one per row.
    """
    b = len(keys)
    delta = np.reshape(delta, (-1, 1))
    cross = np.bincount(outer, minlength=b * width)
    size = np.bincount(keys.ravel(), minlength=b * width)
    members = np.bincount(keys[member], minlength=b * width)
    last = np.arange(b) * width + ell
    last_bad = (ell >= 1) & ((members[last] != size[last])
                             | (cross[last] > delta[:, 0] * size[last]))
    # mid-layer test |E(A_{j-1}, A_j)| <= |E(A_j, A_{j+1})| + delta |slice ∩ A_j| on every
    # column: it cannot fail at j = 0, which has no cross edges, nor past ell, where all
    # is empty, and at j = ell it fails only where last_bad holds; so it flags the same
    # rows as the test on layers 1..ell-1
    cross = cross.reshape(b, width)
    slack = members.reshape(b, width)
    slack *= delta
    slack[:, :-1] += cross[:, 1:]
    return (cross > slack).any(axis=1) | last_bad


def _dichotomy_flags(dist, member, tails, heads, delta) -> np.ndarray:
    """Rows of a block of sources whose layers break the dichotomy, in increasing order."""
    keys, ell, width = _layer_keys(dist)  # keys < ROW_BLOCK * n
    k_tail, k_head = keys[:, tails], keys[:, heads]
    outer = np.maximum(k_tail, k_head)[k_tail != k_head]  # each cross edge, at its outer end
    # freed before bincount copies outer to intp: a block's scratch then stays small enough
    # for the allocator to reuse it, instead of trimming the heap and faulting it in again
    del k_tail, k_head
    return np.flatnonzero(_broken_rows(keys, outer, member, ell, width, delta))


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


# --- the same checks over a BatchReport: one pass/fail vector per check, all in integers ---

def _batch_prop1(r: BatchReport) -> np.ndarray:
    return ~(r.cejz & ~r.boundary).any(axis=1)


def _batch_prop2(r: BatchReport) -> np.ndarray:
    leaves = r.degrees == 1
    ok = ~(leaves & ~r.boundary).any(axis=1)
    if r.n < 2:
        return ok
    tree = r.m == r.n - 1  # tree: boundary is exactly the leaf set
    return ok & (~tree | (r.boundary == leaves).all(axis=1))


def _batch_prop3(r: BatchReport) -> np.ndarray:
    size = r.boundary.sum(axis=1)
    if r.n < 2:
        return size == 0
    deg = r.degrees
    path = ((deg == 1).sum(axis=1) == 2) & ((deg == 2).sum(axis=1) == r.n - 2)
    return (size >= 2) & ((size != 2) | path)


def _batch_thm1(r: BatchReport) -> np.ndarray:
    # |boundary| >= n / (2 Delta diam), times the positive denominator
    return 2 * r.max_degree * r.diameter * r.boundary.sum(axis=1) >= r.n


def _batch_thm2(r: BatchReport) -> np.ndarray:
    smallest = r.slices.sum(axis=2).min(axis=1)
    return smallest * (2 * r.max_degree * (r.diameter - 1) + 1) >= r.n - 1


def _batch_mps(r: BatchReport) -> np.ndarray:
    return np.left_shift(1, r.cejz.sum(axis=1)) >= r.max_degree + 2


def _batch_laplacian(r: BatchReport) -> np.ndarray:
    # the matrix route: row v of D L is L f_v, whose positive entries must be v's slice
    lap = np.where(r.adjacency, -1, 0).astype(np.int32)
    lap[:, range(r.n), range(r.n)] = r.degrees
    return ((r.distances.astype(np.int32) @ lap > 0) == r.slices).all(axis=(1, 2))


def _batch_dichotomy(r: BatchReport) -> np.ndarray:
    # row b * n + v is source v of graph b; each u counts its nearer neighbors, which are
    # the cross edges that have u as their outer end
    b, n = len(r), r.n
    nearer = (r.adjacency[:, None] & (r.distances[:, :, None] < r.distances[..., None])).sum(
        axis=3, dtype=np.int8)
    keys, ell, width = _layer_keys(r.distances.reshape(b * n, n))
    outer = np.repeat(keys.ravel(), nearer.ravel())
    broken = _broken_rows(keys, outer, r.slices.reshape(b * n, n), ell, width,
                          np.repeat(r.max_degree, n))
    return ~broken.reshape(b, n).any(axis=1)


_BATCH_RUNNERS = {
    "prop1": _batch_prop1,
    "prop2": _batch_prop2,
    "prop3": _batch_prop3,
    "thm1": _batch_thm1,
    "thm2": _batch_thm2,
    "mps": _batch_mps,
    "laplacian": _batch_laplacian,
    "dichotomy": _batch_dichotomy,
}


def run_batch(report: BatchReport, checks: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The pass vector of each named check (prop4 excluded) over the graphs of ``report``.

    Entry b is run_battery's verdict on graph b; the bounds pass on a single vertex.
    """
    skip = _BOUNDS if report.n < 2 else ()
    return {c: np.ones(len(report), dtype=bool) if c in skip else _BATCH_RUNNERS[c](report)
            for c in checks}


@dataclass(frozen=True)
class EnumSweep:
    """Tallies of :func:`enum_sweep`: per check, the failures and the first failing graph."""

    graphs: int
    failures: dict[str, int]
    first_failures: dict[str, tuple[Graph, CheckOutcome]]


def _replay(check: str, n: int, mask: int) -> tuple[Graph, CheckOutcome]:
    """The graph of ``mask`` on n vertices and its per-graph outcome, which must fail."""
    g = validate(mask_edges(n, mask), n)
    [outcome] = run_battery(g, (check,))
    if outcome.passed:
        raise InvariantViolation(f"{check}: the batch pass fails edge mask {mask} on {n} "
                                 "vertices, the per-graph check passes it")
    return g, outcome


def enum_sweep(n_max: int, checks: tuple[str, ...]) -> EnumSweep:
    """Run the checks (prop4 excluded) on every connected labeled graph with n <= n_max.

    Each chunk of :func:`connected_chunks` is checked as one BatchReport. The
    first failing graph of a check, in enumeration order, is rebuilt and run
    through :func:`run_battery` for its detail.
    """
    graphs = 0
    failures = dict.fromkeys(checks, 0)
    first: dict[str, tuple[Graph, CheckOutcome]] = {}
    for n, masks, adjacency, distances in connected_chunks(n_max):
        graphs += len(masks)
        for check, passed in run_batch(batch_boundary(adjacency, distances), checks).items():
            bad = np.flatnonzero(~passed)
            failures[check] += len(bad)
            if len(bad) and check not in first:
                first[check] = _replay(check, n, int(masks[bad[0]]))
    return EnumSweep(graphs, failures, first)
