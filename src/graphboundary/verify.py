"""Check battery: run every machine-verifiable statement against one graph.

Each check returns a CheckOutcome; a failed outcome on connected input
always indicates a bug somewhere in this package, never a counterexample,
because every checked statement is a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BatchReport, BoundaryReport, batch_boundary, boundary
from .core import Graph, InvariantViolation, is_path_graph, validate
from .euclid import WitnessNotFoundError, classify_prop4, verify_witnesses
from .generators import GridGraph, connected_chunks, mask_edges
from .layers import check_mps, check_theorem1, check_theorem2_min


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


# source x edge entries of one sub-block of the laplacian pass; its scratch is then
# bounded whatever m is, and stays inside the heap that the allocator reuses from one
# block to the next
EDGE_BUDGET = 2**15


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The ends (u, w) of every edge with u < w, as two arrays read off ``g.csr``."""
    indptr, indices = g.csr
    tails = np.arange(g.n).repeat(indptr[1:] - indptr[:-1])
    lower = tails < indices
    return tails[lower], indices[lower]


def _incidence_laplacian(f, tail, head, diff, scratch, lf) -> None:
    """L f into ``lf`` by the incidence route L = B B^T, and f(u) - f(w) per edge into ``diff``.

    ``tail`` and ``head`` are flat keys into ``f`` of the two ends (u, w) of each edge;
    edge (u, w) adds f(u) - f(w) to (L f)(u) and subtracts it at w.
    """
    np.take(f, tail, out=diff, mode="clip")  # keys are in range
    diff -= np.take(f, head, out=scratch, mode="clip")
    lf.fill(0)
    np.add.at(lf, tail, diff)
    np.subtract.at(lf, head, diff)


def _dichotomy_rows(f, mismatched, member, diff, scratch) -> tuple[np.ndarray, np.ndarray]:
    """(flagged, recount): bool per row of a sub-block of b sources, with f and ``diff`` flat.

    Where no edge steps by more than 1, sum_{u in A_j} (L f)(u) = |E(A_{j-1}, A_j)| -
    |E(A_j, A_{j+1})| and |(L f)(u)| <= deg(u) <= delta. Where also L f > 0 exactly on the
    slice, each term (L f)(u) - delta [u in slice] is at most 0, so every layer inequality
    and the outermost edge bound hold, and only the containment of A_ell can fail: a row is
    flagged where ell >= 1 and A_ell leaves the slice. Rows that ``mismatched`` marks, or with
    an edge step over 1 (read off ``diff``) or a negative entry, are to be recounted; the
    containment test is written into ``scratch``, a bool buffer of f's size.
    """
    b = len(member)
    rows = f.reshape(b, -1)
    ell = rows.max(axis=1)
    outer = np.equal(rows, ell[:, None], out=scratch.reshape(b, -1))
    flagged = (ell >= 1) & np.greater(outer, member, out=outer).any(axis=1)
    recount = mismatched
    if diff.size and (diff.min() < -1 or diff.max() > 1):
        recount = recount | (np.abs(diff.reshape(b, -1)) > 1).any(axis=1)
    if f.min() < 0:
        recount = recount | (rows.min(axis=1) < 0)
    return flagged, recount


def _dichotomy_detail(row, member, tails, heads, delta, source) -> str | None:
    """The failure detail of one source's layers, or None where they pass.

    A negative entry fails first. Else the row is recounted on its own with three bincounts
    (cross edges at their outer end, layer sizes, slice members), testing, in order, each
    mid layer |E(A_{i-1}, A_i)| <= |E(A_i, A_{i+1})| + delta |slice ∩ A_i|, then that the
    slice holds all of A_ell, then |E(A_{ell-1}, A_ell)| <= delta |A_ell|.
    """
    if row.min() < 0:
        return f"negative distance (source {source})"
    ell = int(row.max())
    lo, hi = row[tails], row[heads]
    cross = np.bincount(np.maximum(lo, hi)[lo != hi], minlength=ell + 1)
    size = np.bincount(row, minlength=ell + 1)
    members = np.bincount(row[member], minlength=ell + 1)
    for i in range(1, ell):
        if cross[i] > cross[i + 1] + delta * members[i]:
            return f"dichotomy failed at layer {i} (source {source})"
    if ell and members[ell] != size[ell]:
        return f"outermost layer not fully in the slice (source {source})"
    if ell and cross[ell] > delta * size[ell]:
        return f"too many edges into the outermost layer (source {source})"
    return None


_PASS_CHECKS = ("laplacian", "dichotomy")  # two verdicts on one walk: _laplacian_pass, _batch_pass


def _laplacian_pass(g, report, checks) -> dict[str, CheckOutcome]:
    """The outcomes of ``checks``, a subset of _PASS_CHECKS, from one walk over the blocks.

    Each block is walked in sub-blocks of max(1, EDGE_BUDGET // m) sources, and each
    sub-block's L f_v and its mismatch with the slices are computed once. int32 is exact
    for any int16 row: an edge steps by less than 2^16 and delta < 2^15. The flat keys
    r * n + u of both edge ends, the gathers, L f and two bool masks are allocated once, sized
    by the first, longest sub-block, so each edge buffer holds max(EDGE_BUDGET, m) entries.

    laplacian: the positive entries of L f_v must be the slice of v. dichotomy: the rows
    :func:`_dichotomy_rows` flags or sets to recount go to :func:`_dichotomy_detail`, in
    order; a flagged row the recount passes raises InvariantViolation. Each outcome is at
    its check's first failing source, and the walk stops once every check failed.
    """
    n, m, delta = g.n, g.m, g.max_degree
    tails, heads = _edge_ends(g)
    pending = set(checks)
    found = {}
    for start, dist, member in report.row_blocks():
        if not start:
            rows = min(len(dist), max(1, EDGE_BUDGET // max(m, 1)))
            offsets = np.arange(0, rows * n, n)[:, None]
            tail_keys, head_keys = ((offsets + ends).ravel() for ends in (tails, heads))
            f_buf, lf_buf = np.empty(rows * n, np.int32), np.empty(rows * n, np.int32)
            diff_buf, head_buf = np.empty(rows * m, np.int32), np.empty(rows * m, np.int32)
            mismatch_buf, outer_buf = np.empty(rows * n, bool), np.empty(rows * n, bool)
        for lo in range(0, len(dist), rows):
            b = min(rows, len(dist) - lo)
            f, lf, diff = f_buf[:b * n], lf_buf[:b * n], diff_buf[:b * m]
            f.reshape(b, n)[:] = dist[lo:lo + b]
            own = member[lo:lo + b]
            _incidence_laplacian(f, tail_keys[:b * m], head_keys[:b * m], diff,
                                 head_buf[:b * m], lf)
            mismatch = np.greater(lf, 0, out=mismatch_buf[:b * n])
            np.not_equal(mismatch, own.ravel(), out=mismatch)
            mismatched = mismatch.reshape(b, n).any(axis=1)
            if "laplacian" in pending and mismatched.any():
                found["laplacian"] = CheckOutcome(
                    "laplacian", False, f"mismatch at source {start + lo + mismatched.argmax()}")
                pending.discard("laplacian")
            if "dichotomy" in pending:
                flagged, recount = _dichotomy_rows(f, mismatched, own, diff, outer_buf[:b * n])
                for r in np.flatnonzero(flagged | recount).tolist():
                    source = start + lo + r
                    detail = _dichotomy_detail(dist[lo + r], member[lo + r], tails, heads,
                                               delta, source)
                    if detail is not None:
                        found["dichotomy"] = CheckOutcome("dichotomy", False, detail)
                        pending.discard("dichotomy")
                        break
                    if flagged[r]:
                        raise InvariantViolation(f"dichotomy: the containment test flags source "
                                                 f"{source}, the per-source count passes it")
            if not pending:
                return found
    return found | {c: CheckOutcome(c, True, f"sources={n}") for c in pending}


def _check_prop4(g, report, gg):
    try:
        pairs = classify_prop4(gg, report)
    except WitnessNotFoundError as exc:
        return CheckOutcome("prop4", False, str(exc))
    held = verify_witnesses([w for _, w in pairs], report.row_blocks())
    bad = [u for (u, _), ok in zip(pairs, held.tolist()) if not ok]
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
    "prop4": _check_prop4,
}
ALL_CHECKS = ("prop1", "prop2", "prop3", "thm1", "thm2", "mps", *_PASS_CHECKS, "prop4")
_BOUNDS = {"thm1", "thm2", "mps"}  # stated for graphs with at least two vertices


def run_battery(
    g: Graph,
    checks: tuple[str, ...] = ALL_CHECKS,
    gg: GridGraph | None = None,
    report: BoundaryReport | None = None,
) -> list[CheckOutcome]:
    """Run the named checks; prop4 is skipped unless ``gg`` supplies coordinates.

    Every check reads the distance matrix and the slices of ``report``; laplacian
    and dichotomy are two verdicts on one walk over its blocks. On a single vertex
    the bounds thm1, thm2 and mps pass as skipped.
    """
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    report = report or boundary(g)
    walked = None
    out = []
    for name in checks:
        if name == "prop4" and gg is None:
            continue
        if g.n < 2 and name in _BOUNDS:
            out.append(CheckOutcome(name, True, "skipped: single vertex"))
        elif name in _PASS_CHECKS:
            walked = walked or _laplacian_pass(g, report, [c for c in checks if c in _PASS_CHECKS])
            out.append(walked[name])
        else:
            out.append(_RUNNERS[name](g, report, gg))
    return out


# --- the same checks over a BatchReport: one pass/fail vector per check, all in integers ---

def _batch_prop1(r: BatchReport) -> np.ndarray:
    return ~(r.cejz & ~r.boundary).any(axis=1)


def _batch_prop2(r: BatchReport) -> np.ndarray:
    leaves = r.degrees == 1
    ok = ~(leaves & ~r.boundary).any(axis=1)
    tree = (r.m == r.order - 1) & (r.order >= 2)  # tree: boundary is exactly the leaf set
    return ok & (~tree | (r.boundary == leaves).all(axis=1))


def _batch_prop3(r: BatchReport) -> np.ndarray:
    size = r.boundary.sum(axis=1)
    deg = r.degrees
    path = ((deg == 1).sum(axis=1) == 2) & ((deg == 2).sum(axis=1) == r.order - 2)
    return np.where(r.order < 2, size == 0, (size >= 2) & ((size != 2) | path))


def _batch_thm1(r: BatchReport) -> np.ndarray:
    # |boundary| >= n / (2 Delta diam), times the positive denominator
    return 2 * r.max_degree * r.diameter * r.boundary.sum(axis=1) >= r.order


def _batch_thm2(r: BatchReport) -> np.ndarray:
    smallest = r.slices.sum(axis=2).min(axis=1)
    return smallest * (2 * r.max_degree * (r.diameter - 1) + 1) >= r.order - 1


def _batch_mps(r: BatchReport) -> np.ndarray:
    # the int64 shift wraps at 63; Delta + 2 <= n + 1 < 2^62, so clamping at 62 is exact
    return np.left_shift(1, np.minimum(r.cejz.sum(axis=1), 62)) >= r.max_degree + 2


def _batch_pass(r: BatchReport, checks) -> dict[str, np.ndarray]:
    """The pass vectors of ``checks``, a subset of _PASS_CHECKS, from one L f loop per block.

    The batch twin of :func:`_laplacian_pass`. The sources are walked in blocks whose
    (B, rows, n) arrays hold at most 2^16 entries, or one source where B n is larger, so
    the scratch stays in cache whatever n is. For f = d(v, .), one loop over w adds the
    term d(v, w) [w ~ u] into ``total``, the sum of f over the neighbors of u, and folds it
    into ``top`` with a maximum; L f is positive where deg * f > total. int16 is exact:
    deg <= n - 1 <= 127 and |d| <= 128, so every sum and deg * d is within 127 * 128 < 2^15.

    laplacian: no row mismatches, (L f > 0) != slice nowhere. dichotomy: by the argument of
    :func:`_dichotomy_rows`, a graph passes unless a row is flagged (ell >= 1 and A_ell
    leaves the slice) or is to be recounted: it mismatches, or has a negative entry, or a
    long step, top > d + 1 at some u (a step down by 2 is a step up at the edge's other
    end, as the adjacency is symmetric). Such rows go to :func:`_dichotomy_detail` in
    source order, read on the graph's first order[b] slots and its own edges, and a flagged
    row the recount passes raises InvariantViolation; so each verdict is run_battery's.

    Neither a pad nor an absent slot sets top > d + 1. A non-neighbor w of u pads the
    maximum with a 0 term, so top >= 0, which exceeds d + 1 only where d < -1, on a row
    recounted anyway. An absent slot u has no neighbors and d(v, u) = 0, so top = 0 there,
    and, with no edges, it adds nothing to the sums of the others; an absent source
    repeats source 0's row, and with it its flags and its recount.
    """
    if not checks:
        return {}
    b, n = len(r), r.n
    laplacian, dichotomy = np.ones(b, bool), np.ones(b, bool)
    deg = r.degrees.astype(np.int16)
    rows = max(1, 2**16 // max(b * n, 1))
    buffers = [np.empty((rows, n, b), np.int16).transpose(2, 0, 1) for _ in range(3)]
    for lo in range(0, n, rows):
        k = min(rows, n - lo)
        f, member = r.distances[:, lo:lo + k], r.slices[:, lo:lo + k]
        total, top, term = (x[:, :k] for x in buffers)
        total.fill(0)
        top.fill(0)
        for w in range(n):
            np.multiply(f[:, :, w, None], r.adjacency[:, None, w, :], out=term)
            total += term
            if "dichotomy" in checks:
                np.maximum(top, term, out=top)
        np.multiply(deg[:, None, :], f, out=term)
        mismatched = ((term > total) != member).any(axis=2)
        laplacian &= ~mismatched.any(axis=1)
        if "dichotomy" not in checks:
            continue
        ell = f.max(axis=2)
        flagged = (ell >= 1) & ((f == ell[:, :, None]) > member).any(axis=2)
        np.subtract(top, f, out=term)
        suspect = flagged | mismatched | (f.min(axis=2) < 0) | (term > 1).any(axis=2)
        for g, i in zip(*np.nonzero(suspect)):
            if not dichotomy[g]:
                continue
            order, v = r.order[g], lo + i
            edges = np.nonzero(np.triu(r.adjacency[g, :order, :order], 1))
            detail = _dichotomy_detail(r.distances[g, v, :order], r.slices[g, v, :order],
                                       *edges, r.max_degree[g], v)
            if detail is not None:
                dichotomy[g] = False
            elif flagged[g, i]:
                raise InvariantViolation(f"dichotomy: the containment test flags source {v} of "
                                         f"graph {g}, the per-source count passes it")
    return {c: {"laplacian": laplacian, "dichotomy": dichotomy}[c] for c in checks}


_BATCH_RUNNERS = {
    "prop1": _batch_prop1,
    "prop2": _batch_prop2,
    "prop3": _batch_prop3,
    "thm1": _batch_thm1,
    "thm2": _batch_thm2,
    "mps": _batch_mps,
    "laplacian": lambda r: _batch_pass(r, ("laplacian",))["laplacian"],
    "dichotomy": lambda r: _batch_pass(r, ("dichotomy",))["dichotomy"],
}


def run_batch(report: BatchReport, checks: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The pass vector of each named check (prop4 excluded) over the graphs of ``report``.

    Entry b is run_battery's verdict on graph b, whatever its order among the n slots
    (see :class:`BatchReport` for why absent slots change no verdict); the bounds pass
    on a single vertex. laplacian and dichotomy are two verdicts of one
    :func:`_batch_pass`, as they are of one walk in run_battery.
    """
    walked = _batch_pass(report, [c for c in checks if c in _PASS_CHECKS])
    single = report.order < 2
    return {c: walked[c] if c in walked else
            _BATCH_RUNNERS[c](report) | single if c in _BOUNDS else _BATCH_RUNNERS[c](report)
            for c in checks}


@dataclass(frozen=True)
class EnumSweep:
    """Tallies of :func:`enum_sweep`: per check, the failures and the first failing graph."""

    graphs: int
    failures: dict[str, int]
    first_failures: dict[str, tuple[Graph, CheckOutcome]]


def _replay(check: str, n_max: int, order: int, mask: int) -> tuple[Graph, CheckOutcome]:
    """The graph of ``mask`` and its per-graph outcome, which must fail.

    ``mask`` is an edge mask of n_max vertices whose edges lie inside 0..order - 1.
    """
    g = validate(mask_edges(n_max, mask), order)
    [outcome] = run_battery(g, (check,))
    if outcome.passed:
        raise InvariantViolation(f"{check}: the batch pass fails edge mask {mask} on {order} "
                                 f"vertices of {n_max}, the per-graph check passes it")
    return g, outcome


def enum_sweep(n_max: int, checks: tuple[str, ...]) -> EnumSweep:
    """Run the checks (prop4 excluded) on every connected labeled graph with n <= n_max.

    Each chunk of :func:`connected_chunks` is checked as one BatchReport on n_max
    slots, so n_max <= 5 is one BatchReport and n_max = 6 is 32; a graph of fewer
    vertices sits on absent slots that change no verdict (see :class:`BatchReport`).
    The first failing graph of a check is its smallest (order, mask) over all
    chunks, the enumeration order. It is rebuilt and run through
    :func:`run_battery` for its detail.
    """
    graphs = 0
    failures = dict.fromkeys(checks, 0)
    first: dict[str, tuple[int, int]] = {}
    for sizes, masks, adjacency, distances in connected_chunks(n_max):
        graphs += len(masks)
        for check, passed in run_batch(batch_boundary(adjacency, distances), checks).items():
            bad = np.flatnonzero(~passed)
            failures[check] += len(bad)
            if len(bad):  # a chunk runs in (order, mask) order, so bad[0] is its smallest
                key = (int(sizes[bad[0]]), int(masks[bad[0]]))
                first[check] = min(first.get(check, key), key)
    return EnumSweep(graphs, failures,
                     {check: _replay(check, n_max, *key) for check, key in first.items()})
