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
from .euclid import WitnessNotFoundError, classify_prop4, verify_witness
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


# row x edge entries that the laplacian and dichotomy checks gather at once; the
# scratch of a check is then bounded whatever m is, and stays inside the heap that
# the allocator reuses from one block to the next
EDGE_BUDGET = 2**15


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The ends (u, w) of every edge with u < w, as two arrays read off ``g.csr``."""
    indptr, indices = g.csr
    tails = np.arange(g.n).repeat(indptr[1:] - indptr[:-1])
    lower = tails < indices
    return tails[lower], indices[lower]


def _check_laplacian(g, report, gg):
    # incidence route L = B B^T: edge (u, w) adds f(u) - f(w) to (L f)(u) and subtracts it
    # at w; the positive entries of L f_v must be the slice of v
    # int32 is exact, since adjacent distances differ by at most 1 and so |(L f)(u)| <= deg(u).
    # Each block is walked in sub-blocks of max(1, EDGE_BUDGET // m) sources. The flat keys
    # r * n + u of both edge ends, the two gathers and L f are allocated once, sized by the
    # first, longest sub-block, so each edge buffer holds max(EDGE_BUDGET, m) entries at most
    n, m = g.n, g.m
    for start, dist, member in report.row_blocks():
        if not start:
            rows = min(len(dist), max(1, EDGE_BUDGET // max(m, 1)))
            offsets = np.arange(0, rows * n, n)[:, None]
            tail_keys, head_keys = ((offsets + ends).ravel() for ends in _edge_ends(g))
            f_buf, lf_buf = np.empty(rows * n, np.int32), np.empty(rows * n, np.int32)
            diff_buf, head_buf = np.empty(rows * m, np.int32), np.empty(rows * m, np.int32)
            positive_buf = np.empty(rows * n, bool)
        for lo in range(0, len(dist), rows):
            b = min(rows, len(dist) - lo)
            f, lf = f_buf[:b * n], lf_buf[:b * n]
            f.reshape(b, n)[:] = dist[lo:lo + b]
            tail, head = tail_keys[:b * m], head_keys[:b * m]
            diff = np.take(f, tail, out=diff_buf[:b * m], mode="clip")  # keys are in range
            diff -= np.take(f, head, out=head_buf[:b * m], mode="clip")
            lf.fill(0)
            np.add.at(lf, tail, diff)
            np.subtract.at(lf, head, diff)
            positive = np.greater(lf, 0, out=positive_buf[:b * n])
            bad = np.flatnonzero(np.not_equal(positive, member[lo:lo + b].ravel(), out=positive))
            if bad.size:
                return CheckOutcome("laplacian", False,
                                    f"mismatch at source {start + lo + bad[0] // n}")
    return CheckOutcome("laplacian", True, f"sources={n}")


def _layer_keys(dist) -> tuple[np.ndarray, np.ndarray, int]:
    """(keys d * rows + r, ell per row, width) for a stack of distance rows."""
    ell = dist.max(axis=1)
    width = int(ell.max()) + 1
    keys = dist * np.int32(len(dist))
    keys += np.arange(len(dist), dtype=np.int32)[:, None]  # in place: no second key array
    return keys, ell, width


def _broken_rows(keys, cross, member, ell, width, delta) -> np.ndarray:
    """Bool per row: True where the row's layers break the dichotomy.

    The counts are layer-major: row r's layer j is entry j * rows + r, so each layer
    is one contiguous run over the rows. Per row and layer they are the cross edges
    (those joining A_{j-1} and A_j, each counted once at its outer end), the size and
    the slice members. ``cross`` holds the first; the other two are one integer
    bincount each over the keys j * rows + r, which ``keys`` and ``member`` hold in
    the same ravel order, in any shape. ``ell`` holds each row's outermost layer, and
    ``delta`` is one maximum degree, or one per row.
    """
    b = len(ell)
    size = np.bincount(keys.ravel(), minlength=b * width)
    members = np.bincount(np.compress(member.ravel(), keys.ravel()), minlength=b * width)
    last = ell.astype(np.intp) * b + np.arange(b)
    last_bad = (ell >= 1) & ((members[last] != size[last]) | (cross[last] > delta * size[last]))
    # mid-layer test |E(A_{j-1}, A_j)| <= |E(A_j, A_{j+1})| + delta |slice ∩ A_j| on every
    # layer: it cannot fail at j = 0, which has no cross edges, nor past ell, where all
    # is empty, and at j = ell it fails only where last_bad holds; so it flags the same
    # rows as the test on layers 1..ell-1
    cross = cross.reshape(width, b)
    slack = members.reshape(width, b)
    slack *= delta
    slack[:-1] += cross[1:]
    return (cross > slack).any(axis=0) | last_bad


def _dichotomy_flags(dist, member, tails, heads, delta, scratch) -> np.ndarray:
    """Rows of a block of sources whose layers break the dichotomy, in increasing order.

    The edges are gathered max(1, EDGE_BUDGET // rows) at a time into the two int32
    buffers and the bool buffer of ``scratch``, and each chunk's cross edges are added
    into one count per row and layer. The layer keys are gathered from a vertex-major
    copy, so each edge end copies one contiguous run of ``rows`` keys. A chunk whose
    entries all cross layers, as every chunk does when the layers are bipartite, is
    counted as it stands, one with no crossing entry is skipped, and any other is
    compacted with ``np.compress``, whose cost, unlike a boolean mask's, does not jump
    when the cut is irregular.
    """
    keys, ell, width = _layer_keys(dist)
    b = len(dist)
    chunk = max(1, EDGE_BUDGET // b)
    cross = np.zeros(b * width, np.intp)
    by_vertex = np.ascontiguousarray(keys.T)
    for lo in range(0, len(tails), chunk):
        hi = min(lo + chunk, len(tails))
        size = b * (hi - lo)
        k_tail = np.take(by_vertex, tails[lo:hi], axis=0, mode="clip",  # keys are in range
                         out=scratch[0][:size].reshape(hi - lo, b))
        k_head = np.take(by_vertex, heads[lo:hi], axis=0, mode="clip",
                         out=scratch[1][:size].reshape(hi - lo, b))
        cut = np.not_equal(k_tail, k_head, out=scratch[2][:size].reshape(hi - lo, b))
        outer = np.maximum(k_tail, k_head, out=k_tail).ravel()  # each edge, at its outer end
        crossing = np.count_nonzero(cut)
        if crossing == size:
            cross += np.bincount(outer, minlength=b * width)
        elif crossing:
            cross += np.bincount(np.compress(cut.ravel(), outer), minlength=b * width)
    return np.flatnonzero(_broken_rows(keys, cross, member, ell, width, delta))


def _dichotomy_detail(row, member, tails, heads, delta, source) -> str | None:
    """The failure detail of one source's layers, or None where they pass.

    Recounts the row on its own with three bincounts (cross edges at their outer
    end, layer sizes, slice members) and tests, in this order, each mid layer
    |E(A_{i-1}, A_i)| <= |E(A_i, A_{i+1})| + delta |slice ∩ A_i|, then that the
    slice holds all of A_ell, then |E(A_{ell-1}, A_ell)| <= delta |A_ell|.
    """
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


def _check_dichotomy(g, report, gg):
    tails, heads = _edge_ends(g)
    delta = g.max_degree
    for start, dist, member in report.row_blocks():
        if not start:
            # a chunk of b rows, b at most this first block's, has at most
            # min(b * m, max(EDGE_BUDGET, b)) entries
            size = min(len(dist) * g.m, max(EDGE_BUDGET, len(dist)))
            scratch = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size, bool)
        flagged = _dichotomy_flags(dist, member, tails, heads, delta, scratch)
        if flagged.size:  # the first flagged row, recounted on its own, writes the detail
            r = int(flagged[0])
            detail = _dichotomy_detail(dist[r], member[r], tails, heads, delta, start + r)
            if detail is None:
                raise InvariantViolation(f"dichotomy: the block count flags source {start + r}, "
                                         "the per-source count passes it")
            return CheckOutcome("dichotomy", False, detail)
    return CheckOutcome("dichotomy", True, f"sources={g.n}")


def _check_prop4(g, report, gg):
    try:
        pairs = classify_prop4(gg, report)
    except WitnessNotFoundError as exc:
        return CheckOutcome("prop4", False, str(exc))
    by_source = {}
    for i, (_, w) in enumerate(pairs):
        by_source.setdefault(w.witness, []).append(i)
    good = set()
    for start, dist, _ in report.row_blocks():  # each witness against its source's row
        good.update(i for v in by_source.keys() & range(start, start + len(dist))
                    for i in by_source[v] if verify_witness(pairs[i][1], dist[v - start]))
    bad = [u for i, (u, _) in enumerate(pairs) if i not in good]
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


def _batch_laplacian(r: BatchReport) -> np.ndarray:
    """The matrix route: row v of D L is L f_v, whose positive entries must be v's slice.

    D L = deg * D - D A, with D A contracted on its own, not read off the sums of
    batch_boundary. A loop over w adds d(v, w) [w ~ u] into an int32 accumulator, one
    broadcast multiply of the int8 distances by the bool adjacency per step, with b
    innermost; deg * D then reuses the step's buffer.
    """
    b, n, _ = r.adjacency.shape
    total = np.zeros((n, n, b), np.int32).transpose(2, 0, 1)
    term = np.empty_like(total)
    for w in range(n):
        np.multiply(r.distances[:, :, w, None], r.adjacency[:, None, w, :], out=term)
        total += term
    np.multiply(r.degrees[:, None, :], r.distances, out=term)
    return ((term > total) == r.slices).all(axis=(1, 2))


def _batch_dichotomy(r: BatchReport) -> np.ndarray:
    # the nearer neighbors w of u, d(v, w) < d(v, u), are the cross edges that have u as
    # their outer end. The layers are tallied one source v at a time, row g being graph g,
    # so a tally holds B * width counts whatever n is; v's [u, b] slab of a batch-inner
    # view is contiguous
    b = len(r)
    by_source, near, member = (x.transpose(1, 2, 0) for x in (r.distances, r.nearer, r.slices))
    ell = by_source.max(axis=1)
    width = int(ell.max(initial=0)) + 1  # initial: an empty stack has no layers
    rows = np.arange(b, dtype=np.int32)
    broken = np.zeros(b, bool)
    for v in range(r.n):
        keys = by_source[v] * np.int32(b)
        keys += rows
        cross = np.zeros(b * width, np.intp)
        # add.at is fast only on values of the accumulator's dtype (about 25 times here)
        np.add.at(cross, keys.ravel(), near[v].astype(np.intp).ravel())
        broken |= _broken_rows(keys, cross, member[v], ell[v], width, r.max_degree)
    return ~broken


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

    Entry b is run_battery's verdict on graph b, whatever its order among the n slots
    (see :class:`BatchReport` for why absent slots change no verdict); the bounds pass
    on a single vertex.
    """
    single = report.order < 2
    return {c: _BATCH_RUNNERS[c](report) | single if c in _BOUNDS else _BATCH_RUNNERS[c](report)
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
