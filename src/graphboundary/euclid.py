"""Geodesic non-uniqueness on lattice graphs, and the disk-sector check.

A full-degree lattice vertex (degree 2d) that lands in the boundary must
exhibit one of two forms of geodesic non-uniqueness with respect to some
certifying vertex v:

* equal-distance neighbor: a neighbor w of u with d(w, v) = d(u, v);
* antipodal descent: an axis whose two opposite neighbors of u are both
  one step closer to v, i.e. two shortest paths leaving u in opposite
  directions.

This is a theorem for lattice discretizations, so a fruitless witness
search raises an error instead of returning quietly.

Floating point enters this module only in the closed-form sector geometry
and the finite-difference identity check; the witness search is integer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryReport
from .core import Graph, GraphError, InvariantViolation
from .generators import GridGraph

CASE_EQUAL_DISTANCE = "equal_distance_neighbor"
CASE_ANTIPODAL_DESCENT = "antipodal_descent"


class WitnessNotFoundError(InvariantViolation):
    """Non-uniqueness witness missing for a full-degree boundary vertex: a bug."""


class AlphaTooLargeError(GraphError):
    """Sector opening too wide for the diameter formula diam = r."""


@dataclass(frozen=True)
class NonUniquenessWitness:
    """One certified instance of geodesic non-uniqueness.

    ``case`` is CASE_EQUAL_DISTANCE (neighbors holds the tied neighbor) or
    CASE_ANTIPODAL_DESCENT (neighbors holds the axis pair, axis gives the
    direction index).
    """

    vertex: int
    witness: int
    case: str
    neighbors: tuple[int, ...]
    axis: int | None = None


def verify_witness(w: NonUniquenessWitness, row: np.ndarray) -> bool:
    """Re-check the witness's defining equalities on ``row``, the distances from its source."""
    return bool(verify_witnesses([w], [(w.witness, row[None])])[0])


# per case: the number of neighbors a witness lists, and d(neighbor, v) - d(u, v) at each
_CASE_SHAPE = {CASE_EQUAL_DISTANCE: (1, 0), CASE_ANTIPODAL_DESCENT: (2, -1)}


def verify_witnesses(witnesses: Sequence[NonUniquenessWitness],
                     blocks: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """:func:`verify_witness` of every witness, in arrays, one block of source rows at a time.

    ``blocks`` yields (start, dist) with row v - start of ``dist`` the
    distances from source v, as ``BoundaryReport.row_blocks`` does (further
    items of a block are ignored). Each witness is read on the block that
    holds its source's row; a source that no block holds fails.
    """
    rows = []  # (source, u, first, second, step, well formed); a tie lists its neighbor twice
    for w in witnesses:
        size, step = _CASE_SHAPE.get(w.case, (-1, 0))
        formed = len(w.neighbors) == size
        rows.append((w.witness, w.vertex, *(w.neighbors * 2 if formed else (w.vertex,) * 2)[:2],
                     step, formed))
    table = np.array(rows, dtype=np.intp).reshape(-1, 6)
    order = np.argsort(table[:, 0], kind="stable")
    table = table[order]
    sources = table[:, 0].tolist()
    found = np.zeros((len(rows), 3), dtype=np.int16)  # d(u, v), d(first, v), d(second, v)
    read = np.zeros(len(rows), dtype=bool)
    for start, dist, *_ in blocks:
        lo, hi = bisect_left(sources, start), bisect_left(sources, start + len(dist))
        found[lo:hi] = dist[table[lo:hi, :1] - start, table[lo:hi, 1:4]]
        read[lo:hi] = True
    held = np.empty_like(read)
    held[order] = read & (table[:, 5] == 1) & (found[:, 1:] - found[:, :1] == table[:, 4:5]).all(1)
    return held


def _witness_search(report: BoundaryReport, targets: list[int], ends: np.ndarray,
                    all_witnesses: bool, label: str) -> list[tuple[int, NonUniquenessWitness]]:
    """Witnesses of the vertices ``targets``, a block of certifying sources at a time.

    Row t of ``ends`` holds target u's A axis pairs, then its 2A neighbors. A source v
    that certifies u gives an antipodal descent on axis (a, b) if d(a, v) = d(b, v) =
    d(u, v) - 1 and an equal-distance tie at neighbor w if d(w, v) = d(u, v). u keeps its
    first descent in (source, axis) order, or, with none, its first tie in (source,
    neighbor) order; with ``all_witnesses``, every descent in that order, then every tie.
    A block tests, as arrays, only the targets it certifies that have no descent yet.
    """
    half = ends.shape[1] // 2
    ids, listed = np.array(targets, dtype=np.intp), ends.tolist()
    found = [([], []) for _ in targets]  # per target: descents, ties
    pending = np.ones(len(targets), dtype=bool)
    for start, dist, member in report.row_blocks():
        idx = np.flatnonzero(pending)
        cert = member[:, ids[idx]]
        seen = cert.any(axis=0)
        if not seen.any():
            continue
        idx, cert = idx[seen], cert[:, seen].T[:, :, None]  # (targets, rows, 1)
        step = (dist[:, ends[idx]] - dist[:, ids[idx], None]).transpose(1, 0, 2)  # int16: exact
        descent = (step[:, :, :half] == -1).reshape(len(idx), -1, half // 2, 2).all(axis=3)
        for kind, hits in enumerate((descent & cert, (step[:, :, half:] == 0) & cert)):
            t, r, j = np.nonzero(hits)  # in (target, source, axis or neighbor) order
            if t.size and not all_witnesses:  # the first hit of each target
                first = np.ones(t.size, dtype=bool)
                first[1:] = t[1:] != t[:-1]
                t, r, j = t[first], r[first], j[first]
                pending[idx[t]] &= kind == 1  # a descent settles its target
            for i, v, j in zip(idx[t].tolist(), (start + r).tolist(), j.tolist()):
                found[i][kind].append(
                    NonUniquenessWitness(targets[i], v, CASE_EQUAL_DISTANCE, (listed[i][half + j],))
                    if kind else NonUniquenessWitness(targets[i], v, CASE_ANTIPODAL_DESCENT,
                                                      tuple(listed[i][2 * j:2 * j + 2]), j))
    out = []
    for u, (descents, ties) in zip(targets, found):
        hits = descents + ties if all_witnesses else (descents or ties)[:1]
        if not hits:
            raise WitnessNotFoundError(f"no witness for {label} {u}")
        out.extend((u, h) for h in hits)
    return out


def classify_prop4(gg: GridGraph, report: BoundaryReport,
                   all_witnesses: bool = False) -> list[tuple[int, NonUniquenessWitness]]:
    """Witness geodesic non-uniqueness for every full-degree boundary vertex.

    Returns (vertex, witness) pairs ordered by vertex id; with
    ``all_witnesses`` every witness of both cases is enumerated, otherwise
    the first one in the deterministic search order is kept. Raises
    WitnessNotFoundError if some full-degree boundary vertex has none,
    which would mean the classifier or the boundary computation is broken.
    Axis a's pair is the neighbors one step up and one step down along a.
    """
    g, d = gg.graph, gg.dimension
    targets = [u for u in report.boundary if g.degree(u) == 2 * d]
    nbrs = np.array([g.adjacency[u] for u in targets], dtype=np.intp).reshape(-1, 2 * d)
    coords = np.array(gg.coordinates)
    step = coords[nbrs] - coords[targets][:, None]  # (k, 2d, d): one unit step each
    slot = (step[..., None] == (1, -1)).argmax(axis=1).reshape(-1, 2 * d)
    return _witness_search(report, targets, np.hstack((np.take_along_axis(nbrs, slot, 1), nbrs)),
                           all_witnesses, "full-degree boundary vertex")


def classify_cycle(g: Graph, report: BoundaryReport,
                   all_witnesses: bool = False) -> list[tuple[int, NonUniquenessWitness]]:
    """Cycle graphs viewed as one-dimensional lattice rings (2d = 2).

    Every vertex has exactly one antipodal neighbor pair: its two cycle
    neighbors. The wrap-around edge keeps a cycle from being a GridGraph,
    so this dedicated view exists for it.
    """
    if g.n < 3 or any(len(a) != 2 for a in g.adjacency):
        raise ValueError("not a cycle graph")
    nbrs = np.array([g.adjacency[u] for u in report.boundary], dtype=np.intp).reshape(-1, 2)
    return _witness_search(report, list(report.boundary), np.hstack((nbrs, nbrs)), all_witnesses,
                           "cycle vertex")


@dataclass(frozen=True)
class SectorCheck:
    """Closed-form quantities for the narrow disk sector, opening 2*pi*alpha.

    ``bound`` is (d - 1) * area / diameter simplified in closed form to
    pi * r * alpha; the reachable boundary part is the arc, 2 * pi * r *
    alpha, so ``ratio`` is exactly 2: the bound is sharp up to that factor.
    """

    dimension: int
    radius: float
    alpha: float
    arc_length: float
    area: float
    diameter: float
    bound: float
    ratio: float


def sector_check(r: float, alpha: float, alpha_max: float = 0.1) -> SectorCheck:
    """Evaluate the sector family's boundary bound; ratio must be exactly 2.

    Requires 0 < alpha <= alpha_max (default 0.1) so the diameter is the
    radius rather than the far chord; wider openings raise
    AlphaTooLargeError. The chord between the arc's ends is 2 r sin(pi
    alpha), longer than r once alpha > 1/6, so no alpha_max lifts the cap
    past 1/6. Non-finite input, or a sector whose area under- or overflows
    a float, raises ValueError.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if alpha <= 0:
        raise ValueError("opening fraction must be positive")
    cap = min(1 / 6, alpha_max)
    if alpha > cap:
        raise AlphaTooLargeError(f"alpha={alpha} exceeds {cap}; diameter formula breaks")
    base = math.pi * r * alpha  # shared factor keeps the float ratio exact
    arc = 2.0 * base
    area = r * base
    if not (base > 0 and math.isfinite(area)):
        raise ValueError(f"r={r}, alpha={alpha} give no finite nonzero sector")
    check = SectorCheck(
        dimension=2,
        radius=r,
        alpha=alpha,
        arc_length=arc,
        area=area,
        diameter=r,
        bound=base,
        ratio=arc / base,
    )
    if not (check.arc_length >= check.bound and check.ratio == 2.0):
        raise InvariantViolation("sector closed form violated its own inequality")
    return check


def radial_laplacian_identity_check(
    d: int,
    points: list[tuple[float, ...]] | np.ndarray,
    step: float = 1e-3,
) -> float:
    """Max relative deviation of the finite-difference Laplacian of the norm.

    The Laplacian of x -> |x| in R^d equals (d - 1) / |x| away from the
    origin. Each sample point is checked with a central second-order
    stencil of the given step; points must stay well clear of the origin
    (|x| > 2 * step enforced). The step must be positive with a finite,
    nonzero square, else ValueError.
    """
    if d < 2:
        raise ValueError("identity needs d >= 2")
    if not (step > 0 and 0 < step * step < math.inf):
        raise ValueError(f"step {step} must be positive with a finite nonzero square")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != d:
        raise ValueError(f"points must have {d} components")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms <= 2 * step):
        raise ValueError("sample points too close to the origin")
    worst = 0.0
    for x, r in zip(pts, norms):
        lap = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            lap += (
                np.linalg.norm(x + e) - 2.0 * r + np.linalg.norm(x - e)
            ) / step**2
        expected = (d - 1) / r
        worst = max(worst, abs(lap - expected) / expected)
    return worst
