"""Graph boundary computation.

Two notions are computed for a finite simple connected graph:

* the averaged boundary: u is a boundary vertex if some vertex v makes the
  average distance of u's neighbors to v strictly smaller than d(u, v);
* the Chartrand-Erwin-Johns-Zhang (CEJZ) boundary: u qualifies if some v
  makes every neighbor of u no farther from v than u is.

The averaged criterion is evaluated in exact integers: u is in the slice of
v iff  sum_{w ~ u} d(w, v)  <  deg(u) * d(u, v).  Multiplying through by
deg(u) removes the fraction, so there are no floating-point ties anywhere.

Both criteria are evaluated over one distance matrix, a block of sources at
a time, as row reductions of the gathered neighbor distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import core
from .core import (
    DistanceField,
    DistanceMatrix,
    Graph,
    GraphError,
    InvariantViolation,
    distance_matrix,
)


class MissingSlicesError(GraphError):
    """A report built without per-source slices reached code that needs them."""


@dataclass(frozen=True)
class BoundarySlice:
    """Boundary members identified from a single source vertex.

    ``witnesses`` maps each member u to the integer pair (S, D) with
    S = sum of neighbor distances to the source and D = deg(u) * d(u, source);
    membership means S < D strictly. The source never certifies itself:
    d(v, v) = 0 forces D = 0 while S >= 0.
    """

    source: int
    members: frozenset[int]
    witnesses: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class BoundaryReport:
    """Full boundary description of one connected graph.

    ``witness`` maps each boundary member to the smallest source id that
    certifies it, for reproducibility. ``slices`` is indexed by source id.
    ``distances`` is the matrix the report was computed from, kept so that
    later checks on the same graph need no further BFS.
    """

    n: int
    m: int
    max_degree: int
    diameter: int
    boundary: tuple[int, ...]
    cejz_boundary: tuple[int, ...]
    witness: dict[int, int]
    slices: tuple[BoundarySlice, ...] | None = None
    distances: DistanceMatrix | None = field(default=None, compare=False, repr=False)


def sliced(g: Graph, report: BoundaryReport | None = None) -> BoundaryReport:
    """``report``, or a new report of ``g`` with slices when it is None.

    Functions that read ``report.slices`` call this at entry; a given
    report built without slices raises MissingSlicesError.
    """
    if report is None:
        return boundary(g, include_slices=True)
    if report.slices is None:
        raise MissingSlicesError("report was built without slices (include_slices=False)")
    return report


def boundary_slice(g: Graph, df: DistanceField) -> BoundarySlice:
    """Members u with  sum_{w ~ u} d(w, v) < deg(u) * d(u, v)  for v = source."""
    dist = df.dist
    members = []
    witnesses = {}
    for u, nbrs in enumerate(g.adjacency):
        s = 0
        for w in nbrs:
            s += dist[w]
        d = len(nbrs) * dist[u]
        if s < d:
            members.append(u)
            witnesses[u] = (s, d)
    return BoundarySlice(source=df.source, members=frozenset(members), witnesses=witnesses)


def laplacian_matrix(g: Graph) -> np.ndarray:
    """L = D - A as an int64 matrix (degree matrix minus adjacency matrix)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, nbrs in enumerate(g.adjacency):
        for w in nbrs:
            a[u, w] = 1
    return np.diag(a.sum(axis=1)) - a


def laplacian_slice(g: Graph, df: DistanceField, lap: np.ndarray | None = None) -> frozenset[int]:
    """{u : (L f_v)(u) > 0} computed literally through the matrix route.

    Cross-check oracle for :func:`boundary_slice`: the two must agree on
    every input, since (L f_v)(u) = deg(u) d(u, v) - sum_{w ~ u} d(w, v).
    Pass a precomputed ``lap`` when checking many sources on one graph.
    """
    if lap is None:
        lap = laplacian_matrix(g)
    f = np.asarray(df.dist, dtype=np.int64)
    return frozenset(int(u) for u in np.nonzero(lap @ f > 0)[0])


def cejz_boundary(g: Graph) -> frozenset[int]:
    """CEJZ boundary, read off :func:`boundary`."""
    return frozenset(boundary(g).cejz_boundary)


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, deg): the adjacency lists in compressed sparse row form."""
    deg = np.fromiter(map(len, g.adjacency), dtype=np.int64, count=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=2 * g.m)
    return indptr, indices, deg


def _block_slices(start: int, member: np.ndarray, s: np.ndarray, d: np.ndarray) -> list[BoundarySlice]:
    """One BoundarySlice per row of a block of sources beginning at ``start``."""
    us = np.nonzero(member)[1].tolist()  # row-major, so grouped by source
    ss = s[member].tolist()
    ds = d[member].tolist()
    out = []
    pos = 0
    for i, count in enumerate(np.count_nonzero(member, axis=1).tolist()):
        end = pos + count
        mem = us[pos:end]
        witnesses = dict(zip(mem, zip(ss[pos:end], ds[pos:end])))
        out.append(BoundarySlice(source=start + i, members=frozenset(mem), witnesses=witnesses))
        pos = end
    return out


def boundary(g: Graph, include_slices: bool = False, threads: int = 1) -> BoundaryReport:
    """Compute the full boundary report from one distance pass, O(n(n+m)) time.

    Sources are evaluated ``core.ROW_BLOCK`` at a time as array reductions
    over the distance matrix: S = sum of neighbor distances, D = deg(u) *
    d(u, v), and the neighbor maximum for CEJZ, all in int64. The matrix is
    kept on the report, so memory is Theta(n^2) for as long as the report
    lives: 2 bytes per vertex pair below 32768 vertices, 4 bytes from there
    (a path of 10 000 vertices holds 200 MB). ``threads`` is accepted and
    ignored.

    Raises DisconnectedError on disconnected input (boundaries of
    disconnected graphs are deliberately not defined here).
    """
    dm = distance_matrix(g)
    indptr, indices, deg = _csr(g)
    starts = indptr[:-1]
    first = np.full(g.n, -1, dtype=np.int64)  # smallest certifying source per vertex
    in_cejz = np.zeros(g.n, dtype=bool)
    # K_1 has one empty slice and no neighbor list, which reduceat cannot take
    slices = [BoundarySlice(source=0, members=frozenset(), witnesses={})] if g.m == 0 else []
    for start in range(0, g.n if g.m else 0, core.ROW_BLOCK):
        blk = dm.dist[start:start + core.ROW_BLOCK]
        nb = blk[:, indices]
        s = np.add.reduceat(nb, starts, axis=1, dtype=np.int64)
        d = blk * deg
        member = s < d
        in_cejz |= (np.maximum.reduceat(nb, starts, axis=1) <= blk).any(axis=0)
        new = member.any(axis=0) & (first < 0)
        first[new] = start + member[:, new].argmax(axis=0)
        if include_slices:
            slices.extend(_block_slices(start, member, s, d))

    hit = first >= 0
    members = np.nonzero(hit)[0].tolist()
    report = BoundaryReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        diameter=int(dm.dist.max()),
        boundary=tuple(members),
        cejz_boundary=tuple(np.nonzero(in_cejz)[0].tolist()),
        witness=dict(zip(members, first[hit].tolist())),
        slices=tuple(slices) if include_slices else None,
        distances=dm,
    )
    _check_report(report)
    return report


def _check_report(report: BoundaryReport) -> None:
    # definitional: boundary is the union of the slices; CEJZ is contained in it
    if not set(report.cejz_boundary) <= set(report.boundary):
        raise InvariantViolation("CEJZ boundary escaped the averaged boundary")
    if sorted(report.witness) != list(report.boundary):
        raise InvariantViolation("witness map out of sync with boundary set")


def report_to_dict(report: BoundaryReport, include_slices: bool = False) -> dict:
    """Fixed JSON schema used by the CLI and the tests.

    Keys: n, m, max_degree, diameter, boundary, cejz_boundary, witness,
    and optionally slices (source id -> member list). JSON object keys are
    strings, so witness/slices keys are stringified vertex ids.
    """
    out = {
        "n": report.n,
        "m": report.m,
        "max_degree": report.max_degree,
        "diameter": report.diameter,
        "boundary": list(report.boundary),
        "cejz_boundary": list(report.cejz_boundary),
        "witness": {str(u): v for u, v in sorted(report.witness.items())},
    }
    if include_slices:
        if report.slices is None:
            raise ValueError("report was built without slices")
        out["slices"] = {str(sl.source): sorted(sl.members) for sl in report.slices}
    return out
