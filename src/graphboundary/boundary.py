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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core
from .core import Graph, InvariantViolation, VertexOutOfRangeError, distance_matrix


@dataclass(frozen=True)
class BoundarySlice:
    """The slice of one source vertex: one element of ``BoundaryReport.slices``.

    The source is never a member of its own slice: d(v, v) = 0 makes
    deg(v) * d(v, v) = 0, and no sum of distances is negative.
    """

    source: int
    members: frozenset[int]


@dataclass(frozen=True)
class BoundaryReport:
    """Full boundary description of one connected graph.

    ``witness`` maps each boundary member to the smallest source id that
    certifies it, for reproducibility. ``distances`` is the read-only
    distance matrix the report was computed from, kept so that later checks
    on the same graph need no further BFS. ``slice_bits`` holds the slices
    as read-only packed bit rows, n x ceil(n / 8) bytes; read them through
    :meth:`row_blocks`, :meth:`slice_rows` and :meth:`certifiers`, the only
    code that knows the layout besides :func:`boundary`.
    """

    n: int
    m: int
    max_degree: int
    diameter: int
    boundary: tuple[int, ...]
    cejz_boundary: tuple[int, ...]
    witness: dict[int, int]
    distances: np.ndarray = field(compare=False, repr=False)
    slice_bits: np.ndarray = field(compare=False, repr=False)

    def slice_rows(self, start: int, stop: int) -> np.ndarray:
        """Bool rows [v - start, u] of sources v = start..min(stop, n) - 1: u is in v's slice."""
        if not 0 <= start < self.n:
            raise VertexOutOfRangeError(f"source {start} outside 0..{self.n - 1}")
        return np.unpackbits(self.slice_bits[start:stop], axis=1, count=self.n,
                             bitorder="little").view(bool)

    def row_blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (start, distance rows, bool slice rows), ``core.ROW_BLOCK`` sources at a time.

        Row i of both arrays belongs to source start + i, and the starts
        increase. Every walk over a report's sources goes through here, so
        a walk unpacks one block of slice rows at a time.
        """
        for start in range(0, self.n, core.ROW_BLOCK):
            stop = start + core.ROW_BLOCK
            yield start, self.distances[start:stop], self.slice_rows(start, stop)

    def certifiers(self, u: int) -> list[int]:
        """The sources whose slice holds u, in increasing order."""
        if not 0 <= u < self.n:
            raise VertexOutOfRangeError(f"vertex {u} outside 0..{self.n - 1}")
        return np.flatnonzero(self.slice_bits[:, u >> 3] & (1 << (u & 7))).tolist()

    @cached_property
    def slices(self) -> tuple[BoundarySlice, ...]:
        """The slices as BoundarySlices indexed by source, built on first access."""
        return tuple(BoundarySlice(source=v, members=frozenset(np.flatnonzero(row).tolist()))
                     for v, row in enumerate(slice_row_iter(self)))


def slice_row_iter(report: BoundaryReport) -> Iterator[np.ndarray]:
    """The bool slice row of every source in order, a block at a time."""
    for _, _, rows in report.row_blocks():
        yield from rows


def boundary_slice(g: Graph, dist: Sequence[int]) -> frozenset[int]:
    """Members u with  sum_{w ~ u} d(w, v) < deg(u) * d(u, v)  for the distance row of v."""
    dist = [int(x) for x in dist]  # Python ints: sums over a numpy row would wrap in its dtype
    members = []
    for u, nbrs in enumerate(g.adjacency):
        s = 0
        for w in nbrs:
            s += dist[w]
        d = len(nbrs) * dist[u]
        if s < d:
            members.append(u)
    return frozenset(members)


def laplacian_matrix(g: Graph) -> np.ndarray:
    """L = D - A as an int64 matrix (degree matrix minus adjacency matrix)."""
    indptr, indices = g.csr
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[np.arange(g.n).repeat(indptr[1:] - indptr[:-1]), indices] = 1
    return np.diag(a.sum(axis=1)) - a


def laplacian_slice(g: Graph, dist: Sequence[int], lap: np.ndarray | None = None) -> frozenset[int]:
    """{u : (L f_v)(u) > 0} computed literally through the matrix route.

    Cross-check oracle for :func:`boundary_slice`: the two must agree on
    every input, since (L f_v)(u) = deg(u) d(u, v) - sum_{w ~ u} d(w, v).
    Pass a precomputed ``lap`` when checking many sources on one graph.
    """
    if lap is None:
        lap = laplacian_matrix(g)
    f = np.asarray(dist, dtype=np.int64)
    return frozenset(int(u) for u in np.nonzero(lap @ f > 0)[0])


def cejz_boundary(g: Graph) -> frozenset[int]:
    """CEJZ boundary, read off :func:`boundary`."""
    return frozenset(boundary(g).cejz_boundary)


def boundary(g: Graph, include_slices: bool = False, threads: int = 1) -> BoundaryReport:
    """Compute the full boundary report from one distance pass, O(n(n+m)) time.

    Sources are evaluated ``core.ROW_BLOCK`` at a time as array reductions
    over the distance matrix: S = sum of neighbor distances, D = deg(u) *
    d(u, v), and the neighbor maximum for CEJZ. S and D are at most
    Delta * (n - 1) < 2^31, as n <= core.MAX_VERTICES, so they are summed
    in int32. The int16 matrix is kept on the report, so memory is
    Theta(n^2) while the report lives: 2 bytes per vertex pair (200 MB on
    a path of 10 000 vertices) plus n^2 / 8 bytes for the slices packed as
    bit rows (12.5 MB on that path). ``include_slices`` and ``threads`` are
    accepted and ignored: every report carries its slices.

    Raises DisconnectedError on disconnected input (boundaries of
    disconnected graphs are deliberately not defined here).
    """
    dm = distance_matrix(g)
    indptr, indices = g.csr
    starts = indptr[:-1]
    deg = (indptr[1:] - starts).astype(np.int32)
    first = np.full(g.n, -1, dtype=np.int64)  # smallest certifying source per vertex
    in_cejz = np.zeros(g.n, dtype=bool)
    slice_bits = np.zeros((g.n, (g.n + 7) // 8), dtype=np.uint8)
    # K_1 has no neighbor list, which reduceat cannot take; its one slice is empty
    for start in range(0, g.n if g.m else 0, core.ROW_BLOCK):
        blk = dm[start:start + core.ROW_BLOCK]
        nb = blk[:, indices]
        member = np.add.reduceat(nb, starts, axis=1, dtype=np.int32) < blk * deg
        in_cejz |= (np.maximum.reduceat(nb, starts, axis=1) <= blk).any(axis=0)
        new = member.any(axis=0) & (first < 0)
        first[new] = start + member[:, new].argmax(axis=0)
        slice_bits[start:start + core.ROW_BLOCK] = np.packbits(member, axis=1, bitorder="little")
    slice_bits.setflags(write=False)

    hit = first >= 0
    members = np.nonzero(hit)[0].tolist()
    report = BoundaryReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        diameter=int(dm.max()),
        boundary=tuple(members),
        cejz_boundary=tuple(np.nonzero(in_cejz)[0].tolist()),
        witness=dict(zip(members, first[hit].tolist())),
        distances=dm,
        slice_bits=slice_bits,
    )
    _check_report(report)
    return report


def _check_report(report: BoundaryReport) -> None:
    # definitional: boundary is the union of the slices; CEJZ is contained in it
    if not set(report.cejz_boundary) <= set(report.boundary):
        raise InvariantViolation("CEJZ boundary escaped the averaged boundary")
    if sorted(report.witness) != list(report.boundary):
        raise InvariantViolation("witness map out of sync with boundary set")


@dataclass(frozen=True)
class BatchReport:
    """Slices and CEJZ sets of B connected graphs on the same n vertices, as dense arrays.

    Index b of every array is graph b: ``adjacency`` is (B, n, n) bool,
    ``distances`` (B, n, n) int8, ``slices`` (B, n, n) bool with [b, v, u]
    true iff u is in the slice of v, and ``cejz`` (B, n) bool. Built by
    :func:`batch_boundary`; the other quantities are read off these four.
    """

    adjacency: np.ndarray
    distances: np.ndarray
    slices: np.ndarray
    cejz: np.ndarray

    def __len__(self) -> int:
        return len(self.adjacency)

    @property
    def n(self) -> int:
        return self.adjacency.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=2)

    @property
    def max_degree(self) -> np.ndarray:
        return self.degrees.max(axis=1)

    @property
    def m(self) -> np.ndarray:
        return self.degrees.sum(axis=1) // 2

    @property
    def diameter(self) -> np.ndarray:
        return self.distances.max(axis=(1, 2))

    @property
    def boundary(self) -> np.ndarray:
        """(B, n) bool: u is in some slice of graph b."""
        return self.slices.any(axis=1)


def batch_boundary(adjacency: np.ndarray, distances: np.ndarray) -> BatchReport:
    """The slices and CEJZ sets of a stack of connected graphs, in one dense pass.

    u is in the slice of v iff sum_{w ~ u} d(v, w) < deg(u) * d(u, v), and in
    the CEJZ set iff it has a neighbor and, for some v, no neighbor is
    farther from v than u. The neighbor distances are gathered as one
    (B, n, n, n) array, so this is meant for graphs of a handful of vertices.
    """
    nbr = adjacency[:, None]  # [b, -, u, w]: w ~ u
    gathered = distances[:, :, None]  # [b, v, -, w]: d(v, w)
    deg = adjacency.sum(axis=2, dtype=np.int16)  # int16 sums: at most (n - 1)^2
    slices = (gathered * nbr).sum(axis=3, dtype=np.int16) < deg[:, None] * distances
    farther = (nbr & (gathered > distances[..., None])).any(axis=3)
    cejz = (~farther & (deg > 0)[:, None]).any(axis=1)
    report = BatchReport(adjacency, distances, slices, cejz)
    if (cejz & ~report.boundary).any():
        raise InvariantViolation("CEJZ boundary escaped the averaged boundary")
    return report


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
        rows = enumerate(slice_row_iter(report))
        out["slices"] = {str(v): np.flatnonzero(row).tolist() for v, row in rows}
    return out
