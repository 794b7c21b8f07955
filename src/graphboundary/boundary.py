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
a time, on a padded fixed-width neighbor layout in the style of ELLPACK
(Bell and Garland, SC 2009). Each neighbor list is padded with its own
vertex u up to a width, and the vertices are grouped into classes of equal
width. A gather of a chunk of distance rows per class gives it as a dense
(rows, width, class size) array that reduces along one axis, and the
class's verdicts are written straight into their vertices' columns. The
padding is exact. Each pad adds d(v, u) to u's neighbor sum, so with S the
sum and W the width,  S < deg(u) d(u, v)  holds iff
S + (W - deg(u)) d(u, v) < W d(u, v). Each pad equals d(u, v), so the
padded maximum is at most d(u, v) exactly when the neighbor maximum is,
which is the CEJZ test.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    on the same graph need no further BFS; outside this module it is read
    only through :meth:`row_blocks`, a block of rows at a time. ``slice_bits``
    holds the slices as read-only packed bit rows, n x ceil(n / 8) bytes; read
    them through :meth:`row_blocks`, :meth:`slice_rows` and :meth:`certifiers`,
    the only code that knows the layout besides :func:`boundary`.
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


# entries of padded neighbor distances a chunk of one class may gather past ROW_BLOCK rows;
# 2^17 and 2^18 were no faster on path 600, tree 600, a lattice and G(400, 0.02), with up to
# 4x the scratch
GATHER_BUDGET = 2**16
# bool slice entries a staging block may hold past ROW_BLOCK rows (1 MiB); GATHER_BUDGET // n
# rows split the large classes of G(1500, 0.01) into chunks of 32 + 11 rows and lost 15% there
_STAGE_BUDGET = 2**20


def _width(d: int) -> int:
    """d rounded up to its top 3 bits: less than d / 4 of padding when d >= 8, none below."""
    shift = max(d.bit_length() - 3, 0)
    return -(-d >> shift) << shift


def _padded_layout(g: Graph) -> list[tuple[np.ndarray | slice, int, np.ndarray]]:
    """Every neighbor list padded with its own vertex, in classes of equal width.

    Returns classes (members, width, slots) of increasing width that
    partition the vertices. ``members`` holds a class's vertex ids in
    increasing order, and ``slots`` is a (width, len(members)) array whose
    column i is the neighbor list of ``members[i]`` padded with that vertex
    itself. A vertex of degree d has width :func:`_width` (d). When padding
    every list to Delta costs at most 2n more slots than that, there is one
    class of width Delta whose ``members`` is ``slice(None)``, so that
    indexing with it is a view.
    """
    n, delta = g.n, g.max_degree
    indptr, indices = g.csr
    deg = indptr[1:] - indptr[:-1]
    width = np.array([_width(d) for d in range(delta + 1)])[deg]
    if n * delta <= int(width.sum()) + 2 * n:
        groups = [(slice(None), delta)]
    else:
        groups = [(np.flatnonzero(width == w), w) for w in sorted(set(width.tolist()))]
    classes = []
    for members, w in groups:
        ids = np.arange(n)[members]
        slot = np.arange(w)[:, None]
        real = slot < deg[ids]
        nbrs = indices[np.where(real, indptr[ids] + slot, 0)]
        classes.append((members, w, np.where(real, nbrs, ids)))
    return classes


def boundary(g: Graph, include_slices: bool = False, threads: int = 1) -> BoundaryReport:
    """Compute the full boundary report from one distance pass, O(n(n+m)) time.

    Sources are evaluated a chunk of rows at a time on the classes of
    :func:`_padded_layout`. For each class, the gather ``part[:, slots]``
    gives the distances from the chunk's sources to its padded slots as a
    (rows, width, class size) array, and ``part[:, members]`` gives d(u, v)
    for its members. One int32 sum and one max along the width then decide
    the class's columns, which are written straight into vertex order. u
    is in the slice of v iff the padded sum is below width * d(u, v), that
    is, iff the padded mean rounded down is below d(u, v), and u is
    CEJZ-certified by v iff the maximum is at most d(u, v) (see the module
    docstring for why the pads change neither). A width is at most
    5/4 Delta, so a padded sum is at most 5/4 Delta (n - 1) <=
    5/4 (n - 1)^2 < 1.35e9 < 2^31 for n <= core.MAX_VERTICES, and it is
    computed in int32.

    Sources are staged in blocks of ``core.ROW_BLOCK`` rows, or more, as
    many as keep the block's bool slice rows within ``_STAGE_BUDGET``
    entries (1 MiB), and never more than n: a graph with n <= 1024 is one
    staging block, and one of ``core.MAX_VERTICES`` vertices has blocks of
    ``ROW_BLOCK`` rows. Within a staging block the classes are taken one at
    a time, and each class is gathered in chunks of ``ROW_BLOCK`` rows, or
    more, as many as keep a chunk within ``GATHER_BUDGET`` entries. So a
    small class is gathered once per staging block, not once per
    ``ROW_BLOCK`` rows, and a graph of many classes pays their per-call
    cost far fewer times. The diameter is the running maximum of the
    staged rows. The scratch of a staging block is its bool slice rows, at
    most max(2^20, ROW_BLOCK * n) entries, as many again for the witness
    step, and one chunk's gather, at most
    max(GATHER_BUDGET, ROW_BLOCK * (5/2 m + 2n)) entries, since the layout
    has at most 5/2 m + 2n slots. The int16 matrix is kept on the report,
    so memory is Theta(n^2) while the report lives: 2 bytes per vertex
    pair (200 MB on a path of 10 000 vertices) plus n^2 / 8 bytes for the
    slices packed as bit rows (12.5 MB on that path). ``include_slices``
    and ``threads`` are accepted and ignored: every report carries its
    slices.

    Raises DisconnectedError on disconnected input (boundaries of
    disconnected graphs are deliberately not defined here).
    """
    dm = distance_matrix(g)
    n = g.n
    classes = [(members, width, slots, max(core.ROW_BLOCK, GATHER_BUDGET // max(slots.size, 1)))
               for members, width, slots in _padded_layout(g)]
    rows = min(n, max(core.ROW_BLOCK, _STAGE_BUDGET // n))
    in_slice = np.empty((rows, n), dtype=bool)  # [v - start, u]: u is in the slice of v
    first = np.full(n, -1, dtype=np.int64)  # smallest certifying source per vertex
    in_cejz = np.zeros(n, dtype=bool)
    slice_bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    diameter = 0
    for start in range(0, n if g.m else 0, rows):  # K_1: its one slice is empty
        blk = dm[start:start + rows]
        diameter = max(diameter, int(blk.max()))
        member = in_slice[:len(blk)]
        for members, width, slots, step in classes:
            for top in range(0, len(blk), step):
                part = blk[top:top + step]
                nb = part[:, slots]
                d = part[:, members]
                mean = nb.sum(axis=1, dtype=np.int32)
                mean //= width  # in place: one more temporary made path 8000 refault its heap
                member[top:top + step, members] = mean < d
                in_cejz[members] |= (nb.max(axis=1) <= d).any(axis=0)
        new = member.any(axis=0) & (first < 0)
        first[new] = start + member[:, new].argmax(axis=0)
        slice_bits[start:start + rows] = np.packbits(member, axis=1, bitorder="little")
    slice_bits.setflags(write=False)

    hit = first >= 0
    members = np.nonzero(hit)[0].tolist()
    report = BoundaryReport(
        n=n,
        m=g.m,
        max_degree=g.max_degree,
        diameter=diameter,
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


@dataclass(frozen=True, eq=False)
class BatchReport:
    """Slices and CEJZ sets of B connected graphs on n vertex slots each, as dense arrays.

    Index b of every array is graph b: ``adjacency`` is (B, n, n) bool,
    ``distances`` (B, n, n) int8, ``slices`` (B, n, n) bool with [b, v, u]
    true iff u is in the slice of v, and ``cejz`` (B, n) bool. A graph of
    fewer vertices than n sits on slots 0..order - 1, and its other slots are
    absent: they have no edges, every row holds 0 in their columns, and each
    absent row repeats the distance row of source 0. The absent slots are then
    neutral, as the pads of :func:`boundary` are. No sum or neighbor reaches
    an absent column, so it is in no slice and no CEJZ set, and having no
    neighbor its step is 0; d = 0 puts it in layer 0 of every source, never
    the outermost layer of a source with ell >= 1, with no term in any sum of
    L f, and leaves the diameter as it is; an absent source's slice, CEJZ
    certificates, steps and layers repeat source 0's, so any minimum,
    maximum, any or all over the sources is unchanged. ``order``
    holds each graph's vertex count, and the checks read it where a graph of
    n vertices reads n. Built by :func:`batch_boundary`, which stores every
    stack batch-inner: b is the contiguous axis, so a reduction over v or u,
    and each step of a loop over one vertex, runs over contiguous runs of B
    entries. The arrays of a
    ``dataclasses.replace`` copy may be in any memory order; only speed
    depends on it. The other quantities, the steps among them, are read off
    these four, each once per report: a replaced copy starts with none.
    Reports compare by identity, since ``==`` on arrays is elementwise.
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

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=2)

    @cached_property
    def order(self) -> np.ndarray:
        """(B,) the vertices of each graph: those of positive degree, or 1 for K_1."""
        return np.maximum((self.degrees > 0).sum(axis=1), 1)

    @cached_property
    def max_degree(self) -> np.ndarray:
        return self.degrees.max(axis=1)

    @cached_property
    def m(self) -> np.ndarray:
        return self.degrees.sum(axis=1) // 2

    @cached_property
    def diameter(self) -> np.ndarray:
        return self.distances.max(axis=(1, 2))

    @cached_property
    def boundary(self) -> np.ndarray:
        """(B, n) bool: u is in some slice of graph b."""
        return self.slices.any(axis=1)

    @cached_property
    def steps(self) -> np.ndarray:
        """(B, n, n) int16: [b, v, u] = max(0, max over w ~ u of d(v, w) - d(v, u))."""
        return _sigma_pass(self.adjacency, self.distances)[2]


def _sigma_pass(adjacency: np.ndarray, distances: np.ndarray) -> tuple[np.ndarray, ...]:
    """(slices, CEJZ, steps) of a stack in any memory order, as batch-inner arrays.

    Step w of one loop over the vertices forms e[b, v, u] = [w ~ u] (d(v, w) - d(v, u))
    in int16. u is in the slice of v iff the sum of e, sigma, is negative, and
    CEJZ-certified by v iff it has a neighbor and no e is positive. The running maximum
    of e, from 0, is the step: the farthest a neighbor of u lies past u, or 0. With int8
    distances and n <= 128, |sigma| <= 127 * 255 < 2^15.
    """
    b, n, _ = adjacency.shape
    sigma, top = (np.zeros((n, n, b), np.int16).transpose(2, 0, 1) for _ in range(2))
    e = np.empty_like(sigma)
    for w in range(n):
        np.subtract(distances[:, :, w, None], distances, out=e, dtype=np.int16)
        e *= adjacency[:, None, w, :]
        sigma += e
        np.maximum(top, e, out=top)
    cejz = ((top <= 0) & adjacency.any(axis=2)[:, None]).any(axis=1)
    return sigma < 0, cejz, top


def batch_boundary(adjacency: np.ndarray, distances: np.ndarray) -> BatchReport:
    """The slices and CEJZ sets of a stack of connected graphs, from :func:`_sigma_pass`.

    Exact on any int8 ``distances`` of a symmetric ``adjacency``, hop distances or not.
    Both stacks must have one shape (B, n, n) with n <= 128, in any memory order; the
    report holds them batch-inner (see :class:`BatchReport`), copied if they are not
    already, with the steps of the same pass.
    """
    if adjacency.ndim != 3 or adjacency.shape != distances.shape \
            or adjacency.shape[1] != adjacency.shape[2]:
        raise ValueError("batch_boundary takes two (B, n, n) stacks of one shape, got "
                         f"{adjacency.shape} and {distances.shape}")
    if distances.dtype != np.int8 or adjacency.shape[1] > 128:
        raise ValueError("batch_boundary takes int8 distances on at most 128 vertices, got "
                         f"{distances.dtype} on {adjacency.shape[1]}")
    adjacency, distances = (np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
                            for x in (adjacency, distances))  # copied only if not batch-inner
    slices, cejz, steps = _sigma_pass(adjacency, distances)
    report = BatchReport(adjacency, distances, slices, cejz)
    report.__dict__["steps"] = steps  # the property's cache, filled from the same pass
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
