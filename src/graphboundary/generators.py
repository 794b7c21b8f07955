"""Deterministic graph family constructors and planar lattice discretization.

Seeded constructions use SplitMix64 as a counter-based generator, so the
k-th random value is a pure function of (seed, k) and output never depends
on iteration order. Pinned constants:

    increment   0x9E3779B97F4A7C15
    mix step 1  0xBF58476D1CE4E5B9  (after xor-shift right 30)
    mix step 2  0x94D049BB133111EB  (after xor-shift right 27)
    final       xor-shift right 31

Identical parameters and seed therefore produce bit-identical edge lists on
any platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .core import Graph, GraphError, is_connected, validate

_MASK = (1 << 64) - 1
ENUM_NMAX = 6  # largest n_max of connected_chunks, which enforces it; verify --nmax reads it
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """The index-th output of a SplitMix64 stream started at ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class EmptyDomainError(GraphError):
    """The lattice mesh contains no point inside the domain."""


class DisconnectedDiscretizationWarning(UserWarning):
    """The discretized graph came out disconnected (lattice too coarse)."""


@dataclass(frozen=True)
class GridGraph:
    """A graph whose vertices carry integer lattice coordinates.

    Adjacency is exactly the lattice-neighbor relation of
    :func:`unit_step_edges`: two vertices are joined iff their coordinates
    differ by one unit step along one axis, so every degree is at most
    2 * dimension. ``scale`` and ``offset`` record the real-space embedding
    for discretized domains (point = offset + scale * coordinate), and are
    None for plain grids.
    """

    graph: Graph
    coordinates: tuple[tuple[int, ...], ...]
    dimension: int
    scale: float | None = None
    offset: tuple[float, ...] | None = None

    def real_coordinates(self) -> list[tuple[float, ...]]:
        if self.scale is None:
            return [tuple(float(x) for x in c) for c in self.coordinates]
        off = self.offset or tuple(0.0 for _ in range(self.dimension))
        return [
            tuple(off[i] + self.scale * c[i] for i in range(self.dimension))
            for c in self.coordinates
        ]


def unit_step_edges(coordinates: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Edges joining distinct integer coordinates one unit step apart along one axis."""
    index = {c: vid for vid, c in enumerate(coordinates)}
    edges = []
    for vid, c in enumerate(coordinates):
        for axis in range(len(c)):
            nbr = index.get(c[:axis] + (c[axis] + 1,) + c[axis + 1:])
            if nbr is not None:
                edges.append((vid, nbr))
    return edges


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return validate([(i, i + 1) for i in range(n - 1)], n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return validate([(i, (i + 1) % n) for i in range(n)], n)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return validate(list(combinations(range(n), 2)), n)


def star(n_leaves: int) -> Graph:
    """K_{1,k}: center 0 with leaves 1..k."""
    if n_leaves < 1:
        raise ValueError("star needs at least one leaf")
    return validate([(0, i) for i in range(1, n_leaves + 1)], n_leaves + 1)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube on 2**d vertices; ids are bit patterns."""
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(x, x | (1 << b)) for x in range(n) for b in range(d) if not x >> b & 1]
    return validate(edges, n)


def grid_d(dims: tuple[int, ...] | list[int]) -> GridGraph:
    """Axis-aligned box lattice; vertex ids are row-major over ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("grid dims must all be >= 1")
    coords = tuple(product(*map(range, dims)))
    graph = validate(unit_step_edges(coords), len(coords))
    return GridGraph(graph=graph, coordinates=coords, dimension=len(dims))


def grid(rows: int, cols: int) -> GridGraph:
    return grid_d((rows, cols))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree, decoded from a random Pruefer sequence.

    The sequence entries are splitmix64(seed, k) mod n for k = 0..n-3;
    decoding always pairs the smallest current leaf first, so the result
    is a pure function of (n, seed).
    """
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return validate([], 1)
    seq = [splitmix64(seed, k) % n for k in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u, w = heappop(leaves), heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return validate(edges, n)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one SplitMix64 draw per vertex pair.

    The pair (u, w), u < w, uses the draw at its lexicographic index, and
    is included iff the draw falls below int(p * 2**64), the product
    truncated. Scaling a float by 2**64 is exact, so the acceptance test is
    exact in integers.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("need 0 <= p <= 1")
    threshold = int(p * 2.0**64)
    edges = []
    k = 0
    for u in range(n):
        for w in range(u + 1, n):
            if splitmix64(seed, k) < threshold:
                edges.append((u, w))
            k += 1
    return validate(edges, n)


# --- planar domain discretization ---

@dataclass(frozen=True)
class DomainSpec:
    """A planar domain plus the lattice mesh used to discretize it.

    ``shape`` is one of disk, annulus, rectangle, l_shape, slit_disk,
    sector; ``params`` holds the shape's real parameters. The lattice has
    spacing ``lam`` and origin ``offset`` (default lam/2 in each axis,
    which keeps mesh points off the shape boundaries for these built-in
    shapes). Membership is strictly interior: mesh points on the boundary
    are excluded, matching an open domain.
    """

    shape: str
    params: tuple[float, ...]
    lam: float
    offset: tuple[float, float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lattice scale must be positive and finite, got lam={self.lam}")
        if any(p <= 0 for p in self.params):
            raise ValueError(f"{self.shape} parameters must be positive")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.shape} parameters must be finite, got {self.params}")
        if self.offset is not None and not all(map(math.isfinite, self.offset)):
            raise ValueError(f"lattice offset must be finite, got {self.offset}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        _SHAPES[self.shape].check(self.params)

    @classmethod
    def disk(cls, radius: float, lam: float, offset=None) -> DomainSpec:
        return cls("disk", (radius,), lam, offset)

    @classmethod
    def annulus(cls, r_in: float, r_out: float, lam: float, offset=None) -> DomainSpec:
        return cls("annulus", (r_in, r_out), lam, offset)

    @classmethod
    def rectangle(cls, width: float, height: float, lam: float, offset=None) -> DomainSpec:
        return cls("rectangle", (width, height), lam, offset)

    @classmethod
    def l_shape(cls, width: float, height: float, lam: float, offset=None) -> DomainSpec:
        """width x height rectangle minus its upper-right quadrant."""
        return cls("l_shape", (width, height), lam, offset)

    @classmethod
    def slit_disk(cls, radius: float, lam: float, slit_width: float | None = None, offset=None) -> DomainSpec:
        """Disk minus a thin rectangle along the positive x axis.

        A zero-width slit cannot separate lattice neighbors, so the slit is
        a rectangle of positive width (default lam / 2).
        """
        return cls("slit_disk", (radius, slit_width if slit_width is not None else lam / 2), lam, offset)

    @classmethod
    def sector(cls, radius: float, alpha: float, lam: float, offset=None) -> DomainSpec:
        """Disk sector with opening angle 2*pi*alpha (alpha a fraction of a turn)."""
        return cls("sector", (radius, alpha), lam, offset)

    def lattice_offset(self) -> tuple[float, float]:
        return self.offset if self.offset is not None else (self.lam / 2, self.lam / 2)

    def inside(self, x: float, y: float) -> bool:
        return _SHAPES[self.shape].inside(self.params, x, y)

    def bounding_box(self) -> tuple[float, float, float, float]:
        return _SHAPES[self.shape].box(self.params)

    def mesh_box(self) -> tuple[int, int, int, int]:
        """(ilo, ihi, jlo, jhi): the inclusive index ranges of the mesh points tested.

        Raises ValueError when lam is so fine that an index overflows a float.
        """
        ox, oy = self.lattice_offset()
        xmin, xmax, ymin, ymax = self.bounding_box()
        try:
            return (math.floor((xmin - ox) / self.lam) - 1, math.ceil((xmax - ox) / self.lam) + 1,
                    math.floor((ymin - oy) / self.lam) - 1, math.ceil((ymax - oy) / self.lam) + 1)
        except OverflowError as exc:
            raise ValueError(f"lattice spacing {self.lam} is too fine for {self.shape}") from exc


class _Shape:
    def __init__(self, arity, inside, box, check=None):
        self.arity = arity
        self.inside = inside
        self.box = box
        self._check = check

    def check(self, params):
        if len(params) != self.arity:
            raise ValueError(f"expected {self.arity} parameters, got {len(params)}")
        if self._check:
            self._check(params)


def _annulus_check(p):
    if p[0] >= p[1]:
        raise ValueError("annulus needs r_in < r_out")


def _sector_check(p):
    if p[1] >= 1.0:
        raise ValueError("sector opening fraction must be < 1")


_SHAPES = {
    "disk": _Shape(
        1,
        lambda p, x, y: x * x + y * y < p[0] * p[0],
        lambda p: (-p[0], p[0], -p[0], p[0]),
    ),
    "annulus": _Shape(
        2,
        lambda p, x, y: p[0] * p[0] < x * x + y * y < p[1] * p[1],
        lambda p: (-p[1], p[1], -p[1], p[1]),
        _annulus_check,
    ),
    "rectangle": _Shape(
        2,
        lambda p, x, y: 0 < x < p[0] and 0 < y < p[1],
        lambda p: (0.0, p[0], 0.0, p[1]),
    ),
    "l_shape": _Shape(
        2,
        lambda p, x, y: (0 < x < p[0] and 0 < y < p[1])
        and not (x >= p[0] / 2 and y >= p[1] / 2),
        lambda p: (0.0, p[0], 0.0, p[1]),
    ),
    "slit_disk": _Shape(
        2,
        lambda p, x, y: x * x + y * y < p[0] * p[0]
        and not (x >= 0 and abs(y) <= p[1] / 2),
        lambda p: (-p[0], p[0], -p[0], p[0]),
    ),
    "sector": _Shape(
        2,
        lambda p, x, y: 0 < x * x + y * y < p[0] * p[0]
        and 0 < (math.atan2(y, x) % (2 * math.pi)) < 2 * math.pi * p[1],
        lambda p: (-p[0], p[0], -p[0], p[0]),
        _sector_check,
    ),
}


def lattice_discretize(spec: DomainSpec) -> GridGraph:
    """Graph on the mesh points strictly inside the domain.

    Vertices are lattice points offset + lam * (i, j) whose center lies
    strictly inside the shape; edges join points at lattice distance one.
    Raises EmptyDomainError when no mesh point is inside; a disconnected
    result is reported with DisconnectedDiscretizationWarning but still
    returned for inspection.
    """
    lam = spec.lam
    ox, oy = spec.lattice_offset()
    ilo, ihi, jlo, jhi = spec.mesh_box()
    points = [
        (i, j)
        for i in range(ilo, ihi + 1)
        for j in range(jlo, jhi + 1)
        if spec.inside(ox + i * lam, oy + j * lam)
    ]
    if not points:
        raise EmptyDomainError(f"no lattice point of spacing {lam} inside {spec.shape}")
    gg = GridGraph(
        graph=validate(unit_step_edges(points), len(points)),
        coordinates=tuple(points),
        dimension=2,
        scale=lam,
        offset=(ox, oy),
    )
    if not is_connected(gg.graph):
        warnings.warn(
            f"discretization of {spec.shape} at lam={lam} is disconnected",
            DisconnectedDiscretizationWarning,
        )
    return gg


# connected labeled graphs of each order k: 1, 1, 4, 38, 728, 26704 (OEIS A001187), all
# read off the masks of n_max vertices, 2^C(n_max, 2) of them (32768 at n_max = 6)

# n_max-vertex edge masks per dense pass: 2^10 makes every n_max <= 5 one pass (n_max = 6
# takes 32), since per-chunk call overhead is most of an nmax-5 sweep. Re-measured on
# batch-inner stacks, 2048 leaves nmax 5 as it is (one pass either way), runs nmax 6 only
# 1-5% faster (61-87 ms against 62-91 ms, best of 7) and raises its traced peak from
# 1.75 to 2.5 MiB
ENUM_CHUNK = 1024


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    """The edges of ``mask`` on n vertices: pair i of combinations(range(n), 2) iff bit i is set."""
    return [pair for i, pair in enumerate(combinations(range(n), 2)) if mask >> i & 1]


def _dense_distances(adjacency: np.ndarray) -> np.ndarray:
    """Hop distances of a (B, n, n) bool adjacency stack as int8, -1 where unreachable.

    Floyd-Warshall in int16 (Floyd, CACM 1962): step k relaxes every pair through
    vertex k, d = min(d, d[:, k] + d[k, :]), as one (B, n, n) add and minimum, so a
    stack takes n steps of n^2 work per graph. Unreachable pairs hold n, which no
    path beats. A distance is at most n - 1, so int8 holds it up to n = 128, and a
    larger n raises ``ValueError``. Every array keeps the memory order of
    ``adjacency``, so a batch-inner stack, b the contiguous axis, gives one.
    """
    n = adjacency.shape[1]
    if n > 128:
        raise ValueError(f"dense int8 distances hold at most 128 vertices, got {n}")
    dist = np.where(adjacency, np.int16(1), np.int16(n))
    dist[:, range(n), range(n)] = 0
    via = np.empty_like(dist)
    for k in range(n):
        np.add(dist[:, :, k, None], dist[:, None, k, :], out=via)
        np.minimum(dist, via, out=dist)
    dist[dist >= n] = -1
    return dist.astype(np.int8)


def connected_chunks(n_max: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(sizes, masks, adjacency, distances) of the connected labeled graphs on 1..n_max vertices.

    Every graph is read off the edge masks of n_max vertices, ENUM_CHUNK masks at a
    time, with one :func:`_dense_distances` call per chunk; bit i of a mask is pair i
    of combinations(range(n_max), 2), as in :func:`mask_edges`. A mask is kept when
    the vertices reachable from 0 are exactly 0..k-1 and every other vertex is
    isolated: its graph has order k, held in ``sizes``, and K_1 is the empty mask.
    Those pairs inside 0..k-1 keep their combinations order, so each chunk, sorted by
    (order, mask), lists its graphs in the order of their k-vertex masks, and every
    graph appears once over the chunks. Row b of the (B, n_max, n_max) bool
    ``adjacency`` and int8 ``distances`` is graph b on its first order slots. Its
    other slots are absent: they have no edges, 0 in their columns and source 0's
    distance row as their rows (see :class:`~graphboundary.boundary.BatchReport`).
    Both stacks are built batch-inner, with b the contiguous axis, as
    ``batch_boundary`` stores them. Capped at n_max <= ENUM_NMAX.
    """
    if not 1 <= n_max <= ENUM_NMAX:
        raise ValueError(f"exhaustive enumeration is capped at n_max <= {ENUM_NMAX}")
    rows, cols = np.triu_indices(n_max, 1)  # the pairs in combinations order
    total = 1 << len(rows)
    # leaving[k]: the bits of the pairs with an end in k..n_max - 1
    leaving = np.array([np.sum(1 << np.flatnonzero(cols >= k)) for k in range(n_max + 1)])
    for lo in range(0, total, ENUM_CHUNK):
        masks = np.arange(lo, min(lo + ENUM_CHUNK, total), dtype=np.int32)
        bits = (masks >> np.arange(len(rows), dtype=np.int32)[:, None] & 1).astype(bool)
        stack = np.zeros((n_max, n_max, len(masks)), dtype=bool)  # [v, u, b]
        stack[rows, cols] = bits
        stack[cols, rows] = bits
        dist = _dense_distances(stack.transpose(2, 0, 1)).transpose(1, 2, 0)
        order = (dist[0] >= 0).sum(axis=0)  # the vertices reachable from 0
        # kept when no edge leaves 0..order - 1, which are then those vertices
        keep = np.flatnonzero((masks & leaving[order]) == 0)
        keep = keep[np.argsort(order[keep], kind="stable")]
        sizes = order[keep]
        adjacency, dist = np.take(stack, keep, axis=2), np.take(dist, keep, axis=2)
        first = np.searchsorted(sizes, range(1, n_max + 1))  # where each order starts
        for k in range(1, n_max):  # slots k.. of the graphs of order k are absent
            b = slice(first[k - 1], first[k])
            dist[:, k:, b] = 0
            dist[k:, :, b] = dist[0, :, b]
        yield sizes, masks[keep], adjacency.transpose(2, 0, 1), dist.transpose(2, 0, 1)


def enumerate_connected(n_max: int) -> Iterator[Graph]:
    """All connected labeled simple graphs on 1..n_max vertices.

    The stream runs by vertex count n, then by the edge mask of n vertices: the
    (order, mask) keys of :func:`connected_chunks`, sorted over all chunks, so
    it is deterministic.
    """
    keys = sorted((n, mask) for sizes, masks, _, _ in connected_chunks(n_max)
                  for n, mask in zip(sizes.tolist(), masks.tolist()))
    for n, mask in keys:
        yield validate(mask_edges(n_max, mask), n)
