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
ENUM_NMAX = 6  # largest n that enumerate_connected accepts
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


# labeled connected graph counts by n: 1, 1, 4, 38, 728, 26704

ENUM_CHUNK = 256  # edge masks per dense pass; larger chunks run no faster and raise the peak RSS


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    """The edges of ``mask`` on n vertices: pair i of combinations(range(n), 2) iff bit i is set."""
    return [pair for i, pair in enumerate(combinations(range(n), 2)) if mask >> i & 1]


def _dense_distances(adjacency: np.ndarray) -> np.ndarray:
    """Hop distances of a (B, n, n) bool adjacency stack as int8, -1 where unreachable.

    Step k of the BFS is one boolean product, reach_k = reach_{k-1} | reach_{k-1} A, and
    n - 1 steps reach every vertex of a connected graph.
    """
    n = adjacency.shape[1]
    reach = np.broadcast_to(np.eye(n, dtype=bool), adjacency.shape)
    dist = np.where(reach, np.int8(0), np.int8(-1))
    for step in range(1, n):
        grown = reach | reach @ adjacency
        dist[grown & ~reach] = step
        reach = grown
    return dist


def connected_chunks(n_max: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(n, masks, adjacency, distances) of the connected labeled graphs on 1..n_max vertices.

    Edge masks run in increasing order, ENUM_CHUNK at a time, and bit i of a
    mask is pair i of combinations(range(n), 2), as in :func:`mask_edges`.
    Row b of the (B, n, n) bool ``adjacency`` and int8 ``distances`` is the
    graph of ``masks[b]``; only connected graphs are kept. Capped at
    n_max <= ENUM_NMAX (32768 masks at n = 6).
    """
    if not 1 <= n_max <= ENUM_NMAX:
        raise ValueError(f"exhaustive enumeration is capped at n_max <= {ENUM_NMAX}")
    for n in range(1, n_max + 1):
        rows, cols = np.triu_indices(n, 1)  # the pairs in combinations order
        total = 1 << len(rows)
        for lo in range(0, total, ENUM_CHUNK):
            masks = np.arange(lo, min(lo + ENUM_CHUNK, total), dtype=np.int32)
            bits = (masks[:, None] >> np.arange(len(rows), dtype=np.int32) & 1).astype(bool)
            adjacency = np.zeros((len(masks), n, n), dtype=bool)
            adjacency[:, rows, cols] = bits
            adjacency[:, cols, rows] = bits
            dist = _dense_distances(adjacency)
            keep = (dist[:, 0] >= 0).all(axis=1)
            yield n, masks[keep], adjacency[keep], dist[keep]


def enumerate_connected(n_max: int) -> Iterator[Graph]:
    """All connected labeled simple graphs on 1..n_max vertices.

    Enumeration is by edge-subset bitmask in the fixed order of
    :func:`connected_chunks`, so the stream is deterministic.
    """
    for n, masks, _, _ in connected_chunks(n_max):
        for mask in masks.tolist():
            yield validate(mask_edges(n, mask), n)
