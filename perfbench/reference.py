"""A fixed reference kernel that measures how fast the machine is running right now.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
over seconds to minutes, for a pure-Python loop as much as for the
program. Interleaving this kernel with the program's calls and dividing
by its time cancels that drift: the program's run time is reported as
seconds at the speed where one kernel call takes ``REF_SECONDS``.

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot move it. It does what the program mostly
does: breadth-first search over adjacency lists and exact ``Fraction``
sums.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

REF_SECONDS = 0.040  # one kernel call on an idle core of the 2.1 GHz Xeon host it was tuned on

_SIDE = 24
_ADJ = [
    [v for v in (u - 1 if u % _SIDE else -1, u + 1 if (u + 1) % _SIDE else -1, u - _SIDE, u + _SIDE)
     if 0 <= v < _SIDE * _SIDE]
    for u in range(_SIDE * _SIDE)
]
EXPECTED = Fraction(4600)  # the kernel's result, checked so it cannot silently do less work


def kernel() -> Fraction:
    """Mean BFS distance over a 24 x 24 grid from every other vertex, summed exactly."""
    n = len(_ADJ)
    total = Fraction(0)
    for src in range(0, n, 2):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += Fraction(sum(dist), n)
    return total


def timed_kernel() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    result = kernel()
    seconds = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, expected {EXPECTED}")
    return seconds


def scaled(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while a kernel call took ``ref_seconds``, at the reference speed."""
    return seconds * REF_SECONDS / ref_seconds
