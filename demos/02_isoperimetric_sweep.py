"""The isoperimetric bound across grid sizes, with exact margins.

The bound says the boundary cannot be small unless the diameter is large:
|boundary| >= |V| / (2 * Delta * diam). On n x n grids the boundary is the
rim (4n - 4 vertices), so the ratio |boundary| / (4 sqrt |V|) tends to 1.

Run: python demos/02_isoperimetric_sweep.py
"""

import math

from graphboundary import boundary, check_theorem1, grid, path, slice_overlap_stats

print("n x n grids")
print(f"{'n':>4} {'|V|':>5} {'diam':>5} {'|dG|':>5} {'bound':>10} {'margin':>12} {'|dG|/4sqrt':>10}")
for n in (3, 5, 8, 12, 16, 20):
    g = grid(n, n).graph
    rep = boundary(g)
    e = check_theorem1(g, rep)
    ratio = len(rep.boundary) / (4 * math.sqrt(g.n))
    print(
        f"{n:>4} {g.n:>5} {rep.diameter:>5} {len(rep.boundary):>5} "
        f"{str(e.bound):>10} {str(e.margin):>12} {ratio:>10.3f}"
    )

print("\npaths never grow a boundary, the diameter pays for it instead")
for n in (10, 50, 200):
    g = path(n)
    rep = boundary(g)
    print(f"  path({n}): |dG|={len(rep.boundary)} bound={check_theorem1(g, rep).bound}")

print("\nhow much do the per-source slices overlap on grid(6,6)?")
g = grid(6, 6).graph
stats = slice_overlap_stats(g, boundary(g))
print(
    f"  boundary size {stats['boundary_size']}, certifier counts "
    f"min={stats['min_certifiers']} mean={float(stats['mean_certifiers']):.1f} "
    f"max={stats['max_certifiers']}"
)
