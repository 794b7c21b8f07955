"""Discretize planar domains onto a lattice and inspect their boundaries.

A full-degree lattice vertex that still lands in the boundary certifies
geodesic non-uniqueness: either an equal-distance neighbor or two shortest
paths leaving in opposite directions. Solid convex shapes produce none;
a domain with a hole produces many.

Run: python demos/03_lattice_domains.py
"""

from graphboundary import (
    DomainSpec,
    boundary,
    classify_prop4,
    grid,
    lattice_discretize,
)

for spec in (
    DomainSpec.disk(1.0, 0.2),
    DomainSpec.annulus(0.4, 1.0, 0.2),
    DomainSpec.slit_disk(1.0, 0.2, offset=(0.1, 0.0)),
    DomainSpec.l_shape(1.0, 1.0, 0.125),
):
    gg = lattice_discretize(spec)
    rep = boundary(gg.graph)
    full_deg = [u for u in rep.boundary if gg.graph.degree(u) == 4]
    print(
        f"{spec.shape:>10}: n={gg.graph.n:>4} boundary={len(rep.boundary):>3} "
        f"full-degree boundary={len(full_deg)}"
    )
    if full_deg:
        pairs = classify_prop4(gg, rep)
        w = pairs[0][1]
        x, y = gg.real_coordinates()[w.vertex]
        print(
            f"            e.g. vertex {w.vertex} at ({x:+.2f},{y:+.2f}): {w.case} "
            f"via witness {w.witness}, neighbors {list(w.neighbors)}"
        )

print("\nsolid grids have no full-degree boundary vertex at all:")
for n in (4, 8, 12):
    gg = grid(n, n)
    print(f"  grid({n},{n}): {classify_prop4(gg, boundary(gg.graph))}")
