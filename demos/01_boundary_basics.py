"""Tour of the two boundary notions on small graph families.

Run: python demos/01_boundary_basics.py
"""

from graphboundary import (
    boundary,
    complete,
    cycle,
    grid,
    path,
    random_tree,
    star,
)

families = {
    "path(8)": path(8),
    "cycle(9)": cycle(9),
    "star(6)": star(6),
    "complete(5)": complete(5),
    "grid(5,5)": grid(5, 5).graph,
    "random_tree(14, seed=2)": random_tree(14, 2),
}

for name, g in families.items():
    rep = boundary(g, include_slices=True)
    print(f"{name}: n={rep.n} m={rep.m} diam={rep.diameter}")
    print(f"  averaged boundary ({len(rep.boundary)}): {list(rep.boundary)}")
    print(f"  CEJZ boundary     ({len(rep.cejz_boundary)}): {list(rep.cejz_boundary)}")

# a single source already sees part of the boundary: here the far rim of a
# grid as judged from the corner
g = grid(5, 5).graph
rep = boundary(g, include_slices=True)
corner_view = sorted(rep.slices[0].members)
print("\ngrid(5,5) boundary seen from corner 0:", corner_view)
print("each member u comes with its witness pair (S, D), S < D strict:")
dist = rep.distances.dist[0].tolist()
for u in corner_view[:4]:
    nbrs = g.adjacency[u]
    print(f"  u={u}: S,D = {(sum(dist[w] for w in nbrs), len(nbrs) * dist[u])}")
