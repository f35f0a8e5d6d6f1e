"""Sample one random tree and exhibit every parameter with its certificate.

The classification under capacity b answers all of them at once: a vertex
is P when fewer than b of its children are P.  b=1 gives the independence
number and a maximum matching; b=2 gives the longest path-collection and
hence the minimum path cover.
"""

import numpy as np

from slithercode import (
    COMPLY,
    NORMAL,
    bf_max_capacity_edges,
    bf_max_independent,
    classify,
    max_capacity_edges,
    path_cover_decomposition,
    sample_uniform_rooted_tree,
    strategic_set,
)

rng = np.random.default_rng(2024)
t = sample_uniform_rooted_tree(12, rng=rng)
print("uniform random rooted tree, n=12, root", t.root)
kids = t.children_lists()
for v in range(1, 13):
    if kids[v]:
        print(f"  {v} -> {kids[v]}")

pm1 = classify(t, NORMAL)
alpha = len(pm1.p_set())
print("\nnormal game (b=1):")
print("  P:", sorted(pm1.p_set()))
print("  independence number:", alpha, "  brute force:", bf_max_independent(t))
print("  matching number:", t.n - alpha)

cert = strategic_set(t, 1)
print("  maximum matching, one edge per N vertex:", list(cert))

pm2 = classify(t, COMPLY)
print("\ncomply game (b=2):")
print("  labels:", {v: pm2.label(v) for v in range(1, 13)})
edges2 = max_capacity_edges(t, 2)
print("  largest path-collection:", edges2, "edges",
      "  brute force:", bf_max_capacity_edges(t, 2))
print("  strategic edge set:", list(strategic_set(t, 2)))
paths = path_cover_decomposition(t)
print("  minimum path cover,", len(paths), "paths ( = n -", f"{edges2}):")
for p in paths:
    print("   ", " - ".join(map(str, p)))

print("\ncapacity b=3:")
print("  largest degree-<=3 edge set:", max_capacity_edges(t, 3),
      "  brute force:", bf_max_capacity_edges(t, 3))
print("  (a tree with max degree <= 3 is swallowed whole from b=3 on)")
