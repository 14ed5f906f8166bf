#!/usr/bin/env python3
"""Min-max list orientations and the monomial spanning machinery.

An orientation assigns every edge at most ell of its members; a vertex pays
one unit of outdegree for each adjacent edge oriented away from it.  The
least achievable maximum outdegree always equals the ceiling of the best
subfamily density: a max-flow certifies feasibility from above, a counting
argument blocks anything smaller.
"""

import math

from dslab import (build_oig, check_spanning, ds_dimension, gen_random,
                   max_density_subfamily, min_max_orientation, outdegrees)
from dslab.algebra import direction_subspace_dim, eval_matrix, monomial_set
from dslab.oig import orientation_to_json

W = gen_random(3, 3, 10, seed=2)
G = build_oig(W)
sigma, t_star = min_max_orientation(G, 1)
val, _F = max_density_subfamily(W, 1)
print("graph:", G.n_vertices, "vertices,", G.n_edges, "edges")
print("t_star =", t_star, " ceil(max subfamily density) =", math.ceil(val))
print("outdegrees:", outdegrees(G, sigma))
print("orientation:", orientation_to_json(sigma)[:100], "...")

# The function space on W is spanned by monomials with per-coordinate degree
# below the realized alphabet size and few high-degree coordinates: s at the
# DS dimension already suffices, s below it can fail.
for ell in (1, 2):
    d = ds_dimension(W, ell)[0]
    for s in range(W.n + 1):
        ok, rank, size = check_spanning(W, ell, s)
        marker = " <- s = d_DS" if s == d else ""
        print(f"ell={ell} s={s}: rank {rank}/{size} spanning={ok}{marker}")

# Per direction, functions that restrict to low-degree polynomials on every
# edge form a subspace of dimension sum min(ell, |e|).
mons = monomial_set(W, 1, W.n)
M = eval_matrix(W, mons)
print("monomials:", len(mons), "evaluation matrix:", (len(M), len(W)))
for i in range(1, W.n + 1):
    print(f"direction {i}: dim U_{i} =", direction_subspace_dim(W, i, 1))
