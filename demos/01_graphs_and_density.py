#!/usr/bin/env python3
"""Walk through one-inclusion graphs and exact list densities.

Every hypothesis class over n coordinates turns into a hypergraph: vertices
are the label vectors, and for each coordinate all vectors agreeing
everywhere else share one edge.  The ell-density averages, per vertex, how
much every edge overshoots list capacity ell.
"""

from fractions import Fraction

from dslab import build_oig, density, gen_cube, max_density_subfamily, mu

# The class [3]^1: three labelings of a single point.  Its graph is a single
# edge of size 3, so with lists of size 1 two of the three labels overflow.
tri = gen_cube(3, 2, 1, 1)
G = build_oig(tri)
print("vertices:", tri.hyps)
print("edges:", [(e.direction + 1, e.members) for e in G.edges()])
print("density at ell=1:", density(tri, 1))   # (3-1)/3 = 2/3
print("density at ell=2:", density(tri, 2))   # (3-2)/3 = 1/3

# The product family [k]^s x [ell]^(m-s) realizes density s(1 - ell/k)
# exactly, which approaches its DS dimension s as k grows.
for k in (4, 8, 16, 64):
    H = gen_cube(k, 2, 2, 3)
    val = density(H, 2)
    assert val == Fraction(2) * (1 - Fraction(2, k))
    print(f"k={k:3d}: density = {val} = {float(val):.4f}")

# Subfamilies can be denser than the class they came from; the exact search
# finds the maximizer by min cuts.
square = gen_cube(2, 1, 2, 2)
val, F = max_density_subfamily(square, 1)
print("densest subfamily of the full square:", val, F.hyps)

# The maximum-density function also ranges over coordinate subsets.
print("mu(n=1):", mu(square, 1, 1), " mu(n=2):", mu(square, 2, 1))
