"""Tubes in a circled (complex) norm, plus a sweep of the tilt inequality
that powers the norm-general tube bound.

For K = {|diag(w) z| <= 1} the largest Euclidean ball inside K has radius
1/max(w); the tube of the hyperbola in this norm is compared against the
tube of the contact hyperplane translate at the same distance.
"""

import numpy as np

from fiberloc import (
    PolynomialMap,
    circled_norm_geometry,
    estimate_tube_grid,
    hyperbola_map,
    tilt_inequality_check,
)

w = np.array([1.0, 2.0])
geom = circled_norm_geometry(w)
print(f"weights {w}: inradius r_K={geom.r_K}, contact point {geom.z0}")

d = np.sqrt(2.0)
plane = PolynomialMap(2, 1, [[(1.0, [0, 1]), (-d, [0, 0])]], [0.0, d])
r_grid = [0.5, 1.0]
curved = estimate_tube_grid(hyperbola_map(), r_grid, 5000, seed=3, norm_weights=w)
flat = estimate_tube_grid(plane, r_grid, 5000, seed=4, norm_weights=w)
for r, ez, eh in zip(r_grid, curved.rows, flat.rows):
    print(f"r={r}: curved tube {ez.p_hat:.4f} (+-{ez.stderr:.4f})  "
          f"hyperplane tube {eh.p_hat:.4f} (+-{eh.stderr:.4f})")

print()
print("tilt inequality on random curved Gaussians (k=1):")
rng = np.random.default_rng(0)
for _ in range(5):
    B = np.array([[1.0 + 3 * rng.uniform()]])
    v = np.array([rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())])
    R = rng.uniform(0.2, 2.0)
    chk = tilt_inequality_check(B, v, R)
    print(f"  b={B[0,0]:.3f} |v|={abs(v[0]):.3f} R={R:.3f}: "
          f"lhs={chk.lhs:.6f} >= rhs={chk.rhs:.6f}  {chk.holds}")
