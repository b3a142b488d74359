"""Run a handful of localization paths on the paraboloid fiber and watch
the invariants: the center stays glued to the zero set, and the precision
matrix grows monotonically, its trace below n e^t.
"""

import numpy as np

from fiberloc import paraboloid_map, run_path

F = paraboloid_map(2)

for seed in range(3):
    state, diag = run_path(F, T=4.0, h=2e-3, seed=seed)
    print(f"path seed={seed}")
    print("    t    pre_res   lmin(B)    l2(B)     tr(B)")
    for row in diag[:: max(1, len(diag) // 8)]:
        print("  {:5.2f}  {:8.1e}  {:7.4f}  {:7.3f}  {:8.3f}".format(*row))
    print(f"  terminal center a_T = {np.round(state.a, 4)}")
    print(f"  |f(a_T)| = {np.abs(state.a[1] - state.a[0]**2):.2e}")
    print()
