"""Pins the BLAS thread pools to one thread before NumPy loads, as
bench/run.py does: the matrices fiberloc factors are 2 x 2, and a second
thread only competes with the other processes of a busy machine. A value
already set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
