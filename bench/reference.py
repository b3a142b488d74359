"""A fixed reference kernel that measures how fast the machine is right now.

On a VM whose cores are shared with other tenants, the speed of the same
code drifts by 20-40% over tens of seconds to minutes (a fixed Python loop
measured 29-47 ms per 5 s window on a 2-core x86 VM, and the set-up probe
0.27 s and 0.35 s in two batches five minutes apart). `bench/run.py` runs
this kernel before and after every timed invocation and every set-up
probe, and reports each time at nominal speed: scaled by NOMINAL_S over
the mean of the two reference times around it. That cancels most of the
drift.

The kernel mixes the three kinds of work fiberloc does: interpreted Python
loops, many NumPy calls on tiny batched matrices, and vectorised complex
arithmetic on arrays of tens of thousands of points. It does not use
fiberloc, so no change to the program changes it.

Set-up time is a different kind of work: a fresh interpreter reading and
compiling modules, most of it NumPy's and jsonschema's. It is scaled by a
reference of its own, a fresh interpreter that imports just those two
dependencies. Over 30 windows of nine probes, the set-up probe's median
tracked it with slope 1.03 in log time, where it tracked the arithmetic
kernel with slope 1.13, and scaling by it left a 0.019 standard deviation
of log time across windows, against 0.039.
"""

import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((8, 2, 2)) + 1j * _rng.standard_normal((8, 2, 2))
_M = _M @ np.conj(np.swapaxes(_M, -1, -2)) + np.eye(2)
_Z = _rng.standard_normal(20000) + 1j * _rng.standard_normal(20000)
_EXPS = np.array([0, 1, 2])


def _python_loop():
    s = 0
    for i in range(150_000):
        s += i * i
    return s


def _tiny_matrices():
    a = _M
    for _ in range(600):
        w, v = np.linalg.eigh(a)
        a = (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return a


def _complex_arrays():
    z = _Z
    for _ in range(20):
        z = (z[:, None] ** _EXPS).sum(axis=1) * 1e-3 + _Z
    return z


# The kernel's typical time on the 2-core x86 VM the benchmark was built on
# (medians of 57-79 ms over 40 runs of 20 s). A time "at nominal speed" is
# what it would have been had the machine run the kernel in exactly this.
NOMINAL_S = 0.070


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel (about 70 ms)."""
    t0 = time.perf_counter()
    _python_loop()
    _tiny_matrices()
    _complex_arrays()
    return time.perf_counter() - t0


# The import reference's typical time on the same VM (medians of 0.24-0.29 s
# over runs of ten, 0.34 s over one slow four-minute stretch).
IMPORT_NOMINAL_S = 0.28


def import_reference_seconds() -> float:
    """Wall time of a fresh interpreter importing fiberloc's dependencies."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, jsonschema"],
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def at_nominal(walls, refs, nominal=NOMINAL_S) -> list:
    """Scale wall time i, measured between reference times i and i + 1, to
    nominal speed."""
    return [w * nominal * 2 / (r0 + r1) for w, r0, r1 in zip(walls, refs, refs[1:])]
