"""Dense complex Hermitian linear algebra: the Hermitian part of a matrix,
a Hermitian check for user input, and a stacked square-root pair. All
matrices here are small (n <= 16 or so).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITIAN_RTOL = 1e-12


def hermitianize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^*) / 2."""
    A = np.asarray(A, dtype=complex)
    return (A + np.conj(np.swapaxes(A, -1, -2))) / 2


def check_hermitian(A: np.ndarray) -> np.ndarray:
    """Validate that A is square and Hermitian to relative tolerance HERMITIAN_RTOL.

    Returns the exactly symmetrized copy used by all downstream solvers.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    scale = max(np.linalg.norm(A), 1.0)
    dev = np.linalg.norm(A - A.conj().T)
    if dev > HERMITIAN_RTOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: asymmetry {dev:.3e} exceeds {HERMITIAN_RTOL:.1e} relative"
        )
    return hermitianize(A)


# ---------------------------------------------------------------------------
# Stacked helpers. These skip validation: callers maintain Hermitian
# symmetry themselves and batch over a leading axis. The path engine no
# longer takes square roots; stacked_sqrt_pair stays because the
# benchmark's tests name it.

def stacked_sqrt_pair(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B^{1/2}, B^{-1/2}) for a stack of Hermitian PD matrices (..., n, n)."""
    w, V = np.linalg.eigh(B)
    s = np.sqrt(w)
    Vh = np.conj(np.swapaxes(V, -1, -2))
    Bh = (V * s[..., None, :]) @ Vh
    Bih = (V / s[..., None, :]) @ Vh
    return hermitianize(Bh), hermitianize(Bih)
