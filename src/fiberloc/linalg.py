"""Dense complex Hermitian linear algebra on small matrices (n <= 16 or so).

hermitianize and check_hermitian take the matrix axes last. The private
kernels, shared by the path engine and the closest-point solver, take
P-last stacks (r, c, P), the stack index last, so that each NumPy call acts
on the whole stack. stacked_sqrt_pair is kept only for the benchmark.
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


def stacked_sqrt_pair(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B^{1/2}, B^{-1/2}) for a stack of Hermitian PD matrices (..., n, n)."""
    w, V = np.linalg.eigh(B)
    s = np.sqrt(w)
    Vh = np.conj(np.swapaxes(V, -1, -2))
    Bh = (V * s[..., None, :]) @ Vh
    Bih = (V / s[..., None, :]) @ Vh
    return hermitianize(Bh), hermitianize(Bih)


# ---------------------------------------------------------------------------
# Small-matrix kernels over P-last stacks. They skip validation, and each
# matrix product is an explicit sum over the small axes.

# The Jacobi sweeps of _jacobi_eigh; a sweep in which no row rotates ends it
_JACOBI_SWEEPS = 30
_EPS = np.finfo(float).eps


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The products A B of a stack A (r, c, P) with a stack of matrices
    B (c, s, P) or of vectors B (c, P), summed over c term by term.

    Both factors of every product have the same number of axes: NumPy
    multiplies a one-element complex array by one of fewer axes without
    the fused multiply-add it uses otherwise, so a stack of one would round
    differently from a longer stack. An empty sum, c = 0, is zero: the
    tangent space has no basis vector where k = n.
    """
    if A.shape[1] == 0:
        return np.zeros(A.shape[:1] + B.shape[1:], dtype=complex)
    cols = (slice(None),) + (None,) * (B.ndim - 2)
    out = A[:, 0][cols] * B[0][None]
    for b in range(1, A.shape[1]):
        out += A[:, b][cols] * B[b][None]
    return out


def _gram(X: np.ndarray) -> np.ndarray:
    """The Gram matrices X^* X of a stack X (r, c, P): (c, c, P), exactly
    Hermitian (the lower triangle is the conjugate of the upper)."""
    G = _mm(np.conj(X).swapaxes(0, 1), X)
    for a in range(1, G.shape[0]):
        G[a, :a] = np.conj(G[:a, a])
    return G


def _jacobi_eigh(A: np.ndarray):
    """Eigenvalues (d, P), ascending, and orthonormal eigenvectors (d, d, P),
    as columns, of a stack A (d, d, P) of Hermitian matrices; cyclic Jacobi.

    The rotation of a pair (p, q) zeroes A_pq in the rows where |A_pq|
    exceeds eps (|A_pp| + |A_qq|) and is exactly the identity in the
    others, so that a row gives the same bits alone as in a stack; its
    tangent, 2 |A_pq| / (|d| + hypot(d, 2 |A_pq|)) with d = A_qq - A_pp,
    is at most 1 and cannot overflow. Only the real part of the diagonal
    is read. At d = 1 there is no pair, and the eigenvalue is that real
    part, with eigenvector 1. The sweeps end once no row rotates: at d = 2
    the second sweep finds every A_pq zero. A is overwritten.
    """
    d = A.shape[0]
    if d == 1:
        return A[0].real.copy(), np.ones_like(A)
    V = np.zeros_like(A)
    for i in range(d):
        V[i, i] = 1
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(d):
            for q in range(p + 1, d):
                app, aqq, apq = A[p, p].real.copy(), A[q, q].real.copy(), A[p, q].copy()
                g = np.abs(apq)
                live = g > _EPS * (np.abs(app) + np.abs(aqq))
                if not live.any():
                    continue
                rotated = True
                g = np.where(live, g, 0.0)
                dd = np.where(live, aqq - app, 0.0)
                den = np.abs(dd) + np.hypot(dd, 2 * g)
                t = np.copysign(2 * g, dd) / np.where(live, den, 1.0)
                c = 1 / np.sqrt(1 + t * t)
                # s e, with e the phase of A_pq: G = [[c, se], [-conj(se), c]]
                se = (t * c) * (apq / np.where(live, g, 1.0))
                for M in (A, V):
                    Mp = M[:, p].copy()
                    M[:, p] = c * Mp - np.conj(se) * M[:, q]
                    M[:, q] = se * Mp + c * M[:, q]
                # rows p and q of G^* (A G), by Hermitian symmetry
                A[p], A[q] = np.conj(A[:, p]), np.conj(A[:, q])
                A[p, p], A[q, q] = app - t * g, aqq + t * g
                A[p, q] = np.where(live, 0, A[p, q])
                A[q, p] = np.conj(A[p, q])
        if not rotated:
            break
    # ascending order by exchanges of neighbours
    lam = A.diagonal().T.real.copy()
    for i in range(d - 1, 0, -1):
        for j in range(i):
            swap = lam[j] > lam[j + 1]
            lam[j], lam[j + 1] = (np.where(swap, lam[j + 1], lam[j]),
                                  np.where(swap, lam[j], lam[j + 1]))
            V[:, j], V[:, j + 1] = (np.where(swap, V[:, j + 1], V[:, j]),
                                    np.where(swap, V[:, j], V[:, j + 1]))
    return lam, V


def _householder_qr(A: np.ndarray):
    """Complete QR of a P-last stack A (n, k, P), 1 <= k <= n: Q (n, n, P)
    and R (n, k, P).

    Column i is mapped to beta e_i by the Hermitian reflector
    I - tau v v^*, with |beta| the column's norm below row i and beta of
    the opposite phase to its leading entry, so that nothing cancels.
    Q is the first reflector itself, and each later one is applied to its
    columns from i on. Every operation acts on all P matrices at once. A
    zero column leaves R_ii = 0 and is reflected by the identity.
    """
    n, k = A.shape[:2]
    R = np.array(A, dtype=complex)
    for i in range(k):
        x = R[i:, i]
        lead = np.abs(x[0])
        norm = lead
        for row in x[1:]:
            norm = np.hypot(norm, np.abs(row))
        nonzero = norm > 0
        # v scaled so that its leading entry is the phase of x_i: then
        # |v|^2 = 2 norm / (norm + |x_i|) and tau = 2 / |v|^2
        scale = np.where(nonzero, norm + lead, 1.0)
        phase = np.where(lead > 0, x[0] / np.where(lead > 0, lead, 1.0), 1.0)
        v = x * (1 / scale)
        v[0] = phase
        tau = np.where(nonzero, scale / np.where(nonzero, norm, 1.0), 0.0)
        vc = np.conj(v)
        R[i:, i + 1:] -= v[:, None] * (tau * _mm(vc[None], R[i:, i + 1:]))
        R[i, i] = -phase * norm
        R[i + 1:, i] = 0
        if i == 0:
            Q = -(tau * v)[:, None] * vc[None]
            for ell in range(n):
                Q[ell, ell] += 1
        else:
            Q[:, i:] -= (tau * _mm(Q[:, i:], v))[:, None] * vc[None]
    return Q, R


def _cholesky_update(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The lower Cholesky factors of L L^* + Z Z^* for a P-last stack of
    lower factors L (d, d, P) with a positive diagonal and Z (d, k, P).

    Each column z of Z is folded into L by one plane rotation per column j
    of L: the pair (L[:, j], z) becomes (rho L[:, j] + conj(sigma) z,
    rho z - sigma L[:, j]), with r = hypot(L_jj, |z_j|), rho = L_jj / r
    and sigma = z_j / r, which zeroes z_j and makes r the pivot. No pivot
    shrinks, so the diagonal stays positive. L and Z are overwritten; L is
    returned.
    """
    d = len(L)
    for i in range(Z.shape[1]):
        z = Z[:, i]
        for j in range(d):
            ljj = L[j, j].real.copy()
            r = np.hypot(ljj, np.abs(z[j]))
            L[j, j] = r
            if j + 1 < d:
                rho, sigma = (ljj / r)[None], (z[j] / r)[None]
                col = L[j + 1:, j].copy()
                L[j + 1:, j] = rho * col + np.conj(sigma) * z[j + 1:]
                z[j + 1:] = rho * z[j + 1:] - sigma * col
    return L
