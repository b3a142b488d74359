import numpy as np
import pytest

from fiberloc import ValidationError, hermitianize
from fiberloc.linalg import _cholesky_update, check_hermitian, stacked_sqrt_pair


def random_pd(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G @ G.conj().T + 0.1 * np.eye(n)


def test_hermitianize_takes_the_hermitian_part():
    H = hermitianize(np.array([[1.0, 2.0j], [0.0, 3.0]]))
    assert np.array_equal(H, np.array([[1.0, 1.0j], [-1.0j, 3.0]]))


def test_check_hermitian_returns_exactly_symmetric_copy():
    A = random_pd(np.random.default_rng(0), 3)
    A[0, 1] += 1e-14
    H = check_hermitian(A)
    assert np.array_equal(H, H.conj().T)
    assert np.linalg.norm(H - A) <= 1e-13


def test_check_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_hermitian_rejects_non_square():
    with pytest.raises(ValidationError):
        check_hermitian(np.zeros((2, 3)))


# The PSD square root and its inverse, as the path engine computes them.

def test_psd_sqrt_diagonal():
    Bh, Bih = stacked_sqrt_pair(np.diag([4.0, 9.0]).astype(complex)[None])
    assert np.allclose(Bh[0], np.diag([2.0, 3.0]), atol=1e-12)
    assert np.allclose(Bih[0], np.diag([0.5, 1 / 3]), atol=1e-12)


def test_psd_sqrt_identity():
    Bh, Bih = stacked_sqrt_pair(np.tile(np.eye(3, dtype=complex), (2, 1, 1)))
    assert np.allclose(Bh, np.eye(3), atol=1e-12)
    assert np.allclose(Bih, np.eye(3), atol=1e-12)


def test_psd_sqrt_multiplies_back():
    rng = np.random.default_rng(1)
    B = np.stack([random_pd(rng, 3) for _ in range(5)])
    Bh, _ = stacked_sqrt_pair(B)
    for b, bh in zip(B, Bh):
        assert np.linalg.norm(bh @ bh - b) <= 1e-10 * np.linalg.norm(b)
        assert np.array_equal(bh, bh.conj().T)


def test_inv_sqrt_inverts_sqrt():
    rng = np.random.default_rng(2)
    B = np.stack([random_pd(rng, 4) for _ in range(5)])
    Bh, Bih = stacked_sqrt_pair(B)
    for bh, bih in zip(Bh, Bih):
        assert np.linalg.norm(bih @ bh - np.eye(4)) <= 1e-10
        assert np.linalg.norm(bh @ bih - np.eye(4)) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cholesky_matches_lapack(d):
    # the factor of L L^* + Z Z^* after a rank-k update is LAPACK's factor
    # of that matrix, for each rank k <= 2 the path engine meets
    rng = np.random.default_rng(20 + d)
    A = np.stack([random_pd(rng, d) for _ in range(32)])
    L0 = np.moveaxis(np.linalg.cholesky(A), 0, -1)
    for k in range(1, min(d, 2) + 1):
        Z = rng.standard_normal((d, k, 32)) + 1j * rng.standard_normal((d, k, 32))
        L = np.moveaxis(_cholesky_update(L0.copy(), Z.copy()), -1, 0)
        ref = np.linalg.cholesky(A + np.einsum("iap,jap->pij", Z, np.conj(Z)))
        assert np.all(np.triu(L, 1) == 0)
        assert np.all(np.diagonal(L, axis1=1, axis2=2).real > 0)
        assert np.all(np.diagonal(L, axis1=1, axis2=2).imag == 0)
        assert np.all(np.abs(L - ref).max(axis=(1, 2)) <= 1e-13 * np.abs(ref).max(axis=(1, 2)))
        # a row alone gives the same bits as in the stack
        for i in range(32):
            alone = _cholesky_update(L0[..., i:i + 1].copy(), Z[..., i:i + 1].copy())
            assert np.array_equal(alone[..., 0], L[i])
