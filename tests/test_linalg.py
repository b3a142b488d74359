import numpy as np
import pytest

from fiberloc import ValidationError, hermitianize
from fiberloc.linalg import (_EPS, _cholesky_update, _one_sided_jacobi, check_hermitian,
                             stacked_sqrt_pair)


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


# The one-sided Jacobi kernel that reads the path factor L.

def random_stack(rng, d, size):
    """A P-last stack (d, d, size) of complex Gaussian matrices."""
    return rng.standard_normal((d, d, size)) + 1j * rng.standard_normal((d, d, size))


def graded_lower(rng, d, size):
    """A P-last stack of lower-triangular matrices with column j scaled by
    1e-12^j, so that their singular values span 1 to about 1e-12^(d - 1)."""
    scale = np.tril(np.ones((d, d))) * 10.0 ** (-12 * np.arange(d))
    return random_stack(rng, d, size) * scale[..., None]


def squared_singular_values(A):
    """The squared singular values of one matrix, ascending, by 60-digit mpmath."""
    import mpmath
    with mpmath.workdps(60):
        M = mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in A])
        return np.array(sorted(float(s * s) for s in mpmath.svd_c(M, compute_uv=False)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_sided_jacobi_keeps_graded_norms_to_relative_accuracy(d):
    # the squared column norms are the eigenvalues of A A^*: each, down to
    # about 1e-72 at d = 4, is read to 1e-14 of its own size
    A = graded_lower(np.random.default_rng(40 + d), d, 10)
    _, x2 = _one_sided_jacobi(A)
    for i in range(A.shape[-1]):
        exact = squared_singular_values(A[..., i])
        assert np.all(np.abs(np.sort(x2[:, i]) / exact - 1) <= 1e-14)


@pytest.mark.parametrize("make", [random_stack, graded_lower], ids=["dense", "graded"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_sided_jacobi_rows_alone_are_rows_of_the_stack(make, d):
    A = make(np.random.default_rng(50 + d), d, 16)
    A0 = A.copy()
    X, x2 = _one_sided_jacobi(A)
    assert np.array_equal(A, A0)  # A is not overwritten
    for i in range(A.shape[-1]):
        Xi, x2i = _one_sided_jacobi(A[..., i:i + 1])
        assert np.array_equal(Xi[..., 0], X[..., i]) and np.array_equal(x2i[:, 0], x2[:, i])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_one_sided_jacobi_orthogonalizes_the_columns(d):
    # X X^* = A A^*, and the columns of X are orthogonal to the kernel's
    # stop rule; d = 1 has no pair and returns A
    A = random_stack(np.random.default_rng(60 + d), d, 200)
    X, x2 = _one_sided_jacobi(A)
    XX, AA = (np.einsum("ijp,kjp->pik", M, np.conj(M)) for M in (X, A))
    err = np.linalg.norm(XX - AA, axis=(1, 2)) / np.linalg.norm(A, axis=(0, 1)) ** 2
    assert np.all(err <= 5e-16 * d)
    G = np.einsum("ijp,ikp->pjk", np.conj(X), X)
    norms = np.sqrt(np.einsum("pjj->pj", G).real)
    off = np.abs(G) - np.eye(d) * np.abs(G)
    assert np.all(off <= 2 * _EPS * norms[:, :, None] * norms[:, None, :])
    np.testing.assert_allclose(x2.T, norms**2, rtol=4 * _EPS, atol=0)
    if d == 1:
        assert np.array_equal(X, A)
        assert np.array_equal(x2[0], A[0, 0].real ** 2 + A[0, 0].imag ** 2)


def test_one_sided_jacobi_keeps_a_zero_column():
    # a zero column (sigma = 0) is no pair's partner: it stays zero, and the
    # other columns are orthogonalized among themselves
    A = random_stack(np.random.default_rng(70), 3, 8)
    A[:, 1] = 0
    X, x2 = _one_sided_jacobi(A)
    assert np.all(X[:, 1] == 0) and np.all(x2[1] == 0)
    exact = np.linalg.eigvalsh(np.einsum("ijp,kjp->pik", A, np.conj(A)))
    np.testing.assert_allclose(np.sort(x2, axis=0).T, exact, rtol=1e-13, atol=1e-13)
