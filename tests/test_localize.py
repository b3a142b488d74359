import numpy as np
import pytest

from fiberloc import (
    LocalizationState,
    PolynomialMap,
    QuadraticPotential,
    StateError,
    ValidationError,
    affine_map,
    brownian_increment,
    hyperbola_map,
    paraboloid_map,
    path_rng,
    potential_eval,
    run_path,
    run_paths,
    sigma_of_state,
    standard_gaussian,
    standard_potential,
    step,
    terminal_gaussian,
)
from fiberloc.localize import LAMBDA_MIN_FLOOR
from fiberloc.polymap import eval_jacobian, residual_norm


def make_state(F, a, B, t=0.0):
    n = F.n
    a = np.asarray(a, dtype=complex)
    B = np.asarray(B, dtype=complex)
    Binv = np.linalg.inv(B)
    return LocalizationState(t=t, a=a, B=B, sigma_accum=np.eye(n) - Binv)


# ---------------------------------------------------------------------------
# Potentials

def test_standard_potential_values():
    p = standard_potential(2)
    assert potential_eval(p, np.zeros(2)) == pytest.approx(0.0)
    assert potential_eval(p, np.array([1.0, 1j])) == pytest.approx(1.0)


def test_potential_normalization_quadrature_n1():
    # [DERIVED] integral of exp(-p) over C must equal 2 pi for any valid
    # potential in n = 1; tensor trapezoid grid on [-8, 8]^2
    p = QuadraticPotential(np.array([0.3 + 0.2j]), np.array([[1.7]]))
    x = np.linspace(-8, 8, 801)
    X, Y = np.meshgrid(x, x)
    Z = X + 1j * Y
    d = Z - p.center[0]
    vals = np.exp(-(1.7 * np.abs(d) ** 2 / 2 - np.log(1.7)))
    dx = x[1] - x[0]
    integral = vals.sum() * dx * dx
    assert integral == pytest.approx(2 * np.pi, rel=1e-6)


def test_potential_eval_matches_naive_expansion():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = G @ G.conj().T + np.eye(3)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = QuadraticPotential(a, B)
    naive = 0.0
    for i in range(3):
        for j in range(3):
            naive += np.conj(z[i] - a[i]) * B[i, j] * (z[j] - a[j]) / 2
    naive = naive.real - np.log(np.linalg.det(B).real)
    assert potential_eval(p, z) == pytest.approx(naive, rel=1e-12)


def test_potential_rejects_non_pd():
    with pytest.raises(ValidationError):
        QuadraticPotential(np.zeros(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# Random streams

def test_brownian_increment_moments():
    rng = path_rng(0, 0)
    draws = np.array([brownian_increment(rng, 0.25, 2) for _ in range(20000)])
    # E|dW_j|^2 = 2h = 0.5 per coordinate
    second = (np.abs(draws) ** 2).mean(axis=0)
    assert np.allclose(second, 0.5, atol=0.02)
    assert np.abs(draws.mean(axis=0)).max() <= 0.02
    # pseudo-variance E dW^2 vanishes for the complex increments
    assert np.abs((draws ** 2).mean(axis=0)).max() <= 0.02


def test_streams_are_independent_of_batching():
    rng_a = path_rng(42, 7)
    rng_b = path_rng(42, 7)
    one_by_one = np.array([brownian_increment(rng_a, 0.1, 3) for _ in range(5)])
    from fiberloc.localize import _increment_block
    block = _increment_block(rng_b, 0.1, 3, 5)
    assert np.array_equal(one_by_one, block)


def test_different_indices_give_different_streams():
    a = brownian_increment(path_rng(1, 0), 1.0, 2)
    b = brownian_increment(path_rng(1, 1), 1.0, 2)
    assert not np.allclose(a, b)


# ---------------------------------------------------------------------------
# The diffusion coefficient

def test_sigma_affine_identity_state():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2))
    S = sigma_of_state(st, F)
    assert np.allclose(S, np.diag([0.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_sigma_hyperbola_identity_state():
    F = hyperbola_map()
    st = make_state(F, [1.0, 1.0], np.eye(2))
    S = sigma_of_state(st, F)
    pi = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(S, pi / np.sqrt(2), atol=1e-12)


def test_sigma_hs_norm_identity():
    # |B^{1/2} Sigma|_HS^2 = (n - k)/n for any admissible state
    F = hyperbola_map()
    rng = np.random.default_rng(9)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = np.eye(2) + G @ G.conj().T
    st = make_state(F, [1.0, 1.0], B)
    S = sigma_of_state(st, F)
    from scipy.linalg import sqrtm
    hs = np.linalg.norm(sqrtm(B) @ S)
    assert hs == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_sigma_annihilates_gradient_direction():
    F = paraboloid_map(3)
    fp = np.array([0.5 + 0.1j, -0.3j, (0.5 + 0.1j) ** 2 + (-0.3j) ** 2])
    st = make_state(F, fp, np.eye(3))
    S = sigma_of_state(st, F)
    from fiberloc.polymap import eval_jacobian
    J = eval_jacobian(F, fp)
    # f is conserved along the path: J Sigma = 0
    assert np.linalg.norm(J @ S) <= 1e-10


def test_sigma_rejects_off_fiber_center():
    F = affine_map(2)
    st = make_state(F, [0.5, 0.0], np.eye(2))
    with pytest.raises(StateError):
        sigma_of_state(st, F)


# ---------------------------------------------------------------------------
# Single steps

def test_step_zero_noise_updates_b_only():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2))
    h = 0.01
    nxt = step(st, F, h, np.zeros(2))
    assert np.allclose(nxt.a, st.a, atol=1e-14)
    # B gains (h/n) pi = diag(0, h/2)
    assert np.allclose(nxt.B, np.diag([1.0, 1.0 + h / 2]), atol=1e-12)
    assert nxt.t == pytest.approx(h)


def test_step_keeps_b_monotone():
    F = hyperbola_map()
    st = make_state(F, [1.0, 1.0], np.eye(2))
    rng = path_rng(4, 0)
    for _ in range(50):
        nxt = step(st, F, 0.01, brownian_increment(rng, 0.01, 2))
        inc = np.linalg.eigvalsh(nxt.B - st.B)
        assert inc[0] >= -1e-12
        assert np.linalg.eigvalsh(nxt.B)[0] >= 1 - 1e-10
        st = nxt
    st.validate()


def test_step_matches_run_paths_bitwise():
    # step and run_paths share one kernel, so stepping a path by hand along
    # its own stream reproduces the batched engine bit for bit
    F = paraboloid_map(3)
    h, n_steps, seed = 2e-3, 50, 17
    st = LocalizationState(t=0.0, a=F.base_point.astype(complex),
                           B=np.eye(3, dtype=complex),
                           sigma_accum=np.zeros((3, 3), dtype=complex))
    rng = path_rng(seed, 0)
    for _ in range(n_steps):
        st = step(st, F, h, brownian_increment(rng, h, 3))
    out = run_paths(F, T=n_steps * h, h=h, seed=seed, n_paths=1)
    assert np.array_equal(st.a, out.a[0])
    assert np.array_equal(st.B, out.B[0])
    assert np.array_equal(st.sigma_accum, out.sigma_accum[0])
    assert st.fiber_residual_max == out.fiber_residual_max[0]


# ---------------------------------------------------------------------------
# Whole paths

def test_affine_path_matches_closed_form_b():
    # For f = z_1 the matrix dynamics are deterministic and diagonal:
    # b_11 = 1, b_22 solves b' = b/2, so b_22(t) = e^{t/2}
    F = affine_map(2)
    st, diag = run_path(F, T=2.0, h=1e-3, seed=0)
    assert st.B[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert abs(st.B[0, 1]) <= 1e-10
    assert st.B[1, 1].real == pytest.approx(np.e, rel=2e-3)
    # the diagnostics table has 6 columns and ends at T
    assert diag.shape[1] == 6
    assert diag[-1, 0] == pytest.approx(2.0)


def test_affine_path_euler_recursion_exact_rate():
    # the discrete update multiplies b_22 by (1 + h/2) each step
    F = affine_map(2)
    h = 1e-2
    st, _ = run_path(F, T=1.0, h=h, seed=3)
    assert st.B[1, 1].real == pytest.approx((1 + h / 2) ** 100, rel=1e-10)


def test_affine_path_first_coordinate_exactly_zero():
    F = affine_map(2)
    st, _ = run_path(F, T=1.0, h=2e-3, seed=1)
    assert st.a[0] == 0.0 + 0.0j


def test_path_determinism_bitwise():
    F = hyperbola_map()
    s1, d1 = run_path(F, T=0.5, h=2e-3, seed=12)
    s2, d2 = run_path(F, T=0.5, h=2e-3, seed=12)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.B, s2.B)
    assert np.array_equal(d1, d2)


def test_path_in_batch_matches_solo_run():
    F = paraboloid_map(2)
    solo, _ = run_path(F, T=0.5, h=2e-3, seed=21)
    batch = run_paths(F, T=0.5, h=2e-3, seed=21, n_paths=3)
    assert np.array_equal(batch.a[0], solo.a)
    assert np.array_equal(batch.B[0], solo.B)


def test_path_residuals_controlled():
    F = paraboloid_map(2)
    h = 2e-3
    st, diag = run_path(F, T=1.0, h=h, seed=5)
    assert residual_norm(F, st.a) <= 1e-10
    assert st.fiber_residual_max <= 10 * h
    assert np.all(diag[:, 1] <= 10 * h)


def test_accumulation_identity_first_order_in_h():
    # |sigma_accum - (Id - B^{-1})| at T = 2 for the deterministic affine
    # dynamics; halving h should roughly halve the gap, over 4 refinements
    F = affine_map(2)
    gaps = []
    for h in [4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4]:
        st, diag = run_path(F, T=2.0, h=h, seed=0)
        gaps.append(diag[-1, 5])
    for g0, g1 in zip(gaps, gaps[1:]):
        assert 0.3 <= g1 / g0 <= 0.7


def test_batch_invariants_paraboloid():
    F = paraboloid_map(2)
    out = run_paths(F, T=1.5, h=1e-3, seed=8, n_paths=100)
    assert out.n_aborted == 0
    # every recorded time: centers on the fiber, B above Id, trace bounded
    assert np.all(out.record_post_residual <= 1e-10)
    assert np.all(out.record_lambda_min >= 1 - 1e-8)
    bound = 2 * np.exp(out.record_t) * (1 + 1e-6)
    assert np.all(out.record_trace <= bound[:, None])
    # eigenvalue growth: lambda_2(B_t) >= 1 + 0.95 t / (n (k+1))
    growth = 1 + 0.95 * out.record_t / 4.0
    assert np.all(out.record_lambda_k1 >= growth[:, None])


def test_density_martingale_small_batch():
    # E exp(-p_t(z)) = exp(-|z|^2 / 2) for fixed z, averaged over paths
    F = paraboloid_map(2)
    out = run_paths(F, T=1.0, h=2e-3, seed=30, n_paths=400)
    assert out.n_aborted == 0
    pts = [np.zeros(2), np.array([0.5, 0.0]), np.array([0.3j, -0.4]),
           np.array([0.2 + 0.2j, 0.5j])]
    for z in pts:
        vals = np.array([
            np.exp(-potential_eval(QuadraticPotential(out.a[i], out.B[i]), z))
            for i in range(400)
        ])
        ref = np.exp(-np.linalg.norm(z) ** 2 / 2)
        se = vals.std(ddof=1) / 20.0
        assert abs(vals.mean() - ref) <= 4 * se


# ---------------------------------------------------------------------------
# Terminal Gaussians

def test_standard_gaussian_covariance():
    mu = standard_gaussian(3)
    assert np.allclose(mu.covariance, 2 * np.eye(3))
    assert mu.support_dim == 3


def test_terminal_gaussian_identity_state():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2), t=0.0)
    mu = terminal_gaussian(st)
    assert np.allclose(mu.covariance, 2 * np.eye(2))
    assert mu.support_dim == 2


def test_terminal_gaussian_collapses_at_large_t():
    F = affine_map(2)
    st, _ = run_path(F, T=20.0, h=2e-3, seed=2)
    mu = terminal_gaussian(st, rank_tol=1e-3, k=1)
    # b_22 ~ e^{10} so the second covariance eigenvalue ~ 2e-5 truncates
    assert mu.support_dim == 1
    w = np.linalg.eigvalsh(mu.covariance)
    assert w[-1] == pytest.approx(2.0, abs=1e-8)
    assert w[0] == 0.0


def test_terminal_gaussian_decay_bound_enforced():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2), t=10.0)
    # at t = 10 with B = Id the bound lambda_1(2 B^{-1}) <= 2n(k+1)/t = 0.8
    # fails, which must be reported
    with pytest.raises(StateError):
        terminal_gaussian(st, k=1)


def test_run_rejects_bad_parameters():
    F = affine_map(2)
    with pytest.raises(ValidationError):
        run_paths(F, T=-1.0, h=1e-3, seed=0, n_paths=1)
    with pytest.raises(ValidationError):
        run_paths(F, T=1.0, h=0.0, seed=0, n_paths=1)
    with pytest.raises(ValidationError):
        run_paths(F, T=1.0, h=1e-2, seed=0, n_paths=0)
    with pytest.raises(ValidationError):
        run_paths(F, T=1.0, h=1e-2, seed=0, n_paths=1, record_every=0)


# ---------------------------------------------------------------------------
# Codimension two: the k x k solve of the step kernel

def codim2_map():
    """f = (z_3 - z_1^2, z_2 - z_1 z_2 / 2 - z_1) in C^3, through 0; its
    Jacobian has rank 2 everywhere on the zero set."""
    return PolynomialMap(3, 2, [
        [(1.0, [0, 0, 1]), (-1.0, [2, 0, 0])],
        [(1.0, [0, 1, 0]), (-0.5, [1, 1, 0]), (-1.0, [1, 0, 0])],
    ], np.zeros(3))


def codim2_state():
    """A state of the codimension-two map at a point of its zero set, with
    a random Hermitian matrix B >= Id."""
    z1 = 0.4 - 0.3j
    z2 = z1 / (1 - z1 / 2)
    rng = np.random.default_rng(11)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = np.eye(3) + G @ G.conj().T
    return make_state(codim2_map(), [z1, z2, z1 ** 2], B)


def reference_pieces(F, st):
    """(B^{1/2}, B^{-1/2}, pi) from scipy.linalg.sqrtm and a QR of the
    rotated gradient subspace B^{-1/2} J^*."""
    from scipy.linalg import sqrtm
    Bh = sqrtm(st.B)
    Bih = np.linalg.inv(Bh)
    Q, _ = np.linalg.qr(Bih @ eval_jacobian(F, st.a).conj().T)
    return Bh, Bih, np.eye(F.n) - Q @ Q.conj().T


def test_codim2_sigma_matches_square_root_reference():
    F = codim2_map()
    st = codim2_state()
    S = sigma_of_state(st, F)
    _, Bih, pi = reference_pieces(F, st)
    ref = Bih @ pi @ Bih / F.n
    assert np.allclose(S @ S.conj().T, ref, rtol=1e-12, atol=0)
    assert np.linalg.norm(eval_jacobian(F, st.a) @ S) <= 1e-10


def test_codim2_step_increment_matches_square_root_reference():
    F = codim2_map()
    st = codim2_state()
    h = 1e-2
    nxt = step(st, F, h, brownian_increment(path_rng(6, 0), h, 3))
    Bh, _, pi = reference_pieces(F, st)
    inc = (h / F.n) * Bh @ pi @ Bh
    assert np.allclose(nxt.B - st.B, inc, rtol=0, atol=1e-13 * np.linalg.norm(st.B))


def test_codim2_paths_stay_valid():
    F = codim2_map()
    out = run_paths(F, T=1.0, h=2e-3, seed=23, n_paths=20, record_every=1)
    assert out.n_aborted == 0
    # every step: centers on the zero set, B above Id, trace bounded
    assert np.all(out.record_post_residual <= 1e-10)
    assert np.all(out.record_lambda_min >= LAMBDA_MIN_FLOOR)
    assert np.all(out.record_trace <= 3 * np.exp(out.record_t)[:, None] * (1 + 1e-6))
    for i in range(20):
        out.state(i).validate()
