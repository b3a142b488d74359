import numpy as np
import pytest

from fiberloc import (
    LocalizationState,
    PolynomialMap,
    QuadraticPotential,
    StateError,
    ValidationError,
    affine_map,
    hyperbola_map,
    paraboloid_map,
    path_rng,
    potential_eval,
    run_path,
    run_paths,
    standard_gaussian,
    terminal_gaussian,
)
from fiberloc import localize
from fiberloc.linalg import _mm
from fiberloc.localize import _RNG_BLOCK, LAMBDA_MIN_FLOOR, _advance, _refill, _sigma_pieces
from fiberloc.polymap import eval_jacobian, residual_norm

# the per-step records of a BatchResult, each (R, P)
RECORDS = ("record_pre_residual", "record_post_residual", "record_lambda_min",
           "record_lambda_k1", "record_trace")


def assert_state_invariants(st):
    """lambda_min(B) >= LAMBDA_MIN_FLOOR and Tr B <= n e^t up to 1e-6."""
    n = st.a.shape[0]
    assert np.linalg.eigvalsh(st.B)[0] >= LAMBDA_MIN_FLOOR
    assert np.trace(st.B).real <= n * np.exp(st.t) * (1 + 1e-6)


def factor(B):
    """The lower Cholesky factor of B^{-1}, by LAPACK."""
    return np.linalg.cholesky(np.linalg.inv(B))


def make_state(F, a, B, t=0.0):
    return LocalizationState(t=t, a=np.asarray(a, dtype=complex),
                             L=factor(np.asarray(B, dtype=complex)))


def sigma(F, st):
    """The step kernel's diffusion matrix Sigma = L (Id - Q Q^*) / sqrt(n)
    at one state, with Sigma Sigma^* = B^{-1/2} pi B^{-1/2} / n."""
    L = st.L[..., None]
    Q, fail, _ = _sigma_pieces(F, st.a[:, None], L)
    assert not fail[0]
    S = L - _mm(_mm(L, Q), np.conj(Q).swapaxes(0, 1))
    return S[..., 0] / np.sqrt(F.n)


def advance(F, st, h, dW):
    """The arrays (a, B) of one path, stacked over a leading axis, after
    one step of _advance from the state st with increment dW, B the
    inverse of L L^* for the new factor L; the path must advance."""
    a, L, _, _, fail = _advance(F, st.a[:, None], st.L[..., None], dW[:, None], h)
    assert not fail.any()
    L = np.moveaxis(L, -1, 0)
    return a.T, np.linalg.inv(L @ np.conj(L.swapaxes(1, 2)))


def increments(seed, index, h, n, m):
    """The first m increments (m, n) of the stream of path index under seed,
    the reference stream: each is sqrt(h) (g[:n] + i g[n:]) for the next 2n
    standard normals g."""
    g = path_rng(seed, index).standard_normal((m, 2 * n))
    out = np.empty((m, n), dtype=complex)
    out.real, out.imag = np.sqrt(h) * g[:, :n], np.sqrt(h) * g[:, n:]
    return out


# ---------------------------------------------------------------------------
# Potentials

def test_standard_potential_values():
    p = QuadraticPotential(np.zeros(2), np.eye(2))
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
    draws = increments(0, 0, 0.25, 2, 20000)
    # E|dW_j|^2 = 2h = 0.5 per coordinate
    second = (np.abs(draws) ** 2).mean(axis=0)
    assert np.allclose(second, 0.5, atol=0.02)
    assert np.abs(draws.mean(axis=0)).max() <= 0.02
    # pseudo-variance E dW^2 vanishes for the complex increments
    assert np.abs((draws ** 2).mean(axis=0)).max() <= 0.02


def test_streams_are_independent_of_batching():
    # run_paths refills its increment buffer block by block along each
    # path's stream; the blocks must join into one unbroken sequence
    rng = path_rng(42, 0)
    fresh, saved = rng.bit_generator.state, [None] * 3
    keys = np.array([[42, 7], [42, 8], [42, 9]], dtype=np.uint64)
    split = np.empty((5, 3, 3), dtype=complex)
    _refill(rng, fresh, keys, saved, True, 0.1, split[:2], 2)
    _refill(rng, fresh, keys, saved, False, 0.1, split[2:], 2)
    for i in range(3):
        assert np.array_equal(split[..., i], increments(42, 7 + i, 0.1, 3, 5))


def test_different_indices_give_different_streams():
    a = increments(1, 0, 1.0, 2, 1)
    b = increments(1, 1, 1.0, 2, 1)
    assert not np.allclose(a, b)


# ---------------------------------------------------------------------------
# The diffusion coefficient

def test_sigma_affine_identity_state():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2))
    S = sigma(F, st)
    assert np.allclose(S, np.diag([0.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_sigma_hyperbola_identity_state():
    F = hyperbola_map()
    st = make_state(F, [1.0, 1.0], np.eye(2))
    S = sigma(F, st)
    pi = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(S, pi / np.sqrt(2), atol=1e-12)


def test_sigma_hs_norm_identity():
    # |B^{1/2} Sigma|_HS^2 = (n - k)/n for any admissible state
    F = hyperbola_map()
    rng = np.random.default_rng(9)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = np.eye(2) + G @ G.conj().T
    st = make_state(F, [1.0, 1.0], B)
    S = sigma(F, st)
    from scipy.linalg import sqrtm
    hs = np.linalg.norm(sqrtm(B) @ S)
    assert hs == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_sigma_annihilates_gradient_direction():
    F = paraboloid_map(3)
    fp = np.array([0.5 + 0.1j, -0.3j, (0.5 + 0.1j) ** 2 + (-0.3j) ** 2])
    st = make_state(F, fp, np.eye(3))
    S = sigma(F, st)
    from fiberloc.polymap import eval_jacobian
    J = eval_jacobian(F, fp)
    # f is conserved along the path: J Sigma = 0
    assert np.linalg.norm(J @ S) <= 1e-10


# ---------------------------------------------------------------------------
# Single steps

def test_step_zero_noise_updates_b_only():
    F = affine_map(2)
    st = make_state(F, F.base_point, np.eye(2))
    h = 0.01
    a, B = advance(F, st, h, np.zeros(2, dtype=complex))
    assert np.allclose(a[0], st.a, atol=1e-14)
    # B gains (h/n) pi = diag(0, h/2)
    assert np.allclose(B[0], np.diag([1.0, 1.0 + h / 2]), atol=1e-12)


def test_step_keeps_b_monotone():
    F = hyperbola_map()
    st = make_state(F, [1.0, 1.0], np.eye(2))
    h = 0.01
    for dW in increments(4, 0, h, 2, 50):
        a, B = advance(F, st, h, dW)
        inc = np.linalg.eigvalsh(B[0] - st.B)
        assert inc[0] >= -1e-12
        assert np.linalg.eigvalsh(B[0])[0] >= 1 - 1e-10
        st = make_state(F, a[0], B[0], st.t + h)
    assert_state_invariants(st)


def test_step_matches_run_paths_bitwise(monkeypatch):
    # run_paths drives the step kernel _advance, so stepping one path by
    # hand along its own stream reproduces the batched engine bit for bit
    F = paraboloid_map(3)
    h, n_steps, seed = 2e-3, 50, 17
    a = F.base_point[:, None].astype(complex)
    L = np.eye(3, dtype=complex)[..., None]
    res_max = np.zeros(1)
    for dW in increments(seed, 0, h, 3, n_steps):
        a, L, pre, post, fail = _advance(F, a, L, dW[:, None], h)
        assert not fail.any()
        res_max = np.maximum(res_max, pre)
    steps = []
    monkeypatch.setattr(localize, "_advance", lambda *args: steps.append(_advance(*args)) or steps[-1])
    out = run_paths(F, T=n_steps * h, h=h, seed=seed, n_paths=1)
    assert np.array_equal(a.T, out.a)
    assert np.array_equal(steps[-1][1], L)
    assert np.array_equal(res_max, out.fiber_residual_max)
    assert np.array_equal(post, out.record_post_residual[-1])
    assert np.array_equal(out.L, np.moveaxis(L, -1, 0))
    # B is reported as the inverse of L L^* for the carried factor L
    L = np.moveaxis(L, -1, 0)
    assert np.linalg.norm(out.B @ L @ np.conj(L.swapaxes(1, 2)) - np.eye(3)) <= 1e-12


def test_run_paths_feeds_each_path_its_own_stream(monkeypatch):
    # one re-keyed Philox serves the batch, block after block; each path
    # still draws exactly the increments of path_rng(seed, i)
    F = paraboloid_map(2)
    h, n_steps, seed, P = 1e-3, 1100, 31, 6
    assert n_steps > 2 * _RNG_BLOCK
    fed = []

    def step(F, a, L, dW, h):
        fed.append(dW.copy())
        return _advance(F, a, L, dW, h)

    monkeypatch.setattr(localize, "_advance", step)
    out = run_paths(F, T=n_steps * h, h=h, seed=seed, n_paths=P)
    assert out.n_aborted == 0 and len(fed) == n_steps
    fed = np.array(fed)
    for i in range(P):
        assert np.array_equal(fed[..., i], increments(seed, i, h, F.n, n_steps))


@pytest.mark.parametrize("n_steps", [100, 2 * _RNG_BLOCK + 100], ids=["one-block", "three-blocks"])
def test_every_group_and_block_reads_its_own_stream(monkeypatch, n_steps):
    # a run of 100 steps draws the paths in groups of c = _RNG_BLOCK // 100,
    # so with P = 7 the last group is short; a run of three blocks draws
    # one path at a time, and its last block is short. Each path must be
    # keyed right at every group boundary, and after a block boundary
    # resume its stream where the last block left it
    F = paraboloid_map(2)
    h, seed, P = 1e-3, 53, 7
    assert _RNG_BLOCK // 100 > 1 and P % (_RNG_BLOCK // 100)
    fed = []

    def hold(F, a, L, dW, h):
        fed.append(dW.copy())
        zero = np.zeros(dW.shape[1])
        return a, L, zero, zero, zero.astype(int)

    monkeypatch.setattr(localize, "_advance", hold)
    run_paths(F, T=n_steps * h, h=h, seed=seed, n_paths=P)
    fed = np.array(fed)
    assert fed.shape == (n_steps, F.n, P)
    for i in range(P):
        assert np.array_equal(fed[..., i], increments(seed, i, h, F.n, n_steps))


def test_one_path_is_row_0_of_a_batch():
    F = paraboloid_map(2)
    one = run_paths(F, T=0.5, h=2e-3, seed=19, n_paths=1)
    seven = run_paths(F, T=0.5, h=2e-3, seed=19, n_paths=7)
    for field in ("a", "L", "B", "fiber_residual_max"):
        assert np.array_equal(getattr(one, field)[0], getattr(seven, field)[0])
    for field in RECORDS:
        assert np.array_equal(getattr(one, field)[:, 0], getattr(seven, field)[:, 0])


@pytest.mark.parametrize("make", [lambda: paraboloid_map(3), lambda: codim2_map()],
                         ids=["paraboloid", "codim2"])
def test_a_row_steps_alone_as_in_a_stack(make):
    F = make()
    st = run_paths(F, T=0.2, h=2e-3, seed=3, n_paths=32)
    args = [st.a.T, np.moveaxis(st.L, 0, -1),
            np.array([increments(5, i, 2e-3, F.n, 1)[0] for i in range(32)]).T]
    stacked = _advance(F, *args, 2e-3)
    for i in range(32):
        alone = _advance(F, *(x[..., i:i + 1] for x in args), 2e-3)
        for part, one in zip(stacked, alone):
            assert np.array_equal(part[..., i:i + 1], one)


@pytest.mark.parametrize("make", [lambda: paraboloid_map(2), lambda: codim2_map()],
                         ids=["paraboloid", "codim2"])
def test_carried_inverse_stays_the_inverse(make, monkeypatch):
    # B^{-1} = L L^* is carried by rank-k updates of its factor L, never
    # computed by inversion; the reference steps B itself,
    # B' = (1 + s) B - s J^* (J B^{-1} J^*)^{-1} J with s = h/n, by LAPACK
    F = make()
    B = np.tile(np.eye(F.n, dtype=complex), (8, 1, 1))
    worst = []

    def step(F, a, L, dW, h):
        nonlocal B
        out = _advance(F, a, L, dW, h)
        s, J = h / F.n, eval_jacobian(F, a.T)
        Jh = np.conj(J.swapaxes(1, 2))
        B = (1 + s) * B - s * Jh @ np.linalg.solve(J @ np.linalg.solve(B, Jh), J)
        L = np.moveaxis(out[1], -1, 0)
        ref, Binv = np.linalg.inv(B), L @ np.conj(L.swapaxes(1, 2))
        rel = np.linalg.norm(Binv - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        res = np.linalg.norm(B @ Binv - np.eye(F.n), axis=(1, 2))
        worst.append((rel.max(), res.max()))
        return out

    monkeypatch.setattr(localize, "_advance", step)
    out = run_paths(F, T=3.0, h=2e-3, seed=13, n_paths=8, record_every=1500)
    assert out.n_aborted == 0 and len(worst) == 1500
    rel, res = np.max(worst, axis=0)
    assert rel <= 1e-12
    assert res <= 1e-12


# ---------------------------------------------------------------------------
# Whole paths

def z40_map():
    """f = z_2 - z_1^40 from (1, 1): at h = 10 the noise throws some
    centers where Gauss-Newton cannot come back to the zero set."""
    return PolynomialMap(2, 1, [[(1.0, [0, 1]), (-1.0, [40, 0])]], np.array([1.0, 1.0]))


@pytest.mark.parametrize("make, T, h, P, seed, reason, n_aborted", [
    (z40_map, 200.0, 10.0, 32, 3, "projection failure", 6),
], ids=["projection"])
def test_an_aborted_path_is_frozen(make, T, h, P, seed, reason, n_aborted):
    F = make()
    out = run_paths(F, T=T, h=h, seed=seed, n_paths=P)
    assert out.n_aborted == n_aborted
    for i in np.flatnonzero(out.aborted):
        assert out.abort_reasons[i]["reason"] == reason
        # the records after the failed step repeat the frozen state
        after = out.record_t >= out.abort_reasons[i]["t"] + h * (1 - 1e-9)
        assert after.any()
        for field in RECORDS:
            col = getattr(out, field)[after, i]
            assert np.array_equal(col, np.full_like(col, col[0]))
        assert out.record_post_residual[-1, i] == residual_norm(F, out.a[i])
    # lambda_min(B) >= 1 exactly; it is read as 1 / sigma_max(L)^2
    assert np.all(out.record_lambda_min >= LAMBDA_MIN_FLOOR)


def test_a_long_run_keeps_its_factor():
    # the condition number of B grows like e^{t/n}, to about e^40 here;
    # the carried factor keeps B^{-1} = L L^* definite whatever the
    # rounding, so no path stops and every recorded value is a number
    out = run_paths(paraboloid_map(2), T=80.0, h=0.01, seed=1, n_paths=8)
    assert out.n_aborted == 0
    for field in RECORDS + ("B",):
        assert np.all(np.isfinite(getattr(out, field)))
    assert np.all(out.record_lambda_min >= LAMBDA_MIN_FLOOR)


def rotated_affine_map():
    """f = (z_1 + z_2) / sqrt(2): J is constant, so B = Id + (b - 1) v v^*
    with v = (1, -1) / sqrt(2), and each step multiplies b by (1 + h/2)
    whatever the noise."""
    c = np.sqrt(0.5)
    return PolynomialMap(2, 1, [[(c, [1, 0]), (c, [0, 1])]], np.zeros(2))


@pytest.mark.parametrize("T", [40.0, 60.0, 80.0])
def test_rotated_affine_path_keeps_relative_accuracy(T):
    # b reaches e^40 at T = 80: the small eigenvalue 1 / b of B^{-1} lies
    # far below the rounding of its large one, 1, yet is read to 1e-10
    h = 0.01
    out = run_paths(rotated_affine_map(), T=T, h=h, seed=1, n_paths=4)
    assert out.n_aborted == 0
    b = ((1 + h / 2) ** np.round(out.record_t / h))[:, None]
    assert np.all(np.abs(out.record_lambda_k1 / b - 1) <= 1e-10)
    assert np.all(np.abs((out.record_trace - 1) / b - 1) <= 1e-10)
    assert np.all(np.abs(out.record_lambda_min - 1) <= 1e-10)
    # the terminal covariance 2 B^{-1} keeps its eigenvalue 2 along the
    # fiber; read through B it went negative at T = 80
    mu = terminal_gaussian(out.state(np.arange(4)), k=1)
    assert mu.support_dim.tolist() == [1] * 4
    assert np.allclose(np.linalg.eigvalsh(mu.covariance)[:, -1], 2.0, rtol=1e-12, atol=0)


def test_a_horizon_at_the_cap_stays_finite():
    # at T = MAX_T_OVER_N n and h = 1, b = 1.5^1200 is about e^487: every
    # recorded value and B stay finite, and one step more is refused
    F, T, h = rotated_affine_map(), localize.MAX_T_OVER_N * 2, 1.0
    out = run_paths(F, T=T, h=h, seed=1, n_paths=2)
    for field in RECORDS + ("B",):
        assert np.all(np.isfinite(getattr(out, field)))
    b = ((1 + h / 2) ** np.round(out.record_t / h))[:, None]
    assert np.all(np.abs(out.record_lambda_k1 / b - 1) <= 1e-10)
    with pytest.raises(ValidationError, match="past 600 n"):
        run_paths(F, T=T + h, h=h, seed=1, n_paths=2)


def test_affine_path_matches_closed_form_b():
    # For f = z_1 the matrix dynamics are deterministic and diagonal:
    # b_11 = 1, b_22 solves b' = b/2, so b_22(t) = e^{t/2}
    F = affine_map(2)
    st, diag = run_path(F, T=2.0, h=1e-3, seed=0)
    assert st.B[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert abs(st.B[0, 1]) <= 1e-10
    assert st.B[1, 1].real == pytest.approx(np.e, rel=2e-3)
    # the diagnostics table has 5 columns and ends at T
    assert diag.shape[1] == 5
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
    assert np.array_equal(s1.L, s2.L)
    assert np.array_equal(s1.B, s2.B)
    assert np.array_equal(d1, d2)


def test_path_in_batch_matches_solo_run():
    F = paraboloid_map(2)
    solo, _ = run_path(F, T=0.5, h=2e-3, seed=21)
    batch = run_paths(F, T=0.5, h=2e-3, seed=21, n_paths=3)
    assert np.array_equal(batch.a[0], solo.a)
    assert np.array_equal(batch.L[0], solo.L)
    assert np.array_equal(batch.B[0], solo.B)


def test_path_residuals_controlled():
    F = paraboloid_map(2)
    h = 2e-3
    st, diag = run_path(F, T=1.0, h=h, seed=5)
    assert residual_norm(F, st.a) <= 1e-10
    assert st.fiber_residual_max <= 10 * h
    assert np.all(diag[:, 1] <= 10 * h)


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


@pytest.mark.parametrize("make", [lambda: paraboloid_map(2), lambda: codim2_map()],
                         ids=["paraboloid", "codim2"])
def test_terminal_gaussians_of_a_stack_are_its_rows(make):
    F = make()
    out = run_paths(F, T=1.0, h=5e-3, seed=21, n_paths=9)
    mu = terminal_gaussian(out.state(np.arange(9)), k=F.k)
    # a row does not depend on the other rows
    halves = [terminal_gaussian(out.state(np.arange(lo, hi)), k=F.k) for lo, hi in ((0, 4), (4, 9))]
    for field in ("center", "covariance", "support_dim"):
        assert np.array_equal(getattr(mu, field),
                              np.concatenate([getattr(g, field) for g in halves]))
    for i in range(9):
        alone = terminal_gaussian(out.state(i), k=F.k)
        assert type(alone.support_dim) is int and alone.support_dim == mu.support_dim[i]
        assert np.array_equal(alone.center, mu.center[i])
        np.testing.assert_allclose(alone.covariance, mu.covariance[i], rtol=0, atol=1e-15)


def stacked_state(diagonals, t):
    B = np.array([np.diag(d) for d in diagonals], dtype=complex)
    return LocalizationState(t=t, a=np.zeros(B.shape[:2], dtype=complex), L=factor(B))


def test_terminal_gaussians_truncate_and_check_every_row():
    # eigenvalues of 2 B^{-1}: (2, 0.02) keeps both at rank_tol 1e-2, (2, 0.002) one
    mu = terminal_gaussian(stacked_state([[1.0, 100.0], [1.0, 1000.0]], t=10.0), k=1)
    assert mu.support_dim.tolist() == [2, 1]
    # at t = 10 the decay bound is 2 n (k+1) / t = 0.8; the second and third
    # rows break it with 1 and 2, and the error names the worst
    st = stacked_state([[1.0, 100.0], [1.0, 2.0], [1.0, 1.0], [1.0, 1000.0]], t=10.0)
    with pytest.raises(StateError, match=r"2\.000e\+00 > 8\.000e-01"):
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
    S = sigma(F, st)
    _, Bih, pi = reference_pieces(F, st)
    ref = Bih @ pi @ Bih / F.n
    assert np.allclose(S @ S.conj().T, ref, rtol=1e-12, atol=0)
    assert np.linalg.norm(eval_jacobian(F, st.a) @ S) <= 1e-10


def test_codim2_step_increment_matches_square_root_reference():
    F = codim2_map()
    st = codim2_state()
    h = 1e-2
    _, B = advance(F, st, h, increments(6, 0, h, 3, 1)[0])
    Bh, _, pi = reference_pieces(F, st)
    inc = (h / F.n) * Bh @ pi @ Bh
    assert np.allclose(B[0] - st.B, inc, rtol=0, atol=1e-13 * np.linalg.norm(st.B))


def test_codim2_paths_stay_valid():
    F = codim2_map()
    out = run_paths(F, T=1.0, h=2e-3, seed=23, n_paths=20, record_every=1)
    assert out.n_aborted == 0
    # every step: centers on the zero set, B above Id, trace bounded
    assert np.all(out.record_post_residual <= 1e-10)
    assert np.all(out.record_lambda_min >= LAMBDA_MIN_FLOOR)
    assert np.all(out.record_trace <= 3 * np.exp(out.record_t)[:, None] * (1 + 1e-6))
    for i in range(20):
        assert_state_invariants(out.state(i))
