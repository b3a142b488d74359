import math

import numpy as np
import pytest
from scipy import integrate, stats

from fiberloc import (
    BoundedExp,
    ComplexGaussian,
    DomainError,
    HalfSpace,
    One,
    SqNorm,
    ValidationError,
    affine_tube_measure,
    circled_norm_geometry,
    disc_measure,
    gaussian_expectation,
    standard_gaussian,
    tilt_inequality_check,
)


def disc_oracle_polar(rho, R, radial=400, angular=1024):
    """Quadrature oracle for the k = 1 disc measure: integrate the standard
    Gaussian density over |z - v| <= R with |v| = rho, in polar
    coordinates around v."""
    x, w = np.polynomial.legendre.leggauss(radial)
    s = R * (x + 1) / 2
    ws = w * R / 2
    theta = 2 * np.pi * np.arange(angular) / angular
    ang = np.exp(-rho * s[:, None] * np.cos(theta)[None, :]).mean(axis=1)
    vals = s * np.exp(-(rho * rho + s * s) / 2) * ang
    return float(np.sum(ws * vals))


# ---------------------------------------------------------------------------
# Disc and tube measures

def test_disc_measure_trivial_cases():
    assert disc_measure(1, 0.0, 0.0) == 0.0
    assert disc_measure(3, 2.0, 0.0) == 0.0
    assert disc_measure(1, 0.0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_disc_measure_central_closed_form():
    # [DERIVED] |z|^2 on C^1 is exponential with mean 2
    assert disc_measure(1, 0.0, 1.0) == pytest.approx(1 - math.exp(-0.5), abs=1e-14)
    # k = 2: P(chi^2_4 <= x) = 1 - e^{-x/2}(1 + x/2)
    x = 2.25
    assert disc_measure(2, 0.0, 1.5) == pytest.approx(
        1 - math.exp(-x / 2) * (1 + x / 2), abs=1e-14)


def test_disc_measure_matches_polar_quadrature():
    for rho, R in [(0.5, 1.0), (1.5, 0.7), (2.0, 2.0), (3.0, 1.0)]:
        assert disc_measure(1, rho, R) == pytest.approx(
            disc_oracle_polar(rho, R), abs=1e-10)


def test_disc_measure_matches_noncentral_chi_square():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        rho = float(rng.uniform(0, 3))
        R = float(rng.uniform(0.1, 3))
        ref = float(stats.ncx2.cdf(R * R, df=2 * k, nc=rho * rho))
        assert disc_measure(k, rho, R) == pytest.approx(ref, abs=1e-8)


def test_disc_measure_continuous_at_center():
    assert disc_measure(2, 1e-9, 1.0) == pytest.approx(
        disc_measure(2, 0.0, 1.0), abs=1e-9)


def test_disc_measure_monotone():
    R = np.linspace(0.1, 3.0, 15)
    vals = [disc_measure(2, 1.0, r) for r in R]
    assert np.all(np.diff(vals) > 0)
    rho = np.linspace(0.0, 3.0, 15)
    vals = [disc_measure(2, p, 1.0) for p in rho]
    assert np.all(np.diff(vals) < 0)


def test_disc_measure_rejects_bad_args():
    with pytest.raises(ValidationError):
        disc_measure(0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        disc_measure(1, -1.0, 1.0)
    with pytest.raises(ValidationError):
        disc_measure(1, 0.0, -1.0)


# True values from scipy.stats.ncx2: about 1, 0.9915 and 0.998. The series
# underflows there (it returned 0, 1.0 and 1.0), so the call must refuse.
@pytest.mark.parametrize("k,rho,R", [(1, 40.0, 45.0), (1, 37.6, 40.0), (5, 36.0, 39.0)])
def test_disc_measure_refuses_underflowing_series(k, rho, R):
    with pytest.raises(DomainError):
        disc_measure(k, rho, R)


def test_disc_measure_matches_ncx2_up_to_the_series_bound():
    for k, rho, R in [(1, 37.6, 37.6), (1, 37.6, 37.0), (5, 37.0, 37.6)]:
        assert disc_measure(k, rho, R) == pytest.approx(
            stats.ncx2.cdf(R * R, 2 * k, rho * rho), abs=1e-12)


def test_affine_tube_measure_independent_of_ambient_dimension():
    for n in [2, 3, 7]:
        assert affine_tube_measure(n, 1, 1.2, 0.8) == pytest.approx(
            disc_measure(1, 1.2, 0.8), abs=1e-15)


def test_affine_tube_measure_rejects_bad_codimension():
    with pytest.raises(ValidationError):
        affine_tube_measure(2, 3, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Expectations against complex Gaussians

def sample_gaussian(mu, N, seed):
    rng = np.random.default_rng(seed)
    n = mu.center.shape[0]
    w, V = np.linalg.eigh(mu.covariance)
    M = (V * np.sqrt(np.maximum(w, 0))) @ V.conj().T
    g = rng.standard_normal((N, 2 * n))
    xi = (g[:, :n] + 1j * g[:, n:]) / np.sqrt(2)   # E xi xi^* = Id
    return mu.center[None, :] + xi @ M.conj()      # M Hermitian, covariance M^2


def test_expectation_trivial():
    mu = standard_gaussian(2)
    assert gaussian_expectation(mu, One()) == 1.0
    assert gaussian_expectation(mu, SqNorm()) == pytest.approx(4.0)
    assert gaussian_expectation(mu, HalfSpace([1.0, 0.0])) == pytest.approx(0.5)


def test_expectation_sq_norm_with_center():
    mu = ComplexGaussian(np.array([1.0, 1j]), 2 * np.eye(2), 2)
    assert gaussian_expectation(mu, SqNorm()) == pytest.approx(6.0)


def test_expectation_half_space_matches_mc():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = G @ G.conj().T + 0.5 * np.eye(2)
    mu = ComplexGaussian(np.array([0.3, -0.2j]), A, 2)
    phi = HalfSpace([1.0, 0.5j], c=0.2)
    z = sample_gaussian(mu, 400000, seed=6)
    vals = (np.real(z @ np.conj(phi.u)) > phi.c).astype(float)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert gaussian_expectation(mu, phi) == pytest.approx(vals.mean(), abs=4 * se)


def test_expectation_bounded_exp_matches_mc():
    mu = ComplexGaussian(np.array([0.1 + 0.2j]), np.array([[1.5]]), 1)
    phi = BoundedExp([1.0], M=3.0)
    z = sample_gaussian(mu, 400000, seed=7)
    vals = np.minimum(np.exp(np.real(z @ np.conj(phi.u))), phi.M)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert gaussian_expectation(mu, phi) == pytest.approx(vals.mean(), abs=4 * se)


def test_expectation_degenerate_support():
    # rank-1 covariance: the functional along the dead direction is a point mass
    mu = ComplexGaussian(np.array([0.7, 0.0]), np.diag([0.0, 2.0]), 1)
    assert gaussian_expectation(mu, HalfSpace([1.0, 0.0])) == 1.0
    assert gaussian_expectation(mu, HalfSpace([1.0, 0.0], c=1.0)) == 0.0
    assert gaussian_expectation(mu, HalfSpace([1.0, 0.0], c=0.7)) == 0.5
    assert gaussian_expectation(mu, BoundedExp([1.0, 0.0], M=10.0)) == pytest.approx(
        math.exp(0.7))


def test_expectation_rejects_unknown_functional():
    with pytest.raises(ValidationError):
        gaussian_expectation(standard_gaussian(1), object())


def test_bounded_exp_rejects_bad_cap():
    with pytest.raises(ValidationError):
        BoundedExp([1.0], M=0.0)


def bounded_exp_by_quadrature(m, s, M):
    """E min(e^X, M) for X ~ N(m, s^2): the part below the cap by
    quadrature in x = (X - m) / s, the part at the cap in closed form."""
    y = (math.log(M) - m) / s
    below = integrate.quad(lambda x: math.exp(m + s * x - x * x / 2) / math.sqrt(2 * math.pi),
                           -np.inf, y, epsabs=0, epsrel=1e-12, limit=200)[0]
    return below + M * stats.norm.sf(y)


def line_gaussian(m, s):
    """A Gaussian on C whose real part is N(m, s^2)."""
    return ComplexGaussian(np.array([m + 0j]), np.array([[2 * s * s]]), 1)


@pytest.mark.parametrize("m, s, M, want", [(0, 40, 10, 4.870128707990279),
                                           (2, 100, 3, 1.5227534114373942),
                                           (50, 1000, 1e6, 514831.0396091995)])
def test_bounded_exp_where_the_uncapped_mean_overflows(m, s, M, want):
    # e^{m + s^2/2} is past the float range; the expectation is at most M
    assert gaussian_expectation(line_gaussian(m, s), BoundedExp([1.0], M)) == pytest.approx(
        want, rel=1e-15)


@pytest.mark.parametrize("m", [-5.0, 0.3, 50.0])
@pytest.mark.parametrize("s", [0.5, 5.0, 28.0, 40.0, 1000.0])
def test_bounded_exp_matches_quadrature(m, s):
    # z = s - (log M - m) / s runs from -37 to 1000 over this grid: the plain
    # closed form, the erfc form of the Mills ratio and its asymptotic series
    for M in (0.5, 10.0, 1e6):
        got = gaussian_expectation(line_gaussian(m, s), BoundedExp([1.0], M))
        assert got == pytest.approx(bounded_exp_by_quadrature(m, s, M), rel=1e-14)


def bounded_exp_by_mpmath(m, s, M):
    """E min(e^X, M) for X ~ N(m, s^2) in closed form at 60 digits."""
    import mpmath
    with mpmath.workdps(60):
        m, s, t = mpmath.mpf(m), mpmath.mpf(s), mpmath.log(M)
        return (mpmath.exp(m + s * s / 2) * mpmath.ncdf((t - m - s * s) / s)
                + M * mpmath.ncdf((m - t) / s))


def test_bounded_exp_where_m_phi_leaves_the_float_range():
    # M phi(y) and M Phi(-y) apart of M: phi(y) is subnormal past y = 37.5
    # and 0 past 38.6, M up to 1e300; every expectation kept is a normal float
    grid = [(m, s, M) for m in [-1500, -1300, -1100, -900, -700, -500, -300, -100, 0, 100, 300]
            for s in [0.5, 5, 20, 30, 36, 40, 45, 50, 60] for M in [1e-3, 1, 1e10, 1e100, 1e300]]
    assert (-1300, 45, 1e300) in grid and (-700, 36, 1e300) in grid
    kept = 0
    for m, s, M in grid:
        want = bounded_exp_by_mpmath(m, s, M)
        if want < 1e-300:
            continue
        kept += 1
        got = gaussian_expectation(line_gaussian(m, s), BoundedExp([1.0], M))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0), (m, s, M)
    assert kept >= 300


# ---------------------------------------------------------------------------
# Expectations over a stack of Gaussians

P_STACK = 12


def gaussian_stack():
    """P_STACK Gaussians on C^2 with random centers and covariances; the
    last two have no variance along the first axis."""
    rng = np.random.default_rng(29)
    G = rng.standard_normal((P_STACK, 2, 2)) + 1j * rng.standard_normal((P_STACK, 2, 2))
    A = G @ np.conj(np.swapaxes(G, -1, -2)) * rng.uniform(0.05, 1.5, (P_STACK, 1, 1))
    A[-2:] = np.diag([0.0, 2.0])
    center = rng.standard_normal((P_STACK, 2)) + 1j * rng.standard_normal((P_STACK, 2))
    center[-1, 0] = 0.2
    return ComplexGaussian(center, A, np.full(P_STACK, 2))


def stack_rows(mu, rows):
    return ComplexGaussian(mu.center[rows], mu.covariance[rows], mu.support_dim[rows])


STACK_FUNCTIONALS = [One(), SqNorm(), HalfSpace([1.0, 0.5j], c=0.2), HalfSpace([1.0, 0.0], c=0.2),
                     BoundedExp([1.0, 0.0], M=3.0), BoundedExp([40.0, 0.0], M=10.0),
                     BoundedExp([0.5, -0.3j], M=1e6)]


@pytest.mark.parametrize("phi", STACK_FUNCTIONALS,
                         ids=["one", "sq_norm", "half_space", "half_space_axis",
                              "bounded_exp", "bounded_exp_wide", "bounded_exp_tilted"])
def test_a_stack_of_gaussians_is_its_rows(phi):
    mu = gaussian_stack()
    vals = gaussian_expectation(mu, phi)
    assert vals.shape == (P_STACK,)
    # a row does not depend on the other rows
    halves = [gaussian_expectation(stack_rows(mu, rows), phi)
              for rows in (slice(0, 5), slice(5, None))]
    assert np.array_equal(vals, np.concatenate(halves))
    for i in range(P_STACK):
        alone = gaussian_expectation(stack_rows(mu, i), phi)
        assert type(alone) is float
        assert alone == pytest.approx(vals[i], rel=1e-15, abs=1e-15)


# ---------------------------------------------------------------------------
# Tilt inequality

def test_tilt_equality_at_identity():
    # with B = Id both sides coincide by construction
    chk = tilt_inequality_check(np.eye(1), np.array([0.8 + 0.3j]), 1.1)
    assert chk.holds
    assert chk.lhs == pytest.approx(chk.rhs, abs=1e-10)
    chk2 = tilt_inequality_check(np.eye(2), np.array([0.5, -0.7j]), 1.4)
    assert chk2.holds
    assert chk2.lhs == pytest.approx(chk2.rhs, abs=1e-8)


def test_tilt_holds_on_random_instances_k1():
    rng = np.random.default_rng(11)
    for _ in range(10):
        B = np.array([[1.0 + rng.uniform(0, 3)]])
        v = np.array([rng.normal() + 1j * rng.normal()])
        R = rng.uniform(0.2, 2.0)
        chk = tilt_inequality_check(B, v, R)
        assert chk.holds
        assert 0.0 <= chk.rhs <= chk.lhs + 1e-6


def test_tilt_holds_on_random_instances_k2():
    rng = np.random.default_rng(12)
    for _ in range(4):
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = np.eye(2) + 0.5 * G @ G.conj().T
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chk = tilt_inequality_check(B, v / 2, rng.uniform(0.3, 1.5))
        assert chk.holds


def test_tilt_no_tilt_reduces_to_disc_measure():
    # v = 0: lhs is the measure of the disc under the curved Gaussian and
    # rhs is the flat disc measure; both must also match closed forms
    b = 2.5
    R = 1.2
    chk = tilt_inequality_check(np.array([[b]]), np.zeros(1), R)
    assert chk.lhs == pytest.approx(1 - math.exp(-b * R * R / 2), abs=1e-10)
    assert chk.rhs == pytest.approx(disc_measure(1, 0.0, R), abs=1e-10)


def test_tilt_rejects_small_precision():
    with pytest.raises(DomainError):
        tilt_inequality_check(np.array([[0.5]]), np.zeros(1), 1.0)


def test_tilt_rejects_large_dimension():
    with pytest.raises(ValidationError):
        tilt_inequality_check(np.eye(3), np.zeros(3), 1.0)


# ---------------------------------------------------------------------------
# Circled-norm geometry

def test_circled_geometry_weights_1_2():
    g = circled_norm_geometry([1.0, 2.0])
    assert g.r_K == pytest.approx(0.5)
    assert np.allclose(g.z0, [0.0, 0.5])
    assert g.H.shape == (2, 1)
    assert np.allclose(g.H[:, 0], [1.0, 0.0])


def test_circled_geometry_contact_point_on_boundary():
    w = np.array([0.5, 3.0, 1.0])
    g = circled_norm_geometry(w)
    assert np.linalg.norm(g.z0) == pytest.approx(g.r_K)
    assert np.linalg.norm(w * g.z0) == pytest.approx(1.0)


def test_circled_ball_inclusions_by_sampling():
    # r_K B^n sits inside K = {|W z| <= 1}, and K sits inside H + r_K B^n
    w = np.array([1.0, 2.0])
    g = circled_norm_geometry(w)
    rng = np.random.default_rng(20)
    u = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    assert np.all(np.linalg.norm(w * (g.r_K * u), axis=1) <= 1 + 1e-12)
    # points of K: rescale unit-ball samples by 1/w
    v = u * rng.uniform(0, 1, size=(10000, 1))
    zK = v / w
    dist_to_H = np.abs(zK[:, 1])       # H is the first coordinate axis
    assert np.all(dist_to_H <= g.r_K + 1e-12)


def test_circled_geometry_rejects_bad_weights():
    with pytest.raises(ValidationError):
        circled_norm_geometry([1.0, -2.0])
    with pytest.raises(ValidationError):
        circled_norm_geometry([])
