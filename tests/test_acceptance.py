"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with pytest -s to see them all);
the slow shared simulations live in module-scoped fixtures. The module
takes about 85 s on a 2-core x86 VM, the whole suite about 125 s.
"""

import numpy as np
import pytest

from fiberloc import (
    HalfSpace,
    One,
    QuadraticPotential,
    SqNorm,
    affine_map,
    circled_norm_geometry,
    disc_measure,
    estimate_tube_measure,
    gaussian_expectation,
    hyperbola_map,
    paraboloid_map,
    potential_eval,
    run_path,
    run_paths,
    terminal_gaussian,
    tilt_inequality_check,
    waist_check,
)
from fiberloc.polymap import PolynomialMap

from test_gaussgeom import disc_oracle_polar


def report(num, name, ok):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


@pytest.fixture(scope="module")
def paraboloid_batch():
    # shared by the mixture and density-martingale criteria
    return run_paths(paraboloid_map(2), T=10.0, h=1e-3, seed=2024, n_paths=1000)


def test_criterion_01_affine_equality_case():
    F = affine_map(2, offset=0.5)
    out = waist_check(F, r_grid=[0.5, 1.0, 2.0], N=100000, seed=101, distance=0.5)
    ok = True
    for row in out.rows:
        ref = disc_measure(1, 0.5, row.r)
        ok = ok and abs(row.p_hat - ref) <= 3 * max(row.stderr, 1e-4)
    report(1, "affine equality case", ok)


def test_criterion_02_waist_inequality_curved_fibers():
    grid = [0.5, 1.0, 2.0]
    hyp = waist_check(hyperbola_map(), grid, N=100000, seed=102,
                      distance=np.sqrt(2.0))
    par = waist_check(paraboloid_map(2), grid, N=100000, seed=103, distance=0.0)
    ok = hyp.passed and par.passed
    report(2, "waist inequality on curved fibers", ok)


def test_criterion_03_localization_invariant_suite():
    F = paraboloid_map(3)
    out = run_paths(F, T=10.0, h=1e-3, seed=104, n_paths=200)
    t = out.record_t
    ok = (out.n_aborted == 0
          and bool(np.all(out.record_post_residual <= 1e-10))
          and bool(np.all(out.record_lambda_min >= 1 - 1e-8))
          and bool(np.all(out.record_trace <= 3 * np.exp(t)[:, None] * (1 + 1e-6)))
          and bool(np.all(out.record_lambda_k1 >= 0.95 * t[:, None] / 6.0)))
    report(3, "localization invariant suite", ok)


def test_criterion_04_closed_form_affine_dynamics():
    F = affine_map(2)
    target = np.diag([1.0, np.exp(5.0)])

    def rel_err(h):
        st, _ = run_path(F, T=10.0, h=h, seed=105)
        return np.linalg.norm(st.B - target) / np.linalg.norm(target)

    e1, e2 = rel_err(1e-3), rel_err(5e-4)
    ok = e1 <= 0.01 and 0.3 <= e2 / e1 <= 0.7
    report(4, "closed-form affine dynamics", ok)


def test_criterion_05_mixture_decomposition(paraboloid_batch):
    out = paraboloid_batch
    live = np.nonzero(~out.aborted)[0]
    ok = out.n_aborted <= 10
    functionals = [(One(), 1.0), (SqNorm(), 4.0), (HalfSpace([1.0, 0.0]), 0.5)]
    mus = [terminal_gaussian(out.state(i), k=1) for i in live]
    for phi, ref in functionals:
        vals = np.array([gaussian_expectation(mu, phi) for mu in mus])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        if isinstance(phi, One):
            ok = ok and abs(vals.mean() - ref) <= 1e-12
        else:
            ok = ok and abs(vals.mean() - ref) <= 3 * se
    report(5, "mixture decomposition", ok)


def test_criterion_06_pointwise_density_martingale(paraboloid_batch):
    out = paraboloid_batch
    live = np.nonzero(~out.aborted)[0]
    pts = [np.zeros(2), np.array([0.5, 0.0]), np.array([0.0, 0.7j]),
           np.array([0.3 + 0.2j, -0.4]), np.array([0.5j, 0.5])]
    pots = [QuadraticPotential(out.a[i], out.B[i]) for i in live]
    ok = True
    for z in pts:
        vals = np.array([np.exp(-potential_eval(p, z)) for p in pots])
        ref = np.exp(-np.linalg.norm(z) ** 2 / 2)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        ok = ok and abs(vals.mean() - ref) <= 3 * max(se, 1e-12)
    report(6, "pointwise density martingale", ok)


def test_criterion_07_center_law_second_moment():
    F = affine_map(2)
    out = run_paths(F, T=20.0, h=2e-3, seed=107, n_paths=1000)
    live = out.a[~out.aborted]
    sq = np.sum(np.abs(live) ** 2, axis=1)
    zeta = live[:, 1]
    se_sq = sq.std(ddof=1) / np.sqrt(len(sq))
    se_mean = np.abs(zeta - zeta.mean()).std(ddof=1) / np.sqrt(len(zeta))
    abs2 = np.abs(zeta) ** 2
    se_abs2 = abs2.std(ddof=1) / np.sqrt(len(abs2))
    ok = (out.n_aborted == 0
          and bool(np.all(live[:, 0] == 0.0))
          and sq.mean() <= 4.0 + 3 * se_sq
          and abs(zeta.mean()) <= 3 * se_mean
          and abs(abs2.mean() - 2.0) <= 3 * se_abs2)
    report(7, "center law and second moment", ok)


def test_criterion_08_rank_collapse():
    F = paraboloid_map(2)
    ok = True
    for T, want_collapse in [(10.0, False), (40.0, True)]:
        out = run_paths(F, T=T, h=2e-3, seed=108, n_paths=8)
        ok = ok and out.n_aborted == 0
        bound = 2 * F.n * (F.k + 1) / T
        for i in range(8):
            st = out.state(i)
            # smallest surviving decay rate: second-largest eigenvalue of
            # the covariance 2 B^{-1}
            w = np.sort(2.0 / np.linalg.eigvalsh(st.B))
            ok = ok and w[0] <= bound * (1 + 1e-9)
            mu = terminal_gaussian(st, rank_tol=1e-2, k=1)
            if want_collapse:
                ok = ok and mu.support_dim == 1
    report(8, "rank collapse of terminal covariances", ok)


def test_criterion_09_tilt_lemma_oracle():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        B = np.array([[1.0 + 3.0 * rng.uniform()]])
        v = np.array([rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())])
        R = rng.uniform(0.2, 2.0)
        chk = tilt_inequality_check(B, v, R)
        ok = ok and chk.lhs >= chk.rhs - 1e-6
    eq = tilt_inequality_check(np.eye(1), np.array([0.9 - 0.4j]), 1.3)
    ok = ok and abs(eq.lhs - eq.rhs) <= 1e-8
    report(9, "tilt inequality oracle", ok)


def test_criterion_10_noncentral_baseline_correctness():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(20):
        rho = float(rng.uniform(0, 3))
        R = float(rng.uniform(0.1, 3))
        ok = ok and abs(disc_measure(1, rho, R) - disc_oracle_polar(rho, R)) <= 1e-8
    for k, R in [(1, 1.0), (2, 1.5), (3, 0.8)]:
        x = R * R
        s, term = 0.0, 1.0
        for j in range(k):
            if j > 0:
                term *= (x / 2) / j
            s += term
        closed = 1.0 - np.exp(-x / 2) * s
        ok = ok and abs(disc_measure(k, 0.0, R) - closed) <= 1e-12
    report(10, "noncentral baseline correctness", ok)


def test_criterion_11_circled_norm_tube_bound():
    w = np.array([1.0, 2.0])
    geom = circled_norm_geometry(w)
    d = np.sqrt(2.0)
    # translate of the contact hyperplane at the fiber's distance from 0
    translate = PolynomialMap(
        2, 1, [[(1.0, [0, 1]), (-d, [0, 0])]], [0.0, d])
    ok = True
    for r, seed in [(0.5, 111), (1.0, 112)]:
        ez = estimate_tube_measure(hyperbola_map(), r, 100000, seed,
                                   norm_weights=w)
        eh = estimate_tube_measure(translate, r, 100000, seed + 50,
                                   norm_weights=w)
        combined = np.hypot(ez.stderr, eh.stderr)
        ok = ok and ez.p_hat >= eh.p_hat - 3 * max(combined, 1e-4)
    # sampling inclusion checks for the norm ball K = {|Wz| <= 1}
    rng = np.random.default_rng(113)
    u = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ok = ok and bool(np.all(np.linalg.norm(w * (geom.r_K * u), axis=1) <= 1 + 1e-12))
    zK = (u * rng.uniform(0, 1, size=(10000, 1))) / w
    perp = zK - (zK @ np.conj(geom.H)) @ geom.H.T
    ok = ok and bool(np.all(np.linalg.norm(perp, axis=1) <= geom.r_K + 1e-12))
    report(11, "circled-norm tube bound", ok)
