import numpy as np
import pytest

from fiberloc import (
    PolynomialMap,
    ValidationError,
    affine_map,
    distance_to_origin,
    eval_jacobian,
    eval_map,
    hyperbola_map,
    paraboloid_map,
)
from fiberloc import polymap
from fiberloc.polymap import (
    FIBER_TOL,
    KKT_TOL,
    RANK_TOL,
    eval_hessian,
    minimize_fiber_distance,
    project_batch,
    residual_norm,
)


def random_cubic_map(seed=0):
    """A fixed random map C^3 -> C^2 with monomials up to degree 3.

    Built to vanish at a chosen base point by subtracting its value there.
    """
    rng = np.random.default_rng(seed)
    exps = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [1, 1, 0],
            [0, 2, 1], [1, 0, 2], [3, 0, 0]]
    base = np.array([0.3 + 0.1j, -0.2j, 0.5])
    comps = []
    for _ in range(2):
        c = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
        val = sum(ci * np.prod(base ** np.array(e)) for ci, e in zip(c, exps))
        mono = list(zip(c, exps)) + [(-val, [0, 0, 0])]
        comps.append(mono)
    return PolynomialMap(3, 2, comps, base)


def monomial_sum(comp, z):
    """The sum of c z^e over the (c, e) pairs of one component, term by term."""
    return sum(c * np.prod(z ** np.array(e)) for c, e in comp)


def quintic_components():
    """Components of a fixed map C^3 -> C^2 of degree 5, and its base point.

    Component 0 holds the monomial z_1 z_2 twice and a zero coefficient;
    both components share z_1 z_2 and the constant term.
    """
    base = np.array([0.4 - 0.2j, 0.1 + 0.3j, -0.5j])
    comps = [
        [(1.5, [5, 0, 0]), (0.5 - 1j, [1, 1, 0]), (1.0, [1, 0, 0]),
         (2j, [1, 1, 0]), (0.0, [0, 4, 1]), (-0.7, [2, 2, 1])],
        [(1.0, [0, 0, 1]), (-0.3j, [3, 1, 1]), (2.0, [1, 1, 0]),
         (0.2, [0, 0, 5]), (1.0, [0, 1, 0])],
    ]
    return [c + [(-monomial_sum(c, base), [0, 0, 0])] for c in comps], base


def quintic_map():
    return PolynomialMap(3, 2, *quintic_components())


# ---------------------------------------------------------------------------
# Evaluation and Jacobian

def test_eval_hyperbola_known_points():
    F = hyperbola_map()
    assert eval_map(F, [1.0, 1.0]) == pytest.approx(0.0)
    assert eval_map(F, [2.0, 1.0])[0] == pytest.approx(1.0)
    assert eval_map(F, [1j, 1j])[0] == pytest.approx(-2.0)


def test_eval_paraboloid_known_points():
    F = paraboloid_map(2)
    # f(z) = z_2 - z_1^2
    assert eval_map(F, [1 + 1j, 2j])[0] == pytest.approx(0.0)
    assert eval_map(F, [2.0, 1.0])[0] == pytest.approx(-3.0)


def test_eval_stacked_matches_loop():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for F in (random_cubic_map(), quintic_map()):
        stacked = eval_map(F, pts)
        for i in range(5):
            assert np.allclose(stacked[i], eval_map(F, pts[i]))


def test_eval_matches_monomial_sums():
    comps, _ = quintic_components()
    F = quintic_map()
    rng = np.random.default_rng(3)
    for z in rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)):
        ref = [monomial_sum(c, z) for c in comps]
        assert np.allclose(eval_map(F, z), ref, rtol=1e-13, atol=1e-13)


def test_jacobian_hyperbola():
    F = hyperbola_map()
    J = eval_jacobian(F, [2.0, 3.0])
    assert np.allclose(J, [[3.0, 2.0]])


def test_jacobian_matches_finite_differences():
    # central differences along each real coordinate direction; for a
    # holomorphic map that recovers the complex derivative
    rng = np.random.default_rng(11)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = 1e-6
    for F in (random_cubic_map(), quintic_map()):
        J = eval_jacobian(F, z)
        for ell in range(3):
            e = np.zeros(3, dtype=complex)
            e[ell] = h
            fd = (eval_map(F, z + e) - eval_map(F, z - e)) / (2 * h)
            assert np.allclose(J[:, ell], fd, atol=1e-7, rtol=1e-7)


def test_hessian_matches_finite_differences():
    # central differences of the exact Jacobian along each coordinate
    rng = np.random.default_rng(12)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = 1e-6
    for F in (random_cubic_map(), quintic_map()):
        H = eval_hessian(F, z)
        assert H.shape == (2, 3, 3)
        assert np.allclose(H, np.swapaxes(H, -1, -2), rtol=1e-13, atol=1e-13)
        for m in range(3):
            e = np.zeros(3, dtype=complex)
            e[m] = h
            fd = (eval_jacobian(F, z + e) - eval_jacobian(F, z - e)) / (2 * h)
            assert np.allclose(H[:, :, m], fd, atol=1e-6, rtol=1e-6)
        stacked = eval_hessian(F, np.stack([z, 2 * z]))
        assert np.allclose(stacked[0], H) and np.allclose(stacked[1], eval_hessian(F, 2 * z))


def test_residual_norm_shapes():
    F = hyperbola_map()
    assert isinstance(residual_norm(F, [1.0, 1.0]), float)
    r = residual_norm(F, np.array([[1.0, 1.0], [2.0, 1.0]], dtype=complex))
    assert r.shape == (2,)
    assert r[0] == pytest.approx(0.0, abs=1e-14)
    assert r[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Projection

def test_projection_fixes_fiber_points():
    F = hyperbola_map()
    pts, res, converged, singular, _ = project_batch(F, np.array([[1.0, 1.0]]))
    assert converged[0] and not singular[0]
    assert np.allclose(pts[0], [1.0, 1.0], atol=1e-14)
    assert res[0] <= 1e-10


def test_projection_converges_near_fiber():
    F = paraboloid_map(2)
    pts, res, converged, _, _ = project_batch(F, np.array([[1.0 + 0.5j, 0.9 + 1.1j]]))
    assert converged[0] and res[0] <= 1e-10
    assert residual_norm(F, pts[0]) <= 1e-10


def test_projection_raises_on_singularity():
    # f = z_1^2 - 1: the Jacobian vanishes on the whole plane z_1 = 0, so
    # the projection stops there flagged singular
    F = PolynomialMap(2, 1, [[(1.0, [2, 0]), (-1.0, [0, 0])]], [1.0, 0.0])
    _, _, converged, singular, _ = project_batch(F, np.zeros((1, 2)))
    assert singular[0] and not converged[0]


def test_projection_refuses_a_non_finite_residual(monkeypatch):
    # f = z_2 - z_1^300 + z_1^299 overflows to inf - inf = NaN at (12, 0);
    # a NaN residual is not on the zero set, so no start there is feasible,
    # and since nothing can converge from it no Jacobian is evaluated
    F = PolynomialMap(2, 1, [[(1.0, [0, 1]), (-1.0, [300, 0]), (1.0, [299, 0])]],
                      [0.0, 0.0])
    z = np.array([[12.0, 0.0]], dtype=complex)
    calls = []

    def counted(F, z):
        calls.append(z)
        return eval_jacobian(F, z)

    monkeypatch.setattr(polymap, "eval_jacobian", counted)
    with np.errstate(all="ignore"):
        _, _, converged, singular, _ = project_batch(F, z)
        assert calls == []
        _, dist, ok, _ = minimize_fiber_distance(F, z, z)
    assert not converged[0] and not singular[0]
    assert not ok[0] and dist[0] == np.inf


def test_projection_returns_the_starting_residuals():
    F = hyperbola_map()
    z = np.array([[1.1, 1.0], [2.0, 0.5], [0.3j, 1.0]])
    _, res, converged, _, start = project_batch(F, z)
    assert np.array_equal(start, residual_norm(F, z))
    assert np.all(converged) and np.all(res <= 1e-10)


def test_projection_moves_little_when_close():
    F = hyperbola_map()
    z = np.array([[1.0 + 1e-4, 1.0]])
    pts, _, converged, _, _ = project_batch(F, z)
    assert converged[0]
    assert np.linalg.norm(pts[0] - z[0]) <= 1e-3


# ---------------------------------------------------------------------------
# Distance to the origin

def test_distance_affine_is_offset():
    F = affine_map(2, offset=0.75)
    d = distance_to_origin(F)
    assert d.value == pytest.approx(0.75, abs=1e-8)
    assert d.optimality_residual <= 1e-6


def test_distance_hyperbola_matches_grid_oracle():
    # [DERIVED] min over the fiber z_1 z_2 = 1 of |z|^2 = rho^2 + 1/rho^2
    # with rho = |z_1|; the grid oracle scans rho
    rho = np.linspace(0.2, 5.0, 200001)
    oracle = np.sqrt(np.min(rho**2 + 1.0 / rho**2))
    assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-9)
    d = distance_to_origin(hyperbola_map())
    assert d.value == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert d.optimality_residual <= 1e-5


def test_distance_paraboloid_is_zero():
    d = distance_to_origin(paraboloid_map(2))
    assert d.value <= 1e-8


def test_distance_decreases_with_more_starts():
    F = hyperbola_map()
    few = distance_to_origin(F, n_starts=2, seed=5)
    many = distance_to_origin(F, n_starts=16, seed=5)
    assert many.value <= few.value + 1e-12
    assert many.n_starts_converged >= few.n_starts_converged


def test_distance_point_zero_set():
    # k = n = 2: f = (z_1^2 - 1, z_2 - z_1) vanishes only at +-(1, 1)
    F = PolynomialMap(2, 2, [[(1.0, [2, 0]), (-1.0, [0, 0])],
                             [(1.0, [0, 1]), (-1.0, [1, 0])]], [1.0, 1.0])
    d = distance_to_origin(F)
    assert d.value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert d.optimality_residual == 0.0
    assert d.n_starts_converged == 16


def test_hessian_plan_is_built_on_first_use():
    F = random_cubic_map()
    assert F._d2f_plan is None and F.rescaled(np.ones(3))._d2f_plan is None
    z = np.array([0.3 + 0.1j, -0.7j, 1.2])
    H = eval_hessian(F, z)
    assert F._d2f_plan is not None
    assert np.array_equal(eval_hessian(F, z), H)


def test_minimizer_masks_a_singular_row():
    # f = z_1 z_2 has a rank-0 Jacobian at the origin; a start there is
    # feasible but cannot take a Newton step, and must not stop the others
    F = PolynomialMap(2, 1, [[(1.0, [1, 1])]], [1.0, 0.0])
    rng = np.random.default_rng(21)
    targets = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    starts = targets + 0.3 * (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    starts[2] = 0.0
    w, dist, ok, kkt = minimize_fiber_distance(F, targets, starts)
    assert np.all(ok)
    assert dist[2] == pytest.approx(np.linalg.norm(targets[2]))
    assert not kkt[2] <= KKT_TOL
    for i in (0, 1, 3, 4):
        _, alone, _, kkt_alone = minimize_fiber_distance(F, targets[i:i + 1], starts[i:i + 1])
        assert dist[i] == alone[0] and kkt[i] == kkt_alone[0]
        assert kkt[i] <= KKT_TOL
    finite = np.isfinite(dist)
    assert np.all(residual_norm(F, w[finite]) <= FIBER_TOL)
    assert np.allclose(dist[finite], np.linalg.norm(w - targets, axis=1)[finite], rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Stack-wide kernels: the same bits for a point alone as in a stack, and
# agreement with the per-matrix LAPACK formulas they replace

def test_a_point_evaluates_alone_as_in_a_stack():
    # NumPy multiplies a one-element complex array in place without the
    # fused multiply-add it uses on longer ones, and a one-row product
    # takes another BLAS kernel; either made a point alone round differently
    rng = np.random.default_rng(31)
    maps = (PolynomialMap(2, 1, [[(1.0, [1, 1])]], [1.0, 0.0]), hyperbola_map(), quintic_map())
    for F in maps:
        z = rng.standard_normal((64, F.n)) + 1j * rng.standard_normal((64, F.n))
        for ev in (eval_map, eval_jacobian, eval_hessian):
            stacked = ev(F, z)
            for i in range(64):
                assert np.array_equal(ev(F, z[i]), stacked[i])
                assert np.array_equal(ev(F, z[i:i + 1])[0], stacked[i])


@pytest.mark.parametrize("make", [hyperbola_map, quintic_map, random_cubic_map,
                                  lambda: paraboloid_map(3)],
                         ids=["hyperbola", "quintic", "random_cubic", "paraboloid3"])
def test_a_row_projects_and_steps_alone_as_in_a_stack(make):
    # a one-element complex product rounds without the fused multiply-add;
    # no row of the solver may take another path alone than in a stack
    F = make()
    rng = np.random.default_rng(36)
    noise = rng.standard_normal((3, 64, F.n)) + 1j * rng.standard_normal((3, 64, F.n))
    z = F.base_point + 0.3 * noise[0, :32]
    stacked = project_batch(F, z)
    for i in range(32):
        for alone, part in zip(project_batch(F, z[i:i + 1]), stacked):
            assert np.array_equal(alone[0], part[i])
    w, _, ok, _, _ = project_batch(F, F.base_point + 0.3 * noise[1])
    w = w[ok][:32]
    assert len(w) == 32
    g = 0.5 * noise[2, :32]
    stacked = polymap._newton_step(F, w, g)
    for i in range(32):
        for alone, part in zip(polymap._newton_step(F, w[i:i + 1], g[i:i + 1]), stacked):
            assert np.array_equal(alone[0], part[i])


def hermitian_stack(kind, d, P, rng):
    """P Hermitian d x d matrices: random, zero, the identity, or diagonal;
    "mixed" is a random stack holding one of each of the other three."""
    X = rng.standard_normal((P, d, d)) + 1j * rng.standard_normal((P, d, d))
    A = X + np.conj(np.swapaxes(X, -1, -2))
    special = {"zero": np.zeros((d, d)), "identity": np.eye(d),
               "diagonal": np.diag(rng.standard_normal(d))}
    if kind == "mixed":
        A[1:4] = list(special.values())
    elif kind != "random":
        A[:] = special[kind]
    return A


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("P, kind", [(1, "random"), (1, "zero"), (1, "identity"),
                                     (1, "diagonal"), (40, "mixed")])
def test_jacobi_eigh_matches_lapack(d, P, kind):
    A = hermitian_stack(kind, d, P, np.random.default_rng(100 * d + P))
    lam, V = polymap._jacobi_eigh(np.moveaxis(A, 0, -1).copy())
    lam, V = lam.T, np.moveaxis(V, -1, 0)
    ref = np.linalg.eigvalsh(A)
    scale = np.abs(ref).max(axis=1)
    assert np.all(np.diff(lam, axis=1) >= 0)
    assert np.all(np.abs(lam - ref).max(axis=1) <= 1e-13 * scale)
    recon = V @ (lam[:, :, None] * np.conj(np.swapaxes(V, -1, -2)))
    assert np.all(np.abs(recon - A).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.abs(np.conj(np.swapaxes(V, -1, -2)) @ V - np.eye(d)).max() <= 1e-14


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (5, 3)])
def test_householder_qr_matches_lapack(n, k):
    rng = np.random.default_rng(10 * n + k)
    A = rng.standard_normal((40, n, k)) + 1j * rng.standard_normal((40, n, k))
    A[7, :, k - 1] = 0
    Q, R = (np.moveaxis(M, -1, 0) for M in polymap._householder_qr(np.moveaxis(A, 0, -1)))
    Q_ref, R_ref = np.linalg.qr(A, mode="complete")
    assert Q.shape == Q_ref.shape and R.shape == R_ref.shape
    assert np.all(np.isfinite(Q)) and np.all(np.isfinite(R))
    assert np.abs(np.conj(np.swapaxes(Q, -1, -2)) @ Q - np.eye(n)).max() <= 1e-14
    assert np.abs(Q @ R - A).max() <= 1e-14 * np.abs(A).max() * n
    assert np.all(np.tril(R, -1) == 0)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    assert np.allclose(diag, np.abs(np.diagonal(R_ref, axis1=-2, axis2=-1)), rtol=0, atol=1e-12)
    # the zero column, and only it, fails the rank test
    assert np.array_equal(diag.min(axis=1) < RANK_TOL, np.arange(40) == 7)


def test_newton_step_matches_a_lapack_qr_reference(monkeypatch):
    # the Newton step N u and |t| do not depend on the basis N of ker J, so
    # a QR whose Q differs from LAPACK's in phase gives the same step
    rng = np.random.default_rng(34)
    for F in (hyperbola_map(), quintic_map()):
        noise = rng.standard_normal((2, 30, F.n)) + 1j * rng.standard_normal((2, 30, F.n))
        w, _, ok, _, _ = project_batch(F, F.base_point + 0.3 * noise[0])
        w, x = w[ok], w[ok] + 0.5 * noise[1][ok]
        tn, step, slope = polymap._newton_step(F, w, w - x)
        with monkeypatch.context() as m:
            m.setattr(polymap, "_householder_qr", lambda A: tuple(
                np.moveaxis(M, 0, -1) for M in np.linalg.qr(np.moveaxis(A, -1, 0), mode="complete")))
            tn_ref, step_ref, slope_ref = polymap._newton_step(F, w, w - x)
        assert np.all(np.isfinite(tn_ref))
        assert np.allclose(tn, tn_ref, rtol=1e-10, atol=0)
        assert np.all(np.linalg.norm(step - step_ref, axis=1)
                      <= 1e-10 * np.linalg.norm(step_ref, axis=1))
        assert np.allclose(slope, slope_ref, rtol=1e-10, atol=0)


def gauss_newton_reference(F, z, max_iter=50):
    """project_batch with the rank test by eigvalsh(J J^*) and the step by
    solve(J J^*, f): (points, converged, singular)."""
    pts = np.array(z, dtype=complex)
    fv = eval_map(F, pts)
    res = np.linalg.norm(fv, axis=1)
    singular = np.zeros(len(pts), dtype=bool)
    active = ~(res <= FIBER_TOL) & np.isfinite(res)
    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        J = eval_jacobian(F, pts[idx])
        Jh = np.conj(np.swapaxes(J, -1, -2))
        G = J @ Jh
        bad = np.linalg.eigvalsh(G)[:, 0] < RANK_TOL**2
        singular[idx[bad]] = True
        active[idx[bad]] = False
        idx, Jh, G = idx[~bad], Jh[~bad], G[~bad]
        pts[idx] -= (Jh @ np.linalg.solve(G, fv[idx][..., None]))[..., 0]
        fv[idx] = eval_map(F, pts[idx])
        res[idx] = np.linalg.norm(fv[idx], axis=1)
        active[idx] = ~(res[idx] <= FIBER_TOL) & np.isfinite(res[idx])
    return pts, (res <= FIBER_TOL) & ~singular, singular


def test_projection_matches_the_eigvalsh_and_solve_formula():
    rng = np.random.default_rng(35)
    # the hyperbola's Jacobian (z_2, z_1) vanishes at its start 3
    for F, bad in ((random_cubic_map(), []), (hyperbola_map(), [3])):
        z = F.base_point + 0.5 * (rng.standard_normal((40, F.n))
                                  + 1j * rng.standard_normal((40, F.n)))
        z[bad] = 0
        pts, _, converged, singular, _ = project_batch(F, z)
        ref, converged_ref, singular_ref = gauss_newton_reference(F, z)
        assert np.array_equal(converged, converged_ref)
        assert np.array_equal(singular, singular_ref)
        assert np.array_equal(np.nonzero(singular)[0], bad) and converged.sum() >= 35
        assert np.all(np.linalg.norm(pts - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))


# ---------------------------------------------------------------------------
# Serialization, rescaling and validation

def test_json_round_trip():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for F in (random_cubic_map(), quintic_map()):
        G = PolynomialMap.from_json(F.to_json())
        assert np.allclose(eval_map(F, pts), eval_map(G, pts))
        assert np.allclose(F.base_point, G.base_point)


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        PolynomialMap.from_json({"n": 2, "k": 1})


def test_rescaled_map_transplants_fiber():
    F = hyperbola_map()
    w = np.array([1.0, 2.0])
    G = F.rescaled(w)
    rng = np.random.default_rng(17)
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    assert np.allclose(eval_map(G, z * w), eval_map(F, z), atol=1e-12)
    assert residual_norm(G, F.base_point * w) <= 1e-12


def test_constructor_rejects_off_fiber_base():
    with pytest.raises(ValidationError):
        PolynomialMap(2, 1, [[(1.0, [1, 1]), (-1.0, [0, 0])]], [1.0, 2.0])


def test_constructor_rejects_singular_base():
    # f = z_1^2 vanishes to second order at 0
    with pytest.raises(ValidationError):
        PolynomialMap(2, 1, [[(1.0, [2, 0])]], [0.0, 0.0])


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        PolynomialMap(2, 1, [[(1.0, [1, 0, 0])]], [0.0, 0.0])
    with pytest.raises(ValidationError):
        PolynomialMap(2, 3, [[(1.0, [1, 0])]] * 3, [0.0, 0.0])
