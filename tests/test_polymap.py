import numpy as np
import pytest

from fiberloc import (
    PolynomialMap,
    ProjectionError,
    SingularityError,
    ValidationError,
    affine_map,
    distance_to_origin,
    eval_jacobian,
    eval_map,
    gradient_subspace,
    hyperbola_map,
    paraboloid_map,
    project_to_fiber,
)
from fiberloc.polymap import minimize_fiber_distance, project_batch, residual_norm


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


def test_residual_norm_shapes():
    F = hyperbola_map()
    assert isinstance(residual_norm(F, [1.0, 1.0]), float)
    r = residual_norm(F, np.array([[1.0, 1.0], [2.0, 1.0]], dtype=complex))
    assert r.shape == (2,)
    assert r[0] == pytest.approx(0.0, abs=1e-14)
    assert r[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Gradient subspace

def test_gradient_subspace_coordinate_fiber():
    F = affine_map(2)
    Q = gradient_subspace(F, np.zeros(2))
    P = Q @ Q.conj().T
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)


def test_gradient_subspace_hyperbola_diagonal():
    F = hyperbola_map()
    Q = gradient_subspace(F, [1.0, 1.0])
    P = Q @ Q.conj().T
    assert np.allclose(P, np.full((2, 2), 0.5), atol=1e-12)


def test_gradient_subspace_spans_conjugate_jacobian():
    F = random_cubic_map()
    z = F.base_point
    Q = gradient_subspace(F, z)
    assert Q.shape == (3, 2)
    assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)
    Jh = eval_jacobian(F, z).conj().T
    leftover = Jh - Q @ (Q.conj().T @ Jh)
    assert np.linalg.norm(leftover) <= 1e-10 * np.linalg.norm(Jh)


def test_gradient_subspace_raises_at_singular_point():
    # f = z_1 z_2 has a rank-0 Jacobian at the origin
    F = PolynomialMap(2, 1, [[(1.0, [1, 1])]], [0.0, 1.0])
    with pytest.raises(SingularityError):
        gradient_subspace(F, np.zeros(2))


# ---------------------------------------------------------------------------
# Projection

def test_projection_fixes_fiber_points():
    F = hyperbola_map()
    fp = project_to_fiber(F, np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(fp.point, [1.0, 1.0], atol=1e-14)
    assert fp.residual <= 1e-10


def test_projection_converges_near_fiber():
    F = paraboloid_map(2)
    fp = project_to_fiber(F, np.array([1.0 + 0.5j, 0.9 + 1.1j]))
    assert fp.residual <= 1e-10
    assert residual_norm(F, fp.point) <= 1e-10


def test_projection_raises_on_singularity():
    # f = z_1^2 - 1: the Jacobian vanishes on the whole plane z_1 = 0
    F = PolynomialMap(2, 1, [[(1.0, [2, 0]), (-1.0, [0, 0])]], [1.0, 0.0])
    with pytest.raises(SingularityError):
        project_to_fiber(F, np.zeros(2))


def test_projection_refuses_a_non_finite_residual(monkeypatch):
    # f = z_2 - z_1^300 + z_1^299 overflows to inf - inf = NaN at (12, 0);
    # a NaN residual is not on the zero set, so no start there is feasible,
    # and since nothing can converge from it no Jacobian is evaluated
    from fiberloc import polymap
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
        _, dist, ok = minimize_fiber_distance(F, z, z)
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
    z = np.array([1.0 + 1e-4, 1.0])
    fp = project_to_fiber(F, z)
    assert np.linalg.norm(fp.point - z) <= 1e-3


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
