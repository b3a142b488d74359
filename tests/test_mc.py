import numpy as np
import pytest

from fiberloc import (
    HalfSpace,
    One,
    SqNorm,
    ValidationError,
    affine_map,
    center_law_sample,
    confidence_interval,
    disc_measure,
    estimate_tube_grid,
    estimate_tube_measure,
    hyperbola_map,
    mixture_check,
    paraboloid_map,
    waist_check,
)
from fiberloc import affine_tube_measure, mc, polymap
from fiberloc.mc import fiber_distances
from fiberloc.polymap import PolynomialMap, fiber_lower_bound
from test_localize import codim2_map
from test_polymap import quintic_map, random_cubic_map


# ---------------------------------------------------------------------------
# Confidence intervals

def test_confidence_interval_trivial():
    p, se, lo, hi = confidence_interval(50, 100)
    assert p == pytest.approx(0.5)
    assert se == pytest.approx(0.05)
    assert lo < 0.5 < hi
    p, se, lo, hi = confidence_interval(0, 100)
    assert p == 0.0 and se == 0.0 and lo == 0.0 and hi > 0.0


def test_confidence_interval_wilson_contains_p_hat():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(1, 10000))
        hits = int(rng.integers(0, N + 1))
        p, _, lo, hi = confidence_interval(hits, N)
        assert 0.0 <= lo <= p <= hi <= 1.0


def test_confidence_interval_rejects_bad_counts():
    with pytest.raises(ValidationError):
        confidence_interval(5, 0)
    with pytest.raises(ValidationError):
        confidence_interval(11, 10)


# ---------------------------------------------------------------------------
# Tube estimation

def test_tube_estimate_zero_radius():
    est = estimate_tube_measure(hyperbola_map(), r=0.0, N=500, seed=0)
    assert est.p_hat == 0.0


def test_tube_estimate_affine_matches_closed_form():
    # the r-tube of {z_1 = 0.5} has measure disc_measure(1, 0.5, r)
    F = affine_map(2, offset=0.5)
    out = estimate_tube_grid(F, [1.0], N=20000, seed=3)
    est, = out.rows
    ref = disc_measure(1, 0.5, 1.0)
    assert out.optimizer_failures == 0
    assert abs(est.p_hat - ref) <= 3 * max(est.stderr, 1e-3)


def test_tube_estimate_deterministic():
    F = hyperbola_map()
    a = estimate_tube_measure(F, r=0.8, N=2000, seed=9)
    b = estimate_tube_measure(F, r=0.8, N=2000, seed=9)
    assert a == b


def test_tube_hits_monotone_in_starts():
    # more optimizer starts can only find shorter distances, so more hits
    F = hyperbola_map()
    pts = mc.sample_std_complex(mc.path_rng(4, mc._TAG_SAMPLES), 2000, 2)
    lean = fiber_distances(F, pts, seed=4, n_starts=1)[0]
    rich = fiber_distances(F, pts, seed=4, n_starts=9)[0]
    assert np.sum(rich <= 1.0) >= np.sum(lean <= 1.0)


def test_fiber_distances_affine_exact():
    F = affine_map(2, offset=1.0)
    pts = np.array([[0.0, 5.0], [1.0 + 1.0j, -2.0], [3.0, 0.0]], dtype=complex)
    d, failures, unconverged, _, _ = fiber_distances(F, pts, seed=0)
    assert failures == 0 and unconverged == 0
    assert np.allclose(d, [1.0, 1.0, 2.0], atol=1e-8)


def test_fiber_distances_do_not_depend_on_the_chunk(monkeypatch):
    # the perturbed starts are keyed by block of samples, not drawn from one
    # stream that runs on across minimizer batches
    F = hyperbola_map()
    pts = mc.sample_std_complex(np.random.default_rng(19), 1000, 2)
    default = fiber_distances(F, pts, seed=4, perturb_scale=2.0)
    grid = fiber_distances(F, pts, seed=4, perturb_scale=2.0, r_grid=[0.5, 1.0])
    monkeypatch.setattr(mc, "_CHUNK", 300)
    chunked = fiber_distances(F, pts, seed=4, perturb_scale=2.0)
    assert np.array_equal(default[0], chunked[0])
    assert default[1:] == chunked[1:]
    # and so do the samples left undecided by a grid
    chunked = fiber_distances(F, pts, seed=4, perturb_scale=2.0, r_grid=[0.5, 1.0])
    assert np.array_equal(grid[0], chunked[0])
    assert grid[1:] == chunked[1:] and grid[3] > 0 and grid[4] > 0


# Maps of every shape the tube tests meet: a curve, a quadric, random and
# degree-5 maps with k = 2, a curve of codimension two and a hyperplane
BOUND_MAPS = {"hyperbola": hyperbola_map, "paraboloid3": lambda: paraboloid_map(3),
              "cubic": random_cubic_map, "quintic": quintic_map, "codim2": codim2_map,
              "affine": lambda: affine_map(3, 0.7)}


@pytest.fixture(scope="module", params=list(BOUND_MAPS))
def bound_cases(request):
    """A map with 3000 standard Gaussian points, and the same map in the
    circled norm with weights (1, 2, ...) on 1000 of them (the rescaled map
    and points, as estimate_tube_grid makes them), each with its distances
    without a grid."""
    F = BOUND_MAPS[request.param]()
    pts = mc.sample_std_complex(np.random.default_rng(61), 3000, F.n)
    w = 1.0 + np.arange(F.n)
    cases = [(F, pts), (F.rescaled(w), pts[:1000] * w)]
    return [(G, x, fiber_distances(G, x, seed=62)[0]) for G, x in cases]


def test_fiber_lower_bound_is_below_every_distance(bound_cases):
    for F, pts, dist in bound_cases:
        rho = fiber_lower_bound(F, pts)
        assert np.all(rho <= dist)
        assert np.all(rho >= 0) and np.median(rho / dist) > 0.3


@pytest.mark.parametrize("grid", [[0.0, 0.4, 1.0, 2.0], [0.7]], ids=["with-0", "single"])
def test_a_grid_keeps_every_hit_count(bound_cases, grid):
    # a certified miss keeps rho, an early stop a distance in [rho, e], and
    # an undecided sample the bits it has without a grid: every radius
    # counts the same hits
    for F, pts, dist in bound_cases:
        got, failures, unconverged, certified, early = fiber_distances(
            F, pts, seed=62, r_grid=grid)
        assert [np.sum(got <= r) for r in grid] == [np.sum(dist <= r) for r in grid]
        rho = fiber_lower_bound(F, pts)
        at = np.searchsorted(grid, rho)
        miss = at == len(grid)
        assert certified == miss.sum() and np.array_equal(got[miss], rho[miss])
        e = np.array(grid)[np.minimum(at, len(grid) - 1)]
        stopped = ~miss & (got <= e)
        assert early == stopped.sum()
        assert np.all(rho[stopped] <= got[stopped])
        assert np.all(got[stopped] >= dist[stopped] - polymap.FIBER_TOL)
        undecided = ~miss & ~stopped
        assert np.array_equal(got[undecided], dist[undecided])
        assert failures == np.sum(~np.isfinite(dist[undecided]))


def test_tube_estimate_circled_norm_affine_oracle():
    # distance to {z_1 = c} in the norm with weights (2, 1) is 2 |z_1 - c|,
    # so the tube hit probability is disc_measure(1, |c|, r / 2)
    F = affine_map(2, offset=0.5)
    est = estimate_tube_measure(F, r=1.0, N=20000, seed=5, norm_weights=[2.0, 1.0])
    ref = disc_measure(1, 0.5, 0.5)
    assert abs(est.p_hat - ref) <= 3 * max(est.stderr, 1e-3)


def test_tube_grid_shares_one_distance_sample():
    # one distance sample serves the grid: p_hat is monotone in r, and the
    # largest radius (whose perturbation scale the grid uses) matches the
    # one-radius estimate exactly
    F = hyperbola_map()
    grid = estimate_tube_grid(F, [0.5, 1.0], N=1500, seed=14, norm_weights=[1.0, 2.0]).rows
    assert [e.r for e in grid] == [0.5, 1.0]
    assert grid[0].p_hat <= grid[1].p_hat
    assert grid[1] == estimate_tube_measure(F, r=1.0, N=1500, seed=14,
                                            norm_weights=[1.0, 2.0])


def test_tube_estimate_rejects_bad_args():
    F = hyperbola_map()
    with pytest.raises(ValidationError):
        estimate_tube_measure(F, r=-1.0, N=100, seed=0)
    with pytest.raises(ValidationError):
        estimate_tube_measure(F, r=1.0, N=0, seed=0)
    for weights in (None, [1.0, 2.0]):
        with pytest.raises(ValidationError):
            estimate_tube_grid(F, [], N=100, seed=0, norm_weights=weights)
        with pytest.raises(ValidationError):
            estimate_tube_grid(F, [0.5, -1.0], N=100, seed=0, norm_weights=weights)
        # a NaN radius counted no hit, and an infinite one made the
        # perturbation scale infinite
        for r in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                estimate_tube_grid(F, [0.5, r], N=100, seed=0, norm_weights=weights)
    with pytest.raises(ValidationError):
        waist_check(F, [np.nan], N=100, seed=0, distance=1.0)


# ---------------------------------------------------------------------------
# Waist comparison

def test_waist_affine_margins_bracket_zero():
    # for an affine fiber the baseline is exact, so every margin must sit
    # inside the 3-sigma band
    F = affine_map(2, offset=0.5)
    out = waist_check(F, r_grid=[0.5, 1.0, 1.5], N=20000, seed=6, distance=0.5)
    assert out.passed
    for row in out.rows:
        assert abs(row.margin) <= 3 * max(row.stderr, 1e-3)
        assert row.verdict == "pass"


def test_waist_hyperbola_beats_baseline():
    out = waist_check(hyperbola_map(), r_grid=[0.8, 1.0, 1.3], N=8000, seed=7)
    assert out.passed
    assert out.distance == pytest.approx(np.sqrt(2.0), abs=1e-5)
    # the curved fiber accumulates strictly more mass at moderate radii
    assert out.rows[1].margin > 0


def test_waist_codimension_two():
    # f = (z_3 - z_1^2, z_1 z_2 - 1) in C^3; the first tube test with k = 2,
    # and the first use of the second-derivative plan with more than one
    # component
    F = PolynomialMap(3, 2, [[(1.0, [0, 0, 1]), (-1.0, [2, 0, 0])],
                             [(1.0, [1, 1, 0]), (-1.0, [0, 0, 0])]], [1.0, 1.0, 1.0])
    out = waist_check(F, r_grid=[0.5, 1.0, 2.0], N=2000, seed=5)
    assert out.passed
    assert out.optimizer_failures == 0 and out.unconverged == 0
    assert out.distance == pytest.approx(1.6158, abs=1e-3)


def test_waist_point_zero_set():
    # k = n: the zero set of f(z) = z - 0.5 in C^1 is one point, so the
    # tangent space is {0} and every feasible start is already stationary;
    # the baseline is exact
    out = waist_check(affine_map(1, offset=0.5), r_grid=[0.5, 1.0, 1.5], N=5000, seed=6)
    assert out.passed
    assert out.optimizer_failures == 0 and out.unconverged == 0
    assert out.distance == pytest.approx(0.5, abs=1e-12)
    for row in out.rows:
        assert abs(row.margin) <= 3 * max(row.stderr, 1e-3)


@pytest.mark.parametrize("F, r, distance", [(affine_map(2, offset=0.5), 0.01, 0.5),
                                             (hyperbola_map(), 0.02, None)],
                         ids=["affine", "hyperbola"])
def test_waist_passes_a_radius_with_no_hit(F, r, distance):
    # p_hat = 0 has a normal stderr of 0, so a positive baseline failed the
    # row (the affine case is the theorem's equality case); the Wilson
    # upper bound at N = 2000 is 0.0045
    out = waist_check(F, [r], N=2000, seed=3, distance=distance)
    row, = out.rows
    assert row.p_hat == 0.0 and row.stderr == 0.0 and 0 < row.baseline < 1e-3
    assert row.verdict == "pass" and out.passed


def test_waist_fails_below_the_baseline_on_the_sample_of_the_grid():
    # the zero set {z_1 = 1.5} compared against a baseline at distance 0:
    # the baseline is too high, so both rows fail, and the result with them
    F = affine_map(2, offset=1.5)
    out = waist_check(F, [1.0, 2.0], N=2000, seed=3, distance=0.0)
    assert [row.verdict for row in out.rows] == ["fail", "fail"] and not out.passed
    assert out.rows[0].p_hat == 0.1565
    assert out.rows[0].baseline == pytest.approx(1 - np.exp(-0.5), rel=1e-12)
    # waist_check estimates on the sample of estimate_tube_grid
    est = estimate_tube_grid(F, [1.0, 2.0], N=2000, seed=3)
    assert [(w.r, w.p_hat, w.stderr) for w in out.rows] \
        == [(e.r, e.p_hat, e.stderr) for e in est.rows]
    counts = ("optimizer_failures", "unconverged", "certified_misses", "decided_early")
    assert [getattr(out, c) for c in counts] == [getattr(est, c) for c in counts]


def test_waist_baselines_use_the_certified_distance():
    # without a given distance the baselines are evaluated at the certified
    # lower bound 1.414 on dist(0, Z), below the minimizer's 1.6158
    F = PolynomialMap(3, 2, [[(1.0, [0, 0, 1]), (-1.0, [2, 0, 0])],
                             [(1.0, [1, 1, 0]), (-1.0, [0, 0, 0])]], [1.0, 1.0, 1.0])
    out = waist_check(F, r_grid=[0.5, 1.0], N=300, seed=5)
    d_lo, d_hat = out.distance_bounds
    assert d_lo == pytest.approx(np.sqrt(2.0), rel=1e-8) and d_hat == out.distance
    assert out.optimality_residual <= 1e-6
    for row in out.rows:
        assert row.baseline == affine_tube_measure(3, 2, d_lo, row.r)
    given = waist_check(F, r_grid=[0.5, 1.0], N=300, seed=5, distance=1.6158)
    assert given.distance_bounds is None and given.optimality_residual is None
    assert given.rows[0].baseline == affine_tube_measure(3, 2, 1.6158, 0.5)


def test_waist_rows_monotone_in_radius():
    out = waist_check(paraboloid_map(2), r_grid=[0.3, 0.6, 0.9, 1.2],
                      N=4000, seed=8, distance=0.0)
    p = [row.p_hat for row in out.rows]
    assert all(b >= a for a, b in zip(p, p[1:]))


def test_waist_rejects_empty_grid():
    with pytest.raises(ValidationError):
        waist_check(hyperbola_map(), r_grid=[], N=100, seed=0)


# ---------------------------------------------------------------------------
# Mixture decomposition

def test_mixture_constant_functional_is_exact():
    rep = mixture_check(affine_map(2), T=1.0, h=4e-3, n_paths=20,
                        functionals=[One()], seed=10)
    assert rep.valid
    row = rep.rows[0]
    assert row.mixture_mean == pytest.approx(1.0, abs=1e-12)
    assert row.reference == 1.0


@pytest.mark.parametrize("offset, expect_far", [(1e-9, True), (4 * np.finfo(float).eps, False)],
                         ids=["real-offset", "rounding-offset"])
def test_mixture_z_score_of_a_functional_with_no_spread(monkeypatch, offset, expect_far):
    # every path gives the same value, so stderr is exactly 0: the offset of
    # the mean is measured against the values' rounding, 16 eps relative
    def expectation(mu, phi):
        return 1.0 if mu.center.ndim == 1 else np.full(len(mu.center), 1 + offset)

    monkeypatch.setattr(mc, "gaussian_expectation", expectation)
    row, = mixture_check(affine_map(2), T=0.1, h=1e-2, n_paths=4, functionals=[One()],
                         seed=0).rows
    assert row.stderr == 0.0 and row.mixture_mean != row.reference
    assert bool(abs(row.z_score) > 3) == expect_far


def test_mixture_half_space_affine():
    # the fiber {z_1 = 0} is symmetric in z_2, so the mixture mass of
    # {Re z_2 > 0} stays 1/2
    rep = mixture_check(affine_map(2), T=4.0, h=2e-3, n_paths=200,
                        functionals=[HalfSpace([0.0, 1.0]), SqNorm()], seed=11)
    assert rep.valid
    hs, sq = rep.rows
    assert abs(hs.z_score) <= 3
    assert abs(sq.z_score) <= 3
    assert sq.reference == pytest.approx(4.0)


def test_mixture_z_scores_across_seeds():
    # repeated moderate-size runs: at most one outlier beyond 3 sigma
    bad = 0
    for seed in range(8):
        rep = mixture_check(paraboloid_map(2), T=2.0, h=4e-3, n_paths=100,
                            functionals=[SqNorm(), HalfSpace([1.0, 0.0])],
                            seed=100 + seed)
        assert rep.valid
        bad += sum(abs(r.z_score) > 3 for r in rep.rows)
    assert bad <= 1


def test_mixture_requires_origin_base():
    with pytest.raises(ValidationError):
        mixture_check(hyperbola_map(), T=1.0, h=1e-2, n_paths=4,
                      functionals=[One()], seed=0)


def test_mixture_rejects_tiny_batch():
    with pytest.raises(ValidationError):
        mixture_check(affine_map(2), T=1.0, h=1e-2, n_paths=1,
                      functionals=[One()], seed=0)


# ---------------------------------------------------------------------------
# Center law

def test_center_law_affine():
    out = center_law_sample(affine_map(2), T=6.0, h=2e-3, n_paths=200, seed=12)
    assert out.n_aborted == 0
    # first coordinate pinned to the fiber exactly
    assert np.all(out.samples[:, 0] == 0.0)
    # E |a_2(T)|^2 = 2 (1 - e^{-T/2}) -> 2 at T = 6
    ref = 2 * (1 - np.exp(-3.0))
    se = out.stderr_sq_norm
    assert abs(out.mean_sq_norm - ref) <= 4 * max(se, 0.05)
    # circular symmetry: means and pseudo-moments vanish
    assert np.abs(out.coord_mean[1]) <= 0.5
    assert np.abs(out.coord_pseudo[1]) <= 0.6


def test_center_law_paraboloid_on_fiber():
    from fiberloc.polymap import residual_norm
    F = paraboloid_map(2)
    out = center_law_sample(F, T=2.0, h=2e-3, n_paths=50, seed=13)
    res = residual_norm(F, out.samples)
    assert np.all(res <= 1e-10)
    # second moment stays below the global bound E|a|^2 <= 2n
    assert out.mean_sq_norm <= 4.0 + 4 * out.stderr_sq_norm
