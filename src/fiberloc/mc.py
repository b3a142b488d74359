"""Monte Carlo estimation of Gaussian tube measures and verification of
the mixture decomposition across many localization paths.

The tube estimator is one-sided by construction: a sample counts as a hit
only when the constrained optimizer actually exhibits a feasible point of
the zero set within the radius, so failures can only undercount. That is
the safe direction for checking lower bounds on tube measures. One sample
of distances to the zero set serves the whole radius grid, in the
Euclidean and the circled norm alike (estimate_tube_grid). The grid only
asks which interval of it each distance falls in: a sample whose certified
lower bound (polymap.fiber_lower_bound) exceeds every radius is a miss
without minimization, and the minimization of any other sample stops once
its distance reaches the least radius above that bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import localize, polymap
from .errors import ValidationError
from .gaussgeom import affine_tube_measure, gaussian_expectation
from .localize import path_rng, run_paths, standard_gaussian, terminal_gaussian
from .polymap import PolynomialMap, minimize_fiber_distance, residual_norm

# Sub-stream tags; path indices stay far below these. The perturbed starts
# of sample block b use the tag _TAG_STARTS + b.
_TAG_SAMPLES = 2**48
_TAG_STARTS = 2**49

DEFAULT_STARTS = 9     # sample projection plus 8 perturbed starts
WILSON_Z = 3.0         # sigma level of the Wilson interval of p_hat
# Samples per block of perturbed starts, each block drawn from its own
# sub-stream, and samples per minimizer batch (rounded to whole blocks);
# the distances depend on neither.
_START_BLOCK = 256
_CHUNK = 20000
# A record_every beyond any step count: run_paths then records only the
# final step, and the mixture and center-law checks read no records.
_FINAL_RECORD_ONLY = 2**62


def sample_std_complex(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """N draws from the standard Gaussian on C^n (unit-variance real parts)."""
    g = rng.standard_normal((N, 2 * n))
    return g[:, :n] + 1j * g[:, n:]


# ---------------------------------------------------------------------------
# Tube estimation

@dataclass(frozen=True)
class TubeRow:
    """The estimate at one radius; baseline, margin and verdict from waist_check."""

    r: float
    p_hat: float
    stderr: float
    baseline: float | None = None
    margin: float | None = None
    verdict: str = "n/a"


@dataclass(frozen=True)
class TubeResult:
    """The rows of one distance sample with its fiber_distances counts; the
    distance, its bounds and its optimality residual from waist_check."""

    rows: tuple
    optimizer_failures: int
    unconverged: int
    certified_misses: int
    decided_early: int
    distance: float | None = None
    distance_bounds: tuple | None = None
    optimality_residual: float | None = None

    @property
    def passed(self) -> bool:
        return all(row.verdict != "fail" for row in self.rows)


def _start_offsets(seed: int, lo: int, m: int, n_starts: int, n: int) -> np.ndarray:
    """Standard complex offsets of the perturbed starts of points lo to
    lo + m - 1, shape (n_starts - 1, m, n). Each block of _START_BLOCK
    points draws its own from the sub-stream keyed by the block, point
    after point, so a point's starts depend on its block alone."""
    blocks = [sample_std_complex(path_rng(seed, _TAG_STARTS + b // _START_BLOCK),
                                 (n_starts - 1) * min(_START_BLOCK, lo + m - b), n)
              for b in range(lo, lo + m, _START_BLOCK)]
    return np.concatenate(blocks).reshape(m, n_starts - 1, n).transpose(1, 0, 2)


def fiber_distances(F: PolynomialMap, points: np.ndarray, seed: int,
                    n_starts: int = DEFAULT_STARTS, perturb_scale: float = 1.0,
                    r_grid=None) -> tuple[np.ndarray, int, int, int, int]:
    """Distance from each point to the zero set of F, by multi-start
    constrained minimization (upper bounds on the true distances), or,
    given r_grid, a value in the same interval of the grid as that
    distance.

    Start 0 is the Gauss-Newton projection of the point itself; the rest
    are Gaussian perturbations at scale perturb_scale (_start_offsets),
    drawn for every point. Given a grid, each point x gets the certified
    lower bound rho of polymap.fiber_lower_bound. Where rho exceeds every
    radius the point is a certified miss, skips the minimizer and gets
    rho. Any other point stops as soon as one of its starts comes within
    e, the least radius >= rho (minimize_fiber_distance's enough): its
    value then lies in [rho, e], which holds no other radius, so it
    decides every radius as its distance would. The other points, the
    undecided ones, get the same bits as without a grid.

    Returns (dist, n_failures, n_unconverged, n_certified_misses,
    n_decided_early), the first two over the undecided points only.
    Failures are points for which no start stayed feasible; their
    distance is +inf. Unconverged points are those whose closest start
    did not reach polymap.KKT_TOL; they keep that start's distance, since
    a feasible point within r already certifies a hit at radius r.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    N, n = pts.shape
    grid = None if r_grid is None else np.sort(np.asarray(r_grid, dtype=float))
    dist = np.empty(N)
    failures = unconverged = certified = early = 0
    chunk = max(1, _CHUNK // _START_BLOCK) * _START_BLOCK
    for lo in range(0, N, chunk):
        blk = pts[lo:lo + chunk]
        m = blk.shape[0]
        offsets = _start_offsets(seed, lo, m, n_starts, n)
        if grid is None:
            live, enough = np.arange(m), np.full(m, -np.inf)
        else:
            rho = polymap.fiber_lower_bound(F, blk)
            at = np.searchsorted(grid, rho)
            live = np.flatnonzero(at < grid.size)
            enough = grid[at[live]]
            dist[lo:lo + m] = rho
        q = live.size
        certified += m - q
        targets = np.tile(blk[live], (n_starts, 1))
        starts = targets.copy()
        starts[q:] += perturb_scale * offsets[:, live].reshape(-1, n)
        _, d, _, kkt = minimize_fiber_distance(F, targets, starts, enough)
        d, kkt = d.reshape(n_starts, q), kkt.reshape(n_starts, q)
        arg = d.argmin(axis=0)
        dmin, kmin = d[arg, np.arange(q)], kkt[arg, np.arange(q)]
        decided = dmin <= enough
        early += int(decided.sum())
        failures += int(np.sum(~np.isfinite(dmin)))
        unconverged += int(np.sum(~decided & np.isfinite(dmin) & ~(kmin <= polymap.KKT_TOL)))
        dist[lo + live] = dmin
    return dist, failures, unconverged, certified, early


def _tube_sample(F: PolynomialMap, r_grid, N: int, seed: int, norm_weights=None):
    """fiber_distances of N standard Gaussian samples, decided on r_grid. The
    circled norm {|diag(w) z| <= 1} is Euclidean in the coordinates
    u = diag(w) z, so the circled case moves F and the samples there."""
    if N < 1:
        raise ValidationError("sample count must be >= 1")
    if len(r_grid) == 0:
        raise ValidationError("empty radius grid")
    if not np.all(np.isfinite(r_grid)):
        raise ValidationError("radius must be finite")
    if min(r_grid) < 0:
        raise ValidationError("radius must be nonnegative")
    samples = sample_std_complex(path_rng(seed, _TAG_SAMPLES), N, F.n)
    if norm_weights is not None:
        w = np.asarray(norm_weights, dtype=float)
        F, samples = F.rescaled(w), samples * w[None, :]
    dist, *counts = fiber_distances(F, samples, seed, perturb_scale=max(max(r_grid), 1e-2),
                                    r_grid=r_grid)
    return dist, counts


def _tube_row(dist: np.ndarray, r: float, baseline: float | None = None) -> TubeRow:
    """The estimate at radius r from the distance sample dist, and, given a
    baseline, its margin and Wilson verdict (see waist_check)."""
    p_hat, stderr, _, hi = confidence_interval(int(np.sum(dist <= r)), dist.size)
    if baseline is None:
        return TubeRow(r, p_hat, stderr)
    return TubeRow(r, p_hat, stderr, baseline, p_hat - baseline,
                   "pass" if hi >= baseline else "fail")


def estimate_tube_grid(F: PolynomialMap, r_grid, N: int, seed: int,
                       norm_weights=None) -> TubeResult:
    """Monte Carlo estimates of the Gaussian measure of the r-tube around
    the zero set of F, one row per radius of r_grid (in the given order),
    in the Euclidean norm or the circled norm {|diag(w) z| <= 1}. One
    sample of N distances serves every radius, so p_hat is monotone in r.
    """
    dist, counts = _tube_sample(F, r_grid, N, seed, norm_weights)
    return TubeResult(tuple(_tube_row(dist, r) for r in r_grid), *counts)


def estimate_tube_measure(F: PolynomialMap, r: float, N: int, seed: int,
                          norm_weights=None) -> TubeRow:
    """The one-radius case of estimate_tube_grid."""
    return estimate_tube_grid(F, [r], N, seed, norm_weights=norm_weights).rows[0]


def waist_check(F: PolynomialMap, r_grid, N: int, seed: int,
                distance: float | None = None) -> TubeResult:
    """Compare the estimated tube measure of the zero set against the
    affine-subspace baseline at the same distance from the origin.

    The rows share one distance sample, as in estimate_tube_grid, and come
    in increasing r. A radius fails only when the upper end of the
    WILSON_Z-sigma Wilson interval of p_hat is below the baseline, which
    also decides the radii with no hit or no miss, where the normal stderr
    is 0. Without a given distance, distance is the minimizer's upper
    bound d_hat on dist(0, Z) and the baselines are evaluated at the
    certified lower bound d_lo (polymap.fiber_lower_bound at 0): the
    baseline falls as d grows, so only a lower bound cannot make a pass
    easier. distance_bounds is then (d_lo, d_hat) and optimality_residual
    the minimizer's tangential gradient norm at d_hat's point.
    """
    grid = sorted(float(r) for r in r_grid)
    dist, counts = _tube_sample(F, grid, N, seed)
    bounds = residual = None
    d = distance
    if distance is None:
        found = polymap.distance_to_origin(F)
        distance, residual = found.value, found.optimality_residual
        d = polymap.fiber_lower_bound(F, np.zeros(F.n))
        bounds = (d, distance)
    rows = tuple(_tube_row(dist, r, affine_tube_measure(F.n, F.k, d, r)) for r in grid)
    return TubeResult(rows, *counts, distance, bounds, residual)


# ---------------------------------------------------------------------------
# Mixture decomposition and center law

@dataclass(frozen=True)
class MixtureRow:
    functional: str
    mixture_mean: float
    reference: float
    stderr: float
    z_score: float


@dataclass(frozen=True)
class MixtureReport:
    rows: tuple
    n_paths: int
    T: float
    h: float
    n_aborted: int
    valid: bool


def _require_origin_base(F: PolynomialMap) -> None:
    if np.linalg.norm(F.base_point) > 1e-12:
        raise ValidationError("this check requires a map with base point 0")


def _live_paths(out) -> np.ndarray:
    """Indices of the paths that did not abort; a sample standard error
    needs at least two of them."""
    live = np.nonzero(~out.aborted)[0]
    if live.size < 2:
        raise ValidationError(f"need at least 2 live paths, got {live.size}")
    return live


def mixture_check(F: PolynomialMap, T: float, h: float, n_paths: int,
                  functionals, seed: int,
                  rank_tol: float = localize.DEFAULT_RANK_TRUNCATION) -> MixtureReport:
    """Verify that averaging the terminal Gaussians over many paths
    reproduces standard-Gaussian expectations of the test functionals.

    Each path contributes its exact closed-form expectation; the report
    compares the mixture mean against the reference with a z-score, taken
    against a spread of at least the values' rounding, 16 eps relative. The
    report is marked invalid if more than 1% of paths abort.
    """
    if n_paths < 2:
        raise ValidationError("need at least 2 paths")
    _require_origin_base(F)
    out = run_paths(F, T, h, seed, n_paths, record_every=_FINAL_RECORD_ONLY)
    mus = terminal_gaussian(out.state(_live_paths(out)), rank_tol=rank_tol, k=F.k)
    ref_mu = standard_gaussian(F.n)
    rows = []
    for phi in functionals:
        vals = gaussian_expectation(mus, phi)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        ref = gaussian_expectation(ref_mu, phi)
        scale = max(stderr, 16 * np.finfo(float).eps * max(abs(mean), abs(ref)))
        z = 0.0 if mean == ref else (mean - ref) / scale
        rows.append(MixtureRow(functional=getattr(phi, "label", repr(phi)),
                               mixture_mean=mean, reference=ref,
                               stderr=stderr, z_score=z))
    return MixtureReport(rows=tuple(rows), n_paths=n_paths, T=T, h=h,
                         n_aborted=out.n_aborted,
                         valid=out.n_aborted <= 0.01 * n_paths)


@dataclass(frozen=True)
class CenterLawResult:
    """Empirical law of the terminal centers over many paths."""

    samples: np.ndarray            # (P_live, n) terminal centers, all on the fiber
    mean_sq_norm: float
    stderr_sq_norm: float
    coord_mean: np.ndarray         # (n,) complex sample means
    coord_abs_sq: np.ndarray       # (n,) sample E|zeta|^2
    coord_pseudo: np.ndarray       # (n,) sample E zeta^2 (should vanish)
    n_aborted: int


def center_law_sample(F: PolynomialMap, T: float, h: float, n_paths: int,
                      seed: int) -> CenterLawResult:
    """Sample the terminal centers a_T over independent paths.

    Every returned sample satisfies |f(a_T)| <= FIBER_TOL (enforced). Summary
    moments support comparison against the standard complex Gaussian on
    linear fibers; fewer than 2 live paths raise ValidationError.
    """
    _require_origin_base(F)
    out = run_paths(F, T, h, seed, n_paths, record_every=_FINAL_RECORD_ONLY)
    samples = out.a[_live_paths(out)]
    res = np.atleast_1d(residual_norm(F, samples))
    if not np.all(res <= polymap.FIBER_TOL):
        raise ValidationError("a returned center violates the fiber tolerance")
    sq = np.sum(np.abs(samples) ** 2, axis=1)
    return CenterLawResult(
        samples=samples,
        mean_sq_norm=float(sq.mean()),
        stderr_sq_norm=float(sq.std(ddof=1) / np.sqrt(len(sq))),
        coord_mean=samples.mean(axis=0),
        coord_abs_sq=(np.abs(samples) ** 2).mean(axis=0),
        coord_pseudo=(samples ** 2).mean(axis=0),
        n_aborted=out.n_aborted,
    )


# ---------------------------------------------------------------------------
# Confidence intervals

def confidence_interval(hits: int, N: int):
    """(p_hat, normal stderr, Wilson low, Wilson high) at the WILSON_Z-sigma level."""
    if N < 1:
        raise ValidationError("sample count must be >= 1")
    if not (0 <= hits <= N):
        raise ValidationError(f"hits must lie in [0, {N}], got {hits}")
    p = hits / N
    stderr = float(np.sqrt(p * (1 - p) / N))
    denom = 1 + WILSON_Z**2 / N
    center = (p + WILSON_Z**2 / (2 * N)) / denom
    half = WILSON_Z * np.sqrt(p * (1 - p) / N + WILSON_Z**2 / (4 * N * N)) / denom
    return p, stderr, max(center - half, 0.0), min(center + half, 1.0)
