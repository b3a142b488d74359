"""Monte Carlo estimation of Gaussian tube measures and verification of
the mixture decomposition across many localization paths.

The tube estimator is one-sided by construction: a sample counts as a hit
only when the constrained optimizer actually exhibits a feasible point of
the zero set within the radius, so failures can only undercount. That is
the safe direction for checking lower bounds on tube measures. One sample
of distances to the zero set serves the whole radius grid, in the
Euclidean and the circled norm alike (estimate_tube_grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import localize, polymap
from .errors import ValidationError
from .gaussgeom import affine_tube_measure, gaussian_expectation
from .localize import path_rng, run_paths, standard_gaussian, terminal_gaussian
from .polymap import PolynomialMap, minimize_fiber_distance, residual_norm

# Sub-stream tags; path indices stay far below these.
_TAG_SAMPLES = 2**48
_TAG_STARTS = 2**48 + 1

DEFAULT_STARTS = 9     # sample projection plus 8 perturbed starts
# Samples per minimizer batch. Fixed, because the perturbed starts are
# drawn from one stream that runs on across batches, so distances depend on it.
_CHUNK = 20000


def sample_std_complex(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """N draws from the standard Gaussian on C^n (unit-variance real parts)."""
    g = rng.standard_normal((N, 2 * n))
    return g[:, :n] + 1j * g[:, n:]


# ---------------------------------------------------------------------------
# Tube estimation

@dataclass(frozen=True)
class TubeEstimate:
    r: float
    p_hat: float
    stderr: float
    n_samples: int
    n_hits: int
    norm_tag: str
    optimizer_failures: int = 0


def fiber_distances(F: PolynomialMap, points: np.ndarray, seed: int,
                    n_starts: int = DEFAULT_STARTS,
                    perturb_scale: float = 1.0) -> tuple[np.ndarray, int]:
    """Distance from each point to the zero set of F, by multi-start
    constrained minimization (upper bounds on the true distances).

    Start 0 is the Gauss-Newton projection of the point itself; the rest
    are Gaussian perturbations at scale perturb_scale. Returns (dist,
    n_failures) where failures are points for which no start stayed
    feasible (their distance is +inf).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    N, n = pts.shape
    rng = path_rng(seed, _TAG_STARTS)
    dist = np.empty(N)
    failures = 0
    for lo in range(0, N, _CHUNK):
        blk = pts[lo:lo + _CHUNK]
        m = blk.shape[0]
        starts = np.tile(blk, (n_starts, 1))
        if n_starts > 1:
            pert = sample_std_complex(rng, (n_starts - 1) * m, n) * perturb_scale
            starts[m:] += pert
        targets = np.tile(blk, (n_starts, 1))
        _, d, ok = minimize_fiber_distance(F, targets, starts)
        d = np.where(ok, d, np.inf).reshape(n_starts, m)
        dmin = d.min(axis=0)
        failures += int(np.sum(~np.isfinite(dmin)))
        dist[lo:lo + m] = dmin
    return dist, failures


def estimate_tube_grid(F: PolynomialMap, r_grid, N: int, seed: int,
                       norm_weights=None,
                       n_starts: int = DEFAULT_STARTS) -> tuple[TubeEstimate, ...]:
    """Monte Carlo estimates of the Gaussian measure of the r-tube around
    the zero set of F, one per radius of r_grid (in the given order), in
    the Euclidean norm or the circled norm {|diag(w) z| <= 1}.

    One sample of N distances serves every radius, so the estimates are
    monotone in r by construction; the perturbed starts use the scale of
    the largest radius. The circled case transplants everything to the
    weighted coordinates u = diag(w) z, where the norm is Euclidean again.
    """
    if N < 1:
        raise ValidationError("sample count must be >= 1")
    if len(r_grid) == 0:
        raise ValidationError("empty radius grid")
    if min(r_grid) < 0:
        raise ValidationError("radius must be nonnegative")
    rng = path_rng(seed, _TAG_SAMPLES)
    samples = sample_std_complex(rng, N, F.n)
    if norm_weights is not None:
        w = np.asarray(norm_weights, dtype=float)
        Fw = F.rescaled(w)
        pts = samples * w[None, :]
        tag = "circled(" + ",".join(f"{x:g}" for x in w) + ")"
    else:
        Fw, pts, tag = F, samples, "euclidean"
    dist, failures = fiber_distances(Fw, pts, seed, n_starts=n_starts,
                                     perturb_scale=max(max(r_grid), 1e-2))
    estimates = []
    for r in r_grid:
        hits = int(np.sum(dist <= r))
        p_hat, stderr, _, _ = confidence_interval(hits, N)
        estimates.append(TubeEstimate(r=r, p_hat=p_hat, stderr=stderr, n_samples=N,
                                      n_hits=hits, norm_tag=tag,
                                      optimizer_failures=failures))
    return tuple(estimates)


def estimate_tube_measure(F: PolynomialMap, r: float, N: int, seed: int,
                          norm_weights=None, n_starts: int = DEFAULT_STARTS) -> TubeEstimate:
    """The one-radius case of estimate_tube_grid."""
    return estimate_tube_grid(F, [r], N, seed, norm_weights=norm_weights,
                              n_starts=n_starts)[0]


@dataclass(frozen=True)
class WaistRow:
    r: float
    p_hat: float
    stderr: float
    baseline: float
    margin: float
    verdict: str


@dataclass(frozen=True)
class WaistResult:
    rows: tuple
    passed: bool
    distance: float
    optimizer_failures: int


def waist_check(F: PolynomialMap, r_grid, N: int, seed: int,
                distance: float | None = None,
                n_starts: int = DEFAULT_STARTS) -> WaistResult:
    """Compare the estimated tube measure of the zero set against the
    affine-subspace baseline at the same distance from the origin.

    The estimates come from estimate_tube_grid, so they share one distance
    sample and are monotone in r. Passes when the margin p_hat - baseline
    is >= -3 stderr at every radius.
    """
    estimates = estimate_tube_grid(F, sorted(float(r) for r in r_grid), N, seed,
                                   n_starts=n_starts)
    d = distance if distance is not None else polymap.distance_to_origin(F).value
    rows = []
    passed = True
    for est in estimates:
        baseline = affine_tube_measure(F.n, F.k, d, est.r)
        margin = est.p_hat - baseline
        ok = margin >= -3 * est.stderr
        passed = passed and ok
        rows.append(WaistRow(r=est.r, p_hat=est.p_hat, stderr=est.stderr,
                             baseline=baseline, margin=margin,
                             verdict="pass" if ok else "fail"))
    return WaistResult(rows=tuple(rows), passed=passed, distance=d,
                       optimizer_failures=estimates[0].optimizer_failures)


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
    compares the mixture mean against the reference with a z-score. The
    report is marked invalid if more than 1% of paths abort.
    """
    if n_paths < 2:
        raise ValidationError("need at least 2 paths")
    _require_origin_base(F)
    out = run_paths(F, T, h, seed, n_paths)
    live = _live_paths(out)
    mus = [terminal_gaussian(out.state(i, seed=seed), rank_tol=rank_tol, k=F.k)
           for i in live]
    ref_mu = standard_gaussian(F.n)
    rows = []
    for phi in functionals:
        vals = np.array([gaussian_expectation(mu, phi) for mu in mus])
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        ref = gaussian_expectation(ref_mu, phi)
        z = 0.0 if stderr == 0 else (mean - ref) / stderr
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
    out = run_paths(F, T, h, seed, n_paths)
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

def confidence_interval(hits: int, N: int, z: float = 3.0):
    """(p_hat, normal stderr, Wilson low, Wilson high) at the z-sigma level."""
    if N < 1:
        raise ValidationError("sample count must be >= 1")
    if not (0 <= hits <= N):
        raise ValidationError(f"hits must lie in [0, {N}], got {hits}")
    p = hits / N
    stderr = float(np.sqrt(p * (1 - p) / N))
    denom = 1 + z * z / N
    center = (p + z * z / (2 * N)) / denom
    half = z * np.sqrt(p * (1 - p) / N + z * z / (4 * N * N)) / denom
    return p, stderr, max(center - half, 0.0), min(center + half, 1.0)
