"""Stochastic localization confined to the zero set of a polynomial map.

The state of one path is a quadratic potential (center a, Hermitian PD
matrix B) evolving by an Euler-Maruyama discretization of

    da = Sigma dW,   dB = (1/n) B^{1/2} pi B^{1/2} dt,

where pi is the orthogonal projection annihilating the conjugated-gradient
subspace of the map (rotated by B^{-1/2}) and Sigma = B^{-1/2} pi / sqrt(n).
The exact process keeps the center on the zero set; the discretization
leaks off at O(h) and is re-projected by Gauss-Newton after every step.

One kernel (_advance) performs the projected Euler-Maruyama step for a
stack of paths. The batched engine run_paths drives it for every live
path in lockstep; step is a one-path wrapper over the same kernel, and
run_path a one-path wrapper over run_paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PathAbort, SingularityError, StateError, ValidationError
from .linalg import hermitianize, stacked_sqrt_pair
from .polymap import (FIBER_TOL, RANK_TOL, PolynomialMap, eval_jacobian,
                      project_batch, residual_norm)

DEFAULT_RANK_TRUNCATION = 1e-2
# B starts at Id and grows by PSD increments, so lambda_min(B) >= 1; the
# floor allows for rounding.
LAMBDA_MIN_FLOOR = 1 - 1e-8
_RNG_BLOCK = 512


# ---------------------------------------------------------------------------
# Quadratic potentials

@dataclass(frozen=True)
class QuadraticPotential:
    """p(z) = (z - a)^* B (z - a) / 2 - log det B with B Hermitian PD.

    This parameterization makes integral of exp(-p) over C^n equal (2 pi)^n
    identically, so exp(-p) / (2 pi)^n is always a probability density.
    """

    center: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=complex))
        B = hermitianize(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", B)
        w = np.linalg.eigvalsh(B)
        if w[0] < 1e-12:
            raise ValidationError(f"potential matrix not PD (lambda_min={w[0]:.3e})")


def standard_potential(n: int) -> QuadraticPotential:
    """The potential |z|^2 / 2: center 0, matrix Id."""
    if n < 1:
        raise ValidationError(f"dimension must be positive, got {n}")
    return QuadraticPotential(np.zeros(n, dtype=complex), np.eye(n, dtype=complex))


def potential_eval(p: QuadraticPotential, z: np.ndarray) -> float:
    """Evaluate the potential at a point."""
    z = np.asarray(z, dtype=complex)
    if z.shape != p.center.shape:
        raise ValidationError(f"point shape {z.shape} != center shape {p.center.shape}")
    d = z - p.center
    quad = float(np.real(d.conj() @ (p.matrix @ d)))
    sign, logdet = np.linalg.slogdet(p.matrix)
    return quad / 2 - float(logdet)


# ---------------------------------------------------------------------------
# Path state and terminal Gaussians

@dataclass(frozen=True)
class LocalizationState:
    """One path of the localization process at time t.

    sigma_accum houses the running integral of Sigma Sigma^*, used for the
    accumulation identity sigma_accum = Id - B^{-1} (exact in the limit).
    stream identifies the deterministic random stream of the path.
    """

    t: float
    a: np.ndarray
    B: np.ndarray
    sigma_accum: np.ndarray
    fiber_residual_max: float = 0.0
    stream: tuple = ("seed", 0)

    def validate(self, n: int | None = None) -> None:
        n = n if n is not None else self.a.shape[0]
        w = np.linalg.eigvalsh(self.B)
        if w[0] < LAMBDA_MIN_FLOOR:
            raise StateError(f"lambda_min(B) = {w[0]} < {LAMBDA_MIN_FLOOR}")
        if np.trace(self.B).real > n * np.exp(self.t) * (1 + 1e-6):
            raise StateError("trace bound Tr B <= n e^t violated")
        g = np.linalg.eigvalsh(hermitianize(self.sigma_accum))
        if g[-1] > 1 + 1e-6:
            raise StateError("sigma_accum exceeds Id")


@dataclass(frozen=True)
class ComplexGaussian:
    """Gaussian on C^n supported on an affine subspace: center + complex covariance."""

    center: np.ndarray
    covariance: np.ndarray
    support_dim: int

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=complex))
        object.__setattr__(
            self, "covariance", hermitianize(np.asarray(self.covariance, dtype=complex))
        )


def standard_gaussian(n: int) -> ComplexGaussian:
    """The standard Gaussian on C^n (unit-variance real coordinates)."""
    return ComplexGaussian(np.zeros(n, dtype=complex), 2 * np.eye(n), n)


def terminal_gaussian(state: LocalizationState, rank_tol: float = DEFAULT_RANK_TRUNCATION,
                      k: int | None = None) -> ComplexGaussian:
    """The Gaussian with center a_t and covariance 2 B_t^{-1}, rank-truncated.

    Covariance eigenvalues below rank_tol are zeroed; support_dim counts the
    survivors. When the codimension k of the fiber is supplied, the decay
    bound lambda_{n-k}(2 B_t^{-1}) <= 2 n (k+1) / t is asserted.
    """
    w, V = np.linalg.eigh(hermitianize(state.B))
    avals = 2.0 / w[::-1]            # ascending eigenvalues of 2 B^{-1}
    n = w.shape[0]
    if k is not None and 0 < k < n and state.t > 0:
        bound = 2 * n * (k + 1) / state.t
        if avals[n - k - 1] > bound * (1 + 1e-9):
            raise StateError(
                f"covariance decay bound violated: {avals[n - k - 1]:.3e} > {bound:.3e}"
            )
    keep = 2.0 / w >= rank_tol
    cov = (V * np.where(keep, 2.0 / w, 0.0)) @ V.conj().T
    return ComplexGaussian(state.a.copy(), cov, int(np.sum(keep)))


# ---------------------------------------------------------------------------
# Random streams

def path_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for path #index under a master seed.

    Philox keyed by (seed, index); the increments of a path depend only on
    its own stream, so paths can be advanced in any grouping.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def brownian_increment(rng: np.random.Generator, h: float, n: int) -> np.ndarray:
    """One increment of the complex Brownian motion over a step of length h.

    Each coordinate is g1 + i g2 with independent N(0, h) parts, so
    E|dW^j|^2 = 2h.
    """
    if h < 0:
        raise ValidationError(f"step length must be nonnegative, got {h}")
    g = rng.standard_normal(2 * n)
    return np.sqrt(h) * (g[:n] + 1j * g[n:])


def _increment_block(rng: np.random.Generator, h: float, n: int, m: int) -> np.ndarray:
    """m consecutive increments, consumed in the same order as brownian_increment."""
    g = rng.standard_normal((m, 2 * n))
    return np.sqrt(h) * (g[:, :n] + 1j * g[:, n:])


# ---------------------------------------------------------------------------
# The diffusion coefficient

def _sigma_pieces(F: PolynomialMap, a: np.ndarray, B: np.ndarray):
    """Batched diffusion data at centers a (P, n) with matrices B (P, n, n).

    Returns (Sigma, pi, Bh, Bih, singular) where pi is the projection whose
    kernel is the B^{-1/2}-rotated gradient subspace, Bh/Bih the square
    root pair of B, and singular flags paths whose Jacobian has sigma_min
    below RANK_TOL.
    """
    n = F.n
    Bh, Bih = stacked_sqrt_pair(B)
    J = eval_jacobian(F, a)
    Jh = np.conj(np.swapaxes(J, -1, -2))
    G = J @ Jh
    gmin = np.linalg.eigvalsh(G)[:, 0]
    singular = gmin < RANK_TOL**2
    Q, _ = np.linalg.qr(Jh)
    Ht, _ = np.linalg.qr(Bih @ Q)
    Hth = np.conj(np.swapaxes(Ht, -1, -2))
    pi = np.eye(n) - Ht @ Hth
    pi = hermitianize(pi)
    Sigma = (Bih @ pi) / np.sqrt(n)
    return Sigma, pi, Bh, Bih, singular


def sigma_of_state(state: LocalizationState, F: PolynomialMap) -> np.ndarray:
    """Diffusion matrix Sigma = B^{-1/2} pi / sqrt(n) at the current state.

    Requires the center to sit on the zero set (residual <= FIBER_TOL):
    B^{1/2} Sigma is then the projection pi / sqrt(n), so
    |B^{1/2} Sigma|_HS = sqrt((n-k)/n) <= 1.
    """
    res = residual_norm(F, state.a)
    if not res <= FIBER_TOL:
        raise StateError(f"center is off the fiber: residual {res:.3e} > {FIBER_TOL:.1e}")
    Sigma, _, _, _, singular = _sigma_pieces(F, state.a[None, :], state.B[None])
    if singular[0]:
        raise SingularityError("Jacobian rank-deficient at the path center")
    return Sigma[0]


# ---------------------------------------------------------------------------
# The Euler-Maruyama step

def _rows(mask: np.ndarray):
    """Index of the rows where mask holds: a slice, which indexes without
    a copy, when it holds everywhere (the usual case)."""
    return slice(None) if mask.all() else np.nonzero(mask)[0]


def _advance(F: PolynomialMap, a: np.ndarray, B: np.ndarray, accum: np.ndarray,
             dW: np.ndarray, h: float):
    """One projected Euler-Maruyama step for a stack of paths.

    Returns (a, B, accum, pre, ok, singular). ok flags the rows that
    advanced; the first four results hold their new centers, matrices and
    accumulators, and their residuals before projection. The B-update uses
    the PSD increment (h/n) B^{1/2} pi B^{1/2}, which matches the exact
    dynamics and keeps B monotone in floating point. A row that did not
    advance is flagged singular when its Jacobian lost rank, at the center
    or during projection; otherwise its projection failed to converge.
    """
    n = F.n
    Sigma, pi, Bh, Bih, singular = _sigma_pieces(F, a, B)
    live = _rows(~singular)
    a_pre = a[live] + (Sigma[live] @ dW[live][..., None])[..., 0]
    pre = np.atleast_1d(residual_norm(F, a_pre))
    pts, _, conv, sing = project_batch(F, a_pre)
    ok = ~singular
    ok[live] = conv
    singular[live] = sing
    done, kept = _rows(ok), _rows(conv)
    pi, Bh, Bih = pi[done], Bh[done], Bih[done]
    B_new = hermitianize(B[done] + (h / n) * (Bh @ pi @ Bh))
    accum_new = hermitianize(accum[done] + (h / n) * (Bih @ pi @ Bih))
    return pts[kept], B_new, accum_new, pre[kept], ok, singular


def step(state: LocalizationState, F: PolynomialMap, h: float,
         dW: np.ndarray) -> LocalizationState:
    """Advance one path by one step of length h with increment dW.

    Raises PathAbort, with the reason run_paths would record, when the
    path cannot advance.
    """
    if h <= 0:
        raise ValidationError(f"step length must be positive, got {h}")
    res = residual_norm(F, state.a)
    if not res <= FIBER_TOL:
        raise StateError(f"center is off the fiber: residual {res:.3e}")
    a, B, accum, pre, ok, singular = _advance(
        F, state.a[None, :], state.B[None], state.sigma_accum[None],
        np.asarray(dW, dtype=complex)[None, :], h)
    if not ok[0]:
        reason = "singularity" if singular[0] else "projection failure"
        raise PathAbort(reason, {"t": state.t, "reason": reason})
    return LocalizationState(
        t=state.t + h,
        a=a[0],
        B=B[0],
        sigma_accum=accum[0],
        fiber_residual_max=max(state.fiber_residual_max, float(pre[0])),
        stream=state.stream,
    )


# ---------------------------------------------------------------------------
# Batched path driver

@dataclass
class BatchResult:
    """Terminal data and recorded diagnostics for a batch of paths."""

    t: float
    a: np.ndarray                 # (P, n) terminal centers
    B: np.ndarray                 # (P, n, n)
    sigma_accum: np.ndarray       # (P, n, n)
    fiber_residual_max: np.ndarray  # (P,) max pre-projection residual
    aborted: np.ndarray           # (P,) bool
    abort_reasons: list
    record_t: np.ndarray          # (R,)
    record_pre_residual: np.ndarray   # (R, P)
    record_post_residual: np.ndarray  # (R, P)
    record_lambda_min: np.ndarray     # (R, P)
    record_lambda_k1: np.ndarray      # (R, P) lambda_{k+1}(B), ascending index
    record_trace: np.ndarray          # (R, P)
    record_accum_gap: np.ndarray      # (R, P) Frobenius gap to Id - B^{-1}

    @property
    def n_aborted(self) -> int:
        return int(np.sum(self.aborted))

    def state(self, i: int, seed=None) -> LocalizationState:
        return LocalizationState(
            t=self.t, a=self.a[i], B=self.B[i], sigma_accum=self.sigma_accum[i],
            fiber_residual_max=float(self.fiber_residual_max[i]),
            stream=(seed, i),
        )


def run_paths(F: PolynomialMap, T: float, h: float, seed: int, n_paths: int,
              record_every: int | None = None) -> BatchResult:
    """Simulate n_paths independent paths from the base point up to time T.

    Deterministic given (seed, h, T, n_paths): path i consumes only the
    stream keyed by (seed, i). Paths that hit a singularity or a projection
    failure are frozen and flagged; the others continue.
    """
    if not (T > 0 and h > 0 and np.isfinite(T / h)):
        raise ValidationError("T and h must be positive, with a finite ratio T / h")
    n, k = F.n, F.k
    n_steps = max(1, int(round(T / h)))
    if record_every is None:
        record_every = max(1, n_steps // 200)
    P = n_paths
    a = np.tile(F.base_point, (P, 1)).astype(complex)
    B = np.tile(np.eye(n, dtype=complex), (P, 1, 1))
    accum = np.zeros((P, n, n), dtype=complex)
    res_max = np.zeros(P)
    aborted = np.zeros(P, dtype=bool)
    reasons: list = [None] * P
    gens = [path_rng(seed, i) for i in range(P)]
    buf = None
    buf_pos = 0

    rec_t, rec_pre, rec_post = [], [], []
    rec_lmin, rec_lk1, rec_tr, rec_gap = [], [], [], []
    last_pre = np.zeros(P)

    for j in range(n_steps):
        if buf is None or buf_pos == buf.shape[1]:
            m = min(_RNG_BLOCK, n_steps - j)
            buf = np.stack([_increment_block(g, h, n, m) for g in gens])
            buf_pos = 0
        dW = buf[:, buf_pos, :]
        buf_pos += 1

        act = np.nonzero(~aborted)[0]
        a_new, B_new, accum_new, pre, ok, singular = _advance(
            F, a[act], B[act], accum[act], dW[act], h)
        if not ok.all():
            for i, s in zip(act[~ok], singular[~ok]):
                aborted[i] = True
                reasons[i] = {"t": j * h,
                              "reason": "singularity" if s else "projection failure"}
            act = act[ok]
        a[act], B[act], accum[act] = a_new, B_new, accum_new
        res_max[act] = np.maximum(res_max[act], pre)
        last_pre[act] = pre

        if (j + 1) % record_every == 0 or j == n_steps - 1:
            t_now = (j + 1) * h
            w, V = np.linalg.eigh(B)
            Binv = (V / w[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
            gap = np.linalg.norm(
                accum - (np.eye(n) - Binv), axis=(1, 2))
            rec_t.append(t_now)
            rec_pre.append(last_pre.copy())
            rec_post.append(np.atleast_1d(residual_norm(F, a)))
            rec_lmin.append(w[:, 0].copy())
            rec_lk1.append(w[:, min(k, n - 1)].copy())
            rec_tr.append(np.sum(w, axis=1))
            rec_gap.append(gap)

    return BatchResult(
        t=n_steps * h,
        a=a, B=B, sigma_accum=accum,
        fiber_residual_max=res_max,
        aborted=aborted, abort_reasons=reasons,
        record_t=np.array(rec_t),
        record_pre_residual=np.array(rec_pre),
        record_post_residual=np.array(rec_post),
        record_lambda_min=np.array(rec_lmin),
        record_lambda_k1=np.array(rec_lk1),
        record_trace=np.array(rec_tr),
        record_accum_gap=np.array(rec_gap),
    )


def run_path(F: PolynomialMap, T: float, h: float, seed: int,
             record_every: int | None = None) -> tuple[LocalizationState, np.ndarray]:
    """Simulate one path; returns the terminal state and a diagnostics table.

    Diagnostics columns: t, fiber_residual (pre-projection), lambda_min(B),
    lambda_{k+1}(B), Tr(B), ||sigma_accum - (Id - B^{-1})||.
    Raises PathAbort with partial diagnostics if the path cannot continue.
    """
    out = run_paths(F, T, h, seed, 1, record_every=record_every)
    diag = np.column_stack([
        out.record_t,
        out.record_pre_residual[:, 0],
        out.record_lambda_min[:, 0],
        out.record_lambda_k1[:, 0],
        out.record_trace[:, 0],
        out.record_accum_gap[:, 0],
    ])
    if out.aborted[0]:
        raise PathAbort("path aborted", {**(out.abort_reasons[0] or {}),
                                         "diagnostics": diag})
    return out.state(0, seed=seed), diag
