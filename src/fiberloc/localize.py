"""Stochastic localization confined to the zero set of a polynomial map.

The state of one path is a quadratic potential (center a, Hermitian PD
matrix B) evolving by an Euler-Maruyama discretization of

    da = Sigma dW,   dB = (1/n) B^{1/2} pi B^{1/2} dt,

where pi is the orthogonal projection annihilating the conjugated-gradient
subspace of the map (rotated by B^{-1/2}) and Sigma is any factor with
Sigma Sigma^* = B^{-1/2} pi B^{-1/2} / n; all of them give the increments
Sigma dW the same law. The exact process keeps the center on the zero set;
the discretization leaks off at O(h) and is re-projected by Gauss-Newton
after every step.

No step takes a matrix square root or an inverse, factors a matrix, or
holds B: the state is the lower Cholesky factor L of B^{-1} = L L^*,
starting at Id. The B update is a change of rank k, so each step scales L
and updates it by rank k (see _advance). The update never shrinks a pivot,
so L stays the factor of a definite matrix whatever the rounding. Sigma is
L (Id - Q Q^*) / sqrt(n), Q an orthonormal basis of the range of L^* J^*
(see _sigma_pieces). B is derived only where it is reported, from L.

One kernel (_advance) performs the projected Euler-Maruyama step for a
stack of paths held P-last, as the linalg kernels hold them. The batched
engine run_paths drives it for every live path in lockstep, and run_path
is a one-path wrapper over run_paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PathAbort, StateError, ValidationError
from .linalg import _cholesky_update, _gram, _jacobi_eigh, _mm, hermitianize
from .polymap import (RANK_TOL, PolynomialMap, eval_jacobian, project_batch,
                      residual_norm)

DEFAULT_RANK_TRUNCATION = 1e-2
# B starts at Id and grows by PSD increments, so lambda_min(B) >= 1 in exact
# arithmetic. It is read as 1 / sigma_max(L)^2, and the carried factor L
# shrinks monotonically only up to rounding; the floor allows for that.
LAMBDA_MIN_FLOOR = 1 - 1e-8
# A step scales B by 1 + h/n and subtracts a PSD term, so lambda_max(B_T) <=
# (1 + h/n)^{T/h} <= e^{T/n} and Tr B_T <= n e^{T/n}. The largest double is
# e^709.78: capping T/n at 600 keeps n e^{T/n} finite for every n < e^109,
# and with it every eigenvalue 1 / sigma^2 of B read from L.
MAX_T_OVER_N = 600.0
_RNG_BLOCK = 512
# why a path stopped, by the code _advance returns for it; 0: it stepped
_ABORT_REASONS = (None, "singularity", "projection failure")
_SINGULAR, _PROJECTION = 1, 2


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
    """One path of the localization process at time t, or a stack of paths."""

    t: float
    a: np.ndarray
    B: np.ndarray
    fiber_residual_max: float = 0.0


@dataclass(frozen=True)
class ComplexGaussian:
    """Gaussian on C^n, or a stack of them, on an affine subspace: center + complex covariance."""

    center: np.ndarray
    covariance: np.ndarray
    support_dim: int | np.ndarray

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
    """The rank-truncated Gaussian N(a_t, 2 B_t^{-1}) of one path or a stack of them.

    Covariance eigenvalues below rank_tol are zeroed; support_dim counts the
    survivors. When the codimension k of the fiber is supplied, the decay
    bound lambda_{n-k}(2 B_t^{-1}) <= 2 n (k+1) / t is asserted on every path.
    """
    w, V = np.linalg.eigh(hermitianize(state.B))
    n = w.shape[-1]
    if k is not None and 0 < k < n and state.t > 0:
        bound = 2 * n * (k + 1) / state.t
        worst = np.max(2.0 / w[..., k])
        if worst > bound * (1 + 1e-9):
            raise StateError(f"covariance decay bound violated: {worst:.3e} > {bound:.3e}")
    keep = 2.0 / w >= rank_tol
    cov = (V * np.where(keep, 2.0 / w, 0.0)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
    dim = np.sum(keep, axis=-1)
    return ComplexGaussian(state.a.copy(), cov, dim if dim.ndim else int(dim))


# ---------------------------------------------------------------------------
# Random streams

def path_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for path #index under a master seed.

    Philox keyed by (seed, index); the increments of a path depend only on
    its own stream, so paths can be advanced in any grouping.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _increment_block(rng: np.random.Generator, h: float, out: np.ndarray) -> None:
    """Fill out (m, n) with m consecutive increments of the complex Brownian
    motion over steps of length h: each coordinate is g1 + i g2 with
    independent N(0, h) parts, so E|dW^j|^2 = 2h. An increment draws its n
    real parts, then its n imaginary parts, so m draws equal any split of
    them into consecutive blocks."""
    m, n = out.shape
    g = rng.standard_normal((m, 2 * n))
    np.multiply(np.sqrt(h), g[:, :n], out=out.real)
    np.multiply(np.sqrt(h), g[:, n:], out=out.imag)


# ---------------------------------------------------------------------------
# The diffusion coefficient

def _rows(mask: np.ndarray):
    """Index of the rows where mask holds: a slice, which indexes without
    a copy, when it holds everywhere (the usual case)."""
    return slice(None) if mask.all() else np.nonzero(mask)[0]


def _sigma_pieces(F: PolynomialMap, a: np.ndarray, L: np.ndarray):
    """Diffusion data at centers a (n, P) with factors L (n, n, P) of B^{-1}.

    Returns (Q, fail, live). fail holds per path 0 or the code in
    _ABORT_REASONS of why it cannot step: its Jacobian J has sigma_min
    below RANK_TOL (eigenvalues of J J^*). live indexes the others (_rows),
    over which Q (n, k) is stacked: with G = L^* J^* and
    M = G^* G = V diag(lam) V^*, Q = G V diag(lam)^{-1/2} is an orthonormal
    basis of the range of G, so that B^{-1} J^* M^{-1} J B^{-1} = (L Q) (L Q)^*.
    """
    Jh = np.conj(eval_jacobian(F, a.T).transpose(2, 1, 0), order="C")
    fail = np.where(_jacobi_eigh(_gram(Jh))[0][0] < RANK_TOL**2, _SINGULAR, 0)
    live = _rows(fail == 0)
    G = _mm(np.conj(L[..., live]).swapaxes(0, 1), Jh[..., live])
    lam, V = _jacobi_eigh(_gram(G))
    return _mm(G, V) / np.sqrt(lam)[None], fail, live


# ---------------------------------------------------------------------------
# The Euler-Maruyama step

def _advance(F: PolynomialMap, a: np.ndarray, L: np.ndarray, dW: np.ndarray, h: float):
    """One projected Euler-Maruyama step for a P-last stack of paths:
    centers a (n, P), lower Cholesky factors L (n, n, P) of B^{-1},
    increments dW (n, P).

    Returns (a, L, pre, post, fail): the new state of the rows that
    advanced, their residuals before and after projection, and per row 0
    or the code in _ABORT_REASONS of why it did not advance (its Jacobian
    lost rank, at the center or in projection; its projection did not
    converge). With s = h/n and Y = L Q (_sigma_pieces), the factor of
    (B')^{-1} = (L L^* + s Y Y^*) / (1 + s) is L / sqrt(1 + s) after a
    rank-k update by Y sqrt(s / (1 + s)). The noise is R dW / sqrt(n),
    with R = L (Id - Q Q^*).
    """
    n, s = F.n, h / F.n
    Q, fail, live = _sigma_pieces(F, a, L)
    L = L[..., live]
    Y = _mm(L, Q)
    R = L - _mm(Y, np.conj(Q).swapaxes(0, 1))
    # the noise R dW / sqrt(n), annihilated by J
    a_pre = a[:, live] + _mm(R, dW[:, live]) / np.sqrt(n)
    pts, post, conv, sing, pre = project_batch(F, a_pre.T)
    fail[live] = np.where(sing, _SINGULAR, np.where(conv, 0, _PROJECTION))
    kept = _rows(conv)
    L = _cholesky_update(L[..., kept] / np.sqrt(1 + s), Y[..., kept] * np.sqrt(s / (1 + s)))
    return pts[kept].T, L, pre[kept], post[kept], fail


# ---------------------------------------------------------------------------
# Batched path driver

@dataclass
class BatchResult:
    """Terminal data and recorded diagnostics for a batch of paths."""

    t: float
    a: np.ndarray                 # (P, n) terminal centers
    B: np.ndarray                 # (P, n, n), L^{-*} L^{-1} from the carried factor L
    fiber_residual_max: np.ndarray  # (P,) max pre-projection residual
    aborted: np.ndarray           # (P,) bool
    abort_reasons: list
    record_t: np.ndarray          # (R,)
    record_pre_residual: np.ndarray   # (R, P)
    record_post_residual: np.ndarray  # (R, P)
    record_lambda_min: np.ndarray     # (R, P)
    record_lambda_k1: np.ndarray      # (R, P) lambda_{k+1}(B), ascending index
    record_trace: np.ndarray          # (R, P)

    @property
    def n_aborted(self) -> int:
        return int(np.sum(self.aborted))

    def state(self, i: int | np.ndarray) -> LocalizationState:
        return LocalizationState(
            t=self.t, a=self.a[i], B=self.B[i],
            fiber_residual_max=self.fiber_residual_max[i],
        )


def run_paths(F: PolynomialMap, T: float, h: float, seed: int, n_paths: int,
              record_every: int | None = None) -> BatchResult:
    """Simulate n_paths independent paths from the base point up to time T.

    Deterministic given (seed, h, T, n_paths): path i consumes only the
    stream keyed by (seed, i). Paths that hit a singularity or a
    projection failure are frozen and flagged; the others continue.
    A horizon past MAX_T_OVER_N n is refused: B could overflow there.
    """
    if not (T > 0 and h > 0 and np.isfinite(T / h)):
        raise ValidationError("T and h must be positive, with a finite ratio T / h")
    if n_paths < 1:
        raise ValidationError(f"need at least one path, got n_paths={n_paths}")
    if record_every is not None and record_every < 1:
        raise ValidationError(f"record_every must be >= 1, got {record_every}")
    n, k = F.n, F.k
    n_steps = max(1, int(round(T / h)))
    if n_steps * h > MAX_T_OVER_N * n:
        raise ValidationError(f"horizon {n_steps * h:g} is past {MAX_T_OVER_N:g} n = "
                              f"{MAX_T_OVER_N * n:g}, where B could overflow")
    if record_every is None:
        record_every = max(1, n_steps // 200)
    P = n_paths
    a = np.tile(F.base_point[:, None], (1, P)).astype(complex)
    L = np.tile(np.eye(n, dtype=complex)[..., None], (1, 1, P))
    res_max, last_pre, last_post = np.zeros(P), np.zeros(P), residual_norm(F, a.T)
    aborted = np.zeros(P, dtype=bool)
    reasons: list = [None] * P
    # one Philox for the batch, re-keyed for each path to the state that
    # path_rng(seed, i) starts from; a path's state is saved between blocks
    rng = path_rng(seed, 0)
    start, states = rng.bit_generator.state, [None] * P
    buf = np.empty((min(_RNG_BLOCK, n_steps), n, P), dtype=complex)
    act = slice(None)  # the live rows: all of them until a path aborts
    n_rec = -(-n_steps // record_every)  # the last step is always recorded
    rec_t, rec, r = np.empty(n_rec), np.empty((5, n_rec, P)), 0

    for j in range(n_steps):
        if j % _RNG_BLOCK == 0:
            for i in range(P):
                rng.bit_generator.state = states[i] or {
                    **start, "state": {**start["state"], "key": np.array([seed, i], dtype=np.uint64)}}
                _increment_block(rng, h, buf[:n_steps - j, :, i])
                if j + _RNG_BLOCK < n_steps:
                    states[i] = rng.bit_generator.state
        dW = buf[j % _RNG_BLOCK]

        a_new, L_new, pre, post, fail = _advance(F, a[:, act], L[..., act], dW[:, act], h)
        if fail.any():
            rows = np.arange(P)[act]
            for i, c in zip(rows[fail > 0], fail[fail > 0]):
                aborted[i] = True
                reasons[i] = {"t": j * h, "reason": _ABORT_REASONS[c]}
            act = rows[fail == 0]
        if isinstance(act, slice):  # no path has aborted: the new arrays are the state
            a, L = a_new, L_new
        else:
            a[:, act], L[..., act] = a_new, L_new
        res_max[act] = np.maximum(res_max[act], pre)
        last_pre[act], last_post[act] = pre, post

        if (j + 1) % record_every == 0 or j == n_steps - 1:
            # the eigenvalues of B, ascending: 1 / sigma^2 over the singular
            # values sigma of L, descending, which keep relative accuracy
            w = np.linalg.svd(L.transpose(2, 0, 1), compute_uv=False) ** -2
            rec_t[r] = (j + 1) * h
            rec[:, r] = last_pre, last_post, w[:, 0], w[:, min(k, n - 1)], np.sum(w, axis=1)
            r += 1

    # B = L^{-*} L^{-1}
    B = _gram(np.linalg.inv(L.transpose(2, 0, 1)).transpose(1, 2, 0))
    return BatchResult(n_steps * h, a.T.copy(), B.transpose(2, 0, 1).copy(),
                       res_max, aborted, reasons, rec_t, *rec)


def run_path(F: PolynomialMap, T: float, h: float, seed: int,
             record_every: int | None = None) -> tuple[LocalizationState, np.ndarray]:
    """Simulate one path; returns the terminal state and a diagnostics table.

    Diagnostics columns: t, fiber_residual (pre-projection), lambda_min(B),
    lambda_{k+1}(B), Tr(B).
    Raises PathAbort with partial diagnostics if the path cannot continue.
    """
    out = run_paths(F, T, h, seed, 1, record_every=record_every)
    diag = np.column_stack([
        out.record_t,
        out.record_pre_residual[:, 0],
        out.record_lambda_min[:, 0],
        out.record_lambda_k1[:, 0],
        out.record_trace[:, 0],
    ])
    if out.aborted[0]:
        raise PathAbort("path aborted", {**(out.abort_reasons[0] or {}),
                                         "diagnostics": diag})
    return out.state(0), diag
