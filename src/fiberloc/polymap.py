"""Holomorphic polynomial maps C^n -> C^k and their zero sets.

A map is stored as one monomial table (exponent rows, a coefficient column
per component); f, its exact Jacobian and its second derivatives are
plans over that table, the last built on first use.
The zero set is traversed with Gauss-Newton projection; all point-wise
operations accept either a single point (n,) or a stack (P, n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError, ValidationError

FIBER_TOL = 1e-10
RANK_TOL = 1e-8


def _derivative_table(exps: np.ndarray, coeffs: np.ndarray):
    """The monomial table of the partial derivatives of a table's columns.

    Each monomial holding z_l gives one row: that exponent lowered by one,
    its coefficients times the old exponent in the columns (c, l). A table
    with C columns gives one with C * n.
    """
    n = exps.shape[1]
    held = exps > 0
    d_exps = (exps[:, None, :] - np.eye(n, dtype=np.int64))[held]
    d_coeffs = np.einsum("mc,ml,lq->mlcq", coeffs, exps, np.eye(n))[held]
    return d_exps, d_coeffs.reshape(len(d_exps), coeffs.shape[1] * n)


def _plan(exps: np.ndarray, coeffs: np.ndarray):
    """An evaluation plan of a table: per variable l, each monomial's row
    d * n + l in the power table, and the coefficients."""
    n = exps.shape[1]
    return np.ascontiguousarray((exps * n + np.arange(n)).T), coeffs


def _as_points(z: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != n:
        raise ValidationError(f"expected points in C^{n}, got shape {z.shape}")
    return z, single


class PolynomialMap:
    """Polynomial map f: C^n -> C^k given as k monomial sums.

    components[j] is a list of (coefficient, exponents) pairs where the
    exponent vector has length n. base_point is a designated point of the
    zero set used to start paths; it must satisfy |f(base_point)| <= 1e-12
    and have a rank-k Jacobian there.
    """

    def __init__(self, n: int, k: int, components, base_point):
        if not (1 <= k <= n):
            raise ValidationError(f"need 1 <= k <= n, got n={n}, k={k}")
        if len(components) != k:
            raise ValidationError(f"expected {k} components, got {len(components)}")
        self.n = int(n)
        self.k = int(k)
        # f as one table: the distinct exponent vectors, one coefficient
        # column per component (a repeated monomial sums its coefficients).
        rows: dict = {}
        for j, comp in enumerate(components):
            for c, e in comp:
                e = tuple(int(x) for x in e)
                if len(e) != n or min(e, default=0) < 0:
                    raise ValidationError("exponent vectors must hold n nonnegative integers")
                rows.setdefault(e, np.zeros(k, dtype=complex))[j] += complex(c)
        self._exps = np.array(list(rows), dtype=np.int64).reshape(-1, n)
        self._coeffs = np.array(list(rows.values()), dtype=complex).reshape(-1, k)
        self._deg = int(self._exps.max(initial=0))
        # Df is the derivative table of f's, columns (j, l) for d f_j / dz_l.
        # The second derivatives, that of Df's, are derived on first use
        # (eval_hessian): only the closest-point solver needs them.
        self._df_table = _derivative_table(self._exps, self._coeffs)
        self._f_plan = _plan(self._exps, self._coeffs)
        self._df_plan = _plan(*self._df_table)
        self._d2f_plan = None

        self.base_point = np.asarray(base_point, dtype=complex).reshape(n)
        res = float(np.linalg.norm(eval_map(self, self.base_point)))
        if not res <= 1e-12:
            raise ValidationError(f"base_point residual {res:.3e} exceeds 1e-12")
        J = eval_jacobian(self, self.base_point)
        smin = np.linalg.svd(J, compute_uv=False)[-1]
        if smin < RANK_TOL:
            raise ValidationError(
                f"Jacobian at base_point is rank-deficient (sigma_min={smin:.3e})"
            )

    # -- serialization (complex numbers as [re, im] pairs) -------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "components": [
                [
                    {"coeff": [c.real, c.imag], "exps": [int(e) for e in ev]}
                    for c, ev in zip(column, self._exps) if c != 0
                ]
                for column in self._coeffs.T
            ],
            "base_point": [[z.real, z.imag] for z in self.base_point],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolynomialMap":
        try:
            comps = [
                [(complex(m["coeff"][0], m["coeff"][1]), m["exps"]) for m in comp]
                for comp in obj["components"]
            ]
            base = [complex(p[0], p[1]) for p in obj["base_point"]]
            return cls(obj["n"], obj["k"], comps, base)
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"malformed map description: {exc}") from exc

    def rescaled(self, weights: np.ndarray) -> "PolynomialMap":
        """The map g(u) = f(u / w) in the coordinates u = diag(w) z.

        Its zero set is the image of this map's zero set under diag(w).
        """
        w = np.asarray(weights, dtype=float).reshape(self.n)
        if np.any(w <= 0):
            raise ValidationError("weights must be positive")
        scale = np.prod(w[None, :] ** (-self._exps), axis=1)
        comps = [list(zip(column * scale, self._exps)) for column in self._coeffs.T]
        return PolynomialMap(self.n, self.k, comps, self.base_point * w)


# ---------------------------------------------------------------------------
# Evaluation

def _eval_plan(F: PolynomialMap, z: np.ndarray, plan) -> np.ndarray:
    """The monomial sums of a plan at z: (C,) for a single point, (P, C)
    stacked. One table of the powers z_l^d, d = 0..deg, built by repeated
    multiplication, serves every monomial.

    The table holds a spare point (1, ..., 1) after the P given ones, so
    every product and sum runs on at least two points. NumPy multiplies
    a one-element complex array in place without the fused multiply-add
    it uses on longer ones, and takes a different BLAS kernel for a
    one-row product: without the spare point, a point evaluated alone
    would round differently from the same point in a stack."""
    pts, single = _as_points(z, F.n)
    P = pts.shape[0]
    idx, coeffs = plan
    pw = np.empty((F._deg + 1, F.n, P + 1), dtype=complex)
    pw[0] = 1
    pw[1, :, :P] = pts.T
    pw[1, :, P] = 1
    for d in range(2, F._deg + 1):
        np.multiply(pw[1], pw[d - 1], out=pw[d])
    pw = pw.reshape(-1, P + 1)
    mono = pw.take(idx[0], axis=0)
    for ell in range(1, F.n):
        mono *= pw.take(idx[ell], axis=0)
    out = mono.T.dot(coeffs)[:P]
    return out[0] if single else out


def eval_map(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Evaluate f at z. Returns shape (k,) for a single point, (P, k) stacked."""
    return _eval_plan(F, z, F._f_plan)


def eval_jacobian(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Exact holomorphic Jacobian (df_j / dz_l) at z; shape (k, n) or (P, k, n)."""
    out = _eval_plan(F, z, F._df_plan)
    return out.reshape(out.shape[:-1] + (F.k, F.n))


def eval_hessian(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Exact second derivatives (d^2 f_j / dz_l dz_m) at z; shape (k, n, n)
    or (P, k, n, n); columns (j, l, m) of the derivative table of Df."""
    if F._d2f_plan is None:
        F._d2f_plan = _plan(*_derivative_table(*F._df_table))
    out = _eval_plan(F, z, F._d2f_plan)
    return out.reshape(out.shape[:-1] + (F.k, F.n, F.n))


def residual_norm(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """|f(z)| as a float (single point) or (P,) array."""
    v = eval_map(F, z)
    r = np.linalg.norm(np.atleast_2d(v), axis=1)
    return float(r[0]) if v.ndim == 1 else r


# ---------------------------------------------------------------------------
# Small-matrix kernels over P-last stacks: a stack of P matrices is held as
# (r, c, P), so every operation below acts on all P matrices at once and
# each matrix product is an explicit sum over the small axes.

# The Jacobi sweeps of _jacobi_eigh; a sweep in which no row rotates ends it
_JACOBI_SWEEPS = 30
_EPS = np.finfo(float).eps


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The products A B of a stack A (r, c, P) with a stack of matrices
    B (c, s, P) or of vectors B (c, P), summed over c term by term.

    Both factors of every product have the same number of axes: NumPy
    multiplies a one-element complex array by one of fewer axes without
    the fused multiply-add it uses otherwise, so a stack of one would round
    differently from a longer stack. An empty sum, c = 0, is zero: the
    tangent space has no basis vector where k = n.
    """
    if A.shape[1] == 0:
        return np.zeros(A.shape[:1] + B.shape[1:], dtype=complex)
    cols = (slice(None),) + (None,) * (B.ndim - 2)
    out = A[:, 0][cols] * B[0][None]
    for b in range(1, A.shape[1]):
        out += A[:, b][cols] * B[b][None]
    return out


def _gram(X: np.ndarray) -> np.ndarray:
    """The Gram matrices X^* X of a stack X (r, c, P): (c, c, P), exactly
    Hermitian (the lower triangle is the conjugate of the upper)."""
    G = _mm(np.conj(X).swapaxes(0, 1), X)
    for a in range(1, G.shape[0]):
        G[a, :a] = np.conj(G[:a, a])
    return G


def _jacobi_eigh(A: np.ndarray):
    """Eigenvalues (d, P), ascending, and orthonormal eigenvectors (d, d, P),
    as columns, of a stack A (d, d, P) of Hermitian matrices; cyclic Jacobi.

    The rotation of a pair (p, q) zeroes A_pq in the rows where |A_pq|
    exceeds eps (|A_pp| + |A_qq|) and is exactly the identity in the
    others, so that a row gives the same bits alone as in a stack; its
    tangent, 2 |A_pq| / (|d| + hypot(d, 2 |A_pq|)) with d = A_qq - A_pp,
    is at most 1 and cannot overflow. Only the real part of the diagonal
    is read. The sweeps end once no row rotates: at d = 1 there is no
    pair, at d = 2 the second sweep finds every A_pq zero. A is
    overwritten.
    """
    d = A.shape[0]
    V = np.zeros_like(A)
    for i in range(d):
        V[i, i] = 1
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(d):
            for q in range(p + 1, d):
                app, aqq, apq = A[p, p].real.copy(), A[q, q].real.copy(), A[p, q].copy()
                g = np.abs(apq)
                live = g > _EPS * (np.abs(app) + np.abs(aqq))
                if not live.any():
                    continue
                rotated = True
                g = np.where(live, g, 0.0)
                dd = np.where(live, aqq - app, 0.0)
                den = np.abs(dd) + np.hypot(dd, 2 * g)
                t = np.copysign(2 * g, dd) / np.where(live, den, 1.0)
                c = 1 / np.sqrt(1 + t * t)
                # s e, with e the phase of A_pq: G = [[c, se], [-conj(se), c]]
                se = (t * c) * (apq / np.where(live, g, 1.0))
                for M in (A, V):
                    Mp = M[:, p].copy()
                    M[:, p] = c * Mp - np.conj(se) * M[:, q]
                    M[:, q] = se * Mp + c * M[:, q]
                # rows p and q of G^* (A G), by Hermitian symmetry
                A[p], A[q] = np.conj(A[:, p]), np.conj(A[:, q])
                A[p, p], A[q, q] = app - t * g, aqq + t * g
                A[p, q] = np.where(live, 0, A[p, q])
                A[q, p] = np.conj(A[p, q])
        if not rotated:
            break
    # ascending order by exchanges of neighbours
    lam = A.diagonal().T.real.copy()
    for i in range(d - 1, 0, -1):
        for j in range(i):
            swap = lam[j] > lam[j + 1]
            lam[j], lam[j + 1] = (np.where(swap, lam[j + 1], lam[j]),
                                  np.where(swap, lam[j], lam[j + 1]))
            V[:, j], V[:, j + 1] = (np.where(swap, V[:, j + 1], V[:, j]),
                                    np.where(swap, V[:, j], V[:, j + 1]))
    return lam, V


# ---------------------------------------------------------------------------
# Gauss-Newton projection

def project_batch(F: PolynomialMap, z: np.ndarray, max_iter: int = 50):
    """Gauss-Newton projection of a stack of points onto the zero set.

    Iterates z <- z - J^* (J J^*)^{-1} f(z) on the points whose residual
    still exceeds FIBER_TOL, for at most max_iter iterations. One Hermitian
    eigendecomposition J J^* = V diag(lam) V^* per point and iteration
    (_jacobi_eigh) serves both the rank test and the step
    J^* V diag(1/lam) V^* f(z). A point whose Jacobian has sigma_min below
    RANK_TOL (lam_min below RANK_TOL^2) stops as singular; a point whose
    residual is not finite stops at once, neither converged nor singular.
    The points still iterating form a compacted working set, held with P
    last, from which each point is written back when it stops.
    Returns (points, residuals, converged, singular, start_residuals) where
    the two masks flag per-point failure modes and start_residuals holds
    |f(z)| at the given points.
    """
    pts = np.array(z, dtype=complex, copy=True)
    fv = eval_map(F, pts)
    res = np.linalg.norm(fv, axis=1)
    start = res.copy()
    singular = np.zeros(pts.shape[0], dtype=bool)
    # the working set: row indices, points (n, P) and f values (k, P)
    act = np.nonzero(~(res <= FIBER_TOL) & np.isfinite(res))[0]
    zt, ft = pts[act].T.copy(), fv[act].T
    del fv
    for _ in range(max_iter):
        if act.size == 0:
            break
        Jh = np.conj(eval_jacobian(F, zt.T).transpose(2, 1, 0), order="C")
        lam, V = _jacobi_eigh(_gram(Jh))
        # rows leave the working set by integer index: a boolean mask
        # indexes a stack several times slower than take
        bad = lam[0] < RANK_TOL**2
        if bad.any():
            out, keep = np.flatnonzero(bad), np.flatnonzero(~bad)
            singular[act[out]] = True
            pts[act[out]] = zt[:, out].T
            act, zt, ft, Jh, lam, V = (a.take(keep, axis=-1) for a in (act, zt, ft, Jh, lam, V))
        zt = zt - _mm(Jh, _mm(V, _mm(np.conj(V).swapaxes(0, 1), ft) / lam))
        ft = eval_map(F, zt.T).T
        r = np.linalg.norm(ft, axis=0)
        res[act] = r
        stop = (r <= FIBER_TOL) | ~np.isfinite(r)
        if stop.any():
            out, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
            pts[act[out]] = zt[:, out].T
            act, zt, ft = (a.take(keep, axis=-1) for a in (act, zt, ft))
    pts[act] = zt.T
    converged = (res <= FIBER_TOL) & ~singular
    return pts, res, converged, singular, start


# ---------------------------------------------------------------------------
# Distance to the origin along the zero set

@dataclass(frozen=True)
class DistanceResult:
    """Upper bound on the distance from the origin to the zero set."""

    value: float
    argmin: np.ndarray
    optimality_residual: float
    n_starts_converged: int


# The Newton iterations of minimize_fiber_distance, and the Gauss-Newton
# iterations of each re-projection.
_NEWTON_ITER = 60
_NEWTON_GN_ITER = 30
# A pair is stationary once its tangential gradient |P_T(w - x)| is at most
# KKT_TOL. The reduced Hessian is shifted until its smallest eigenvalue is
# at least _CURVATURE_FLOOR; a pair whose step length halves below
# _STEP_MIN without an accepted trial stops.
KKT_TOL = 1e-9
_CURVATURE_FLOOR = 1e-2
_STEP_MIN = 2.0**-20
_ARMIJO = 1e-4
# Rows per Newton-step block, which bounds the step's temporaries; every
# row's step depends on that row alone.
_NEWTON_BLOCK = 2048


def _householder_qr(A: np.ndarray):
    """Complete QR of a P-last stack A (n, k, P), k <= n: Q (n, n, P) and
    R (n, k, P).

    Column i is mapped to beta e_i by the Hermitian reflector
    I - tau v v^*, with |beta| the column's norm below row i and beta of
    the opposite phase to its leading entry, so that nothing cancels.
    Every operation acts on all P matrices at once. A zero column leaves
    R_ii = 0 and is reflected by the identity.
    """
    n, k = A.shape[:2]
    R = np.array(A, dtype=complex)
    Q = np.zeros((n, n) + A.shape[2:], dtype=complex)
    for ell in range(n):
        Q[ell, ell] = 1
    for i in range(k):
        x = R[i:, i]
        lead = np.abs(x[0])
        norm = lead
        for row in x[1:]:
            norm = np.hypot(norm, np.abs(row))
        nonzero = norm > 0
        # v scaled so that its leading entry is the phase of x_i: then
        # |v|^2 = 2 norm / (norm + |x_i|) and tau = 2 / |v|^2
        scale = np.where(nonzero, norm + lead, 1.0)
        phase = np.where(lead > 0, x[0] / np.where(lead > 0, lead, 1.0), 1.0)
        v = x * (1 / scale)
        v[0] = phase
        tau = np.where(nonzero, scale / np.where(nonzero, norm, 1.0), 0.0)
        vc = np.conj(v)
        R[i:, i + 1:] -= v[:, None] * (tau * _mm(vc[None], R[i:, i + 1:]))
        R[i, i] = -phase * norm
        R[i + 1:, i] = 0
        Q[:, i:] -= (tau * _mm(Q[:, i:], v))[:, None] * vc[None]
    return Q, R


def _newton_step(F: PolynomialMap, w: np.ndarray, g: np.ndarray):
    """The tangential gradient norm, a Newton step and its slope at the
    feasible points w, where g = w - x.

    With J^* = Q R (complete QR, _householder_qr), the last n - k columns N
    of Q span the tangent space ker J, mu = R^{-1} Q_1^* g is the
    least-squares multiplier and c = N^* g the tangential gradient t in that
    basis; the step N u below and |t| do not depend on which orthonormal
    basis N is taken. The reduced KKT
    system for the step N u is u - conj(S u) = -c, with S = N^T H N and
    H = sum_j conj(mu_j) Hess f_j. As a real system of size 2(n - k) its
    matrix I + A has eigenvalues 1 +- sigma_i(S); it is shifted to
    rho I + A with rho = max(1, sigma_max + _CURVATURE_FLOOR), so every
    eigenvalue is at least the floor and the step descends even where the
    reduced Hessian is indefinite. Since A^2 is S^* S, the shifted system
    is solved as u = -(rho y + conj(S y)), (rho^2 - S^* S) y = c, by one
    Hermitian eigendecomposition of size n - k (_jacobi_eigh). The step is
    shortened to at most |g|. A row whose R has a diagonal entry below
    RANK_TOL gets |t| = inf; a row whose S is not finite takes the
    gradient step -t. Where k = n the tangent space is {0}: |t| = 0 and
    the step is zero. The slope is Re<t, step>. Every stack is held with
    P last (_mm).
    """
    P, n, k = w.shape[0], F.n, F.k
    gt = g.T
    Q, R = _householder_qr(np.conj(eval_jacobian(F, w).transpose(2, 1, 0), order="C"))
    c = _mm(np.conj(Q).swapaxes(0, 1), gt)
    diag = np.diagonal(R[:k]).T
    regular = np.abs(diag).min(axis=0) >= RANK_TOL
    diag = np.where(regular, diag, 1.0)
    mu = np.zeros((k, P), dtype=complex)
    for i in reversed(range(k)):
        mu[i] = (c[i] - _mm(R[i:i + 1, i + 1:k], mu[i + 1:])[0]) / diag[i]
    hess = eval_hessian(F, w).reshape(P, k, n * n).transpose(2, 1, 0)
    H = _mm(hess, np.conj(mu)).reshape(n, n, P)
    N = Q[:, k:]
    S = _mm(N.swapaxes(0, 1), _mm(H, N))
    S[..., ~np.isfinite(S).all(axis=(0, 1))] = 0
    sig2, W = _jacobi_eigh(_gram(S))
    # sigma_max^2, 0 where k = n and the tangent space is {0}
    rho = np.maximum(1.0, np.sqrt(np.maximum(sig2.max(axis=0, initial=0.0), 0))
                     + _CURVATURE_FLOOR)
    ct = c[k:]
    y = _mm(W, _mm(np.conj(W).swapaxes(0, 1), ct) / (rho**2 - sig2))
    u = -(rho * y + np.conj(_mm(S, y)))
    step = _mm(N, u)
    slope = np.sum(ct.real * u.real + ct.imag * u.imag, axis=0)
    shrink = np.minimum(1.0, np.linalg.norm(gt, axis=0)
                        / np.maximum(np.linalg.norm(step, axis=0), 1e-300))
    tn = np.where(regular, np.linalg.norm(ct, axis=0), np.inf)
    return tn, (step * shrink).T, slope * shrink


def minimize_fiber_distance(F: PolynomialMap, targets: np.ndarray,
                            starts: np.ndarray):
    """Locally minimize |w - x| subject to f(w) = 0, for each target x
    from its start.

    targets and starts are stacks of the same length. Newton's method on
    the KKT system (w - x) - J(w)^* mu = 0, f(w) = 0, reduced to the
    tangent space of the zero set (_newton_step), with steps no longer
    than |w - x|. Every trial is re-projected by Gauss-Newton
    (project_batch) and taken when it is feasible and passes an Armijo
    test on |w - x|^2 whose slack, 2 |w - x| FIBER_TOL, admits the final
    steps that move w by the fiber tolerance; otherwise the step length
    halves; the step and its slope are computed once per iterate, so a
    halving costs only the re-projection. A pair stops once its tangential
    gradient is at most KKT_TOL.

    Returns (w, dist, ok, kkt). w is the closest feasible point the pair
    visited, or its stationary last iterate when that is at most FIBER_TOL
    farther, and dist its distance: every finite distance is attained by a
    point with |f| <= FIBER_TOL. ok flags the starts whose projection was
    feasible (dist is +inf elsewhere). kkt is the tangential gradient norm
    at w, +inf where it could not be computed; the pair converged when
    kkt <= KKT_TOL.
    """
    tgt = np.atleast_2d(np.asarray(targets, dtype=complex))
    w, _, ok, _, _ = project_batch(F, starts, max_iter=_NEWTON_GN_ITER)
    dist = np.where(ok, np.linalg.norm(w - tgt, axis=1), np.inf)
    best_w, best = w.copy(), dist.copy()
    kkt = np.full(w.shape[0], np.inf)
    at_best = ok.copy()
    alpha = np.ones(w.shape[0])
    active = ok.copy()
    # the Newton step and slope at each pair's current w, and the pairs
    # that moved since they were computed
    step = np.zeros_like(w)
    slope = np.zeros(w.shape[0])
    fresh = ok.copy()
    for it in range(_NEWTON_ITER + 1):
        idx = np.nonzero(active & fresh)[0]
        if idx.size:
            parts = [_newton_step(F, w[b], w[b] - tgt[b]) for b in
                     np.split(idx, range(_NEWTON_BLOCK, idx.size, _NEWTON_BLOCK))]
            tn, step[idx], slope[idx] = (np.concatenate(p) for p in zip(*parts))
            fresh[idx] = False
            stationary = tn <= KKT_TOL
            here = at_best[idx] | (stationary & (dist[idx] <= best[idx] + FIBER_TOL))
            j = idx[here]
            best_w[j], best[j], kkt[j] = w[j], dist[j], tn[here]
            active[idx[stationary | ~np.isfinite(tn)]] = False
        idx = np.nonzero(active)[0]
        if idx.size == 0 or it == _NEWTON_ITER:
            break
        a, d = alpha[idx], dist[idx]
        cand, _, feasible, _, _ = project_batch(F, w[idx] + a[:, None] * step[idx],
                                                max_iter=_NEWTON_GN_ITER)
        cd = np.linalg.norm(cand - tgt[idx], axis=1)
        take = feasible & (cd * cd <= d * d + 2 * _ARMIJO * a * slope[idx]
                           + 2 * d * FIBER_TOL)
        moved = idx[take]
        w[moved], dist[moved], alpha[moved] = cand[take], cd[take], 1.0
        at_best[moved] = cd[take] < best[moved]
        fresh[moved] = True
        alpha[idx[~take]] *= 0.5
        active[idx[~take & (alpha[idx] < _STEP_MIN)]] = False
    return best_w, best, ok, kkt


def distance_to_origin(F: PolynomialMap, n_starts: int = 16,
                       seed: int = 0) -> DistanceResult:
    """Upper bound on inf{|z| : f(z) = 0} from multi-start local minimization.

    The starts are the base point plus n_starts - 1 Gaussian perturbations
    of it. The reported value can only decrease when starts are added; the
    optimality residual is the minimizer's tangential gradient norm at the
    argmin.
    """
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal((n_starts - 1, 2 * F.n))
    pert = pert[:, : F.n] + 1j * pert[:, F.n:]
    starts = np.vstack([F.base_point[None, :], F.base_point[None, :] + pert])
    w, dist, ok, kkt = minimize_fiber_distance(F, np.zeros_like(starts), starts)
    if not np.any(ok):
        raise ProjectionError("no start could be projected onto the zero set")
    best = int(np.argmin(dist))
    return DistanceResult(
        value=float(dist[best]),
        argmin=w[best],
        optimality_residual=float(kkt[best]),
        n_starts_converged=int(np.sum(ok)),
    )


# ---------------------------------------------------------------------------
# Small catalog of maps used by tests, demos and configs

def affine_map(n: int, offset: complex = 0.0) -> PolynomialMap:
    """f(z) = z_1 - offset in C^n; the fiber is a coordinate hyperplane."""
    comps = [[(1.0, [1 if j == 0 else 0 for j in range(n)]),
              (-offset, [0] * n)]]
    base = np.zeros(n, dtype=complex)
    base[0] = offset
    return PolynomialMap(n, 1, comps, base)


def hyperbola_map() -> PolynomialMap:
    """f(z) = z_1 z_2 - 1 in C^2; distance to the origin is sqrt(2)."""
    return PolynomialMap(2, 1, [[(1.0, [1, 1]), (-1.0, [0, 0])]], [1.0, 1.0])


def paraboloid_map(n: int = 2) -> PolynomialMap:
    """f(z) = z_n - z_1^2 - ... - z_{n-1}^2; passes through the origin."""
    comps = [[(1.0, [0] * (n - 1) + [1])]
             + [(-1.0, [2 if j == i else 0 for j in range(n)])
                for i in range(n - 1)]]
    return PolynomialMap(n, 1, comps, np.zeros(n))
