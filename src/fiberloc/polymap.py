"""Holomorphic polynomial maps C^n -> C^k and their zero sets.

A map is stored as one monomial table (exponent rows, a coefficient column
per component); f, its exact Jacobian, the Jacobian with the second
derivatives, and all Taylor coefficients are plans of Taylor coefficients
of that table from one builder, the last two built on first use. The zero
set is traversed with Gauss-Newton projection; all point-wise operations
accept either a single point (n,) or a stack (P, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import ProjectionError, ValidationError
from .linalg import _gram, _householder_qr, _jacobi_eigh, _mm

FIBER_TOL = 1e-10
RANK_TOL = 1e-8


def _taylor_plan(exps: np.ndarray, coeffs: np.ndarray, targets: np.ndarray, mult=None):
    """The evaluation plan of the Taylor coefficients a_b of a table's
    columns, one per target b, each times its entry of mult (default 1).

    At z = x + u, c z^m is the sum over b <= m of c prod_i binom(m_i, b_i)
    x^(m - b) u^b: each pair (m, b) with b <= m gives one row of exponent
    m - b, in (m, b) order and unmerged, its coefficients in the columns
    (c, b). The plan holds, per variable l, each row's index d * n + l in
    the power table (_eval_plan), and the coefficients."""
    n, C, T = exps.shape[1], coeffs.shape[1], len(targets)
    mult = np.ones(T) if mult is None else mult
    m, t = np.nonzero((targets[None] <= exps[:, None]).all(axis=2))
    pascal = np.array([[comb(a, b) for b in range(targets.max(initial=0) + 1)]
                       for a in range(exps.max(initial=0) + 1)], dtype=float)
    scale = np.prod(pascal[exps[m], targets[t]], axis=1) * mult[t]
    vals = np.zeros((m.size, C, T), dtype=complex)
    vals[np.arange(m.size), :, t] = coeffs[m] * scale[:, None]
    idx = (exps[m] - targets[t]) * n + np.arange(n)
    return np.ascontiguousarray(idx.T), vals.reshape(m.size, C * T)


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
                if len(e) != n or not all(float(x).is_integer() and x >= 0 for x in e):
                    raise ValidationError("exponent vectors must hold n nonnegative integers")
                e = tuple(int(x) for x in e)
                rows.setdefault(e, np.zeros(k, dtype=complex))[j] += complex(c)
        self._exps = np.array(list(rows), dtype=np.int64).reshape(-1, n)
        self._coeffs = np.array(list(rows.values()), dtype=complex).reshape(-1, k)
        # the power table always holds the first power, even where f is constant
        self._deg = max(1, int(self._exps.max(initial=0)))
        # f is the Taylor coefficient of 0, Df those of the e_l, columns
        # (j, l) for d f_j / dz_l
        self._f_plan = _taylor_plan(self._exps, self._coeffs, np.zeros((1, n), dtype=np.int64))
        self._df_plan = _taylor_plan(self._exps, self._coeffs, np.eye(n, dtype=np.int64))

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

    @cached_property
    def _d2f_plan(self):
        """Df, then the second derivatives, columns (j, l, m) for d^2 f_j /
        dz_l dz_m: the Taylor coefficients of the e_l and of the e_l + e_m,
        times 2 where l = m. Built on first use, by the closest-point solver."""
        eye = np.eye(self.n, dtype=np.int64)
        targets = np.vstack([eye, (eye[:, None] + eye).reshape(-1, self.n)])
        return _taylor_plan(self._exps, self._coeffs, targets,
                            np.concatenate([np.ones(self.n), 1 + eye.ravel()]))

    @cached_property
    def _taylor(self):
        """The plan of all Taylor coefficients, one target b per exponent some
        monomial holds, by degree (b = 0 first), the degree of each b and the
        maximum of |u^b| on the unit sphere; built on first use. Rows of one
        exponent m - b are merged exactly: (c, b) is nonzero only in rows (m, b)."""
        betas = sorted({b for m in self._exps for b in np.ndindex(*(m + 1))},
                       key=lambda b: (sum(b), b))
        betas = np.array(betas, dtype=np.int64)
        deg = betas.sum(axis=1)
        weight = np.prod((betas / np.maximum(deg, 1)[:, None]) ** (betas / 2), axis=1)
        idx, vals = _taylor_plan(self._exps, self._coeffs, betas)
        idx, row = np.unique(idx, axis=1, return_inverse=True)
        merged = np.zeros((idx.shape[1], vals.shape[1]), dtype=complex)
        np.add.at(merged, row, vals)
        return (np.ascontiguousarray(idx), merged), deg, weight

    @classmethod
    def from_json(cls, obj: dict) -> "PolynomialMap":
        """The map of a JSON description: complex numbers as [re, im] pairs."""
        try:
            comps = [
                [(complex(m["coeff"][0], m["coeff"][1]), m["exps"]) for m in comp]
                for comp in obj["components"]
            ]
            base = [complex(p[0], p[1]) for p in obj["base_point"]]
            n, k = obj["n"], obj["k"]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"malformed map description: {exc}") from exc
        return cls(n, k, comps, base)

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


# fiber_lower_bound shrinks its bound by this relative margin. Where the
# bound is near a positive radius, t = |f_j(x)| - FIBER_TOL is of the order
# of that radius times the Taylor bounds, so the rounding of the computed
# coefficients, of the bisection's polynomial and of the minimizer's own
# |f| <= FIBER_TOL test moves the root by a few ulps times the number of
# monomials, relative; 1e-9 covers that for tables of up to ~1e5 monomials
# and is below any radius resolution a tube estimate needs. The bisection
# leaves the root within 2^-_BISECTIONS of its bracket, far inside the margin.
_BOUND_MARGIN = 1e-9
_BISECTIONS = 40
# fiber_lower_bound takes the points in blocks of at most this many plan
# rows times points; every point is evaluated alone, so no bit depends on it.
_TAYLOR_ENTRIES = 2**18


def fiber_lower_bound(F: PolynomialMap, z: np.ndarray):
    """A certified lower bound on the distance from z to {|f| <= FIBER_TOL};
    a float for a single point, (P,) stacked.

    At z + u each component is f_j(z) + sum_d P_d(u), P_d homogeneous of
    degree d with |P_d(u)| <= B_d |u|^d: B_1 = |grad f_j(z)| and, for
    d >= 2, B_d = sum over |b| = d of |a_b| prod_i (b_i / d)^(b_i / 2),
    the a_b being the Taylor coefficients (F._taylor) and each product
    the maximum of |u^b| on the unit sphere. So |f_j(z + u)| > FIBER_TOL
    wherever sum_d B_d |u|^d < t = |f_j(z)| - FIBER_TOL. rho_j is the lower
    end of a bisection for the root of sum_d B_d rho^d = t, bracketed by
    0 and min_d (t / B_d)^(1/d), and 0 where t <= 0 or the bracket is not
    finite. The bound is max_j rho_j shrunk by _BOUND_MARGIN.
    """
    pts, single = _as_points(z, F.n)
    plan, deg, weight = F._taylor
    size = max(1, _TAYLOR_ENTRIES // plan[0].shape[1])
    if pts.shape[0] > size:
        return np.concatenate([fiber_lower_bound(F, pts[s:s + size])
                               for s in range(0, pts.shape[0], size)])
    a = np.abs(_eval_plan(F, pts, plan)).reshape(pts.shape[0], F.k, deg.size).swapaxes(1, 2)
    t = a[:, 0] - FIBER_TOL
    B = [np.sqrt(np.sum(a[:, deg == 1] ** 2, axis=1))]
    B += [np.sum(a[:, deg == d] * weight[deg == d, None], axis=1)
          for d in range(2, deg.max() + 1)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.min([(t / b) ** (1 / d) for d, b in enumerate(B, 1)], axis=0)
    hi = np.where((t > 0) & np.isfinite(hi), hi, 0.0)
    lo = np.zeros_like(hi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        phi = np.zeros_like(mid)
        for b in reversed(B):
            phi = (phi + b) * mid
        under = phi <= t
        lo, hi = np.where(under, mid, lo), np.where(under, hi, mid)
    rho = lo.max(axis=1) * (1 - _BOUND_MARGIN)
    return float(rho[0]) if single else rho


def residual_norm(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """|f(z)| as a float (single point) or (P,) array."""
    v = eval_map(F, z)
    r = np.linalg.norm(np.atleast_2d(v), axis=1)
    return float(r[0]) if v.ndim == 1 else r


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
    # Df (n, k, P), then the second derivatives (n * n, k, P), from one plan
    d2f = _eval_plan(F, w, F._d2f_plan).reshape(P, k, n + n * n).transpose(2, 1, 0)
    Q, R = _householder_qr(np.conj(d2f[:n], order="C"))
    c = _mm(np.conj(Q).swapaxes(0, 1), gt)
    diag = np.diagonal(R[:k]).T
    regular = np.abs(diag).min(axis=0) >= RANK_TOL
    diag = np.where(regular, diag, 1.0)
    mu = np.zeros((k, P), dtype=complex)
    for i in reversed(range(k)):
        mu[i] = (c[i] - _mm(R[i:i + 1, i + 1:k], mu[i + 1:])[0]) / diag[i]
    H = _mm(d2f[n:], np.conj(mu)).reshape(n, n, P)
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
                            starts: np.ndarray, enough=(-np.inf,)):
    """Locally minimize |w - x| subject to f(w) = 0, for each target x
    from its start.

    targets and starts are stacks of the same length. Newton's method on
    the KKT system (w - x) - J(w)^* mu = 0, f(w) = 0, reduced to the
    tangent space of the zero set (_newton_step), with steps no longer
    than |w - x|. Every trial is re-projected by Gauss-Newton
    (project_batch) and taken when it is feasible and passes an Armijo
    test on |w - x|^2 whose slack, 2 |w - x| FIBER_TOL, admits the final
    steps that move w by the fiber tolerance; otherwise the step length
    halves. The pairs still iterating form a compacted working set, cut
    into blocks of _NEWTON_BLOCK rows for the Newton step; a pair leaves
    it by integer index once its tangential gradient is at most KKT_TOL
    or not finite, or once its step length falls below _STEP_MIN.

    Pair i belongs to group i % len(enough). All pairs of a group leave
    together once the least distance any of them has reached is at most
    the group's entry of enough, checked after the projection of the
    starts and after every accepted trial; a caller that only needs to
    know whether some pair comes within that distance stops there. The
    default never stops a group.

    Returns (w, dist, ok, kkt). w is the closest feasible point the pair
    visited, or its stationary last iterate when that is at most FIBER_TOL
    farther, and dist its distance: every finite distance is attained by a
    point with |f| <= FIBER_TOL. ok flags the starts whose projection was
    feasible (dist is +inf elsewhere). kkt is the tangential gradient norm
    at w, +inf where it could not be computed (as at a best point reached
    in the step on which its group stopped); the pair converged when
    kkt <= KKT_TOL.
    """
    tgt = np.atleast_2d(np.asarray(targets, dtype=complex))
    best_w, _, ok, _, _ = project_batch(F, starts, max_iter=_NEWTON_GN_ITER)
    best = np.where(ok, np.linalg.norm(best_w - tgt, axis=1), np.inf)
    kkt = np.full(best.shape, np.inf)
    # each group's least distance reached so far
    enough = np.asarray(enough, dtype=float)
    group = np.arange(best.size) % enough.size
    reached = np.full(enough.size, np.inf)
    np.minimum.at(reached, group, best)
    # the working set: row indices, iterates, distances, step lengths and
    # whether each iterate is its pair's best point
    rows = np.flatnonzero(ok & ~(reached <= enough)[group])
    w, dist = best_w[rows], best[rows]
    alpha, at_best = np.ones(rows.size), np.ones(rows.size, dtype=bool)
    for it in range(_NEWTON_ITER + 1):
        if rows.size == 0:
            break
        blocks = (slice(s, s + _NEWTON_BLOCK) for s in range(0, rows.size, _NEWTON_BLOCK))
        parts = [_newton_step(F, w[b], w[b] - tgt[rows[b]]) for b in blocks]
        tn, step, slope = (np.concatenate(p) for p in zip(*parts))
        stationary = tn <= KKT_TOL
        here = np.flatnonzero(at_best | (stationary & (dist <= best[rows] + FIBER_TOL)))
        j = rows[here]
        best_w[j], best[j], kkt[j] = w[here], dist[here], tn[here]
        if it == _NEWTON_ITER:
            break
        # a pair leaves once it is stationary or its gradient is not finite
        keep = np.flatnonzero(~stationary & np.isfinite(tn))
        rows, w, dist, alpha, at_best, step, slope = (
            a.take(keep, axis=0) for a in (rows, w, dist, alpha, at_best, step, slope))
        cand, _, feasible, _, _ = project_batch(F, w + alpha[:, None] * step,
                                                max_iter=_NEWTON_GN_ITER)
        cd = np.linalg.norm(cand - tgt[rows], axis=1)
        take = feasible & (cd * cd <= dist * dist + 2 * _ARMIJO * alpha * slope
                           + 2 * dist * FIBER_TOL)
        improved = take & (cd < best[rows])
        w = np.where(take[:, None], cand, w)
        at_best = improved | (at_best & ~take)
        dist = np.where(take, cd, dist)
        alpha = np.where(take, 1.0, 0.5 * alpha)
        # or once its group has come close enough, keeping its best point
        np.minimum.at(reached, group[rows], np.where(improved, dist, np.inf))
        done = (reached <= enough)[group[rows]]
        j = np.flatnonzero(done & improved)
        best_w[rows[j]], best[rows[j]], kkt[rows[j]] = w[j], dist[j], np.inf
        # or once its step length falls below _STEP_MIN
        keep = np.flatnonzero((alpha >= _STEP_MIN) & ~done)
        rows, w, dist, alpha, at_best = (
            a.take(keep, axis=0) for a in (rows, w, dist, alpha, at_best))
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
    _, dist, ok, kkt = minimize_fiber_distance(F, np.zeros_like(starts), starts)
    if not np.any(ok):
        raise ProjectionError("no start could be projected onto the zero set")
    best = int(np.argmin(dist))
    return DistanceResult(
        value=float(dist[best]),
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
