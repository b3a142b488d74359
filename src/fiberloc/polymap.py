"""Holomorphic polynomial maps C^n -> C^k and their zero sets.

A map is stored as one monomial table (exponent rows, a coefficient column
per component); f and its exact Jacobian are two plans over that table.
The zero set is traversed with Gauss-Newton projection; all point-wise
operations accept either a single point (n,) or a stack (P, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProjectionError, SingularityError, ValidationError

FIBER_TOL = 1e-10
RANK_TOL = 1e-8


def _as_points(z: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != n:
        raise ValidationError(f"expected points in C^{n}, got shape {z.shape}")
    return z, single


@dataclass(frozen=True)
class FiberPoint:
    """A point on (or numerically on) the zero set, with its residual |f(point)|."""

    point: np.ndarray
    residual: float


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
        # Df from the same table: each monomial holding z_l, with that exponent
        # lowered by one and its coefficients times the old one in columns (j, l).
        held = self._exps > 0
        d_exps = (self._exps[:, None, :] - np.eye(n, dtype=np.int64))[held]
        d_coeffs = np.einsum("mj,ml,lq->mljq", self._coeffs, self._exps, np.eye(n))[held]
        # A plan: per variable l, each monomial's row d * n + l in the power table.
        self._f_plan, self._df_plan = [
            (np.ascontiguousarray((e * n + np.arange(n)).T), c) for e, c in
            ((self._exps, self._coeffs), (d_exps, d_coeffs.reshape(-1, k * n)))]

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
    multiplication, serves every monomial."""
    pts, single = _as_points(z, F.n)
    idx, coeffs = plan
    pw = np.empty((F._deg + 1, F.n, pts.shape[0]), dtype=complex)
    pw[0] = 1
    pw[1:] = pts.T
    for d in range(2, F._deg + 1):
        pw[d] *= pw[d - 1]
    pw = pw.reshape(-1, pts.shape[0])
    mono = pw.take(idx[0], axis=0)
    for ell in range(1, F.n):
        mono *= pw.take(idx[ell], axis=0)
    out = mono.T.dot(coeffs)
    return out[0] if single else out


def eval_map(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Evaluate f at z. Returns shape (k,) for a single point, (P, k) stacked."""
    return _eval_plan(F, z, F._f_plan)


def eval_jacobian(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Exact holomorphic Jacobian (df_j / dz_l) at z; shape (k, n) or (P, k, n)."""
    out = _eval_plan(F, z, F._df_plan)
    return out.reshape(out.shape[:-1] + (F.k, F.n))


def residual_norm(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """|f(z)| as a float (single point) or (P,) array."""
    v = eval_map(F, z)
    r = np.linalg.norm(np.atleast_2d(v), axis=1)
    return float(r[0]) if v.ndim == 1 else r


def gradient_subspace(F: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n, k) of span{(grad f_j(z))^*}.

    This is the subspace the diffusion must annihilate to conserve f along
    a path. Raises SingularityError on Jacobian rank collapse (sigma_min
    below RANK_TOL).
    """
    J = eval_jacobian(F, z)
    if J.ndim != 2:
        raise ValidationError("gradient_subspace takes a single point")
    smin = np.linalg.svd(J, compute_uv=False)[-1]
    if smin < RANK_TOL:
        raise SingularityError(
            f"Jacobian rank-deficient (sigma_min={smin:.3e}); near a singular point"
        )
    Q, _ = np.linalg.qr(J.conj().T)
    return Q


# ---------------------------------------------------------------------------
# Gauss-Newton projection

def project_batch(F: PolynomialMap, z: np.ndarray, max_iter: int = 50):
    """Gauss-Newton projection of a stack of points onto the zero set.

    Iterates z <- z - J^* (J J^*)^{-1} f(z) on the points whose residual
    still exceeds FIBER_TOL, for at most max_iter iterations. A point whose
    Jacobian has sigma_min below RANK_TOL stops as singular; a point whose
    residual is not finite stops at once, neither converged nor singular.
    Returns (points, residuals, converged, singular, start_residuals) where
    the two masks flag per-point failure modes and start_residuals holds
    |f(z)| at the given points.
    """
    pts = np.array(z, dtype=complex, copy=True)
    fv = eval_map(F, pts)
    res = np.linalg.norm(fv, axis=1)
    start = res.copy()
    singular = np.zeros(pts.shape[0], dtype=bool)
    active = ~(res <= FIBER_TOL) & np.isfinite(res)
    for _ in range(max_iter):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        zi, fi = pts[idx], fv[idx]
        J = eval_jacobian(F, zi)
        G = J @ np.conj(np.swapaxes(J, -1, -2))
        gmin = np.linalg.eigvalsh(G)[:, 0]
        bad = gmin < RANK_TOL**2
        if np.any(bad):
            singular[idx[bad]] = True
            active[idx[bad]] = False
            good = ~bad
            idx, zi, fi, J, G = idx[good], zi[good], fi[good], J[good], G[good]
            if idx.size == 0:
                continue
        s = np.linalg.solve(G, fi[..., None])
        step = (np.conj(np.swapaxes(J, -1, -2)) @ s)[..., 0]
        pts[idx] = zi - step
        fv[idx] = eval_map(F, pts[idx])
        r = np.linalg.norm(fv[idx], axis=1)
        res[idx] = r
        active[idx] = ~(r <= FIBER_TOL) & np.isfinite(r)
    converged = (res <= FIBER_TOL) & ~singular
    return pts, res, converged, singular, start


def project_to_fiber(F: PolynomialMap, z: np.ndarray) -> FiberPoint:
    """Project a single point onto the zero set of F (residual <= FIBER_TOL)."""
    pts, single = _as_points(z, F.n)
    if not single:
        raise ValidationError("project_to_fiber takes a single point")
    out, res, conv, sing, _ = project_batch(F, pts)
    if sing[0]:
        raise SingularityError("Jacobian rank collapse during projection")
    if not conv[0]:
        raise ProjectionError(f"no convergence (residual {res[0]:.3e})")
    return FiberPoint(point=out[0], residual=float(res[0]))


# ---------------------------------------------------------------------------
# Distance to the origin along the zero set

@dataclass(frozen=True)
class DistanceResult:
    """Upper bound on the distance from the origin to the zero set."""

    value: float
    argmin: np.ndarray
    optimality_residual: float
    n_starts_converged: int


# Descent iterations of minimize_fiber_distance, and the Gauss-Newton
# iterations of each re-projection.
_DESCENT_ITER = 60
_DESCENT_GN_ITER = 30


def minimize_fiber_distance(F: PolynomialMap, targets: np.ndarray,
                            starts: np.ndarray):
    """Locally minimize |w - target| subject to f(w) = 0 from given starts.

    targets and starts are stacks of the same length. Projected gradient
    descent with per-point backtracking; every iterate is re-projected.
    Returns (w, dist, ok) with ok flagging starts whose projection stayed
    feasible.
    """
    tgt = np.atleast_2d(np.asarray(targets, dtype=complex))
    w, _, conv, _, _ = project_batch(F, starts, max_iter=_DESCENT_GN_ITER)
    ok = conv.copy()
    dist = np.where(ok, np.linalg.norm(w - tgt, axis=1), np.inf)
    eta = np.full(w.shape[0], 0.5)
    for _ in range(_DESCENT_ITER):
        idx = np.nonzero(ok & (eta > 1e-6))[0]
        if idx.size == 0:
            break
        zi = w[idx]
        J = eval_jacobian(F, zi)
        Q, _ = np.linalg.qr(np.conj(np.swapaxes(J, -1, -2)))
        g = zi - tgt[idx]
        tang = g - (Q @ (np.conj(np.swapaxes(Q, -1, -2)) @ g[..., None]))[..., 0]
        trial = zi - eta[idx, None] * tang
        cand, _, cconv, _, _ = project_batch(F, trial, max_iter=_DESCENT_GN_ITER)
        cdist = np.where(cconv, np.linalg.norm(cand - tgt[idx], axis=1), np.inf)
        better = cdist < dist[idx] - 1e-14
        imp = idx[better]
        w[imp] = cand[better]
        dist[imp] = cdist[better]
        eta[idx[~better]] *= 0.5
    return w, dist, ok


def distance_to_origin(F: PolynomialMap, n_starts: int = 16,
                       seed: int = 0) -> DistanceResult:
    """Upper bound on inf{|z| : f(z) = 0} from multi-start local minimization.

    The starts are the base point plus n_starts - 1 Gaussian perturbations
    of it. The reported value can only decrease when starts are added.
    """
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal((n_starts - 1, 2 * F.n))
    pert = pert[:, : F.n] + 1j * pert[:, F.n:]
    starts = np.vstack([F.base_point[None, :], F.base_point[None, :] + pert])
    w, dist, ok = minimize_fiber_distance(F, np.zeros_like(starts), starts)
    if not np.any(ok):
        raise ProjectionError("no start could be projected onto the zero set")
    best = int(np.argmin(dist))
    z = w[best]
    Q = gradient_subspace(F, z)
    tang = z - Q @ (Q.conj().T @ z)
    return DistanceResult(
        value=float(dist[best]),
        argmin=z,
        optimality_residual=float(np.linalg.norm(tang)),
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
