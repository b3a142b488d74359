"""Closed-form Gaussian measures of discs and tubes, expectations against
complex Gaussians, the tilt-inequality oracle, and circled-norm geometry.

Conventions: the standard Gaussian on C^k has unit-variance real
coordinates, so |z - v|^2 is a noncentral chi-square with 2k degrees of
freedom and noncentrality |v|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import check_hermitian
from .localize import ComplexGaussian

SERIES_TAIL = 1e-14
SERIES_MAX_TERMS = 100_000
# The off-center series starts from exp(-d^2/2) and exp(-r^2/2); past this
# exponent they leave the normal float range and the sum loses its value.
SERIES_MAX_EXPONENT = -math.log(np.finfo(float).tiny)     # 708.39...
TILT_TOL = 1e-6        # slack of the tilt check's quadrature comparison


# ---------------------------------------------------------------------------
# Disc and tube measures

def _central_disc_cdf(k: int, x: float) -> float:
    # P(chi^2_{2k} <= x) = 1 - e^{-x/2} sum_{j<k} (x/2)^j / j!
    s = 0.0
    term = 1.0
    for j in range(k):
        if j > 0:
            term *= (x / 2) / j
        s += term
    return 1.0 - math.exp(-x / 2) * s


def disc_measure(k: int, center_norm: float, radius: float) -> float:
    """Standard Gaussian measure of the disc {|z - v| <= radius} in C^k.

    Central case is the exact closed form; the off-center case is the
    Poisson mixture over central terms, truncated once the remaining
    Poisson mass drops below 1e-14. The off-center case needs
    center_norm^2 / 2 and radius^2 / 2 at most SERIES_MAX_EXPONENT (both
    at most about 37.64) and raises DomainError beyond.
    """
    if k < 1:
        raise ValidationError(f"complex dimension must be >= 1, got {k}")
    if center_norm < 0 or radius < 0:
        raise ValidationError("center_norm and radius must be nonnegative")
    if radius == 0:
        return 0.0
    x = radius * radius
    if center_norm == 0:
        return _central_disc_cdf(k, x)
    c = center_norm * center_norm / 2          # Poisson mean
    if max(c, x / 2) > SERIES_MAX_EXPONENT:
        raise DomainError(
            f"disc_measure({k}, {center_norm}, {radius}): the series underflows "
            f"once center_norm or radius exceeds {math.sqrt(2 * SERIES_MAX_EXPONENT):.4f}"
        )
    w = math.exp(-c)
    cumw = w
    # term = e^{-x/2} (x/2)^{k-1} / (k-1)! ; C = central cdf with k terms
    term = math.exp(-x / 2)
    for j in range(1, k):
        term *= (x / 2) / j
    C = _central_disc_cdf(k, x)
    total = w * C
    for m in range(1, SERIES_MAX_TERMS):
        if 1.0 - cumw < SERIES_TAIL:
            break
        w *= c / m
        cumw += w
        term *= (x / 2) / (k + m - 1)
        C -= term
        total += w * C
    return min(max(total, 0.0), 1.0)


def affine_tube_measure(n: int, k: int, d: float, r: float) -> float:
    """Gaussian measure of the r-tube around an (n-k)-dimensional complex
    affine subspace of C^n at distance d from the origin.

    Reduces to the disc measure in the k-dimensional orthogonal complement,
    so the value does not depend on n.
    """
    if not (1 <= k <= n):
        raise ValidationError(f"need 1 <= k <= n, got n={n}, k={k}")
    return disc_measure(k, d, r)


# ---------------------------------------------------------------------------
# Test functionals and expectations against complex Gaussians

@dataclass(frozen=True)
class One:
    """The constant functional 1."""

    label: str = "one"


@dataclass(frozen=True)
class SqNorm:
    """|z|^2."""

    label: str = "sq_norm"


class HalfSpace:
    """Indicator of the half-space Re(u^* z) > c."""

    def __init__(self, u, c: float = 0.0):
        self.u = np.asarray(u, dtype=complex)
        self.c = float(c)
        self.label = f"half_space(c={self.c})"


class BoundedExp:
    """min(exp(Re(u^* z)), M)."""

    def __init__(self, u, M: float):
        if M <= 0:
            raise ValidationError("cap M must be positive")
        self.u = np.asarray(u, dtype=complex)
        self.M = float(M)
        self.label = f"bounded_exp(M={self.M})"


def _phi(x):
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(-x / math.sqrt(2))


def _mills(z):
    """Mills ratio R(z) = Phi(-z) / phi(z) at z >= 0: from erfc below
    z = 36, from its asymptotic series (1/z) sum (-1)^j (2j-1)!! / z^{2j}
    above, where erfc underflows. Each form is evaluated on a clipped z."""
    zc = np.clip(z, 0.0, 36.0)
    near = math.sqrt(2 * math.pi) * _phi(-zc) * np.exp(zc * zc / 2)
    iz = 1 / np.maximum(z, 36.0)
    far = 1.0
    for c in range(15, 0, -2):
        far = 1 - c * iz * iz * far
    return np.where(z < 36.0, near, iz * far)


def _linear_marginal(mu: ComplexGaussian, u: np.ndarray):
    # Re(u^* z) is Gaussian with mean Re(u^* a) and variance u^* A u / 2.
    if u.shape != mu.center.shape[-1:]:
        raise ValidationError("direction dimension mismatch")
    m = np.real(mu.center @ u.conj())
    var = np.real((mu.covariance @ u) @ u.conj()) / 2
    return m, np.sqrt(np.maximum(var, 0.0))


def _bounded_exp(m, s, M: float):
    """E min(e^X, M) for X ~ N(m, s^2), s = 0 included, without overflow.

    With t = log M, y = (t - m) / s and z = s - y it is
    e^{m + s^2/2} Phi(-z) + M Phi(-y). Where z > 0 the first term is
    M phi(y) R(z), since e^{m + s^2/2} phi(z) = M phi(y), and where y > 30
    the second is M phi(y) R(y). M phi(y) is one exponential,
    e^{t - y^2/2} / sqrt(2 pi), which stays in the float range where M and
    phi(y) apart leave it.
    """
    t = math.log(M)
    s1 = np.where(s > 0, s, 1.0)
    y = (t - m) / s1
    z = s1 - y
    # where z <= 0, m + s^2/2 <= (m + t)/2 <= t: the clip only guards the other rows
    low = np.exp(np.minimum(m + s1 * s1 / 2, t)) * _phi((t - m - s1 * s1) / s1)
    yc = np.minimum(np.abs(y), 1e150)           # y^2 stays finite; e^{t - y^2/2} is 0 by then
    m_phi = np.exp(t - yc * yc / 2) / math.sqrt(2 * math.pi)
    first = np.where(z <= 0, low, m_phi * _mills(z))
    cap = np.where(y > 30, m_phi * _mills(y), M * _phi(-y))
    return np.where(s > 0, first + cap, np.minimum(np.exp(np.minimum(m, t)), M))


def gaussian_expectation(mu: ComplexGaussian, phi) -> float | np.ndarray:
    """Expectation of a supported test functional under a complex Gaussian
    (a float), or under each Gaussian of a stack (an array of shape (P,)).

    All supported functionals reduce to closed forms of a one-real-
    dimensional marginal, valid also on rank-deficient support.
    """
    if isinstance(phi, One):
        val = np.ones(mu.center.shape[:-1])
    elif isinstance(phi, SqNorm):
        val = (np.linalg.norm(mu.center, axis=-1) ** 2
               + np.real(np.trace(mu.covariance, axis1=-2, axis2=-1)))
    elif isinstance(phi, HalfSpace):
        m, s = _linear_marginal(mu, phi.u)
        x = m - phi.c
        val = np.where(s == 0.0, (np.sign(x) + 1) / 2, _phi(x / np.where(s > 0, s, 1.0)))
    elif isinstance(phi, BoundedExp):
        val = _bounded_exp(*_linear_marginal(mu, phi.u), phi.M)
    else:
        raise ValidationError(f"unsupported functional {phi!r}")
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# Tilt inequality oracle

def _tilted_disc_mass(b: np.ndarray, v: np.ndarray, R: float, rule) -> float:
    """integral over {|z| <= R} of exp(Re(v^* z)) against the centered
    Gaussian with diagonal precision b on C^k, by Gauss-Legendre quadrature
    in the moduli, with the rule (nodes, weights) on [-1, 1].

    The first coordinate is integrated in polar form: at modulus s the
    angular average of exp(|v| s cos(theta)) is I_0(|v| s). For k = 2 the
    integrand at each of its moduli s is multiplied by the integral over
    the second coordinate, on the disc of radius sqrt(R^2 - s^2), so every
    integrand stays smooth.
    """
    x, wgt = rule
    s = R * (x + 1) / 2
    ws = wgt * R / 2
    integrand = b[0] * s * np.exp(-b[0] * s * s / 2) * np.i0(np.abs(v[0]) * s)
    if len(b) == 2:
        integrand = integrand * np.array([
            _tilted_disc_mass(b[1:], v[1:], math.sqrt(max(R * R - si * si, 0.0)), rule)
            for si in s
        ])
    return float(np.sum(ws * integrand))


@dataclass(frozen=True)
class TiltCheck:
    lhs: float
    rhs: float
    holds: bool


def tilt_inequality_check(B: np.ndarray, v: np.ndarray, R: float) -> TiltCheck:
    """Check the curved-Gaussian tilt inequality on C^k (k <= 2).

    For a centered complex Gaussian mu with precision B >= Id:

        integral_{|z|<=R} e^{Re(v^* z)} dmu  >=
            gamma_k(disc(v, R)) * integral e^{Re(v^* z)} dmu.

    Both the left side and the disc-measure factor are computed by
    quadrature (_tilted_disc_mass); the total tilted mass has the exact
    closed form exp(v^* B^{-1} v / 2).
    """
    B = check_hermitian(B)
    k = B.shape[0]
    if k > 2:
        raise ValidationError("tilt check supports complex dimension k <= 2")
    v = np.asarray(v, dtype=complex).reshape(k)
    if R < 0:
        raise ValidationError("radius must be nonnegative")
    w, U = np.linalg.eigh(B)
    if w[0] < 1 - 1e-10:
        raise DomainError("precision matrix must dominate the identity")
    vt = U.conj().T @ v
    rule = np.polynomial.legendre.leggauss(400 if k == 1 else 200)
    lhs = _tilted_disc_mass(w, vt, R, rule)
    total = math.exp(float(np.sum(np.abs(vt) ** 2 / (2 * w))))
    gk = math.exp(-float(np.linalg.norm(v) ** 2) / 2) * _tilted_disc_mass(
        np.ones(k), v, R, rule)
    rhs = gk * total
    return TiltCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs - TILT_TOL)


# ---------------------------------------------------------------------------
# Circled-norm geometry (diagonal norm balls K = {|W z| <= 1})

@dataclass(frozen=True)
class CircledGeometry:
    """Inradius data of K = {|diag(w) z| <= 1}: the largest Euclidean ball
    r_K B^n inside K, a contact point z0, and the hyperplane H = z0-perp
    with K contained in H + r_K B^n."""

    r_K: float
    z0: np.ndarray
    H: np.ndarray          # (n, n-1) orthonormal basis


def circled_norm_geometry(weights) -> CircledGeometry:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
        raise ValidationError("weights must be a nonempty vector of positive reals")
    n = w.size
    j = int(np.argmax(w))          # ties: smallest index
    r_K = 1.0 / w[j]
    z0 = np.zeros(n, dtype=complex)
    z0[j] = r_K
    H = np.delete(np.eye(n, dtype=complex), j, axis=1)
    return CircledGeometry(r_K=r_K, z0=z0, H=H)
