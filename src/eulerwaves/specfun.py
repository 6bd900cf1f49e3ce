"""Special functions needed by the solution catalogue.

Bessel evaluation is delegated to scipy.special; zero-finding, the Ferrers
associated Legendre functions (Condon-Shortley phase), Jacobi polynomials
and the hyperbolic-disk radial eigenmodes are implemented here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import solve_ivp
from scipy.special import jv, jvp, yv, yvp

from .rootfind import _IVP_OPTS, bisect_root, fit_dense, newton_polish, \
    scan_brackets

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_y",
    "bessel_y_prime",
    "bessel_j_zero",
    "assoc_legendre",
    "jacobi_poly",
    "jacobi_poly_deriv",
    "RadialMode",
    "hyperbolic_radial_mode",
]


# ---------------------------------------------------------------------------
# Bessel functions (scipy-backed values, own zero finder)
# ---------------------------------------------------------------------------


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x)."""
    return jv(nu, x)


def bessel_j_prime(nu, x):
    """d/dx J_nu(x)."""
    return jvp(nu, x)


def bessel_y(nu, x):
    """Bessel function of the second kind Y_nu(x), x > 0."""
    return yv(nu, x)


def bessel_y_prime(nu, x):
    """d/dx Y_nu(x)."""
    return yvp(nu, x)


def _mcmahon_zero(nu: float, k: int) -> float:
    """McMahon's large-zero asymptotic, used only to size the scan window."""
    b = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (b - (mu - 1) / (8 * b)
            - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * b) ** 3))


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (nu >= 0, k >= 1).

    Sign scan in steps of 0.5 (well below the minimal zero spacing) up to 50
    past McMahon's estimate, bisection to 1e-13 relative width, then a short
    Newton polish with J_nu'.
    """
    nu = float(nu)
    if nu < 0:
        raise ValueError("bessel_j_zero needs nu >= 0")
    if k < 1:
        raise ValueError("bessel_j_zero needs k >= 1")
    f = lambda x: jv(nu, x)
    hi_guess = _mcmahon_zero(nu, k) + 10.0
    x0 = max(nu, 0.25)
    steps = math.ceil((hi_guess + 50.0 - x0) / 0.5)
    root = bisect_root(f, *scan_brackets(f, x0, x0 + 0.5 * steps, steps + 1, k))
    return newton_polish(f, lambda t: jvp(nu, t), root)


# ---------------------------------------------------------------------------
# associated Legendre (Ferrers functions, Condon-Shortley phase)
# ---------------------------------------------------------------------------


def assoc_legendre(deg: int, order: int, x, derivative: bool = False):
    """Ferrers function P_deg^order(x) on (-1, 1) by stable upward recurrence.

    Includes the Condon-Shortley phase: P_1^1(x) = -sqrt(1 - x^2).
    With derivative=True also returns dP/dx (valid for |x| < 1).
    """
    deg, order = int(deg), int(order)
    if order < 0 or deg < 0 or order > deg:
        raise ValueError("need 0 <= order <= deg")
    x = np.asarray(x, dtype=float)

    # seed: P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(x)
    if order > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(order):
            pmm = -pmm * fact * somx2
            fact += 2.0
    if deg == order:
        p_prev, p = None, pmm
    else:
        p_prev, p = pmm, x * (2 * order + 1) * pmm
        for ell in range(order + 2, deg + 1):
            p_prev, p = p, ((2 * ell - 1) * x * p - (ell - 1 + order) * p_prev) \
                / (ell - order)
    if not derivative:
        return p
    # (1-x^2) dP_l^m/dx = (l+m) P_{l-1}^m - l x P_l^m
    if deg == order:
        below = np.zeros_like(x) if deg == 0 else assoc_legendre(deg - 1, order, x) \
            if order <= deg - 1 else np.zeros_like(x)
    else:
        below = p_prev
    dp = ((deg + order) * below - deg * x * p) / (1.0 - x ** 2)
    return p, dp


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------


def jacobi_poly(d: int, a: int, b: int, x):
    """Jacobi polynomial P_d^{(a,b)}(x) via the exact binomial sum."""
    d, a, b = int(d), int(a), int(b)
    if d < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    half_minus = (x - 1.0) / 2.0
    half_plus = (x + 1.0) / 2.0
    for s in range(d + 1):
        out = out + (math.comb(d + a, d - s) * math.comb(d + b, s)
                     * half_minus ** s * half_plus ** (d - s))
    return out


def jacobi_poly_deriv(d: int, a: int, b: int, x):
    """d/dx P_d^{(a,b)}(x) = (d+a+b+1)/2 * P_{d-1}^{(a+1,b+1)}(x)."""
    d = int(d)
    x = np.asarray(x, dtype=float)
    if d == 0:
        return np.zeros_like(x)
    return 0.5 * (d + a + b + 1) * jacobi_poly(d - 1, a + 1, b + 1, x)


# ---------------------------------------------------------------------------
# hyperbolic-disk radial eigenmodes
# ---------------------------------------------------------------------------

_SERIES_START = 1e-4


@dataclass
class RadialMode:
    """Radial profile R(r) of a hyperbolic-disk eigenmode.

    Solves R'' + coth(r) R' + (E - n^2/sinh(r)^2) R = 0 on (0, r_max) with
    R ~ r^n at the origin and R(r_max) = 0; E = 1/4 + beta^2 is the
    (positive) Laplace eigenvalue of the stream function R(r) e^{i n theta}.
    Profiles are stored as Chebyshev interpolants of the integrated solution
    (smooth to machine precision, safe to difference numerically) and
    normalized to sup |R| = 1.
    """

    order: int
    index: int
    beta: float
    eigenvalue: float
    r_max: float
    boundary_residual: float
    _proxy: cheb.Chebyshev
    _dproxy: cheb.Chebyshev
    _series_scale: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self._proxy(np.clip(r, _SERIES_START, self.r_max))
        small = r < _SERIES_START
        if np.any(small):
            out = np.where(small, self._series_scale * self._series(r), out)
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self._dproxy(np.clip(r, _SERIES_START, self.r_max))

    def _series(self, r):
        n, E = self.order, self.eigenvalue
        a2 = -(E + n * (n + 1) / 3.0) / (4.0 * (n + 1))
        rr = np.maximum(r, 0.0)
        return rr ** n * (1.0 + a2 * rr ** 2)


def _hyperbolic_rhs(E: float, n: int):
    def rhs(r, y):
        s = np.sinh(r)
        return [y[1], -y[1] / np.tanh(r) - (E - n * n / (s * s)) * y[0]]
    return rhs


def _hyperbolic_initial(E: float, n: int, r0: float):
    a2 = -(E + n * (n + 1) / 3.0) / (4.0 * (n + 1))
    R = r0 ** n * (1.0 + a2 * r0 ** 2)
    dR = n * r0 ** (n - 1) * (1.0 + a2 * r0 ** 2) + r0 ** n * 2.0 * a2 * r0
    return [R, dR]


def _shoot_endpoint(beta: float, n: int, r_max: float) -> float:
    E = 0.25 + beta * beta
    r0 = _SERIES_START
    sol = solve_ivp(_hyperbolic_rhs(E, n), (r0, r_max),
                    _hyperbolic_initial(E, n, r0), **_IVP_OPTS)
    return sol.y[0, -1]


def hyperbolic_radial_mode(n: int, m: int, r_max: float = 1.0,
                           beta_max: float = 40.0) -> RadialMode:
    """m-th Dirichlet radial mode of order n on the hyperbolic disk.

    Shooting on beta: integrate from a Frobenius start r^n (1 + a2 r^2) at
    r = 1e-4, scan the endpoint value up to its m-th sign change on
    (0.05, beta_max), bisect that bracket, then store the converged profile
    as a Chebyshev interpolant.  Modes are cached per argument set.
    """
    n, m = int(n), int(m)
    if n < 0:
        raise ValueError("radial order n must be >= 0 (pass |n|)")
    if m < 1:
        raise ValueError("mode index m must be >= 1")
    return _radial_mode(n, m, float(r_max), float(beta_max))


@functools.lru_cache(maxsize=None)
def _radial_mode(n, m, r_max, beta_max):
    endpoint = lambda beta: _shoot_endpoint(beta, n, r_max)
    beta = bisect_root(endpoint,
                       *scan_brackets(endpoint, 0.05, beta_max, 400, m))
    E = 0.25 + beta * beta

    r0 = _SERIES_START
    sol = solve_ivp(_hyperbolic_rhs(E, n), (r0, r_max),
                    _hyperbolic_initial(E, n, r0), dense_output=True,
                    **_IVP_OPTS)
    raw = fit_dense(sol.sol, r0, r_max)[0]
    # normalize to sup |R| = 1: dense grid argmax, then Newton on R' = 0
    draw, d2raw = raw.deriv(), raw.deriv(2)
    dense = np.linspace(r0, r_max, 4001)
    r_star = dense[np.argmax(np.abs(raw(dense)))]
    for _ in range(4):
        curv = d2raw(r_star)
        if curv == 0.0:
            break
        step = draw(r_star) / curv
        r_new = min(max(r_star - step, r0), r_max)
        if abs(r_new - r_star) < 1e-15:
            break
        r_star = r_new
    scale = 1.0 / max(np.max(np.abs(raw(dense))), abs(raw(r_star)))
    proxy = scale * raw
    return RadialMode(
        order=n, index=m, beta=float(beta), eigenvalue=float(E),
        r_max=r_max, boundary_residual=float(scale * sol.y[0, -1]),
        _proxy=proxy, _dproxy=proxy.deriv(), _series_scale=float(scale),
    )
