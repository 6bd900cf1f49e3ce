"""Special functions needed by the solution catalogue.

Bessel evaluation is delegated to scipy.special; zero-finding (scan and
bisection), the Ferrers associated Legendre functions (Condon-Shortley
phase), Jacobi polynomials and the hyperbolic-disk radial eigenmodes
(Chebyshev collocation) are implemented here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.special import jv, jvp, yv, yvp

from .rootfind import SolverError, bisect_root, cheb, collocate, \
    newton_polish, scan_brackets

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

@dataclass
class RadialMode:
    """Radial profile R(r) of a hyperbolic-disk eigenmode.

    Solves R'' + coth(r) R' + (E - n^2/sinh(r)^2) R = 0 on (0, r_max) with
    R ~ r^n at the origin and R(r_max) = 0; E = 1/4 + beta^2 is the
    (positive) Laplace eigenvalue of the stream function R(r) e^{i n theta}.
    The profile is a chopped Chebyshev series on [-r_max, r_max] of parity
    (-1)^n (smooth to machine precision down to r = 0, safe to difference
    numerically), normalized to sup |R| = 1 and R > 0 on the first lobe.
    """

    order: int
    index: int
    beta: float
    eigenvalue: float
    r_max: float
    boundary_residual: float
    _proxy: Chebyshev
    _dproxy: Chebyshev

    def value(self, r):
        return self._proxy(np.asarray(r, dtype=float))

    def derivative(self, r):
        return self._dproxy(np.asarray(r, dtype=float))


def hyperbolic_radial_mode(n: int, m: int, r_max: float = 1.0) -> RadialMode:
    """m-th Dirichlet radial mode of order n on the hyperbolic disk.

    Chebyshev collocation on [-r_max, r_max] folded by the parity (-1)^n of
    the mode (Trefethen, Spectral Methods in MATLAB, ch. 11): the operator
    acts on the positive interior points, N is odd so r = 0 is not a point,
    and R(r_max) = 0 because that point is dropped.  The m-th smallest
    E = -eigenvalue is the mode.  Modes are cached per argument set.
    """
    n, m = int(n), int(m)
    if n < 0:
        raise ValueError("radial order n must be >= 0 (pass |n|)")
    if m < 1:
        raise ValueError("mode index m must be >= 1")
    r_max = float(r_max)
    if not 0.0 < r_max < math.inf:
        raise ValueError("the disk radius r_max must be positive and finite")
    return _radial_mode(n, m, r_max)


@functools.lru_cache(maxsize=None)
def _radial_mode(n, m, r_max):
    parity = (-1.0) ** n

    def solve(N):
        K = (N - 1) // 2  # points with 0 < r < r_max; point N - j mirrors j
        if K < m:
            raise SolverError(f"only {K} radial modes at N = {N}, need {m}")
        x, D = cheb(N)
        D = D / r_max
        r = r_max * x[1:K + 1]
        rows = (D @ D)[1:K + 1] + D[1:K + 1] / np.tanh(r)[:, None]
        A = (rows[:, 1:K + 1] + parity * rows[:, N - 1:K:-1]
             - np.diag(n * n / np.sinh(r) ** 2))
        w, V = np.linalg.eig(A)
        k = np.argsort(-w.real)[m - 1]
        v = V[:, k].real
        R = np.zeros(N + 1)
        R[1:K + 1], R[N - 1:K:-1] = v, parity * v
        return float(-w[k].real), [R]

    E, (coefs,) = collocate(solve)
    raw = Chebyshev(coefs, domain=[-r_max, r_max])
    # sup |R| over the critical points and the ends; the sign of R ~ a r^n
    # is the sign of the n-th derivative at the origin
    crit = np.clip(raw.deriv().roots().real, 0.0, r_max)
    proxy = raw * (np.sign(raw.deriv(n)(0.0))
                   / np.max(np.abs(raw(np.append(crit, [0.0, r_max])))))
    return RadialMode(
        order=n, index=m, beta=math.sqrt(E - 0.25), eigenvalue=E,
        r_max=r_max, boundary_residual=float(proxy(r_max)),
        _proxy=proxy, _dproxy=proxy.deriv(),
    )
