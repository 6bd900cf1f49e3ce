"""Dispersion relations and the c-metric curl eigenmode solver.

Two closed-form dispersion relations back the cylinder catalogue entries:

* ck_dispersion_root:  m beta J_n'(beta) + n alpha J_n(beta) = 0 with
  alpha = sqrt(beta^2 + m^2), for columnar modes in the solid cylinder;
* crossproduct_root:   J_nu(k a) Y_nu(k b) - J_nu(k b) Y_nu(k a) = 0, the
  two-wall condition that closes separable annulus modes.

The twisted annulus, g = dr^2 + r^2 dtheta^2 + 2c dtheta dz + (c^2/r^2 + 1)
dz^2 on r_lo <= r <= r_hi (the radial profile phi = r, twist c), has no
closed form for general (c, n, m); solve_cmetric_mode solves the first-order
system for the mode amplitudes (g, h, f) across the gap by Chebyshev
collocation, as a generalized eigenproblem in the curl eigenvalue alpha with
the wall condition at both ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.linalg import eig

from .rootfind import SolverError, _as_int, bisect_root, cheb, collocate, \
    scan_brackets
from .specfun import bessel_j, bessel_j_prime, bessel_y

__all__ = [
    "SolverError",
    "ck_dispersion_root",
    "crossproduct_root",
    "CMetricMode",
    "solve_cmetric_mode",
]

def ck_dispersion_root(n: int, m: int, branch: int = 1) -> tuple:
    """branch-th positive root of  m beta J_n'(beta) + n alpha J_n(beta) = 0
    on 0.05 <= beta <= 80.

    Returns (beta, alpha) with alpha = sqrt(beta^2 + m^2) > 0.  For n = 0
    the condition collapses to beta J_1(beta) = 0.
    """
    n, m, branch = _as_int("n", n), _as_int("m", m), _as_int("branch", branch)
    if n == 0 and m == 0:
        raise ValueError("mode numbers (n, m) = (0, 0) carry no wave")
    if branch < 1:
        raise ValueError("branch index must be >= 1")

    def D(beta):
        alpha = math.sqrt(beta * beta + m * m)
        return (m * beta * bessel_j_prime(n, beta)
                + n * alpha * bessel_j(n, beta))

    beta = bisect_root(D, *scan_brackets(D, 0.05, 80.0, 1600, branch))
    return float(beta), float(math.sqrt(beta * beta + m * m))


def crossproduct_root(nu: float, a: float, b: float, branch: int = 1) -> float:
    """branch-th positive root of J_nu(ka) Y_nu(kb) - J_nu(kb) Y_nu(ka)."""
    nu, a, b, branch = float(nu), float(a), float(b), _as_int("branch", branch)
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    if branch < 1:
        raise ValueError("branch index must be >= 1")
    # roots are asymptotically pi/(b-a) apart
    k_max = (branch + 6) * math.pi / (b - a)

    def f(k):
        return (bessel_j(nu, k * a) * bessel_y(nu, k * b)
                - bessel_j(nu, k * b) * bessel_y(nu, k * a))

    lo = 1e-3 / (b - a)
    return float(bisect_root(
        f, *scan_brackets(f, lo, k_max, max(2000, 200 * branch), branch)))


# ---------------------------------------------------------------------------
# c-metric curl eigenmodes
# ---------------------------------------------------------------------------


@dataclass
class CMetricMode:
    """A wall-to-wall eigenmode of the twisted annulus.

    g and h are the rotational/axial mode amplitudes; the radial one is
    f = (n h - (m - c n/r^2) g)/(alpha r).  Profiles are the chopped
    Chebyshev series of the collocation eigenvector.
    """

    c: float
    r_lo: float
    r_hi: float
    n: int
    m: int
    branch: int
    alpha: float
    boundary_residual: float
    _g: Chebyshev
    _h: Chebyshev
    _dg: Chebyshev
    _dh: Chebyshev

    def g(self, r):
        return self._g(np.asarray(r, dtype=float))

    def h(self, r):
        return self._h(np.asarray(r, dtype=float))

    def dg(self, r):
        return self._dg(np.asarray(r, dtype=float))

    def dh(self, r):
        return self._dh(np.asarray(r, dtype=float))


def solve_cmetric_mode(c: float, r_lo: float, r_hi: float, n: int, m: int,
                       branch: int = 1) -> CMetricMode:
    """Locate the branch-th curl eigenvalue alpha above 0.1 and its mode on
    the twisted annulus r_lo <= r <= r_hi with twist c (phi = r).

    Chebyshev collocation of the linear pencil A y = alpha B y in (g, h, f),
    with mu = m - c n/r^2:

        g' + n f                 =  alpha r h
        h' - (2 c/r^3) g + mu f  =  -alpha g/r
        n h - mu g               =  alpha r f

    f vanishes at the walls, where the last row becomes the wall condition
    n h - mu g = 0; the g-row at r_lo and the h-row at r_hi are dropped.
    (g, h)(r_lo) is the unit vector along (n, mu(r_lo)).  Modes are cached
    per argument set.
    """
    n, m, branch = _as_int("n", n), _as_int("m", m), _as_int("branch", branch)
    c, r_lo, r_hi = float(c), float(r_lo), float(r_hi)
    if n == 0 and m == 0:
        raise ValueError("mode numbers (n, m) = (0, 0) carry no wave")
    if branch < 1:
        raise ValueError("branch index must be >= 1")
    if not (0.0 < r_lo < r_hi < math.inf and math.isfinite(c)):
        raise ValueError("the c-metric needs 0 < r_lo < r_hi < inf and a "
                         "finite c")
    return _cmetric_mode(c, r_lo, r_hi, n, m, branch)


@functools.lru_cache(maxsize=None)
def _cmetric_mode(c, r_lo, r_hi, n, m, branch):
    def solve(N):
        x, D = cheb(N)  # point 0 is r_hi, point N is r_lo
        r = r_lo + 0.5 * (r_hi - r_lo) * (x + 1.0)
        D = D * (2.0 / (r_hi - r_lo))
        mu = m - c * n / r ** 2
        I, Z = np.eye(N + 1), np.zeros((N + 1, N + 1))
        F = I[:, 1:N]  # f lives on the interior points only
        A = np.block([[D, Z, n * F],
                      [np.diag(-2.0 * c / r ** 3), D, mu[:, None] * F],
                      [np.diag(-mu), n * I, 0.0 * F]])
        B = np.block([[Z, np.diag(r), 0.0 * F],
                      [np.diag(-1.0 / r), Z, 0.0 * F],
                      [Z, Z, r[:, None] * F]])
        # drop the g-row at r_lo and the h-row at r_hi; the other three
        # choices of one g- or h-row per wall admit spurious eigenvalues
        keep = np.delete(np.arange(3 * N + 3), [N, N + 1])
        w, V = eig(A[keep], B[keep])  # the two wall rows give alpha = inf
        found = np.flatnonzero(np.isfinite(w) & (w.imag == 0.0)
                               & (w.real > 0.1))
        if len(found) < branch:
            raise SolverError(f"only {len(found)} curl eigenvalues above 0.1 "
                              f"at N = {N}, need {branch}")
        k = found[np.argsort(w.real[found])[branch - 1]]
        y = V[:, k]
        y = (y * math.hypot(n, mu[N]) / (n * y[N] + mu[N] * y[2 * N + 1])).real
        return float(w[k].real), [y[:N + 1], y[N + 1:2 * N + 2]]

    alpha, (g_coefs, h_coefs) = collocate(solve)
    g, h = (Chebyshev(cf, domain=[r_lo, r_hi]) for cf in (g_coefs, h_coefs))
    mu_b = m - c * n / r_hi ** 2
    return CMetricMode(
        c=c, r_lo=r_lo, r_hi=r_hi, n=n, m=m, branch=branch, alpha=alpha,
        boundary_residual=float(n * h(r_hi) - mu_b * g(r_hi)),
        _g=g, _h=h, _dg=g.deriv(), _dh=h.deriv(),
    )
