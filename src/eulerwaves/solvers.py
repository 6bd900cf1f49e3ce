"""Dispersion relations and the c-metric curl eigenmode solver.

Two closed-form dispersion relations back the cylinder catalogue entries:

* ck_dispersion_root:  m beta J_n'(beta) + n alpha J_n(beta) = 0 with
  alpha = sqrt(beta^2 + m^2), for columnar modes in the solid cylinder;
* crossproduct_root:   J_nu(k a) Y_nu(k b) - J_nu(k b) Y_nu(k a) = 0, the
  two-wall condition that closes separable annulus modes.

General twisted annuli (metric controlled by a radial profile phi and twist
parameter c) have no closed form; solve_cmetric_mode solves the first-order
system for the mode amplitudes (g, h, f) across the gap by Chebyshev
collocation, as a generalized eigenproblem in the curl eigenvalue alpha with
the wall condition at both ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.linalg import eig

from .rootfind import SolverError, bisect_root, cheb, collocate, \
    scan_brackets
from .specfun import bessel_j, bessel_j_prime, bessel_y

__all__ = [
    "SolverError",
    "ck_dispersion_root",
    "crossproduct_root",
    "CMetricProfile",
    "CMetricMode",
    "solve_cmetric_mode",
]

def ck_dispersion_root(n: int, m: int, branch: int = 1,
                       beta_max: float = 80.0) -> tuple:
    """branch-th positive root of  m beta J_n'(beta) + n alpha J_n(beta) = 0.

    Returns (beta, alpha) with alpha = sqrt(beta^2 + m^2) > 0.  For n = 0
    the condition collapses to beta J_1(beta) = 0.
    """
    n, m, branch = int(n), int(m), int(branch)
    if n == 0 and m == 0:
        raise ValueError("mode numbers (n, m) = (0, 0) carry no wave")
    if branch < 1:
        raise ValueError("branch index must be >= 1")

    def D(beta):
        alpha = math.sqrt(beta * beta + m * m)
        return (m * beta * bessel_j_prime(n, beta)
                + n * alpha * bessel_j(n, beta))

    beta = bisect_root(D, *scan_brackets(D, 0.05, beta_max, 1600, branch))
    return float(beta), float(math.sqrt(beta * beta + m * m))


def crossproduct_root(nu: float, a: float, b: float, branch: int = 1,
                      k_max: Optional[float] = None) -> float:
    """branch-th positive root of J_nu(ka) Y_nu(kb) - J_nu(kb) Y_nu(ka)."""
    nu, a, b = float(nu), float(a), float(b)
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    if branch < 1:
        raise ValueError("branch index must be >= 1")
    if k_max is None:
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


@dataclass(frozen=True)
class CMetricProfile:
    """Radial data of a twisted-product metric on [r_lo, r_hi]:

        g = diag-ish [1; phi^2, c; c, c^2/phi^2 + phi'^2]

    phi and dphi must accept numpy arrays.  `linear` gives phi(r) = r, one
    instance per (c, r_lo, r_hi), so the modes solved on it stay cached.
    """

    phi: Callable
    dphi: Callable
    c: float
    r_lo: float
    r_hi: float
    label: str = "c-metric"

    @classmethod
    @functools.lru_cache(maxsize=None)
    def linear(cls, c: float, r_lo: float, r_hi: float) -> "CMetricProfile":
        return cls(phi=lambda r: np.asarray(r, dtype=float),
                   dphi=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                   c=float(c), r_lo=float(r_lo), r_hi=float(r_hi),
                   label=f"linear(c={c})")


@dataclass
class CMetricMode:
    """A wall-to-wall eigenmode of the twisted annulus.

    g and h are the rotational/axial mode amplitudes, f the radial one,
    reconstructed as f = (n h - (m - c n/phi^2) g)/(alpha phi phi').
    Profiles are the chopped Chebyshev series of the collocation eigenvector.
    """

    profile: CMetricProfile
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

    def f(self, r):
        r = np.asarray(r, dtype=float)
        p = self.profile
        phi = np.asarray(p.phi(r), dtype=float)
        dphi = np.asarray(p.dphi(r), dtype=float)
        mu = self.m - p.c * self.n / phi ** 2
        return (self.n * self.h(r) - mu * self.g(r)) / (self.alpha * phi * dphi)


def solve_cmetric_mode(profile: CMetricProfile, n: int, m: int,
                       branch: int = 1) -> CMetricMode:
    """Locate the branch-th curl eigenvalue alpha above 0.1 and its mode.

    Chebyshev collocation of the linear pencil A y = alpha B y in (g, h, f),
    with mu = m - c n/phi^2:

        g' + n f                       =  alpha (phi/phi') h
        h' - (2 c phi'/phi^3) g + mu f =  -alpha (phi'/phi) g
        n h - mu g                     =  alpha phi phi' f

    f vanishes at the walls, where the last row becomes the wall condition
    n h - mu g = 0; the g-row at r_lo and the h-row at r_hi are dropped.
    (g, h)(r_lo) is the unit vector along (n, mu(r_lo)).  Modes are cached
    per argument set.
    """
    n, m, branch = int(n), int(m), int(branch)
    if n == 0 and m == 0:
        raise ValueError("mode numbers (n, m) = (0, 0) carry no wave")
    if branch < 1:
        raise ValueError("branch index must be >= 1")
    if not (0.0 < profile.r_lo < profile.r_hi < math.inf
            and math.isfinite(profile.c)):
        raise ValueError("the c-metric needs 0 < r_lo < r_hi < inf and a "
                         "finite c")
    return _cmetric_mode(profile, n, m, branch)


@functools.lru_cache(maxsize=None)
def _cmetric_mode(profile, n, m, branch):
    a, b, c = profile.r_lo, profile.r_hi, profile.c

    def solve(N):
        x, D = cheb(N)  # point 0 is r_hi, point N is r_lo
        r = a + 0.5 * (b - a) * (x + 1.0)
        D = D * (2.0 / (b - a))
        phi = np.asarray(profile.phi(r), dtype=float)
        dphi = np.asarray(profile.dphi(r), dtype=float)
        mu = m - c * n / phi ** 2
        I, Z = np.eye(N + 1), np.zeros((N + 1, N + 1))
        F = I[:, 1:N]  # f lives on the interior points only
        A = np.block([[D, Z, n * F],
                      [np.diag(-2.0 * c * dphi / phi ** 3), D, mu[:, None] * F],
                      [np.diag(-mu), n * I, 0.0 * F]])
        B = np.block([[Z, np.diag(phi / dphi), 0.0 * F],
                      [np.diag(-dphi / phi), Z, 0.0 * F],
                      [Z, Z, (phi * dphi)[:, None] * F]])
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
    g, h = (Chebyshev(cf, domain=[a, b]) for cf in (g_coefs, h_coefs))
    mu_b = m - c * n / float(profile.phi(np.array([b]))[0]) ** 2
    return CMetricMode(
        profile=profile, n=n, m=m, branch=branch, alpha=alpha,
        boundary_residual=float(n * h(b) - mu_b * g(b)),
        _g=g, _h=h, _dg=g.deriv(), _dh=h.deriv(),
    )
