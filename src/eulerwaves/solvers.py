"""Dispersion relations and the c-metric boundary-value shooting solver.

Two closed-form dispersion relations back the cylinder catalogue entries:

* ck_dispersion_root:  m beta J_n'(beta) + n alpha J_n(beta) = 0 with
  alpha = sqrt(beta^2 + m^2), for columnar modes in the solid cylinder;
* crossproduct_root:   J_nu(k a) Y_nu(k b) - J_nu(k b) Y_nu(k a) = 0, the
  two-wall condition that closes separable annulus modes.

General twisted annuli (metric controlled by a radial profile phi and twist
parameter c) have no closed form; solve_cmetric_mode shoots the coupled
first-order system for the mode amplitudes (g, h) across the gap and tunes
the curl eigenvalue alpha until the wall condition holds at both ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import solve_ivp

from .rootfind import _IVP_OPTS, SolverError, bisect_root, fit_dense, \
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
# c-metric shooting
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
    Profiles are Chebyshev interpolants of the shot solution.
    """

    profile: CMetricProfile
    n: int
    m: int
    branch: int
    alpha: float
    boundary_residual: float
    _g: cheb.Chebyshev
    _h: cheb.Chebyshev
    _dg: cheb.Chebyshev
    _dh: cheb.Chebyshev

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


def _cmetric_rhs(profile: CMetricProfile, n: int, m: int, alpha: float):
    c = profile.c

    def rhs(r, y):
        g, h = y
        phi = float(profile.phi(np.array([r]))[0])
        dphi = float(profile.dphi(np.array([r]))[0])
        mu = m - c * n / phi ** 2
        den = alpha * phi * dphi
        dg = (n * mu * g + (alpha ** 2 * phi ** 2 - n ** 2) * h) / den
        dh = ((2 * c * alpha * dphi ** 2 / phi ** 2 + mu ** 2
               - alpha ** 2 * dphi ** 2) * g - n * mu * h) / den
        return [dg, dh]

    return rhs


def _cmetric_shoot(profile: CMetricProfile, n: int, m: int, alpha: float,
                   dense: bool = False):
    a, b = profile.r_lo, profile.r_hi
    phi_a = float(profile.phi(np.array([a]))[0])
    mu_a = m - profile.c * n / phi_a ** 2
    chi0 = math.atan2(n, mu_a)
    y0 = [math.sin(chi0), math.cos(chi0)]
    sol = solve_ivp(_cmetric_rhs(profile, n, m, alpha), (a, b), y0,
                    dense_output=dense, **_IVP_OPTS)
    if not sol.success:
        raise SolverError(f"IVP integration failed at alpha={alpha}")
    return sol


def _cmetric_wall_mismatch(profile: CMetricProfile, n: int, m: int,
                           alpha: float) -> float:
    sol = _cmetric_shoot(profile, n, m, alpha)
    g_b, h_b = sol.y[0, -1], sol.y[1, -1]
    phi_b = float(profile.phi(np.array([profile.r_hi]))[0])
    mu_b = m - profile.c * n / phi_b ** 2
    return n * h_b - mu_b * g_b


def solve_cmetric_mode(profile: CMetricProfile, n: int, m: int,
                       branch: int = 1, alpha_range: tuple = (0.1, 30.0),
                       resolution: int = 400) -> CMetricMode:
    """Locate the branch-th positive curl eigenvalue alpha and its mode.

    Scans the wall-mismatch functional over alpha_range up to the chosen
    sign change, bisects it, then integrates once more and stores Chebyshev
    proxies of (g, h) for smooth downstream evaluation.  Modes are cached
    per argument set.
    """
    n, m, branch = int(n), int(m), int(branch)
    if n == 0 and m == 0:
        raise ValueError("mode numbers (n, m) = (0, 0) carry no wave")
    if branch < 1:
        raise ValueError("branch index must be >= 1")
    return _cmetric_mode(profile, n, m, branch, tuple(alpha_range),
                         int(resolution))


@functools.lru_cache(maxsize=None)
def _cmetric_mode(profile, n, m, branch, alpha_range, resolution):
    F = lambda alpha: _cmetric_wall_mismatch(profile, n, m, alpha)
    alpha = bisect_root(F, *scan_brackets(F, *alpha_range, resolution, branch))
    sol = _cmetric_shoot(profile, n, m, alpha, dense=True)
    g_proxy, h_proxy = fit_dense(sol.sol, profile.r_lo, profile.r_hi)
    return CMetricMode(
        profile=profile, n=n, m=m, branch=branch, alpha=float(alpha),
        boundary_residual=float(F(alpha)),
        _g=g_proxy, _h=h_proxy, _dg=g_proxy.deriv(), _dh=h_proxy.deriv(),
    )
