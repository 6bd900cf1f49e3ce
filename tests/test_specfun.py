"""Special-function layer checks.

Every derived quantity is certified against an independent oracle:

* Bessel values  -> explicit power series (own sum, exact binomials) and
  arbitrary-precision mpmath evaluations;
* Bessel zeros   -> bisection on mpmath evaluations (no scipy involved);
* associated Legendre -> scipy.special.lpmv cross-check, mpmath spot values,
  the Rodrigues closed form of the derivative, plus the defining ODE;
* Jacobi polynomials -> mpmath, weighted-orthogonality quadrature, and the
  closed-form norm;
* hyperbolic radial modes -> bisection on the conical Legendre function
  P^{-n}_{-1/2 + i beta}(cosh r) via mpmath, which solves the same radial
  equation by construction.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Legendre
from scipy.special import jvp, lpmv, yvp

from eulerwaves import specfun as sf

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# Bessel values against independent series / mpmath
# ---------------------------------------------------------------------------


def series_bessel_j(nu, x, terms=60):
    """Plain power-series J_nu(x), float arithmetic, small x only."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (2 * k + nu) / (
            math.factorial(k) * math.gamma(k + nu + 1))
    return total


def test_bessel_j_matches_power_series_small_x():
    for nu in (0, 1, 2, 3.5):
        for x in np.linspace(0.1, 6.0, 25):
            assert abs(sf.bessel_j(nu, x) - series_bessel_j(nu, x)) < 1e-12


def test_bessel_values_match_mpmath():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nu = float(rng.uniform(0, 6))
        x = float(rng.uniform(0.2, 40.0))
        assert abs(sf.bessel_j(nu, x) - float(mp.besselj(nu, x))) < 1e-12
        assert abs(sf.bessel_y(nu, x) - float(mp.bessely(nu, x))) < 1e-11 * max(
            1.0, abs(float(mp.bessely(nu, x))))


def test_bessel_derivatives_match_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(25):
        nu = float(rng.uniform(0, 5))
        x = float(rng.uniform(0.3, 30.0))
        dj = float(mp.diff(lambda t: mp.besselj(nu, t), x))
        dy = float(mp.diff(lambda t: mp.bessely(nu, t), x))
        assert abs(sf.bessel_j_prime(nu, x) - dj) < 1e-11
        assert abs(sf.bessel_y_prime(nu, x) - dy) < 1e-10 * max(1.0, abs(dy))


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 2.5])
def test_bessel_derivatives_equal_scipy_bit_for_bit(nu):
    # the half-difference of neighbouring orders is scipy's own first-order
    # formula, so the values (and every field built on them) keep their bits
    x = np.random.default_rng(3).uniform(1e-3, 60.0, size=10_000)
    assert np.array_equal(sf.bessel_j_prime(nu, x), jvp(nu, x))
    assert np.array_equal(sf.bessel_y_prime(nu, x), yvp(nu, x))
    assert sf.bessel_j_prime(nu, 1.3) == jvp(nu, 1.3)


def test_bessel_recurrence_and_wronskian_identities():
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu  and
    # J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x),
    # at 100 log-spaced abscissae; errors relative to the largest term.
    xs = np.logspace(np.log10(0.1), np.log10(50.0), 100)
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0):
        j_m = sf.bessel_j(nu - 1, xs)
        j_p = sf.bessel_j(nu + 1, xs)
        j_0 = sf.bessel_j(nu, xs)
        lhs = j_m + j_p
        rhs = 2.0 * nu / xs * j_0
        scale = np.maximum(np.abs(lhs), np.maximum(np.abs(rhs), 1.0))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

        y_0 = sf.bessel_y(nu, xs)
        y_p = sf.bessel_y(nu + 1, xs)
        wron = j_p * y_0 - j_0 * y_p
        target = 2.0 / (np.pi * xs)
        scale = np.maximum(np.abs(j_p * y_0), np.abs(j_0 * y_p))
        scale = np.maximum(scale, 1.0)
        assert np.max(np.abs(wron - target) / scale) < 1e-10


def test_bessel_derivative_wronskian():
    xs = np.logspace(-1, np.log10(50.0), 100)
    for nu in (0.0, 1.0, 3.0):
        w = (sf.bessel_j(nu, xs) * sf.bessel_y_prime(nu, xs)
             - sf.bessel_j_prime(nu, xs) * sf.bessel_y(nu, xs))
        assert np.max(np.abs(w - 2.0 / (np.pi * xs))) < 1e-10


# ---------------------------------------------------------------------------
# Bessel zeros
# ---------------------------------------------------------------------------


def oracle_bessel_zero(nu, k):
    """k-th positive zero of J_nu by marching + mpmath bisection."""
    f = lambda x: mp.besselj(nu, x)
    x = max(nu, 0.25)
    step = 0.5
    prev = f(x)
    found = 0
    while True:
        x2 = x + step
        cur = f(x2)
        if mp.sign(prev) != mp.sign(cur):
            found += 1
            if found == k:
                return float(mp.findroot(f, (x, x2), solver="bisect", tol=1e-30))
        x, prev = x2, cur


def test_bessel_j_zero_frozen_values():
    # classical table values
    assert abs(sf.bessel_j_zero(0, 1) - 2.404825557695773) < 1e-12
    assert abs(sf.bessel_j_zero(1, 1) - 3.831705970207512) < 1e-12


def test_bessel_j_zero_against_oracle():
    for nu, k in [(0, 1), (0, 3), (1, 1), (1, 2), (2, 3), (3, 1), (5, 2),
                  (0.5, 1), (2.5, 2)]:
        assert abs(sf.bessel_j_zero(nu, k) - oracle_bessel_zero(nu, k)) < 1e-10


def test_bessel_j_zero_is_a_zero_and_ordered():
    for nu in (0, 1, 2):
        zs = [sf.bessel_j_zero(nu, k) for k in range(1, 6)]
        assert all(zs[i] < zs[i + 1] for i in range(4))
        for z in zs:
            assert abs(sf.bessel_j(nu, z)) < 1e-12
    # half-integer order has the elementary closed form: zeros of sin
    assert abs(sf.bessel_j_zero(0.5, 2) - 2 * np.pi) < 1e-11


def test_bessel_j_zero_rejects_bad_input():
    with pytest.raises(ValueError):
        sf.bessel_j_zero(-1.0, 1)
    with pytest.raises(ValueError):
        sf.bessel_j_zero(0, 0)
    # the one integer rule of the mode solvers: a bool is not k = 1, and
    # 2.5 is refused before any scan
    for k in (True, 2.5):
        with pytest.raises(ValueError, match="parameter 'k' must be an int"):
            sf.bessel_j_zero(1, k)


# ---------------------------------------------------------------------------
# associated Legendre (Ferrers, Condon-Shortley phase)
# ---------------------------------------------------------------------------


def test_assoc_legendre_closed_forms():
    x = np.linspace(-0.95, 0.95, 41)
    p11 = sf.assoc_legendre(1, 1, x)
    assert np.max(np.abs(p11 + np.sqrt(1 - x ** 2))) < 1e-14
    p21 = sf.assoc_legendre(2, 1, x)
    assert np.max(np.abs(p21 + 3.0 * x * np.sqrt(1 - x ** 2))) < 1e-13
    p20 = sf.assoc_legendre(2, 0, x)
    assert np.max(np.abs(p20 - 0.5 * (3 * x ** 2 - 1))) < 1e-14
    p32 = sf.assoc_legendre(3, 2, x)
    assert np.max(np.abs(p32 - 15.0 * x * (1 - x ** 2))) < 1e-12


def test_assoc_legendre_against_scipy_and_mpmath():
    rng = np.random.default_rng(11)
    for _ in range(50):
        deg = int(rng.integers(0, 9))
        order = int(rng.integers(0, deg + 1))
        x = float(rng.uniform(-0.98, 0.98))
        mine = float(sf.assoc_legendre(deg, order, np.array([x]))[0])
        ref = float(lpmv(order, deg, x))
        assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))
    # high-precision spot values
    assert abs(float(sf.assoc_legendre(5, 3, np.array([0.37]))[0])
               - float(mp.legenp(5, 3, mp.mpf("0.37")))) < 1e-11


def _rodrigues_derivative(deg, order, x):
    """d/dx of P_l^m = (-1)^m (1 - x^2)^{m/2} Q(x), Q = d^m P_l / dx^m, by
    exact polynomial algebra (no recurrence):
    (-1)^m (1 - x^2)^{m/2 - 1} [(1 - x^2) Q' - m x Q]."""
    Q = Legendre.basis(deg).deriv(order)
    s = 1.0 - x ** 2
    return ((-1.0) ** order * s ** (order / 2.0 - 1.0)
            * (s * Q.deriv()(x) - order * x * Q(x)))


def test_assoc_legendre_derivative_and_ode():
    # derivative against the Rodrigues closed form, tied to mpmath at one
    # point, then the Legendre ODE residual
    x0 = mp.mpf("0.37")
    anchor = float(mp.diff(lambda t: mp.legenp(6, 4, t), x0))
    assert abs(_rodrigues_derivative(6, 4, float(x0)) - anchor) \
        < 1e-9 * abs(anchor)
    xs = np.linspace(-0.9, 0.9, 19)
    for deg, order in [(0, 0), (1, 1), (3, 3), (2, 1), (3, 2), (5, 1), (6, 4)]:
        P, dP = sf.assoc_legendre(deg, order, xs, derivative=True)
        ref = _rodrigues_derivative(deg, order, xs)
        assert np.all(np.abs(dP - ref) < 1e-9 * np.maximum(1.0, np.abs(ref)))
        # (1-x^2) P'' - 2x P' + [l(l+1) - m^2/(1-x^2)] P = 0 with P'' by FD of dP
        h = 1e-5
        _, dPp = sf.assoc_legendre(deg, order, xs + h, derivative=True)
        _, dPm = sf.assoc_legendre(deg, order, xs - h, derivative=True)
        d2P = (dPp - dPm) / (2 * h)
        res = ((1 - xs ** 2) * d2P - 2 * xs * dP
               + (deg * (deg + 1) - order ** 2 / (1 - xs ** 2)) * P)
        assert np.max(np.abs(res)) < 1e-5 * max(1.0, np.max(np.abs(P)))


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------


def test_jacobi_closed_forms():
    x = np.linspace(-1, 1, 21)
    assert np.max(np.abs(sf.jacobi_poly(0, 3, 1, x) - 1.0)) == 0.0
    assert np.max(np.abs(sf.jacobi_poly(1, 0, 0, x) - x)) < 1e-15
    assert np.max(np.abs(sf.jacobi_poly(1, 1, 1, x) - 2.0 * x)) < 1e-15
    # P_1^{(a,b)} = (a-b)/2 + (a+b+2) x / 2
    assert np.max(np.abs(sf.jacobi_poly(1, 2, 3, x) - (-0.5 + 3.5 * x))) < 1e-14


def test_jacobi_against_mpmath():
    rng = np.random.default_rng(13)
    for _ in range(40):
        d = int(rng.integers(0, 7))
        a = int(rng.integers(0, 4))
        b = int(rng.integers(0, 4))
        x = float(rng.uniform(-1, 1))
        mine = float(sf.jacobi_poly(d, a, b, np.array([x]))[0])
        ref = float(mp.jacobi(d, a, b, x))
        assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))


def test_jacobi_orthogonality_and_norm():
    # int_{-1}^1 (1-x)^a (1+x)^b P_i P_j dx = delta_ij h_i with the classical
    # norm h_i; 64-point Gauss-Legendre integrates these polynomials exactly.
    a, b = 1, 2
    xg, wg = np.polynomial.legendre.leggauss(64)
    wfun = (1 - xg) ** a * (1 + xg) ** b
    for i in range(4):
        for j in range(4):
            val = np.sum(wg * wfun * sf.jacobi_poly(i, a, b, xg)
                         * sf.jacobi_poly(j, a, b, xg))
            if i != j:
                assert abs(val) < 1e-13
            else:
                d = i
                h = (2 ** (a + b + 1) / (2 * d + a + b + 1)
                     * math.gamma(d + a + 1) * math.gamma(d + b + 1)
                     / (math.gamma(d + a + b + 1) * math.factorial(d)))
                assert abs(val - h) < 1e-12 * h


def test_jacobi_derivative_identity():
    # d/dx P_d^{(a,b)} = (d+a+b+1)/2 P_{d-1}^{(a+1,b+1)}
    x = np.linspace(-0.99, 0.99, 31)
    for d, a, b in [(1, 0, 0), (2, 1, 0), (3, 2, 2), (4, 0, 3)]:
        h = 1e-6
        fd = (sf.jacobi_poly(d, a, b, x + h) - sf.jacobi_poly(d, a, b, x - h)) / (2 * h)
        an = sf.jacobi_poly_deriv(d, a, b, x)
        assert np.max(np.abs(fd - an)) < 1e-7 * max(1.0, np.max(np.abs(an)))
    assert np.all(sf.jacobi_poly_deriv(0, 2, 1, x) == 0.0)


# ---------------------------------------------------------------------------
# hyperbolic radial modes
# ---------------------------------------------------------------------------


def oracle_hyperbolic_beta(n, m, r_max=1.0):
    """m-th value of beta with P^{-n}_{-1/2+i beta}(cosh r_max) = 0.

    The conical Legendre function is the regular solution of the same radial
    equation with eigenvalue 1/4 + beta^2, evaluated here in arbitrary
    precision -- fully independent of the package's collocation solver.
    """
    z = mp.cosh(r_max)

    def f(beta):
        return mp.legenp(mp.mpc(-0.5, beta), -n, z, type=3).real

    beta, step = mp.mpf("0.05"), mp.mpf("0.1")
    prev = f(beta)
    found = 0
    while beta < 60:
        nxt = f(beta + step)
        if mp.sign(prev) != mp.sign(nxt):
            found += 1
            if found == m:
                return float(mp.findroot(f, (beta, beta + step),
                                         solver="bisect", tol=1e-24))
        beta += step
        prev = nxt
    raise AssertionError("oracle scan exhausted")


def test_hyperbolic_radial_mode_eigenvalues_match_oracle():
    for n, m, r_max in [(0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0),
                        (1, 6, 1.0), (6, 1, 1.0), (1, 1, 2.0)]:
        mode = sf.hyperbolic_radial_mode(n, m, r_max=r_max)
        beta_ref = oracle_hyperbolic_beta(n, m, r_max)
        assert abs(mode.beta - beta_ref) < 1e-8
        assert abs(mode.eigenvalue - (0.25 + beta_ref ** 2)) < 1e-7


def test_hyperbolic_radial_mode_profile_matches_oracle():
    # The whole radial profile, not just the eigenvalue, up to one scale.
    mode = sf.hyperbolic_radial_mode(1, 1)
    beta = oracle_hyperbolic_beta(1, 1)
    rs = np.linspace(0.1, 0.95, 18)
    ref = np.array([float(mp.legenp(mp.mpc(-0.5, beta), -1,
                                    mp.cosh(r), type=3).real) for r in rs])
    mine = mode.value(rs)
    scale = mine[0] / ref[0]
    assert np.max(np.abs(mine - scale * ref)) < 1e-8 * np.max(np.abs(mine))


def test_hyperbolic_radial_mode_contract():
    for n, m in [(0, 1), (1, 1), (1, 3), (2, 2)]:
        mode = sf.hyperbolic_radial_mode(n, m)
        # Dirichlet end
        assert abs(mode.value(np.array([1.0]))[0]) < 1e-9
        assert abs(mode.boundary_residual) < 1e-9
        # normalization: sup |R| = 1 on the chart (n = 0 modes peak at the
        # origin itself, so a grid starting at 1e-3 sits a hair below 1)
        rs = np.linspace(1e-3, 1.0, 2001)
        assert abs(np.max(np.abs(mode.value(rs))) - 1.0) < 5e-6
        # Sturm oscillation: the m-th mode has m-1 interior nodes
        vals = mode.value(np.linspace(0.02, 0.999, 4000))
        crossings = np.sum(np.abs(np.diff(np.sign(vals))) > 1)
        assert crossings == m - 1
        # sign convention: R ~ +r^n, so R > 0 on the first lobe
        assert vals[0] > 0
        # eigenvalues increase along the mode index
        if m > 1:
            prev = sf.hyperbolic_radial_mode(n, m - 1)
            assert prev.eigenvalue < mode.eigenvalue


def test_hyperbolic_radial_mode_ode_residual():
    # R'' + coth(r) R' + (E - n^2/sinh^2 r) R = 0 with derivatives taken by
    # plain finite differences of the returned profile.
    mode = sf.hyperbolic_radial_mode(1, 2)
    E, n = mode.eigenvalue, 1
    rs = np.linspace(0.08, 0.92, 200)
    h = 1e-4
    R0 = mode.value(rs)
    R2 = (mode.value(rs + h) - 2 * R0 + mode.value(rs - h)) / h ** 2
    R1 = (mode.value(rs + h) - mode.value(rs - h)) / (2 * h)
    res = R2 + R1 / np.tanh(rs) + (E - n ** 2 / np.sinh(rs) ** 2) * R0
    assert np.max(np.abs(res)) < 1e-5 * E


def test_hyperbolic_radial_mode_derivative_consistency():
    mode = sf.hyperbolic_radial_mode(2, 1)
    rs = np.linspace(0.1, 0.9, 50)
    h = 1e-5
    fd = (mode.value(rs + h) - mode.value(rs - h)) / (2 * h)
    assert np.max(np.abs(fd - mode.derivative(rs))) < 1e-7


def test_hyperbolic_radial_mode_rejects_bad_input():
    with pytest.raises(ValueError):
        sf.hyperbolic_radial_mode(0, 0)
    with pytest.raises(ValueError):
        sf.hyperbolic_radial_mode(-1, 1)
    for r_max in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            sf.hyperbolic_radial_mode(1, 1, r_max=r_max)


def test_hyperbolic_radial_mode_cache_key_covers_r_max():
    mode = sf.hyperbolic_radial_mode(1, 1)
    wide = sf.hyperbolic_radial_mode(1, 1, r_max=2.0)
    assert wide.r_max == 2.0 and wide.beta != mode.beta
