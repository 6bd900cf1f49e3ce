"""Dispersion-root and c-metric collocation solver checks.

Oracles: the half-integer cross-product dispersion collapses to sin(k(b-a)),
giving exact rational roots; the c = 0 annulus has a closed Bessel solution;
the default twisted profile has the separable closed form with alpha = 5/4.
"""

import numpy as np
import pytest
import mpmath as mp

from eulerwaves import catalogue as cat
from eulerwaves import rootfind
from eulerwaves import solvers as sv
from eulerwaves import specfun as sf
from eulerwaves.rootfind import SolverError, bisect_root, scan_brackets

mp.mp.dps = 25

A0 = 2 * np.pi / 3
B0 = 2 * np.pi


# ---------------------------------------------------------------------------
# rootfind plumbing
# ---------------------------------------------------------------------------


def test_scan_brackets_locates_sine_roots():
    roots = [bisect_root(np.sin, *scan_brackets(np.sin, 0.1, 10.0, 400, k=k))
             for k in (1, 2, 3)]
    assert np.allclose(roots, [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-12)
    with pytest.raises(SolverError):
        scan_brackets(np.sin, 0.1, 10.0, 400, k=4)


def test_scan_brackets_skips_nonfinite():
    f = lambda x: np.nan if 0.9 < x < 1.1 else np.cos(x)
    br = scan_brackets(f, 0.0, 4.0, 400, k=1)
    with pytest.raises(SolverError):
        scan_brackets(f, 0.0, 4.0, 400, k=2)
    assert abs(bisect_root(f, *br) - np.pi / 2) < 1e-10


def test_collocate_chops_resolved_series_and_rejects_unresolved():
    # exp(x) is resolved at N = 33 with 13 coefficients above 1e-13 max|c|;
    # the Runge function 1/(1 + 400 x^2) needs more than N = 129 points.
    sizes = []

    def solve(f):
        def columns(N):
            sizes.append(N)
            return 1.0, [f(rootfind.cheb(N)[0])]
        return columns

    value, (coefs,) = rootfind.collocate(solve(np.exp))
    assert value == 1.0 and sizes == [33] and len(coefs) == 13
    x = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(np.polynomial.chebyshev.chebval(x, coefs)
                         - np.exp(x))) < 1e-13 * np.e
    sizes.clear()
    with pytest.raises(SolverError, match="not resolved at N = 129"):
        rootfind.collocate(solve(lambda x: 1.0 / (1.0 + 400.0 * x ** 2)))
    assert sizes == [33, 65, 129]


def test_cheb_differentiates_polynomials_exactly():
    x, D = rootfind.cheb(9)
    assert x[0] == 1.0 and x[-1] == -1.0 and np.all(x[:5] == -x[:4:-1])
    assert np.max(np.abs(D @ x ** 9 - 9 * x ** 8)) < 1e-12


def _all_brackets(f, lo, hi, n):
    """Every sign-change bracket of f on the grid, by an eager full scan."""
    brackets, x_prev, f_prev = [], None, None
    for x in np.linspace(lo, hi, n):
        val = f(x)
        if not np.isfinite(val):
            x_prev, f_prev = None, None
            continue
        if f_prev is not None and np.sign(val) != np.sign(f_prev):
            brackets.append((x_prev, x))
        x_prev, f_prev = x, val
    return brackets


def test_scan_brackets_kth_matches_full_scan():
    cases = [(np.sin, 0.1, 10.0, 400),
             (lambda x: np.nan if 2.0 < x < 4.0 else np.cos(3 * x),
              0.0, 9.0, 300),
             (lambda x: np.tan(x) - 1.0, -4.0, 7.0, 555),
             (lambda x: np.sign(x - 0.5), 0.0, 1.0, 11)]
    for f, lo, hi, n in cases:
        full = _all_brackets(f, lo, hi, n)
        assert len(full) >= 2
        for k, bracket in enumerate(full, start=1):
            assert scan_brackets(f, lo, hi, n, k) == bracket
        with pytest.raises(SolverError):
            scan_brackets(f, lo, hi, n, len(full) + 1)


def test_scan_brackets_stops_at_kth_bracket():
    xs = np.linspace(0.1, 10.0, 400)
    signs = np.sign(np.sin(xs))
    ends = np.nonzero(signs[1:] != signs[:-1])[0] + 1
    for k, end in enumerate(ends, start=1):
        calls = []
        f = lambda x: calls.append(x) or np.sin(x)
        assert scan_brackets(f, 0.1, 10.0, 400, k) == (xs[end - 1], xs[end])
        assert len(calls) == end + 1


# ---------------------------------------------------------------------------
# cross-product dispersion
# ---------------------------------------------------------------------------


def test_crossproduct_root_half_integer_closed_form():
    # nu = 1/2 reduces to sin(k (b-a)) = 0, so k_j = j pi/(b-a) = 0.75 j here.
    assert abs(sv.crossproduct_root(0.5, A0, B0, 1) - 0.75) < 1e-10
    assert abs(sv.crossproduct_root(0.5, A0, B0, 2) - 1.50) < 1e-10
    assert abs(sv.crossproduct_root(0.5, A0, B0, 3) - 2.25) < 1e-10


def test_crossproduct_root_against_mpmath():
    nu, a, b = 2.0, 1.0, 3.0

    def f(k):
        return (mp.besselj(nu, k * a) * mp.bessely(nu, k * b)
                - mp.besselj(nu, k * b) * mp.bessely(nu, k * a))

    k, step, found = mp.mpf("0.05"), mp.mpf("0.05"), []
    prev = f(k)
    while len(found) < 2 and k < 20:
        cur = f(k + step)
        if mp.sign(cur) != mp.sign(prev):
            found.append(float(mp.findroot(f, (k, k + step), solver="bisect",
                                           tol=1e-25)))
        k += step
        prev = cur
    assert abs(sv.crossproduct_root(nu, a, b, 1) - found[0]) < 1e-10
    assert abs(sv.crossproduct_root(nu, a, b, 2) - found[1]) < 1e-10


def test_crossproduct_root_is_a_root():
    for branch in (1, 2):
        k = sv.crossproduct_root(1.0, 1.0, 2.5, branch)
        val = (sf.bessel_j(1.0, k * 1.0) * sf.bessel_y(1.0, k * 2.5)
               - sf.bessel_j(1.0, k * 2.5) * sf.bessel_y(1.0, k * 1.0))
        assert abs(val) < 1e-12


# ---------------------------------------------------------------------------
# columnar dispersion in the solid cylinder
# ---------------------------------------------------------------------------


def oracle_ck_root(n, m, branch):
    """March + bisect m beta J_n'(beta) + n sqrt(beta^2+m^2) J_n(beta) = 0
    in arbitrary precision."""
    def D(beta):
        alpha = mp.sqrt(beta ** 2 + m ** 2)
        return (m * beta * mp.besselj(n, beta, derivative=1)
                + n * alpha * mp.besselj(n, beta))

    x, step, found = mp.mpf("0.05"), mp.mpf("0.1"), 0
    prev = D(x)
    while x < 60:
        cur = D(x + step)
        if mp.sign(cur) != mp.sign(prev):
            found += 1
            if found == branch:
                return float(mp.findroot(D, (x, x + step), solver="bisect",
                                         tol=1e-25))
        x += step
        prev = cur
    raise AssertionError("oracle scan exhausted")


def test_ck_dispersion_root_against_oracle():
    for n, m, branch in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 3, 1), (2, 2, 2)]:
        beta, alpha = sv.ck_dispersion_root(n, m, branch)
        assert abs(beta - oracle_ck_root(n, m, branch)) < 1e-10
        assert abs(alpha - np.sqrt(beta ** 2 + m ** 2)) < 1e-13


def test_ck_dispersion_root_axisymmetric_reduces_to_bessel_zeros():
    # n = 0: the dispersion collapses to beta J_1(beta) = 0.
    for k in (1, 2, 3):
        beta, alpha = sv.ck_dispersion_root(0, 2, k)
        assert abs(beta - sf.bessel_j_zero(1, k)) < 1e-11
        assert abs(alpha - np.sqrt(beta ** 2 + 4.0)) < 1e-13


def test_ck_dispersion_root_rejects_zero_mode():
    with pytest.raises(ValueError):
        sv.ck_dispersion_root(0, 0, 1)


# ---------------------------------------------------------------------------
# c-metric collocation
# ---------------------------------------------------------------------------


# the default twisted annulus: twist c and walls (r_lo, r_hi)
DEFAULT_ANNULUS = (-0.3, A0, B0)


def test_cmetric_default_annulus_alpha_is_five_quarters():
    # The worked twisted annulus: nu = sqrt(1+2 alpha c) = 1/2 collapses the
    # dispersion to sin(k(b-a)) with k = sqrt(alpha^2 - m^2); the joint root
    # is exactly alpha = 5/4 (k = 3/4).
    mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=0, m=1, branch=1)
    assert abs(mode.alpha - 1.25) < 1e-9
    assert abs(mode.boundary_residual) < 1e-9


def test_cmetric_default_annulus_profiles_match_closed_form():
    # g = 5 sqrt(r) cos(3r/4), h = -3 r^{-1/2} sin(3r/4) + 2 r^{-3/2} cos(3r/4),
    # f = -m g/(alpha r); all up to one common scale.  The built wave's
    # radial component at theta = z = 0 is i f.
    mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=0, m=1, branch=1)
    rs = np.linspace(A0, B0, 60)
    g_ref = 5.0 * np.sqrt(rs) * np.cos(0.75 * rs)
    h_ref = -3.0 * np.sin(0.75 * rs) / np.sqrt(rs) + 2.0 * np.cos(0.75 * rs) / rs ** 1.5
    f_ref = -g_ref / (1.25 * rs)
    scale = mode.g(rs[20]) / g_ref[20]
    norm = np.max(np.abs(g_ref))
    assert np.max(np.abs(mode.g(rs) - scale * g_ref)) < 1e-7 * norm
    assert np.max(np.abs(mode.h(rs) - scale * h_ref)) < 1e-7 * norm
    pts = np.stack([rs, np.zeros_like(rs), np.zeros_like(rs)], axis=1)
    radial = cat.twisted_annulus(m=1).wave(0.0, pts)[:, 0]
    assert np.max(np.abs(radial - 1j * scale * f_ref)) < 1e-7 * norm


def test_cmetric_mode_collocation_residual():
    # Plug the returned profiles back into the first-order system.
    mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=0, m=1, branch=1)
    rs = np.linspace(A0 + 0.05, B0 - 0.05, 200)
    c, m, n, alpha = -0.3, 1, 0, mode.alpha
    mu = m - c * n / rs ** 2
    den = alpha * rs  # alpha times the volume density r
    g, h = mode.g(rs), mode.h(rs)
    res_g = mode.dg(rs) - (n * mu * g + (alpha ** 2 * rs ** 2 - n ** 2) * h) / den
    res_h = mode.dh(rs) - ((2 * c * alpha / rs ** 2 + mu ** 2 - alpha ** 2) * g
                           - n * mu * h) / den
    scale = max(np.max(np.abs(g)), np.max(np.abs(h)))
    assert np.max(np.abs(res_g)) < 1e-7 * scale
    assert np.max(np.abs(res_h)) < 1e-7 * scale


def test_cmetric_untwisted_annulus_matches_bessel_closed_form():
    # c = 0, n = 0 on [1, 2]: the radial equation is Bessel's, the k-th
    # eigencondition is the k-th root beta of the nu = 1 cross-product at the
    # walls, alpha = sqrt(beta^2 + m^2), and
    #   g(r) = -alpha beta r (Y1(ba) J1(br) - J1(ba) Y1(br)),  h = g'/(alpha r).
    rs = np.linspace(1.0, 2.0, 50)
    for m in (1, 2):
        for branch in (1, 2, 3):
            mode = sv.solve_cmetric_mode(0.0, 1.0, 2.0, n=0, m=m,
                                         branch=branch)
            beta = sv.crossproduct_root(1.0, 1.0, 2.0, branch)
            alpha_ref = np.sqrt(beta ** 2 + m ** 2)
            assert abs(mode.alpha - alpha_ref) < 1e-10

            c1, c2 = sf.bessel_y(1, beta * 1.0), -sf.bessel_j(1, beta * 1.0)
            C = lambda r: c1 * sf.bessel_j(0, beta * r) + c2 * sf.bessel_y(0, beta * r)
            dC = lambda r: -beta * (c1 * sf.bessel_j(1, beta * r) + c2 * sf.bessel_y(1, beta * r))
            g_ref = alpha_ref * rs * dC(rs)
            h_ref = -beta ** 2 * C(rs)
            i = np.argmax(np.abs(g_ref))
            scale = mode.g(rs[i]) / g_ref[i]
            assert np.max(np.abs(mode.g(rs) - scale * g_ref)) < 1e-8 * np.max(np.abs(g_ref))
            assert np.max(np.abs(mode.h(rs) - scale * h_ref)) < 1e-8 * np.max(np.abs(h_ref))


def test_cmetric_twisted_branches_match_frozen_values():
    # c != 0 and n != 0 on the default annulus: the first three branches, as
    # the earlier shooting solver (scan, bisection, DOP853 at rtol 1e-12)
    # found them in ascending order.
    frozen = {(1, 1): (1.2264850206315705, 1.759798517701131,
                       2.4076779534745123),
              (-1, 1): (1.3197284438527181, 1.872854878034382,
                        2.528746149823954),
              (2, 0): (0.8922304657654546, 1.587218450098219,
                       2.3109396795341697)}
    for (n, m), alphas in frozen.items():
        for branch, alpha in enumerate(alphas, start=1):
            mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=n, m=m,
                                         branch=branch)
            assert abs(mode.alpha - alpha) < 1e-10 * alpha, (n, m, branch)


def test_cmetric_nonaxisymmetric_boundary_condition():
    # n != 0 exercises the full boundary functional n h - (m - c n/r^2) g.
    mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=1, m=1, branch=1)
    for r_end in (A0, B0):
        mu = 1.0 - (-0.3) * 1.0 / r_end ** 2
        val = 1.0 * mode.h(np.array([r_end]))[0] \
            - mu * mode.g(np.array([r_end]))[0]
        assert abs(val) < 1e-8
    assert mode.alpha > 0
    # amplitude: (g, h)(r_lo) is the unit vector along (n, mu(r_lo))
    mu_lo = 1.0 + 0.3 / A0 ** 2
    start = np.array([mode.g(A0), mode.h(A0)])
    assert np.max(np.abs(start - np.array([1.0, mu_lo]) / np.hypot(1.0, mu_lo))) < 1e-12


def test_cmetric_rejects_degenerate_mode_numbers():
    with pytest.raises(ValueError):
        sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=0, m=0, branch=1)
    for c, a, b in [(-0.3, 0.0, 1.0), (-0.3, 2.0, 1.0), (-0.3, 1.0, np.inf),
                    (np.nan, 1.0, 2.0), (np.inf, 1.0, 2.0)]:
        with pytest.raises(ValueError):
            sv.solve_cmetric_mode(c, a, b, n=0, m=1)


def test_cmetric_mode_cache_key_covers_twist_and_walls():
    mode = sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=1, m=1, branch=1)
    assert sv.solve_cmetric_mode(*DEFAULT_ANNULUS, n=1, m=1, branch=1) is mode
    for c, a, b in [(-0.2, A0, B0), (-0.3, 2.0, B0), (-0.3, A0, 6.0)]:
        other = sv.solve_cmetric_mode(c, a, b, n=1, m=1, branch=1)
        assert (other.c, other.r_lo, other.r_hi) == (c, a, b)
        assert other.alpha != mode.alpha, (c, a, b)


def test_mode_solvers_reject_non_integral_mode_numbers():
    # each of these used to be truncated to an integral mode, without error
    for solve, args in [
            (sv.ck_dispersion_root, (1.5, 1)),
            (sv.ck_dispersion_root, (1, True)),
            (sv.ck_dispersion_root, (1, 1, 1.5)),
            (sv.solve_cmetric_mode, DEFAULT_ANNULUS + (0, 1.9)),
            (sv.solve_cmetric_mode, DEFAULT_ANNULUS + (True, 1)),
            (sv.solve_cmetric_mode, DEFAULT_ANNULUS + (0, 1, np.float64(2.5))),
            (sf.hyperbolic_radial_mode, (1.7, 1)),
            (sf.hyperbolic_radial_mode, (1, True))]:
        with pytest.raises(ValueError, match="must be an integer"):
            solve(*args)
    # integral floats and numpy ints are integers
    assert sv.ck_dispersion_root(1.0, np.int64(1)) == sv.ck_dispersion_root(1, 1)
    # the builders keep their ConstructionError and message
    with pytest.raises(cat.ConstructionError,
                       match="parameter 'm' must be an integer, got 1.9"):
        cat.twisted_annulus(m=1.9)
