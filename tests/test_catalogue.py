"""Catalogue construction checks.

The expected field components below are evaluated straight from the closed
forms (Bessel/Legendre/trig expressions written out inline), independently of
the catalogue's own assembly code; spectral data is checked against exact
rational values where they exist.
"""

import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy
from scipy.special import jv, jvp

from eulerwaves import catalogue as cat
from eulerwaves import fields
from eulerwaves import geometry as geo
from eulerwaves import solvers
from eulerwaves import specfun as sf
from eulerwaves import verification as ver


# ---------------------------------------------------------------------------
# constant fields (every base flow)
# ---------------------------------------------------------------------------


def test_constant_field_returns_a_fresh_array_per_call():
    u = fields.constant_field((1.0, -2.0, 0.5))
    pts = np.zeros((4, 3))
    first = u(0.0, pts)
    for got in (first, u(0.0, pts)):
        assert got.shape == (4, 3) and got.dtype == np.float64
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.array_equal(got, np.tile([1.0, -2.0, 0.5], (4, 1)))
    first[:] = 9.0
    assert np.array_equal(u(0.0, pts), np.tile([1.0, -2.0, 0.5], (4, 1)))
    assert u(0.0, np.zeros(3)).shape == (1, 3)
    assert u(0.0, np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(ValueError, match="shape"):
        u(0.0, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------


def test_torus_travelling_wave_closed_form():
    # U_x = 1 - rho m sin(n(x - t) + m y + sigma), U_y = rho n sin(same);
    # the wave rides the base flow with unit speed.
    for rho, sigma in [(1.0, 0.0), (0.35, 1.1)]:
        sol = cat.kelvin_torus(n=1, m=2, rho=rho, sigma=sigma)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 2 * np.pi, size=(40, 2))
        for t in (0.0, 0.7, 1.9):
            u = sol.velocity(t, pts)
            arg = (pts[:, 0] - t) + 2 * pts[:, 1] + sigma
            assert np.max(np.abs(u[:, 0] - (1 - rho * 2 * np.sin(arg)))) < 1e-12
            assert np.max(np.abs(u[:, 1] - rho * 1 * np.sin(arg))) < 1e-12


def test_torus_spectral_data():
    sol = cat.kelvin_torus(n=1, m=2)
    sp = sol.spectral
    assert sp.alpha == 5.0
    assert sp.zeta == 1.0
    assert sp.lam == 0.0 and sp.lam_exact == Fraction(0)
    assert sp.omega == -1.0 and sp.omega_exact == Fraction(-1)
    assert sp.classification == "moving-frame-trivial"
    assert cat.kelvin_torus(n=0, m=1).spectral.classification == "stationary"
    with pytest.raises(cat.ConstructionError):
        cat.kelvin_torus(n=0, m=0)


def test_torus_time_derivative_is_consistent():
    sol = cat.kelvin_torus(n=2, m=1)
    pts = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(20, 2))
    t, dt = 0.8, 1e-6
    fd = (sol.velocity(t + dt, pts) - sol.velocity(t - dt, pts)) / (2 * dt)
    # d/dt Re(rho e^{i phase} z) = Re(i omega rho e^{i phase} z)
    exact = (1j * sol.omega * sol.rho * np.exp(1j * sol.phase(t))
             * sol.wave(t, pts)).real
    assert np.max(np.abs(fd - exact)) < 1e-8


# ---------------------------------------------------------------------------
# flat disk
# ---------------------------------------------------------------------------


def test_disk_wave_components_closed_form():
    n, m, rho, sigma = 1, 1, 0.8, 0.3
    sol = cat.kelvin_disk(n=n, m=m, rho=rho, sigma=sigma)
    beta = sf.bessel_j_zero(n, m)
    assert abs(sol.spectral.alpha - beta ** 2) < 1e-12
    rng = np.random.default_rng(6)
    pts = np.stack([rng.uniform(0.1, 0.9, 30), rng.uniform(0, 2 * np.pi, 30)],
                   axis=-1)
    for t in (0.0, 1.3):
        u = sol.velocity(t, pts)
        r, th = pts[:, 0], pts[:, 1]
        arg = n * (th - t) + sigma
        u_r = -rho * (n / r) * jv(n, beta * r) * np.sin(arg)
        u_th = 1.0 - rho * (beta / r) * jvp(n, beta * r) * np.cos(arg)
        assert np.max(np.abs(u[:, 0] - u_r)) < 1e-12
        assert np.max(np.abs(u[:, 1] - u_th)) < 1e-12


def test_disk_wave_is_tangent_at_wall():
    sol = cat.kelvin_disk(n=2, m=2)
    th = np.linspace(0, 2 * np.pi, 17)
    pts = np.stack([np.ones_like(th), th], axis=-1)
    for t in (0.0, 0.9):
        assert np.max(np.abs(sol.velocity(t, pts)[:, 0])) < 1e-10


def test_disk_spectral_and_validation():
    sol = cat.kelvin_disk(n=1, m=1)
    assert sol.spectral.lam == 0.0
    assert sol.spectral.omega_exact == Fraction(-1)
    assert sol.spectral.classification == "moving-frame-trivial"
    with pytest.raises(cat.ConstructionError):
        cat.kelvin_disk(n=1, m=0)


# ---------------------------------------------------------------------------
# round sphere
# ---------------------------------------------------------------------------


def test_sphere_wave_components_closed_form():
    # z = skew_grad(P_m^n(cos phi) e^{i n theta}):
    #   z^theta = -P'(cos phi) e^{in theta},  z^phi = -(i n / sin phi) P e^{...}
    n, m = 1, 2
    sol = cat.rossby_sphere(n=n, m=m)
    phi = np.pi / 3
    x = np.cos(phi)
    P = -3.0 * x * np.sqrt(1 - x ** 2)           # P_2^1
    dP = (6 * x ** 2 - 3) / np.sqrt(1 - x ** 2)  # dP_2^1/dx
    pts = np.array([[0.0, phi], [0.5, phi]])
    z = sol.wave(0.0, pts)
    v, w = z.real, z.imag
    for i, th in enumerate((0.0, 0.5)):
        assert abs(v[i, 0] - (-dP) * np.cos(n * th)) < 1e-12
        assert abs(v[i, 1] - (n / np.sin(phi)) * P * np.sin(n * th)) < 1e-12
        assert abs(w[i, 0] - (-dP) * np.sin(n * th)) < 1e-12
        assert abs(w[i, 1] - (-(n / np.sin(phi)) * P * np.cos(n * th))) < 1e-12


def test_sphere_spectral_table():
    sol = cat.rossby_sphere(n=1, m=2)
    assert sol.spectral.alpha == 6.0
    assert sol.spectral.lam_exact == Fraction(1, 3)
    assert sol.spectral.omega_exact == Fraction(-2, 3)
    assert sol.spectral.classification == "genuine"
    # n = m = 1 rotates into itself: lam = zeta = 1.
    assert cat.rossby_sphere(n=1, m=1).spectral.classification == "stationary"
    assert cat.rossby_sphere(n=0, m=2).spectral.classification == "stationary"
    assert cat.rossby_sphere(n=2, m=3).spectral.lam_exact == Fraction(1, 3)
    with pytest.raises(cat.ConstructionError):
        cat.rossby_sphere(n=3, m=2)
    with pytest.raises(cat.ConstructionError):
        cat.rossby_sphere(n=0, m=0)


# ---------------------------------------------------------------------------
# hyperbolic disk
# ---------------------------------------------------------------------------


def test_hyperbolic_spectral_data():
    sol = cat.kelvin_hyperbolic(n=1, m=1)
    E = sol.spectral.alpha
    assert E > 0.25  # geometer-positive eigenvalue 1/4 + beta^2
    assert abs(sol.spectral.lam - (-2.0 / E)) < 1e-13
    assert abs(sol.omega - (-(E + 2.0) / E)) < 1e-13
    assert sol.spectral.classification == "genuine"
    assert cat.kelvin_hyperbolic(n=0, m=1).spectral.classification == "stationary"


def test_hyperbolic_wave_matches_radial_mode():
    n, m = 1, 2
    sol = cat.kelvin_hyperbolic(n=n, m=m)
    mode = sf.hyperbolic_radial_mode(n, m)
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0.1, 0.9, 25), rng.uniform(0, 2 * np.pi, 25)],
                   axis=-1)
    r, th = pts[:, 0], pts[:, 1]
    v = sol.wave(0.0, pts).real
    assert np.max(np.abs(v[:, 0] - (-(n / np.sinh(r)) * mode.value(r)
                                    * np.sin(n * th)))) < 1e-12
    assert np.max(np.abs(v[:, 1] - (-(mode.derivative(r) / np.sinh(r))
                                    * np.cos(n * th)))) < 1e-12
    # eigenvalue relation for the stream function under the FD Laplacian
    M = sol.manifold
    gpts = M.interior_grid((12, 12))
    def psi(t, p):
        return sol.psi_wave(t, p).real

    lap = geo.laplace_beltrami(M, psi, 0.0, gpts)
    E = sol.spectral.alpha
    assert np.max(np.abs(lap - E * psi(0.0, gpts))) < 1e-5 * E


# ---------------------------------------------------------------------------
# three-sphere
# ---------------------------------------------------------------------------


def test_s3_canonical_entry_matches_displayed_solution():
    # (j,k,d,sign) = (1,0,0,-):
    #   z = e^{i theta} ( -i sin(chi) d_chi + (3cos - sec) d_theta + 3cos d_phi )
    sol = cat.rossby_s3(j=1, k=0, d=0, sign="-")
    chi = np.array([0.3, 0.7, 1.1])
    for th in (0.0, 1.2):
        pts = np.stack([chi, np.full_like(chi, th), np.full_like(chi, 2.0)],
                       axis=-1)
        z = sol.wave(0.0, pts)
        v, w = z.real, z.imag
        assert np.max(np.abs(v[:, 0] - np.sin(chi) * np.sin(th))) < 1e-12
        assert np.max(np.abs(v[:, 1] - (3 * np.cos(chi) - 1 / np.cos(chi))
                             * np.cos(th))) < 1e-12
        assert np.max(np.abs(v[:, 2] - 3 * np.cos(chi) * np.cos(th))) < 1e-12
        assert np.max(np.abs(w[:, 0] + np.sin(chi) * np.cos(th))) < 1e-12
        assert np.max(np.abs(w[:, 1] - (3 * np.cos(chi) - 1 / np.cos(chi))
                             * np.sin(th))) < 1e-12
        assert np.max(np.abs(w[:, 2] - 3 * np.cos(chi) * np.sin(th))) < 1e-12


def test_s3_spectral_data():
    sol = cat.rossby_s3(j=1, k=0, d=0, sign="-")
    assert sol.spectral.alpha == -3.0
    assert sol.spectral.zeta == 1.0
    assert sol.spectral.lam_exact == Fraction(2, 3)
    assert sol.spectral.omega_exact == Fraction(-1, 3)
    assert sol.spectral.classification == "genuine"
    # opposite Hopf charges cancel the rotation frequency: stationary
    assert cat.rossby_s3(j=1, k=-1, d=0, sign="-").spectral.classification \
        == "stationary"
    # ladder values alpha_- = -(l + 2)
    assert cat.rossby_s3(j=1, k=1, d=0, sign="-").spectral.alpha == -4.0
    assert cat.rossby_s3(j=1, k=0, d=1, sign="+").spectral.alpha == 3.0


def test_s3_degenerate_plus_branch_raises():
    with pytest.raises(cat.ConstructionError):
        cat.rossby_s3(j=1, k=0, d=0, sign="+")
    with pytest.raises(cat.ConstructionError):
        cat.rossby_s3(j=0, k=2, d=0, sign="+")
    with pytest.raises(cat.ConstructionError):
        cat.rossby_s3(j=1, k=0, d=0, sign="x")


def test_s3_wave_is_curl_eigenfield():
    # curl z = alpha z, checked with the generic FD curl on the chart.
    for kwargs in (dict(j=1, k=0, d=0, sign="-"), dict(j=1, k=1, d=0, sign="-"),
                   dict(j=1, k=0, d=1, sign="+")):
        sol = cat.rossby_s3(**kwargs)
        M = sol.manifold
        pts = M.interior_grid((10, 6, 6))
        for part in (np.real, np.imag):
            def fld(t, p, part=part):
                return part(sol.wave(t, p))

            got = geo.curl3(M, fld, 0.0, pts)
            want = sol.spectral.alpha * fld(0.0, pts)
            sup = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-4 * sup


def test_s3_embedding_matches_displayed_polynomials():
    # U(t,x) = X + cos(t/3) V1 + sin(t/3) V2 with the quadratic fields below.
    sol = cat.rossby_s3(j=1, k=0, d=0, sign="-")
    U = cat.embed_s3_to_r4(sol)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(200, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x1, x2, x3, x4 = x.T

    X = np.stack([-x2, x1, -x4, x3], axis=-1)
    V1 = np.stack([-2 * x1 * x2,
                   2 * x1 ** 2 - x3 ** 2 - x4 ** 2,
                   x2 * x3 - 3 * x1 * x4,
                   3 * x1 * x3 + x2 * x4], axis=-1)
    V2 = np.stack([x3 ** 2 + x4 ** 2 - 2 * x2 ** 2,
                   2 * x1 * x2,
                   -(x1 * x3 + 3 * x2 * x4),
                   3 * x2 * x3 - x1 * x4], axis=-1)
    for t in (0.0, 0.7, 1.9):
        want = X + np.cos(t / 3) * V1 + np.sin(t / 3) * V2
        got = U(t, x)
        assert np.max(np.abs(got - want)) < 1e-10
        # tangency to the unit sphere
        assert np.max(np.abs(np.einsum("ni,ni->n", got, x))) < 1e-10


def test_s3_embedding_rejects_other_geometries():
    with pytest.raises(ValueError):
        cat.embed_s3_to_r4(cat.kelvin_torus(n=1, m=2))


# ---------------------------------------------------------------------------
# solid cylinder
# ---------------------------------------------------------------------------


def test_cylinder_spectral_and_wall_condition():
    sol = cat.ck_cylinder(n=1, m=1, branch=1)
    beta = sol.metadata["beta"]
    alpha = sol.spectral.alpha
    assert abs(alpha - np.sqrt(beta ** 2 + 1.0)) < 1e-12
    assert abs(sol.spectral.lam - 2.0 / alpha) < 1e-13
    assert abs(sol.omega - (2.0 / alpha - 1.0)) < 1e-13
    assert sol.spectral.classification == "genuine"
    # radial component dies at the wall (that's the dispersion relation)
    th = np.linspace(0, 2 * np.pi, 9)
    pts = np.stack([np.ones_like(th), th, 0.3 * np.ones_like(th)], axis=-1)
    for t in (0.0, 0.8):
        assert np.max(np.abs(sol.velocity(t, pts)[:, 0])) < 1e-10


def test_cylinder_axisymmetric_case():
    sol = cat.ck_cylinder(n=0, m=1, branch=1)
    assert abs(sol.metadata["beta"] - sf.bessel_j_zero(1, 1)) < 1e-10
    assert sol.spectral.zeta == 0.0
    assert sol.spectral.classification == "genuine"


def test_cylinder_wave_is_curl_eigenfield():
    sol = cat.ck_cylinder(n=1, m=1, branch=1)
    M = sol.manifold
    pts = M.interior_grid((8, 6, 6))
    for part in (np.real, np.imag):
        def fld(t, p, part=part):
            return part(sol.wave(t, p))

        got = geo.curl3(M, fld, 0.0, pts)
        want = sol.spectral.alpha * fld(0.0, pts)
        assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


def test_cylinder_wave_is_divergence_free():
    sol = cat.ck_cylinder(n=2, m=1, branch=1)
    M = sol.manifold
    pts = M.interior_grid((8, 6, 6))
    def v(t, p):
        return sol.wave(t, p).real

    div = geo.divergence(M, v, 0.0, pts)
    assert np.max(np.abs(div)) < 1e-6 * np.max(np.abs(v(0.0, pts)))


# ---------------------------------------------------------------------------
# twisted annulus
# ---------------------------------------------------------------------------


def test_annulus_default_spectral_values():
    sol = cat.twisted_annulus(m=1)
    assert abs(sol.spectral.alpha - 1.25) < 1e-9
    assert abs(sol.spectral.lam - 1.6) < 1e-9
    assert abs(sol.omega - 1.6) < 1e-9
    assert sol.spectral.zeta == 0.0
    assert abs(sol.metadata["k"] - 0.75) < 1e-9
    assert abs(sol.metadata["nu"] - 0.5) < 1e-9
    assert sol.spectral.classification == "genuine"


def test_annulus_wave_is_curl_eigenfield_and_tangent():
    sol = cat.twisted_annulus(m=1)
    M = sol.manifold
    pts = M.interior_grid((8, 6, 6))
    for part in (np.real, np.imag):
        def fld(t, p, part=part):
            return part(sol.wave(t, p))

        got = geo.curl3(M, fld, 0.0, pts)
        want = sol.spectral.alpha * fld(0.0, pts)
        assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))
    for face in M.boundaries:
        bpts = geo.boundary_nodes(M, face, 8)
        nc = geo.normal_component(M, face, bpts, sol.velocity(0.3, bpts))
        assert np.max(np.abs(nc)) < 1e-8


# ---------------------------------------------------------------------------
# spectral data derived from the base and the wavenumbers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_base_image_is_the_inertia_image_of_the_base(key):
    # zeta and lam are derived from the listed components of u0 and A u0, so
    # the listed A u0 is checked against the FD inertia operator: on
    # surfaces sgrad psi0 = u0 and sgrad(lap psi0) = A u0 (the nested
    # stencils reach 2.2e-7 on kelvin-hyperbolic), in 3D curl u0 = A u0
    sol = cat.build(key)
    M = sol.manifold
    pts = M.interior_grid((10,) * M.dim)
    u0, Au0 = sol.base_flow(0.0, pts), sol.base_image(0.0, pts)
    if M.dim == 2:
        def vorticity(t, q):
            return geo.laplace_beltrami(M, sol.psi_base, t, q)

        routes = [(geo.skew_gradient_values(M, sol.psi_base, 0.0, pts), u0),
                  (geo.skew_gradient_values(M, vorticity, 0.0, pts), Au0)]
    else:
        routes = [(geo.curl3(M, sol.base_flow, 0.0, pts), Au0)]
    for route, listed in routes:
        assert np.max(np.abs(route - listed)) < (1e-5 if M.dim == 2 else 1e-8)


# repr of (alpha, zeta, lam, omega, lam_exact, omega_exact) and the class of
# the seven defaults and twelve members, pinned so that a change that moves
# one has to say so.  A zero frequency is +0.0 (kelvin-hyperbolic at n = 0
# has u0.k = A u0.k = 0).  The low bits of numerically determined spectra
# follow numpy and scipy, so with other versions the floats are compared
# to 1e-12.
_SPECTRAL_PIN_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy
_SPECTRAL_PINS = [
    ("ck-cylinder", {},
     ("3.1368518874236297", "1.0", "0.6375819043348735",
      "-0.3624180956651265", "None", "None", "genuine")),
    ("kelvin-disk", {},
     ("14.681970642123895", "1.0", "0.0", "-1.0", "Fraction(0, 1)",
      "Fraction(-1, 1)", "moving-frame-trivial")),
    ("kelvin-hyperbolic", {},
     ("14.697557983083104", "1.0", "-0.13607702737434346",
      "-1.1360770273743435", "None", "None", "genuine")),
    ("kelvin-torus", {},
     ("5.0", "1.0", "0.0", "-1.0", "Fraction(0, 1)", "Fraction(-1, 1)",
      "moving-frame-trivial")),
    ("rossby-s3", {},
     ("-3.0", "1.0", "0.6666666666666666", "-0.33333333333333337",
      "Fraction(2, 3)", "Fraction(-1, 3)", "genuine")),
    ("rossby-sphere", {},
     ("6.0", "1.0", "0.3333333333333333", "-0.6666666666666667",
      "Fraction(1, 3)", "Fraction(-2, 3)", "genuine")),
    ("twisted-annulus", {},
     ("1.2500000000000013", "0.0", "1.5999999999999983",
      "1.5999999999999983", "None", "None", "genuine")),
    ("kelvin-torus", {"n": 3, "m": -2},
     ("13.0", "3.0", "0.0", "-3.0", "Fraction(0, 1)", "Fraction(-3, 1)",
      "moving-frame-trivial")),
    ("kelvin-disk", {"n": -2, "m": 3},
     ("135.02070886597045", "-2.0", "0.0", "2.0", "Fraction(0, 1)",
      "Fraction(2, 1)", "moving-frame-trivial")),
    ("rossby-sphere", {"n": 3, "m": 6},
     ("42.0", "3.0", "0.14285714285714285", "-2.857142857142857",
      "Fraction(1, 7)", "Fraction(-20, 7)", "genuine")),
    ("rossby-sphere", {"n": 0, "m": 2},
     ("6.0", "0.0", "0.0", "0.0", "Fraction(0, 1)", "Fraction(0, 1)",
      "stationary")),
    ("kelvin-hyperbolic", {"n": 0},
     ("6.11308181971177", "0.0", "0.0", "0.0", "Fraction(0, 1)",
      "Fraction(0, 1)", "stationary")),
    ("kelvin-hyperbolic", {"n": -2, "m": 2},
     ("69.93312407719931", "-2.0", "0.05719750193891513",
      "2.0571975019389153", "None", "None", "genuine")),
    ("rossby-s3", {"j": 2, "k": 1, "d": 1},
     ("-7.0", "3.0", "0.8571428571428571", "-2.142857142857143",
      "Fraction(6, 7)", "Fraction(-15, 7)", "genuine")),
    ("rossby-s3", {"j": 3, "k": -3, "d": 0, "sign": "+"},
     ("6.0", "0.0", "0.0", "0.0", "Fraction(0, 1)", "Fraction(0, 1)",
      "stationary")),
    ("ck-cylinder", {"n": 0, "m": 2},
     ("4.322264527088011", "0.0", "0.9254408134744296",
      "0.9254408134744296", "None", "None", "genuine")),
    ("ck-cylinder", {"n": 2, "m": 0},
     ("5.135622301840524", "2.0", "0.0", "-2.0", "Fraction(0, 1)",
      "Fraction(-2, 1)", "moving-frame-trivial")),
    ("twisted-annulus", {"m": 0, "n": 1},
     ("0.7805690024578226", "1.0", "0.0", "-1.0", "Fraction(0, 1)",
      "Fraction(-1, 1)", "moving-frame-trivial")),
    ("twisted-annulus", {"m": 2, "n": 1},
     ("2.128607088557995", "1.0", "1.8791631492262684",
      "0.8791631492262684", "None", "None", "genuine")),
]


def _spectral_floats(sp):
    return (sp.alpha, sp.zeta, sp.lam, sp.omega)


@pytest.mark.parametrize(
    "key, params, want", _SPECTRAL_PINS,
    ids=[key + "".join(f"-{k}={v}" for k, v in params.items())
         for key, params, _ in _SPECTRAL_PINS])
def test_spectral_data_of_the_member_grid_is_pinned(key, params, want):
    sol = cat.build(key, **params)
    sp = sol.spectral
    got = tuple(map(repr, _spectral_floats(sp))) + (
        repr(sp.lam_exact), repr(sp.omega_exact), sp.classification)
    if (np.__version__, scipy.__version__) == _SPECTRAL_PIN_VERSIONS:
        assert got == want
    else:
        assert got[4:] == want[4:]
        assert np.allclose(_spectral_floats(sp), [float(v) for v in want[:4]],
                           rtol=1e-12, atol=0.0)
    if params:
        rep = ver.check_eigen_relations(sol, grid=(8,) * sol.dim)
        assert rep.all_pass, [c.name for c in rep.checks if not c.passed]


def test_spectral_zeros_are_positive():
    # a zero frequency is +0.0 on every member: no -0.0 reaches a report
    for key, params, _ in _SPECTRAL_PINS:
        for value in _spectral_floats(cat.build(key, **params).spectral):
            assert value != 0.0 or math.copysign(1.0, value) > 0.0, \
                (key, params)


# ---------------------------------------------------------------------------
# registry / assembly behaviour
# ---------------------------------------------------------------------------


def test_registry_builds_all_entries_with_defaults():
    assert cat.catalogue_keys() == [
        "ck-cylinder", "kelvin-disk", "kelvin-hyperbolic", "kelvin-torus",
        "rossby-s3", "rossby-sphere", "twisted-annulus",
    ]
    for key in cat.catalogue_keys():
        sol = cat.build(key)
        assert sol.key == key
        assert sol.manifold.dim in (2, 3)


def test_registry_defaults_are_the_builders_defaults(monkeypatch):
    # read once at import, in signature order; build() does not introspect
    assert list(cat.CATALOGUE["twisted-annulus"].defaults.items()) == [
        ("m", 1), ("n", 0), ("c", -0.3), ("r_lo", 2.0 * math.pi / 3.0),
        ("r_hi", 2.0 * math.pi), ("branch", 1), ("rho", 1.0),
        ("sigma", 0.0)]

    def no_introspection(*args, **kwargs):
        raise AssertionError("build() introspected a builder")

    monkeypatch.setattr(cat.inspect, "signature", no_introspection)
    assert cat.build("kelvin-torus", m=3).params["m"] == 3


def test_build_rejects_unknown_keys_and_params():
    with pytest.raises(KeyError, match="no-such-flow.*known: .*kelvin-torus"):
        cat.build("no-such-flow")
    with pytest.raises(cat.ConstructionError):
        cat.build("kelvin-torus", q=3)


def test_perturbed_copy_changes_frequency_only():
    sol = cat.rossby_sphere(n=1, m=2)
    pert = sol.perturbed(1.1)
    assert abs(pert.omega - 1.1 * sol.omega) < 1e-15
    assert pert.spectral.omega_exact is None
    pts = np.array([[0.3, 1.2], [2.0, 2.0]])
    assert np.allclose(pert.velocity(0.0, pts), sol.velocity(0.0, pts))
    assert not np.allclose(pert.velocity(1.0, pts), sol.velocity(1.0, pts))


def test_classification_table():
    # Stationarity across the catalogue: lam = zeta <=> stationary,
    # lam = 0 != zeta <=> trivial up to a moving frame, otherwise genuine.
    table = [
        (cat.kelvin_torus(n=0, m=1), "stationary"),
        (cat.kelvin_torus(n=1, m=2), "moving-frame-trivial"),
        (cat.kelvin_disk(n=0, m=1), "stationary"),
        (cat.kelvin_disk(n=1, m=1), "moving-frame-trivial"),
        (cat.kelvin_disk(n=2, m=2), "moving-frame-trivial"),
        (cat.rossby_sphere(n=0, m=2), "stationary"),
        (cat.rossby_sphere(n=1, m=1), "stationary"),
        (cat.rossby_sphere(n=1, m=2), "genuine"),
        (cat.rossby_sphere(n=2, m=3), "genuine"),
        (cat.kelvin_hyperbolic(n=0, m=1), "stationary"),
        (cat.kelvin_hyperbolic(n=1, m=1), "genuine"),
        (cat.rossby_s3(j=1, k=-1, d=0, sign="-"), "stationary"),
    ]
    for sol, want in table:
        assert sol.spectral.classification == want, sol.key


def test_evaluators_match_written_out_phase_rotation():
    # U = u0 + rho cos(ph) v - rho sin(ph) w, V = rho sin(ph) v + rho cos(ph) w
    # spelled out from the derived parts (v, w) = (Re z, Im z) of the one
    # stored complex eigenfield; likewise for the streams.  Their time
    # derivatives Re(i omega rho e^{i ph} z) and Re(omega rho e^{i ph} z),
    # the closed forms the harmonic residuals use, are spelled out too.
    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    for key in cat.catalogue_keys():
        sol = cat.build(key, rho=0.7, sigma=0.4)
        M = sol.manifold
        pts = np.concatenate([
            M.interior_grid((4,) * M.dim),
            M.random_interior(10, np.random.default_rng(11))])
        u0 = sol.base_flow
        c = sol.rho * sol.omega
        for t in (0.0, 0.7, 1.9):
            cs, sn = np.cos(sol.phase(t)), np.sin(sol.phase(t))
            e = sol.rho * np.exp(1j * sol.phase(t))

            def dt(zv, linearized=False):
                k = sol.omega if linearized else 1j * sol.omega
                return (k * e * zv).real

            z = sol.wave(t, pts)
            fv, fw = z.real, z.imag
            close(sol.velocity(t, pts),
                  u0(t, pts) + sol.rho * cs * fv - sol.rho * sn * fw)
            close(dt(z), -c * sn * fv - c * cs * fw)
            close(sol.linearized(t, pts),
                  sol.rho * sn * fv + sol.rho * cs * fw)
            close(dt(z, linearized=True), c * cs * fv - c * sn * fw)
            if sol.psi_wave is None:
                assert sol.psi_base is None
                continue
            zpsi = sol.psi_wave(t, pts)
            pv, pw = zpsi.real, zpsi.imag
            stream = functools.partial(sol._rotate, sol.psi_wave, t, pts)
            close(stream(base=sol.psi_base), sol.psi_base(t, pts)
                  + sol.rho * cs * pv - sol.rho * sn * pw)
            close(dt(zpsi), -c * sn * pv - c * cs * pw)
            close(stream(linearized=True),
                  sol.rho * sn * pv + sol.rho * cs * pw)
            close(dt(zpsi, linearized=True), c * cs * pv - c * sn * pw)

        calls = []

        def counting(t, p, wave=sol.wave):
            calls.append(t)
            return wave(t, p)

        replace(sol, wave=counting).velocity(0.7, pts)
        assert calls == [0.7], key


def _row_by_row(f, t, pts):
    return np.concatenate([f(t, pts[i:i + 1]) for i in range(len(pts))])


def test_batched_evaluators_equal_row_by_row_bit_for_bit():
    # A radial profile is evaluated once per run of equal radii and then
    # repeated: on the tensor grid, on the FD stencil's shifted copies of it
    # and on a mixed batch, every evaluator must equal its row-by-row value
    # exactly, so report bytes cannot move.
    rng = np.random.default_rng(4)
    for key in cat.catalogue_keys():
        sol = cat.build(key, rho=0.7, sigma=0.4)
        M = sol.manifold
        grid = M.interior_grid((6,) * M.dim)
        h = M.fd_steps()
        batches = [grid]
        for axis in range(M.dim):
            for step in (-2.0, -1.0, 1.0, 2.0):
                shifted = grid.copy()
                shifted[:, axis] += step * h[axis]
                batches.append(shifted)
        batches.append(np.concatenate([grid, M.random_interior(20, rng)]))
        evaluators = [sol.wave, sol.velocity, sol.linearized]
        if sol.psi_wave is not None:
            evaluators.append(sol.psi_wave)
        for pts in batches:
            for f in evaluators:
                assert np.array_equal(f(0.7, pts), _row_by_row(f, 0.7, pts)), \
                    (key, f)


# The profile core of each entry, and how often one wave evaluation calls it
_PROFILE_CORES = {
    cat.kelvin_disk: (sf, "bessel_j", 1),
    cat.ck_cylinder: (sf, "bessel_j", 1),
    cat.kelvin_hyperbolic: (sf.RadialMode, "value", 1),
    cat.rossby_s3: (sf, "jacobi_poly", 1),
    cat.twisted_annulus: (solvers.CMetricMode, "g", 1),
}


@pytest.mark.parametrize("builder, shape", [(cat.kelvin_disk, (24, 24)),
                                            (cat.ck_cylinder, (12, 12, 12)),
                                            (cat.kelvin_hyperbolic, (24, 24)),
                                            (cat.rossby_s3, (12, 12, 12)),
                                            (cat.twisted_annulus, (6, 6, 6))])
def test_bessel_profile_runs_once_per_distinct_radius(monkeypatch, builder,
                                                      shape):
    sol = builder()
    owner, name, calls = _PROFILE_CORES[builder]
    core = getattr(owner, name)
    sizes = []

    def counting(*args):
        sizes.append(np.size(args[-1]))
        return core(*args)

    monkeypatch.setattr(owner, name, counting)
    sol.velocity(0.7, sol.manifold.interior_grid(shape))
    assert sizes == [shape[0]] * calls


# Entry parameters with a non-zero wavenumber on every periodic axis where
# the entry allows one, and the wavenumbers (0 on the bounded axis).
_WAVENUMBERS = {
    "kelvin-torus": ({"n": 2, "m": -3}, (2, -3)),
    "kelvin-disk": ({"n": -2}, (0, -2)),
    "rossby-sphere": ({"n": 2, "m": 3}, (2, 0)),
    "kelvin-hyperbolic": ({"n": 2}, (0, 2)),
    "rossby-s3": ({"j": 1, "k": 2}, (0, 1, 2)),
    "ck-cylinder": ({"n": 2, "m": 1}, (0, 2, 1)),
    "twisted-annulus": ({"n": 1, "m": 1}, (0, 1, 1)),
}


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_periodic_shift_multiplies_the_wave_by_its_phase(key):
    # every eigenfield is a profile of the bounded coordinate times
    # e^{i k.x}: a shift by s along periodic axis a multiplies it by
    # e^{i k_a s}
    params, k = _WAVENUMBERS[key]
    sol = cat.build(key, **params)
    M = sol.manifold
    pts = M.interior_grid((5,) * M.dim)
    evaluators = [sol.wave]
    if sol.psi_wave is not None:
        evaluators.append(sol.psi_wave)
    for axis in [a for a in range(M.dim) if M.periodic[a]]:
        for s in (0.37, -1.3):
            shifted = pts.copy()
            shifted[:, axis] += s
            for f in evaluators:
                ref = f(0.7, pts)
                got = f(0.7, shifted)
                err = np.max(np.abs(got - np.exp(1j * k[axis] * s) * ref))
                assert err <= 1e-13 * np.max(np.abs(ref)), (key, axis, s)


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_builders_reject_non_finite_amplitude_and_phase(key):
    for bad in ({"rho": float("nan")}, {"rho": float("inf")},
                {"sigma": float("nan")}, {"sigma": -float("inf")}):
        with pytest.raises(cat.ConstructionError, match="finite"):
            cat.build(key, **bad)


def test_annulus_rejects_non_finite_twist_and_walls():
    for bad in ({"c": float("nan")}, {"r_hi": float("inf")}):
        with pytest.raises(cat.ConstructionError, match="finite"):
            cat.twisted_annulus(**bad)
