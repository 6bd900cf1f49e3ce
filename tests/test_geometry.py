"""Checks of the chart/metric layer and the finite-difference operators.

Expected values are hand-derived closed forms (noted next to each assertion),
so these tests are independent of the library's own differential machinery.
"""

import numpy as np
import pytest
from scipy.special import jv

from eulerwaves import geometry as geo
from eulerwaves.fields import StreamFunction, VectorField, constant_field

RNG_SEED = 0x45554C52


def torus_points(n=40, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2 * np.pi, size=(n, 2))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_partial_matches_analytic_derivative():
    M = geo.flat_torus()
    pts = torus_points()
    f = lambda t, p: np.sin(3.0 * p[:, 0]) * np.cos(p[:, 1])
    h = M.fd_steps()[0]
    d = geo.fd_partial(f, 0.0, pts, 0, h)
    exact = 3.0 * np.cos(3.0 * pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(d - exact)) < 1e-6


def test_fd_partial_richardson_halving_gains_order():
    # 4th-order stencil: halving h must shrink the error by about 16,
    # and at least 8.
    M = geo.flat_torus()
    pts = torus_points()
    f = lambda t, p: np.exp(np.sin(p[:, 0] + 2.0 * p[:, 1]))
    exact = np.cos(pts[:, 0] + 2.0 * pts[:, 1]) * f(0.0, pts)
    h = M.fd_steps()[0]
    e1 = np.max(np.abs(geo.fd_partial(f, 0.0, pts, 0, h) - exact))
    e2 = np.max(np.abs(geo.fd_partial(f, 0.0, pts, 0, h / 2) - exact))
    assert e1 / e2 >= 8.0


# ---------------------------------------------------------------------------
# Laplace-Beltrami (geometer sign: positive spectrum)
# ---------------------------------------------------------------------------


def test_laplacian_flat_torus_eigenfunction():
    # lap cos(x + 2y) = (1 + 4) cos(x + 2y) with the geometer sign.
    M = geo.flat_torus()
    pts = torus_points()
    f = lambda t, p: np.cos(p[:, 0] + 2.0 * p[:, 1])
    lap = geo.laplace_beltrami(M, f, 0.0, pts)
    assert np.max(np.abs(lap - 5.0 * f(0.0, pts))) < 1e-5


def test_laplacian_sphere_closed_form():
    # On the round sphere (theta, phi): lap cos(phi) = 2 cos(phi).
    M = geo.round_sphere()
    pts = M.interior_grid((12, 12))
    f = lambda t, p: np.cos(p[:, 1])
    lap = geo.laplace_beltrami(M, f, 0.0, pts)
    assert np.max(np.abs(lap - 2.0 * np.cos(pts[:, 1]))) < 1e-6


def test_laplacian_hyperbolic_closed_form():
    # lap cosh(r) = -(1/sinh r) d_r(sinh r * sinh r) = -2 cosh(r).
    M = geo.hyperbolic_disk()
    pts = M.interior_grid((12, 12))
    f = lambda t, p: np.cosh(p[:, 0])
    lap = geo.laplace_beltrami(M, f, 0.0, pts)
    assert np.max(np.abs(lap + 2.0 * np.cosh(pts[:, 0]))) < 1e-6


def test_laplacian_disk_bessel_eigenfunction():
    # J_0(beta r) with J_0(beta) = 0 solves lap f = beta^2 f (geometer sign).
    beta = 2.404825557695773  # first zero of J_0
    M = geo.flat_disk()
    pts = M.interior_grid((14, 14))
    f = lambda t, p: jv(0, beta * p[:, 0])
    lap = geo.laplace_beltrami(M, f, 0.0, pts)
    assert np.max(np.abs(lap - beta ** 2 * f(0.0, pts))) < 1e-5


def test_laplacian_richardson_halving():
    M = geo.round_sphere()
    pts = M.interior_grid((8, 8))
    f = lambda t, p: np.cos(p[:, 1]) ** 3
    # lap cos^3 = -(1/s) d(s * d(cos^3)) with s = sin(phi):
    # d_phi cos^3 = -3 cos^2 s; flux = -3 cos^2 s^2;
    # d_phi flux = 6 c s^3 - 6 c^3 s ... / -s => 12 cos^3 - 6 cos
    c = np.cos(pts[:, 1])
    exact = 12.0 * c ** 3 - 6.0 * c
    e1 = np.max(np.abs(geo.laplace_beltrami(M, f, 0.0, pts, h_scale=1.0) - exact))
    e2 = np.max(np.abs(geo.laplace_beltrami(M, f, 0.0, pts, h_scale=0.5) - exact))
    assert e1 / e2 >= 8.0


# ---------------------------------------------------------------------------
# skew gradient / divergence / Poisson bracket
# ---------------------------------------------------------------------------


def test_skew_gradient_disk_rigid_rotation():
    # psi = -r^2/2 generates the unit rotation (0, 1) in (r, theta).
    M = geo.flat_disk()
    pts = M.interior_grid((10, 10))
    psi = StreamFunction(dim=2, func=lambda t, p: -0.5 * p[:, 0] ** 2)
    u = geo.skew_gradient(M, psi)
    vals = u(0.0, pts)
    assert np.max(np.abs(vals[:, 0])) < 1e-10
    assert np.max(np.abs(vals[:, 1] - 1.0)) < 1e-10


def test_divergence_radial_field_disk():
    # div(r d_r) = (1/r) d_r(r * r) = 2 on the flat disk.
    M = geo.flat_disk()
    pts = M.interior_grid((10, 10))
    u = lambda t, p: np.stack([p[:, 0], np.zeros(p.shape[0])], axis=-1)
    div = geo.divergence(M, u, 0.0, pts)
    assert np.max(np.abs(div - 2.0)) < 1e-9


def test_skew_gradients_are_divergence_free():
    # Property: div(skew_grad psi) = 0 for random trig stream functions,
    # on flat and curved charts alike.
    rng = np.random.default_rng(RNG_SEED)
    for M in (geo.flat_torus(), geo.round_sphere(), geo.hyperbolic_disk()):
        pts = M.interior_grid((9, 9))
        a = rng.normal(size=(3, 3))

        def psi(t, p, a=a):
            out = np.zeros(p.shape[0])
            for i in range(3):
                for j in range(3):
                    out += a[i, j] * np.sin((i + 1) * p[:, 0] + 0.3 * j) \
                        * np.cos(j * p[:, 1] + 0.1 * i)
            return out

        u = geo.skew_gradient(M, StreamFunction(dim=2, func=psi))
        div = geo.divergence(M, u, 0.0, pts)
        scale = np.max(np.abs(u(0.0, pts)))
        assert np.max(np.abs(div)) < 2e-5 * max(scale, 1.0)


def test_poisson_bracket_flat_closed_form():
    # {sin x, sin y} = (d_y f d_x g - d_x f d_y g) = -cos x cos y on the torus.
    M = geo.flat_torus()
    pts = torus_points()
    f = lambda t, p: np.sin(p[:, 0])
    g = lambda t, p: np.sin(p[:, 1])
    pb = geo.poisson_bracket(M, f, g, 0.0, pts)
    exact = -np.cos(pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(pb - exact)) < 1e-7


def test_poisson_bracket_is_advection_by_skew_gradient():
    # {f, g} = skew_grad(f) . grad(g): the defining compatibility.
    M = geo.round_sphere()
    pts = M.interior_grid((9, 9))
    f = lambda t, p: np.cos(p[:, 1]) * np.sin(p[:, 0])
    g = lambda t, p: np.sin(p[:, 1]) ** 2 * np.cos(2.0 * p[:, 0])
    pb = geo.poisson_bracket(M, f, g, 0.0, pts)
    u = geo.skew_gradient_values(M, f, 0.0, pts)
    h = M.fd_steps()
    dg = np.stack([geo.fd_partial(g, 0.0, pts, j, h[j]) for j in range(2)], axis=-1)
    advect = np.einsum("ni,ni->n", u, dg)
    assert np.max(np.abs(pb - advect)) < 1e-6


def test_bracket_of_skew_gradients_is_skew_gradient_of_bracket():
    # [skew f, skew g] = skew {f, g}; fixes the orientation conventions.
    M = geo.flat_torus()
    pts = torus_points(30)
    f = lambda t, p: np.sin(p[:, 0] + p[:, 1])
    g = lambda t, p: np.cos(2.0 * p[:, 0])
    uf = geo.skew_gradient(M, StreamFunction(dim=2, func=f))
    ug = geo.skew_gradient(M, StreamFunction(dim=2, func=g))
    lhs = geo.lie_bracket(M, uf, ug, 0.0, pts)
    pb = lambda t, p: geo.poisson_bracket(M, f, g, t, p)
    rhs = geo.skew_gradient_values(M, pb, 0.0, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


# ---------------------------------------------------------------------------
# 3D operators
# ---------------------------------------------------------------------------


def test_curl3_flat_closed_form():
    M = geo.flat_torus3()
    pts = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(30, 3))
    u = lambda t, p: np.stack(
        [np.sin(p[:, 2]), np.zeros(p.shape[0]), np.zeros(p.shape[0])], axis=-1)
    c = geo.curl3(M, u, 0.0, pts)
    exact = np.stack([np.zeros(30), np.cos(pts[:, 2]), np.zeros(30)], axis=-1)
    assert np.max(np.abs(c - exact)) < 1e-7


def test_curl3_beltrami_field_flat():
    # ABC flow is a curl eigenfield with eigenvalue 1.
    M = geo.flat_torus3()
    pts = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(30, 3))
    A, B, C = 1.1, 0.7, -0.4

    def u(t, p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.stack([
            A * np.sin(z) + C * np.cos(y),
            B * np.sin(x) + A * np.cos(z),
            C * np.sin(y) + B * np.cos(x),
        ], axis=-1)

    c = geo.curl3(M, u, 0.0, pts)
    assert np.max(np.abs(c - u(0.0, pts))) < 1e-6


def test_curl3_cylinder_rotation():
    # curl(d_theta) = 2 d_z in the flat solid cylinder.
    M = geo.solid_cylinder()
    pts = M.interior_grid((6, 6, 6))
    u = constant_field((0.0, 1.0, 0.0))
    c = geo.curl3(M, u, 0.0, pts)
    exact = np.stack([np.zeros(len(pts)), np.zeros(len(pts)),
                      2.0 * np.ones(len(pts))], axis=-1)
    assert np.max(np.abs(c - exact)) < 1e-8


def test_curl3_hopf_field_three_sphere():
    # curl(d_theta + d_phi) = -2 (d_theta + d_phi) on the round 3-sphere.
    M = geo.three_sphere()
    pts = M.interior_grid((8, 6, 6))
    u = constant_field((0.0, 1.0, 1.0))
    c = geo.curl3(M, u, 0.0, pts)
    assert np.max(np.abs(c - (-2.0) * u(0.0, pts))) < 1e-7


def test_curl3_twisted_annulus_rotations():
    # In the twisted chart with phi(r) = r:
    #   curl d_theta = 2 d_z, curl d_z = 2 c^2/r^4 d_theta.
    c = -0.3
    M = geo.cmetric_chart(lambda r: r, lambda r: np.ones_like(r), c,
                          2 * np.pi / 3, 2 * np.pi)
    pts = M.interior_grid((6, 6, 6))
    rot = constant_field((0.0, 1.0, 0.0))
    shift = constant_field((0.0, 0.0, 1.0))
    c_rot = geo.curl3(M, rot, 0.0, pts)
    expected_rot = np.zeros_like(c_rot)
    expected_rot[:, 2] = 2.0
    assert np.max(np.abs(c_rot - expected_rot)) < 1e-8
    c_shift = geo.curl3(M, shift, 0.0, pts)
    expected_shift = np.zeros_like(c_shift)
    expected_shift[:, 1] = 2.0 * c ** 2 / pts[:, 0] ** 4
    assert np.max(np.abs(c_shift - expected_shift)) < 1e-6


def test_lie_bracket_flat_closed_form():
    M = geo.flat_torus()
    pts = torus_points(30)
    u = constant_field((1.0, 0.0))
    v = VectorField(dim=2, func=lambda t, p: np.stack(
        [np.zeros(p.shape[0]), np.sin(p[:, 0])], axis=-1))
    br = geo.lie_bracket(M, u, v, 0.0, pts)
    exact = np.stack([np.zeros(30), np.cos(pts[:, 0])], axis=-1)
    assert np.max(np.abs(br - exact)) < 1e-7


def test_lie_bracket_coordinate_fields_commute():
    M = geo.round_sphere()
    pts = M.interior_grid((8, 8))
    br = geo.lie_bracket(M, constant_field((1.0, 0.0)),
                         constant_field((0.0, 1.0)), 0.0, pts)
    assert np.max(np.abs(br)) < 1e-12


def test_lie_bracket_jacobi_identity():
    # [u,[v,w]] + [v,[w,u]] + [w,[u,v]] = 0, checked with nested FD brackets.
    M = geo.flat_torus()
    pts = torus_points(20)

    def mk(i):
        def func(t, p):
            return np.stack([np.sin(p[:, 1] + 0.5 * i),
                             np.cos(p[:, 0] + 0.2 * i)], axis=-1)
        return VectorField(dim=2, func=func)

    u, v, w = mk(0), mk(1), mk(2)

    def br(a, b):
        return VectorField(dim=2, func=lambda t, p: geo.lie_bracket(M, a, b, t, p))

    total = (geo.lie_bracket(M, u, br(v, w), 0.0, pts)
             + geo.lie_bracket(M, v, br(w, u), 0.0, pts)
             + geo.lie_bracket(M, w, br(u, v), 0.0, pts))
    assert np.max(np.abs(total)) < 1e-5


# ---------------------------------------------------------------------------
# inertia operator
# ---------------------------------------------------------------------------


def test_inertia_operator_disk_stream_route():
    # u = skew_grad(J_0(beta r)) has A u = beta^2 u when J_0(beta) = 0.
    beta = 2.404825557695773
    M = geo.flat_disk()
    pts = M.interior_grid((10, 10))
    psi = StreamFunction(dim=2, func=lambda t, p: jv(0, beta * p[:, 0]))
    u = geo.skew_gradient(M, psi)
    au = geo.inertia_operator(M, u, 0.0, pts)
    uv = u(0.0, pts)
    assert np.max(np.abs(au - beta ** 2 * uv)) < 1e-4 * beta ** 2


def test_inertia_operator_prefers_closed_form_image():
    M = geo.round_sphere()
    pts = M.interior_grid((6, 6))
    u = constant_field((1.0, 0.0), label="rotation")
    u.inertia_image = constant_field((2.0, 0.0))
    au = geo.inertia_operator(M, u, 0.0, pts)
    assert np.allclose(au[:, 0], 2.0) and np.allclose(au[:, 1], 0.0)


def test_inertia_operator_requires_structure_in_2d():
    M = geo.flat_torus()
    u = VectorField(dim=2, func=lambda t, p: np.ones((p.shape[0], 2)))
    with pytest.raises(ValueError):
        geo.inertia_operator(M, u, 0.0, torus_points(4))


# ---------------------------------------------------------------------------
# closed-form metric algebra
# ---------------------------------------------------------------------------


def _all_charts():
    from eulerwaves.solvers import CMetricProfile
    profile = CMetricProfile.linear(-0.3, 2 * np.pi / 3, 2 * np.pi)
    return [geo.flat_torus(), geo.flat_torus3(), geo.flat_disk(),
            geo.round_sphere(), geo.hyperbolic_disk(), geo.three_sphere(),
            geo.solid_cylinder(),
            geo.cmetric_chart(profile.phi, profile.dphi, profile.c,
                              profile.r_lo, profile.r_hi)]


@pytest.mark.parametrize("M", _all_charts(), ids=lambda M: M.name)
def test_closed_form_metric_algebra_matches_linalg(M):
    rng = np.random.default_rng(RNG_SEED)
    pts = M.random_interior(200, rng)
    u = rng.normal(size=(200, M.dim))
    g = M.metric_at(pts)
    assert g.shape == (200, M.dim, M.dim)
    assert np.array_equal(g, np.transpose(g, (0, 2, 1)))

    def close(got, want):
        scale = np.maximum(np.abs(want), 1.0)
        return np.max(np.abs(got - want) / scale) <= 1e-13

    assert close(M.sqrt_det(pts), np.sqrt(np.linalg.det(g)))
    ginv = M.inverse_metric(pts)
    assert close(ginv, np.linalg.inv(g))
    assert close(M.lower(pts, u), np.einsum("nij,nj->ni", g, u))
    assert close(M.norm_sq(pts, u), np.einsum("nij,ni,nj->n", g, u, u))
    assert close(ginv @ g, np.broadcast_to(np.eye(M.dim), g.shape))


@pytest.mark.parametrize("M", _all_charts(), ids=lambda M: M.name)
def test_laplace_beltrami_differentiates_only_coupled_axes(M):
    # The flux of axis i differentiates f only along the axes where g^{i.}
    # can be non-zero: i alone on a diagonal chart, the (theta, z) pair on
    # the c-metric.  Four outer stencil points per axis, four inner calls
    # per differentiated axis.
    rng = np.random.default_rng(RNG_SEED)
    pts = M.random_interior(40, rng)
    k = np.array([1.0, 2.0, 3.0])[:M.dim]
    calls = []

    def f(t, p):
        calls.append(p.shape[0])
        return np.sin(p @ k) * np.cos(p[:, 0]) + 0.5 * p[:, -1]

    got = geo.laplace_beltrami(M, f, 0.3, pts)
    want_calls = 32 if M.dim == 2 else (80 if M.metric.pair else 48)
    assert len(calls) == want_calls

    # reference: the full contraction g^{ij} d_j f over every axis j
    h = M.fd_steps()

    def flux(i):
        def F(tt, q):
            df = np.stack([geo.fd_partial(f, tt, q, j, h[j])
                           for j in range(M.dim)], axis=-1)
            g = M.metric_entries(q)
            return g.sqrt_det * np.einsum("nj,nj->n", g.inverse_row(i), df)
        return F

    total = np.zeros(pts.shape[0])
    for i in range(M.dim):
        total += geo.fd_partial(flux(i), 0.3, pts, i, h[i])
    want = -total / M.sqrt_det(pts)
    assert np.array_equal(got, want)


def test_chart_needs_a_chart_metric():
    disk = geo.flat_disk()
    with pytest.raises(TypeError):
        geo.ChartedManifold(name="plain", dim=2, coords=("x", "y"),
                            ranges=((0.0, 1.0), (0.0, 1.0)),
                            periodic=(False, False), metric=disk.metric_at)
    with pytest.raises(TypeError):
        geo.ChartedManifold(name="wrong-dim", dim=3, coords=("x", "y", "z"),
                            ranges=((0.0, 1.0),) * 3, periodic=(False,) * 3,
                            metric=disk.metric)


# ---------------------------------------------------------------------------
# quadrature, boundaries, grids
# ---------------------------------------------------------------------------


def test_quadrature_closed_forms():
    # <d_x, d_x> over the square torus = (2 pi)^2.
    torus = geo.flat_torus()
    dx = constant_field((1.0, 0.0))
    assert abs(geo.inner_product_quadrature(torus, dx, dx) - 4 * np.pi ** 2) < 1e-9

    # <d_theta, d_theta> over the sphere = int sin^2 dvol = 8 pi / 3.
    sphere = geo.round_sphere()
    dth = constant_field((1.0, 0.0))
    assert abs(geo.inner_product_quadrature(sphere, dth, dth) - 8 * np.pi / 3) < 1e-9

    # <d_theta, d_theta> over the unit disk = int r^2 r dr dtheta = pi / 2.
    disk = geo.flat_disk()
    dthd = constant_field((0.0, 1.0))
    assert abs(geo.inner_product_quadrature(disk, dthd, dthd) - np.pi / 2) < 1e-9

    # Hopf field over the 3-sphere: unit length, so the pairing is vol = 2 pi^2.
    s3 = geo.three_sphere()
    hopf = constant_field((0.0, 1.0, 1.0))
    assert abs(geo.inner_product_quadrature(s3, hopf, hopf) - 2 * np.pi ** 2) < 1e-8

    # Hyperbolic disk area = 2 pi (cosh(1) - 1) via <n, n> with the unit
    # radial field n = d_r.
    hyp = geo.hyperbolic_disk()
    dr = constant_field((1.0, 0.0))
    area = 2 * np.pi * (np.cosh(1.0) - 1.0)
    assert abs(geo.inner_product_quadrature(hyp, dr, dr) - area) < 1e-9


def test_normal_component_disk():
    M = geo.flat_disk()
    face = M.boundaries[0]
    pts = geo.boundary_nodes(M, face, 16)
    u = constant_field((1.0, 0.5))
    nc = geo.normal_component(M, u, 0.0, face, pts)
    assert np.max(np.abs(nc - 1.0)) < 1e-12
    rot = constant_field((0.0, 1.0))
    assert np.max(np.abs(geo.normal_component(M, rot, 0.0, face, pts))) < 1e-12


def test_interior_grid_respects_margins():
    disk = geo.flat_disk()
    pts = disk.interior_grid((10, 10))
    assert pts[:, 0].min() >= 0.05 - 1e-12          # singular margin at r = 0
    assert pts[:, 0].max() <= 1.0 - 1e-4            # stencil pad at r = 1
    sphere = geo.round_sphere()
    sp = sphere.interior_grid((10, 10))
    assert sp[:, 1].min() >= 0.05 * np.pi - 1e-12
    assert sp[:, 1].max() <= np.pi * 0.95 + 1e-12


def test_wrap_and_in_domain():
    M = geo.flat_disk()
    p = M.wrap(np.array([0.5, 2 * np.pi + 0.25]))
    assert abs(p[1] - 0.25) < 1e-12
    pts = np.array([[0.5, 1.0],
                    [0.01, 1.0],      # inside the singular margin
                    [1.2, 1.0],       # outside the chart
                    [np.nan, 1.0],    # non-finite on a bounded axis
                    [0.5, 7.0]])      # periodic axes never halt
    assert M.halt_verdicts(pts) == {1: "hit-singular-margin",
                                    2: "exited-domain", 3: "exited-domain"}
    assert M.halt_verdicts(pts[[0, 4]]) == {}
    assert geo.flat_torus().halt_verdicts(np.array([[50.0, -3.0]])) == {}
    # the first failing axis decides; on one axis the margin beats the range
    square = geo.ChartedManifold(
        name="square", dim=2, coords=("x", "y"),
        ranges=((0.0, 1.0), (0.0, 1.0)), periodic=(False, False),
        metric=M.metric, singular_lower=(True, True))
    assert square.halt_verdicts(np.array(
        [[1.5, 0.01], [0.01, 1.5], [0.5, 0.01], [0.5, -1.0], [0.5, 1.5],
         [1.0, 0.05]])) \
        == {0: "exited-domain", 1: "hit-singular-margin",
            2: "hit-singular-margin", 3: "hit-singular-margin",
            4: "exited-domain"}
