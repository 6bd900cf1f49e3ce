"""Certification-layer checks.

Most of these exercise the verification battery on catalogue entries whose
exactness was established analytically; the falsification tests confirm the
battery has power (wrong frequencies must fail loudly, not drown in slack
tolerances).
"""

import functools
import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy

from eulerwaves import catalogue as cat
from eulerwaves import geometry as geo
from eulerwaves import verification as ver


# ---------------------------------------------------------------------------
# Euler residual
# ---------------------------------------------------------------------------


def test_torus_euler_residual_passes():
    sol = cat.kelvin_torus(n=1, m=2)
    rep = ver.euler_residual(sol)
    (check,) = [c for c in rep.checks if c.name == "euler-residual"]
    assert check.passed
    assert check.sup / check.normalizer <= 1e-5
    # 4th-order stencils: halving h divides the residual by >= 8
    assert rep.richardson["ratio"] is None or rep.richardson["ratio"] >= 8.0
    if rep.richardson["ratio"] is None:
        # retired at the rounding floor: the halved-step sup must actually
        # sit below the floor estimate that excused it
        assert rep.richardson["sup-half-h"] <= rep.richardson["floor-estimate"]
    # the full battery carries the Richardson blocks of both residuals
    full = ver.run_verification(sol, grid=(8, 8), times=[0.7])
    euler = ver.euler_residual(sol, grid=(8, 8), times=[0.7])
    linear = ver.linearized_residual(sol, grid=(8, 8), times=[0.7])
    doc = json.loads(full.to_json_bytes())
    assert doc["schema"] == 1
    assert doc["richardson"] == json.loads(euler.to_json_bytes())["richardson"]
    assert doc["richardson-linearized"] \
        == json.loads(linear.to_json_bytes())["richardson"]
    lin = full.richardson_linearized
    assert set(lin) == {"sup-h", "sup-half-h", "ratio", "floor-estimate"}
    assert lin["ratio"] is None or lin["ratio"] >= 8.0
    if lin["ratio"] is None:
        assert lin["sup-half-h"] <= lin["floor-estimate"]


def test_torus_perturbed_frequency_fails():
    sol = cat.kelvin_torus(n=1, m=2).perturbed(1.1)
    rep = ver.euler_residual(sol)
    (check,) = [c for c in rep.checks if c.name == "euler-residual"]
    assert not check.passed
    assert check.sup / check.normalizer > 10 * check.tol


def test_sphere_base_flow_alone_is_steady():
    # rho = 0 leaves the pure rotation field; the residual is roundoff-level.
    sol = cat.rossby_sphere(n=1, m=2, rho=0.0)
    rep = ver.euler_residual(sol)
    (check,) = [c for c in rep.checks if c.name == "euler-residual"]
    assert check.sup / check.normalizer < 1e-10


def test_cylinder_euler_residual_3d():
    sol = cat.ck_cylinder(n=1, m=1, branch=1)
    rep = ver.euler_residual(sol)
    (check,) = [c for c in rep.checks if c.name == "euler-residual"]
    assert check.passed and check.sup / check.normalizer <= 1e-4
    bad = ver.euler_residual(sol.perturbed(1.1))
    (bad_check,) = [c for c in bad.checks if c.name == "euler-residual"]
    assert bad_check.sup / bad_check.normalizer > 10 * bad_check.tol


def test_dimension_dispatch_guards():
    two = cat.kelvin_torus(n=1, m=2)
    three = cat.ck_cylinder(n=1, m=1)
    # the dispatcher picks the right form
    assert ver.euler_residual(two).checks[0].passed
    assert ver.euler_residual(three).checks[0].passed


def _written_out_residual_at(sol, pts, linearized):
    """The vorticity-form (2D) and curl-form (3D) residuals, each spelled
    out on its own with the nested stencils of u and v rebuilt at every
    time, as ``residual_at(t, s) -> (magnitudes, normalizer)``."""
    M = sol.manifold
    # d/dt of Re(c rho e^{i phase} z) is Re(i omega c rho e^{i phase} z),
    # with c = 1 for u and c = -i for the linearized wave v
    k = sol.omega if linearized else 1j * sol.omega

    def dt_of(z):
        return lambda t, p: (k * sol.rho * np.exp(1j * sol.phase(t))
                             * z(t, p)).real

    if M.dim == 2:
        stream = functools.partial(sol._rotate, sol.psi_wave)
        psi_u = functools.partial(stream, base=sol.psi_base)
        psi_v = functools.partial(stream, linearized=True) if linearized \
            else psi_u
        dt_psi_v = dt_of(sol.psi_wave)

        def residual_at(t, s):
            def vort_u(tt, pp):
                return geo.laplace_beltrami(M, psi_u, tt, pp, h_scale=s)

            def vort_v(tt, pp):
                return geo.laplace_beltrami(M, psi_v, tt, pp, h_scale=s)

            r = (geo.laplace_beltrami(M, dt_psi_v, t, pts, h_scale=s)
                 + geo.poisson_bracket(M, psi_u, vort_v, t, pts, h_scale=s))
            if linearized:
                r = r + geo.poisson_bracket(M, psi_v, vort_u, t, pts,
                                            h_scale=s)
            return np.abs(r), float(np.max(np.abs(vort_v(t, pts))))
        return residual_at

    U = sol.velocity
    V = sol.linearized if linearized else U
    dtV = dt_of(sol.wave)

    def residual_at(t, s):
        def curl_u(tt, pp):
            return geo.curl3(M, U, tt, pp, h_scale=s)

        def curl_v(tt, pp):
            return geo.curl3(M, V, tt, pp, h_scale=s)

        r = (geo.curl3(M, dtV, t, pts, h_scale=s)
             + geo.lie_bracket(M, U, curl_v, t, pts, h_scale=s))
        if linearized:
            r = r + geo.lie_bracket(M, V, curl_u, t, pts, h_scale=s)
        return ver._norms(M, pts, r), float(np.max(
            ver._norms(M, pts, curl_v(t, pts))))
    return residual_at


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_one_residual_form_matches_written_out_forms(key):
    # The harmonic sweep expands the nested stencils of u and v by linearity,
    # so it is the written-out discretization with its rounding reordered:
    # the normalizers agree to rounding, the sups agree where truncation
    # dominates (both Richardson ratios are set), and elsewhere both sit
    # under the rounding floor that retired the ratio.
    sol = cat.build(key)
    M = sol.manifold
    grid = (8, 8) if M.dim == 2 else (5, 5, 5)
    times = [0.7, 1.9]
    pts = M.interior_grid(grid)
    for fn, name, linearized in [
            (ver.euler_residual, "euler-residual", False),
            (ver.linearized_residual, "linearized-residual", True)]:
        rep = fn(sol, grid=grid, times=times)
        (got,) = rep.checks
        residual_at = _written_out_residual_at(sol, pts, linearized)
        full = [residual_at(t, 1.0) for t in times]
        want, richardson = ver._residual_check(
            M, got.tol, name, np.concatenate([r[0] for r in full]),
            max(r[1] for r in full),
            np.concatenate([residual_at(t, 0.5)[0] for t in times]))
        assert got.name == want.name == name
        assert abs(got.normalizer - want.normalizer) \
            <= 1e-10 * want.normalizer, (key, name)
        if rep.richardson["ratio"] is not None \
                and richardson["ratio"] is not None:
            assert abs(got.sup - want.sup) <= 0.01 * want.sup, (key, name)
        else:
            assert got.sup <= rep.richardson["floor-estimate"], (key, name)
            assert want.sup <= richardson["floor-estimate"], (key, name)
        assert got.passed and want.passed, (key, name)


@pytest.mark.parametrize("key, grid", [("kelvin-disk", (8, 8)),
                                       ("rossby-s3", (5, 5, 5))])
def test_residual_field_calls_do_not_grow_with_the_times(key, grid):
    # Every sampled time is arithmetic on the phase harmonics, so both rows
    # evaluate the wave as often for one time as for the four default ones.
    sol = cat.build(key)
    attr = "psi_wave" if sol.dim == 2 else "wave"
    for fn in (ver.euler_residual, ver.linearized_residual):
        counts = []
        for times in ([0.7], ver.default_times(sol.omega)):
            calls = []
            wave = getattr(sol, attr)

            def counting(t, p, wave=wave, calls=calls):
                calls.append(len(p))
                return wave(t, p)

            fn(replace(sol, **{attr: counting}), grid=grid, times=times)
            counts.append(len(calls))
        assert len(ver.default_times(sol.omega)) == 4
        assert counts[0] == counts[1] > 0, (key, fn.__name__, counts)


# ---------------------------------------------------------------------------
# eigen relations
# ---------------------------------------------------------------------------


def test_eigen_relations_sphere():
    rep = ver.check_eigen_relations(cat.rossby_sphere(n=1, m=2))
    names = {c.name for c in rep.checks}
    assert names == {
        "eigen-inertia-v", "eigen-inertia-w",
        "eigen-advection-v", "eigen-advection-w",
        "eigen-coadjoint-v", "eigen-coadjoint-w",
    }
    for c in rep.checks:
        assert c.passed, (c.name, c.sup / c.normalizer)


def test_eigen_relations_hyperbolic_profile():
    # the radial profile is solver-produced; the eigen checks certify it
    rep = ver.check_eigen_relations(cat.kelvin_hyperbolic(n=1, m=1))
    for c in rep.checks:
        assert c.passed, (c.name, c.sup / c.normalizer)


def test_eigen_relations_annulus():
    rep = ver.check_eigen_relations(cat.twisted_annulus(m=1))
    for c in rep.checks:
        assert c.passed, (c.name, c.sup / c.normalizer)


_SMALL_GRIDS = {2: (8, 8), 3: (5, 5, 5)}


def _written_out_pair_rows(sol, pts):
    """The six eigen rows as (name, lhs, rhs) on the real fields v = Re z and
    w = Im z:  A v = alpha v,  A w = alpha w,  [u0, v] = -zeta w,
    [u0, w] = zeta v,  [v, A u0] = lam alpha w,  [w, A u0] = -lam alpha v."""
    M, sp, u0 = sol.manifold, sol.spectral, sol.base_flow

    def part(f, take):
        return lambda t, p: take(f(t, p))

    v, w = part(sol.wave, np.real), part(sol.wave, np.imag)

    def inertia(take):
        if M.dim == 3:
            return geo.curl3(M, part(sol.wave, take), 0.0, pts)
        psi = part(sol.psi_wave, take)

        def vort(t, q):
            return geo.laplace_beltrami(M, psi, t, q)

        return geo.skew_gradient_values(M, vort, 0.0, pts)

    vv, wv = v(0.0, pts), w(0.0, pts)
    la = sp.lam * sp.alpha
    return [
        ("eigen-inertia-v", inertia(np.real), sp.alpha * vv),
        ("eigen-inertia-w", inertia(np.imag), sp.alpha * wv),
        ("eigen-advection-v", geo.lie_bracket(M, u0, v, 0.0, pts),
         -sp.zeta * wv),
        ("eigen-advection-w", geo.lie_bracket(M, u0, w, 0.0, pts),
         sp.zeta * vv),
        ("eigen-coadjoint-v",
         geo.lie_bracket(M, v, sol.base_image, 0.0, pts), la * wv),
        ("eigen-coadjoint-w",
         geo.lie_bracket(M, w, sol.base_image, 0.0, pts), -la * vv),
    ]


def _term_wise_scale(M, pts, u, v):
    """The sup over pts of the metric norm of the term-wise bracket
    sum_a |d_a v^i| |u^a| + |d_a u^i| |v^a|, one term at a time."""
    uv, vv = u(0.0, pts), v(0.0, pts)
    du, dv = (geo.field_jacobian(M, f, 0.0, pts) for f in (u, v))
    terms = np.zeros(uv.shape)
    for i in range(M.dim):
        for a in range(M.dim):
            terms[:, i] += (np.abs(dv[:, i, a]) * np.abs(uv[:, a])
                            + np.abs(du[:, i, a]) * np.abs(vv[:, a]))
    return np.max(ver._norms(M, pts, terms))


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_eigen_rows_match_written_out_pair(key):
    # the rows of the complex relations on z are the real (-v) and imaginary
    # (-w) parts of the six relations on the re/im pair, spelled out above;
    # a bracket row's normalizer is at least its term-wise bracket's sup
    sol = cat.build(key)
    M = sol.manifold
    grid = _SMALL_GRIDS[M.dim]
    rep = ver.check_eigen_relations(sol, grid=grid)
    pts = np.concatenate([M.interior_grid(grid), M.random_interior(
        200, np.random.default_rng(ver.DEFAULT_SEED))])
    want = _written_out_pair_rows(sol, pts)
    scales = {
        "eigen-advection": _term_wise_scale(M, pts, sol.base_flow, sol.wave),
        "eigen-coadjoint": _term_wise_scale(M, pts, sol.wave, sol.base_image),
    }
    assert [c.name for c in rep.checks] == [name for name, _, _ in want]
    for c, (name, lhs, rhs) in zip(rep.checks, want):
        norm = max(np.max(ver._norms(M, pts, lhs)),
                   np.max(ver._norms(M, pts, rhs)),
                   scales.get(name.rsplit("-", 1)[0], 0.0))
        ref = ver._check(name, ver._norms(M, pts, lhs - rhs), norm, c.tol)
        got_ratio = c.sup / c.normalizer
        ref_ratio = ref.sup / ref.normalizer
        assert abs(got_ratio - ref_ratio) <= 1e-2 * ref_ratio, \
            (name, got_ratio, ref_ratio)
        assert c.passed == ref.passed, name


@pytest.mark.parametrize("key", ["kelvin-disk", "ck-cylinder"])
def test_eigen_relations_take_one_jet_per_field(key):
    # z's value and FD Jacobian are taken once, shared by both brackets, and
    # in 3D the curl A z comes from the Jacobian's own stencils: 1 + dim
    # calls of the wave
    sol = cat.build(key)
    calls = []

    def counting(t, p, wave=sol.wave):
        calls.append(len(p))
        return wave(t, p)

    grid = _SMALL_GRIDS[sol.dim]
    rep = ver.check_eigen_relations(replace(sol, wave=counting), grid=grid)
    assert len(calls) == 1 + sol.dim
    assert rep.to_json_bytes() == \
        ver.check_eigen_relations(sol, grid=grid).to_json_bytes()


_CARRIERS = {"alpha": ("eigen-inertia", "eigen-coadjoint"),
             "zeta": ("eigen-advection",),
             "lam": ("eigen-coadjoint",)}


@pytest.mark.parametrize("key", cat.catalogue_keys())
@pytest.mark.parametrize("value", sorted(_CARRIERS))
def test_eigen_rows_reject_a_wrong_spectral_value(key, value):
    # scaling alpha, zeta or lam by 1.1 (setting it to 0.1 where it is 0)
    # must fail exactly the rows whose right-hand side carries it, by far
    _assert_wrong_value_fails_its_rows(cat.build(key), value)


def _assert_wrong_value_fails_its_rows(sol, value, margin=100.0):
    old = getattr(sol.spectral, value)
    bad = replace(sol, spectral=replace(
        sol.spectral, **{value: 1.1 * old if old != 0.0 else 0.1}))
    carriers = {f"{stem}-{part}" for stem in _CARRIERS[value]
                for part in "vw"}
    if value == "alpha" and sol.spectral.lam == 0.0:
        # the coadjoint right-hand side lam alpha z is zero either way
        carriers = {"eigen-inertia-v", "eigen-inertia-w"}
    rep = ver.check_eigen_relations(bad, grid=_SMALL_GRIDS[sol.dim])
    for c in rep.checks:
        if c.name in carriers:
            assert c.sup / c.normalizer > margin * c.tol, c.name
        else:
            assert c.passed, c.name


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_eigen_rows_pass_where_both_sides_vanish(j, d, sign):
    # rossby-s3 with k = -j is an exact stationary flow with zeta = lam = 0:
    # both sides of the advection and coadjoint relations vanish, so a row
    # normalized by its sides alone read its FD rounding over itself, 1.0.
    # A wrong value still fails its rows; zeta = 0.1 is a small offset next
    # to wavenumbers up to 4, so by 50x the tolerance (88x at j = 4)
    sol = cat.rossby_s3(j=j, k=-j, d=d, sign=sign)
    rep = ver.check_eigen_relations(sol)
    assert [c.name for c in rep.checks if not c.passed] == []
    for value in sorted(_CARRIERS):
        _assert_wrong_value_fails_its_rows(sol, value, margin=50.0)


# ---------------------------------------------------------------------------
# linearized residual
# ---------------------------------------------------------------------------


def test_linearized_residual_torus_and_sphere():
    for sol in (cat.kelvin_torus(n=1, m=2), cat.rossby_sphere(n=1, m=2)):
        rep = ver.linearized_residual(sol)
        (check,) = [c for c in rep.checks if c.name == "linearized-residual"]
        assert check.passed, check.sup / check.normalizer


def test_linearized_residual_stationary_entry():
    # lam = zeta: the velocity is steady but the wave still solves the
    # linearized equations along it.
    rep = ver.linearized_residual(cat.rossby_sphere(n=1, m=1))
    (check,) = [c for c in rep.checks if c.name == "linearized-residual"]
    assert check.passed


def test_linearized_residual_perturbed_fails():
    rep = ver.linearized_residual(cat.rossby_sphere(n=1, m=2).perturbed(1.1))
    (check,) = [c for c in rep.checks if c.name == "linearized-residual"]
    assert not check.passed


@pytest.mark.parametrize("key", ["kelvin-disk", "rossby-sphere",
                                 "ck-cylinder"])
def test_linearized_residual_tests_the_wave_without_amplitude(key):
    # At rho = 0 the flow is the steady base, but the linearization along it
    # still acts on the unit companion wave: the row is not 0 against the
    # floor normalizer, it passes on the exact wave and fails on a wrong
    # frequency.
    sol = cat.build(key, rho=0.0)
    grid = _SMALL_GRIDS[sol.dim]
    (exact,) = ver.linearized_residual(sol, grid=grid, times=[0.7]).checks
    (wrong,) = ver.linearized_residual(sol.perturbed(1.1), grid=grid,
                                       times=[0.7]).checks
    assert exact.normalizer > 1.0 and exact.sup > 0.0 and exact.passed
    assert wrong.sup / wrong.normalizer > 100 * wrong.tol, key


@pytest.mark.parametrize("key", cat.catalogue_keys())
def test_linearized_residual_rejects_a_wrong_frequency_loudly(key):
    rep = ver.linearized_residual(cat.build(key).perturbed(1.1))
    (check,) = rep.checks
    assert check.sup / check.normalizer > 100 * check.tol, key


# ---------------------------------------------------------------------------
# conservation + constraints
# ---------------------------------------------------------------------------


def test_energy_conservation_sphere_disk():
    for sol in (cat.rossby_sphere(n=1, m=2), cat.kelvin_disk(n=1, m=1)):
        rep = ver.conservation_check(sol)
        by_name = {c.name: c for c in rep.checks}
        energy = by_name["energy-conservation"]
        assert energy.passed and energy.sup / energy.normalizer <= 1e-6
        assert by_name["energy-quadrature-agreement"].passed


def test_constraints_disk():
    rep = ver.constraint_check(cat.kelvin_disk(n=1, m=1))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["divergence"].passed
    tang = by_name["boundary-tangency"]
    assert tang.passed and tang.sup / tang.normalizer <= 1e-9


def test_constraints_cylinder():
    rep = ver.constraint_check(cat.ck_cylinder(n=1, m=1))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["divergence"].passed
    assert by_name["boundary-tangency"].passed


def test_constraints_boundaryless_manifold():
    rep = ver.constraint_check(cat.kelvin_torus(n=1, m=2))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["divergence"].passed
    assert by_name["boundary-tangency"].sup == 0.0  # nothing to check


# ---------------------------------------------------------------------------
# skew-adjointness quadrature identity on the torus
# ---------------------------------------------------------------------------


_TORUS_RULE = geo._quadrature_rule(geo.flat_torus())


def _skew_identity(u, v, w):
    """The battery's identity for one triple, by the flat-torus rule."""
    nodes, weights = _TORUS_RULE
    phases = ver.FourierStream.phase_table(nodes, [u, v, w])
    return ver._skew_identity(u, v, w, phases, weights[0])


def test_skew_adjoint_explicit_pair():
    u = ver.FourierStream.from_modes([(1, 0, 1.0)])   # sin/cos x wave
    v = ver.FourierStream.from_modes([(0, 1, 1.0)])
    pair, _ = _skew_identity(u, v, u)
    assert pair <= 1e-10


def test_skew_adjoint_self_pair_exact():
    u = ver.FourierStream.from_modes([(2, 1, 0.7 + 0.3j)])
    pair, _ = _skew_identity(u, u, u)
    assert pair <= 1e-14  # [u, u] = 0 identically


def test_skew_adjoint_pair_is_the_polarized_form_at_w_equal_u():
    # The pair value is the polarized form at w = u, bit for bit, and equals
    # the written-out |<A^-1 u, [v, u]>| / (|A^-1 u| |[v, u]|) with the
    # midpoint rule as (2 pi)^2 times the mean over the 64 x 64 nodes.
    def inner(a, b):
        return float(np.mean(np.einsum("ni,ni->n", a, b)) * (2 * math.pi) ** 2)

    nodes, weights = _TORUS_RULE
    x = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    assert np.array_equal(nodes, geo._tensor_grid([x, x]))
    assert np.all(weights == (2 * math.pi) ** 2 / 4096)
    rng = np.random.default_rng(11)
    for _ in range(6):
        u, v, w = (ver.FourierStream.random(rng) for _ in range(3))
        pair, _ = _skew_identity(u, v, w)
        at_u = _skew_identity(u, v, u)
        phases = ver.FourierStream.phase_table(nodes, [u, v])
        ainv = u.inverse_laplace().field_values(phases)
        br = ver._bracket_form(*(s.sums(phases, ver._BRACKET_ORDERS)
                                 for s in (v, u)))
        written = abs(inner(ainv, br)) / (math.sqrt(inner(ainv, ainv))
                                          * math.sqrt(inner(br, br)))
        assert pair == at_u[0] == at_u[1] == written


def test_skew_adjoint_battery():
    rep = ver.skew_adjoint_battery(pairs=20)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["skew-adjoint-pair"].passed
    assert by_name["skew-adjoint-polarized"].passed
    assert by_name["skew-adjoint-pair"].sup <= 1e-8
    assert by_name["skew-adjoint-polarized"].sup <= 1e-8


def test_skew_adjoint_checks_reject_empty_batteries_and_grids():
    # pairs = 0 or a negative count used to pass with nothing checked
    for bad in (0, -3, 2.0, True):
        with pytest.raises(ValueError, match="pairs"):
            ver.skew_adjoint_battery(pairs=bad)


def test_fourier_stream_sums_equal_per_order_formula_bit_for_bit():
    # one phase per mode serves every derivative order; the sums keep the
    # per-order accumulation, so they equal the one-order-at-a-time formula
    def per_order(stream, pts, dx, dy):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros(pts.shape[0], dtype=complex)
        for kx, ky, amp in stream.modes:
            out += (amp * (1j * kx) ** dx * (1j * ky) ** dy
                    * np.exp(1j * (kx * x + ky * y)))
        return out.real

    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 2 * np.pi, size=(200, 2))
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    streams = [ver.FourierStream.random(rng) for _ in range(5)]
    phases = ver.FourierStream.phase_table(pts, streams)
    assert set(phases) == {(kx, ky) for s in streams for kx, ky, _ in s.modes}
    for stream in streams:
        for (dx, dy), got in zip(orders, stream.sums(phases, orders)):
            assert np.array_equal(got, per_order(stream, pts, dx, dy))
        assert np.array_equal(stream.sums(phases, [(0, 0)])[0],
                              per_order(stream, pts, 0, 0))
        assert np.array_equal(
            stream.field_values(phases),
            np.stack([per_order(stream, pts, 0, 1),
                      -per_order(stream, pts, 1, 0)], axis=-1))


def test_fourier_stream_bracket_matches_fd():
    # analytic bracket of skew-gradient fields vs the generic FD bracket
    from eulerwaves import geometry as geo
    rng = np.random.default_rng(2)
    a = ver.FourierStream.random(rng)
    b = ver.FourierStream.random(rng)
    M = geo.flat_torus()
    pts = rng.uniform(0, 2 * np.pi, size=(50, 2))
    phases = ver.FourierStream.phase_table(pts, [a, b])
    analytic = ver._bracket_form(*(s.sums(phases, ver._BRACKET_ORDERS)
                                   for s in (a, b)))

    def field(s):
        def values(t, q):
            return s.field_values(ver.FourierStream.phase_table(q, [s]))
        return values

    fd = geo.lie_bracket(M, field(a), field(b), 0.0, pts)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - fd)) < 1e-7 * scale


# ---------------------------------------------------------------------------
# stationarity classification
# ---------------------------------------------------------------------------


def test_stationarity_classifier_agrees():
    cases = [
        (cat.kelvin_torus(n=1, m=2), "moving-frame-trivial"),
        (cat.rossby_sphere(n=1, m=2), "genuine"),
        (cat.rossby_sphere(n=1, m=1), "stationary"),
        (cat.kelvin_hyperbolic(n=1, m=1), "genuine"),
    ]
    for sol, want in cases:
        assert ver.stationarity_classifier(sol) == want


@pytest.mark.parametrize("key", ["kelvin-disk", "kelvin-torus", "rossby-s3"])
def test_no_wave_is_classified_stationary(key):
    # rho = 0 leaves the steady base flow, whatever z's spectral class
    sol = cat.build(key, rho=0.0)
    assert sol.spectral.classification != "stationary"
    assert ver.stationarity_classifier(sol) == "stationary"
    grid = (8, 8) if sol.dim == 2 else (5, 5, 5)
    rep = ver.run_verification(sol, grid=grid, times=[0.7])
    (row,) = [c for c in rep.checks if c.name == "stationarity"]
    assert row.passed and rep.all_pass
    assert rep.spectral["classification"] == sol.spectral.classification
    assert rep.spectral["classification-observed"] == "stationary"


def test_a_huge_phase_offset_does_not_swallow_the_time():
    for sigma in (0.4, -math.pi, math.pi, 0.0):
        sol = cat.kelvin_disk(sigma=sigma)
        assert sol.phase(0.9) == sigma + sol.omega * 0.9
    for sigma in (1e16, -3e20, 1e300):
        sol = cat.kelvin_disk(sigma=sigma)
        assert abs(sol.sigma) <= math.pi and sol.params["sigma"] == sigma
        assert abs(sol.phase(0.9) - sol.phase(0.0) - 0.9 * sol.omega) < 1e-14
        assert ver.stationarity_classifier(sol) \
            == sol.spectral.classification != "stationary"
        rep = ver.run_verification(sol, grid=(8, 8), times=[0.7])
        assert rep.all_pass, sigma


# ---------------------------------------------------------------------------
# full battery + report determinism
# ---------------------------------------------------------------------------


def test_run_verification_torus_all_pass():
    rep = ver.run_verification(cat.kelvin_torus(n=1, m=2))
    assert rep.all_pass
    names = {c.name for c in rep.checks}
    assert {"euler-residual", "linearized-residual", "energy-conservation",
            "divergence", "boundary-tangency", "stationarity",
            "eigen-inertia-v"} <= names
    # torus runs also exercise the operator identity
    assert "skew-adjoint-pair" in names


def test_run_verification_sphere_all_pass():
    rep = ver.run_verification(cat.rossby_sphere(n=1, m=2))
    assert rep.all_pass
    assert rep.spectral["classification"] == "genuine"
    assert rep.spectral["lambda-exact"] == "1/3"


def test_report_json_roundtrip_and_determinism():
    sol = cat.kelvin_torus(n=1, m=2)
    rep1 = ver.run_verification(sol)
    rep2 = ver.run_verification(cat.kelvin_torus(n=1, m=2))
    b1, b2 = rep1.to_json_bytes(), rep2.to_json_bytes()
    assert b1 == b2
    doc = json.loads(b1.decode())
    assert doc["schema"] == 1
    assert doc["solution"] == "kelvin-torus"
    assert doc["seed"] == ver.DEFAULT_SEED
    assert all(set(c) == {"name", "sup", "mean", "normalizer", "tol", "pass"}
               for c in doc["checks"])
    assert doc["all-pass"] is True


# Report bytes of the default entries at one time and seed 7 (halved grids
# for the two slow entries), pinned so that a change that moves them has to
# say so.  The low bits follow numpy and scipy, so the pins hold for the
# versions they were taken with only.
_PIN_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy
_REPORT_PINS = {
    "ck-cylinder": "60f983c0538a4c92",
    "kelvin-disk": "592f52c732782deb",
    "kelvin-hyperbolic": "822eaf5213cd577b",
    "kelvin-torus": "b03a436802d8d042",
    "rossby-s3": "cb79a53cfdd58f66",
    "rossby-sphere": "49dd36e8e144f81b",
    "twisted-annulus": "672162fd8a2d611a",
}


def test_default_report_bytes_are_pinned():
    versions = (np.__version__, scipy.__version__)
    if versions != _PIN_VERSIONS:
        pytest.skip(f"report pins were taken with numpy {_PIN_VERSIONS[0]} "
                    f"and scipy {_PIN_VERSIONS[1]}, this is numpy "
                    f"{versions[0]} and scipy {versions[1]}")
    grids = {"kelvin-hyperbolic": (12, 12), "twisted-annulus": (6, 6, 6)}
    hashes = {}
    for key in cat.catalogue_keys():
        rep = ver.run_verification(cat.build(key), grid=grids.get(key),
                                   times=[0.7], seed=7)
        hashes[key] = hashlib.sha256(rep.to_json_bytes()).hexdigest()[:16]
    assert hashes == _REPORT_PINS


def test_report_bytes_are_strict_json():
    rep = ver.ResidualReport(
        solution="kelvin-torus", params={}, grid=(2, 2), times=[math.nan],
        seed=0, tolerances={}, checks=[])
    with pytest.raises(ValueError):
        rep.to_json_bytes()


def test_non_finite_or_negative_tolerances_rejected():
    sol = cat.kelvin_torus()
    for bad in (math.nan, math.inf, -1.0):
        for tolerances in (bad, {"stationarity": bad}):
            with pytest.raises(ValueError):
                ver.run_verification(sol, grid=(8, 8), times=[0.7],
                                     tolerances=tolerances)
        with pytest.raises(ValueError):
            ver.euler_residual(sol, grid=(8, 8), times=[0.7], tol=bad)


def test_unknown_tolerance_name_rejected():
    # a misspelt check name is an error naming the known checks, in every
    # entry point that takes a tolerance dict, not a silent default
    sol = cat.kelvin_torus()
    bad = {"eulr-residual": 1e-30}
    calls = [
        lambda: ver.run_verification(sol, grid=(8, 8), times=[0.7],
                                     tolerances=bad),
        lambda: ver.check_eigen_relations(sol, grid=(8, 8), tol=bad),
        lambda: ver.euler_residual(sol, grid=(8, 8), times=[0.7], tol=bad),
        lambda: ver.linearized_residual(sol, grid=(8, 8), times=[0.7],
                                        tol=bad),
        lambda: ver.conservation_check(sol, grid=(8, 8), tol=bad),
        lambda: ver.constraint_check(sol, grid=(8, 8), tol=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert "'eulr-residual'" in str(info.value)
        assert "euler-residual" in str(info.value)


_BAD_GRIDS_AND_TIMES = [
    (ver.run_verification, {"times": []}),
    (ver.run_verification, {"times": [math.nan]}),
    (ver.run_verification, {"times": [0.7, math.inf]}),
    (ver.run_verification, {"grid": (4,)}),
    (ver.run_verification, {"grid": (4, 4, 4)}),
    (ver.run_verification, {"grid": (4, 1)}),
    (ver.run_verification, {"grid": (4.0, 4)}),
    (ver.check_eigen_relations, {"grid": (4,)}),
    (ver.euler_residual, {"times": []}),
    (ver.linearized_residual, {"grid": (4, 4, 4)}),
    (ver.conservation_check, {"times": [math.nan]}),
    (ver.constraint_check, {"grid": (4.5, 4)}),
]


@pytest.mark.parametrize("check, kwargs", _BAD_GRIDS_AND_TIMES, ids=[
    f"{check.__name__}-{kwargs}" for check, kwargs in _BAD_GRIDS_AND_TIMES])
def test_bad_grid_or_times_rejected_before_any_field_evaluation(check, kwargs):
    calls = []

    def counted(f):
        def g(t, p):
            calls.append(t)
            return f(t, p)
        return g

    sol = cat.kelvin_torus()
    sol = replace(sol, wave=counted(sol.wave), psi_wave=counted(sol.psi_wave))
    with pytest.raises(ValueError, match="grid|times"):
        check(sol, **kwargs)
    assert calls == []


_BAD_SEEDS = [-1, 1.5, True, "7", None, np.float64(3.0)]
_SEEDED_CHECKS = [
    lambda sol, seed: ver.run_verification(sol, grid=(4, 4), times=[0.7],
                                           seed=seed),
    lambda sol, seed: ver.check_eigen_relations(sol, grid=(4, 4), seed=seed),
    lambda sol, seed: ver.stationarity_classifier(sol, seed=seed),
    lambda sol, seed: ver.skew_adjoint_battery(pairs=1, seed=seed),
]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("check", range(len(_SEEDED_CHECKS)))
def test_bad_seed_rejected_before_any_field_evaluation(check, seed):
    calls = []

    def counted(f):
        def g(t, p):
            calls.append(t)
            return f(t, p)
        return g

    sol = cat.kelvin_torus()
    sol = replace(sol, wave=counted(sol.wave), psi_wave=counted(sol.psi_wave))
    with pytest.raises(ValueError, match="seed"):
        _SEEDED_CHECKS[check](sol, seed)
    assert calls == []


def test_numpy_integer_seed_gives_the_same_bytes():
    sol = cat.kelvin_torus()
    reps = [ver.run_verification(sol, grid=(6, 6), times=[0.7], seed=seed)
            for seed in (7, np.int64(7))]
    assert reps[0].to_json_bytes() == reps[1].to_json_bytes()


def test_stationarity_row_follows_its_tolerance(monkeypatch):
    sol = cat.kelvin_torus(n=1, m=2)
    declared = sol.spectral.classification
    wrong = "stationary" if declared != "stationary" else "genuine"
    monkeypatch.setattr(ver, "_stationarity_probe", lambda *a, **k: (
        wrong, {"static-change": 1.0, "carried-change": 1.0}))
    for tol, passed in ((1.0, True), (0.5, False)):
        rep = ver.run_verification(sol, grid=(8, 8), times=[0.7],
                                   tolerances={"stationarity": tol})
        (row,) = [c for c in rep.checks if c.name == "stationarity"]
        assert (row.sup, row.normalizer, row.tol) == (1.0, 1.0, tol)
        assert row.passed is passed


def test_overflowing_amplitude_raises_naming_the_rows():
    sol = cat.kelvin_disk(rho=1e308)
    with np.errstate(all="ignore"), \
            pytest.raises(ver.NonFiniteReportError) as info:
        ver.run_verification(sol, grid=(6, 6), times=[0.7])
    assert isinstance(info.value, cat.ConstructionError)
    assert "euler-residual" in str(info.value)
    assert "eigen-inertia-v" not in str(info.value)


def test_overflow_is_silent_over_several_times():
    # the overflow at every residual time must reach the caller only as
    # NonFiniteReportError
    sol = cat.kelvin_disk(rho=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ver.NonFiniteReportError):
            ver.run_verification(sol, grid=(6, 6), times=[0.7, 1.1])


def test_tolerance_overrides():
    sol = cat.kelvin_torus(n=1, m=2)
    rep = ver.run_verification(sol, tolerances={"euler-residual": 1e-15})
    (check,) = [c for c in rep.checks if c.name == "euler-residual"]
    assert not check.passed
    assert not rep.all_pass
