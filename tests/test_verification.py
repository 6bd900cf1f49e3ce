"""Certification-layer checks.

Most of these exercise the verification battery on catalogue entries whose
exactness was established analytically; the falsification tests confirm the
battery has power (wrong frequencies must fail loudly, not drown in slack
tolerances).
"""

import json
import math
import warnings

import numpy as np
import pytest

from eulerwaves import catalogue as cat
from eulerwaves import geometry as geo
from eulerwaves import verification as ver
from eulerwaves.fields import StreamFunction, VectorField


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
    out on its own, as ``residual_at(t, s) -> (magnitudes, normalizer)``."""
    M = sol.manifold
    if M.dim == 2:
        psi_u = sol.stream_total()
        psi_v = sol.stream_linearized() if linearized else psi_u
        dt_psi_v = StreamFunction(2, func=psi_v.dt)

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

    U = VectorField(3, func=sol.velocity)
    V = VectorField(3, func=sol.linearized) if linearized else U
    dtV = VectorField(3, func=sol.linearized_dt if linearized
                      else sol.velocity_dt)

    def residual_at(t, s):
        def curl_u(tt, pp):
            return geo.curl3(M, U, tt, pp, h_scale=s)

        def curl_v(tt, pp):
            return geo.curl3(M, V, tt, pp, h_scale=s)

        r = (geo.curl3(M, dtV, t, pts, h_scale=s)
             + geo.lie_bracket(M, U, VectorField(3, func=curl_v), t, pts,
                               h_scale=s))
        if linearized:
            r = r + geo.lie_bracket(M, V, VectorField(3, func=curl_u), t, pts,
                                    h_scale=s)
        return ver._norms(M, pts, r), float(np.max(
            ver._norms(M, pts, curl_v(t, pts))))
    return residual_at


@pytest.mark.parametrize("key, grid", [("kelvin-disk", (8, 8)),
                                       ("ck-cylinder", (5, 5, 5))])
def test_one_residual_form_matches_written_out_forms(key, grid):
    # euler_residual and linearized_residual share one Euler-Arnold sweep;
    # every value must equal the dimension's own form, spelled out above
    sol = cat.build(key)
    times = [0.7, 1.9]
    pts = sol.manifold.interior_grid(grid)
    for fn, name, linearized in [
            (ver.euler_residual, "euler-residual", False),
            (ver.linearized_residual, "linearized-residual", True)]:
        rep = fn(sol, grid=grid, times=times)
        (got,) = rep.checks
        want, richardson = ver._residual_check(
            sol.manifold, times, got.tol, name,
            _written_out_residual_at(sol, pts, linearized))
        assert got.name == want.name == name
        assert (got.sup, got.mean, got.normalizer) \
            == (want.sup, want.mean, want.normalizer)
        assert got.passed == want.passed
        assert rep.richardson == richardson


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


def test_skew_adjoint_explicit_pair():
    u = ver.FourierStream.from_modes([(1, 0, 1.0)])   # sin/cos x wave
    v = ver.FourierStream.from_modes([(0, 1, 1.0)])
    rep = ver.skew_adjoint_quadrature(u, v)
    (check,) = rep.checks
    assert check.passed and check.sup <= 1e-10


def test_skew_adjoint_self_pair_exact():
    u = ver.FourierStream.from_modes([(2, 1, 0.7 + 0.3j)])
    rep = ver.skew_adjoint_quadrature(u, u)
    (check,) = rep.checks
    assert check.sup <= 1e-14  # [u, u] = 0 identically


def test_skew_adjoint_battery():
    rep = ver.skew_adjoint_battery(pairs=20)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["skew-adjoint-pair"].passed
    assert by_name["skew-adjoint-polarized"].passed
    assert by_name["skew-adjoint-pair"].sup <= 1e-8
    assert by_name["skew-adjoint-polarized"].sup <= 1e-8


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
    for _ in range(5):
        stream = ver.FourierStream.random(rng)
        for (dx, dy), got in zip(orders, stream.sums(pts, orders)):
            assert np.array_equal(got, per_order(stream, pts, dx, dy))
        assert np.array_equal(stream.value(pts), per_order(stream, pts, 0, 0))
        assert np.array_equal(
            stream.field_values(pts),
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
    analytic = ver._bracket_values(a, b, pts)
    fd = geo.lie_bracket(M, a.field_evaluator(), b.field_evaluator(), 0.0, pts)
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


def test_overflow_is_silent_on_worker_threads(monkeypatch):
    # the residual times run on two threads; the overflow must still reach
    # the caller only as NonFiniteReportError
    monkeypatch.setenv("EULER_WAVES_THREADS", "2")
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
