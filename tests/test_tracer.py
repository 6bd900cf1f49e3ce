"""Particle-trajectory integration: closure oracles, convergence, export."""

import math

import numpy as np
import pytest

from eulerwaves import catalogue as cat
from eulerwaves import fields
from eulerwaves import geometry as geo
from eulerwaves import tracer as tr
from eulerwaves.catalogue import ExactSolution, SpectralData


TWO_PI = 2.0 * math.pi


def _zero_field(dim):
    return fields.VectorField(dim, func=lambda t, pts: np.zeros_like(
        np.atleast_2d(pts), dtype=float))


def _synthetic(manifold, components):
    """Steady constant-component flow for exercising exit detection."""
    u0 = fields.constant_field(components)
    return ExactSolution(
        key="synthetic", params={}, manifold=manifold, base_flow=u0,
        wave=_zero_field(manifold.dim),
        spectral=SpectralData(alpha=1.0, zeta=0.0, lam=0.0, omega=0.0,
                              lam_exact=None, omega_exact=None,
                              classification="stationary"),
        rho=0.0)


# -- rigid rotation on the disk ---------------------------------------------


def test_disk_rotation_returns_to_start():
    sol = cat.kelvin_disk(n=0, m=1, rho=0.0)  # pure rotation u0
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, TWO_PI)
    assert traj.status == "completed"
    t_end, p_end = traj.times[-1], traj.points[-1]
    assert abs(t_end - TWO_PI) < 1e-12
    # angular speed one: wraps exactly once
    gap = np.array(p_end) - np.array([0.5, 0.0])
    gap[1] = (gap[1] + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(gap)) < 1e-8
    # radius is a constant of the motion
    assert np.max(np.abs(traj.points[:, 0] - 0.5)) < 1e-10


def test_disk_rotation_speed_constant():
    sol = cat.kelvin_disk(n=0, m=1, rho=0.0)
    traj = tr.integrate_trajectory(sol, (0.5, 1.0), 0.0, 3.0)
    M = sol.manifold
    speeds = []
    for t, p in zip(traj.times, traj.points):
        u = sol.velocity(float(t), p.reshape(1, -1))
        speeds.append(float(np.sqrt(M.norm_sq(p.reshape(1, -1), u)[0])))
    speeds = np.array(speeds)
    assert np.max(np.abs(speeds - speeds[0])) < 1e-8


def test_disk_rotation_closure_period():
    sol = cat.kelvin_disk(n=0, m=1, rho=0.0)
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 3 * TWO_PI)
    period = tr.closure_test(traj, 1e-3)
    assert period is not None
    assert abs(period - TWO_PI) < 2 * traj.dt + 1e-3


# -- Hopf orbits on the three-sphere -----------------------------------------


def test_hopf_orbit_closes():
    sol = cat.rossby_s3(rho=0.0)  # base flow only
    start = (0.7, 0.3, 1.1)
    traj = tr.integrate_trajectory(sol, start, 0.0, TWO_PI)
    assert traj.status == "completed"
    gap = traj.points[-1] - traj.points[0]
    for axis in (1, 2):
        gap[axis] = (gap[axis] + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(gap)) < 1e-8
    period = tr.closure_test(
        tr.integrate_trajectory(sol, start, 0.0, 3 * TWO_PI), 1e-3)
    assert period is not None and abs(period - TWO_PI) < 2e-2


def test_s3_trajectory_stays_on_unit_sphere():
    sol = cat.rossby_s3()  # full wave, rho = 1
    U4 = cat.embed_s3_to_r4(sol)
    traj = tr.integrate_trajectory(sol, (0.7, 0.5, 0.9), 0.0, 20.0,
                                   dt=2e-3 * TWO_PI)
    x = np.array([
        [math.cos(p[0]) * math.cos(p[1]), math.cos(p[0]) * math.sin(p[1]),
         math.sin(p[0]) * math.cos(p[2]), math.sin(p[0]) * math.sin(p[2])]
        for p in traj.points])
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-8
    # the ambient velocity is tangent along the whole orbit
    vels = np.array([U4(float(t), xi) for t, xi in zip(traj.times, x)])
    assert np.max(np.abs(np.einsum("ni,ni->n", x, vels))) < 1e-8


# -- convergence --------------------------------------------------------------


def test_torus_trajectory_completes_and_converges():
    sol = cat.kelvin_torus(n=1, m=2)
    start = (0.4, 1.7)
    traj = tr.integrate_trajectory(sol, start, 0.0, 10.0)
    assert traj.status == "completed"
    half = tr.integrate_trajectory(sol, start, 0.0, 10.0, dt=traj.dt / 2)
    gap = tr.chart_gap(sol.manifold, traj.points[-1], half.points[-1])
    assert gap < 1e-8


def test_rk4_endpoint_ratio():
    # 4th order: halving the step divides the endpoint error by ~16.  The
    # torus wave is useless here (its orbits are straight lines and RK4 is
    # exact on them), so use the genuinely nonlinear disk orbit and measure
    # both runs against a dt/8 reference.
    sol = cat.kelvin_disk(n=1, m=1)
    start, dt = (0.6, 0.3), 0.0125
    ends = {}
    for step in (dt, dt / 2, dt / 8):
        traj = tr.integrate_trajectory(sol, start, 0.0, 10.0, dt=step)
        assert traj.status == "completed"
        ends[step] = traj.points[-1]
    M = sol.manifold
    e1 = tr.chart_gap(M, ends[dt], ends[dt / 8])
    e2 = tr.chart_gap(M, ends[dt / 2], ends[dt / 8])
    assert e1 > 1e-10  # well clear of the roundoff floor
    assert e1 / e2 >= 12.0


def test_step_adjusts_to_divide_horizon():
    sol = cat.kelvin_torus(n=1, m=2)
    traj = tr.integrate_trajectory(sol, (0.4, 1.7), 0.0, 1.0, dt=0.3)
    assert abs(traj.dt - 0.25) < 1e-15
    assert np.allclose(np.diff(traj.times), 0.25)
    assert abs(traj.times[-1] - 1.0) < 1e-12


# -- exit detection -----------------------------------------------------------


def test_outward_flow_exits_domain():
    sol = _synthetic(geo.flat_disk(), (1.0, 0.0))  # radially outward
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 5.0, dt=1e-2)
    assert traj.status == "exited-domain"
    assert traj.points[-1][0] <= 1.0
    assert traj.times[-1] < 5.0


def test_poleward_flow_hits_singular_margin():
    sol = _synthetic(geo.round_sphere(), (0.0, 1.0))  # drives into the pole
    traj = tr.integrate_trajectory(sol, (1.0, 2.5), 0.0, 5.0, dt=1e-2)
    assert traj.status == "hit-singular-margin"


def test_invalid_start_rejected():
    sol = cat.kelvin_disk(n=1, m=1)
    with pytest.raises(ValueError):
        tr.integrate_trajectory(sol, (1.5, 0.0), 0.0, 1.0)
    sphere = cat.rossby_sphere(n=1, m=2)
    with pytest.raises(ValueError):
        tr.integrate_trajectory(sphere, (0.5, 1e-3), 0.0, 1.0)
    with pytest.raises(ValueError):
        tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        tr.integrate_trajectory(sol, (0.5, 0.0), 1.0, 1.0)


@pytest.mark.parametrize("kwargs", [
    {"x0": (math.nan, 0.0)}, {"x0": (0.5, math.inf)},
    {"t0": math.nan}, {"t1": math.nan}, {"t1": math.inf},
    {"dt": math.nan}, {"dt": math.inf},
])
def test_non_finite_inputs_rejected(kwargs):
    sol = cat.kelvin_disk(n=1, m=1)
    args = {"x0": (0.5, 0.0), "t0": 0.0, "t1": 1.0, "dt": 1e-2, **kwargs}
    with pytest.raises(ValueError, match="finite"):
        tr.integrate_trajectory(sol, **args)


def test_samples_stay_wrapped():
    sol = cat.kelvin_torus(n=1, m=2)
    traj = tr.integrate_trajectory(sol, (0.4, 1.7), 0.0, 40.0, dt=1e-2)
    assert traj.status == "completed"
    for axis, (lo, hi) in enumerate(sol.manifold.ranges):
        assert np.all(traj.points[:, axis] >= lo - 1e-12)
        assert np.all(traj.points[:, axis] <= hi + 1e-12)


# -- closure heuristics -------------------------------------------------------


def test_torus_closure_is_exploratory():
    # generic wave trajectory: no strict claim, just exercise the scan
    sol = cat.kelvin_torus(n=1, m=2)
    traj = tr.integrate_trajectory(sol, (0.4, 1.7), 0.0, 50.0, dt=5e-3)
    result = tr.closure_test(traj, 1e-3)
    assert result is None or result > 0.0


def test_closure_requires_completed():
    sol = _synthetic(geo.flat_disk(), (1.0, 0.0))
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 5.0, dt=1e-2)
    with pytest.raises(ValueError):
        tr.closure_test(traj, 1e-3)


# -- concurrency and export ---------------------------------------------------


def test_integrate_many_matches_sequential(monkeypatch):
    sol = cat.kelvin_torus(n=1, m=2)
    starts = [(0.4, 1.7), (2.0, 0.3), (5.1, 4.4)]
    serial = [tr.integrate_trajectory(sol, s, 0.0, 2.0) for s in starts]
    monkeypatch.setenv("EULER_WAVES_THREADS", "3")
    threaded = tr.integrate_many(sol, starts, 0.0, 2.0)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.points, b.points)
        assert a.status == b.status


def test_csv_roundtrip(tmp_path):
    sol = cat.kelvin_disk(n=1, m=1)
    traj = tr.integrate_trajectory(sol, (0.5, 0.7), 0.0, 1.0, dt=0.05)
    path = tmp_path / "orbit.csv"
    tr.write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,r,theta"
    assert lines[-1] == "# status=completed"
    back = tr.read_trajectory_csv(path)
    assert back.status == traj.status
    assert back.coords == traj.coords
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.points, traj.points)


def test_read_trajectory_csv_without_rows_names_the_file(tmp_path):
    for name, text in (("header-only.csv", "t,r,theta\n# status=completed\n"),
                       ("empty.csv", "")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=name):
            tr.read_trajectory_csv(path)


def test_samples_property():
    sol = cat.kelvin_disk(n=1, m=1)
    traj = tr.integrate_trajectory(sol, (0.5, 0.7), 0.0, 0.2, dt=0.1)
    samples = traj.samples
    assert len(samples) == len(traj.times)
    t0, p0 = samples[0]
    assert t0 == 0.0 and p0 == pytest.approx((0.5, 0.7))
