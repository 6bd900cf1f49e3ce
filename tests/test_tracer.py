"""Particle-trajectory integration: closure oracles, convergence, export."""

import hashlib
import math

import numpy as np
import pytest
import scipy

from eulerwaves import catalogue as cat
from eulerwaves import fields
from eulerwaves import geometry as geo
from eulerwaves import tracer as tr
from eulerwaves.catalogue import ExactSolution, SpectralData


TWO_PI = 2.0 * math.pi


def _synthetic(manifold, components):
    """Steady constant-component flow for exercising exit detection."""
    u0 = fields.constant_field(components)
    return ExactSolution(
        key="synthetic", params={}, manifold=manifold, base_flow=u0,
        base_image=fields.constant_field(np.zeros(manifold.dim)),
        wave=lambda t, pts: np.zeros_like(pts),
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


@pytest.mark.parametrize("n, m, rho, sigma", [
    (1, 2, 1.0, 0.0), (3, -2, 0.7, 1.3), (0, 1, 2.0, 0.4)])
def test_torus_paths_match_the_closed_form(n, m, rho, sigma):
    # On kelvin-torus psi = n x + m y - n t + sigma is constant along every
    # path, so each path is a straight line at constant velocity and RK4 is
    # exact on it up to rounding: an oracle for the wrap and the time grid.
    # (0, 1) has omega = 0 and runs 20 x 2 pi.
    sol = cat.kelvin_torus(n=n, m=m, rho=rho, sigma=sigma)
    traj = tr.integrate_trajectory(sol, (0.4, 1.7),
                                   t1=20 * (sol.period or TWO_PI))
    assert traj.status == "completed"
    assert len(traj.times) == 20001
    (x0, y0), t = traj.points[0], traj.times
    s = math.sin(n * x0 + m * y0 + sigma)
    exact = np.stack([x0 + (1.0 - rho * m * s) * t, y0 + rho * n * s * t],
                     axis=-1)
    gap = np.abs(sol.manifold.shortest_delta(traj.points, exact))
    assert np.max(gap) <= 1e-10


# Status and point bytes of three fixed runs, the benchmark's trajectory
# fingerprint, pinned the way the report bytes are: a change to the tracer
# or to the fields it calls that moves a bit has to say so.  The low bits
# follow numpy and scipy, so the pins hold for the versions they were
# taken with only.
_TRAJECTORY_PIN_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy
_TRAJECTORY_PINS = {
    "kelvin-torus": "7a1ec422aa7cfb52",
    "kelvin-disk": "f00ab3e58e62803b",
    "rossby-s3": "bcc21e195a5b42b3",
}


def _fingerprint(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        h.update(traj.status.encode())
        h.update(np.ascontiguousarray(traj.points).tobytes())
    return h.hexdigest()[:16]


def _lattice_starts(M) -> np.ndarray:
    """Eight starts on a rank-1 lattice over the usable chart box."""
    box = np.array([M.axis_interval(axis) for axis in range(M.dim)])
    u = ((np.outer(np.arange(8), (1, 3, 5)[:M.dim]) + 0.5) / 8) % 1.0
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def test_trajectory_bytes_are_pinned():
    versions = (np.__version__, scipy.__version__)
    if versions != _TRAJECTORY_PIN_VERSIONS:
        pytest.skip(f"trajectory pins were taken with numpy "
                    f"{_TRAJECTORY_PIN_VERSIONS[0]} and scipy "
                    f"{_TRAJECTORY_PIN_VERSIONS[1]}, this is numpy "
                    f"{versions[0]} and scipy {versions[1]}")
    torus = cat.build("kelvin-torus")
    prints = {"kelvin-torus": _fingerprint([tr.integrate_trajectory(
        torus, (0.4, 1.7), t1=torus.period)])}
    for key in ("kelvin-disk", "rossby-s3"):
        sol = cat.build(key)
        prints[key] = _fingerprint(tr.integrate_many(
            sol, _lattice_starts(sol.manifold), t1=math.pi / 2))
    assert prints == _TRAJECTORY_PINS


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
    with pytest.raises(ValueError, match="outside the usable chart"):
        tr.integrate_many(sol, [(0.5, 0.0), (1.5, 0.0)], 0.0, 1.0)


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
    starts = [(0.5, 0.0), args.pop("x0")]
    with pytest.raises(ValueError, match="finite"):
        tr.integrate_many(sol, starts, **args)


def test_non_finite_step_count_rejected():
    # finite t1 and dt whose ratio overflows: no sample array is allocated
    sol = cat.kelvin_disk(n=1, m=1)
    with pytest.raises(ValueError, match="step count"):
        tr.integrate_trajectory(sol, (0.5, 0.1), 0.0, 1e308, dt=1e-300)


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


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_closure_rejects_degenerate_radius(radius):
    # None would claim the orbit never returns; the radius is at fault
    sol = _synthetic(geo.flat_disk(), (0.0, 1.0))
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 1.0, dt=1e-2)
    with pytest.raises(ValueError, match="closure radius"):
        tr.closure_test(traj, radius)


def test_closure_requires_completed():
    sol = _synthetic(geo.flat_disk(), (1.0, 0.0))
    traj = tr.integrate_trajectory(sol, (0.5, 0.0), 0.0, 5.0, dt=1e-2)
    with pytest.raises(ValueError):
        tr.closure_test(traj, 1e-3)


# -- batches and export -------------------------------------------------------


def _reference_rk4(sol, start, t0, n_steps, step):
    """The per-point RK4 loop with an early halt, the reference for the
    batched core: (times, points, status)."""
    M = sol.manifold

    def f(t, q):
        return sol.velocity(t, q.reshape(1, -1))[0]

    p = np.asarray(start, dtype=float)
    times, points, status = [t0], [p], "completed"
    for k in range(n_steps):
        t = t0 + k * step
        k1 = f(t, p)
        k2 = f(t + step / 2.0, p + (step / 2.0) * k1)
        k3 = f(t + step / 2.0, p + (step / 2.0) * k2)
        k4 = f(t + step, p + step * k3)
        p = M.wrap(p + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        halts = M.halt_verdicts(p.reshape(1, -1))
        if halts:
            status = halts[0]
            break
        times.append(t0 + (k + 1) * step)
        points.append(p)
    return np.array(times), np.array(points), status


def test_integrate_many_matches_sequential():
    torus = cat.kelvin_torus(n=1, m=2)
    disk = cat.kelvin_disk(n=1, m=1)
    outward = _synthetic(geo.flat_disk(), (1.0, 0.0))
    # (solution, starts, (t0, t1, dt), distinct halt steps)
    cases = [
        (torus, [(0.4, 1.7), (2.0, 0.3), (5.1, 4.4)], (0.0, 2.0, None), 0),
        # completed runs mixed with singular-margin halts at seven steps
        (disk, disk.manifold.interior_grid((8, 2)), (0.0, math.pi / 2, None),
         7),
        # three exits at three different steps
        (outward, [(0.2, 1.0), (0.5, 2.0), (0.9, 3.0)], (0.0, 5.0, 1e-2), 3),
    ]
    for sol, starts, (t0, t1, dt), n_halts in cases:
        serial = [tr.integrate_trajectory(sol, s, t0, t1, dt) for s in starts]
        batch = tr.integrate_many(sol, starts, t0, t1, dt)
        assert len(batch) == len(serial)
        n_steps = round((t1 - t0) / batch[0].dt)
        for a, b in zip(serial, batch):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.times, b.times)
            assert a.status == b.status
            assert a.start == b.start and a.dt == b.dt
            times, points, status = _reference_rk4(sol, b.start, t0, n_steps,
                                                   b.dt)
            assert np.array_equal(b.points, points)
            assert np.array_equal(b.times, times)
            assert b.status == status
        assert len({len(a.times) for a in serial
                    if a.status != "completed"}) == n_halts
    assert tr.integrate_many(torus, []) == []


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
