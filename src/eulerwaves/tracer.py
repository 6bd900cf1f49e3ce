"""Lagrangian particle trajectories in catalogue flows.

Fixed-step classical Runge-Kutta in chart coordinates: the fields are smooth
and the charts bounded, so determinism and a clean convergence story beat
adaptivity.  Periodic axes wrap every step; the integration halts with a
status when the state leaves the chart or enters the margin around a
coordinate singularity (no multi-chart continuation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalogue import ExactSolution
from .geometry import ChartedManifold
from .verification import _thread_map

__all__ = [
    "Trajectory", "integrate_trajectory", "integrate_many", "closure_test",
    "chart_gap", "default_step", "write_trajectory_csv",
    "read_trajectory_csv",
]

TWO_PI = 2.0 * math.pi

STATUS_COMPLETED = "completed"
STATUS_EXITED = "exited-domain"
STATUS_SINGULAR = "hit-singular-margin"


def _classify_point(M: ChartedManifold, p: np.ndarray) -> str:
    """'ok', or the halt status this point would trigger."""
    for axis in range(M.dim):
        if M.periodic[axis]:
            continue
        lo, hi = M.ranges[axis]
        margin = M.singular_margin * (hi - lo)
        x = p[axis]
        if M.singular_lower[axis] and x < lo + margin:
            return STATUS_SINGULAR
        if M.singular_upper[axis] and x > hi - margin:
            return STATUS_SINGULAR
        if x < lo or x > hi:
            return STATUS_EXITED
    return "ok"


@dataclass
class Trajectory:
    solution: str
    start: tuple
    dt: float
    times: np.ndarray
    points: np.ndarray
    status: str
    coords: tuple
    manifold: Optional[ChartedManifold] = None

    @property
    def samples(self) -> list:
        return [(float(t), tuple(float(v) for v in p))
                for t, p in zip(self.times, self.points)]


def default_step(sol: ExactSolution) -> float:
    """1e-3 of the characteristic period 2 pi / max(1, |omega|)."""
    return 1e-3 * TWO_PI / max(1.0, abs(sol.omega))


def _shortest_delta(M: ChartedManifold, a, b) -> np.ndarray:
    """Coordinate difference a - b, the shortest way around periodic axes."""
    delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for axis in range(M.dim):
        if M.periodic[axis]:
            lo, hi = M.ranges[axis]
            span = hi - lo
            delta[..., axis] = ((delta[..., axis] + span / 2.0) % span
                                - span / 2.0)
    return delta


def chart_gap(M: ChartedManifold, a, b) -> float:
    """Max-abs coordinate difference, shortest way around periodic axes."""
    return float(np.max(np.abs(_shortest_delta(M, a, b))))


def integrate_trajectory(sol: ExactSolution, x0, t0: float = 0.0,
                         t1: Optional[float] = None,
                         dt: Optional[float] = None) -> Trajectory:
    """Integrate dx/dt = U(t, x) from x0 over [t0, t1].

    The step is shrunk (never grown) so that it divides the horizon exactly;
    consecutive samples are separated by precisely that step.  Stored samples
    are wrapped into the fundamental chart ranges.
    """
    M = sol.manifold
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (M.dim,):
        raise ValueError(f"start point needs {M.dim} coordinates")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"start point {tuple(x)} is not finite")
    x = M.wrap(x)
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if _classify_point(M, x) != "ok":
        raise ValueError(f"start point {tuple(x)} is outside the usable chart")
    if t1 is None:
        t1 = t0 + (sol.period or TWO_PI)
    horizon = float(t1) - float(t0)
    if horizon <= 0.0:
        raise ValueError("need t1 > t0")
    if dt is None:
        dt = default_step(sol)
    if dt <= 0.0:
        raise ValueError("need dt > 0")
    n_steps = max(1, math.ceil(horizon / dt - 1e-12))
    step = horizon / n_steps

    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        return np.asarray(sol.velocity(t, p.reshape(1, -1)), dtype=float)[0]

    times = [float(t0)]
    points = [x.copy()]
    status = STATUS_COMPLETED
    p = x.copy()
    for k in range(n_steps):
        t = t0 + k * step
        k1 = rhs(t, p)
        k2 = rhs(t + step / 2.0, p + (step / 2.0) * k1)
        k3 = rhs(t + step / 2.0, p + (step / 2.0) * k2)
        k4 = rhs(t + step, p + step * k3)
        p = M.wrap(p + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        verdict = _classify_point(M, p)
        if verdict != "ok":
            status = verdict
            break
        times.append(float(t0 + (k + 1) * step))
        points.append(p.copy())
    return Trajectory(
        solution=sol.key, start=tuple(float(v) for v in x), dt=float(step),
        times=np.asarray(times), points=np.asarray(points), status=status,
        coords=tuple(M.coords), manifold=M)


def integrate_many(sol: ExactSolution, starts: Sequence, t0: float = 0.0,
                   t1: Optional[float] = None,
                   dt: Optional[float] = None) -> list:
    """Independent trajectories; concurrent when EULER_WAVES_THREADS > 1."""
    return _thread_map(lambda s: integrate_trajectory(sol, s, t0, t1, dt),
                       starts)


def closure_test(traj: Trajectory, radius: float) -> Optional[float]:
    """First return of the state to within `radius` of the start, measured
    with the chart metric frozen at the start point.  Heuristic: the scan
    only reports a return after the state has first left twice the radius,
    and says nothing about exact periodicity.
    """
    if traj.status != STATUS_COMPLETED:
        raise ValueError("closure test needs a completed trajectory")
    if traj.manifold is None:
        raise ValueError("trajectory carries no manifold (parsed from file?)")
    M = traj.manifold
    g0 = M.metric_at(traj.points[:1])[0]
    delta = _shortest_delta(M, traj.points, traj.points[0])
    dist = np.sqrt(np.maximum(np.einsum("ij,ni,nj->n", g0, delta, delta),
                              0.0))
    away = np.nonzero(dist > 2.0 * radius)[0]
    if away.size == 0:
        return None
    candidates = np.nonzero(dist[away[0]:] <= radius)[0]
    if candidates.size == 0:
        return None
    k = away[0] + candidates[0]
    return float(traj.times[k] - traj.times[0])


# -- export -------------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path_or_file) -> None:
    """Header `t,<coords>`, rows at 17 significant digits, trailing status."""
    def emit(fh):
        fh.write("t," + ",".join(traj.coords) + "\n")
        for t, p in zip(traj.times, traj.points):
            row = [t] + list(p)
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        fh.write(f"# status={traj.status}\n")

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            emit(fh)


def read_trajectory_csv(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError(f"unexpected trajectory header: {lines[0]!r}")
    coords = tuple(header[1:])
    status = STATUS_COMPLETED
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            if "status=" in ln:
                status = ln.split("status=", 1)[1].strip()
            continue
        rows.append([float(v) for v in ln.split(",")])
    data = np.asarray(rows, dtype=float)
    times, points = data[:, 0], data[:, 1:]
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    return Trajectory(solution="", start=tuple(points[0]), dt=dt,
                      times=times, points=points, status=status,
                      coords=coords, manifold=None)
