"""Lagrangian particle trajectories in catalogue flows.

Fixed-step classical Runge-Kutta in chart coordinates: the fields are smooth
and the charts bounded, so determinism and a clean convergence story beat
adaptivity.  Every integration is a batch: the active particles form one
(N, dim) state, each RK4 stage is one velocity call on the whole batch, and
a single trajectory is the case N = 1.  Periodic axes wrap every step; a
particle halts with a status when it leaves the chart or enters the margin
around a coordinate singularity (no multi-chart continuation), and drops
out of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalogue import ExactSolution
from .geometry import ChartedManifold
from .geometry import STATUS_EXITED, STATUS_SINGULAR  # noqa: F401 (public)

__all__ = [
    "Trajectory", "integrate_trajectory", "integrate_many", "closure_test",
    "chart_gap", "default_step", "write_trajectory_csv",
    "read_trajectory_csv",
]

TWO_PI = 2.0 * math.pi

STATUS_COMPLETED = "completed"


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


def chart_gap(M: ChartedManifold, a, b) -> float:
    """Max-abs coordinate difference, shortest way around periodic axes."""
    return float(np.max(np.abs(M.shortest_delta(a, b))))


def _integrate(sol: ExactSolution, starts: np.ndarray, t0, t1, dt) -> list:
    """Validate an (N, dim) batch of starts and the time grid, then advance
    the batch with RK4, dropping each particle at its first halt."""
    M = sol.manifold
    if starts.ndim != 2 or starts.shape[1] != M.dim:
        raise ValueError(f"start point needs {M.dim} coordinates")
    bad = ~np.isfinite(starts).all(axis=1)
    if bad.any():
        raise ValueError(f"start point {tuple(starts[bad][0])} is not finite")
    x = M.wrap(starts)
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    halts = M.halt_verdicts(x)
    if halts:
        raise ValueError(
            f"start point {tuple(x[min(halts)])} is outside the usable chart")
    if t1 is None:
        t1 = t0 + (sol.period or TWO_PI)
    horizon = float(t1) - float(t0)
    if horizon <= 0.0:
        raise ValueError("need t1 > t0")
    if dt is None:
        dt = default_step(sol)
    if dt <= 0.0:
        raise ValueError("need dt > 0")
    if not math.isfinite(horizon / dt):
        raise ValueError(f"the step count (t1 - t0) / dt = {horizon!r} / "
                         f"{dt!r} is not finite")
    n_steps = max(1, math.ceil(horizon / dt - 1e-12))
    step = horizon / n_steps

    n = len(x)
    samples = np.empty((n, n_steps + 1, M.dim))
    samples[:, 0] = x
    last = np.full(n, n_steps)          # index of each particle's last sample
    status = [STATUS_COMPLETED] * n
    rows = np.arange(n)                 # particle of each active batch row
    p = x
    velocity = sol.velocity
    half, sixth = step / 2.0, step / 6.0
    for k in range(n_steps):
        t = t0 + k * step
        t_mid = t + half
        k1 = velocity(t, p)
        k2 = velocity(t_mid, p + half * k1)
        k3 = velocity(t_mid, p + half * k2)
        k4 = velocity(t + step, p + step * k3)
        p = M.wrap(p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        halts = M.halt_verdicts(p)
        if halts:
            for row, verdict in halts.items():
                status[rows[row]], last[rows[row]] = verdict, k
            p, rows = np.delete(p, list(halts), 0), np.delete(rows, list(halts))
            if not rows.size:
                break
        if rows.size == n:
            samples[:, k + 1] = p
        else:
            samples[rows, k + 1] = p
    times = t0 + step * np.arange(n_steps + 1, dtype=float)
    times[0] = t0
    return [Trajectory(
        solution=sol.key, start=tuple(float(v) for v in x[i]),
        dt=float(step), times=times[:last[i] + 1].copy(),
        points=samples[i, :last[i] + 1].copy(), status=status[i],
        coords=tuple(M.coords), manifold=M) for i in range(n)]


def integrate_trajectory(sol: ExactSolution, x0, t0: float = 0.0,
                         t1: Optional[float] = None,
                         dt: Optional[float] = None) -> Trajectory:
    """Integrate dx/dt = U(t, x) from x0 over [t0, t1].

    The step is shrunk (never grown) so that it divides the horizon exactly;
    consecutive samples are separated by precisely that step.  Stored samples
    are wrapped into the fundamental chart ranges.
    """
    x = np.asarray(x0, dtype=float).reshape(1, -1)
    return _integrate(sol, x, t0, t1, dt)[0]


def integrate_many(sol: ExactSolution, starts: Sequence, t0: float = 0.0,
                   t1: Optional[float] = None,
                   dt: Optional[float] = None) -> list:
    """One trajectory per start, integrated together as one batch: each RK4
    stage is one velocity call on every particle still running.  Each
    trajectory is bit-identical to integrate_trajectory from its start."""
    if len(starts) == 0:
        return []
    return _integrate(sol, np.asarray(starts, dtype=float), t0, t1, dt)


def closure_test(traj: Trajectory, radius: float) -> Optional[float]:
    """First return of the state to within `radius` of the start, measured
    with the chart metric frozen at the start point.  Heuristic: the scan
    only reports a return after the state has first left twice the radius,
    and says nothing about exact periodicity.  The radius must be finite
    and positive.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"closure radius must be finite and > 0, "
                         f"got {radius!r}")
    if traj.status != STATUS_COMPLETED:
        raise ValueError("closure test needs a completed trajectory")
    if traj.manifold is None:
        raise ValueError("trajectory carries no manifold (parsed from file?)")
    M = traj.manifold
    g0 = M.metric_at(traj.points[:1])[0]
    delta = M.shortest_delta(traj.points, traj.points[0])
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
    first = lines[0] if lines else ""
    header = first.split(",")
    if header[0] != "t":
        raise ValueError(f"{path}: unexpected trajectory header: {first!r}")
    coords = tuple(header[1:])
    status = STATUS_COMPLETED
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            if "status=" in ln:
                status = ln.split("status=", 1)[1].strip()
            continue
        rows.append([float(v) for v in ln.split(",")])
    if not rows:
        raise ValueError(f"{path}: no trajectory rows")
    data = np.asarray(rows, dtype=float)
    times, points = data[:, 0], data[:, 1:]
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    return Trajectory(solution="", start=tuple(points[0]), dt=dt,
                      times=times, points=points, status=status,
                      coords=coords, manifold=None)
