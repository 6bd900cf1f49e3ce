"""Containers for time-dependent scalar and vector fields on a chart.

Evaluation convention used throughout the package: a batch of chart points is
an array of shape (N, dim); a scalar field maps (t, pts) -> (N,) and a vector
field maps (t, pts) -> (N, dim) of *contravariant* chart components.  Fields
are evaluated on raw (unwrapped) coordinates so finite-difference stencils can
cross periodic seams safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["StreamFunction", "VectorField", "constant_field"]


def _as_points(pts: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (N, {dim}), got {pts.shape}")
    return pts


@dataclass
class StreamFunction:
    """Scalar field psi(t, x) with an optional analytic time derivative."""

    dim: int
    func: Callable[[float, np.ndarray], np.ndarray]
    dt_func: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    label: str = ""

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(t, _as_points(pts, self.dim)), dtype=float)

    def dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        pts = _as_points(pts, self.dim)
        if self.dt_func is None:
            return np.zeros(pts.shape[0])
        return np.asarray(self.dt_func(t, pts), dtype=float)


@dataclass
class VectorField:
    """Vector field u(t, x) in contravariant chart components.

    Optional extras carried along when known in closed form:

    * ``dt_func``  -- analytic time derivative (defaults to zero),
    * ``stream``   -- 2D stream function with u = skew-gradient(stream),
    * ``inertia_image`` -- the closed-form image of u under the inertia
      operator (Hodge Laplacian in 2D, curl in 3D), used for base flows
      whose image is a listed multiple of a Killing field.
    """

    dim: int
    func: Callable[[float, np.ndarray], np.ndarray]
    dt_func: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    stream: Optional[StreamFunction] = None
    inertia_image: Optional["VectorField"] = None
    label: str = ""

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.func(t, _as_points(pts, self.dim)), dtype=float)
        return vals

    def dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        pts = _as_points(pts, self.dim)
        if self.dt_func is None:
            return np.zeros_like(pts)
        return np.asarray(self.dt_func(t, pts), dtype=float)


def constant_field(components, label: str = "") -> VectorField:
    """Field with constant chart components (e.g. a coordinate rotation)."""
    comp = np.asarray(components, dtype=float)
    dim = comp.size

    def func(t, pts):
        return np.broadcast_to(comp, (pts.shape[0], dim)).copy()

    return VectorField(dim=dim, func=func, label=label)
