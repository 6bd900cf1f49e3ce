"""The point-batch convention shared by every field in the package.

A batch of chart points is an array of shape (N, dim); a field is a plain
callable: a scalar field maps (t, pts) -> (N,) and a vector field maps
(t, pts) -> (N, dim) of *contravariant* chart components.  Fields are
evaluated on raw (unwrapped) coordinates so finite-difference stencils can
cross periodic seams safely.
"""

from __future__ import annotations

import numpy as np

__all__ = ["constant_field"]


def _as_points(pts: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (N, {dim}), got {pts.shape}")
    return pts


def constant_field(components):
    """Field with constant chart components (e.g. a coordinate rotation)."""
    comp = np.asarray(components, dtype=float)
    dim = comp.size

    def func(t, pts):
        out = np.empty((_as_points(pts, dim).shape[0], dim))
        out[:] = comp
        return out

    return func
