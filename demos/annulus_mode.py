#!/usr/bin/env python3
"""The twisted-annulus eigenmode, solved three ways.

The metric couples the two circle directions through an off-diagonal term
c; curl eigenfields on it reduce to a first-order system for the mode
amplitudes (g, h) on [a, b] with tangency walls at both ends.  For the
default linear profile with c = -3/10, a = 2*pi/3, b = 2*pi the eigenvalue
is exactly alpha = 5/4 and (g, h) have elementary closed forms -- a sharp
cross-check on the collocation solver.  Setting c = 0 decouples the twist and
everything collapses to classical Bessel functions.
"""

from __future__ import annotations

import math

import numpy as np

from eulerwaves import solvers as sv
from eulerwaves import specfun as sf

A0 = 2.0 * math.pi / 3.0
B0 = 2.0 * math.pi


def main() -> None:
    profile = sv.CMetricProfile.linear(c=-0.3, r_lo=A0, r_hi=B0)
    mode = sv.solve_cmetric_mode(profile, n=0, m=1, branch=1)
    print(f"twisted profile {profile.label}:")
    print(f"  alpha = {mode.alpha:.12f}   (exact value 1.25)")
    print(f"  wall residual = {mode.boundary_residual:.3e}")

    rs = np.linspace(A0, B0, 7)
    g_ref = 5.0 * np.sqrt(rs) * np.cos(0.75 * rs)
    scale = mode.g(rs[3]) / g_ref[3]
    print("  r, g(collocation), g(closed form x scale):")
    for r, g_num, g_cf in zip(rs, mode.g(rs), scale * g_ref):
        print(f"    {r:8.5f}  {g_num:14.10f}  {g_cf:14.10f}")

    print()
    print("untwisted c = 0 on [1, 2] (Bessel reduction):")
    prof0 = sv.CMetricProfile.linear(c=0.0, r_lo=1.0, r_hi=2.0)
    mode0 = sv.solve_cmetric_mode(prof0, n=0, m=1, branch=1)
    beta = sv.crossproduct_root(1.0, 1.0, 2.0, 1)
    print(f"  cross-product root beta = {beta:.12f}")
    print(f"  alpha(collocation) = {mode0.alpha:.12f}")
    print(f"  sqrt(beta^2 + 1) = {math.sqrt(beta ** 2 + 1):.12f}")

    # the half-integer dispersion on the default interval is elementary:
    # sin(k(b-a)) = 0, so the branches sit at k = 3j/4
    print()
    print("half-integer cross-product roots on [2*pi/3, 2*pi]:")
    for branch in (1, 2, 3):
        k = sv.crossproduct_root(0.5, A0, B0, branch)
        print(f"  branch {branch}: k = {k:.12f}  (exact {0.75 * branch})")


if __name__ == "__main__":
    main()
