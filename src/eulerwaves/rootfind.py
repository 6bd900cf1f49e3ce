"""The shared mode-solver pipeline: a lazy sign-change scan, bisection, and
the ODE options and Chebyshev fit of the two shooting solvers.

Callers look ``scan_brackets``, ``bisect_root`` and ``solve_ivp`` up in their
own module namespace, so a tracer that wraps those names there (as
``benchmarks/layers.py`` does) sees every step.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = ["SolverError", "scan_brackets", "bisect_root", "newton_polish",
           "fit_dense"]

_IVP_OPTS = dict(method="DOP853", rtol=1e-12, atol=1e-14)
_CHEB_NODES = 201


class SolverError(RuntimeError):
    """A dispersion scan or shooting iteration failed to locate a root."""


def scan_brackets(f, lo: float, hi: float, n: int, k: int = 1) -> tuple:
    """The k-th sign-change bracket (a, b) of f on np.linspace(lo, hi, n),
    as Python floats.

    Samples in order and stops at that bracket; raises SolverError when the
    grid holds fewer than k.  Non-finite samples are skipped (useful near
    coordinate singularities of dispersion functions).
    """
    found = 0
    x_prev = f_prev = None
    for x in np.linspace(lo, hi, n):
        val = f(x)
        if not math.isfinite(val):
            x_prev, f_prev = None, None
            continue
        if f_prev is not None and np.sign(val) != np.sign(f_prev):
            found += 1
            if found == k:
                return float(x_prev), float(x)
        x_prev, f_prev = x, val
    raise SolverError(f"only {found} sign changes on [{lo:g}, {hi:g}], "
                      f"need {k}")


def bisect_root(f, a: float, b: float, xtol: float = 1e-13,
                maxiter: int = 200) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise ValueError("bisect_root: no sign change on the bracket")
    for _ in range(maxiter):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0 or (b - a) < xtol * max(1.0, abs(mid)):
            return mid
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def newton_polish(f, df, x0: float, steps: int = 3) -> float:
    """A few guarded Newton iterations after bisection."""
    x = x0
    for _ in range(steps):
        d = df(x)
        if d == 0.0 or not np.isfinite(d):
            break
        x_new = x - f(x) / d
        if not np.isfinite(x_new) or abs(x_new - x) > 1.0:
            break
        x = x_new
    return x


def fit_dense(dense, a: float, b: float) -> list:
    """Chebyshev interpolants on [a, b] of each component of a dense ODE
    solution, through the 201 Chebyshev-Lobatto nodes."""
    nodes = a + (b - a) * 0.5 * (1.0 - np.cos(
        np.pi * np.arange(_CHEB_NODES) / (_CHEB_NODES - 1)))
    return [cheb.Chebyshev.fit(nodes, vals, deg=_CHEB_NODES - 1, domain=[a, b])
            for vals in dense(nodes)]
