"""The shared mode-solver tools: a lazy sign-change scan and bisection for
the dispersion roots, and Chebyshev collocation for the two eigenproblems
without a closed form.

Callers look ``scan_brackets`` and ``bisect_root`` up in their own module
namespace, so a tracer that wraps those names there (as
``benchmarks/layers.py`` does) sees every step.  ``cheb`` and ``collocate``
follow Trefethen, *Spectral Methods in MATLAB* (SIAM 2000), ch. 6 and 7.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import dct

__all__ = ["SolverError", "scan_brackets", "bisect_root", "newton_polish",
           "cheb", "collocate"]

_SIZES = (33, 65, 129)
_CHOP_TOL = 1e-13


class SolverError(RuntimeError):
    """A dispersion scan or collocation solve failed to locate a mode."""


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


def cheb(N: int):
    """The N + 1 Chebyshev points x_j = cos(j pi/N) and the matrix D with
    (D v)_j = p'(x_j) for the polynomial p through the values v (cheb.m)."""
    x = np.sin(np.pi * np.arange(N, -N - 1, -2) / (2 * N))
    c = np.where(np.arange(N + 1) % 2, -1.0, 1.0)
    c[[0, N]] *= 2.0
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def collocate(solve):
    """Run solve(N) for N = 33, 65, 129 until its eigenvector is resolved.

    solve(N) returns (eigenvalue, columns), each column the values of one
    profile at the points of cheb(N), or raises SolverError when N holds too
    few modes.  A column is resolved when its last four Chebyshev
    coefficients are below 1e-13 max|c| (four, because a series of one
    parity has every other coefficient zero); it is then chopped after its
    last coefficient above that level.  Returns the eigenvalue and the
    chopped coefficients of each column.
    """
    for N in _SIZES:
        try:
            value, columns = solve(N)
        except SolverError as exc:
            failure = exc
            continue
        coefs = [dct(v, type=1) / N for v in columns]
        for c in coefs:
            c[[0, N]] /= 2.0
        tail = max(np.max(np.abs(c[-4:])) / np.max(np.abs(c)) for c in coefs)
        if tail < _CHOP_TOL:
            return value, [c[:np.flatnonzero(
                np.abs(c) > _CHOP_TOL * np.max(np.abs(c)))[-1] + 1]
                for c in coefs]
        failure = SolverError(f"eigenvector not resolved at N = {N}: "
                              f"Chebyshev tail {tail:.1e} of its maximum")
    raise failure
