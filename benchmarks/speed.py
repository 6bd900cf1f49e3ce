"""Machine-speed probe for timing on a shared host.

On a shared two-core host the CPU's speed changes by up to 2x within seconds
as other tenants come and go; CPU time tracks wall time, so this is speed,
not preemption.  A fixed probe kernel (20 numpy calls on 64 doubles, the
small-array Python-to-C call pattern the library itself is made of) runs
from a SIGALRM handler every 10 ms while the benchmark works.  The mean probe
cost over an interval says how slow the machine was during it, and a timing
is reported in reference seconds:

    reference seconds = wall seconds * REFERENCE_PROBE_S / mean probe cost

REFERENCE_PROBE_S is a fixed constant, so the ratio between two commits is
the ratio of their wall times on an equally fast machine.  The probe costs
about 0.2 % of the run.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.01
REFERENCE_PROBE_S = 1.5e-5
# An interval with fewer probes than this is scaled by the run's mean.
MIN_PROBES = 50
STALL_FACTOR = 4.0


class Speedometer:
    """Samples the probe while entered; converts intervals afterwards."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self._x = np.linspace(0.0, 1.0, 64)
        self._previous = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        for _ in range(20):
            np.sin(self._x)
        end = time.perf_counter()
        self.at.append(end)
        self.cost.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean probe cost over [t0, t1], or over the whole run, relative
        to the reference."""
        at = np.frombuffer(self.at)
        cost = np.frombuffer(self.cost)
        inside = cost[(at >= t0) & (at <= t1)]
        if inside.size < MIN_PROBES:
            inside = cost
        # A probe that a context switch or page fault lands on costs
        # milliseconds, which would swamp the mean; the work itself loses
        # only those milliseconds.  The slow state costs about twice the
        # fast one, so probes beyond STALL_FACTOR times the median are
        # stalls, not speed.
        inside = inside[inside <= STALL_FACTOR * np.median(inside)]
        return float(np.mean(inside)) / REFERENCE_PROBE_S

    def summary(self) -> str:
        cost = list(self.cost)
        if not cost:
            return "speed probe: no samples"
        return (f"speed probe: {len(cost)} samples, cost median "
                f"{statistics.median(cost) * 1e6:.2f} us, min "
                f"{min(cost) * 1e6:.2f} us, run slowdown "
                f"{self.slowdown():.3f}")
