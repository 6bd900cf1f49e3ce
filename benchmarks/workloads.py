"""The benchmark's workloads and the checks on their outputs.

analytic-sweep   cold build + run_verification of the five closed-form
                 entries.  FD operators and closed-form field evaluation do
                 the work; mode solvers and Chebyshev proxies are bypassed.
shooting-sweep   the same for the two entries whose modes come from the
                 shooting solvers, the only place scan, bisection, IVP
                 shots and proxies run.
trace-ensemble   RK4 ensembles on a 2D and a 3D entry, plus one long
                 single trajectory on the torus: the tracer is the only
                 busy layer and fields are evaluated one point per call.

A run measures passes over its workload until ``seconds`` have elapsed and
reports medians.  An operation that fails is counted in the ledger; it never
aborts the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import jn_zeros

from eulerwaves import catalogue, tracer, verification

import layers
import speed

ANALYTIC_KEYS = ("kelvin-torus", "kelvin-disk", "rossby-sphere", "rossby-s3",
                 "ck-cylinder")
SHOOTING_KEYS = ("kelvin-hyperbolic", "twisted-annulus")

# run_verification keeps its default tolerances but samples one time instead
# of four, and the shooting entries use half the default nodes per grid
# axis: the default battery of the two shooting entries alone takes over a
# minute, which does not fit the benchmark's run budget.
VERIFY_TIMES = (0.7,)
# workload -> (entries, divisor of the default grid's nodes per axis)
SWEEPS = {"analytic-sweep": (ANALYTIC_KEYS, 1),
          "shooting-sweep": (SHOOTING_KEYS, 2)}

# Ensemble starts per entry and their horizon, and the torus trajectory
# length in periods.  32 starts over t in [0, pi/2] cost what 8 starts over
# [0, 2 pi] would, but the seeded share of halts, and with it the work of a
# pass, varies less between seeds.  Five torus periods rather than twenty
# keep a pass to about ten seconds.
ENSEMBLE = (("kelvin-disk", 32), ("rossby-s3", 32))
ENSEMBLE_HORIZON = 0.5 * math.pi
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
SINGLE_KEY = "kelvin-torus"
SINGLE_PERIODS = 5
# Wrap-aware chart distance allowed between RK4 and a DOP853 reference.
# Trajectories that halt at a singular margin finish near a coordinate
# singularity, where RK4 at the default step is good to about 1e-5.
TRACE_TOL = 1e-4
HALT_STATUSES = (tracer.STATUS_COMPLETED, tracer.STATUS_SINGULAR)

# Cold set-up is sampled in fresh processes, up to SETUP_SAMPLES times, when
# one build of the workload's entries takes under SETUP_REPEAT_LIMIT_S.
SETUP_SAMPLES = 7
SETUP_REPEAT_LIMIT_S = 2.0
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# The tolerance checks of the battery (stationarity has no residual).
CHECK_NAMES = (
    "euler-residual", "linearized-residual",
    "eigen-inertia-v", "eigen-inertia-w", "eigen-advection-v",
    "eigen-advection-w", "eigen-coadjoint-v", "eigen-coadjoint-w",
    "energy-conservation", "energy-quadrature-agreement", "divergence",
    "boundary-tangency", "skew-adjoint-pair", "skew-adjoint-polarized",
)

def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("per_call"):
        return "points/call"
    if name.endswith("tol_ratio"):
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    ["import_s", "catalogue.build_s", "catalogue.self_s",
     "solvers.mode_s", "solvers.scan_s", "solvers.scan_evals",
     "solvers.scan_useful_frac", "solvers.bisect_s", "solvers.bisect_evals",
     "solvers.ivp_solves", "solvers.ivp_rhs_evals", "solvers.ivp_s",
     "solvers.self_s", "proxy.calls", "proxy.points", "proxy.s",
     "fields.velocity_calls", "fields.velocity_points", "fields.velocity_s",
     "fields.stream_calls", "fields.stream_points", "fields.stream_s",
     "fields.vector_calls", "fields.vector_points", "fields.points_per_call",
     "fields.self_s", "specfun.calls", "specfun.points", "specfun.s",
     "geometry.fd_calls", "geometry.fd_points", "geometry.metric_calls",
     "geometry.metric_points", "geometry.operator_s", "geometry.self_s",
     "verify.run_s", "verify.eigen_s", "verify.euler_s",
     "verify.linearized_s", "verify.conservation_s", "verify.constraint_s",
     "verify.skew_s", "verify.other_s", "verify.euler_max_s",
     "verify.self_s"]
    + [f"check.{name}.tol_ratio" for name in CHECK_NAMES]
    + ["tracer.steps", "tracer.velocity_calls", "tracer.points_per_call",
       "tracer.s", "tracer.self_s", "tracer.halted",
       "tracer.ensemble_steps_per_s", "tracer.single_steps_per_s",
       "report.serialize_s", "report.bytes",
       "trace.overhead_s", "trace.overhead_frac"]
)
PER_LAYER_UNITS = {name: _layer_unit(name) for name in PER_LAYER_NAMES}


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call fn; a raised exception is a failed operation, not a crash."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run must go on and report it
            traceback.print_exc(file=sys.stderr)
            self.record(False, f"{what}: {exc!r}")
            return None
        self.record(True, what)
        return result


@dataclass
class Outcome:
    ledger: Ledger
    metrics: dict                       # name -> (value, unit)
    notes: list = field(default_factory=list)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(ledger: Ledger, metrics: dict, notes: list,
            trace: bool) -> Outcome:
    if not trace:
        metrics["ops_ok_frac"] = (
            (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
            "frac")
        notes.append(f"ops_failed_frac = "
                     f"{ledger.failed / max(ledger.attempted, 1):.6g} frac")
    notes.extend(f"FAILED: {what}" for what in ledger.failures)
    return Outcome(ledger=ledger, metrics=metrics, notes=notes)


def _timed_loop(seconds: float, run_pass):
    """Call run_pass until `seconds` have elapsed (at least once)."""
    deadline = time.perf_counter() + seconds
    while True:
        run_pass()
        if time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# set-up and oracles
# ---------------------------------------------------------------------------


def _oracles(key: str, sol) -> list:
    """Closed-form facts the built entry must reproduce."""
    sp = sol.spectral
    if key == "rossby-sphere":
        return [("lambda = 1/3", sp.lam_exact == Fraction(1, 3))]
    if key == "rossby-s3":
        return [("omega = -1/3", sp.omega_exact == Fraction(-1, 3))]
    if key == "twisted-annulus":
        return [("|alpha - 5/4| < 1e-8", abs(sp.alpha - 1.25) < 1e-8)]
    if key == "kelvin-disk":
        beta = sol.metadata.get("beta", math.nan)
        return [("beta = j_{1,1}", abs(beta - jn_zeros(1, 1)[0]) <= 1e-10)]
    return []


def build_entries(keys, ledger: Ledger, rec=None):
    """Cold-build each entry with its defaults and check its oracles.

    Returns the solutions, the total build seconds, the interval the builds
    ran in and, when `rec` records spans, each entry's span range."""
    solutions, ranges, total = {}, {}, 0.0
    first = time.perf_counter()
    for key in keys:
        lo = len(rec) if rec is not None else 0
        start = time.perf_counter()
        sol = ledger.attempt(f"build {key}", catalogue.build, key)
        total += time.perf_counter() - start
        ranges[key] = (lo, len(rec) if rec is not None else 0)
        if sol is not None:
            solutions[key] = sol
    interval = (first, time.perf_counter())
    for key, sol in solutions.items():
        for what, ok in _oracles(key, sol):
            ledger.record(ok, f"{key} oracle {what}")
    return solutions, total, interval, ranges


def setup_samples(keys, first: float, interval) -> list:
    """(seconds, interval) of the in-process cold build plus, when builds
    are cheap, of more cold builds in fresh interpreters (import excluded).
    Those builds last milliseconds, too short for the speed probe, so they
    carry an empty interval and are scaled by the run's mean slowdown."""
    samples = [(first, interval)]
    if first >= SETUP_REPEAT_LIMIT_S:
        return samples
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, str(PROBE), *keys],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["build_s"]
        samples.append((seconds, ()))
    return samples


def _elapsed(intervals) -> float:
    return sum(t1 - t0 for t0, t1 in intervals)


def _pass_slowdown(meter, intervals) -> float:
    """Machine slowdown over a whole pass: longer spans hold more probes
    than single entries, which steadies the estimate."""
    return meter.slowdown(min(t0 for t0, _ in intervals),
                          max(t1 for _, t1 in intervals))


def _timings(meter, samples, passes) -> tuple:
    """Set-up samples and passes (lists of intervals) in reference
    seconds, plus the same in wall seconds for the notes."""
    setup_ref = [s / meter.slowdown(*iv) for s, iv in samples]
    pass_ref = [_elapsed(p) / _pass_slowdown(meter, p) for p in passes]
    notes = [meter.summary(),
             f"wall: setup_s = {statistics.median(s for s, _ in samples):.6g}"
             f" s, pass_s = {statistics.median(map(_elapsed, passes)):.6g}"
             f" s; setup samples = {len(samples)}, passes = {len(passes)}"]
    return statistics.median(setup_ref), statistics.median(pass_ref), notes


# ---------------------------------------------------------------------------
# certification sweeps
# ---------------------------------------------------------------------------


def sweep_pass(solutions: dict, seed: int, divisor: int, ledger: Ledger,
               rec=None):
    """run_verification plus the report bytes the CLI would write, for every
    entry.  Returns reports, bytes, each entry's time interval and, when
    `rec` records spans, each entry's span range."""
    reports, data, intervals, ranges = {}, {}, {}, {}
    for key, sol in solutions.items():
        grid = tuple(n // divisor for n in verification.default_grid(sol.dim))
        lo = len(rec) if rec is not None else 0
        start = time.perf_counter()
        rep = ledger.attempt(f"verify {key}", verification.run_verification,
                             sol, grid=grid, times=VERIFY_TIMES, seed=seed)
        if rep is not None:
            data[key] = rep.to_json_bytes()
            reports[key] = rep
        intervals[key] = (start, time.perf_counter())
        ranges[key] = (lo, len(rec) if rec is not None else 0)
    return reports, data, intervals, ranges


def check_reports(solutions: dict, reports: dict, ledger: Ledger) -> None:
    for key, rep in reports.items():
        failing = [c.name for c in rep.checks if not c.passed]
        ledger.record(rep.all_pass, f"{key} all_pass (failing: {failing})")
        declared = solutions[key].spectral.classification
        observed = rep.spectral.get("classification-observed")
        ledger.record(declared == observed,
                      f"{key} classification {declared} vs observed "
                      f"{observed}")


def tol_ratios(reports: dict) -> dict:
    """Largest (sup / normalizer) / tol of each check over the entries."""
    worst = {}
    for rep in reports.values():
        for c in rep.checks:
            if c.name != "stationarity":
                worst[c.name] = max(worst.get(c.name, 0.0),
                                    c.sup / c.normalizer / c.tol)
    return worst


def run_sweep(keys, seed: int, seconds: float, trace: bool,
              import_s: float = 0.0, divisor: int = 1) -> Outcome:
    """One run of a certification sweep over `keys`, verified on the
    default grid with `divisor` times fewer nodes per axis."""
    if trace:
        return _traced_sweep(keys, seed, seconds, import_s, divisor)
    ledger = Ledger()
    passes, state = [], {}

    def one_pass():
        reports, data, intervals, _ = sweep_pass(solutions, seed, divisor,
                                                 ledger)
        passes.append(intervals)
        if "data" not in state:
            state.update(data=data, reports=reports, rss=_peak_rss_mb())
        else:
            ledger.record(data == state["data"],
                          "report bytes differ between passes")

    with speed.Speedometer() as meter:
        solutions, first, interval, _ = build_entries(keys, ledger)
        samples = setup_samples(keys, first, interval)
        _timed_loop(seconds, one_pass)
    check_reports(solutions, state["reports"], ledger)
    setup_s, pass_s, notes = _timings(meter, samples,
                                      [p.values() for p in passes])
    ratios = tol_ratios(state["reports"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "worst_tol_ratio": (max(ratios.values(), default=math.nan), "ratio"),
        "peak_rss_mb": (state["rss"], "MB"),
    }
    for key in solutions:
        per_entry = statistics.median(
            (p[key][1] - p[key][0]) / _pass_slowdown(meter, p.values())
            for p in passes)
        notes.append(f"  {key}: verify {per_entry:.4f} s")
    return _finish(ledger, metrics, notes, trace=False)


def _traced_setup(keys, ledger):
    """Cold builds of `keys` with every layer traced."""
    rec = layers.Recorder()
    with rec.installed():
        solutions, _, interval, ranges = build_entries(keys, ledger, rec)
    layers.warn_missing(rec.missing)
    return solutions, rec, ranges, interval


def _traced_pair(meter, rec, run_pass):
    """An untraced then a traced pass.  Returns both results, the traced
    pass's totals and both pass times, all in reference seconds."""
    untraced = run_pass(None)
    lo = len(rec)
    with rec.installed():
        traced = run_pass(rec)
    slow = [_pass_slowdown(meter, r[-1].values()) for r in (untraced, traced)]
    totals = layers.scaled(rec.totals(lo, len(rec)), slow[1])
    times = tuple(_elapsed(r[-1].values()) / f
                  for r, f in zip((untraced, traced), slow))
    return untraced, traced, totals, times


def _traced_sweep(keys, seed, seconds, import_s, divisor) -> Outcome:
    ledger = Ledger()
    pass_rec = layers.Recorder()
    totals, pairs, state = [], [], {}

    def run_pass(rec):
        reports, data, intervals, ranges = sweep_pass(solutions, seed,
                                                      divisor, ledger, rec)
        return reports, data, ranges, intervals

    def one_pair():
        untraced, traced, pass_totals, times = _traced_pair(meter, pass_rec,
                                                            run_pass)
        totals.append(pass_totals)
        pairs.append(times)
        ledger.record(traced[1] == untraced[1],
                      "traced report bytes differ from untraced")
        state.update(reports=untraced[0], data=untraced[1],
                     ranges=traced[2], untraced=untraced[3])

    with speed.Speedometer() as meter:
        solutions, setup_rec, build_ranges, interval = _traced_setup(
            keys, ledger)
        _timed_loop(seconds, one_pair)
    check_reports(solutions, state["reports"], ledger)
    setup = layers.scaled(setup_rec.totals(), meter.slowdown(*interval))
    m = layers.layer_metrics(layers.per_run(setup, totals),
                             setup_rec.counts)
    for name, ratio in tol_ratios(state["reports"]).items():
        m[f"check.{name}.tol_ratio"] = ratio
    m["report.bytes"] = sum(len(b) for b in state["data"].values())
    notes = _entry_table(solutions, setup_rec, build_ranges, pass_rec,
                         state["ranges"], state["untraced"])
    return _traced_outcome(ledger, m, pairs, import_s, notes)


def _entry_table(solutions, setup_rec, build_ranges, pass_rec, ranges,
                 untraced) -> list:
    """Per-entry build and check times (wall seconds) of the last pair."""
    lines = ["entry, wall s: build_s verify_s (untraced) | traced check "
             "busy: eigen euler linearized conservation constraint"]
    for key in solutions:
        b = setup_rec.totals(*build_ranges[key]).get("catalogue.build:busy", 0)
        t = pass_rec.totals(*ranges[key])
        checks = " ".join(f"{t.get(f'verify.{c}:busy', 0):.3f}" for c in
                          ("eigen", "euler", "linearized", "conservation",
                           "constraint"))
        t0, t1 = untraced[key]
        lines.append(f"  {key}: {b:.3f} {t1 - t0:.3f} | {checks}")
    return lines


def _traced_outcome(ledger, m, pairs, import_s, notes) -> Outcome:
    m["import_s"] = import_s
    m["trace.overhead_s"] = statistics.median(t1 - t0 for t0, t1 in pairs)
    m["trace.overhead_frac"] = statistics.median(
        (t1 - t0) / t0 for t0, t1 in pairs)
    metrics = {name: (float(m.get(name, 0.0)), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    notes.insert(0, f"traced pairs = {len(pairs)} (per-layer times are "
                    "reference seconds)")
    return _finish(ledger, metrics, notes, trace=True)


# ---------------------------------------------------------------------------
# tracer ensemble
# ---------------------------------------------------------------------------


def probe_start(M) -> np.ndarray:
    """Centre of the usable chart box: a seed-independent start whose
    reference distance is the workload's accuracy figure."""
    return np.array([sum(M.axis_interval(axis)) / 2.0
                     for axis in range(M.dim)])


def lattice_starts(M, n: int, rng: np.random.Generator) -> np.ndarray:
    """n starts on a rank-1 lattice over the usable chart box, moved as a
    whole by a seeded shift modulo the box.  Every seed covers the chart
    evenly, so the share of starts that halt, and with it the work of a
    pass, varies far less between seeds than with independent starts.

    The generator is (1, a, a^2, ...) mod n with a = n / golden ratio^2
    rounded, the choice that makes the 2D lattice a Fibonacci lattice."""
    a = round(n / GOLDEN ** 2)
    gen = np.array([pow(a, j, n) for j in range(M.dim)])
    u = (np.outer(np.arange(n), gen) / n + rng.random(M.dim)) % 1.0
    lo, hi = np.array([M.axis_interval(axis) for axis in range(M.dim)]).T
    return lo + u * (hi - lo)


def trace_inputs(solutions: dict, seed: int) -> dict:
    """Ensemble starts (the probe first, then seeded ones) and two seeded
    torus starts: the timed single trajectory and a reference-only one."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for key, n in ENSEMBLE:
        if key in solutions:
            M = solutions[key].manifold
            inputs[key] = np.vstack([probe_start(M),
                                     lattice_starts(M, n - 1, rng)])
    if SINGLE_KEY in solutions:
        inputs[SINGLE_KEY] = solutions[SINGLE_KEY].manifold.random_interior(
            2, rng)
    return inputs


def _fingerprint(trajs) -> str:
    h = hashlib.sha256()
    for tr in trajs:
        h.update(tr.status.encode())
        h.update(np.ascontiguousarray(tr.points).tobytes())
    return h.hexdigest()


def _steps(trajs) -> int:
    return sum(len(tr.times) - 1 for tr in trajs)


def trace_pass(solutions: dict, inputs: dict, ledger: Ledger):
    """One pass: every ensemble, then the single torus trajectory.
    Returns the trajectories per entry and the time interval of each
    integration call."""
    trajs, intervals = {}, {}
    for key, _ in ENSEMBLE:
        if key not in inputs:
            continue
        start = time.perf_counter()
        got = ledger.attempt(f"integrate_many {key}", tracer.integrate_many,
                             solutions[key], inputs[key],
                             t1=ENSEMBLE_HORIZON)
        intervals[key] = (start, time.perf_counter())
        trajs[key] = got or []
    if SINGLE_KEY in inputs:
        sol = solutions[SINGLE_KEY]
        start = time.perf_counter()
        got = ledger.attempt(
            f"integrate_trajectory {SINGLE_KEY}", tracer.integrate_trajectory,
            sol, inputs[SINGLE_KEY][0], t1=SINGLE_PERIODS * sol.period)
        intervals[SINGLE_KEY] = (start, time.perf_counter())
        trajs[SINGLE_KEY] = [got] if got is not None else []
    return trajs, intervals


def _rates(trajs, passes, slowdown) -> tuple:
    """Median ensemble and single-trajectory particle-steps per second,
    with each pass's seconds divided by slowdown(pass)."""
    ens = [k for k, _ in ENSEMBLE if k in trajs]
    ens_steps = sum(_steps(trajs[k]) for k in ens)
    single = _steps(trajs.get(SINGLE_KEY, []))
    ens_rate = statistics.median(
        ens_steps * slowdown(p) / _elapsed(p[k] for k in ens)
        for p in passes) if ens else 0.0
    single_rate = statistics.median(
        single * slowdown(p) / _elapsed([p[SINGLE_KEY]]) for p in passes) \
        if SINGLE_KEY in trajs else 0.0
    return ens_rate, single_rate


def reference_gap(sol, traj) -> float:
    """Wrap-aware chart distance between the RK4 end point and a DOP853
    solution over the same time span."""
    M = sol.manifold
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    if t1 <= t0:
        return 0.0
    ref = solve_ivp(lambda t, x: sol.velocity(t, x[None, :])[0], (t0, t1),
                    traj.points[0], method="DOP853", rtol=1e-12, atol=1e-12)
    return tracer.chart_gap(M, M.wrap(ref.y[:, -1]), traj.points[-1])


def check_trajectories(solutions, inputs, trajs, ledger) -> float:
    """Statuses and reference distances; returns the worst probe ratio."""
    worst = 0.0
    for key, _ in ENSEMBLE:
        if key not in trajs:
            continue
        for i, tr in enumerate(trajs[key]):
            ledger.record(tr.status in HALT_STATUSES,
                          f"{key} start {i} status {tr.status}")
        for i, tr in enumerate(trajs[key][:2]):
            gap = reference_gap(solutions[key], tr)
            ledger.record(gap <= TRACE_TOL,
                          f"{key} start {i} reference gap {gap:.3e}")
            if i == 0:
                worst = max(worst, gap / TRACE_TOL)
    if trajs.get(SINGLE_KEY):
        sol = solutions[SINGLE_KEY]
        single = trajs[SINGLE_KEY][0]
        ledger.record(single.status == tracer.STATUS_COMPLETED,
                      f"{SINGLE_KEY} status {single.status}")
        extra = ledger.attempt(f"integrate_trajectory {SINGLE_KEY} (check)",
                               tracer.integrate_trajectory, sol,
                               inputs[SINGLE_KEY][1])
        for tr in [single] + ([extra] if extra is not None else []):
            gap = reference_gap(sol, tr)
            ledger.record(gap <= TRACE_TOL,
                          f"{SINGLE_KEY} reference gap {gap:.3e}")
    return worst


def run_trace(seed: int, seconds: float, trace: bool,
              import_s: float = 0.0) -> Outcome:
    if trace:
        return _traced_trace(seed, seconds, import_s)
    ledger = Ledger()
    keys = tuple(k for k, _ in ENSEMBLE) + (SINGLE_KEY,)
    passes, state = [], {}

    def one_pass():
        trajs, intervals = trace_pass(solutions, inputs, ledger)
        passes.append(intervals)
        prints = {k: _fingerprint(v) for k, v in trajs.items()}
        if "prints" not in state:
            state.update(prints=prints, trajs=trajs, rss=_peak_rss_mb())
        else:
            ledger.record(prints == state["prints"],
                          "trajectories differ between passes")

    with speed.Speedometer() as meter:
        solutions, first, interval, _ = build_entries(keys, ledger)
        samples = setup_samples(keys, first, interval)
        inputs = trace_inputs(solutions, seed)
        _timed_loop(seconds, one_pass)
    worst = check_trajectories(solutions, inputs, state["trajs"], ledger)
    setup_s, pass_s, notes = _timings(meter, samples,
                                      [p.values() for p in passes])
    ens, single = _rates(state["trajs"], passes,
                         lambda p: _pass_slowdown(meter, p.values()))
    notes += [f"trace_ensemble_steps_per_s = {ens:.6g} 1/s",
              f"trace_single_steps_per_s = {single:.6g} 1/s"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "worst_tol_ratio": (worst, "ratio"),
        "peak_rss_mb": (state["rss"], "MB"),
    }
    return _finish(ledger, metrics, notes, trace=False)


def _traced_trace(seed, seconds, import_s) -> Outcome:
    ledger = Ledger()
    keys = tuple(k for k, _ in ENSEMBLE) + (SINGLE_KEY,)
    pass_rec = layers.Recorder()
    totals, pairs, untraced_passes, state = [], [], [], {}

    def one_pair():
        untraced, traced, pass_totals, times = _traced_pair(
            meter, pass_rec, lambda rec: trace_pass(solutions, inputs, ledger))
        totals.append(pass_totals)
        pairs.append(times)
        untraced_passes.append(untraced[1])
        ledger.record(
            {k: _fingerprint(v) for k, v in traced[0].items()}
            == {k: _fingerprint(v) for k, v in untraced[0].items()},
            "traced trajectories differ from untraced")
        state.update(trajs=untraced[0])

    with speed.Speedometer() as meter:
        solutions, setup_rec, _, interval = _traced_setup(keys, ledger)
        inputs = trace_inputs(solutions, seed)
        _timed_loop(seconds, one_pair)
    check_trajectories(solutions, inputs, state["trajs"], ledger)
    setup = layers.scaled(setup_rec.totals(), meter.slowdown(*interval))
    m = layers.layer_metrics(layers.per_run(setup, totals),
                             setup_rec.counts)
    trajs = state["trajs"]
    m["tracer.steps"] = sum(_steps(v) for v in trajs.values())
    m["tracer.halted"] = sum(tr.status != tracer.STATUS_COMPLETED
                             for v in trajs.values() for tr in v)
    m["tracer.ensemble_steps_per_s"], m["tracer.single_steps_per_s"] = \
        _rates(trajs, untraced_passes,
               lambda p: _pass_slowdown(meter, p.values()))
    return _traced_outcome(ledger, m, pairs, import_s, [])


WORKLOADS = {
    **{name: functools.partial(run_sweep, keys, divisor=divisor)
       for name, (keys, divisor) in SWEEPS.items()},
    "trace-ensemble": run_trace,
}
