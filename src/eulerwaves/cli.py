"""Command-line surface: catalogue listing, verification reports, spectral
root solving, and particle tracing.

Exit codes are machine-parsable: 0 all checks passed, 1 at least one check
failed, 2 construction/solver failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from . import catalogue as cat
from . import solvers
from . import specfun
from . import tracer
from . import verification as ver
from .catalogue import ConstructionError
from .solvers import SolverError

__all__ = ["main", "RunConfig", "EXIT_OK", "EXIT_CHECK_FAILED",
           "EXIT_ERROR", "EXIT_USAGE"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; we reserve 2 for solver
    failures, so usage problems are rethrown and mapped to 64."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    key: str
    params: dict
    grid: Optional[tuple] = None
    times: Optional[list] = None
    tolerances: Optional[object] = None
    out: Optional[str] = None
    format: str = "json"
    seed: int = ver.DEFAULT_SEED


# -- argument plumbing ---------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="euler-waves", allow_abbrev=False,
                     description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="enumerate the solution catalogue")

    p = sub.add_parser("describe", help="show one catalogue entry in detail")
    p.add_argument("key")

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("key")
    p.add_argument("--grid", help="comma-separated nodes per axis")
    p.add_argument("--times", help="comma-separated sample times")
    p.add_argument("--tol", action="append", default=[],
                   metavar="NAME=VALUE|VALUE",
                   help="override one tolerance, or all with a bare value")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--seed", type=int, default=ver.DEFAULT_SEED)

    p = sub.add_parser("eigen", help="solve one spectral root problem")
    p.add_argument("problem",
                   choices=["disk-beta", "ck-beta", "crossproduct", "cmetric"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--branch", type=int, default=1)
    p.add_argument("--nu", type=finite)
    p.add_argument("--a", type=finite)
    p.add_argument("--b", type=finite)
    p.add_argument("--c", type=finite)
    p.add_argument("--out", help="write the JSON result here")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("trace", help="integrate one particle trajectory")
    p.add_argument("key")
    p.add_argument("--start", required=False,
                   help="comma-separated chart coordinates")
    p.add_argument("--t0", type=finite, default=0.0)
    p.add_argument("--t1", type=finite, default=None)
    p.add_argument("--dt", type=finite, default=None)
    p.add_argument("--out", help="write the CSV trajectory here")

    return parser


def finite(text: str) -> float:
    """Parse a float, refusing nan and +-inf (reports must be strict JSON)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _entry(key: str) -> cat.CatalogueEntry:
    try:
        return cat.CATALOGUE[key]
    except KeyError:
        known = ", ".join(cat.catalogue_keys())
        raise UsageError(f"unknown catalogue key {key!r} (known: {known})")


def _solution_params(entry: cat.CatalogueEntry, extra: list) -> dict:
    """Parse leftover flags against the entry's parameter schema."""
    parser = _Parser(prog=f"{entry.key} parameters", add_help=False,
                     allow_abbrev=False)
    for name, default in entry.defaults.items():
        options = [f"--{name}"]
        # the twisted annulus walls are conventionally written (a, b)
        if entry.key == "twisted-annulus" and name == "r_lo":
            options.append("--a")
        if entry.key == "twisted-annulus" and name == "r_hi":
            options.append("--b")
        parser.add_argument(*options, dest=name, type=type(default),
                            default=None)
    ns = parser.parse_args(extra)
    return {k: v for k, v in vars(ns).items() if v is not None}


def _parse_grid(text: Optional[str], dim: int) -> Optional[tuple]:
    if text is None:
        return None
    try:
        grid = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--grid expects comma-separated integers: {text!r}")
    if len(grid) != dim or any(g < 2 for g in grid):
        raise UsageError(f"--grid needs {dim} entries >= 2, got {text!r}")
    return grid


def _parse_times(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    try:
        times = [finite(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(
            f"--times expects comma-separated finite numbers: {text!r}")
    if not times:
        raise UsageError("--times needs at least one value")
    return times


def _tolerance(text: str) -> float:
    value = finite(text)
    if value < 0.0:
        raise ValueError(f"negative tolerance: {text!r}")
    return value


def _parse_tolerances(items: list, dim: int):
    if not items:
        return None
    known = ver.default_tolerances(dim)
    named, bare = {}, None
    for item in items:
        if "=" in item:
            name, _, value = item.partition("=")
            if name not in known:
                raise UsageError(
                    f"unknown tolerance {name!r} (known: "
                    f"{', '.join(sorted(known))})")
            try:
                named[name] = _tolerance(value)
            except ValueError:
                raise UsageError(f"bad tolerance value in {item!r}")
        else:
            try:
                bare = _tolerance(item)
            except ValueError:
                raise UsageError(f"bad tolerance {item!r}")
    if bare is None:
        return named
    merged = {name: bare for name in known}
    merged.update(named)
    return merged


def _no_extras(extra: list) -> None:
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")


# -- subcommands ---------------------------------------------------------------


def cmd_list() -> int:
    for key in cat.catalogue_keys():
        entry = cat.CATALOGUE[key]
        schema = " ".join(f"{k}={v}" for k, v in entry.defaults.items())
        print(f"{key:18s} ({entry.dim}D)  {schema}")
        print(f"{'':18s}   {entry.summary}")
    return EXIT_OK


def cmd_describe(key: str) -> int:
    entry = _entry(key)
    print(f"{entry.key}: {entry.summary}")
    print(f"  dimension: {entry.dim}")
    print("  parameters (defaults):")
    for name, default in entry.defaults.items():
        print(f"    {name}={default}")
    sol = cat.build(key)
    sp = sol.spectral
    print(f"  manifold: {sol.manifold.name}  coords: {','.join(sol.manifold.coords)}")
    print(f"  eigenvalue alpha={sp.alpha:.12g}  advection zeta={sp.zeta:.12g}")
    lam = f"{sp.lam_exact}" if sp.lam_exact is not None else f"{sp.lam:.12g}"
    omega = (f"{sp.omega_exact}" if sp.omega_exact is not None
             else f"{sp.omega:.12g}")
    print(f"  drift lambda={lam}  frequency omega={omega}")
    print(f"  classification: {sp.classification}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    try:
        sol = cat.build(cfg.key, **cfg.params)
    except (ConstructionError, SolverError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = ver.run_verification(sol, grid=cfg.grid, times=cfg.times,
                                  tolerances=cfg.tolerances, seed=cfg.seed)
    payload = report.to_json_bytes()
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(payload)
        for line in report.summary_lines():
            print(line)
        print(f"report written to {cfg.out}")
    elif cfg.format == "text":
        for line in report.summary_lines():
            print(line)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _require(ns, names, problem):
    values = {}
    for name in names:
        value = getattr(ns, name)
        if value is None:
            flags = " ".join(f"--{n}" for n in names)
            raise UsageError(f"eigen {problem} needs {flags}")
        values[name] = value
    return values


def cmd_eigen(ns) -> int:
    problem = ns.problem
    try:
        if problem == "disk-beta":
            params = _require(ns, ["n", "m"], problem)
            beta = specfun.bessel_j_zero(abs(params["n"]), params["m"])
            results = {"beta": beta, "alpha": beta * beta}
        elif problem == "ck-beta":
            params = _require(ns, ["n", "m"], problem)
            params["branch"] = ns.branch
            beta, alpha = solvers.ck_dispersion_root(
                params["n"], params["m"], ns.branch)
            results = {"beta": beta, "alpha": alpha}
        elif problem == "crossproduct":
            params = _require(ns, ["nu", "a", "b"], problem)
            params["branch"] = ns.branch
            k = solvers.crossproduct_root(
                params["nu"], params["a"], params["b"], ns.branch)
            results = {"k": k}
        else:  # cmetric
            params = _require(ns, ["n", "m", "c", "a", "b"], problem)
            params["branch"] = ns.branch
            profile = solvers.CMetricProfile.linear(
                params["c"], params["a"], params["b"])
            mode = solvers.solve_cmetric_mode(
                profile, params["n"], params["m"], branch=ns.branch)
            results = {"alpha": mode.alpha,
                       "boundary-residual": mode.boundary_residual}
        doc = {"schema": 1, "version": __version__, "problem": problem,
               "params": params, "results": results}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (SolverError, ConstructionError, ValueError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if ns.format == "text" or ns.out:
        for name, value in results.items():
            print(f"{name} = {value:.15g}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_trace(ns, params: dict) -> int:
    if ns.start is None:
        raise UsageError("trace needs --start")
    try:
        start = [finite(v) for v in ns.start.split(",")]
    except ValueError:
        raise UsageError(f"--start expects comma-separated finite numbers: "
                         f"{ns.start!r}")
    try:
        sol = cat.build(ns.key, **params)
    except (ConstructionError, SolverError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if len(start) != sol.manifold.dim:
        raise UsageError(f"--start needs {sol.manifold.dim} coordinates")
    if ns.dt is not None and ns.dt <= 0:
        raise UsageError("--dt must be positive")
    try:
        traj = tracer.integrate_trajectory(sol, start, ns.t0, ns.t1, ns.dt)
    except ValueError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if ns.out:
        tracer.write_trajectory_csv(traj, ns.out)
        print(f"{len(traj.times)} samples ({traj.status}) written to "
              f"{ns.out}")
    else:
        tracer.write_trajectory_csv(traj, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns, extra = parser.parse_known_args(argv)
        if ns.command is None:
            raise UsageError("a subcommand is required "
                             "(list, describe, verify, eigen, trace)")
        if ns.command == "list":
            _no_extras(extra)
            return cmd_list()
        if ns.command == "describe":
            _no_extras(extra)
            return cmd_describe(ns.key)
        if ns.command == "verify":
            entry = _entry(ns.key)
            params = _solution_params(entry, extra)
            cfg = RunConfig(
                key=ns.key, params=params,
                grid=_parse_grid(ns.grid, entry.dim),
                times=_parse_times(ns.times),
                tolerances=_parse_tolerances(ns.tol, entry.dim),
                out=ns.out, format=ns.format, seed=ns.seed)
            return cmd_verify(cfg)
        if ns.command == "eigen":
            _no_extras(extra)
            return cmd_eigen(ns)
        # trace
        entry = _entry(ns.key)
        params = _solution_params(entry, extra)
        return cmd_trace(ns, params)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
