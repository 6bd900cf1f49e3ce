"""euler-waves benchmark: two certification sweeps and a tracer ensemble.

Run from the repository root:

    python3 benchmarks/bench.py --workload analytic-sweep --seed 1 \
        --seconds 12 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the root.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's public functions, records spans, and
reports the per-layer metrics instead.  Every run is one fresh process, so
the solver caches start cold.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys

import runtime


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("analytic-sweep", "shooting-sweep",
                            "trace-ensemble"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def result_line(outcome) -> str:
    return json.dumps({
        "correct": outcome.ledger.failed == 0,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    })


def main(argv=None) -> int:
    args = _parse(argv)
    runtime.pin_environment()
    _, import_s = runtime.import_library()
    import workloads

    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), import_s)
    print("environment: " + json.dumps(runtime.environment(args.seed)))
    print(f"workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in outcome.notes:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
