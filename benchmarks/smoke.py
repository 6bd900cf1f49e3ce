"""Smoke test of the benchmark itself.

    python3 benchmarks/smoke.py

1. kelvin-torus goes through the full metric path, untraced and traced:
   the result line names exactly the metrics and units of BENCHMARK.json,
   every value is finite, and no operation fails.
2. Negative case: kelvin-torus with its frequency scaled by 1.1 is not an
   Euler solution, so the run must count failed operations.

Exits 0 when both hold, 1 otherwise.
"""

import json
import math
import sys

import runtime


def main() -> int:
    runtime.pin_environment()
    _, import_s = runtime.import_library()
    import bench
    import workloads
    from eulerwaves import catalogue

    spec = json.loads((runtime.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        outcome = workloads.run_sweep(("kelvin-torus",), seed=1, seconds=0.1,
                                      trace=trace, import_s=import_s)
        line = json.loads(bench.result_line(outcome))
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: v["unit"] for name, v in line["metrics"].items()}
        if got != want:
            problems.append(f"{section}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(want))}")
        bad = [name for name, v in line["metrics"].items()
               if not math.isfinite(v["value"])]
        if bad:
            problems.append(f"{section}: non-finite values {bad}")
        if not line["correct"] or line["failed"]:
            problems.append(f"{section}: failed operations "
                            f"{outcome.ledger.failures}")

    original = catalogue.build
    catalogue.build = lambda key, **kw: original(key, **kw).perturbed(1.1)
    try:
        outcome = workloads.run_sweep(("kelvin-torus",), seed=1, seconds=0.1,
                                      trace=False)
    finally:
        catalogue.build = original
    ok_frac = outcome.metrics["ops_ok_frac"][0]
    if outcome.ledger.failed == 0 or not ok_frac < 1.0:
        problems.append("perturbed kelvin-torus reported no failed operation")
    print(f"negative case: {outcome.ledger.failed} of "
          f"{outcome.ledger.attempted} operations failed, "
          f"ops_failed_frac = {1.0 - ok_frac:.3f}")

    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
