#!/usr/bin/env python3
"""Run the complete verification battery over every catalogue entry.

Writes one JSON report per entry when --out-dir is given; otherwise prints
the check summaries only.

A run of all seven entries takes 2-3 seconds on a 2-core Xeon, about
0.7 s of it importing numpy and scipy; each entry takes 0.1-0.3 s, the
three 3D entries the longest.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from eulerwaves import catalogue as cat
from eulerwaves import verification as ver


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=None,
                    help="write <key>.json reports into this directory")
    ap.add_argument("--keys", nargs="*", default=None,
                    help="subset of catalogue keys (default: all)")
    args = ap.parse_args(argv)

    keys = [k for tok in args.keys for k in tok.split(",") if k] \
        if args.keys else cat.catalogue_keys()
    unknown = [k for k in keys if k not in cat.catalogue_keys()]
    if unknown:
        ap.error(f"unknown keys: {', '.join(unknown)}")
    failures = []
    for key in keys:
        t0 = time.perf_counter()
        sol = cat.build(key)
        report = ver.run_verification(sol)
        elapsed = time.perf_counter() - t0
        for line in report.summary_lines():
            print(line)
        print(f"  ({elapsed:.1f}s)")
        if not report.all_pass:
            failures.append(key)
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"{key}.json"
            path.write_bytes(report.to_json_bytes())
            print(f"  report -> {path}")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"all {len(keys)} entries certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
