"""Time cold catalogue builds in a fresh interpreter.

    python3 benchmarks/setup_probe.py KEY [KEY ...]

Prints one JSON line ``{"build_s": <seconds>}``: the wall time of building
every KEY with its default parameters, import excluded.  A fresh process
starts with every solver cache empty, which is what a command-line user
pays for.
"""

import json
import sys
import time

import runtime

if __name__ == "__main__":
    runtime.pin_environment()
    ew, _ = runtime.import_library()
    start = time.perf_counter()
    for key in sys.argv[1:]:
        ew.catalogue.build(key)
    print(json.dumps({"build_s": time.perf_counter() - start}))
