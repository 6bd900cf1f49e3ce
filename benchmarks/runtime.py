"""Process set-up shared by the benchmark's entry points.

Call ``pin_environment()`` before anything imports numpy: OpenBLAS and
OpenMP read their thread counts when they load.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Serial run: BLAS/OpenMP on one thread, library threads off."""
    os.environ.update(THREAD_PINS)
    os.environ.pop("EULER_WAVES_THREADS", None)


def import_library():
    """Import ``eulerwaves`` from this checkout's ``src/``; return the
    module and the import time.  Exits with code 2 when the checkout has no
    source tree, so an installed copy is never measured by mistake."""
    if not (SRC / "eulerwaves" / "__init__.py").is_file():
        print(f"bench: no library source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    module = importlib.import_module("eulerwaves")
    elapsed = time.perf_counter() - start
    if Path(module.__file__).resolve().parent != SRC / "eulerwaves":
        print(f"bench: imported eulerwaves from {module.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return module, elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "EULER_WAVES_THREADS": os.environ.get("EULER_WAVES_THREADS"),
        **{k: os.environ.get(k) for k in THREAD_PINS},
    }
