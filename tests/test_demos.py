"""Smoke tests: the fast demos run to completion against this checkout.

verify_all.py and trace_orbits.py take several seconds each and are left
out; the four below take about 5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["annulus_mode.py", "catalogue_tour.py",
                                  "sphere_drift.py",
                                  "residual_convergence.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
