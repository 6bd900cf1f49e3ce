"""The traced benchmark's span recorder against the library.

``benchmarks/layers.py`` wraps library functions from outside the package
and imports each wrapped module by name.  A module it can no longer import
would stop every traced benchmark run, while every untraced run still
passes, so its install and restore cycle is exercised here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from eulerwaves import catalogue as cat
from eulerwaves import geometry as geo
from eulerwaves import solvers
from eulerwaves import specfun as sf
from eulerwaves import verification as ver

_LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _site_attributes(layers):
    """(owner, attribute, current value) of every site the library has."""
    found = []
    for mod_name, cls_name, attr, _, _ in layers.SITES:
        owner = importlib.import_module(f"eulerwaves.{mod_name}")
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        value = vars(owner).get(attr) if owner is not None else None
        if value is not None:
            found.append((owner, attr, value))
    return found


def test_recorder_installs_and_restores_library_sites():
    layers = _load_layers()
    before = _site_attributes(layers)
    assert before
    rec = layers.Recorder()
    with rec.installed():
        inside = _site_attributes(layers)
        assert all(value is not original for (_, _, value), (_, _, original)
                   in zip(inside, before))
        sf.bessel_j(0, np.array([0.5, 1.0]))
    assert len(rec) >= 1
    after = _site_attributes(layers)
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(value is original for (_, _, value), (_, _, original)
               in zip(after, before))


def test_recorder_counts_scan_and_bisection_by_position():
    # the scan and bisection hooks read lo, hi, n and the bracket by
    # position, so a dispersion root run inside them must count both steps
    # and find the untraced root
    untraced = solvers.ck_dispersion_root(1, 1)
    layers = _load_layers()
    rec = layers.Recorder()
    with rec.installed():
        traced = solvers.ck_dispersion_root(1, 1)
    assert rec.counts["scan_evals"] > 0
    assert rec.counts["bisect_evals"] > 0
    assert traced == untraced


def test_recorder_sees_the_library_as_it_is():
    # wrapping changes no byte of a report, and every stencil of the
    # library goes through the wrapped fd_partial
    layers = _load_layers()
    sols = {key: cat.build(key) for key in ("ck-cylinder", "kelvin-disk")}
    grids = {"ck-cylinder": (5, 5, 5), "kelvin-disk": (8, 8)}

    def reports():
        return [ver.run_verification(sol, grid=grids[key],
                                     times=[0.7]).to_json_bytes()
                for key, sol in sols.items()]

    untraced = reports()
    with layers.Recorder().installed():
        assert reports() == untraced
    sol = sols["ck-cylinder"]
    pts = sol.manifold.interior_grid((3, 3, 3))
    rec = layers.Recorder()
    with rec.installed():
        geo._curl_jet(sol.manifold, sol.wave, 0.0, pts)
    assert rec.totals()["geometry.fd:calls"] == 3
