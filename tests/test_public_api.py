"""The public surface: every exported name resolves, and the top-level API
is pinned, so a deletion that leaves a stale export, or drops a public name
without saying so, fails here."""

import importlib
import pkgutil

import pytest

import eulerwaves

_MODULES = sorted(info.name for info in pkgutil.iter_modules(
    eulerwaves.__path__) if not info.name.startswith("_"))

_TOP_LEVEL = sorted([
    "__version__",
    "CMetricMode", "CatalogueEntry", "ChartMetric", "ChartedManifold",
    "CheckResult", "ConstructionError", "ExactSolution", "ResidualReport",
    "SolverError", "SpectralData", "Trajectory",
    "build", "catalogue_keys", "check_eigen_relations", "ck_cylinder",
    "ck_dispersion_root", "closure_test", "conservation_check",
    "constraint_check", "crossproduct_root", "embed_s3_to_r4",
    "euler_residual", "flat_disk", "flat_torus", "flat_torus3",
    "hyperbolic_disk", "integrate_trajectory", "kelvin_disk",
    "kelvin_hyperbolic", "kelvin_torus", "linearized_residual",
    "rossby_s3", "rossby_sphere", "round_sphere", "run_verification",
    "skew_adjoint_battery", "solid_cylinder", "solve_cmetric_mode",
    "stationarity_classifier", "three_sphere", "twisted_annulus",
    "write_trajectory_csv",
])


def test_top_level_api_is_pinned():
    assert sorted(eulerwaves.__all__) == _TOP_LEVEL
    assert len(set(eulerwaves.__all__)) == len(eulerwaves.__all__)


def test_every_top_level_name_resolves():
    for name in eulerwaves.__all__:
        assert hasattr(eulerwaves, name), name


@pytest.mark.parametrize("module", _MODULES)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"eulerwaves.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"eulerwaves.{module}.{name}"
