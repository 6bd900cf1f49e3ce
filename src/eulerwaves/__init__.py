"""euler-waves: explicit time-periodic Euler flows on model geometries.

The package builds closed-form, non-stationary solutions of the
incompressible Euler equations on a small zoo of two- and three-dimensional
Riemannian manifolds, certifies each one numerically (residuals, eigenfield
relations, conservation laws, constraint checks), and traces particle
trajectories through the resulting velocity fields.

Entry points:

* :mod:`eulerwaves.catalogue` -- the named solutions (``build``,
  ``catalogue_keys``, and one constructor per family).
* :mod:`eulerwaves.verification` -- ``run_verification`` and the individual
  checks behind it.
* :mod:`eulerwaves.tracer` -- RK4 particle advection with chart-aware
  wrapping and orbit-closure detection.
* ``python -m eulerwaves`` / ``euler-waves`` -- the command line.
"""

__version__ = "0.1.0"

from .catalogue import (  # noqa: E402
    CatalogueEntry,
    ConstructionError,
    ExactSolution,
    SpectralData,
    build,
    catalogue_keys,
    ck_cylinder,
    embed_s3_to_r4,
    kelvin_disk,
    kelvin_hyperbolic,
    kelvin_torus,
    rossby_s3,
    rossby_sphere,
    twisted_annulus,
)
from .geometry import (  # noqa: E402
    ChartMetric,
    ChartedManifold,
    flat_disk,
    flat_torus,
    flat_torus3,
    hyperbolic_disk,
    round_sphere,
    solid_cylinder,
    three_sphere,
)
from .solvers import (  # noqa: E402
    CMetricMode,
    SolverError,
    ck_dispersion_root,
    crossproduct_root,
    solve_cmetric_mode,
)
from .tracer import (  # noqa: E402
    Trajectory,
    closure_test,
    integrate_trajectory,
    write_trajectory_csv,
)
from .verification import (  # noqa: E402
    CheckResult,
    ResidualReport,
    check_eigen_relations,
    conservation_check,
    constraint_check,
    euler_residual,
    linearized_residual,
    run_verification,
    skew_adjoint_battery,
    stationarity_classifier,
)

__all__ = [
    "__version__",
    # geometry
    "ChartMetric",
    "ChartedManifold",
    "flat_disk",
    "flat_torus",
    "flat_torus3",
    "hyperbolic_disk",
    "round_sphere",
    "solid_cylinder",
    "three_sphere",
    # solvers
    "CMetricMode",
    "SolverError",
    "ck_dispersion_root",
    "crossproduct_root",
    "solve_cmetric_mode",
    # catalogue
    "CatalogueEntry",
    "ConstructionError",
    "ExactSolution",
    "SpectralData",
    "build",
    "catalogue_keys",
    "ck_cylinder",
    "embed_s3_to_r4",
    "kelvin_disk",
    "kelvin_hyperbolic",
    "kelvin_torus",
    "rossby_s3",
    "rossby_sphere",
    "twisted_annulus",
    # verification
    "CheckResult",
    "ResidualReport",
    "check_eigen_relations",
    "conservation_check",
    "constraint_check",
    "euler_residual",
    "linearized_residual",
    "run_verification",
    "skew_adjoint_battery",
    "stationarity_classifier",
    # tracer
    "Trajectory",
    "closure_test",
    "integrate_trajectory",
    "write_trajectory_csv",
]
