"""Numerical certification of catalogue solutions.

Each check evaluates a residual that vanishes identically for an exact
solution, reports its sup and mean magnitude over deterministic sample sets,
and normalizes by the sup of the dominant constituent so tolerances are
scale-free.  A report is a plain data object with canonical JSON bytes:
identical configuration always produces identical bytes.

The Euler and the linearized residual come from one sweep.  With b the base,
z the complex wave, u = b + Re(rho e^{i phi(t)} z) and the unit companion
wave v = Re(-i e^{i phi(t)} z), A linear and B bilinear, each residual is

    R(t) = R0 + Re(e^{i phi} R1) + Re(e^{2i phi} R2),

    euler       R0 = B(b, Ab) + rho^2/2 Re B(z, conj Az)
                R1 = rho (i omega Az + B(b, Az) + B(z, Ab))
                R2 = rho^2/2 B(z, Az)
    linearized  R0 = 0
                R1 = omega Az - i (B(b, Az) + B(z, Ab))
                R2 = -i rho B(z, Az)

so five brackets per finite-difference step scale serve both rows at every
sampled time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from . import geometry as geo
from .catalogue import ConstructionError, ExactSolution

__all__ = [
    "DEFAULT_SEED", "CheckResult", "ResidualReport", "NonFiniteReportError",
    "default_grid", "default_times", "default_tolerances",
    "check_eigen_relations", "euler_residual", "linearized_residual",
    "conservation_check", "constraint_check", "FourierStream",
    "skew_adjoint_battery",
    "stationarity_classifier", "run_verification",
]

DEFAULT_SEED = 0x45554C52
_FLOOR = 1e-12


def default_grid(dim: int) -> tuple:
    return (24, 24) if dim == 2 else (12, 12, 12)


def default_times(omega: float) -> list:
    times = [0.0, 0.7, 1.9]
    if omega != 0.0:
        times.append(2.0 * math.pi / abs(omega))
    return times


def default_tolerances(dim: int) -> dict:
    fd = 1e-5 if dim == 2 else 1e-4
    return {
        "euler-residual": fd,
        "linearized-residual": fd,
        "eigen-inertia-v": fd,
        "eigen-inertia-w": fd,
        "eigen-advection-v": fd,
        "eigen-advection-w": fd,
        "eigen-coadjoint-v": fd,
        "eigen-coadjoint-w": fd,
        "energy-conservation": 1e-6,
        "energy-quadrature-agreement": 1e-6,
        "divergence": 1e-6,
        "boundary-tangency": 1e-8,
        "stationarity": 0.5,
        "skew-adjoint-pair": 1e-8,
        "skew-adjoint-polarized": 1e-8,
    }


def _resolve_grid(grid, dim: int) -> tuple:
    """``grid`` as a tuple of ``dim`` integers >= 2, or the default grid."""
    if grid is None:
        return default_grid(dim)
    grid = tuple(grid)
    if len(grid) != dim or not all(isinstance(n, (int, np.integer))
                                   and n >= 2 for n in grid):
        raise ValueError(f"grid needs {dim} integer entries >= 2, got {grid}")
    return tuple(int(n) for n in grid)


def _resolve_times(times, default: list) -> list:
    """``times`` as a non-empty list of finite floats, or ``default``."""
    if times is None:
        return default
    values = [float(t) for t in times]
    if not values or not all(math.isfinite(t) for t in values):
        raise ValueError(f"times must be a non-empty list of finite numbers, "
                         f"got {times!r}")
    return values


def _resolve_tol(tol, name: str, dim: int) -> float:
    """The tolerance of check ``name`` from ``tol``: None (the default), one
    number for every check, or a dict by check name, where a name that is
    not a check is an error rather than silently unused."""
    defaults = default_tolerances(dim)
    if isinstance(tol, dict):
        unknown = [key for key in tol if key not in defaults]
        if unknown:
            raise ValueError(f"unknown tolerance {unknown[0]!r} (known: "
                             f"{', '.join(sorted(defaults))})")
        tol = tol.get(name)
    if tol is None:
        return defaults[name]
    value = float(tol)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerance for {name!r} must be finite and >= 0, "
                         f"got {tol!r}")
    return value


def _resolve_int(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; ``bool`` is not an int here."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    sup: float
    mean: float
    normalizer: float
    tol: float
    passed: bool


def _check(name: str, mags, normalizer: float, tol: float) -> CheckResult:
    mags = np.atleast_1d(np.asarray(mags, dtype=float))
    sup = float(np.max(mags)) if mags.size else 0.0
    mean = float(np.mean(mags)) if mags.size else 0.0
    norm = float(normalizer) if normalizer > _FLOOR else 1.0
    return CheckResult(name=name, sup=sup, mean=mean, normalizer=norm,
                       tol=float(tol), passed=sup / norm <= tol)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in np.asarray(obj).tolist()] \
            if isinstance(obj, np.ndarray) else [_jsonable(x) for x in obj]
    return str(obj)


@dataclass
class ResidualReport:
    """Verdict container; ``to_json_bytes`` is the canonical serialization."""

    solution: str
    params: dict
    grid: tuple
    times: list
    seed: int
    tolerances: dict
    checks: list
    spectral: dict = field(default_factory=dict)
    richardson: dict = field(default_factory=dict)
    richardson_linearized: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "solution": self.solution,
            "params": _jsonable(self.params),
            "grid": [int(g) for g in self.grid],
            "times": [float(t) for t in self.times],
            "seed": int(self.seed),
            "tolerances": _jsonable(self.tolerances),
            "spectral": _jsonable(self.spectral),
            "richardson": _jsonable(self.richardson),
            "richardson-linearized": _jsonable(self.richardson_linearized),
            "checks": [
                {"name": c.name, "sup": float(c.sup), "mean": float(c.mean),
                 "normalizer": float(c.normalizer), "tol": float(c.tol),
                 "pass": bool(c.passed)}
                for c in self.checks
            ],
            "all-pass": self.all_pass,
        }

    def to_json_bytes(self) -> bytes:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True,
                          allow_nan=False)
        return (text + "\n").encode("utf-8")

    def summary_lines(self) -> list:
        lines = [f"{self.solution}  params={self.params}"]
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{verdict}] {c.name:<28s} sup/norm={c.sup / c.normalizer:.3e}"
                f"  tol={c.tol:.1e}")
        lines.append(f"  => {'ALL PASS' if self.all_pass else 'FAILED'}")
        return lines


class NonFiniteReportError(ConstructionError):
    """Raised by ``run_verification`` when a report value is not finite,
    typically because an amplitude this large overflows the fields.  The
    message names the non-finite rows; no strict-JSON report exists."""


def _report(sol: ExactSolution, grid, times, tolerances: dict, checks,
            spectral=None, richardson=None, seed: int = DEFAULT_SEED,
            richardson_linearized=None) -> ResidualReport:
    return ResidualReport(
        solution=sol.key, params=dict(sol.params), grid=tuple(grid),
        times=[float(t) for t in times], seed=int(seed),
        tolerances=dict(tolerances), checks=list(checks),
        spectral=spectral or {}, richardson=richardson or {},
        richardson_linearized=richardson_linearized or {})


def _norms(M: geo.ChartedManifold, pts: np.ndarray,
           vals: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(M.norm_sq(pts, vals), 0.0))


# ---------------------------------------------------------------------------
# eigen relations
# ---------------------------------------------------------------------------


def check_eigen_relations(sol: ExactSolution, grid=None, tol=None,
                          seed: int = DEFAULT_SEED) -> ResidualReport:
    """Certify the three defining relations of the complex eigenfield z:

    inertia      A z = alpha z
    advection    [u0, z] = i zeta z
    coadjoint    [z, A u0] = -i lam A z = -i lam alpha z

    with A = skew_grad lap (through the stream function) on surfaces and
    the curl in 3D.  Each is evaluated once on z, with no re/im pair of
    fields: its ``-v`` row is the real part, its ``-w`` row the imaginary
    part.  The coadjoint form is inverse-free: the defining identity
    composed with the inertia relation, so no elliptic solve is needed.

    Each row divides by the larger sup of its two sides, and a bracket row
    by at least the sup of its term-wise bracket (``_bracket_scale``): when
    both sides vanish (zeta = 0, or lam = 0 with A u0 != 0) the left side
    is FD rounding of terms of that size, not a quantity to divide by.
    """
    M = sol.manifold
    grid = _resolve_grid(grid, M.dim)
    seed = _resolve_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([M.interior_grid(grid), M.random_interior(200, rng)])
    sp = sol.spectral
    z = sol.wave

    if M.dim == 2:
        def vorticity(t, q):
            return geo.laplace_beltrami(M, sol.psi_wave, t, q)

        Az = geo.skew_gradient_values(M, vorticity, 0.0, pts)
        jz = (z(0.0, pts), geo.field_jacobian(M, z, 0.0, pts))
    else:
        Az, dz = geo._curl_jet(M, z, 0.0, pts)
        jz = (z(0.0, pts), dz)
    ju0, jAu0 = ((f(0.0, pts), geo.field_jacobian(M, f, 0.0, pts))
                 for f in (sol.base_flow, sol.base_image))
    z_vals = jz[0]
    relations = [
        ("eigen-inertia", Az, sp.alpha * z_vals, 0.0),
        ("eigen-advection", geo._lie_form(*ju0, *jz), 1j * sp.zeta * z_vals,
         _bracket_scale(M, pts, ju0, jz)),
        ("eigen-coadjoint", geo._lie_form(*jz, *jAu0),
         -1j * (sp.lam * sp.alpha) * z_vals, _bracket_scale(M, pts, jz, jAu0)),
    ]
    rows = [(f"{stem}-{part}", take(lhs), take(rhs), scale)
            for stem, lhs, rhs, scale in relations
            for part, take in (("v", np.real), ("w", np.imag))]
    tols = {name: _resolve_tol(tol, name, M.dim) for name, *_ in rows}
    checks = []
    for name, lhs, rhs, scale in rows:
        norm = max(np.max(_norms(M, pts, lhs)), np.max(_norms(M, pts, rhs)),
                   scale)
        checks.append(_check(name, _norms(M, pts, lhs - rhs), norm,
                             tols[name]))
    return _report(sol, grid, [0.0], tols, checks, seed=seed)


def _bracket_scale(M: geo.ChartedManifold, pts: np.ndarray, ju,
                   jv) -> float:
    """Sup of the metric norm of the term-wise bracket
    sum_a |d_a v^i| |u^a| + sum_a |d_a u^i| |v^a| from the jets (values,
    Jacobians) of u and v: the size of the terms that cancel in [u, v].
    Complex moduli bound the real and the imaginary part alike."""
    (u, du), (v, dv) = ju, jv
    terms = (np.einsum("nij,nj->ni", np.abs(dv), np.abs(u))
             + np.einsum("nij,nj->ni", np.abs(du), np.abs(v)))
    return float(np.max(_norms(M, pts, terms)))


# ---------------------------------------------------------------------------
# Euler and linearized residuals (one Euler-Arnold form, every dimension)
# ---------------------------------------------------------------------------


def _residual_check(M, tol_value, name, mags, normalizer, mags_half):
    """A residual row from its magnitudes over grid x times at step scale 1
    and its normalizer, plus the Richardson block from the magnitudes of a
    re-run at scale 1/2.

    With 4th-order stencils the sup must shrink by >= 8 under halving -- but
    only while truncation dominates rounding.  The nested evaluations divide
    rounding error by h^3 (streams, two spatial derivative layers on top of
    the stored scalar) or h^2 (curl form), so once the residual is within a
    generous multiple of eps * normalizer / h^depth the ratio is meaningless
    and is reported as null alongside the floor estimate that retired it.
    """
    sup_h = float(np.max(mags)) if mags.size else 0.0
    sup_h2 = float(np.max(mags_half))
    depth = 3 if M.dim == 2 else 2
    floor = (256.0 * np.finfo(float).eps * max(normalizer, 1.0)
             / min(M.fd_steps(0.5)) ** depth)
    ratio = sup_h / sup_h2 if sup_h2 > 0.0 else None
    if ratio is not None and ratio < 8.0 and sup_h2 <= floor:
        ratio = None
    richardson = {"sup-h": sup_h, "sup-half-h": sup_h2, "ratio": ratio,
                  "floor-estimate": floor}
    return _check(name, mags, normalizer, tol_value), richardson


def _harmonics(sol: ExactSolution, pts: np.ndarray, s: float) -> tuple:
    """The phase harmonics (R0, R1, R2) at ``pts`` and step scale ``s`` of
    the Euler and the linearized residual (see ``_residuals``) and of the
    image A u or A v that normalizes each, as
    ``((euler, A u), (linearized, A v))``.

    The FD operators are linear, so these are the nested stencils of u and
    v expanded.  The values and first partials of b, z, A b and A z are
    taken once, and each bracket is a pointwise combination of them.
    """
    M = sol.manifold
    if M.dim == 2:
        A, b, z = geo.laplace_beltrami, sol.psi_base, sol.psi_wave
        h = M.fd_steps(s)
        rg = M.sqrt_det(pts)

        def jet(f):
            return f(0.0, pts), [geo.fd_partial(f, 0.0, pts, axis, h[axis])
                                 for axis in (0, 1)]

        def bracket(f, g):
            return geo._poisson_form(f[1], g[1], rg)

        def jets(f):
            return jet(f), jet(image(f))
    else:
        A, b, z = geo.curl3, sol.base_flow, sol.wave

        def bracket(f, g):
            return geo._lie_form(f[0], f[1], g[0], g[1])

        def jets(f):
            # A f at pts and the Jacobian of f share f's stencil calls
            Af, df = geo._curl_jet(M, f, 0.0, pts, s)
            return ((f(0.0, pts), df),
                    (Af, geo.field_jacobian(M, image(f), 0.0, pts, s)))

    def image(f):
        return lambda t, q: A(M, f, t, q, h_scale=s)

    (jb, jAb), (jz, jAz) = jets(b), jets(z)
    Ab, Az = jAb[0], jAz[0]
    cross = bracket(jb, jAz) + bracket(jz, jAb)
    zAz = bracket(jz, jAz)
    zAz_bar = bracket(jz, (np.conj(Az), np.conj(jAz[1])))
    rho, omega = sol.rho, sol.omega
    rho2 = rho * rho  # a float power would raise OverflowError at 1e200
    euler = ((bracket(jb, jAb) + 0.5 * rho2 * zAz_bar.real,
              rho * (1j * omega * Az + cross), 0.5 * rho2 * zAz),
             (Ab, rho * Az, 0.0))
    linear = ((0.0, omega * Az - 1j * cross, -1j * rho * zAz),
              (0.0, -1j * Az, 0.0))
    return euler, linear


def _residuals(sol: ExactSolution, grid, times, tol) -> tuple:
    """The Euler-Arnold residual  d_t(A u) + B(u, A u)  of the velocity u,
    and its linearization  d_t(A v) + B(u, A v) + B(v, A u)  along the
    solution on the phase-shifted wave v, as the reports
    ``(euler, linearized)``.

    On surfaces A is the Laplace-Beltrami operator and B the Poisson bracket
    {f, g} = (d_2 f d_1 g - d_1 f d_2 g) / sqrt(g), acting on stream
    functions (vorticity form); in 3D A is the curl and B the Lie bracket
    [u, v] = J_v u - J_u v, acting on velocities (curl form).  With b the
    base (``psi_base`` or ``base_flow``) and z the wave (``psi_wave`` or
    ``wave``), which does not depend on t,
    u = b + Re(rho e^{i phi} z) and v = Re(-i e^{i phi} z), so each
    residual is R(t) = R0 + Re(e^{i phi} R1) + Re(e^{2i phi} R2):

        euler       R0 = B(b, Ab) + rho^2/2 Re B(z, conj Az)
                    R1 = rho (i omega Az + B(b, Az) + B(z, Ab))
                    R2 = rho^2/2 B(z, Az)
        linearized  R0 = 0
                    R1 = omega Az - i (B(b, Az) + B(z, Ab))
                    R2 = -i rho B(z, Az)

    ``_harmonics`` builds the R_k once per step scale, and every sampled
    time is pointwise arithmetic on them, with no field evaluation.  Each
    row is the sup over grid x times, normalized by the sup of |A u| or
    |A v| there, with a Richardson block.  v has unit amplitude, since the
    row is linear in v, so it tests the wave at rho = 0 too.
    """
    M = sol.manifold
    grid = _resolve_grid(grid, M.dim)
    times = _resolve_times(times, default_times(sol.omega))
    names = ("euler-residual", "linearized-residual")
    tols = [_resolve_tol(tol, name, M.dim) for name in names]
    pts = M.interior_grid(grid)

    def mag(r):
        return np.abs(r) if M.dim == 2 else _norms(M, pts, r)

    phases = [np.exp(1j * sol.phase(t)) for t in times]

    def sweep(harmonics):
        """|R0 + Re(e R1) + Re(e^2 R2)| at each phase factor e = e^{i phi}."""
        r0, r1, r2 = harmonics
        return [mag(r0 + (e * r1).real + (e * e * r2).real) for e in phases]

    full, half = (_harmonics(sol, pts, s) for s in (1.0, 0.5))
    reports = []
    for name, tol_value, (residual, image), (residual_half, _) in zip(
            names, tols, full, half):
        normalizer = max(float(np.max(a)) for a in sweep(image))
        check, richardson = _residual_check(
            M, tol_value, name, np.concatenate(sweep(residual)), normalizer,
            np.concatenate(sweep(residual_half)))
        reports.append(_report(sol, grid, times, {name: tol_value}, [check],
                               richardson=richardson))
    return tuple(reports)


def euler_residual(sol: ExactSolution, grid=None, times=None,
                   tol=None) -> ResidualReport:
    """Vorticity-form residual  d_t(lap psi) + {psi, lap psi}  on surfaces,
    curl-form residual  d_t(curl U) + [U, curl U]  in three dimensions."""
    return _residuals(sol, grid, times, tol)[0]


def linearized_residual(sol: ExactSolution, grid=None, times=None,
                        tol=None) -> ResidualReport:
    """Residual  d_t(A v) + B(u, A v) + B(v, A u)  of the Euler equations
    linearized along u, on the unit companion wave v = Re(-i e^{i phi} z)."""
    return _residuals(sol, grid, times, tol)[1]


# ---------------------------------------------------------------------------
# conservation and constraints
# ---------------------------------------------------------------------------


def conservation_check(sol: ExactSolution, grid=None, times=None,
                       tol=None) -> ResidualReport:
    """Kinetic energy constancy along the rotation period, plus a quadrature
    refinement cross-check so a pass cannot hide an under-resolved rule."""
    M = sol.manifold
    grid = _resolve_grid(grid, M.dim)
    period = sol.period or 2.0 * math.pi
    times = _resolve_times(
        times, [float(t) for t in np.linspace(0.0, period, 9)])
    tol_e = _resolve_tol(tol, "energy-conservation", M.dim)
    tol_q = _resolve_tol(tol, "energy-quadrature-agreement", M.dim)

    u = sol.velocity
    energies = [geo.inner_product_quadrature(M, u, u, t) for t in times]
    e0 = energies[0]
    drift = np.abs(np.asarray(energies) - e0)
    checks = [_check("energy-conservation", drift, abs(e0), tol_e)]
    e_fine = geo.inner_product_quadrature(M, u, u, times[0], refine=2)
    checks.append(_check("energy-quadrature-agreement", [abs(e_fine - e0)],
                         abs(e0), tol_q))
    tols = {"energy-conservation": tol_e, "energy-quadrature-agreement": tol_q}
    return _report(sol, grid, times, tols, checks)


def constraint_check(sol: ExactSolution, grid=None, tol=None,
                     times=None) -> ResidualReport:
    """Divergence at interior samples and boundary tangency g(U, normal)."""
    M = sol.manifold
    grid = _resolve_grid(grid, M.dim)
    times = _resolve_times(times, default_times(sol.omega))
    tol_div = _resolve_tol(tol, "divergence", M.dim)
    tol_tan = _resolve_tol(tol, "boundary-tangency", M.dim)
    pts = M.interior_grid(grid)

    div_mags, div_norm = [], 0.0
    for t in times:
        terms = geo.divergence_terms(M, sol.velocity, t, pts)
        div_mags.append(np.abs(terms.sum(axis=0)))
        div_norm = max(div_norm, float(np.max(np.abs(terms))))
    checks = [_check("divergence", np.concatenate(div_mags), div_norm,
                     tol_div)]

    tan_mags, tan_norm = [], 0.0
    for face in M.boundaries:
        nodes = geo.boundary_nodes(M, face, 24)
        for t in times:
            tan_mags.append(np.abs(
                geo.normal_component(M, sol.velocity, t, face, nodes)))
            tan_norm = max(tan_norm, float(np.max(_norms(
                M, nodes, sol.velocity(t, nodes)))))
    mags = np.concatenate(tan_mags) if tan_mags else np.zeros(1)
    checks.append(_check("boundary-tangency", mags, tan_norm, tol_tan))
    tols = {"divergence": tol_div, "boundary-tangency": tol_tan}
    return _report(sol, grid, times, tols, checks)


# ---------------------------------------------------------------------------
# skew-adjointness quadrature identity on the flat torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierStream:
    """Finite Fourier sum  psi(x, y) = Re sum_k a_k e^{i(kx x + ky y)}  on the
    flat torus, with analytic derivatives and exact mode-wise inverse
    Laplacian -- the one setting where the inertia operator inverts in closed
    form."""

    modes: tuple

    @classmethod
    def from_modes(cls, modes) -> "FourierStream":
        cleaned = []
        for kx, ky, amp in modes:
            kx, ky = int(kx), int(ky)
            if kx == 0 and ky == 0:
                raise ValueError("constant mode has no inverse Laplacian")
            cleaned.append((kx, ky, complex(amp)))
        return cls(modes=tuple(cleaned))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "FourierStream":
        """Four distinct non-constant modes with |kx|, |ky| <= 3 and complex
        normal amplitudes of variance 1/4."""
        modes = []
        seen = set()
        while len(modes) < 4:
            kx, ky = (int(z) for z in rng.integers(-3, 4, size=2))
            if (kx, ky) == (0, 0) or (kx, ky) in seen:
                continue
            seen.add((kx, ky))
            amp = complex(rng.normal(), rng.normal()) / 2.0
            modes.append((kx, ky, amp))
        return cls(modes=tuple(modes))

    @staticmethod
    def phase_table(pts: np.ndarray, streams) -> dict:
        """The phase e^{i(kx x + ky y)} at ``pts`` (N, 2) of every
        wavevector (kx, ky) of the ``streams``, keyed by (kx, ky): one
        exponential per distinct wavevector, however many streams share
        it."""
        x, y = pts[:, 0], pts[:, 1]
        keys = dict.fromkeys((kx, ky) for s in streams
                             for kx, ky, _ in s.modes)
        return {(kx, ky): np.exp(1j * (kx * x + ky * y)) for kx, ky in keys}

    def sums(self, phases: dict, orders) -> list:
        """The derivatives d_x^dx d_y^dy psi, one array per ``(dx, dy)`` in
        ``orders``, at the points of ``phases``, a ``phase_table`` that
        holds every wavevector of the stream."""
        n = len(next(iter(phases.values())))
        outs = [np.zeros(n, dtype=complex) for _ in orders]
        for kx, ky, amp in self.modes:
            e = phases[kx, ky]
            for out, (dx, dy) in zip(outs, orders):
                out += amp * (1j * kx) ** dx * (1j * ky) ** dy * e
        return [out.real for out in outs]

    def inverse_laplace(self) -> "FourierStream":
        return FourierStream(modes=tuple(
            (kx, ky, amp / (kx * kx + ky * ky)) for kx, ky, amp in self.modes))

    def field_values(self, phases: dict) -> np.ndarray:
        """Skew gradient (psi_y, -psi_x): the divergence-free field of psi,
        at the points of ``phases`` (as in ``sums``)."""
        psi_y, psi_x = self.sums(phases, [(0, 1), (1, 0)])
        return np.stack([psi_y, -psi_x], axis=-1)


_BRACKET_ORDERS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _bracket_form(da, db) -> np.ndarray:
    """Analytic commutator of two skew-gradient fields from the derivatives
    ``_BRACKET_ORDERS`` of their streams a and b: the skew gradient of the
    Poisson bracket  {a, b} = a_y b_x - a_x b_y."""
    ax, ay, axx, axy, ayy = da
    bx, by, bxx, bxy, byy = db
    sigma_x = axy * bx + ay * bxx - axx * by - ax * bxy
    sigma_y = ayy * bx + ay * bxy - axy * by - ax * byy
    return np.stack([sigma_y, -sigma_x], axis=-1)


def _skew_identity(u: FourierStream, v: FourierStream, w: FourierStream,
                   phases: dict, weight: float) -> tuple:
    """The normalized pair value |<A^-1 u, [v, u]>| and polarized value
    |<A^-1 u, [v, w]> + <A^-1 w, [v, u]>| by the flat-torus quadrature rule
    with equal weights ``weight``, whose nodes ``phases`` tabulates.  The
    pair value is the polarized form at w = u, which doubles value and norm
    exactly."""
    def inner(a, b):
        return float(np.sum(np.einsum("ni,ni->n", a, b)) * weight)

    def polarized(a1, b1, a2, b2):
        """|<a1, b1> + <a2, b2>| / (|a1| |b1| + |a2| |b2|)"""
        value = abs(inner(a1, b1) + inner(a2, b2))
        norm = (math.sqrt(inner(a1, a1)) * math.sqrt(inner(b1, b1))
                + math.sqrt(inner(a2, a2)) * math.sqrt(inner(b2, b2)))
        return value / (norm if norm > _FLOOR else 1.0)

    du, dv, dw = (s.sums(phases, _BRACKET_ORDERS) for s in (u, v, w))
    ainv_u, ainv_w = (s.inverse_laplace().field_values(phases)
                      for s in (u, w))
    br_vu, br_vw = _bracket_form(dv, du), _bracket_form(dv, dw)
    return (polarized(ainv_u, br_vu, ainv_u, br_vu),
            polarized(ainv_u, br_vw, ainv_w, br_vu))


def skew_adjoint_battery(pairs: int = 20, tol: float = 1e-8,
                         seed: int = DEFAULT_SEED) -> ResidualReport:
    """Randomized battery of the pair identity <A^-1 u, [v, u]> = 0 and its
    polarized form <A^-1 u, [v, w]> + <A^-1 w, [v, u]> = 0 over ``pairs``
    random triples of Fourier streams, by the flat-torus quadrature rule."""
    pairs = _resolve_int("pairs", pairs, 1)
    seed = _resolve_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    nodes, weights = geo._quadrature_rule(geo.flat_torus())
    streams = [FourierStream.random(rng) for _ in range(3 * pairs)]
    phases = FourierStream.phase_table(nodes, streams)
    pair_vals, polar_vals = zip(*(
        _skew_identity(*streams[i:i + 3], phases, weights[0])
        for i in range(0, 3 * pairs, 3)))
    checks = [_check("skew-adjoint-pair", pair_vals, 1.0, tol),
              _check("skew-adjoint-polarized", polar_vals, 1.0, tol)]
    return ResidualReport(
        solution="flat-torus-identity", params={"pairs": pairs},
        grid=(geo.PERIODIC_QUAD_POINTS[2],) * 2, times=[0.0], seed=seed,
        tolerances={"skew-adjoint-pair": float(tol),
                    "skew-adjoint-polarized": float(tol)}, checks=checks)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def _stationarity_probe(sol: ExactSolution,
                        seed: int = DEFAULT_SEED) -> tuple:
    """Numerical classification by comparing U at times 0 and 0.9, in the
    fixed frame and in the frame carried by the base rotation (whose chart
    action is a translation along the periodic angles, so components
    transport unchanged); a relative change below 1e-8 counts as none."""
    M = sol.manifold
    rng = np.random.default_rng(_resolve_int("seed", seed, 0))
    pts = M.random_interior(128, rng)
    u_now = sol.velocity(0.0, pts)
    scale = float(np.max(_norms(M, pts, u_now)))
    scale = scale if scale > _FLOOR else 1.0
    u_later = sol.velocity(0.9, pts)
    s_static = float(np.max(_norms(M, pts, u_later - u_now))) / scale
    carry = sol.base_flow(0.0, pts[:1])[0]
    u_carried = sol.velocity(0.9, pts + 0.9 * carry)
    s_frame = float(np.max(_norms(M, pts, u_carried - u_now))) / scale
    if s_static < 1e-8:
        observed = "stationary"
    elif s_frame < 1e-8:
        observed = "moving-frame-trivial"
    else:
        observed = "genuine"
    return observed, {"static-change": s_static, "carried-change": s_frame}


def _expected_class(sol: ExactSolution) -> str:
    """The classification the probe must observe: the spectral one from
    (lam, zeta), except that with no wave (rho = 0) the flow is the steady
    base flow u0."""
    return "stationary" if sol.rho == 0.0 else sol.spectral.classification


def stationarity_classifier(sol: ExactSolution,
                            seed: int = DEFAULT_SEED) -> str:
    """Classification from (lam, zeta) and the amplitude, cross-checked
    against the sampled time dependence of the velocity field."""
    expected = _expected_class(sol)
    observed, diag = _stationarity_probe(sol, seed=seed)
    if observed != expected:
        raise RuntimeError(
            f"classification {expected!r} contradicts the sampled "
            f"field behaviour {observed!r} ({diag})")
    return expected


# ---------------------------------------------------------------------------
# the full battery
# ---------------------------------------------------------------------------


def run_verification(sol: ExactSolution, grid=None, times=None,
                     tolerances=None, seed: int = DEFAULT_SEED) -> ResidualReport:
    """Run every applicable check and merge the verdicts into one report.

    The report carries the Richardson blocks of both residuals, under
    ``richardson`` (Euler) and ``richardson-linearized``.  Raises
    ``NonFiniteReportError`` (a ``ConstructionError``) naming the rows and
    block entries that are not finite, since such a report has no strict
    JSON form."""
    M = sol.manifold
    grid = _resolve_grid(grid, M.dim)
    times = _resolve_times(times, default_times(sol.omega))
    for name in default_tolerances(M.dim):  # reject a bad tolerance up front
        _resolve_tol(tolerances, name, M.dim)
    seed = _resolve_int("seed", seed, 0)

    # Fields that overflow make non-finite rows, reported once below as
    # NonFiniteReportError instead of as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eigen = check_eigen_relations(sol, grid=grid, tol=tolerances,
                                      seed=seed)
        euler, linear = _residuals(sol, grid, times, tolerances)
        energy = conservation_check(sol, grid=grid, tol=tolerances)
        constraint = constraint_check(sol, grid=grid, tol=tolerances,
                                      times=times)
        observed, stat_diag = _stationarity_probe(sol, seed=seed)

    checks = (list(eigen.checks) + list(euler.checks) + list(linear.checks)
              + list(energy.checks) + list(constraint.checks))
    tols = {}
    for rep in (eigen, euler, linear, energy, constraint):
        tols.update(rep.tolerances)

    tols["stationarity"] = _resolve_tol(tolerances, "stationarity", M.dim)
    checks.append(_check("stationarity",
                         float(observed != _expected_class(sol)), 1.0,
                         tols["stationarity"]))

    if M.name == "flat-torus":
        battery_tol = _resolve_tol(tolerances, "skew-adjoint-pair", M.dim)
        battery = skew_adjoint_battery(tol=battery_tol, seed=seed)
        checks.extend(battery.checks)
        tols.update(battery.tolerances)

    sp = sol.spectral
    spectral = {
        "alpha": sp.alpha,
        "zeta": sp.zeta,
        "lambda": sp.lam,
        "lambda-exact": _jsonable(sp.lam_exact),
        "omega": sp.omega,
        "omega-exact": _jsonable(sp.omega_exact),
        "classification": sp.classification,
        "classification-observed": observed,
        "static-change": stat_diag["static-change"],
        "carried-change": stat_diag["carried-change"],
    }
    blocks = {"spectral": spectral, "richardson": euler.richardson,
              "richardson-linearized": linear.richardson}
    bad = [c.name for c in checks
           if not np.isfinite([c.sup, c.mean, c.normalizer]).all()]
    bad += [f"{block}.{key}" for block, values in blocks.items()
            for key, value in values.items()
            if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise NonFiniteReportError(
            f"{sol.key}: non-finite report values in {', '.join(bad)}; "
            f"the fields overflow or are undefined at these parameters")
    return _report(sol, grid, times, tols, checks, spectral=spectral,
                   richardson=euler.richardson, seed=seed,
                   richardson_linearized=linear.richardson)
