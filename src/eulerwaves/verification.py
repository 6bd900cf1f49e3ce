"""Numerical certification of catalogue solutions.

Each check evaluates a residual that vanishes identically for an exact
solution, reports its sup and mean magnitude over deterministic sample sets,
and normalizes by the sup of the dominant constituent so tolerances are
scale-free.  A report is a plain data object with canonical JSON bytes:
identical configuration always produces identical bytes.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import geometry as geo
from .catalogue import ConstructionError, ExactSolution

__all__ = [
    "DEFAULT_SEED", "CheckResult", "ResidualReport", "NonFiniteReportError",
    "default_grid", "default_times", "default_tolerances",
    "check_eigen_relations", "euler_residual", "linearized_residual",
    "conservation_check", "constraint_check", "FourierStream",
    "skew_adjoint_quadrature", "skew_adjoint_battery",
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


def _resolve_tol(tol, name: str, dim: int) -> float:
    if isinstance(tol, dict):
        tol = tol.get(name)
    if tol is None:
        return default_tolerances(dim)[name]
    value = float(tol)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerance for {name!r} must be finite and >= 0, "
                         f"got {tol!r}")
    return value


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
    """Verdict container; ``to_json_bytes`` is the canonical serialization.

    ``wall_time`` is informational only and deliberately left out of the
    bytes so identical configurations serialize identically.
    """

    solution: str
    params: dict
    grid: tuple
    times: list
    seed: int
    tolerances: dict
    checks: list
    spectral: dict = field(default_factory=dict)
    richardson: dict = field(default_factory=dict)
    wall_time: float = 0.0
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
            wall: float = 0.0, richardson_linearized=None) -> ResidualReport:
    return ResidualReport(
        solution=sol.key, params=dict(sol.params), grid=tuple(grid),
        times=[float(t) for t in times], seed=int(seed),
        tolerances=dict(tolerances), checks=list(checks),
        spectral=spectral or {}, richardson=richardson or {}, wall_time=wall,
        richardson_linearized=richardson_linearized or {})


def _norms(M: geo.ChartedManifold, pts: np.ndarray,
           vals: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(M.norm_sq(pts, vals), 0.0))


def _thread_map(fn, items) -> list:
    """``[fn(x) for x in items]``, on EULER_WAVES_THREADS threads when that
    is set above one (unset or unparsable means serial)."""
    raw = os.environ.get("EULER_WAVES_THREADS", "")
    try:
        workers = max(int(raw), 0)
    except ValueError:
        workers = 0
    if workers > 1 and len(items) > 1:
        # each item runs in its own copy of the caller's context, so an
        # np.errstate around the call holds in the worker threads too
        contexts = [contextvars.copy_context() for _ in items]
        with ThreadPoolExecutor(max_workers=min(workers, len(items))) as ex:
            return list(ex.map(lambda ctx, x: ctx.run(fn, x), contexts,
                               items))
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# eigen relations
# ---------------------------------------------------------------------------


def check_eigen_relations(sol: ExactSolution, grid=None, tol=None,
                          seed: int = DEFAULT_SEED) -> ResidualReport:
    """Certify the three defining relations of the wave pair (v, w):

    inertia      A v = alpha v,  A w = alpha w
    advection    [u0, v] = -zeta w,  [u0, w] = zeta v
    coadjoint    [v, A u0] = lam A w = lam alpha w   (and the w counterpart)

    The coadjoint form is inverse-free: it is the defining identity composed
    with the inertia relation, so no elliptic solve is needed.
    """
    M = sol.manifold
    grid = tuple(grid) if grid is not None else default_grid(M.dim)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([M.interior_grid(grid), M.random_interior(200, rng)])
    sp = sol.spectral
    u0, v, w = sol.base_flow, sol.wave_re, sol.wave_im

    v_vals, w_vals = v(0.0, pts), w(0.0, pts)
    Av = geo.inertia_operator(M, v, 0.0, pts)
    Aw = geo.inertia_operator(M, w, 0.0, pts)
    adv_v = geo.lie_bracket(M, u0, v, 0.0, pts)
    adv_w = geo.lie_bracket(M, u0, w, 0.0, pts)
    coad_v = geo.lie_bracket(M, v, u0.inertia_image, 0.0, pts)
    coad_w = geo.lie_bracket(M, w, u0.inertia_image, 0.0, pts)

    la = sp.lam * sp.alpha
    relations = [
        ("eigen-inertia-v", Av, sp.alpha * v_vals),
        ("eigen-inertia-w", Aw, sp.alpha * w_vals),
        ("eigen-advection-v", adv_v, -sp.zeta * w_vals),
        ("eigen-advection-w", adv_w, sp.zeta * v_vals),
        ("eigen-coadjoint-v", coad_v, la * w_vals),
        ("eigen-coadjoint-w", coad_w, -la * v_vals),
    ]
    tols = {name: _resolve_tol(tol, name, M.dim) for name, _, _ in relations}
    checks = []
    for name, lhs, rhs in relations:
        norm = max(np.max(_norms(M, pts, lhs)), np.max(_norms(M, pts, rhs)))
        checks.append(_check(name, _norms(M, pts, lhs - rhs), norm,
                             tols[name]))
    return _report(sol, grid, [0.0], tols, checks, seed=seed)


# ---------------------------------------------------------------------------
# Euler and linearized residuals (one Euler-Arnold form, every dimension)
# ---------------------------------------------------------------------------


def _residual_check(M, times, tol_value, name, residual_at):
    """Shared sweep: residual at scale 1 plus a Richardson re-run at 1/2.

    With 4th-order stencils the sup must shrink by >= 8 under halving -- but
    only while truncation dominates rounding.  The nested evaluations divide
    rounding error by h^3 (streams, two spatial derivative layers on top of
    the stored scalar) or h^2 (curl form), so once the residual is within a
    generous multiple of eps * normalizer / h^depth the ratio is meaningless
    and is reported as null alongside the floor estimate that retired it.
    """
    results = _thread_map(lambda t: residual_at(t, 1.0), times)
    mags = np.concatenate([r[0] for r in results])
    normalizer = max(r[1] for r in results)
    halved = _thread_map(lambda t: residual_at(t, 0.5), times)
    sup_h = float(np.max(mags)) if mags.size else 0.0
    sup_h2 = float(max(np.max(r[0]) for r in halved))
    depth = 3 if M.dim == 2 else 2
    floor = (256.0 * np.finfo(float).eps * max(normalizer, 1.0)
             / min(M.fd_steps(0.5)) ** depth)
    ratio = sup_h / sup_h2 if sup_h2 > 0.0 else None
    if ratio is not None and ratio < 8.0 and sup_h2 <= floor:
        ratio = None
    richardson = {"sup-h": sup_h, "sup-half-h": sup_h2, "ratio": ratio,
                  "floor-estimate": floor}
    return _check(name, mags, normalizer, tol_value), richardson


def _residual(sol: ExactSolution, grid, times, tol, name: str,
              linearized: bool = False) -> ResidualReport:
    """The Euler-Arnold residual  d_t(A v) + B(u, A v)  of the velocity
    (v = u), or its linearization  d_t(A v) + B(u, A v) + B(v, A u)  along
    the solution, evaluated on the phase-shifted wave v.

    On surfaces A is the Laplace-Beltrami operator and B the Poisson bracket,
    acting on stream functions (vorticity form); in 3D A is the curl and B
    the Lie bracket, acting on velocities (curl form).  The time derivative
    is analytic; sup over grid x times, normalized by sup |A v|.
    """
    M = sol.manifold
    grid = tuple(grid) if grid is not None else default_grid(M.dim)
    times = list(times) if times is not None else default_times(sol.omega)
    tol_value = _resolve_tol(tol, name, M.dim)
    pts = M.interior_grid(grid)
    if M.dim == 2:
        A, B = geo.laplace_beltrami, geo.poisson_bracket
        u = sol.stream_total()
        v = sol.stream_linearized() if linearized else u
        v_dt = v.dt
        mag = np.abs
    else:
        A, B = geo.curl3, geo.lie_bracket
        u = sol.velocity
        v, v_dt = ((sol.linearized, sol.linearized_dt) if linearized
                   else (u, sol.velocity_dt))

        def mag(vals):
            return _norms(M, pts, vals)

    def residual_at(t, s):
        def image(f):
            return lambda tt, pp: A(M, f, tt, pp, h_scale=s)

        Av = image(v)
        r = A(M, v_dt, t, pts, h_scale=s) + B(M, u, Av, t, pts, h_scale=s)
        if linearized:
            r = r + B(M, v, image(u), t, pts, h_scale=s)
        return mag(r), float(np.max(mag(Av(t, pts))))

    start = time.perf_counter()
    check, richardson = _residual_check(M, times, tol_value, name,
                                        residual_at)
    return _report(sol, grid, times, {name: tol_value}, [check],
                   richardson=richardson, wall=time.perf_counter() - start)


def euler_residual(sol: ExactSolution, grid=None, times=None,
                   tol=None) -> ResidualReport:
    """Vorticity-form residual  d_t(lap psi) + {psi, lap psi}  on surfaces,
    curl-form residual  d_t(curl U) + [U, curl U]  in three dimensions."""
    return _residual(sol, grid, times, tol, "euler-residual")


def linearized_residual(sol: ExactSolution, grid=None, times=None,
                        tol=None) -> ResidualReport:
    """Residual of the Euler equations linearized along the solution,
    evaluated on the phase-shifted wave V = rho sin(.) v + rho cos(.) w."""
    return _residual(sol, grid, times, tol, "linearized-residual",
                     linearized=True)


# ---------------------------------------------------------------------------
# conservation and constraints
# ---------------------------------------------------------------------------


def conservation_check(sol: ExactSolution, grid=None, times=None,
                       tol=None) -> ResidualReport:
    """Kinetic energy constancy along the rotation period, plus a quadrature
    refinement cross-check so a pass cannot hide an under-resolved rule."""
    M = sol.manifold
    grid = tuple(grid) if grid is not None else default_grid(M.dim)
    period = sol.period or 2.0 * math.pi
    times = list(times) if times is not None else \
        [float(t) for t in np.linspace(0.0, period, 9)]
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
    grid = tuple(grid) if grid is not None else default_grid(M.dim)
    times = list(times) if times is not None else default_times(sol.omega)
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
    def random(cls, rng: np.random.Generator, n_modes: int = 4,
               kmax: int = 3) -> "FourierStream":
        modes = []
        seen = set()
        while len(modes) < n_modes:
            kx, ky = (int(z) for z in rng.integers(-kmax, kmax + 1, size=2))
            if (kx, ky) == (0, 0) or (kx, ky) in seen:
                continue
            seen.add((kx, ky))
            amp = complex(rng.normal(), rng.normal()) / math.sqrt(n_modes)
            modes.append((kx, ky, amp))
        return cls(modes=tuple(modes))

    def sums(self, pts: np.ndarray, orders) -> list:
        """The derivatives d_x^dx d_y^dy psi at ``pts``, one array per
        ``(dx, dy)`` in ``orders``, from one phase e^{i k.x} per mode."""
        x, y = pts[:, 0], pts[:, 1]
        outs = [np.zeros(pts.shape[0], dtype=complex) for _ in orders]
        for kx, ky, amp in self.modes:
            e = np.exp(1j * (kx * x + ky * y))
            for out, (dx, dy) in zip(outs, orders):
                out += amp * (1j * kx) ** dx * (1j * ky) ** dy * e
        return [out.real for out in outs]

    def value(self, pts):
        return self.sums(pts, [(0, 0)])[0]

    def inverse_laplace(self) -> "FourierStream":
        return FourierStream(modes=tuple(
            (kx, ky, amp / (kx * kx + ky * ky)) for kx, ky, amp in self.modes))

    def field_values(self, pts: np.ndarray) -> np.ndarray:
        """Skew gradient (psi_y, -psi_x): the divergence-free field of psi."""
        psi_y, psi_x = self.sums(pts, [(0, 1), (1, 0)])
        return np.stack([psi_y, -psi_x], axis=-1)

    def field_evaluator(self):
        return lambda t, pts: self.field_values(np.asarray(pts, dtype=float))


def _bracket_values(a: FourierStream, b: FourierStream,
                    pts: np.ndarray) -> np.ndarray:
    """Analytic commutator of the two skew-gradient fields: the skew gradient
    of the Poisson bracket  {a, b} = a_y b_x - a_x b_y."""
    orders = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    ax, ay, axx, axy, ayy = a.sums(pts, orders)
    bx, by, bxx, bxy, byy = b.sums(pts, orders)
    sigma_x = axy * bx + ay * bxx - axx * by - ax * bxy
    sigma_y = ayy * bx + ay * bxy - axy * by - ax * byy
    return np.stack([sigma_y, -sigma_x], axis=-1)


def _torus_quad_nodes(n: int) -> np.ndarray:
    x = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    mx, my = np.meshgrid(x, x, indexing="ij")
    return np.stack([mx.ravel(), my.ravel()], axis=-1)


def _torus_inner(u_vals: np.ndarray, v_vals: np.ndarray) -> float:
    # flat metric; the cell area factor (2 pi / n)^2 times the sum equals
    # (2 pi)^2 times the mean
    return float(np.mean(np.einsum("ni,ni->n", u_vals, v_vals))
                 * (2.0 * math.pi) ** 2)


def _pair_identity(ainv: np.ndarray, br: np.ndarray) -> float:
    """Normalized |<A^-1 u, [v, u]>| by quadrature, from the node values
    ``ainv`` of A^-1 u and ``br`` of [v, u]."""
    value = abs(_torus_inner(ainv, br))
    norm = (math.sqrt(_torus_inner(ainv, ainv))
            * math.sqrt(_torus_inner(br, br)))
    return value / (norm if norm > _FLOOR else 1.0)


def skew_adjoint_quadrature(u: FourierStream, v: FourierStream,
                            tol: float = 1e-8, n: int = 64,
                            seed: int = DEFAULT_SEED) -> ResidualReport:
    """Single-pair version of the bi-invariance identity <A^-1 u, [v, u]> = 0
    for divergence-free Fourier fields on the flat torus."""
    if not isinstance(u, FourierStream) or not isinstance(v, FourierStream):
        raise TypeError("skew_adjoint_quadrature needs FourierStream inputs")
    nodes = _torus_quad_nodes(n)
    value = _pair_identity(u.inverse_laplace().field_values(nodes),
                           _bracket_values(v, u, nodes))
    check = _check("skew-adjoint-pair", [value], 1.0, tol)
    return ResidualReport(
        solution="flat-torus-identity",
        params={"modes-u": [[kx, ky, amp.real, amp.imag]
                            for kx, ky, amp in u.modes],
                "modes-v": [[kx, ky, amp.real, amp.imag]
                            for kx, ky, amp in v.modes]},
        grid=(n, n), times=[0.0], seed=int(seed),
        tolerances={"skew-adjoint-pair": float(tol)}, checks=[check])


def skew_adjoint_battery(pairs: int = 20, tol: float = 1e-8, n: int = 64,
                         seed: int = DEFAULT_SEED) -> ResidualReport:
    """Randomized battery: the pair identity plus its polarized (bilinear)
    form  <A^-1 u, [v, w]> + <A^-1 w, [v, u]> = 0."""
    rng = np.random.default_rng(seed)
    nodes = _torus_quad_nodes(n)
    pair_vals, polar_vals = [], []
    for _ in range(pairs):
        u = FourierStream.random(rng)
        v = FourierStream.random(rng)
        w = FourierStream.random(rng)
        ainv_u = u.inverse_laplace().field_values(nodes)
        ainv_w = w.inverse_laplace().field_values(nodes)
        br_vw = _bracket_values(v, w, nodes)
        br_vu = _bracket_values(v, u, nodes)
        pair_vals.append(_pair_identity(ainv_u, br_vu))
        value = abs(_torus_inner(ainv_u, br_vw) + _torus_inner(ainv_w, br_vu))
        norm = (math.sqrt(_torus_inner(ainv_u, ainv_u))
                * math.sqrt(_torus_inner(br_vw, br_vw))
                + math.sqrt(_torus_inner(ainv_w, ainv_w))
                * math.sqrt(_torus_inner(br_vu, br_vu)))
        polar_vals.append(value / (norm if norm > _FLOOR else 1.0))

    checks = [_check("skew-adjoint-pair", pair_vals, 1.0, tol),
              _check("skew-adjoint-polarized", polar_vals, 1.0, tol)]
    return ResidualReport(
        solution="flat-torus-identity", params={"pairs": int(pairs)},
        grid=(n, n), times=[0.0], seed=int(seed),
        tolerances={"skew-adjoint-pair": float(tol),
                    "skew-adjoint-polarized": float(tol)}, checks=checks)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def _stationarity_probe(sol: ExactSolution, probe_time: float = 0.9,
                        tol: float = 1e-8,
                        seed: int = DEFAULT_SEED) -> tuple:
    """Numerical classification by comparing U at two times, in the fixed
    frame and in the frame carried by the base rotation (whose chart action
    is a translation along the periodic angles, so components transport
    unchanged)."""
    M = sol.manifold
    rng = np.random.default_rng(seed)
    pts = M.random_interior(128, rng)
    u_now = sol.velocity(0.0, pts)
    scale = float(np.max(_norms(M, pts, u_now)))
    scale = scale if scale > _FLOOR else 1.0
    u_later = sol.velocity(probe_time, pts)
    s_static = float(np.max(_norms(M, pts, u_later - u_now))) / scale
    carry = sol.base_flow(0.0, pts[:1])[0]
    u_carried = sol.velocity(probe_time, pts + probe_time * carry)
    s_frame = float(np.max(_norms(M, pts, u_carried - u_now))) / scale
    if s_static < tol:
        observed = "stationary"
    elif s_frame < tol:
        observed = "moving-frame-trivial"
    else:
        observed = "genuine"
    return observed, {"static-change": s_static, "carried-change": s_frame}


def stationarity_classifier(sol: ExactSolution, probe_time: float = 0.9,
                            seed: int = DEFAULT_SEED) -> str:
    """Classification from (lam, zeta), cross-checked against the sampled
    time dependence of the velocity field."""
    declared = sol.spectral.classification
    observed, diag = _stationarity_probe(sol, probe_time, seed=seed)
    if observed != declared:
        raise RuntimeError(
            f"spectral classification {declared!r} contradicts the sampled "
            f"field behaviour {observed!r} ({diag})")
    return declared


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
    grid = tuple(grid) if grid is not None else default_grid(M.dim)
    times = list(times) if times is not None else default_times(sol.omega)
    for name in default_tolerances(M.dim):  # reject a bad tolerance up front
        _resolve_tol(tolerances, name, M.dim)
    start = time.perf_counter()

    # Fields that overflow make non-finite rows, reported once below as
    # NonFiniteReportError instead of as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eigen = check_eigen_relations(sol, grid=grid, tol=tolerances,
                                      seed=seed)
        euler = euler_residual(sol, grid=grid, times=times, tol=tolerances)
        linear = linearized_residual(sol, grid=grid, times=times,
                                     tol=tolerances)
        energy = conservation_check(sol, grid=grid, tol=tolerances)
        constraint = constraint_check(sol, grid=grid, tol=tolerances,
                                      times=times)
        observed, stat_diag = _stationarity_probe(sol, seed=seed)

    checks = (list(eigen.checks) + list(euler.checks) + list(linear.checks)
              + list(energy.checks) + list(constraint.checks))
    tols = {}
    for rep in (eigen, euler, linear, energy, constraint):
        tols.update(rep.tolerances)

    declared = sol.spectral.classification
    tols["stationarity"] = _resolve_tol(tolerances, "stationarity", M.dim)
    checks.append(_check("stationarity", float(observed != declared), 1.0,
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
        "classification": declared,
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
                   wall=time.perf_counter() - start,
                   richardson_linearized=linear.richardson)
