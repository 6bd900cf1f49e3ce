"""Catalogue of explicit time-periodic solutions of the Euler equations.

Every entry follows the same recipe: a steady base flow ``u0`` whose inertia
image is a multiple of a rotation field, plus a complex eigenfield ``z`` of
the inertia operator (the Hodge Laplacian on surfaces, the curl in three
dimensions) that also diagonalises advection by ``u0``.  The velocity

    U(t) = u0 + Re(rho * exp(i (sigma + omega t)) * z)

solves the Euler equations exactly for one specific frequency ``omega``,
recorded per entry together with the spectral data that produced it.  The
phase-shifted wave

    V(t) = Im(rho * exp(i (sigma + omega t)) * z)

solves the Euler equations linearised along ``U``.  Each entry stores ``z``
once, as the complex evaluator ``wave`` (and, on surfaces, its complex stream
function ``psi_wave``); every real field above is derived from it, and no
separate real and imaginary part is built.  Both are a coefficient profile
of the one bounded chart coordinate times a Fourier phase e^{i k.x} of the
periodic ones, built by ``_separable``.

Each entry is stated once, as data: the integer chart components of u0 and
of its inertia image A u0, the wave's integer wavenumbers k, the inertia
eigenvalue alpha and the coefficient profile (on surfaces also the stream
profile and the base stream psi0).  The rest is derived by one rule
(``_spectral``): u0 and A u0 act on e^{i k.x} by multiplication, so
zeta is u0.k and lam is (A u0.k) / alpha.

Constructors return :class:`ExactSolution`; :data:`CATALOGUE` maps the public
entry keys onto them.  Each entry's default parameters are its builder's
keyword defaults, read from the builder's signature once, at import.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from . import solvers
from . import specfun as sf
from .fields import _as_points, constant_field
from .rootfind import _as_int

__all__ = [
    "ConstructionError", "SpectralData", "ExactSolution", "CatalogueEntry",
    "kelvin_torus", "kelvin_disk", "rossby_sphere", "kelvin_hyperbolic",
    "rossby_s3", "ck_cylinder", "twisted_annulus",
    "embed_s3_to_r4", "CATALOGUE", "catalogue_keys", "build",
]

_STATIONARY_TOL = 1e-12


class ConstructionError(ValueError):
    """Raised when a catalogue entry cannot be built from the parameters."""


# ---------------------------------------------------------------------------
# spectral data and the assembled solution object
# ---------------------------------------------------------------------------


@dataclass
class SpectralData:
    """Eigenvalue data of the wave: inertia eigenvalue ``alpha``, advection
    frequency ``zeta`` ([u0, z] = i zeta z), coadjoint frequency ``lam``
    ([z, A u0] = -i lam A z), rotation frequency ``omega = lam - zeta``.

    ``lam_exact`` / ``omega_exact`` carry exact rational values whenever the
    entry admits them (they are ``None`` for numerically determined spectra).
    """

    alpha: float
    zeta: float
    lam: float
    omega: float
    lam_exact: Optional[Fraction] = None
    omega_exact: Optional[Fraction] = None
    classification: str = "genuine"


def _classify(zeta_int: int, lam: float, lam_exact: Optional[Fraction]) -> str:
    """Stationarity class: ``lam == zeta`` means the wave co-rotates with the
    base flow (stationary velocity field); ``lam == 0`` means the solution is
    steady in the frame rotating with speed ``-zeta``."""
    if lam_exact is not None:
        if lam_exact == zeta_int:
            return "stationary"
        if lam_exact == 0:
            return "moving-frame-trivial"
        return "genuine"
    if abs(lam - zeta_int) < _STATIONARY_TOL:
        return "stationary"
    if abs(lam) < _STATIONARY_TOL:
        return "moving-frame-trivial"
    return "genuine"


def _spectral(alpha, u0, Au0, k) -> SpectralData:
    """The spectral data of a wave with wavenumbers ``k`` riding the Killing
    field with chart components ``u0`` and inertia image ``Au0``.

    Both translate the periodic axes, so on the phase e^{i k.x} the brackets
    are multiplication: [u0, z] = i (u0.k) z and [z, A u0] = -i (A u0.k) z.
    ``lam_exact`` is a ``Fraction`` when alpha is an int or A u0.k = 0.
    """
    zeta = sum(a * b for a, b in zip(u0, k))
    coriolis = sum(a * b for a, b in zip(Au0, k))
    lam = coriolis / alpha
    if isinstance(alpha, int):
        lam_exact = Fraction(coriolis, alpha)
    else:
        lam_exact = Fraction(0) if coriolis == 0 else None
    omega = lam - zeta
    omega_exact = None if lam_exact is None else lam_exact - zeta
    return SpectralData(
        alpha=float(alpha), zeta=float(zeta), lam=float(lam),
        omega=float(omega), lam_exact=lam_exact, omega_exact=omega_exact,
        classification=_classify(zeta, lam, lam_exact),
    )


@dataclass
class ExactSolution:
    """A catalogue solution: base flow, complex eigenfield and spectral data.

    Every field is a plain callable ``(t, pts) -> array`` on an (N, dim)
    batch of chart points.  ``base_flow`` is the Killing field u0 with
    constant chart components and ``base_image`` its inertia image A u0.
    ``wave(t, pts)`` evaluates the complex eigenfield ``z`` as an (N, dim)
    complex array.  On surfaces the stream functions ``psi_base`` (of u0)
    and ``psi_wave`` (the complex stream of ``z``, shape (N,)) are carried
    along so vorticity-form residuals can be evaluated without inverting
    the inertia operator.  Every real field of the solution is one
    ``_rotate`` of ``wave`` or ``psi_wave``: no re/im pair of ``z`` is kept.
    """

    key: str
    params: dict
    manifold: geo.ChartedManifold
    base_flow: Callable[[float, np.ndarray], np.ndarray]
    base_image: Callable[[float, np.ndarray], np.ndarray]
    wave: Callable[[float, np.ndarray], np.ndarray]
    spectral: SpectralData
    rho: float = 1.0
    sigma: float = 0.0
    psi_base: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    psi_wave: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.sigma)):
            raise ConstructionError(
                f"{self.key} needs a finite amplitude rho and phase sigma, "
                f"got rho={self.rho!r}, sigma={self.sigma!r}")
        # sigma modulo 2 pi, into [-pi, pi]: exact, and the identity on
        # |sigma| <= pi; a sigma of 1e16 would otherwise swallow omega t
        # whole in phase().  Done once here, not on every field call.
        self.sigma = math.remainder(self.sigma, 2.0 * math.pi)

    # -- basic descriptors ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def omega(self) -> float:
        return self.spectral.omega

    @property
    def period(self) -> Optional[float]:
        """Time period of the rotating wave (None when stationary)."""
        if self.spectral.omega == 0.0:
            return None
        return 2.0 * math.pi / abs(self.spectral.omega)

    def phase(self, t: float) -> float:
        return self.sigma + self.spectral.omega * float(t)

    # -- the solution and its linearisation ----------------------------------

    def _rotate(self, z, t: float, pts, base=None,
                linearized: bool = False) -> np.ndarray:
        """``base + Re(c * rho * e^{i phase(t)} * z(t, pts))`` with c = 1, or
        c = -i for the linearised wave.

        The coefficient pair (a, b) of the complex prefactor is
        ``rho * (cos, sin)`` of the phase, turned by a swap and a negation
        (exact) for c = -i.  Summed as ``base + a Re z - b Im z``, the result
        equals the written-out real form bit for bit, which keeps report
        bytes stable.
        """
        ph = self.phase(t)
        a, b = self.rho * np.cos(ph), self.rho * np.sin(ph)
        if linearized:
            a, b = b, -a
        pts = _as_points(pts, self.dim)
        zv = z(t, pts)
        if base is None:
            return a * zv.real - b * zv.imag
        return base(t, pts) + a * zv.real - b * zv.imag

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, base=self.base_flow)

    def linearized(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, linearized=True)

    # -- falsification helper -------------------------------------------------

    def perturbed(self, omega_factor: float) -> "ExactSolution":
        """Copy with the rotation frequency scaled by ``omega_factor``.

        The copy is *not* an Euler solution (unless the factor is one); it is
        used to confirm that the residual checks actually reject wrong
        frequencies instead of passing vacuously.
        """
        sp = replace(self.spectral,
                     omega=self.spectral.omega * float(omega_factor),
                     omega_exact=None)
        meta = dict(self.metadata)
        meta["omega-scale"] = float(omega_factor)
        return replace(self, spectral=sp, metadata=meta)


# ---------------------------------------------------------------------------
# shared small helpers
# ---------------------------------------------------------------------------


def _check_int(name: str, value) -> int:
    try:
        return _as_int(name, value)
    except ValueError as exc:
        raise ConstructionError(str(exc)) from None


def _on_distinct(profile, x):
    """``profile(x)`` for an elementwise ``profile`` of a 1D coordinate array,
    evaluated once per run of equal consecutive values and expanded back.

    Tensor grids and the FD stencils built on them repeat each value of the
    slowest chart axis in one run, so a radial profile on 576 or 1728 points
    sees 24 or 12 values.  ``geometry.fd_partial`` stacks its four shifted
    copies of a grid into one batch; each block is a shifted copy of a
    run-ordered grid, so the batch still comes in runs, at most four times
    as many.  A batch whose first two values differ (random
    points, a tracer ensemble, a grid whose bounded axis is the fast one)
    goes to ``profile`` whole, without a scan for runs.  The result comes
    back bit-identical to ``profile(x)``.
    """
    if x.size < 2 or x[0] != x[1]:
        return profile(x)
    bound = np.empty(x.size + 1, dtype=bool)
    bound[0] = bound[-1] = True
    np.not_equal(x[1:], x[:-1], out=bound[1:-1])
    edges = bound.nonzero()[0]  # the start of each run, then x.size
    return profile(x[edges[:-1]]).repeat(edges[1:] - edges[:-1], axis=0)


def _separable(M: geo.ChartedManifold, k, profile):
    """The evaluator ``(t, pts) -> profile(x_b) * e^{i k.x}`` of a catalogue
    eigenfield.

    The base rotation translates the periodic axes and the metric depends on
    the one bounded axis x_b only, so every wave and wave stream separates.
    ``k`` holds one integer wavenumber per chart axis (0 on the bounded axis);
    ``profile`` maps an array of x_b values to their complex coefficients,
    shape (n,) for a stream or (n, dim) for a field, and runs once per
    distinct x_b.  On a chart with no bounded axis ``profile`` is the
    constant coefficient itself: a scalar, or a (1, dim) row for a field.
    """
    bounded = [a for a in range(M.dim) if not M.periodic[a]]
    (a0, k0), *rest = [(a, float(k[a])) for a in range(M.dim)
                       if M.periodic[a]]

    def evaluate(t, pts):
        arg = k0 * pts[:, a0]
        for a, ka in rest:
            arg = arg + ka * pts[:, a]
        phase = np.exp(1j * arg)
        coef = _on_distinct(profile, pts[:, bounded[0]]) if bounded else profile
        return coef * (phase[:, None] if np.ndim(coef) == 2 else phase)

    return evaluate


def _assemble(key: str, M: geo.ChartedManifold, params: dict, rho, sigma, *,
              alpha, u0, Au0, k, profile, stream=None, psi0=None,
              metadata=None) -> ExactSolution:
    """The solution of one catalogue entry from its data (see the module
    docstring); ``params`` are its parameters before ``rho`` and ``sigma``."""
    return ExactSolution(
        key=key, params={**params, "rho": rho, "sigma": sigma}, manifold=M,
        base_flow=constant_field(u0), base_image=constant_field(Au0),
        wave=_separable(M, k, profile), spectral=_spectral(alpha, u0, Au0, k),
        rho=float(rho), sigma=float(sigma), psi_base=psi0,
        psi_wave=None if stream is None else _separable(M, k, stream),
        metadata=metadata or {},
    )


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------


def kelvin_torus(n: int = 1, m: int = 2,
                 rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Travelling plane wave riding the unit shear flow on the flat torus.

    Base flow d_x (stream y); wave stream cos(n x + m y), an eigenfunction of
    the Laplacian with eigenvalue alpha = n^2 + m^2.  The coadjoint frequency
    vanishes, so omega = -n and the wave simply advects with unit speed.
    """
    n = _check_int("n", n)
    m = _check_int("m", m)
    if n == 0 and m == 0:
        raise ConstructionError("kelvin-torus needs (n, m) != (0, 0)")
    return _assemble(
        "kelvin-torus", geo.flat_torus(), {"n": n, "m": m}, rho, sigma,
        alpha=n * n + m * m, u0=(1, 0), Au0=(0, 0), k=(n, m),
        profile=np.array([[1j * m, -1j * n]]), stream=1.0,
        psi0=lambda t, p: p[:, 1].copy())


# ---------------------------------------------------------------------------
# flat disk
# ---------------------------------------------------------------------------


def kelvin_disk(n: int = 1, m: int = 1,
                rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Bessel mode rotating inside rigid rotation on the unit disk.

    Base flow d_theta (stream -r^2/2); wave stream J_|n|(beta r) e^{i n theta}
    with beta the m-th positive zero of J_|n|, so the wave vanishes normal to
    the wall and alpha = beta^2.
    """
    n = _check_int("n", n)
    m = _check_int("m", m)
    if m < 1:
        raise ConstructionError("kelvin-disk needs a radial index m >= 1")
    nu = abs(n)
    beta = sf.bessel_j_zero(nu, m)

    def z_profile(r):
        J, Jp = sf.bessel_j(nu, beta * r), sf.bessel_j_prime(nu, beta * r)
        return np.stack([(1j * n / r) * J, -(beta / r) * Jp], axis=-1)

    return _assemble(
        "kelvin-disk", geo.flat_disk(), {"n": n, "m": m}, rho, sigma,
        alpha=beta ** 2, u0=(0, 1), Au0=(0, 0), k=(0, n), profile=z_profile,
        stream=lambda r: sf.bessel_j(nu, beta * r),
        psi0=lambda t, p: -0.5 * p[:, 0] ** 2,
        metadata={"beta": float(beta)})


# ---------------------------------------------------------------------------
# round sphere
# ---------------------------------------------------------------------------


def rossby_sphere(n: int = 1, m: int = 2,
                  rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Spherical-harmonic wave drifting through solid-body rotation.

    Base flow d_theta (stream -cos phi, phi the colatitude); wave stream
    P_m^|n|(cos phi) e^{i n theta}, eigenvalue alpha = m (m + 1).  The
    coadjoint frequency is the exact rational 2 n / (m (m + 1)), giving the
    classical westward drift omega = 2 n / (m (m + 1)) - n.
    """
    n = _check_int("n", n)
    m = _check_int("m", m)
    if m < 1:
        raise ConstructionError("rossby-sphere needs a degree m >= 1")
    if abs(n) > m:
        raise ConstructionError("rossby-sphere needs |n| <= m")
    nu = abs(n)

    def z_profile(phi):
        P, dP = sf.assoc_legendre(m, nu, np.cos(phi), derivative=True)
        return np.stack([-dP, (-1j * n / np.sin(phi)) * P], axis=-1)

    return _assemble(
        "rossby-sphere", geo.round_sphere(), {"n": n, "m": m}, rho, sigma,
        alpha=m * (m + 1), u0=(1, 0), Au0=(2, 0), k=(n, 0), profile=z_profile,
        stream=lambda phi: sf.assoc_legendre(m, nu, np.cos(phi)),
        psi0=lambda t, p: -np.cos(p[:, 1]))


# ---------------------------------------------------------------------------
# hyperbolic disk
# ---------------------------------------------------------------------------


def kelvin_hyperbolic(n: int = 1, m: int = 1, r_max: float = 1.0,
                      rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Rotating wave in a geodesic disk of the hyperbolic plane.

    Base flow d_theta (stream -cosh r); the wave stream is R(r) e^{i n theta}
    where R is the m-th radial Dirichlet mode, with Laplace eigenvalue
    E = 1/4 + beta^2 > 0.  Here the coadjoint frequency -2 n / E is spectrum-
    dependent, so generic (n, m) give genuinely unsteady solutions.
    """
    n = _check_int("n", n)
    m = _check_int("m", m)
    if m < 1:
        raise ConstructionError("kelvin-hyperbolic needs a radial index m >= 1")
    try:
        mode = sf.hyperbolic_radial_mode(abs(n), m, r_max=float(r_max))
    except (solvers.SolverError, ValueError) as exc:
        raise ConstructionError(str(exc)) from exc

    def z_profile(r):
        s = np.sinh(r)
        return np.stack([(1j * n / s) * mode.value(r),
                         -(mode.derivative(r) / s)], axis=-1)

    return _assemble(
        "kelvin-hyperbolic", geo.hyperbolic_disk(r_max=float(r_max)),
        {"n": n, "m": m, "r_max": float(r_max)}, rho, sigma,
        alpha=mode.eigenvalue, u0=(0, 1), Au0=(0, -2), k=(0, n),
        profile=z_profile, stream=mode.value,
        psi0=lambda t, p: -np.cosh(p[:, 0]),
        metadata={"beta": float(mode.beta),
                  "boundary-residual": float(mode.boundary_residual)})


# ---------------------------------------------------------------------------
# round three-sphere
# ---------------------------------------------------------------------------


def _s3_curl_profile(j: int, k: int, d: int, alpha: int,
                     scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficient profile in chi of the curl eigenfield on the 3-sphere built
    from the Hopf-harmonic f = cos^|j| sin^|k| * Jacobi_d(cos 2 chi) *
    e^{i(j theta + k phi)}, in the orthonormal frame adapted to the two Hopf
    rotations; the field is this profile times e^{i(j theta + k phi)}."""
    p, q = abs(j), abs(k)
    n = j + k

    def profile(chi):
        cos2x = np.cos(2.0 * chi)
        cosx, sinx = np.cos(chi), np.sin(chi)
        J = sf.jacobi_poly(d, q, p, cos2x)
        dJ = sf.jacobi_poly_deriv(d, q, p, cos2x)
        C = cosx ** p * sinx ** q * J
        dpow = np.zeros_like(chi)
        if p:
            dpow -= p * cosx ** (p - 1) * sinx ** (q + 1)
        if q:
            dpow += q * cosx ** (p + 1) * sinx ** (q - 1)
        dC = dpow * J + cosx ** p * sinx ** q * dJ * (-2.0 * np.sin(2.0 * chi))
        tanx = np.tan(chi)
        cotx = 1.0 / tanx
        e2 = 1j * (j * tanx - k * cotx) * C
        e3 = 1j * n * C
        c1 = alpha * e2 + 1j * n * dC
        c2 = -alpha * dC + 1j * n * e2
        c3 = alpha * alpha * C + 1j * n * e3
        return scale * np.stack(
            [c1, c2 * tanx + c3, -c2 * cotx + c3], axis=-1)

    return profile


def rossby_s3(j: int = 1, k: int = 0, d: int = 0, sign: str = "-",
              rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Rotating wave on the round 3-sphere in Hopf coordinates.

    Base flow X = d_theta + d_phi (curl X = -2 X); the wave is a curl
    eigenfield built from the harmonic with Hopf charges (j, k) and meridional
    index d, curl eigenvalue l = |j| + |k| + 2 d on the ``+`` ladder or
    -(l + 2) on the ``-`` ladder.  Both frequencies are exact rationals:
    advection j + k and coadjoint -2 (j + k) / alpha.
    """
    j = _check_int("j", j)
    k = _check_int("k", k)
    d = _check_int("d", d)
    if d < 0:
        raise ConstructionError("rossby-s3 needs d >= 0")
    if sign not in ("+", "-"):
        raise ConstructionError("rossby-s3 sign must be '+' or '-'")
    ell = abs(j) + abs(k) + 2 * d
    alpha = ell if sign == "+" else -(ell + 2)
    if alpha == 0:
        raise ConstructionError(
            "rossby-s3 with (j, k, d, sign) = (0, 0, 0, '+') is degenerate")

    # Normalisation chosen so the lowest '-' entries match their displayed
    # closed forms; every other combination is left with unit scale.
    scale = 1.0
    if sign == "-" and d == 0 and j >= 0 and k >= 0 and (j, k) != (0, 0):
        scale = 1.0 / (2.0 * (j + k + 1.0))

    sol = _assemble(
        "rossby-s3", geo.three_sphere(), {"j": j, "k": k, "d": d, "sign": sign},
        rho, sigma, alpha=alpha, u0=(0, 1, 1), Au0=(0, -2, -2), k=(0, j, k),
        profile=_s3_curl_profile(j, k, d, alpha, scale),
        metadata={"ell": ell, "scale": scale})
    probe = sol.manifold.interior_grid((5, 4, 4))
    if np.max(np.abs(sol.wave(0.0, probe))) <= 1e-10 * max(1.0, alpha * alpha):
        raise ConstructionError(
            f"(j, k, d, sign) = ({j}, {k}, {d}, {sign!r}) gives the zero "
            "eigenfield; take the other curl ladder")
    return sol


def embed_s3_to_r4(solution: ExactSolution) -> Callable[[float, np.ndarray], np.ndarray]:
    """Push a 3-sphere solution forward to ambient R^4 vectors.

    Returns ``U(t, x)`` taking unit vectors x in R^4 (shape (N, 4)) to the
    velocity as a tangent vector of the unit sphere |x| = 1, using the
    standard embedding x = (cos chi cos theta, cos chi sin theta,
    sin chi cos phi, sin chi sin phi).
    """
    if solution.manifold.name != "three-sphere":
        raise ValueError("embed_s3_to_r4 expects a three-sphere solution")

    def velocity(t, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x = np.atleast_2d(x)
        x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        rho1 = np.hypot(x1, x2)
        rho2 = np.hypot(x3, x4)
        pts = np.stack([np.arctan2(rho2, rho1),
                        np.arctan2(x2, x1),
                        np.arctan2(x4, x3)], axis=-1)
        comp = solution.velocity(t, pts)
        sin_chi, cos_chi = rho2, rho1
        cos_th = np.where(rho1 > 0, x1 / np.where(rho1 > 0, rho1, 1.0), 1.0)
        sin_th = np.where(rho1 > 0, x2 / np.where(rho1 > 0, rho1, 1.0), 0.0)
        cos_ph = np.where(rho2 > 0, x3 / np.where(rho2 > 0, rho2, 1.0), 1.0)
        sin_ph = np.where(rho2 > 0, x4 / np.where(rho2 > 0, rho2, 1.0), 0.0)
        e_chi = np.stack([-sin_chi * cos_th, -sin_chi * sin_th,
                          cos_chi * cos_ph, cos_chi * sin_ph], axis=-1)
        e_th = np.stack([-x2, x1, np.zeros_like(x1), np.zeros_like(x1)],
                        axis=-1)
        e_ph = np.stack([np.zeros_like(x1), np.zeros_like(x1), -x4, x3],
                        axis=-1)
        out = (comp[:, 0:1] * e_chi + comp[:, 1:2] * e_th
               + comp[:, 2:3] * e_ph)
        return out[0] if squeeze else out

    return velocity


# ---------------------------------------------------------------------------
# solid cylinder
# ---------------------------------------------------------------------------


def ck_cylinder(n: int = 1, m: int = 1, branch: int = 1,
                rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Helical Bessel wave in the rotating solid cylinder.

    Base flow d_theta (curl = 2 d_z); the wave is a curl eigenfield with
    angular/axial wavenumbers (n, m) whose radial profile is J_n(beta r),
    with (beta, alpha) on the chosen branch of the wall-tangency dispersion
    relation m beta J_n'(beta) + n alpha J_n(beta) = 0, alpha^2 = beta^2 + m^2.
    """
    n = _check_int("n", n)
    m = _check_int("m", m)
    branch = _check_int("branch", branch)
    if n == 0 and m == 0:
        raise ConstructionError("ck-cylinder needs (n, m) != (0, 0)")
    if branch < 1:
        raise ConstructionError("ck-cylinder needs branch >= 1")
    beta, alpha = solvers.ck_dispersion_root(n, m, branch)

    def z_profile(r):
        J, Jp = sf.bessel_j(n, beta * r), sf.bessel_j_prime(n, beta * r)
        g = beta * alpha * r * Jp + n * m * J
        return np.stack([-1j * (m * beta * Jp + (n * alpha / r) * J),
                         g / r ** 2, -(beta ** 2) * J], axis=-1)

    return _assemble(
        "ck-cylinder", geo.solid_cylinder(),
        {"n": n, "m": m, "branch": branch}, rho, sigma, alpha=alpha,
        u0=(0, 1, 0), Au0=(0, 0, 2), k=(0, n, m), profile=z_profile,
        metadata={"beta": float(beta)})


# ---------------------------------------------------------------------------
# twisted annulus
# ---------------------------------------------------------------------------


def twisted_annulus(m: int = 1, n: int = 0, c: float = -0.3,
                    r_lo: float = 2.0 * math.pi / 3.0,
                    r_hi: float = 2.0 * math.pi,
                    branch: int = 1,
                    rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Curl-eigenmode wave in the twisted product of an annulus and a circle.

    The metric couples the angular and axial circles through the constant
    ``c``; for c != 0 the geometry is not a metric product and the mode
    profile comes from the two-point boundary solver rather than from Bessel
    functions.  The wave is tangent to both walls by construction.
    """
    m = _check_int("m", m)
    n = _check_int("n", n)
    branch = _check_int("branch", branch)
    if n == 0 and m == 0:
        raise ConstructionError("twisted-annulus needs (n, m) != (0, 0)")
    if branch < 1:
        raise ConstructionError("twisted-annulus needs branch >= 1")
    if not (0.0 < r_lo < r_hi):
        raise ConstructionError("twisted-annulus needs 0 < r_lo < r_hi")
    c = float(c)
    try:
        mode = solvers.solve_cmetric_mode(c, r_lo, r_hi, n, m, branch=branch)
    except (solvers.SolverError, ValueError) as exc:
        raise ConstructionError(str(exc)) from exc
    alpha = mode.alpha

    def z_profile(r):
        g, h = mode.g(r), mode.h(r)
        f = (n * h - (m - c * n / r ** 2) * g) / (alpha * r)
        return np.stack([1j * f, g / r ** 2 - c * h / r ** 2, h], axis=-1)

    ksq = alpha ** 2 - m ** 2
    nusq = 1.0 + 2.0 * alpha * c
    meta = {
        "boundary-residual": float(mode.boundary_residual),
        "k": float(np.sqrt(ksq)) if ksq >= 0 else None,
        "nu": float(np.sqrt(nusq)) if nusq >= 0 else None,
    }
    return _assemble(
        "twisted-annulus", geo.cmetric_chart(c, r_lo, r_hi),
        {"m": m, "n": n, "c": c, "r_lo": float(r_lo), "r_hi": float(r_hi),
         "branch": branch}, rho, sigma, alpha=alpha,
        u0=(0, 1, 0), Au0=(0, 0, 2), k=(0, n, m), profile=z_profile,
        metadata=meta)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogueEntry:
    """A public entry; ``defaults`` are its builder's keyword defaults."""

    key: str
    builder: Callable[..., ExactSolution]
    dim: int
    summary: str
    defaults: dict = field(init=False)

    def __post_init__(self):
        params = inspect.signature(self.builder).parameters
        object.__setattr__(self, "defaults",
                           {name: p.default for name, p in params.items()})


CATALOGUE: dict[str, CatalogueEntry] = {
    e.key: e for e in [
        CatalogueEntry(
            key="kelvin-torus", builder=kelvin_torus, dim=2,
            summary="travelling plane wave on a sheared flat torus"),
        CatalogueEntry(
            key="kelvin-disk", builder=kelvin_disk, dim=2,
            summary="rotating Bessel mode inside rigid rotation on the disk"),
        CatalogueEntry(
            key="rossby-sphere", builder=rossby_sphere, dim=2,
            summary="Rossby-Haurwitz waves on the round two-sphere"),
        CatalogueEntry(
            key="kelvin-hyperbolic", builder=kelvin_hyperbolic, dim=2,
            summary="rotating wave in a geodesic disk of the hyperbolic plane"),
        CatalogueEntry(
            key="rossby-s3", builder=rossby_s3, dim=3,
            summary="Hopf-harmonic rotating wave on the round 3-sphere"),
        CatalogueEntry(
            key="ck-cylinder", builder=ck_cylinder, dim=3,
            summary="helical Bessel wave in the rotating solid cylinder"),
        CatalogueEntry(
            key="twisted-annulus", builder=twisted_annulus, dim=3,
            summary="curl eigenmode wave on a twisted annulus-circle product"),
    ]
}


def catalogue_keys() -> list[str]:
    """Sorted list of public catalogue keys."""
    return sorted(CATALOGUE)


def build(key: str, **params) -> ExactSolution:
    """Construct a catalogue entry by key, validating parameter names."""
    if key not in CATALOGUE:
        raise KeyError(f"unknown catalogue key {key!r} "
                       f"(known: {', '.join(catalogue_keys())})")
    entry = CATALOGUE[key]
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise ConstructionError(
            f"unknown parameter(s) for {key}: {', '.join(sorted(unknown))}; "
            f"expected a subset of {{{', '.join(entry.defaults)}}}")
    merged = {**entry.defaults, **params}
    return entry.builder(**merged)
