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
function ``psi_wave``); every real field above is derived from it.

Constructors return :class:`ExactSolution`; :data:`CATALOGUE` maps the public
entry keys onto them with their default parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from . import solvers
from . import specfun as sf
from .fields import StreamFunction, VectorField, _as_points, constant_field

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


def _spectral(alpha: float, zeta: int, lam: float,
              lam_exact: Optional[Fraction]) -> SpectralData:
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

    ``wave(t, pts)`` evaluates the complex eigenfield ``z`` as an (N, dim)
    complex array.  On surfaces the stream functions ``psi_base`` and
    ``psi_wave`` (the complex stream of ``z``, shape (N,)) are carried along
    so vorticity-form residuals can be evaluated without inverting the
    inertia operator.  The real and imaginary parts of ``z`` are available as
    the derived fields ``wave_re`` and ``wave_im``.
    """

    key: str
    params: dict
    manifold: geo.ChartedManifold
    base_flow: VectorField
    wave: Callable[[float, np.ndarray], np.ndarray]
    spectral: SpectralData
    rho: float = 1.0
    sigma: float = 0.0
    psi_base: Optional[StreamFunction] = None
    psi_wave: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.sigma)):
            raise ConstructionError(
                f"{self.key} needs a finite amplitude rho and phase sigma, "
                f"got rho={self.rho!r}, sigma={self.sigma!r}")

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

    @property
    def wave_re(self) -> VectorField:
        """Real part v of the eigenfield z = v + i w."""
        return self._part("re", np.real)

    @property
    def wave_im(self) -> VectorField:
        """Imaginary part w of the eigenfield z = v + i w."""
        return self._part("im", np.imag)

    def _part(self, name: str, take) -> VectorField:
        stream = None
        if self.psi_wave is not None:
            stream = StreamFunction(
                2, lambda t, p: take(self.psi_wave(t, p)),
                label=f"{self.key} wave stream ({name})")
        return VectorField(
            dim=self.dim, func=lambda t, p: take(self.wave(t, p)),
            stream=stream, label=f"{self.key} wave ({name})")

    # -- the solution and its linearisation ----------------------------------

    def _rotate(self, z, t: float, pts, base=None, linearized: bool = False,
                dt: bool = False) -> np.ndarray:
        """``base + Re(c * rho * e^{i phase(t)} * z(t, pts))`` with c = 1,
        -i for the linearised wave, and an extra factor i omega for d/dt.

        The coefficient pair (a, b) of the complex prefactor is built as
        ``r * (cos, sin)`` with r = rho or rho * omega and then turned by
        swaps and negations only, which are exact.  Summed as
        ``base + a Re z - b Im z``, the result equals the written-out real
        form bit for bit, which keeps report bytes stable.
        """
        ph = self.phase(t)
        r = self.rho * self.spectral.omega if dt else self.rho
        a, b = r * np.cos(ph), r * np.sin(ph)
        if dt:
            a, b = -b, a
        if linearized:
            a, b = b, -a
        pts = _as_points(pts, self.dim)
        zv = z(t, pts)
        if base is None:
            return a * zv.real - b * zv.imag
        return base(t, pts) + a * zv.real - b * zv.imag

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, base=self.base_flow)

    def velocity_dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, dt=True)

    def linearized(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, linearized=True)

    def linearized_dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self._rotate(self.wave, t, pts, linearized=True, dt=True)

    def stream_total(self) -> Optional[StreamFunction]:
        """Stream function of the full velocity (surfaces only)."""
        if self.psi_base is None:
            return None
        return StreamFunction(
            dim=2,
            func=lambda t, p: self._rotate(self.psi_wave, t, p,
                                           base=self.psi_base),
            dt_func=lambda t, p: self._rotate(self.psi_wave, t, p, dt=True),
            label=f"{self.key} stream")

    def stream_linearized(self) -> Optional[StreamFunction]:
        if self.psi_wave is None:
            return None
        return StreamFunction(
            dim=2,
            func=lambda t, p: self._rotate(self.psi_wave, t, p,
                                           linearized=True),
            dt_func=lambda t, p: self._rotate(self.psi_wave, t, p,
                                              linearized=True, dt=True),
            label=f"{self.key} linearized stream")

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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConstructionError(f"parameter {name!r} must be an integer, "
                                f"got {value!r}")
    return int(value)


def _on_distinct(profile, x):
    """``profile(x)`` for an elementwise ``profile`` of a 1D coordinate array,
    evaluated once per run of equal consecutive values and expanded back.

    Tensor grids and the FD stencils built on them repeat each value of the
    slowest chart axis in one run, so a radial profile on 576 or 1728 points
    sees 24 or 12 values.  A batch whose first two values differ (random
    points, a tracer ensemble, a grid whose bounded axis is the fast one)
    goes to ``profile`` whole, without a scan for runs.  ``profile`` may
    return one array or a tuple of arrays; either comes back bit-identical
    to ``profile(x)``.
    """
    if x.size < 2 or x[0] != x[1]:
        return profile(x)
    bound = np.empty(x.size + 1, dtype=bool)
    bound[0] = bound[-1] = True
    np.not_equal(x[1:], x[:-1], out=bound[1:-1])
    edges = bound.nonzero()[0]  # the start of each run, then x.size
    out = profile(x[edges[:-1]])
    counts = edges[1:] - edges[:-1]
    if isinstance(out, tuple):
        return tuple(v.repeat(counts) for v in out)
    return out.repeat(counts)


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
    M = geo.flat_torus()

    psi0 = StreamFunction(2, lambda t, p: p[:, 1].copy(), label="y")
    u0 = VectorField(
        2, lambda t, p: np.broadcast_to([1.0, 0.0], (p.shape[0], 2)).copy(),
        stream=psi0, inertia_image=constant_field((0.0, 0.0)),
        label="unit shear")

    def psi(t, pts):
        return np.exp(1j * (n * pts[:, 0] + m * pts[:, 1]))

    def zfunc(t, pts):
        e = psi(t, pts)
        return np.stack([1j * m * e, -1j * n * e], axis=-1)

    spectral = _spectral(alpha=n * n + m * m, zeta=n, lam=0.0,
                         lam_exact=Fraction(0))
    return ExactSolution(
        key="kelvin-torus", params={"n": n, "m": m, "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma), psi_base=psi0, psi_wave=psi,
    )


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
    M = geo.flat_disk()

    psi0 = StreamFunction(2, lambda t, p: -0.5 * p[:, 0] ** 2, label="-r^2/2")
    u0 = VectorField(
        2, lambda t, p: np.broadcast_to([0.0, 1.0], (p.shape[0], 2)).copy(),
        stream=psi0, inertia_image=constant_field((0.0, 0.0)),
        label="rigid rotation")

    def bessel(r):
        return sf.bessel_j(nu, beta * r)

    def bessel_pair(r):
        return sf.bessel_j(nu, beta * r), sf.bessel_j_prime(nu, beta * r)

    def zfunc(t, pts):
        r, th = pts[:, 0], pts[:, 1]
        e = np.exp(1j * n * th)
        J, Jp = _on_distinct(bessel_pair, r)
        return np.stack([(1j * n / r) * J * e, -(beta / r) * Jp * e], axis=-1)

    def psi(t, pts):
        return _on_distinct(bessel, pts[:, 0]) * np.exp(1j * n * pts[:, 1])

    spectral = _spectral(alpha=beta ** 2, zeta=n, lam=0.0,
                         lam_exact=Fraction(0))
    return ExactSolution(
        key="kelvin-disk", params={"n": n, "m": m, "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma), psi_base=psi0, psi_wave=psi,
        metadata={"beta": float(beta)},
    )


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
    M = geo.round_sphere()

    psi0 = StreamFunction(2, lambda t, p: -np.cos(p[:, 1]), label="-cos(phi)")
    u0 = VectorField(
        2, lambda t, p: np.broadcast_to([1.0, 0.0], (p.shape[0], 2)).copy(),
        stream=psi0, inertia_image=constant_field((2.0, 0.0)),
        label="solid rotation")

    def legendre(phi):
        return sf.assoc_legendre(m, nu, np.cos(phi))

    def legendre_pair(phi):
        return sf.assoc_legendre(m, nu, np.cos(phi), derivative=True)

    def zfunc(t, pts):
        th, phi = pts[:, 0], pts[:, 1]
        P, dP = _on_distinct(legendre_pair, phi)
        e = np.exp(1j * n * th)
        return np.stack([-dP * e, (-1j * n / np.sin(phi)) * P * e], axis=-1)

    def psi(t, pts):
        return (_on_distinct(legendre, pts[:, 1])
                * np.exp(1j * n * pts[:, 0]))

    spectral = _spectral(alpha=m * (m + 1), zeta=n,
                         lam=float(Fraction(2 * n, m * (m + 1))),
                         lam_exact=Fraction(2 * n, m * (m + 1)))
    return ExactSolution(
        key="rossby-sphere",
        params={"n": n, "m": m, "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma), psi_base=psi0, psi_wave=psi,
    )


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
    nu = abs(n)
    try:
        mode = sf.hyperbolic_radial_mode(nu, m, r_max=float(r_max))
    except (solvers.SolverError, ValueError) as exc:
        raise ConstructionError(str(exc)) from exc
    E = mode.eigenvalue
    M = geo.hyperbolic_disk(r_max=float(r_max))

    psi0 = StreamFunction(2, lambda t, p: -np.cosh(p[:, 0]), label="-cosh(r)")
    u0 = VectorField(
        2, lambda t, p: np.broadcast_to([0.0, 1.0], (p.shape[0], 2)).copy(),
        stream=psi0, inertia_image=constant_field((0.0, -2.0)),
        label="hyperbolic rotation")

    def radial_pair(r):
        return mode.value(r), mode.derivative(r)

    def zfunc(t, pts):
        r, th = pts[:, 0], pts[:, 1]
        e = np.exp(1j * n * th)
        s = np.sinh(r)
        R, dR = _on_distinct(radial_pair, r)
        return np.stack([(1j * n / s) * R * e, -(dR / s) * e], axis=-1)

    def psi(t, pts):
        return _on_distinct(mode.value, pts[:, 0]) * np.exp(1j * n * pts[:, 1])

    lam = -2.0 * n / E
    spectral = _spectral(alpha=E, zeta=n, lam=lam,
                         lam_exact=Fraction(0) if n == 0 else None)
    return ExactSolution(
        key="kelvin-hyperbolic",
        params={"n": n, "m": m, "r_max": float(r_max),
                "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma), psi_base=psi0, psi_wave=psi,
        metadata={"beta": float(mode.beta),
                  "boundary-residual": float(mode.boundary_residual)},
    )


# ---------------------------------------------------------------------------
# round three-sphere
# ---------------------------------------------------------------------------


def _s3_curl_eigenfield(j: int, k: int, d: int, alpha: int,
                        scale: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """Curl eigenfield on the 3-sphere built from the Hopf-harmonic
    f = cos^|j| sin^|k| * Jacobi_d(cos 2 chi) * e^{i(j theta + k phi)} in the
    orthonormal frame adapted to the two Hopf rotations."""
    p, q = abs(j), abs(k)
    n = j + k

    def profile(chi):
        c2 = np.cos(2.0 * chi)
        cosx, sinx = np.cos(chi), np.sin(chi)
        J = sf.jacobi_poly(d, q, p, c2)
        dJ = sf.jacobi_poly_deriv(d, q, p, c2)
        C = cosx ** p * sinx ** q * J
        dpow = np.zeros_like(chi)
        if p:
            dpow -= p * cosx ** (p - 1) * sinx ** (q + 1)
        if q:
            dpow += q * cosx ** (p + 1) * sinx ** (q - 1)
        dC = dpow * J + cosx ** p * sinx ** q * dJ * (-2.0 * np.sin(2.0 * chi))
        return C, dC

    def zfunc(t, pts):
        chi, th, ph = pts[:, 0], pts[:, 1], pts[:, 2]
        C, dC = _on_distinct(profile, chi)
        e = np.exp(1j * (j * th + k * ph))
        f = C * e
        tanx = np.tan(chi)
        cotx = 1.0 / tanx
        e1 = dC * e
        e2 = 1j * (j * tanx - k * cotx) * f
        e3 = 1j * n * f
        c1 = alpha * e2 + 1j * n * e1
        c2 = -alpha * e1 + 1j * n * e2
        c3 = alpha * alpha * f + 1j * n * e3
        return scale * np.stack(
            [c1, c2 * tanx + c3, -c2 * cotx + c3], axis=-1)

    return zfunc


def rossby_s3(j: int = 1, k: int = 0, d: int = 0, sign: str = "-",
              rho: float = 1.0, sigma: float = 0.0) -> ExactSolution:
    """Rotating wave on the round 3-sphere in Hopf coordinates.

    Base flow X = d_theta + d_phi (curl X = -2 X); the wave is a curl
    eigenfield built from the harmonic with Hopf charges (j, k) and meridional
    index d, curl eigenvalue l = |j| + |k| + 2 d on the ``+`` ladder or
    -(l + 2) on the ``-`` ladder.  Both frequencies are exact rationals:
    zeta = j + k and lam = -2 (j + k) / alpha.
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
    n = j + k

    # Normalisation chosen so the lowest '-' entries match their displayed
    # closed forms; every other combination is left with unit scale.
    scale = 1.0
    if sign == "-" and d == 0 and j >= 0 and k >= 0 and (j, k) != (0, 0):
        scale = 1.0 / (2.0 * (n + 1.0))

    M = geo.three_sphere()
    zfunc = _s3_curl_eigenfield(j, k, d, alpha, scale)

    probe = M.interior_grid((5, 4, 4))
    if np.max(np.abs(zfunc(0.0, probe))) <= 1e-10 * max(1.0, alpha * alpha):
        raise ConstructionError(
            f"(j, k, d, sign) = ({j}, {k}, {d}, {sign!r}) gives the zero "
            "eigenfield; take the other curl ladder")

    u0 = VectorField(
        3, lambda t, p: np.broadcast_to([0.0, 1.0, 1.0], (p.shape[0], 3)).copy(),
        inertia_image=constant_field((0.0, -2.0, -2.0)), label="Hopf rotation")

    lam_exact = Fraction(-2 * n, alpha)
    spectral = _spectral(alpha=alpha, zeta=n, lam=float(lam_exact),
                         lam_exact=lam_exact)
    return ExactSolution(
        key="rossby-s3",
        params={"j": j, "k": k, "d": d, "sign": sign,
                "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma),
        metadata={"ell": ell, "scale": scale},
    )


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
    M = geo.solid_cylinder()

    u0 = VectorField(
        3, lambda t, p: np.broadcast_to([0.0, 1.0, 0.0], (p.shape[0], 3)).copy(),
        inertia_image=constant_field((0.0, 0.0, 2.0)), label="rigid rotation")

    def bessel_pair(r):
        return sf.bessel_j(n, beta * r), sf.bessel_j_prime(n, beta * r)

    def zfunc(t, pts):
        r, th, zz = pts[:, 0], pts[:, 1], pts[:, 2]
        e = np.exp(1j * (n * th + m * zz))
        J, Jp = _on_distinct(bessel_pair, r)
        g = beta * alpha * r * Jp + n * m * J
        return np.stack([
            -1j * (m * beta * Jp + (n * alpha / r) * J) * e,
            (g / r ** 2) * e,
            -(beta ** 2) * J * e,
        ], axis=-1)

    lam = 2.0 * m / alpha
    spectral = _spectral(alpha=alpha, zeta=n, lam=lam,
                         lam_exact=Fraction(0) if m == 0 else None)
    return ExactSolution(
        key="ck-cylinder",
        params={"n": n, "m": m, "branch": branch, "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma),
        metadata={"beta": float(beta)},
    )


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
    profile = solvers.CMetricProfile.linear(c, float(r_lo), float(r_hi))
    try:
        mode = solvers.solve_cmetric_mode(profile, n, m, branch=branch)
    except (solvers.SolverError, ValueError) as exc:
        raise ConstructionError(str(exc)) from exc
    alpha = mode.alpha
    M = geo.cmetric_chart(profile.phi, profile.dphi, c, float(r_lo),
                          float(r_hi), name="twisted-annulus")

    u0 = VectorField(
        3, lambda t, p: np.broadcast_to([0.0, 1.0, 0.0], (p.shape[0], 3)).copy(),
        inertia_image=constant_field((0.0, 0.0, 2.0)), label="angular rotation")

    def radial(r):
        ph = np.asarray(profile.phi(r), dtype=float)
        dph = np.asarray(profile.dphi(r), dtype=float)
        g, h = mode.g(r), mode.h(r)
        return (mode.f(r), g / ph ** 2 - c * h / (dph ** 2 * ph ** 2),
                h / dph ** 2)

    def zfunc(t, pts):
        r, th, zz = pts[:, 0], pts[:, 1], pts[:, 2]
        e = np.exp(1j * (n * th + m * zz))
        f, z_th, z_z = _on_distinct(radial, r)
        return np.stack([1j * f * e, z_th * e, z_z * e], axis=-1)

    ksq = alpha ** 2 - m ** 2
    nusq = 1.0 + 2.0 * alpha * c
    meta = {
        "boundary-residual": float(mode.boundary_residual),
        "k": float(np.sqrt(ksq)) if ksq >= 0 else None,
        "nu": float(np.sqrt(nusq)) if nusq >= 0 else None,
    }
    lam = 2.0 * m / alpha
    spectral = _spectral(alpha=alpha, zeta=n, lam=lam,
                         lam_exact=Fraction(0) if m == 0 else None)
    return ExactSolution(
        key="twisted-annulus",
        params={"m": m, "n": n, "c": c, "r_lo": float(r_lo),
                "r_hi": float(r_hi), "branch": branch,
                "rho": rho, "sigma": sigma},
        manifold=M, base_flow=u0, wave=zfunc, spectral=spectral,
        rho=float(rho), sigma=float(sigma), metadata=meta,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogueEntry:
    key: str
    builder: Callable[..., ExactSolution]
    defaults: dict
    dim: int
    summary: str


CATALOGUE: dict[str, CatalogueEntry] = {
    e.key: e for e in [
        CatalogueEntry(
            key="kelvin-torus", builder=kelvin_torus,
            defaults={"n": 1, "m": 2, "rho": 1.0, "sigma": 0.0}, dim=2,
            summary="travelling plane wave on a sheared flat torus"),
        CatalogueEntry(
            key="kelvin-disk", builder=kelvin_disk,
            defaults={"n": 1, "m": 1, "rho": 1.0, "sigma": 0.0}, dim=2,
            summary="rotating Bessel mode inside rigid rotation on the disk"),
        CatalogueEntry(
            key="rossby-sphere", builder=rossby_sphere,
            defaults={"n": 1, "m": 2, "rho": 1.0, "sigma": 0.0}, dim=2,
            summary="Rossby-Haurwitz waves on the round two-sphere"),
        CatalogueEntry(
            key="kelvin-hyperbolic", builder=kelvin_hyperbolic,
            defaults={"n": 1, "m": 1, "r_max": 1.0, "rho": 1.0, "sigma": 0.0},
            dim=2,
            summary="rotating wave in a geodesic disk of the hyperbolic plane"),
        CatalogueEntry(
            key="rossby-s3", builder=rossby_s3,
            defaults={"j": 1, "k": 0, "d": 0, "sign": "-",
                      "rho": 1.0, "sigma": 0.0}, dim=3,
            summary="Hopf-harmonic rotating wave on the round 3-sphere"),
        CatalogueEntry(
            key="ck-cylinder", builder=ck_cylinder,
            defaults={"n": 1, "m": 1, "branch": 1, "rho": 1.0, "sigma": 0.0},
            dim=3,
            summary="helical Bessel wave in the rotating solid cylinder"),
        CatalogueEntry(
            key="twisted-annulus", builder=twisted_annulus,
            defaults={"m": 1, "n": 0, "c": -0.3,
                      "r_lo": 2.0 * math.pi / 3.0, "r_hi": 2.0 * math.pi,
                      "branch": 1, "rho": 1.0, "sigma": 0.0}, dim=3,
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
