"""Charts, metrics and vector calculus on the model geometries.

A manifold is described by a single chart: coordinate ranges, periodicity
flags, a metric, and markers for chart-singular ends (coordinate axes where
the chart degenerates, e.g. the origin of polar coordinates) and true
boundary faces.

A metric is stated once, by its non-zero entries (`ChartMetric`): the
diagonal, and at most one symmetric off-diagonal pair together with the
volume density.  sqrt(det g), the inverse metric and index lowering follow
from those entries in closed form, so no operator builds or inverts a full
(N, d, d) matrix; the full matrix is assembled only on request.

All differential operators are generic finite-difference routines (4th-order
central stencils) so that catalogue fields given in closed form can be
checked by machinery that knows nothing about how they were built.  The
Laplace-Beltrami operator uses the geometer sign convention:

    lap f = -(1/sqrt(g)) d_i ( sqrt(g) g^{ij} d_j f )

so that eigenvalues on compact domains are positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BoundaryFace",
    "ChartMetric",
    "ChartedManifold",
    "fd_partial",
    "field_jacobian",
    "skew_gradient_values",
    "divergence_terms",
    "divergence",
    "curl3",
    "laplace_beltrami",
    "lie_bracket",
    "poisson_bracket",
    "inner_product_quadrature",
    "normal_component",
    "flat_torus",
    "flat_torus3",
    "flat_disk",
    "round_sphere",
    "hyperbolic_disk",
    "three_sphere",
    "solid_cylinder",
    "cmetric_chart",
]

TWO_PI = 2.0 * np.pi

# Base finite-difference step is this fraction of (range / 2 pi); a chart
# spanning a full angle gets h = 1e-2.
FD_STEP_FRACTION = 1e-2

# Stencil clearance from non-singular bounded ends, in units of the local h.
# Nested stencils (outer first derivative of an inner derivative) reach 4 h
# from the evaluation point; 6 leaves slack.
STENCIL_PAD_STEPS = 6.0

# Clearance from a chart-singular end, as a fraction of the axis range.
_SINGULAR_MARGIN = 5e-2

STATUS_EXITED = "exited-domain"
STATUS_SINGULAR = "hit-singular-margin"

GAUSS_POINTS = 32
PERIODIC_QUAD_POINTS = {2: 64, 3: 32}


@dataclass(frozen=True)
class BoundaryFace:
    """A genuine boundary of the domain: coordinate `axis` fixed at `value`.

    `outward` is +1 when the outward normal points toward increasing
    coordinate (upper end) and -1 at a lower end.
    """

    axis: int
    value: float
    outward: int


@dataclass(frozen=True, eq=False)
class ChartMetric:
    """A chart metric stated once, by its non-zero entries.

    ``entries(pts)`` maps (N, dim) chart points to the diagonal g_ii, a
    tuple of ``dim`` arrays of shape (N,) or floats.  A metric with one
    symmetric off-diagonal pair names its two axes in ``pair``; its
    ``entries`` then return ``(diagonal, g_pair, density)``, with the
    coupling g_ij = g_ji and the volume density sqrt(det g) up to sign
    (arrays or floats).
    """

    dim: int
    entries: Callable
    pair: tuple = ()

    def at(self, pts: np.ndarray) -> "MetricEntries":
        n = pts.shape[0]
        if self.pair:
            diag, coupling, density = self.entries(pts)
            sqrt_det = np.abs(np.broadcast_to(density, (n,)))
        else:
            diag, coupling = self.entries(pts), 0.0
            prod = np.ones(n)
            for e in diag:
                prod = prod * e
            sqrt_det = np.sqrt(prod)
        return MetricEntries(tuple(diag), self.pair, coupling, sqrt_det)


class MetricEntries:
    """A chart metric at N points, as its non-zero entries.

    ``diag`` holds the d diagonal entries, ``coupling`` the entry g_ij of
    the axis pair ``pair`` (if any) and ``sqrt_det`` the volume density.
    The inverse uses the adjugate of the 2x2 pair block over its
    determinant, sqrt_det^2 divided by the other diagonal entries.
    """

    __slots__ = ("diag", "pair", "coupling", "sqrt_det")

    def __init__(self, diag, pair, coupling, sqrt_det):
        self.diag = diag
        self.pair = pair
        self.coupling = coupling
        self.sqrt_det = sqrt_det

    def _pair_inverse(self):
        """(g^ii, g^jj, g^ij) of the coupled pair (i, j)."""
        i, j = self.pair
        block_det = self.sqrt_det ** 2
        for k, e in enumerate(self.diag):
            if k not in self.pair:
                block_det = block_det / e
        return (self.diag[j] / block_det, self.diag[i] / block_det,
                -self.coupling / block_det)

    def inverse_entries(self, i: int) -> tuple:
        """The entries of the row g^{i.} that can be non-zero, as (j, g^{ij})
        pairs: the diagonal entry alone, or both entries of the coupled
        pair when i belongs to it."""
        if i in self.pair:
            inv_ii, inv_jj, inv_ij = self._pair_inverse()
            a, b = self.pair
            return ((a, inv_ii if i == a else inv_ij),
                    (b, inv_ij if i == a else inv_jj))
        return ((i, 1.0 / self.diag[i]),)

    def matrix(self) -> np.ndarray:
        """The full metric, shape (N, d, d)."""
        d = len(self.diag)
        g = np.zeros((self.sqrt_det.shape[0], d, d))
        for k, e in enumerate(self.diag):
            g[:, k, k] = e
        if self.pair:
            i, j = self.pair
            g[:, i, j] = g[:, j, i] = self.coupling
        return g

    def lower(self, u: np.ndarray) -> np.ndarray:
        """g u: the covariant components of a vector field u (N, d)."""
        cols = [e * u[:, k] for k, e in enumerate(self.diag)]
        if self.pair:
            i, j = self.pair
            cols[i] = cols[i] + self.coupling * u[:, j]
            cols[j] = cols[j] + self.coupling * u[:, i]
        return np.stack(cols, axis=-1)

    def norm_sq(self, u: np.ndarray) -> np.ndarray:
        """g(u, u) per point."""
        return np.einsum("ni,ni->n", u, self.lower(u))


@dataclass(frozen=True, eq=False)
class ChartedManifold:
    """One chart.  Chart-singular ends keep the module constant
    ``_SINGULAR_MARGIN`` of their axis range clear."""

    name: str
    dim: int
    coords: tuple
    ranges: tuple
    periodic: tuple
    metric: ChartMetric
    singular_lower: tuple = ()
    singular_upper: tuple = ()
    boundaries: tuple = ()

    def __post_init__(self):
        if not isinstance(self.metric, ChartMetric) \
                or self.metric.dim != self.dim:
            raise TypeError(f"chart {self.name!r} needs a ChartMetric of "
                            f"dimension {self.dim}, got {self.metric!r}")
        if not self.singular_lower:
            object.__setattr__(self, "singular_lower", (False,) * self.dim)
        if not self.singular_upper:
            object.__setattr__(self, "singular_upper", (False,) * self.dim)
        object.__setattr__(self, "_quad_cache", {})
        # Usable closed box on the bounded (non-periodic) axes: the chart
        # ranges less the singular margins, as (axes, lower, upper ends).
        # The periodic axes with their lower ends and spans, for _fold; a
        # run of consecutive axes is a slice, whose view spares _fold the
        # fancy-index copies.
        axes, lo_ok, hi_ok = [], [], []
        wrap_axes, wrap_lo, wrap_span = [], [], []
        for axis, (lo, hi) in enumerate(self.ranges):
            if self.periodic[axis]:
                wrap_axes.append(axis)
                wrap_lo.append(lo)
                wrap_span.append(hi - lo)
            else:
                m = _SINGULAR_MARGIN * (hi - lo)
                axes.append(axis)
                lo_ok.append(lo + m if self.singular_lower[axis] else lo)
                hi_ok.append(hi - m if self.singular_upper[axis] else hi)
        object.__setattr__(self, "_usable_box",
                           (axes, np.array(lo_ok), np.array(hi_ok)))
        if wrap_axes and wrap_axes[-1] - wrap_axes[0] == len(wrap_axes) - 1:
            wrap_axes = slice(wrap_axes[0], wrap_axes[-1] + 1)
        object.__setattr__(self, "_periodic_box",
                           (wrap_axes, np.array(wrap_lo), np.array(wrap_span)))

    # -- chart bookkeeping -------------------------------------------------

    def spans(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.ranges])

    def fd_steps(self, scale: float = 1.0) -> np.ndarray:
        return FD_STEP_FRACTION * scale * self.spans() / TWO_PI

    def axis_interval(self, axis: int) -> tuple:
        """Usable closed interval on `axis` once margins are applied."""
        lo, hi = self.ranges[axis]
        if self.periodic[axis]:
            return lo, hi
        span = hi - lo
        pad = STENCIL_PAD_STEPS * self.fd_steps()[axis]
        lo_pad = _SINGULAR_MARGIN * span if self.singular_lower[axis] else pad
        hi_pad = _SINGULAR_MARGIN * span if self.singular_upper[axis] else pad
        return lo + lo_pad, hi - hi_pad

    def axis_nodes(self, axis: int, n: int) -> np.ndarray:
        lo, hi = self.ranges[axis]
        if self.periodic[axis]:
            span = hi - lo
            return lo + (np.arange(n) + 0.5) * span / n
        a, b = self.axis_interval(axis)
        return np.linspace(a, b, n)

    def interior_grid(self, shape) -> np.ndarray:
        """Cartesian product grid respecting margins, flattened to (N, dim)."""
        return _tensor_grid([self.axis_nodes(i, shape[i])
                             for i in range(self.dim)])

    def random_interior(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        for axis in range(self.dim):
            a, b = self.axis_interval(axis)
            cols.append(rng.uniform(a, b, size=n))
        return np.stack(cols, axis=-1)

    def _fold(self, x, centred: bool) -> np.ndarray:
        """A copy of the coordinates x (..., dim), each periodic axis taken
        modulo its span into [lo, hi), or into [-span/2, span/2) if centred."""
        out = np.array(x, dtype=float, copy=True)
        axes, lo, span = self._periodic_box
        if span.size:
            start = -span / 2.0 if centred else lo
            out[..., axes] = start + np.mod(out[..., axes] - start, span)
        return out

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        return self._fold(pts, centred=False)

    def shortest_delta(self, a, b) -> np.ndarray:
        """a - b in coordinates, the shortest way around periodic axes."""
        return self._fold(np.subtract(a, b, dtype=float), centred=True)

    def halt_verdicts(self, pts: np.ndarray) -> dict:
        """The rows of wrapped points (N, dim) that left the usable chart,
        as {row: STATUS_SINGULAR or STATUS_EXITED}; every other row is
        inside the chart and clear of the singular margins.  The first
        failing axis decides, and on it the singular margin comes before
        the range; periodic axes never halt."""
        axes, lo_ok, hi_ok = self._usable_box
        if not axes:
            return {}
        x = pts[:, axes]
        inside = (x >= lo_ok) & (x <= hi_ok)
        if inside.all():
            return {}
        halts = {}
        for row in np.flatnonzero(~inside.all(axis=1)):
            for j, axis in enumerate(axes):
                lo, hi = self.ranges[axis]
                v = x[row, j]
                if ((self.singular_lower[axis] and v < lo_ok[j])
                        or (self.singular_upper[axis] and v > hi_ok[j])):
                    halts[int(row)] = STATUS_SINGULAR
                    break
                if not lo <= v <= hi:
                    halts[int(row)] = STATUS_EXITED
                    break
        return halts

    # -- metric helpers ----------------------------------------------------

    def metric_entries(self, pts: np.ndarray) -> MetricEntries:
        return self.metric.at(np.atleast_2d(np.asarray(pts, dtype=float)))

    def metric_at(self, pts: np.ndarray) -> np.ndarray:
        return self.metric_entries(pts).matrix()

    def sqrt_det(self, pts: np.ndarray) -> np.ndarray:
        return self.metric_entries(pts).sqrt_det

    def lower(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        return self.metric_entries(pts).lower(np.atleast_2d(vals))

    def norm_sq(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        return self.metric_entries(pts).norm_sq(np.atleast_2d(vals))


def _tensor_grid(axes) -> np.ndarray:
    """Cartesian product of 1D node arrays, flattened to (N, len(axes)) with
    the last axis varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd_partial(f, t: float, pts: np.ndarray, axis: int, h: float):
    """4th-order central difference of f(t, pts) along a chart axis.

    Works for scalar-valued (N,) and vector-valued (N, d) callables alike.
    The four shifted copies of ``pts`` (+h, -h, +2h, -2h) are stacked and
    sent to ``f`` in one call of 4N points, so a callable nested k stencils
    deep sees one call of 4^k N points per differentiated axis.
    """
    return _difference(f(t, _stencil(pts, axis, h)), h)


def _stencil(pts: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``fd_partial``'s (4N, dim) batch of shifted copies of ``pts``."""
    n = len(pts)
    q = np.tile(pts, (4, 1))
    q[:, axis] += np.repeat([h, -h, 2.0 * h, -2.0 * h], n)
    return q


def _difference(vals: np.ndarray, h: float) -> np.ndarray:
    """The central difference from a field's values on a ``_stencil``."""
    n = len(vals) // 4
    fp1, fm1, fp2, fm2 = (vals[k * n:(k + 1) * n] for k in range(4))
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def field_jacobian(M: ChartedManifold, u, t: float, pts: np.ndarray,
                   h_scale: float = 1.0) -> np.ndarray:
    """J[:, i, j] = d_j u^i by finite differences."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)
    cols = [fd_partial(u, t, pts, j, h[j]) for j in range(M.dim)]
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------


def skew_gradient_values(M: ChartedManifold, f, t: float, pts: np.ndarray,
                         h_scale: float = 1.0) -> np.ndarray:
    """2D skew gradient of a scalar callable:

        u = ( (1/sqrt(g)) d_2 f , -(1/sqrt(g)) d_1 f )

    The divergence-free velocity with stream function f.
    """
    if M.dim != 2:
        raise ValueError("skew gradient is a 2D operation")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)
    d1 = fd_partial(f, t, pts, 0, h[0])
    d2 = fd_partial(f, t, pts, 1, h[1])
    rg = M.sqrt_det(pts)
    return np.stack([d2 / rg, -d1 / rg], axis=-1)


def divergence_terms(M: ChartedManifold, u, t: float, pts: np.ndarray,
                     h_scale: float = 1.0) -> np.ndarray:
    """Per-axis flux terms (1/sqrt(g)) d_i ( sqrt(g) u^i ), shape (dim, N)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)
    sq = M.sqrt_det(pts)

    def weighted(i):
        def f(tt, q):
            return M.sqrt_det(q) * np.asarray(u(tt, q))[:, i]
        return f

    return np.stack([fd_partial(weighted(i), t, pts, i, h[i]) / sq
                     for i in range(M.dim)])


def divergence(M: ChartedManifold, u, t: float, pts: np.ndarray,
               h_scale: float = 1.0) -> np.ndarray:
    """(1/sqrt(g)) d_i ( sqrt(g) u^i ), the sum of divergence_terms."""
    return divergence_terms(M, u, t, pts, h_scale).sum(axis=0)


def curl3(M: ChartedManifold, u, t: float, pts: np.ndarray,
          h_scale: float = 1.0) -> np.ndarray:
    """Curl on an oriented Riemannian 3-manifold, contravariant components:

        (curl u)^i = (1/sqrt(g)) eps^{ijk} d_j (g_{kl} u^l)
    """
    if M.dim != 3:
        raise ValueError("curl3 needs a 3D chart")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)

    def cov(tt, q):
        return M.lower(q, np.asarray(u(tt, q)))

    d = [fd_partial(cov, t, pts, j, h[j]) for j in range(3)]
    return _curl_form(d, M.sqrt_det(pts))


def _curl_jet(M: ChartedManifold, u, t: float, pts: np.ndarray,
              h_scale: float = 1.0) -> tuple:
    """``(curl3(u), field_jacobian(u))`` at ``pts``, bit for bit, from one
    call of u per axis stencil: each stencil's values give both the partial
    of u and the partial of its lowered components."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)
    du, dcov = [], []
    for j in range(3):
        q = _stencil(pts, j, h[j])
        vals = np.asarray(u(t, q))
        du.append(_difference(vals, h[j]))
        dcov.append(_difference(M.lower(q, vals), h[j]))
    return _curl_form(dcov, M.sqrt_det(pts)), np.stack(du, axis=-1)


def _curl_form(d, sqrt_det: np.ndarray) -> np.ndarray:
    """The curl from the partials ``d[j][:, k]`` of the lowered u_k."""
    c0 = (d[1][:, 2] - d[2][:, 1]) / sqrt_det
    c1 = (d[2][:, 0] - d[0][:, 2]) / sqrt_det
    c2 = (d[0][:, 1] - d[1][:, 0]) / sqrt_det
    return np.stack([c0, c1, c2], axis=-1)


def laplace_beltrami(M: ChartedManifold, f, t: float, pts: np.ndarray,
                     h_scale: float = 1.0) -> np.ndarray:
    """Geometer-sign Laplace-Beltrami of a scalar callable (nested FD)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)

    def flux(i):
        # sqrt(g) g^{ij} d_j f evaluated wherever the outer stencil asks,
        # differentiating only along the axes j where g^{ij} can be non-zero
        def F(tt, q):
            g = M.metric_entries(q)
            return g.sqrt_det * sum(value * fd_partial(f, tt, q, j, h[j])
                                    for j, value in g.inverse_entries(i))
        return F

    total = sum(fd_partial(flux(i), t, pts, i, h[i]) for i in range(M.dim))
    return -total / M.sqrt_det(pts)


def lie_bracket(M: ChartedManifold, u, v, t: float, pts: np.ndarray,
                h_scale: float = 1.0) -> np.ndarray:
    """Commutator [u, v]^i = u^j d_j v^i - v^j d_j u^i."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ju = field_jacobian(M, u, t, pts, h_scale)
    jv = field_jacobian(M, v, t, pts, h_scale)
    return _lie_form(np.asarray(u(t, pts)), ju, np.asarray(v(t, pts)), jv)


def _lie_form(u: np.ndarray, ju: np.ndarray, v: np.ndarray,
              jv: np.ndarray) -> np.ndarray:
    """[u, v] pointwise from the values and Jacobians of its two arguments."""
    return np.einsum("nij,nj->ni", jv, u) - np.einsum("nij,nj->ni", ju, v)


def poisson_bracket(M: ChartedManifold, f, g, t: float, pts: np.ndarray,
                    h_scale: float = 1.0) -> np.ndarray:
    """{f, g} = (d_2 f d_1 g - d_1 f d_2 g)/sqrt(g)  (2D).

    Sign fixed so that {f, g} = skew_gradient(f) . grad g, hence
    [skew_grad f, skew_grad g] = skew_grad {f, g}.
    """
    if M.dim != 2:
        raise ValueError("poisson bracket is a 2D operation")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = M.fd_steps(h_scale)
    df, dg = ([fd_partial(k, t, pts, axis, h[axis]) for axis in (0, 1)]
              for k in (f, g))
    return _poisson_form(df, dg, M.sqrt_det(pts))


def _poisson_form(df, dg, sqrt_det: np.ndarray) -> np.ndarray:
    """{f, g} pointwise from the first partials (d_1, d_2) of its two
    arguments and the volume density."""
    return (df[1] * dg[0] - df[0] * dg[1]) / sqrt_det


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _quadrature_rule(M: ChartedManifold, refine: int = 1):
    cache = M._quad_cache
    key = ("rule", int(refine))
    if key in cache:
        return cache[key]
    node_axes, weight_axes = [], []
    n_per = PERIODIC_QUAD_POINTS.get(M.dim, 32) * int(refine)
    n_gauss = GAUSS_POINTS * int(refine)
    for axis in range(M.dim):
        lo, hi = M.ranges[axis]
        span = hi - lo
        if M.periodic[axis]:
            x = lo + (np.arange(n_per) + 0.5) * span / n_per
            w = np.full(n_per, span / n_per)
        else:
            xi, wi = np.polynomial.legendre.leggauss(n_gauss)
            x = lo + (xi + 1.0) * span / 2.0
            w = wi * span / 2.0
        node_axes.append(x)
        weight_axes.append(w)
    nodes = _tensor_grid(node_axes)
    weights = _tensor_grid(weight_axes).prod(axis=1) * M.sqrt_det(nodes)
    cache[key] = (nodes, weights)
    return cache[key]


def inner_product_quadrature(M: ChartedManifold, u, v, t: float = 0.0,
                             refine: int = 1) -> float:
    """L2 pairing  int g(u, v) dvol  over the whole chart.  When ``v is u``
    the field is evaluated once."""
    nodes, weights = _quadrature_rule(M, refine)
    uv = np.asarray(u(t, nodes))
    vv = uv if v is u else np.asarray(v(t, nodes))
    integrand = np.einsum("ni,ni->n", uv, M.lower(nodes, vv))
    return float(np.sum(integrand * weights))


def normal_component(M: ChartedManifold, u, t: float, face: BoundaryFace,
                     pts: np.ndarray) -> np.ndarray:
    """g(u, outward unit normal) sampled on a boundary face."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g = M.metric_entries(pts)
    num = g.lower(np.asarray(u(t, pts)))[:, face.axis]
    return face.outward * num / np.sqrt(g.diag[face.axis])


def boundary_nodes(M: ChartedManifold, face: BoundaryFace, n: int = 64) -> np.ndarray:
    return _tensor_grid([np.array([face.value]) if axis == face.axis
                         else M.axis_nodes(axis, n) for axis in range(M.dim)])


# ---------------------------------------------------------------------------
# chart factories
# ---------------------------------------------------------------------------


def _diag_metric(*entries) -> ChartMetric:
    """A diagonal metric from its entries: floats or callables of the points."""
    def diagonal(pts):
        return tuple(e(pts) if callable(e) else float(e) for e in entries)
    return ChartMetric(dim=len(entries), entries=diagonal)


def flat_torus() -> ChartedManifold:
    """Flat square torus, coordinates (x, y) in [0, 2pi)^2."""
    return ChartedManifold(
        name="flat-torus",
        dim=2,
        coords=("x", "y"),
        ranges=((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True),
        metric=_diag_metric(1.0, 1.0),
    )


def flat_torus3() -> ChartedManifold:
    """Flat cubic 3-torus (used mainly by tests of the 3D operators)."""
    return ChartedManifold(
        name="flat-torus-3",
        dim=3,
        coords=("x", "y", "z"),
        ranges=((0.0, TWO_PI),) * 3,
        periodic=(True, True, True),
        metric=_diag_metric(1.0, 1.0, 1.0),
    )


def flat_disk() -> ChartedManifold:
    """Unit disk in polar coordinates (r, theta); ds^2 = dr^2 + r^2 dtheta^2."""
    return ChartedManifold(
        name="flat-disk",
        dim=2,
        coords=("r", "theta"),
        ranges=((0.0, 1.0), (0.0, TWO_PI)),
        periodic=(False, True),
        metric=_diag_metric(1.0, lambda p: p[:, 0] ** 2),
        singular_lower=(True, False),
        boundaries=(BoundaryFace(axis=0, value=1.0, outward=+1),),
    )


def round_sphere() -> ChartedManifold:
    """Round unit 2-sphere, coordinates (theta, phi): azimuth and colatitude.

    ds^2 = sin(phi)^2 d theta^2 + d phi^2; the poles phi = 0, pi are chart
    singularities, not boundaries.
    """
    return ChartedManifold(
        name="round-sphere",
        dim=2,
        coords=("theta", "phi"),
        ranges=((0.0, TWO_PI), (0.0, np.pi)),
        periodic=(True, False),
        metric=_diag_metric(lambda p: np.sin(p[:, 1]) ** 2, 1.0),
        singular_lower=(False, True),
        singular_upper=(False, True),
    )


def hyperbolic_disk(r_max: float = 1.0) -> ChartedManifold:
    """Geodesic disk of radius r_max in the hyperbolic plane:
    ds^2 = dr^2 + sinh(r)^2 dtheta^2."""
    return ChartedManifold(
        name="hyperbolic-disk",
        dim=2,
        coords=("r", "theta"),
        ranges=((0.0, float(r_max)), (0.0, TWO_PI)),
        periodic=(False, True),
        metric=_diag_metric(1.0, lambda p: np.sinh(p[:, 0]) ** 2),
        singular_lower=(True, False),
        boundaries=(BoundaryFace(axis=0, value=float(r_max), outward=+1),),
    )


def three_sphere() -> ChartedManifold:
    """Round 3-sphere in Hopf coordinates (chi, theta, phi):

        ds^2 = d chi^2 + cos(chi)^2 d theta^2 + sin(chi)^2 d phi^2,

    chi in (0, pi/2), both ends chart-singular (the two core circles)."""
    return ChartedManifold(
        name="three-sphere",
        dim=3,
        coords=("chi", "theta", "phi"),
        ranges=((0.0, np.pi / 2.0), (0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(False, True, True),
        metric=_diag_metric(
            1.0,
            lambda p: np.cos(p[:, 0]) ** 2,
            lambda p: np.sin(p[:, 0]) ** 2,
        ),
        singular_lower=(True, False, False),
        singular_upper=(True, False, False),
    )


def solid_cylinder() -> ChartedManifold:
    """Periodic solid cylinder (r, theta, z), unit radius, 2pi-periodic in z."""
    return ChartedManifold(
        name="solid-cylinder",
        dim=3,
        coords=("r", "theta", "z"),
        ranges=((0.0, 1.0), (0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(False, True, True),
        metric=_diag_metric(1.0, lambda p: p[:, 0] ** 2, 1.0),
        singular_lower=(True, False, False),
        boundaries=(BoundaryFace(axis=0, value=1.0, outward=+1),),
    )


def cmetric_chart(c: float, r_lo: float, r_hi: float) -> ChartedManifold:
    """The twisted annulus: chart (r, theta, z) on r_lo <= r <= r_hi with
    the radial profile phi = r and twist c,

        g = dr^2 + r^2 dtheta^2 + 2c dtheta dz + (c^2/r^2 + 1) dz^2,

    whose volume density is r.  theta and z are 2pi-periodic.
    """
    c = float(c)

    def entries(pts):
        r = pts[:, 0]
        return (1.0, r ** 2, c ** 2 / r ** 2 + 1.0), c, r

    return ChartedManifold(
        name="twisted-annulus",
        dim=3,
        coords=("r", "theta", "z"),
        ranges=((float(r_lo), float(r_hi)), (0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(False, True, True),
        metric=ChartMetric(dim=3, entries=entries, pair=(1, 2)),
        boundaries=(
            BoundaryFace(axis=0, value=float(r_lo), outward=-1),
            BoundaryFace(axis=0, value=float(r_hi), outward=+1),
        ),
    )
