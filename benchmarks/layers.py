"""Span recorder for the traced benchmark run.

The wrappers are installed from outside the library: nothing under ``src/``
knows it is being traced.  Each wrapped call records one span (site, start,
end, parent) and the number of points it was handed.  Spans stay in flat
arrays until the run ends, when they are reduced to per-layer busy time, self
time and work counts.

The benchmark is serial (``EULER_WAVES_THREADS`` unset), so one call stack
per process is the whole truth: a span's parent is the innermost wrapped call
that was still open when it started.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _batch(pos):
    """Points in an (N, dim) batch argument; a single point counts as 1."""
    def count(args):
        if pos >= len(args):
            return 0
        shape = np.shape(args[pos])
        return shape[0] if len(shape) == 2 else 1
    return count


def _size(pos):
    """Points in an array of scalar abscissae."""
    def count(args):
        return int(np.size(args[pos])) if pos < len(args) else 0
    return count


# Work categories and the layer each belongs to.  A layer's busy and self
# time come from its categories' spans taken together.
CATEGORIES = {
    "catalogue.build": "catalogue",
    "solvers.mode": "solvers",
    "solvers.scan": "solvers",
    "solvers.bisect": "solvers",
    "solvers.ivp": "solvers",
    "fields.velocity": "fields",
    "fields.stream": "fields",
    "fields.vector": "fields",
    "specfun": "fields",
    "proxy": "fields",
    "geometry.fd": "geometry",
    "geometry.metric": "geometry",
    "geometry.operator": "geometry",
    "verify.run": "verify",
    "verify.eigen": "verify",
    "verify.euler": "verify",
    "verify.linearized": "verify",
    "verify.conservation": "verify",
    "verify.constraint": "verify",
    "verify.skew": "verify",
    "verify.stationarity": "verify",
    "tracer": "tracer",
    "report.serialize": "report",
}
LAYERS = tuple(dict.fromkeys(CATEGORIES.values()))

_FD_OPERATORS = ("field_jacobian", "skew_gradient_values", "divergence",
                 "curl3", "laplace_beltrami", "lie_bracket",
                 "poisson_bracket", "inertia_operator",
                 "inner_product_quadrature", "normal_component",
                 "boundary_nodes")

# (module, class or None, attribute, category, point counter).  Modules that
# import a helper by name get their own entry, because the wrapper has to
# replace the name the caller looks up.
SITES = (
    [("catalogue", None, "build", "catalogue.build", None)]
    + [("solvers", None, name, "solvers.mode", None)
       for name in ("solve_cmetric_mode", "ck_dispersion_root",
                    "crossproduct_root")]
    + [("specfun", None, name, "solvers.mode", None)
       for name in ("hyperbolic_radial_mode", "bessel_j_zero")]
    + [(mod, None, name, cat, None)
       for mod in ("solvers", "specfun")
       for name, cat in (("scan_brackets", "solvers.scan"),
                         ("bisect_root", "solvers.bisect"),
                         ("solve_ivp", "solvers.ivp"))]
    + [("catalogue", "ExactSolution", name, "fields.velocity", _batch(2))
       for name in ("velocity", "velocity_dt", "linearized", "linearized_dt")]
    + [("fields", "StreamFunction", name, "fields.stream", _batch(2))
       for name in ("__call__", "dt")]
    + [("fields", "VectorField", name, "fields.vector", _batch(2))
       for name in ("__call__", "dt")]
    + [("specfun", None, name, "specfun", _size(1))
       for name in ("bessel_j", "bessel_j_prime", "bessel_y",
                    "bessel_y_prime")]
    + [("specfun", None, "assoc_legendre", "specfun", _size(2))]
    + [("specfun", None, name, "specfun", _size(3))
       for name in ("jacobi_poly", "jacobi_poly_deriv")]
    + [("solvers", "CMetricMode", name, "proxy", _size(1))
       for name in ("g", "h", "dg", "dh", "f")]
    + [("specfun", "RadialMode", name, "proxy", _size(1))
       for name in ("value", "derivative")]
    + [("geometry", None, "fd_partial", "geometry.fd", _batch(2))]
    + [("geometry", "ChartedManifold", name, "geometry.metric", _batch(1))
       for name in ("metric_at", "sqrt_det", "inverse_metric", "norm_sq")]
    + [("geometry", None, name, "geometry.operator", None)
       for name in _FD_OPERATORS]
    + [("verification", None, name, cat, None)
       for name, cat in (("run_verification", "verify.run"),
                         ("check_eigen_relations", "verify.eigen"),
                         ("euler_residual", "verify.euler"),
                         ("linearized_residual", "verify.linearized"),
                         ("conservation_check", "verify.conservation"),
                         ("constraint_check", "verify.constraint"),
                         ("skew_adjoint_battery", "verify.skew"),
                         ("_stationarity_probe", "verify.stationarity"))]
    + [("tracer", None, name, "tracer", None)
       for name in ("integrate_trajectory", "integrate_many")]
    + [("verification", "ResidualReport", "to_json_bytes", "report.serialize",
        None)]
)

_CAT_INDEX = {c: i for i, c in enumerate(CATEGORIES)}
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


def _arg(args, kwargs, pos, name):
    return args[pos] if pos < len(args) else kwargs[name]


def _after_scan(rec, result, args, kwargs):
    lo, hi = _arg(args, kwargs, 1, "lo"), _arg(args, kwargs, 2, "hi")
    n = int(_arg(args, kwargs, 3, "n"))
    rec.counts["scan_evals"] += n
    rec.pending_scan = np.linspace(lo, hi, n)


def _before_bisect(rec, args, kwargs):
    """Count function evaluations, and credit the scan that produced this
    bracket with the samples it needed to reach it."""
    if rec.pending_scan is not None and len(args) >= 3:
        xs, rec.pending_scan = rec.pending_scan, None
        rec.counts["scan_useful"] += int(np.searchsorted(xs, args[2])) + 1
    f = args[0]

    def counted(x):
        rec.counts["bisect_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _after_ivp(rec, result, args, kwargs):
    rec.counts["ivp_rhs_evals"] += int(getattr(result, "nfev", 0))


_HOOKS = {
    "scan_brackets": (None, _after_scan),
    "bisect_root": (_before_bisect, None),
    "solve_ivp": (None, _after_ivp),
}


class Recorder:
    """Collects spans while installed; ``totals()`` reduces them."""

    def __init__(self):
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.npts = array("q")
        self.cat_anc = array("q")     # bitmask of categories above the span
        self.layer_anc = array("q")   # bitmask of layers above the span
        self.counts = {"scan_evals": 0, "scan_useful": 0, "bisect_evals": 0,
                       "ivp_rhs_evals": 0}
        self.pending_scan = None
        self.site_cat: list = []
        self.missing: list = []
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.site)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site that exists in the library; restore on exit."""
        saved = []
        self.site_cat, self.missing = [], []
        try:
            for mod_name, cls_name, attr, cat, counter in SITES:
                owner = importlib.import_module(f"eulerwaves.{mod_name}")
                if cls_name is not None:
                    owner = getattr(owner, cls_name, None)
                # A class's own attribute, never one it inherits.
                original = vars(owner).get(attr) if owner is not None \
                    else None
                label = ".".join(filter(None, (mod_name, cls_name, attr)))
                if original is None:
                    self.missing.append(label)
                    continue
                self.site_cat.append(_CAT_INDEX[cat])
                setattr(owner, attr, self._wrap(
                    original, len(self.site_cat) - 1, cat, counter,
                    *_HOOKS.get(attr, (None, None))))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.pending_scan = None

    def _wrap(self, fn, site_id, cat, counter, before, after):
        rec = self
        cat_bit = 1 << _CAT_INDEX[cat]
        layer_bit = 1 << _LAYER_INDEX[CATEGORIES[cat]]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            parent, cmask, lmask = stack[-1] if stack else (-1, 0, 0)
            i = len(rec.site)
            rec.site.append(site_id)
            rec.parent.append(parent)
            rec.cat_anc.append(cmask)
            rec.layer_anc.append(lmask)
            rec.npts.append(counter(args) if counter is not None else 0)
            rec.start.append(0.0)
            rec.end.append(0.0)
            if before is not None:
                args, kwargs = before(rec, args, kwargs)
            stack.append((i, cmask | cat_bit, lmask | layer_bit))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.start[i] = t0
                rec.end[i] = t1
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        return wrapper

    # -- reduction -----------------------------------------------------------

    def totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Additive sums over spans [lo, hi): per category busy time, calls
        and points; per layer busy and self time; tracer-issued velocity
        calls.  Busy time counts only the outermost span of a category (or
        layer), so nested calls are not counted twice."""
        hi = len(self) if hi is None else hi
        n = hi - lo
        out = {}
        if n <= 0:
            return out
        site_cat = np.asarray(self.site_cat, dtype=np.int64)
        cat = site_cat[np.frombuffer(self.site, dtype=np.int32)[lo:hi]]
        layer_of_cat = np.array([_LAYER_INDEX[CATEGORIES[c]]
                                 for c in CATEGORIES])
        layer = layer_of_cat[cat]
        start = np.frombuffer(self.start)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        npts = np.frombuffer(self.npts, dtype=np.int64)[lo:hi]
        cat_anc = np.frombuffer(self.cat_anc, dtype=np.int64)[lo:hi]
        layer_anc = np.frombuffer(self.layer_anc, dtype=np.int64)[lo:hi]

        inside = (parent >= 0) & (parent < n)
        child = np.bincount(parent[inside], weights=dur[inside], minlength=n)
        self_time = dur - child
        outer_cat = ((cat_anc >> cat) & 1) == 0
        outer_layer = ((layer_anc >> layer) & 1) == 0
        for name, c in _CAT_INDEX.items():
            mine = cat == c
            out[f"{name}:calls"] = int(np.count_nonzero(mine))
            out[f"{name}:points"] = int(npts[mine].sum())
            out[f"{name}:busy"] = float(dur[mine & outer_cat].sum())
            out[f"{name}:max"] = float(dur[mine].max()) if mine.any() else 0.0
        for name, li in _LAYER_INDEX.items():
            mine = layer == li
            out[f"layer.{name}:busy"] = float(dur[mine & outer_layer].sum())
            out[f"layer.{name}:self"] = float(self_time[mine].sum())
        from_tracer = np.zeros(n, dtype=bool)
        from_tracer[inside] = cat[parent[inside]] == _CAT_INDEX["tracer"]
        vel = (cat == _CAT_INDEX["fields.velocity"]) & from_tracer
        out["tracer.velocity:calls"] = int(np.count_nonzero(vel))
        out["tracer.velocity:points"] = int(npts[vel].sum())
        return out


def scaled(totals: dict, slowdown: float) -> dict:
    """Totals with their times divided by the machine's slowdown."""
    return {k: v / slowdown if k.endswith((":busy", ":self", ":max")) else v
            for k, v in totals.items()}


def per_run(setup: dict, passes: list) -> dict:
    """Totals of the set-up plus those of the mean pass."""
    keys = set(setup).union(*passes)
    return {k: setup.get(k, 0) + sum(p.get(k, 0) for p in passes)
            / max(len(passes), 1) for k in keys}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(t: dict, counts: dict) -> dict:
    """Per-layer metric values (without units) from combined totals."""
    g = lambda key: t.get(key, 0)  # noqa: E731
    field_cats = ("fields.velocity", "fields.stream", "fields.vector")
    verify_named = ("eigen", "euler", "linearized", "conservation",
                    "constraint", "skew")
    m = {
        "catalogue.build_s": g("catalogue.build:busy"),
        "catalogue.self_s": g("layer.catalogue:self"),
        "solvers.mode_s": g("solvers.mode:busy"),
        "solvers.scan_s": g("solvers.scan:busy"),
        "solvers.scan_evals": counts["scan_evals"],
        "solvers.scan_useful_frac": _ratio(counts["scan_useful"],
                                           counts["scan_evals"]),
        "solvers.bisect_s": g("solvers.bisect:busy"),
        "solvers.bisect_evals": counts["bisect_evals"],
        "solvers.ivp_solves": g("solvers.ivp:calls"),
        "solvers.ivp_rhs_evals": counts["ivp_rhs_evals"],
        "solvers.ivp_s": g("solvers.ivp:busy"),
        "solvers.self_s": g("layer.solvers:self"),
        "proxy.calls": g("proxy:calls"),
        "proxy.points": g("proxy:points"),
        "proxy.s": g("proxy:busy"),
        "fields.velocity_calls": g("fields.velocity:calls"),
        "fields.velocity_points": g("fields.velocity:points"),
        "fields.velocity_s": g("fields.velocity:busy"),
        "fields.stream_calls": g("fields.stream:calls"),
        "fields.stream_points": g("fields.stream:points"),
        "fields.stream_s": g("fields.stream:busy"),
        "fields.vector_calls": g("fields.vector:calls"),
        "fields.vector_points": g("fields.vector:points"),
        "fields.points_per_call": _ratio(
            sum(g(f"{c}:points") for c in field_cats),
            sum(g(f"{c}:calls") for c in field_cats)),
        "fields.self_s": g("layer.fields:self"),
        "specfun.calls": g("specfun:calls"),
        "specfun.points": g("specfun:points"),
        "specfun.s": g("specfun:busy"),
        "geometry.fd_calls": g("geometry.fd:calls"),
        "geometry.fd_points": g("geometry.fd:points"),
        "geometry.metric_calls": g("geometry.metric:calls"),
        "geometry.metric_points": g("geometry.metric:points"),
        "geometry.operator_s": g("layer.geometry:busy"),
        "geometry.self_s": g("layer.geometry:self"),
        "verify.run_s": g("verify.run:busy"),
        **{f"verify.{c}_s": g(f"verify.{c}:busy") for c in verify_named},
        "verify.euler_max_s": g("verify.euler:max"),
        "verify.self_s": g("layer.verify:self"),
        "tracer.velocity_calls": g("tracer.velocity:calls"),
        "tracer.points_per_call": _ratio(g("tracer.velocity:points"),
                                         g("tracer.velocity:calls")),
        "tracer.s": g("tracer:busy"),
        "tracer.self_s": g("layer.tracer:self"),
        "report.serialize_s": g("report.serialize:busy"),
    }
    m["verify.other_s"] = max(
        m["verify.run_s"] - sum(m[f"verify.{c}_s"] for c in verify_named),
        0.0)
    return m


def warn_missing(missing: list) -> None:
    if missing:
        print("trace: not found in the library, left unwrapped: "
              + ", ".join(missing), file=sys.stderr)
