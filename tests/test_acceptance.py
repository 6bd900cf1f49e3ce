"""Acceptance battery.

One test per criterion, each printing a single [PASS]/[FAIL] line (visible
under `pytest -s` or in the captured output).  Tolerances here are the
contract values: do not loosen them to make a run green.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import scipy.special

from eulerwaves import catalogue as cat
from eulerwaves import cli
from eulerwaves import solvers as sv
from eulerwaves import specfun as sf
from eulerwaves import verification as ver

CANONICAL = ["kelvin-torus", "kelvin-disk", "rossby-sphere",
             "kelvin-hyperbolic", "rossby-s3", "ck-cylinder",
             "twisted-annulus"]

A0 = 2.0 * math.pi / 3.0
B0 = 2.0 * math.pi


def _criterion(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _tol(dim):
    return 1e-5 if dim == 2 else 1e-4


def test_criterion_1_euler_residual_exactness():
    worst_rel, worst_key, slowest, power_min = 0.0, "", 0.0, math.inf
    ok = True
    for key in CANONICAL:
        sol = cat.build(key)
        tol = _tol(sol.dim)
        t0 = time.perf_counter()
        rep = ver.euler_residual(sol)
        elapsed = time.perf_counter() - t0
        (check,) = rep.checks
        rel = check.sup / check.normalizer
        ok &= check.passed and check.tol == tol and elapsed <= 30.0
        if rel > worst_rel:
            worst_rel, worst_key = rel, key
        slowest = max(slowest, elapsed)

        pert = ver.euler_residual(sol.perturbed(1.1))
        (pcheck,) = pert.checks
        prel = pcheck.sup / pcheck.normalizer
        power_min = min(power_min, prel / tol)
        ok &= prel > 10.0 * tol
    _criterion(1, "euler-residual exactness", ok,
               f"worst={worst_rel:.2e} ({worst_key}), slowest={slowest:.1f}s,"
               f" perturbation-power>={power_min:.0f}x")


def test_criterion_2_spectral_data():
    ok = True
    details = []
    for n, m in [(1, 2), (2, 3), (1, 3), (3, 4)]:
        sol = cat.rossby_sphere(n=n, m=m)
        want = Fraction(2 * n, m * (m + 1))
        ok &= sol.spectral.lam_exact == want
    details.append("sphere lambda exact")
    # numeric certification of the sphere drift at 1e-5
    eig = ver.check_eigen_relations(cat.rossby_sphere(n=1, m=2))
    coad = [c for c in eig.checks if c.name.startswith("eigen-coadjoint")]
    ok &= all(c.passed and c.tol == 1e-5 for c in coad)
    details.append("sphere numeric<=1e-5")

    ok &= cat.rossby_s3().spectral.omega_exact == Fraction(-1, 3)
    details.append("s3 omega=-1/3")

    alpha = cat.twisted_annulus().spectral.alpha
    ok &= abs(alpha - 1.25) < 1e-8
    details.append(f"annulus alpha={alpha:.10f}")

    k = sv.crossproduct_root(0.5, A0, B0, 1)
    ok &= abs(k - 0.75) < 1e-10
    details.append(f"crossproduct k={k:.12f}")
    _criterion(2, "spectral data reproduction", ok, "; ".join(details))


def test_criterion_3_stationarity_table():
    table = [
        (cat.kelvin_torus, {"n": 0, "m": 1}, "stationary"),
        (cat.kelvin_torus, {"n": 1, "m": 2}, "moving-frame-trivial"),
        (cat.kelvin_torus, {"n": 2, "m": 1}, "moving-frame-trivial"),
        (cat.kelvin_disk, {"n": 0, "m": 1}, "stationary"),
        (cat.kelvin_disk, {"n": 1, "m": 1}, "moving-frame-trivial"),
        (cat.kelvin_disk, {"n": 3, "m": 2}, "moving-frame-trivial"),
        (cat.rossby_sphere, {"n": 0, "m": 2}, "stationary"),
        (cat.rossby_sphere, {"n": 1, "m": 1}, "stationary"),
        (cat.rossby_sphere, {"n": 1, "m": 2}, "genuine"),
        (cat.rossby_sphere, {"n": 2, "m": 3}, "genuine"),
        (cat.rossby_sphere, {"n": 1, "m": 3}, "genuine"),
        (cat.rossby_sphere, {"n": 2, "m": 2}, "genuine"),
    ]
    bad = []
    for builder, params, want in table:
        got = ver.stationarity_classifier(builder(**params))
        if got != want:
            bad.append(f"{builder.__name__}({params}) -> {got} != {want}")
    _criterion(3, "stationarity classification (12 cases)", not bad,
               "; ".join(bad) or "all verdicts match")


def test_criterion_4_linearized_residual():
    ok = True
    worst_rel, worst_key = 0.0, ""
    for key in CANONICAL:
        sol = cat.build(key)
        rep = ver.linearized_residual(sol)
        (check,) = rep.checks
        rel = check.sup / check.normalizer
        ok &= check.passed and check.tol == _tol(sol.dim)
        if rel > worst_rel:
            worst_rel, worst_key = rel, key
    _criterion(4, "linearized residual", ok,
               f"worst={worst_rel:.2e} ({worst_key})")


def test_criterion_5_closed_form_cross_validation():
    mode = sv.solve_cmetric_mode(-0.3, A0, B0, n=0, m=1, branch=1)
    rs = np.linspace(A0, B0, 60)
    g_ref = 5.0 * np.sqrt(rs) * np.cos(0.75 * rs)
    h_ref = (-3.0 * np.sin(0.75 * rs) / np.sqrt(rs)
             + 2.0 * np.cos(0.75 * rs) / rs ** 1.5)
    scale = mode.g(rs[20]) / g_ref[20]
    norm = np.max(np.abs(g_ref))
    dev_g = np.max(np.abs(mode.g(rs) - scale * g_ref)) / norm
    dev_h = np.max(np.abs(mode.h(rs) - scale * h_ref)) / norm
    ok = dev_g <= 1e-7 and dev_h <= 1e-7

    mode0 = sv.solve_cmetric_mode(0.0, 1.0, 2.0, n=0, m=1, branch=1)
    beta = sv.crossproduct_root(1.0, 1.0, 2.0, 1)
    alpha_ref = math.sqrt(beta * beta + 1.0)
    rs0 = np.linspace(1.0, 2.0, 50)
    c1, c2 = sf.bessel_y(1, beta), -sf.bessel_j(1, beta)
    cyl = c1 * sf.bessel_j(0, beta * rs0) + c2 * sf.bessel_y(0, beta * rs0)
    dcyl = -beta * (c1 * sf.bessel_j(1, beta * rs0)
                    + c2 * sf.bessel_y(1, beta * rs0))
    g0_ref = alpha_ref * rs0 * dcyl
    h0_ref = -beta * beta * cyl
    scale0 = mode0.g(rs0[25]) / g0_ref[25]
    dev0_g = (np.max(np.abs(mode0.g(rs0) - scale0 * g0_ref))
              / np.max(np.abs(g0_ref)))
    dev0_h = (np.max(np.abs(mode0.h(rs0) - scale0 * h0_ref))
              / np.max(np.abs(h0_ref)))
    ok &= abs(mode0.alpha - alpha_ref) < 1e-8
    ok &= dev0_g <= 1e-8 and dev0_h <= 1e-8
    _criterion(5, "closed-form cross-validation", ok,
               f"twisted dev=({dev_g:.1e},{dev_h:.1e}),"
               f" untwisted dev=({dev0_g:.1e},{dev0_h:.1e})")


def test_criterion_6_conservation_and_constraints():
    ok = True
    worst = {}
    for key in CANONICAL:
        sol = cat.build(key)
        energy = ver.conservation_check(sol)
        constraint = ver.constraint_check(sol)
        for check in list(energy.checks) + list(constraint.checks):
            ok &= check.passed
            rel = check.sup / check.normalizer
            if rel > worst.get(check.name, (0.0, ""))[0]:
                worst[check.name] = (rel, key)
    detail = ", ".join(f"{name}={rel:.1e}({key})"
                       for name, (rel, key) in sorted(worst.items()))
    _criterion(6, "conservation and constraints", ok, detail)


def test_criterion_7_skew_adjoint_identity():
    rep = ver.skew_adjoint_battery(pairs=20)
    pair = [c for c in rep.checks if c.name == "skew-adjoint-pair"][0]
    ok = all(c.passed and c.tol == 1e-8 for c in rep.checks)
    _criterion(7, "skew-adjoint quadrature identity", ok,
               f"max normalized pairing={pair.sup:.2e} over 20 pairs")


def _bisect_scipy_bessel_zero(nu, lo, hi):
    f = lambda x: scipy.special.jv(nu, x)
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_8_special_function_floor():
    z01 = _bisect_scipy_bessel_zero(0, 2.0, 3.0)
    z11 = _bisect_scipy_bessel_zero(1, 3.0, 4.5)
    ok = abs(sf.bessel_j_zero(0, 1) - z01) <= 1e-10
    ok &= abs(sf.bessel_j_zero(1, 1) - z11) <= 1e-10

    rng = np.random.default_rng(ver.DEFAULT_SEED)
    xs = rng.uniform(0.5, 30.0, size=100)
    nus = rng.integers(0, 5, size=100).astype(float)
    wronskian = (sf.bessel_j(nus, xs) * sf.bessel_y_prime(nus, xs)
                 - sf.bessel_j_prime(nus, xs) * sf.bessel_y(nus, xs)
                 - 2.0 / (math.pi * xs))
    recurrence = (sf.bessel_j(nus - 1, xs) + sf.bessel_j(nus + 1, xs)
                  - (2.0 * nus / xs) * sf.bessel_j(nus, xs))
    ok &= np.max(np.abs(wronskian)) <= 1e-10
    ok &= np.max(np.abs(recurrence)) <= 1e-10
    _criterion(8, "special-function floor", ok,
               f"zeros dev=({abs(sf.bessel_j_zero(0, 1) - z01):.1e},"
               f"{abs(sf.bessel_j_zero(1, 1) - z11):.1e}),"
               f" wronskian={np.max(np.abs(wronskian)):.1e},"
               f" recurrence={np.max(np.abs(recurrence)):.1e}")


def test_criterion_9_report_determinism(tmp_path):
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli.main(["verify", "kelvin-torus", "--grid", "10,10",
                         "--times", "0,0.7", "--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    ok &= doc["schema"] == 1 and "version" in doc and "seed" in doc
    _criterion(9, "byte-identical verify reports", ok,
               f"{len(payloads[0])} bytes each")
