"""Command-line surface: subcommands, exit codes, report determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from eulerwaves import cli
from eulerwaves import solvers
from eulerwaves import tracer as tr


def run_cli(*argv):
    return cli.main(list(argv))


# -- list / describe ----------------------------------------------------------


def test_list_prints_catalogue(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    assert "rossby-sphere" in out
    assert "Rossby-Haurwitz waves on the round two-sphere" in out
    assert "twisted-annulus" in out
    assert "kelvin-torus" in out
    assert "n=1" in out and "m=2" in out


def test_list_output_stable(capsys):
    run_cli("list")
    first = capsys.readouterr().out
    run_cli("list")
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("argv, pin", [
    (["list"], "5a95593afe4e7da2"),
    (["describe", "twisted-annulus"], "2bad0e54d3940031"),
])
def test_catalogue_listing_is_pinned(capsys, argv, pin):
    # the parameter schema and defaults of every entry, byte for byte
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == pin


def test_describe_shows_defaults(capsys):
    assert run_cli("describe", "kelvin-torus") == 0
    out = capsys.readouterr().out
    assert "kelvin-torus" in out
    assert "n=1" in out and "m=2" in out and "rho=1.0" in out
    assert "flat-torus" in out


def test_describe_unknown_key_is_usage_error(capsys):
    assert run_cli("describe", "no-such-key") == 64


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 64


# -- verify -------------------------------------------------------------------


def test_verify_torus_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10",
                   "--times", "0,0.7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["solution"] == "kelvin-torus"
    assert doc["all-pass"] is True
    assert doc["grid"] == [10, 10]
    assert doc["times"] == [0.0, 0.7]
    names = [c["name"] for c in doc["checks"]]
    assert "euler-residual" in names and "skew-adjoint-pair" in names


def test_verify_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = run_cli("verify", "kelvin-torus", "--grid", "10,10",
                       "--times", "0,0.7", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_param_flags_and_seed(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli("verify", "kelvin-torus", "--n", "0", "--m", "1",
                   "--grid", "10,10", "--times", "0,0.7",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["n"] == 0
    assert doc["seed"] == 7
    assert doc["spectral"]["classification"] == "stationary"


def test_verify_impossible_tolerance_exits_1(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10",
                   "--times", "0,0.7", "--tol", "euler-residual=1e-15",
                   "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["all-pass"] is False


@pytest.mark.parametrize("flags", [
    ["--times", "nan"], ["--times", "0,inf"], ["--tol", "nan"],
    ["--tol=-1"], ["--tol", "euler-residual=nan"],
    ["--tol", "euler-residual=-1e-5"], ["--tol", "eulr-residual=1"],
])
def test_verify_non_finite_or_negative_inputs_are_usage_errors(tmp_path,
                                                              flags):
    out = tmp_path / "r.json"
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10", *flags,
                   "--out", str(out))
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--grid", "1,10"], ["--grid", "10"], ["--grid", "10,10,10"],
    ["--grid", "a,b"], ["--grid", "10,10", "--times", ""],
    ["--grid", "10,10", "--seed", "-1"], ["--grid", "10,10", "--seed", "1.5"],
])
def test_verify_bad_grid_times_or_seed_are_usage_errors(tmp_path, capsys,
                                                        flags):
    out = tmp_path / "r.json"
    code = run_cli("verify", "kelvin-torus", *flags, "--out", str(out))
    assert code == 64
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_verify_unknown_parameter_is_usage_error(capsys):
    assert run_cli("verify", "kelvin-torus", "--q", "3") == 64


def test_verify_unknown_key_is_usage_error(capsys):
    assert run_cli("verify", "kelvin-nowhere") == 64


def test_verify_degenerate_construction_exits_2(capsys):
    code = run_cli("verify", "rossby-s3", "--j", "1", "--k", "0",
                   "--d", "0", "--sign", "+")
    assert code == 2
    assert "eigenfield" in capsys.readouterr().err.lower()
    code = run_cli("verify", "kelvin-hyperbolic", "--r_max=0", "--grid", "6,6",
                   "--times", "0.7")
    assert code == 2
    assert "r_max" in capsys.readouterr().err
    # radii where sinh(r)^2 overflows are refused before any array work,
    # with no numpy warning on the way
    for r_max in ("360", "1e308"):
        code = run_cli("verify", "kelvin-hyperbolic", f"--r_max={r_max}",
                       "--grid", "4,4", "--times", "0.7")
        assert code == 2, r_max
        err = capsys.readouterr().err
        assert err.startswith("construction failed: ") and "r_max" in err
    for key, flag in [("kelvin-disk", "--rho=nan"),
                      ("kelvin-disk", "--sigma=inf"),
                      ("twisted-annulus", "--c=nan"),
                      ("twisted-annulus", "--r_hi=inf"),
                      ("kelvin-disk", "--rho=1e308")]:
        grid = "6,6" if key == "kelvin-disk" else "4,4,4"
        code = run_cli("verify", key, flag, "--grid", grid, "--times", "0.7")
        assert code == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("construction failed: ") and "finite" in err


def test_verify_overflow_exits_2_without_warnings(capsys):
    # an overflowing amplitude is reported once, as non-finite rows, and
    # not as numpy warnings on the way there
    for rho in ("1e308", "1e200"):  # 1e200 overflows only in rho * rho
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("verify", "kelvin-disk", "--rho", rho,
                           "--grid", "6,6", "--times", "0.7")
        assert code == 2, rho
        err = capsys.readouterr().err
        assert err.startswith("construction failed: ") and "non-finite" in err
        assert "RuntimeWarning" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "kelvin-hyperbolic", "--r_max", "1e-160"],
    ["verify", "twisted-annulus", "--r_lo", "1e-300"],
    ["verify", "twisted-annulus", "--r_lo", "1", "--r_hi", "1e300"],
    ["eigen", "cmetric", "--n", "1", "--m", "1", "--c", "0.1",
     "--a", "1e-300", "--b", "1"],
])
def test_extreme_radii_exit_2_with_one_line(capsys, argv):
    # the collocation pencil overflows or divides by zero: one error line,
    # no numpy warnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "collocation at N = 33: " in err


def test_verify_without_a_wave_exits_0(capsys):
    # rho = 0 is the steady base flow: every row, stationarity included,
    # must pass
    for key, grid in (("kelvin-disk", "6,6"), ("rossby-s3", "4,4,4")):
        code = run_cli("verify", key, "--rho", "0", "--grid", grid,
                       "--times", "0.7")
        assert code == 0, (key, capsys.readouterr().out)


def test_verify_missing_radial_mode_exits_2(capsys):
    # the largest collocation size, N = 129, holds 64 radial modes
    code = run_cli("verify", "kelvin-hyperbolic", "--m", "65", "--grid", "6,6",
                   "--times", "0.7")
    assert code == 2
    assert capsys.readouterr().err.startswith("construction failed: ")


def test_verify_text_format(capsys):
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10",
                   "--times", "0,0.7", "--format", "text")
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "euler-residual" in out


def test_verify_json_to_stdout(capsys):
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10",
                   "--times", "0,0.7")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solution"] == "kelvin-torus"


# -- eigen --------------------------------------------------------------------


def test_eigen_crossproduct(capsys):
    code = run_cli("eigen", "crossproduct", "--nu", "0.5",
                   "--a", "2.0943951023931953", "--b", "6.283185307179586")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["results"]["k"] - 0.75) < 1e-10


def test_eigen_disk_beta(capsys):
    code = run_cli("eigen", "disk-beta", "--n", "0", "--m", "1")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["results"]["beta"] - 2.404825557695773) < 1e-10


def test_eigen_ck_beta_matches_solver(capsys):
    code = run_cli("eigen", "ck-beta", "--n", "1", "--m", "1")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    beta, alpha = solvers.ck_dispersion_root(1, 1, 1)
    assert doc["results"]["beta"] == pytest.approx(beta, abs=1e-12)
    assert doc["results"]["alpha"] == pytest.approx(alpha, abs=1e-12)


def test_eigen_cmetric(capsys):
    code = run_cli("eigen", "cmetric", "--n", "0", "--m", "1", "--c", "-0.3",
                   "--a", "2.0943951023931953", "--b", "6.283185307179586")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["results"]["alpha"] - 1.25) < 1e-6


def test_eigen_text_format(capsys):
    code = run_cli("eigen", "disk-beta", "--n", "0", "--m", "1",
                   "--format", "text")
    assert code == 0
    assert "2.4048" in capsys.readouterr().out


def test_eigen_unknown_problem_is_usage_error(capsys):
    assert run_cli("eigen", "banana", "--n", "0") == 64


def test_eigen_no_root_in_window_exits_2(capsys):
    # branch far beyond anything the collocation sizes resolve
    code = run_cli("eigen", "cmetric", "--n", "0", "--m", "1", "--c", "-0.3",
                   "--a", "2.0943951023931953", "--b", "6.283185307179586",
                   "--branch", "400")
    assert code == 2
    # walls that are not 0 < a < b
    for a, b in [("0", "1"), ("2", "1")]:
        assert run_cli("eigen", "cmetric", "--n", "0", "--m", "1", "--c",
                       "-0.3", "--a", a, "--b", b) == 2
        assert capsys.readouterr().err.startswith("solver failed: ")


@pytest.mark.parametrize("flags", [
    ["crossproduct", "--nu", "nan", "--a", "1", "--b", "2"],
    ["cmetric", "--n", "0", "--m", "1", "--c", "nan", "--a", "1", "--b", "2"],
    ["cmetric", "--n", "0", "--m", "1", "--c", "0", "--a", "1", "--b", "inf"],
])
def test_eigen_non_finite_inputs_are_usage_errors(tmp_path, flags):
    out = tmp_path / "e.json"
    assert run_cli("eigen", *flags, "--out", str(out)) == 64
    assert not out.exists()


# -- trace --------------------------------------------------------------------


def test_trace_rotation_closes(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run_cli("trace", "kelvin-disk", "--n", "0", "--m", "1",
                   "--rho", "0.0", "--start", "0.5,0",
                   "--t1", str(2 * math.pi), "--out", str(out))
    assert code == 0
    traj = tr.read_trajectory_csv(out)
    assert traj.status == "completed"
    assert traj.coords == ("r", "theta")
    gap = traj.points[-1] - traj.points[0]
    gap[1] = (gap[1] + math.pi) % (2 * math.pi) - math.pi
    assert np.max(np.abs(gap)) < 1e-8


def test_trace_hopf_closes(tmp_path):
    out = tmp_path / "hopf.csv"
    code = run_cli("trace", "rossby-s3", "--rho", "0.0",
                   "--start", "0.7,0.3,1.1", "--t1", str(2 * math.pi),
                   "--out", str(out))
    assert code == 0
    traj = tr.read_trajectory_csv(out)
    gap = traj.points[-1] - traj.points[0]
    for axis in (1, 2):
        gap[axis] = (gap[axis] + math.pi) % (2 * math.pi) - math.pi
    assert np.max(np.abs(gap)) < 1e-8


def test_trace_to_stdout(capsys):
    code = run_cli("trace", "kelvin-disk", "--n", "0", "--m", "1",
                   "--rho", "0.0", "--start", "0.5,0", "--t1", "0.1",
                   "--dt", "0.05")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,r,theta"
    assert lines[-1] == "# status=completed"


def test_trace_bad_start_exits_2(capsys):
    code = run_cli("trace", "kelvin-disk", "--start", "1.5,0", "--t1", "1")
    assert code == 2


def test_trace_malformed_start_is_usage_error(capsys):
    assert run_cli("trace", "kelvin-disk", "--start", "0.5", "--t1", "1") == 64
    assert run_cli("trace", "kelvin-disk", "--start", "x,y", "--t1", "1") == 64
    assert run_cli("trace", "kelvin-disk", "--t1", "1") == 64
    assert run_cli("trace", "kelvin-torus", "--start", "nan,1") == 64


@pytest.mark.parametrize("flag", ["--t0", "--t1", "--dt"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_trace_non_finite_times_are_usage_errors(tmp_path, flag, value):
    out = tmp_path / "orbit.csv"
    code = run_cli("trace", "kelvin-disk", "--start", "0.5,0", flag, value,
                   "--out", str(out))
    assert code == 64
    assert not out.exists()


def test_trace_step_count_overflow_exits_2(capsys):
    # (t1 - t0) / dt overflows to inf: refused before any allocation
    code = run_cli("trace", "kelvin-disk", "--start", "0.5,0.1",
                   "--t1", "1e308", "--dt", "1e-300")
    assert code == 2
    assert "trace failed" in capsys.readouterr().err


# The child caps its address space at 4 GiB after the imports, so an
# allocation of terabytes fails at once, whatever the host's memory.
_CAPPED_CLI = """
import resource, sys
from eulerwaves import cli
resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_capped(*argv):
    pytest.importorskip("resource")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)


@pytest.mark.parametrize("argv, failure", [
    # 6.3e12 steps: the sample buffer would take 91.4 TiB
    (["trace", "kelvin-torus", "--start", "1,1", "--dt", "1e-12"],
     "trace failed: "),
    # the scan grid up to the 10^12-th zero of J_1 would take 45.7 TiB
    (["eigen", "disk-beta", "--n", "1", "--m", "1000000000000"],
     "solver failed: "),
])
def test_out_of_memory_exits_2(argv, failure):
    proc = _run_capped(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith(failure)
    assert "Traceback" not in proc.stderr


def test_verify_out_of_memory_is_usage_error():
    # 10^12 grid points: the interior grid alone would take 7.28 TiB
    proc = _run_capped("verify", "kelvin-torus", "--grid", "1000000,1000000",
                       "--times", "0.7")
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ")
    assert "1000000,1000000" in proc.stderr and "0.7" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_annulus_interval_aliases(tmp_path):
    # --a/--b accepted as aliases for the annulus wall radii
    out = tmp_path / "r.json"
    code = run_cli("verify", "twisted-annulus", "--a", "2.0943951023931953",
                   "--b", "6.283185307179586", "--grid", "6,6,6",
                   "--times", "0.0", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["r_lo"] == pytest.approx(2.0943951023931953)


# -- module entry point -------------------------------------------------------


def test_python_m_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "eulerwaves", "list"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "kelvin-torus" in proc.stdout
