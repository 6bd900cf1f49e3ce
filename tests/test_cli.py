"""Command-line surface: subcommands, exit codes, report determinism."""

import json
import math
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
    ["--tol", "euler-residual=-1e-5"],
])
def test_verify_non_finite_or_negative_inputs_are_usage_errors(tmp_path,
                                                              flags):
    out = tmp_path / "r.json"
    code = run_cli("verify", "kelvin-torus", "--grid", "10,10", *flags,
                   "--out", str(out))
    assert code == 64
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("verify", "kelvin-disk", "--rho", "1e308",
                       "--grid", "6,6", "--times", "0.7")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("construction failed: ") and "non-finite" in err
    assert "RuntimeWarning" not in err


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
