import json
import os

import numpy as np
import pytest

from onenorm import write_fcidump
from onenorm.cli import run
from onenorm.fcidump import write_labeled_matrix

from conftest import H2_FCIDUMP, random_hamiltonian, random_psd_hamiltonian, requires_fixtures


@pytest.fixture
def small_fcidump(tmp_path, rng):
    ham = random_hamiltonian(3, rng)
    path = tmp_path / "small.fcidump"
    path.write_text(write_fcidump(ham))
    return str(path), ham


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_subcommand(capsys, small_fcidump):
    path, ham = small_fcidump
    code, out, _ = invoke(capsys, "norm", path)
    assert code == 0
    payload = json.loads(out)
    from onenorm import lambda_q

    assert payload["lambda_Q_no_const"] == pytest.approx(lambda_q(ham), abs=1e-9)
    assert "class_sums" in payload


def test_norm_missing_file(capsys):
    code, out, err = invoke(capsys, "norm", "missing.fcidump")
    assert code == 1
    assert "cannot open" in err


def test_norm_cholesky_on_indefinite_exits_2(capsys, small_fcidump):
    path, _ = small_fcidump
    code, _, err = invoke(capsys, "norm", path, "--cholesky")
    assert code == 2
    assert "positive semi-definite" in err


def test_norm_cholesky_on_psd(capsys, tmp_path, rng):
    ham = random_psd_hamiltonian(3, rng)
    path = tmp_path / "psd.fcidump"
    path.write_text(write_fcidump(ham))
    code, out, _ = invoke(capsys, "norm", str(path), "--cholesky")
    assert code == 0
    assert "lambda_SF" in json.loads(out)


def test_classes_csv(capsys, small_fcidump):
    path, ham = small_fcidump
    code, out, _ = invoke(capsys, "classes", path, "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,sum_abs_g"
    assert len(lines) == 8
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(np.abs(ham.two_body_dense()).sum(), rel=1e-12)


def test_oracle_check(capsys, small_fcidump):
    path, _ = small_fcidump
    code, out, _ = invoke(capsys, "oracle-check", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["difference"] < 1e-9


def test_jacobi_scan(capsys, small_fcidump):
    path, ham = small_fcidump
    code, out, _ = invoke(capsys, "jacobi-scan", path, "--pair", "0", "1", "--steps", "4")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    from onenorm import lambda_q

    assert rows[0]["lambda_Q"] == pytest.approx(lambda_q(ham), abs=1e-12)


def test_rotate_roundtrip(capsys, tmp_path, small_fcidump, rng):
    path, ham = small_fcidump
    from conftest import random_orthogonal
    from onenorm.fcidump import write_labeled_matrix

    u = random_orthogonal(3, rng).matrix
    matrix_path = tmp_path / "u.txt"
    matrix_path.write_text(write_labeled_matrix("ROTATION", u))
    out_path = tmp_path / "rotated.fcidump"
    code, out, _ = invoke(
        capsys, "rotate", path, "--matrix", str(matrix_path), "-o", str(out_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norms_before"]["lambda_C"] == pytest.approx(
        payload["norms_after"]["lambda_C"], abs=1e-9
    )
    from onenorm import parse_fcidump, rotate_hamiltonian, OrbitalRotation

    rotated = parse_fcidump(out_path.read_text())
    direct = rotate_hamiltonian(ham, OrbitalRotation(u))
    assert np.max(np.abs(rotated.two_body - direct.two_body)) < 1e-12


def test_freeze_matches_library(capsys, tmp_path, small_fcidump):
    path, ham = small_fcidump
    out_path = tmp_path / "active.fcidump"
    code, out, _ = invoke(
        capsys, "freeze", path, "--frozen", "0", "--active", "1,2",
        "--active-electrons", "2", "-o", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    from onenorm import ActiveSpaceSpec, freeze_core, parse_fcidump

    expected, shift = freeze_core(
        ham, ActiveSpaceSpec(frozen=(0,), active=(1, 2), n_active_electrons=2)
    )
    assert payload["shift"] == pytest.approx(shift, abs=1e-12)
    actual = parse_fcidump(out_path.read_text())
    assert actual.allclose(expected, tol=1e-14)


def test_freeze_fermi_window(capsys, tmp_path, rng):
    ham = random_hamiltonian(3, rng).replace(n_electrons=4)
    path = tmp_path / "mol.fcidump"
    path.write_text(write_fcidump(ham))
    code, out, _ = invoke(
        capsys, "freeze", str(path), "--fermi-window", "2", "--active-electrons", "2",
    )
    assert code == 0
    payload = json.loads(out)
    from onenorm import ActiveSpaceSpec, freeze_core

    spec = ActiveSpaceSpec.around_fermi(3, 4, 2, 2)
    assert spec.frozen == (0,)
    _, shift = freeze_core(ham, spec)
    assert payload["shift"] == pytest.approx(shift, abs=1e-12)
    assert payload["n_active_orbitals"] == 2


def test_localize_and_reapply_rotation(capsys, tmp_path, small_fcidump):
    path, ham = small_fcidump
    rot_path = tmp_path / "rot.txt"
    out_path = tmp_path / "loc.fcidump"
    code, out, _ = invoke(
        capsys, "localize", path, "--scheme", "er",
        "--rotation-out", str(rot_path), "-o", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "er"
    assert payload["converged"] is True

    # applying the emitted rotation reproduces the emitted Hamiltonian
    replay = tmp_path / "replay.fcidump"
    code, _, _ = invoke(
        capsys, "rotate", path, "--matrix", str(rot_path), "-o", str(replay)
    )
    assert code == 0
    from onenorm import parse_fcidump

    a = parse_fcidump(replay.read_text())
    b = parse_fcidump(out_path.read_text())
    assert np.max(np.abs(a.two_body - b.two_body)) < 1e-10


def test_localize_method_flag_matches_library(capsys, small_fcidump):
    from onenorm import LocalizationRequest, lambda_q, localize, parse_fcidump

    path, _ = small_fcidump
    code, out, _ = invoke(capsys, "localize", path, "--scheme", "er", "--method", "ascent")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "ascent"
    ham = parse_fcidump(open(path).read())
    expected = localize(ham, None, None, LocalizationRequest(scheme="er", method="ascent"))
    assert payload["norms_after"]["lambda_Q_no_const"] == lambda_q(expected.hamiltonian)


def test_optimize_subcommand(capsys, tmp_path, small_fcidump):
    path, _ = small_fcidump
    trace_path = tmp_path / "trace.csv"
    code, out, _ = invoke(
        capsys, "optimize", path, "--start", "er", "--max-iter", "20",
        "--trace-out", str(trace_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_final"] <= payload["lambda_start"] + 1e-9
    assert payload["n_gradient_calls"] >= 1
    assert payload["stop_reason"]
    assert payload["n_restarts"] >= 0
    assert trace_path.read_text().startswith("iteration,lambda_Q")


def test_optimize_window_flag(capsys, small_fcidump):
    path, _ = small_fcidump
    code, out, _ = invoke(
        capsys, "optimize", path, "--start", "current", "--window", "0,1",
        "--max-iter", "10",
    )
    assert code == 0


def test_scaling_fit_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("n,lambda\n2,4\n3,9\n4,16\n")
    code, out, _ = invoke(capsys, "scaling-fit", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(2.0, abs=1e-12)
    assert payload["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_rejects_a_bad_row_after_the_header(capsys, tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("n,lambda\n2,4\n3,abc\n4,16\n6,x9\n8,64\n")
    code, out, err = invoke(capsys, "scaling-fit", "--csv", str(csv_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "line 3" in err and "3,abc" in err
    csv_path.write_text("\n2,4\n3,9\n4\n")
    code, _, err = invoke(capsys, "scaling-fit", "--csv", str(csv_path))
    assert code == 1 and "line 4" in err


def test_unwritable_output_is_an_input_error(capsys, tmp_path, small_fcidump):
    path, _ = small_fcidump
    target = str(tmp_path / "missing" / "out.fcidump")
    code, _, err = invoke(capsys, "localize", path, "--scheme", "er", "-o", target)
    assert code == 1
    assert err.startswith("error: cannot write") and "out.fcidump" in err


@requires_fixtures
@pytest.mark.parametrize("module", ["onenorm", "onenorm.cli"])
def test_entry_points_exit_codes(module):
    import subprocess
    import sys

    from conftest import chain_path

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def exit_code(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, timeout=120
        ).returncode

    assert exit_code("norm", chain_path(4)) == 0
    assert exit_code("norm", chain_path(4) + ".missing") == 1
    assert exit_code("--strict", "localize", chain_path(4), "--scheme", "er",
                     "--max-sweeps", "1") == 2


def test_report_subcommand(capsys, tmp_path, rng):
    paths = {}
    for label in ("cmo", "loc"):
        ham = random_hamiltonian(2, rng)
        p = tmp_path / f"{label}.fcidump"
        p.write_text(write_fcidump(ham))
        paths[label] = str(p)
    code, out, _ = invoke(
        capsys, "report", "--baseline", "cmo",
        f"cmo={paths['cmo']}", f"loc={paths['loc']}",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["label"] == "cmo"
    assert rows[0]["reduction_pct"] == 0.0

    code, out, _ = invoke(
        capsys, "report", "--baseline", "cmo", "--csv",
        f"cmo={paths['cmo']}", f"loc={paths['loc']}",
    )
    assert code == 0
    assert out.splitlines()[0] == "label,lambda_C,lambda_T,lambda_V_prime,lambda_Q,reduction_pct"


def test_report_bad_entry(capsys):
    code, _, err = invoke(capsys, "report", "--baseline", "x", "nopath")
    assert code == 1
    assert "label=path" in err


def test_stdout_is_deterministic(capsys, small_fcidump):
    path, _ = small_fcidump
    for argv in (("norm", path), ("optimize", path)):
        code, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert code == 0
        assert first == second


def test_pretty_output(capsys, small_fcidump):
    path, _ = small_fcidump
    code, out, _ = invoke(capsys, "norm", path, "--pretty")
    assert code == 0
    assert "lambda_Q_no_const" in out
    assert not out.lstrip().startswith("{")


def test_strict_nonconvergence_exit_code(capsys, tmp_path, rng):
    ham = random_hamiltonian(5, rng)
    path = tmp_path / "hard.fcidump"
    path.write_text(write_fcidump(ham))
    for method in ("jacobi", "ascent"):
        code, _, err = invoke(
            capsys, "--strict", "localize", str(path), "--scheme", "er",
            "--method", method, "--max-sweeps", "1", "--tol", "1e-16",
        )
        assert code == 2
        assert "converge" in err
        assert method in err and "--max-sweeps 1" in err


def test_usage_errors_return_input_error_code(capsys, small_fcidump):
    path, _ = small_fcidump
    code, _, err = invoke(capsys, "localize", path, "--scheme", "er", "--method", "newton")
    assert code == 1
    assert "newton" in err
    code, _, err = invoke(capsys, "localize", "--scheme", "er")
    assert code == 1
    assert "required" in err
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_threads_flag_validation(capsys, small_fcidump):
    path, _ = small_fcidump
    code, _, err = invoke(capsys, "--threads", "0", "norm", path)
    assert code == 1
    code, out, _ = invoke(capsys, "--threads", "2", "norm", path)
    assert code == 0


@requires_fixtures
def test_norm_on_h2_fixture(capsys):
    code, out, _ = invoke(capsys, "norm", H2_FCIDUMP)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda_Q_no_const"] - 101.0) <= 1.0


def test_optimizer_numerical_failure_exits_2_under_strict(capsys, tmp_path):
    rng = np.random.default_rng(5)
    hams = [random_hamiltonian(int(rng.integers(3, 6)), rng) for _ in range(12)]
    path = tmp_path / "knife.fcidump"
    path.write_text(write_fcidump(hams[7]))
    argv = ["optimize", str(path), "--start", "current",
            "--algorithm", "sequential-quadratic"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert not payload["converged"] and "orthogonality" in payload["stop_reason"]
    code, _, err = invoke(capsys, "--strict", *argv)
    assert code == 2
    assert "orthogonality" in err


def test_rotate_rejects_malformed_matrix_files(capsys, tmp_path, small_fcidump):
    path, _ = small_fcidump
    bad = {
        "non-numeric": "1 x\n0 1\n",
        "differ in length": "1 0\n0\n",
        "duplicate section": write_labeled_matrix("ROTATION", np.eye(3)) * 2,
    }
    for message, text in bad.items():
        matrix_path = tmp_path / "m.txt"
        matrix_path.write_text(text)
        code, _, err = invoke(capsys, "rotate", path, "--matrix", str(matrix_path))
        assert code == 1
        assert err.startswith("error:") and message in err
