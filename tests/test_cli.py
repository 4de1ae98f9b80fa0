import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from onenorm import LocalizationRequest, OptimizerConfig, norms, write_fcidump
from onenorm.cli import build_parser, run
from onenorm.fcidump import parse_auxiliary, write_auxiliary, write_labeled_matrix

from conftest import (
    FIXTURE_DIR, H2_FCIDUMP, chain_path, random_hamiltonian, random_psd_hamiltonian,
    requires_fixtures,
)


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


def test_norm_cholesky_on_zero_orbitals(capsys, tmp_path):
    path = tmp_path / "empty.fcidump"
    path.write_text(" &FCI NORB=0,NELEC=0, &END\n1.0 0 0 0 0\n")
    code, out, _ = invoke(capsys, "norm", str(path), "--cholesky")
    assert code == 0
    assert json.loads(out)["lambda_SF"] == 0.0


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
    ham = dataclasses.replace(random_hamiltonian(3, rng), n_electrons=4)
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
    for window in ("-1", "-3"):
        code, out, err = invoke(capsys, "freeze", str(path), "--fermi-window", window)
        assert (code, out) == (1, "") and ">= 0 orbitals" in err


@requires_fixtures
@pytest.mark.parametrize("lists, named", [
    (["--frozen", "3", "--active", "0,1"], "--frozen or --active"),
    (["--active", "0,1"], "--active"),
    (["--frozen", ""], "--frozen"),
])
def test_freeze_fermi_window_refuses_orbital_lists(capsys, lists, named):
    # the window picks the frozen and active orbitals; lists given beside
    # it were dropped without a word
    argv = ["freeze", chain_path(4), "--fermi-window", "2", "--active-electrons", "2", *lists]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: --fermi-window picks the frozen and active orbitals; "
                   f"it cannot be combined with {named}\n")


@requires_fixtures
@pytest.mark.parametrize("scheme, section", [("fb", "DIPOLE_X/Y/Z"), ("pm", "OVERLAP")])
def test_a_window_of_one_still_needs_the_schemes_sections(capsys, scheme, section):
    # nothing to rotate, but the missing aux file is still an input error
    code, out, err = invoke(capsys, "localize", chain_path(4), "--scheme", scheme,
                            "--window", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {scheme} needs the {section} section\n"


def test_impossible_electron_counts_are_input_errors(capsys, tmp_path):
    # NELEC outside 0..2 NORB: norm read it, and freeze blamed the window
    for nelec, argv in ((-6, ["norm"]), (9, ["freeze", "--fermi-window", "1"])):
        path = tmp_path / f"nelec{nelec}.fcidump"
        path.write_text(f" &FCI NORB=2,NELEC={nelec}, &END\n0.5 1 1 1 1\n")
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"error: NELEC={nelec} is outside 0..4: 2 orbitals hold at most 4 electrons\n"


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


@pytest.mark.parametrize("scheme", ["fb", "pm"])
def test_localize_refuses_ascent_for_fb_and_pm(capsys, small_fcidump, scheme):
    path, _ = small_fcidump
    code, out, err = invoke(capsys, "localize", path, "--scheme", scheme, "--method", "ascent")
    assert (code, out) == (1, "")
    assert err == f"error: method 'ascent' serves er only; use 'jacobi' for {scheme}\n"


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
    assert payload["start"] == "er"  # the start used: ER is below the input here
    assert payload["lambda_start"] <= payload["lambda_initial"]
    assert payload["n_gradient_calls"] >= 1
    assert payload["stop_reason"]
    _, *rows = trace_path.read_text().splitlines()
    assert len(rows) == payload["iterations"] >= 1
    assert payload["lambda_final"] <= min(float(row.split(",")[1]) for row in rows)
    assert isinstance(payload["grad_inf_norm"], float)


def test_optimize_window_flag(capsys, small_fcidump):
    path, _ = small_fcidump
    code, out, _ = invoke(
        capsys, "optimize", path, "--start", "current", "--window", "0,1",
        "--max-iter", "10",
    )
    assert code == 0


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["localize", "in.fcidump", "--scheme", "er"])
    assert dataclasses.asdict(LocalizationRequest(scheme="er")) == {
        "scheme": args.scheme, "window": args.window, "convergence_tol": args.tol,
        "max_sweeps": args.max_sweeps, "method": args.method,
    }
    args = parser.parse_args(["optimize", "in.fcidump"])
    assert dataclasses.asdict(OptimizerConfig()) == {
        "window": args.window, "max_iterations": args.max_iter, "convergence_tol": args.tol,
        "algorithm": args.algorithm, "start_from": f"localized:{args.start}",
        "localization_method": OptimizerConfig.localization_method,  # optimize has no flag
    }
    assert parser.parse_args(["norm", "in.fcidump"]).cholesky_tol == norms.CHOLESKY_TOL
    for argv in (["table-benchmark", "in.fcidump"], ["scaling-study", "in.fcidump"]):
        assert parser.parse_args(argv).method == LocalizationRequest.method


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


@pytest.mark.parametrize("token", ["1_0", "\u0661\u0660"])
def test_scaling_fit_numbers_follow_the_fcidump_grammar(capsys, tmp_path, token):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text(f"n,lambda\n2,4\n{token},100\n4,16\n", encoding="utf-8")
    code, out, err = invoke(capsys, "scaling-fit", "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == f"error: line 3 is not a row of N, lambda: '{token},100'\n"


@pytest.mark.parametrize("rows", ["2,4\n3,{bad}\n4,16\n", "2,4\n{bad},9\n4,16\n"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_scaling_fit_rejects_non_finite_points(capsys, tmp_path, rows, bad):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("n,lambda\n" + rows.format(bad=bad))
    code, out, err = invoke(capsys, "scaling-fit", "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == "error: scaling fits need finite, strictly positive sizes and norms\n"


def test_non_finite_two_body_value_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nan.fcidump"
    path.write_text(" &FCI NORB=1,NELEC=2, &END\nnan 1 1 1 1\n")
    code, out, err = invoke(capsys, "norm", str(path))
    assert (code, out) == (1, "")
    assert "two-body tensor contains non-finite entries" in err


@requires_fixtures
def test_mo_coefficients_must_have_one_column_per_orbital(capsys, tmp_path):
    # H3's MO_COEFF cut to 3x2 for H3, and H3's full 3x3 one for H2
    full = os.path.join(FIXTURE_DIR, "hchain_03_sto3g_aux.txt")
    aux = parse_auxiliary(open(full).read())
    cut = tmp_path / "cut_aux.txt"
    cut.write_text(write_auxiliary(
        dataclasses.replace(aux, mo_coefficients=aux.mo_coefficients[:, :2])))
    for fcidump_path, aux_path, shape in ((chain_path(3), str(cut), "(3, 2), expected (3, 3)"),
                                          (chain_path(2), full, "(3, 3), expected (3, 2)")):
        for scheme in ("fb", "pm"):
            for tail in (["localize", "--scheme", scheme, "--method", "jacobi"],
                         ["optimize", "--start", scheme, "--max-iter", "2"]):
                argv = [tail[0], fcidump_path, "--aux", aux_path, *tail[1:]]
                code, out, err = invoke(capsys, *argv)
                assert (code, out) == (1, ""), argv
                assert f"MO coefficients have shape {shape}" in err, argv


def test_unwritable_output_is_an_input_error(capsys, tmp_path, small_fcidump):
    path, _ = small_fcidump
    target = str(tmp_path / "missing" / "out.fcidump")
    code, _, err = invoke(capsys, "localize", path, "--scheme", "er", "-o", target)
    assert code == 1
    assert err.startswith("error: cannot write") and "out.fcidump" in err


@requires_fixtures
def test_table_benchmark_reproduces_the_h2_optimizer_row_at_one_blas_thread():
    # the README's command for the paper's 90.44, in a fresh interpreter so
    # that the BLAS thread count is set before numpy loads
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    one = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    out = subprocess.run(
        [sys.executable, "-m", "onenorm", "table-benchmark", H2_FCIDUMP, "--schemes", "er",
         "--method", "ascent", "--optimize"],
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=src, **one),
        capture_output=True, text=True).stdout
    payload = json.loads(out)
    assert [row["lambda_Q"] for row in payload["rows"]] == [
        101.32714205490453, 92.97637295425199, 90.44164546364041]
    assert payload["runs"][-1] == {"label": "optimizer", "converged": True,
                                   "n_objective_calls": 154, "n_gradient_calls": 46}


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


@requires_fixtures
def test_table_benchmark_runs_every_scheme(capsys):
    # every scheme with Jacobi, and the two that take ascent with it
    for n in (2, 3, 4):
        aux = os.path.join(FIXTURE_DIR, f"hchain_{n:02d}_sto3g_aux.txt")
        for schemes, method in (("er,fb,pm,oao", "jacobi"), ("er,oao", "ascent")):
            code, out, err = invoke(capsys, "table-benchmark", chain_path(n), "--aux", aux,
                                    "--schemes", schemes, "--method", method)
            assert code == 0, err
            payload = json.loads(out)
            assert [row["label"] for row in payload["rows"]] == ["cmo", *schemes.split(",")]
            assert [run["label"] for run in payload["runs"]] == schemes.split(",")
            assert payload["warnings"] == []


@requires_fixtures
def test_table_benchmark_strict_exits_2_when_a_run_stops_short(capsys):
    argv = ["table-benchmark", chain_path(4), "--optimize", "--max-iter", "1"]
    code, out, _ = invoke(capsys, *argv)
    payload = json.loads(out)
    assert code == 0
    assert [run["converged"] for run in payload["runs"]] == [True, False]
    assert len(payload["warnings"]) == 1 and "did not converge" in payload["warnings"][0]
    assert invoke(capsys, "--strict", *argv) == (
        2, "", "numerical failure: did not converge: optimizer\n")


@requires_fixtures
def test_scaling_study_reads_aux_beside_each_fcidump(capsys, tmp_path):
    code, out, err = invoke(capsys, "scaling-study", "--localize", "pm",
                            *(chain_path(n) for n in (2, 3, 4)))
    assert code == 0, err
    payload = json.loads(out)
    assert [point["size"] for point in payload["points"]] == [2, 3, 4]
    assert all(point["lambda_localized"] > 0 for point in payload["points"])
    assert set(payload) == {"points", "fit_cmo", "fit_localized", "warnings"}

    lone = tmp_path / "lone_cmo.fcidump"
    shutil.copy(chain_path(2), lone)
    code, out, err = invoke(capsys, "scaling-study", "--localize", "fb", str(lone))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "lone_aux.txt" in err


@requires_fixtures
def test_experiment_input_errors_are_one_line(capsys, tmp_path):
    h4, h4_aux = chain_path(4), os.path.join(FIXTURE_DIR, "hchain_04_sto3g_aux.txt")
    chains = [chain_path(n) for n in (2, 3, 4)]
    latin1 = tmp_path / "latin1_cmo.fcidump"
    latin1.write_bytes(b"caf\xe9\n")
    for argv in (
        ["table-benchmark", h4, "--schemes", "er,pm"],
        ["table-benchmark", h4, "--aux", h4_aux, "--schemes", "fb", "--method", "ascent"],
        ["table-benchmark", str(latin1)],
        ["scaling-study", "--localize", "fb", "--method", "ascent", *chains],
        ["scaling-study", *chains, str(latin1)],
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_non_utf8_inputs_are_input_errors(capsys, tmp_path, small_fcidump):
    path, _ = small_fcidump
    fcidump = tmp_path / "latin1.fcidump"
    fcidump.write_bytes(b" &FCI NORB=1,NELEC=2, &END\n! caf\xe9\n")
    aux = tmp_path / "bad_aux.txt"
    aux.write_bytes(b"\xff\n")
    for argv, name, byte, offset in (
        (["norm", str(fcidump)], str(fcidump), "e9", 32),
        (["localize", path, "--scheme", "pm", "--aux", str(aux)], str(aux), "ff", 0),
    ):
        assert invoke(capsys, *argv) == (
            1, "", f"error: {name!r} is not UTF-8 text: byte 0x{byte} at offset {offset}\n")


def test_stdout_is_deterministic(capsys, small_fcidump):
    path, _ = small_fcidump
    for argv in (("norm", path), ("optimize", path)):
        code, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert code == 0
        assert first == second


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


def test_run_leaves_the_environment_as_it_was(capsys, monkeypatch, small_fcidump):
    # the BLAS thread count is the process's own: run neither reads nor
    # writes the environment, on success or on an input error
    path, _ = small_fcidump
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    code, _, _ = invoke(capsys, "norm", path)
    assert code == 0
    assert dict(os.environ) == before
    code, _, _ = invoke(capsys, "norm", "missing.fcidump")
    assert code == 1
    assert dict(os.environ) == before


@requires_fixtures
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_norm_at_one_blas_thread_runs_on_one_os_thread_and_matches_two():
    # the BLAS variables set before the process starts are the thread
    # contract; norm on H20 prints the same bytes at 1 and at 2 threads
    import subprocess
    import sys

    code = (
        "import os, sys\n"
        "from onenorm.cli import run\n"
        f"status = run(['norm', {chain_path(20)!r}, '--cholesky'])\n"
        "sys.stderr.write(f\"{len(os.listdir('/proc/self/task'))}\\n\")\n"
        "sys.exit(status)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def norm_at(threads):
        pin = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                            str(threads))
        return subprocess.run([sys.executable, "-c", code], timeout=120,
                              env=dict(os.environ, PYTHONPATH=src, **pin),
                              capture_output=True, text=True)

    one, two = norm_at(1), norm_at(2)
    assert (one.returncode, two.returncode) == (0, 0)
    assert one.stderr == "1\n"
    assert one.stdout == two.stdout
    assert "lambda_SF" in json.loads(one.stdout)


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
        "not orthogonal": "nan 0 0\n0 1 0\n0 0 1\n",
        "bad section header": "#SECTION A 2\n1 0\n0 1\n",
        "empty matrix file": "\n// a comment\n\n//\n",
    }
    for message, text in bad.items():
        matrix_path = tmp_path / "m.txt"
        matrix_path.write_text(text)
        code, _, err = invoke(capsys, "rotate", path, "--matrix", str(matrix_path))
        assert code == 1
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["--strict", "localize", "{path}", "--scheme", "er", "--max-sweeps", "-3"], "max_sweeps"),
    (["optimize", "{path}", "--start", "current", "--max-iter", "-1"], "max_iterations"),
    (["localize", "{path}", "--scheme", "er", "--tol", "-1"], "convergence_tol"),
    (["localize", "{path}", "--scheme", "er", "--tol", "nan"], "convergence_tol"),
    (["jacobi-scan", "{path}", "--pair", "0", "1", "--steps", "0"], "--steps"),
    (["jacobi-scan", "{path}", "--pair", "0", "1", "--steps", "-2"], "--steps"),
    (["norm", "{path}", "--cholesky", "--cholesky-tol", "-1"], "Cholesky tolerance"),
    (["norm", "{path}", "--cholesky", "--cholesky-tol", "nan"], "Cholesky tolerance"),
    (["jacobi-scan", "{path}", "--pair", "0", "1", "--max-angle", "nan"], "--max-angle"),
    (["jacobi-scan", "{path}", "--pair", "0", "1", "--max-angle", "inf"], "--max-angle"),
    (["norm", "{path}", "--cholesky-tol", "-1"], "Cholesky tolerance"),
    (["norm", "{path}", "--cholesky-tol", "nan"], "Cholesky tolerance"),
    (["optimize", "{path}", "--window", "0,x"], "expected a comma/space separated index list"),
    (["freeze", "{path}"], "freeze requires --active or --fermi-window"),
])
def test_negative_caps_and_tolerances_are_input_errors(capsys, small_fcidump, argv, message):
    path, _ = small_fcidump
    code, out, err = invoke(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


@requires_fixtures
def test_an_iteration_cap_is_not_convergence(capsys):
    # a zero cap returns the start unmoved, with the subgradient norm there,
    # and that is not convergence
    from onenorm import LocalizationRequest, localize, objective, parse_fcidump
    from onenorm.optimize import _gradient

    ham = parse_fcidump(open(chain_path(4)).read())
    er = localize(ham, None, None, LocalizationRequest(scheme="er"))
    zero = np.zeros(6)
    _, *rotated = objective(er.hamiltonian, zero, full_output=True)
    start_norm = np.max(np.abs(_gradient(zero, range(4), rotated)))
    for algorithm in ("quasi-newton-bounded", "sequential-quadratic"):
        argv = ["optimize", chain_path(4), "--max-iter", "0", "--algorithm", algorithm]
        code, out, _ = invoke(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and not payload["converged"]
        assert payload["stop_reason"] == "max_iterations is 0: returned the start"
        assert payload["iterations"] == 0 and payload["grad_inf_norm"] == start_norm
        assert payload["lambda_final"] == payload["lambda_start"]
        assert invoke(capsys, "--strict", *argv)[0] == 2


@requires_fixtures
def test_convergence_warnings_are_reported_in_the_json(capsys):
    from conftest import chain_path

    argv = ["localize", chain_path(4), "--scheme", "er", "--max-sweeps", "1"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(out)["warnings"] == ["er localization (jacobi) stopped at max_sweeps=1"]
    assert invoke(capsys, *argv)[1] == out
    code, out, _ = invoke(capsys, "localize", chain_path(4), "--scheme", "er")
    assert code == 0 and json.loads(out)["warnings"] == []
    code, out, _ = invoke(capsys, "optimize", chain_path(4), "--max-iter", "1")
    payload = json.loads(out)
    assert code == 0 and not payload["converged"]
    assert payload["warnings"] == [
        f"1-norm optimization did not converge ({payload['stop_reason']}); "
        "returning the best point found"
    ]


@requires_fixtures
def test_warnings_while_reading_the_inputs_are_reported_in_the_json(capsys, tmp_path):
    # the first body line repeated at value + 1: a conflicting duplicate
    lines = open(chain_path(4)).read().splitlines(keepends=True)
    value, indices = lines[4].split(" ", 1)
    lines.insert(5, f"{float(value) + 1.0!r} {indices}")
    path = tmp_path / "duplicate.fcidump"
    path.write_text("".join(lines))
    message = f"line 6: conflicting duplicate for g[1,1,1,1] ({value} -> {float(value) + 1.0!r})"
    for argv in (["localize", "--scheme", "er"], ["optimize", "--start", "current"]):
        code, out, err = invoke(capsys, *argv, str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["warnings"] == [message]


_TOKENS = st.sampled_from(
    ["0", "1", "2", "-1", "0.5", "1.0", "nan", "inf", "-inf", "1e400", "x", ""]
)


@st.composite
def fcidump_texts(draw):
    """FCIDUMP text near the format: small NORB, mutated header and lines."""
    size = st.one_of(st.integers(-1, 6).map(str), st.sampled_from([str(10**20), "x", "1.5", ""]))
    norb, nelec = draw(size), draw(size)
    end = draw(st.sampled_from([" &END", " /", ""]))
    index = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(["x", "1.5"]))
    line = st.tuples(_TOKENS, st.lists(index, min_size=3, max_size=5))
    body = [" ".join([value, *labels]) for value, labels in draw(st.lists(line, max_size=8))]
    return "\n".join([f" &FCI NORB={norb},NELEC={nelec},{end}", *body]) + "\n"


# a valid two-AO auxiliary file for a two-orbital Hamiltonian, section by section
_AUX_SECTIONS = {
    "OVERLAP": (2, 2, ["1.0", "0.0", "0.0", "1.0"]),
    "MO_COEFF": (2, 2, ["1.0", "0.0", "0.0", "1.0"]),
    "AO_ATOM_MAP": (1, 2, ["0", "1"]),
    "ATOMIC_NUMBERS": (1, 2, ["1.0", "1.0"]),
    "DIPOLE_X": (2, 2, ["0.0", "0.1", "0.1", "1.0"]),
    "DIPOLE_Y": (2, 2, ["0.0", "0.0", "0.0", "0.0"]),
    "DIPOLE_Z": (2, 2, ["0.0", "0.0", "0.0", "0.0"]),
}


@st.composite
def aux_texts(draw):
    """The valid auxiliary file with sections dropped, renamed, resized or
    refilled."""
    chunks = []
    for name, (rows, cols, values) in _AUX_SECTIONS.items():
        if draw(st.integers(0, 5)) == 0:
            continue
        name = draw(st.sampled_from([name, name, "BOGUS"]))
        dim = st.integers(-1, 3)
        rows, cols = draw(st.one_of(st.just((rows, cols)), st.tuples(dim, dim)))
        count = abs(rows * cols)  # a count that fits the header, or one that does not
        values = draw(st.one_of(st.just(values), st.lists(_TOKENS, min_size=count, max_size=count),
                                st.lists(_TOKENS, max_size=6)))
        rows = draw(st.sampled_from([rows, rows, "x"]))
        chunks.append(f"#SECTION {name} {rows} {cols}\n{' '.join(values)}\n")
    return "".join(chunks)


@example(" &FCI NORB=100000000000000000000,NELEC=2, &END\n")
@given(fcidump_texts())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_fcidump_is_an_input_error(tmp_path, text):
    path = tmp_path / "fuzz.fcidump"
    path.write_text(text)
    assert run(["norm", str(path)]) in (0, 1)


@example("#SECTION OVERLAP 0 0\n\n")
@example("#SECTION OVERLAP -1 -1\n0\n")
@example("#SECTION AO_ATOM_MAP 1 2\n0 inf\n")
@example("#SECTION OVERLAP 2 2\n1 0 0 1\n#SECTION MO_COEFF 2 0\n\n")
@example("#SECTION DIPOLE_X 1 1\n0\n#SECTION DIPOLE_Y 0 0\n\n#SECTION DIPOLE_Z 1 1\n0\n")
@example("#SECTION OVERLAP 2 2\nnan 0 0 1\n#SECTION MO_COEFF 2 2\n1 0 0 1\n")
@example("#SECTION OVERLAP 2 2\n1 0 0 1\n#SECTION MO_COEFF 2 2\nnan 0 0 1\n")
@example("#SECTION OVERLAP 1 1\n1\n")
@example("#SECTION OVERLAP 2 2\n1 0 0 1\n#SECTION MO_COEFF 2 1\n1 0\n"
         "#SECTION AO_ATOM_MAP 1 2\n0 1\n#SECTION ATOMIC_NUMBERS 1 2\n1 1\n"
         "#SECTION DIPOLE_X 2 2\n0 0.1 0.1 1\n#SECTION DIPOLE_Y 2 2\n0 0 0 0\n"
         "#SECTION DIPOLE_Z 2 2\n0 0 0 0\n")
@given(aux_texts())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_aux_is_an_input_error(tmp_path, text):
    ham = tmp_path / "two_orbitals.fcidump"
    if not ham.exists():
        ham.write_text(write_fcidump(random_hamiltonian(2, np.random.default_rng(3))))
    aux = tmp_path / "fuzz_aux.txt"
    aux.write_text(text)
    for scheme in ("pm", "fb", "oao"):
        assert run(["localize", str(ham), "--scheme", scheme, "--aux", str(aux)]) in (0, 1)
        assert run(["optimize", str(ham), "--start", scheme, "--aux", str(aux),
                    "--max-iter", "2"]) in (0, 1)
