"""The settable surface: every CLI flag and every configuration field, and
the keys of the optimizer's JSON report.

Adding a knob, or bringing back a removed one, has to change this file.
"""

import argparse
import dataclasses
import json

import pytest

from onenorm import LocalizationRequest, OptimizerConfig, write_fcidump
from onenorm.cli import build_parser, run

from conftest import H2_FCIDUMP, random_hamiltonian

SUBCOMMAND_FLAGS = {
    "norm": {"input", "--cholesky", "--cholesky-tol"},
    "classes": {"input", "--csv"},
    "rotate": {"input", "--matrix", "-o", "--output"},
    "jacobi-scan": {"input", "--pair", "--steps", "--max-angle", "--csv"},
    "freeze": {"input", "--frozen", "--active", "--fermi-window",
               "--active-electrons", "-o", "--output"},
    "localize": {"input", "--scheme", "--method", "--aux", "--window", "--tol",
                 "--max-sweeps", "--rotation-out", "-o", "--output"},
    "optimize": {"input", "--start", "--window", "--max-iter", "--tol", "--algorithm",
                 "--aux", "--trace-out", "--rotation-out", "-o", "--output"},
    "oracle-check": {"input"},
    "scaling-fit": {"--csv"},
    "report": {"--baseline", "entries", "--csv"},
    "table-benchmark": {"input", "--aux", "--schemes", "--method", "--optimize",
                        "--algorithm", "--max-iter", "--csv"},
    "scaling-study": {"inputs", "--localize", "--method", "--csv"},
}


def _flags(parser):
    """Option strings, or the name of a positional, of every argument but --help."""
    return {
        flag
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for flag in action.option_strings or [action.dest]
    }


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_cli_flags_are_pinned():
    parser = build_parser()
    assert _flags(parser) == {"--strict"}
    subcommands = _subcommands(parser)
    assert {name: _flags(sub) for name, sub in subcommands.items()} == SUBCOMMAND_FLAGS
    for name in ("optimize", "table-benchmark"):
        algorithm = next(a for a in subcommands[name]._actions if a.dest == "algorithm")
        assert algorithm.choices == ["quasi-newton-bounded", "sequential-quadratic"]


def test_configuration_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
        "window", "max_iterations", "convergence_tol", "algorithm", "start_from",
        "localization_method",
    ]
    assert [f.name for f in dataclasses.fields(LocalizationRequest)] == [
        "scheme", "window", "convergence_tol", "max_sweeps", "method",
    ]


def test_optimize_json_keys_are_pinned(capsys, tmp_path, rng):
    path = tmp_path / "small.fcidump"
    path.write_text(write_fcidump(random_hamiltonian(3, rng)))
    trace_path = tmp_path / "trace.csv"
    assert run(["optimize", str(path), "--max-iter", "5", "--trace-out", str(trace_path)]) == 0
    assert trace_path.read_text().splitlines()[0] == "iteration,lambda_Q,best_so_far"
    assert set(json.loads(capsys.readouterr().out)) == {
        "algorithm", "start", "converged", "iterations", "n_objective_calls",
        "n_gradient_calls", "stop_reason", "grad_inf_norm", "lambda_initial",
        "lambda_start", "lambda_final", "reduction_pct", "norms_after", "output",
        "warnings",
    }


@pytest.mark.parametrize("argv", [
    ["optimize", H2_FCIDUMP, "--restarts", "1"],
    ["localize", H2_FCIDUMP, "--scheme", "er", "--seed", "3"],
    ["optimize", H2_FCIDUMP, "--algorithm", "slsqp"],
    ["optimize", H2_FCIDUMP, "--algorithm", "lbfgsb"],
    ["freeze", H2_FCIDUMP, "--active", "0,1", "--virtual", ""],
    ["--threads", "1", "norm", H2_FCIDUMP],
    ["norm", H2_FCIDUMP, "--pretty"],
])
def test_removed_flags_and_aliases_are_usage_errors(capsys, argv):
    assert run(argv) == 1
    assert "usage:" in capsys.readouterr().err
