"""Command-line interface.

Every subcommand reads FCIDUMP (and optionally auxiliary labeled-matrix)
files, emits JSON to stdout by default (CSV behind ``--csv`` where the
output is tabular), and exits 0 on success, 1 on input errors (argparse
usage errors included), 2 on numerical failures (non-PSD tensors, or
non-convergence under --strict).
Identical argv and inputs produce byte-identical stdout at a fixed BLAS
thread count, which comes from OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS /
MKL_NUM_THREADS) as set before the process starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import analysis, fcidump, norms, qubit_oracle
from .errors import ConvergenceWarning, DataWarning, InputError, NumericalError
from .localize import METHODS as LOCALIZE_METHODS
from .localize import SCHEMES as LOCALIZE_SCHEMES
from .localize import LocalizationRequest
from .localize import localize as run_localize
from .optimize import _ALGORITHMS as OPTIMIZER_ALGORITHMS
from .optimize import OptimizerConfig, jacobi_rotation_norm_scan, minimize_norm
from .integrals import ActiveSpaceSpec, class_decomposition
from .transform import OrbitalRotation, freeze_core, rotate_hamiltonian

__all__ = ["main", "run"]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot open {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from None


def _load_hamiltonian(path: str):
    return fcidump.parse_fcidump(_read_text(path))


def _load_aux(path: str | None):
    if path is None:
        return None
    return fcidump.parse_auxiliary(_read_text(path))


def _write_output(path: str | None, text: str):
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror}") from exc


def _write_result(args, result):
    """--output gets the rotated FCIDUMP, --rotation-out the rotation matrix."""
    _write_output(args.output, fcidump.write_fcidump(result.hamiltonian))
    _write_output(args.rotation_out, fcidump.write_labeled_matrix("ROTATION", result.rotation.matrix))


def _emit(args, payload, csv_text: str | None = None):
    """``csv_text`` under ``--csv`` where the output is tabular, else the JSON payload."""
    as_csv = getattr(args, "csv", False) and csv_text is not None
    sys.stdout.write(csv_text if as_csv else json.dumps(payload, sort_keys=True, indent=2) + "\n")


def integer(text: str) -> int:
    """An integer flag under the input files' number grammar (argparse prints this name)."""
    return fcidump.parse_number(text, int)


def _parse_indices(text: str | None):
    """The entries of an index list under the number grammar of the input
    files: an int where written as one, else a float for the integer rule."""
    if text is None or text == "":
        return None
    try:
        return tuple(fcidump.parse_number(tok, int if tok.lstrip("+-").isdigit() else float)
                     for tok in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"expected a comma/space separated index list, got {text!r}") from None


def _norms_payload(ham, with_cholesky=False, tolerance=norms.CHOLESKY_TOL):
    return norms.norm_report(
        ham, with_cholesky=with_cholesky, cholesky_tolerance=tolerance
    ).to_dict()


def _cmd_norm(args):
    ham = _load_hamiltonian(args.input)
    _emit(args, _norms_payload(ham, args.cholesky, args.cholesky_tol))
    return 0


def _cmd_classes(args):
    ham = _load_hamiltonian(args.input)
    sums = class_decomposition(ham)
    _emit(args, sums, analysis.to_csv(("class", "sum_abs_g"), sorted(sums.items())))
    return 0


def _cmd_rotate(args):
    ham = _load_hamiltonian(args.input)
    matrix = fcidump.read_labeled_matrix(_read_text(args.matrix))
    rotated = rotate_hamiltonian(ham, OrbitalRotation(matrix))
    _write_output(args.output, fcidump.write_fcidump(rotated))
    _emit(
        args,
        {
            "norms_before": _norms_payload(ham),
            "norms_after": _norms_payload(rotated),
            "output": args.output,
        },
    )
    return 0


def _cmd_jacobi_scan(args):
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    if not np.isfinite(args.max_angle):
        raise InputError(f"--max-angle must be finite, got {args.max_angle}")
    ham = _load_hamiltonian(args.input)
    p, q = args.pair
    thetas = [args.max_angle * k / args.steps for k in range(args.steps + 1)]
    values = jacobi_rotation_norm_scan(ham, p, q, thetas)
    rows = [{"theta": t, "lambda_Q": v} for t, v in zip(thetas, values)]
    _emit(args, rows, analysis.to_csv(("theta", "lambda_Q"), zip(thetas, values)))
    return 0


def _cmd_freeze(args):
    listed = [flag for flag, value in (("--frozen", args.frozen), ("--active", args.active))
              if value is not None]
    if args.fermi_window is not None and listed:
        raise InputError("--fermi-window picks the frozen and active orbitals; "
                         f"it cannot be combined with {' or '.join(listed)}")
    ham = _load_hamiltonian(args.input)
    if args.fermi_window is not None:
        spec = ActiveSpaceSpec.around_fermi(
            ham.n_orbitals,
            ham.n_electrons,
            args.fermi_window,
            args.active_electrons,
        )
    else:
        frozen = _parse_indices(args.frozen) or ()
        active = _parse_indices(args.active)
        if active is None:
            raise InputError("freeze requires --active or --fermi-window")
        spec = ActiveSpaceSpec(
            frozen=frozen, active=active, n_active_electrons=args.active_electrons
        )
    active_ham, shift = freeze_core(ham, spec)
    _write_output(args.output, fcidump.write_fcidump(active_ham))
    _emit(
        args,
        {
            "n_active_orbitals": active_ham.n_orbitals,
            "shift": shift,
            "core_constant": active_ham.core_constant,
            "norms_active": _norms_payload(active_ham),
            "output": args.output,
        },
    )
    return 0


@contextmanager
def _recording_warnings():
    """Record the warnings raised in the block, the reading of its inputs
    included; yields the list their sorted messages go into."""
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        warnings.simplefilter("always", DataWarning)
        yield messages
    messages.extend(sorted(str(w.message) for w in caught))


def _cmd_localize(args):
    with _recording_warnings() as caught:
        ham = _load_hamiltonian(args.input)
        aux = _load_aux(args.aux)
        request = LocalizationRequest(
            scheme=args.scheme,
            window=_parse_indices(args.window),
            convergence_tol=args.tol,
            max_sweeps=args.max_sweeps,
            method=args.method,
        )
        result = run_localize(ham, None, aux, request)
    if args.strict and not result.converged:
        raise NumericalError(
            f"{args.scheme} localization ({args.method}) did not converge "
            f"within --max-sweeps {args.max_sweeps}"
        )
    _write_result(args, result)
    _emit(
        args,
        {
            "scheme": result.scheme,
            "method": request.method,
            "converged": result.converged,
            "sweeps": result.sweeps,
            "objective_per_sweep": list(result.objective_per_sweep),
            "norms_before": _norms_payload(ham),
            "norms_after": _norms_payload(result.hamiltonian),
            "output": args.output,
            "warnings": caught,
        },
    )
    return 0


def _cmd_optimize(args):
    with _recording_warnings() as caught:
        ham = _load_hamiltonian(args.input)
        aux = _load_aux(args.aux)
        start = args.start if args.start == "current" else f"localized:{args.start}"
        config = OptimizerConfig(
            window=_parse_indices(args.window),
            max_iterations=args.max_iter,
            convergence_tol=args.tol,
            algorithm=args.algorithm,
            start_from=start,
        )
        result = minimize_norm(ham, config, aux)
    if args.strict and not result.converged:
        raise NumericalError(f"1-norm optimization did not converge: {result.stop_reason}")
    _write_result(args, result)
    if args.trace_out:
        _write_output(args.trace_out, analysis.to_csv(
            ("iteration", "lambda_Q", "best_so_far"),
            ((r.iteration, r.lambda_value, r.best_so_far) for r in result.trace)))
    _emit(
        args,
        {
            "algorithm": config.algorithm,
            "start": result.start_scheme or "current",
            "converged": result.converged,
            "iterations": len(result.trace),
            "n_objective_calls": result.n_objective_calls,
            "n_gradient_calls": result.n_gradient_calls,
            "stop_reason": result.stop_reason,
            "grad_inf_norm": result.grad_inf_norm,
            "lambda_initial": result.lambda_initial,
            "lambda_start": result.lambda_start,
            "lambda_final": result.lambda_final,
            "reduction_pct": result.reduction_percent,
            "norms_after": _norms_payload(result.hamiltonian),
            "output": args.output,
            "warnings": caught,
        },
    )
    return 0


def _cmd_oracle_check(args):
    ham = _load_hamiltonian(args.input)
    term_sum = qubit_oracle.jordan_wigner_expand(ham)
    formula = norms.lambda_q(ham)
    oracle = qubit_oracle.lambda_q_oracle(term_sum)
    _emit(
        args,
        {
            "lambda_formula": formula,
            "lambda_oracle": oracle,
            "difference": abs(formula - oracle),
            "sparsity": qubit_oracle.sparsity_count(term_sum),
            "n_qubits": term_sum.n_qubits,
        },
    )
    return 0


def _cmd_scaling_fit(args):
    lines = enumerate(_read_text(args.csv_file).splitlines(), 1)
    rows = [(number, line.strip()) for number, line in lines if line.strip()]
    points = []
    for index, (number, line) in enumerate(rows):
        try:
            n, lam = (fcidump.parse_number(t) for t in line.replace(",", " ").split()[:2])
        except ValueError:
            if index == 0:
                continue  # header row
            raise InputError(f"line {number} is not a row of N, lambda: {line!r}") from None
        points.append((n, lam))
    fit = analysis.fit_scaling(points)
    _emit(args, fit.to_dict())
    return 0


def _cmd_report(args):
    entries = []
    for item in args.entries:
        if "=" not in item:
            raise InputError(f"report entries look like label=path, got {item!r}")
        label, path = item.split("=", 1)
        entries.append((label, norms.norm_report(_load_hamiltonian(path))))
    rows = analysis.aggregate_report(entries, baseline=args.baseline)
    _emit(args, rows, analysis.to_csv(analysis.REPORT_COLUMNS, (row.values() for row in rows)))
    return 0


def _check_strict(args, unconverged):
    """Under --strict, runs that did not converge are a numerical failure."""
    if args.strict and unconverged:
        raise NumericalError(f"did not converge: {', '.join(unconverged)}")


def _cmd_table_benchmark(args):
    with _recording_warnings() as caught:
        ham = _load_hamiltonian(args.input)
        aux = _load_aux(args.aux)
        entries, runs = [("cmo", norms.norm_report(ham))], []
        for scheme in filter(None, (s.strip().lower() for s in args.schemes.split(","))):
            request = LocalizationRequest(scheme=scheme, method=args.method)
            result = run_localize(ham, None, aux, request)
            entries.append((scheme, norms.norm_report(result.hamiltonian)))
            runs.append({"label": scheme, "converged": result.converged,
                         "sweeps": result.sweeps})
        if args.optimize:
            config = OptimizerConfig(start_from="localized:er", localization_method=args.method,
                                     algorithm=args.algorithm, max_iterations=args.max_iter)
            result = minimize_norm(ham, config, aux)
            entries.append(("optimizer", norms.norm_report(result.hamiltonian)))
            runs.append({"label": "optimizer", "converged": result.converged,
                         "n_objective_calls": result.n_objective_calls,
                         "n_gradient_calls": result.n_gradient_calls})
    _check_strict(args, [run["label"] for run in runs if not run["converged"]])
    rows = analysis.aggregate_report(entries, baseline="cmo")
    _emit(args, {"rows": rows, "runs": runs, "warnings": caught},
          analysis.to_csv(analysis.REPORT_COLUMNS, (row.values() for row in rows)))
    return 0


def _cmd_scaling_study(args):
    columns = ["size", "lambda_cmo"] + (["lambda_localized"] if args.localize else [])
    request = (LocalizationRequest(scheme=args.localize, method=args.method)
               if args.localize else None)
    with _recording_warnings() as caught:
        points, unconverged = [], []
        for path in sorted(args.inputs):
            ham = _load_hamiltonian(path)
            point = {"path": path, "size": ham.n_orbitals, "lambda_cmo": norms.lambda_q(ham)}
            if request:
                aux_path = path.removesuffix("_cmo.fcidump") + "_aux.txt"
                aux = None if request.scheme == "er" else _load_aux(aux_path)
                result = run_localize(ham, None, aux, request)
                point["lambda_localized"] = norms.lambda_q(result.hamiltonian)
                if not result.converged:
                    unconverged.append(path)
            points.append(point)
    _check_strict(args, unconverged)
    payload = {"points": points, "warnings": caught}
    for column, key in zip(columns[1:], ("fit_cmo", "fit_localized")):
        payload[key] = analysis.fit_scaling([(p["size"], p[column]) for p in points]).to_dict()
    _emit(args, payload, analysis.to_csv(columns, ([p[c] for c in columns] for p in points)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onenorm",
        description="Pauli 1-norms of electronic-structure Hamiltonians",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when an iterative method fails to converge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="all 1-norm variants of a Hamiltonian")
    p.add_argument("input")
    p.add_argument("--cholesky", action="store_true", help="include lambda_SF")
    p.add_argument("--cholesky-tol", type=float, default=norms.CHOLESKY_TOL)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("classes", help="seven-class |g| decomposition")
    p.add_argument("input")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("rotate", help="apply an orthogonal rotation matrix")
    p.add_argument("input")
    p.add_argument("--matrix", required=True, help="rotation matrix file")
    p.add_argument("-o", "--output", help="write rotated FCIDUMP here")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("jacobi-scan", help="lambda_Q along a single pair rotation")
    p.add_argument("input")
    p.add_argument("--pair", nargs=2, type=integer, required=True, metavar=("P", "Q"))
    p.add_argument("--steps", type=integer, default=32)
    p.add_argument("--max-angle", type=float, default=float(np.pi / 2))
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_jacobi_scan)

    p = sub.add_parser("freeze", help="fold frozen orbitals into an active-space Hamiltonian")
    p.add_argument("input")
    p.add_argument("--frozen", default=None, help="comma list of frozen orbitals")
    p.add_argument("--active", default=None,
                   help="comma list of active orbitals; unlisted orbitals are deleted")
    p.add_argument("--fermi-window", type=integer, default=None,
                   help="pick this many active orbitals around the Fermi level")
    p.add_argument("--active-electrons", type=integer, default=0)
    p.add_argument("-o", "--output", help="write active-space FCIDUMP here")
    p.set_defaults(func=_cmd_freeze)

    request = LocalizationRequest(scheme="er")  # the defaults of every other field
    p = sub.add_parser("localize", help="orbital localization")
    p.add_argument("input")
    p.add_argument("--scheme", required=True, choices=list(LOCALIZE_SCHEMES))
    p.add_argument("--method", default=request.method, choices=list(LOCALIZE_METHODS),
                   help="maximizer for the MO schemes (default: %(default)s)")
    p.add_argument("--aux", help="auxiliary labeled-matrix file")
    p.add_argument("--window", default=None, help="comma list of orbitals to mix")
    p.add_argument("--tol", type=float, default=request.convergence_tol)
    p.add_argument("--max-sweeps", type=integer, default=request.max_sweeps,
                   help="cap on Jacobi sweeps or ascent iterations (default: %(default)s)")
    p.add_argument("--rotation-out", help="write the rotation matrix here")
    p.add_argument("-o", "--output", help="write localized FCIDUMP here")
    p.set_defaults(func=_cmd_localize)

    config = OptimizerConfig()
    p = sub.add_parser("optimize", help="minimize lambda_Q over orbital rotations")
    p.add_argument("input")
    p.add_argument("--start", default=config.start_scheme(),
                   choices=["current", *LOCALIZE_SCHEMES],
                   help="starting basis (default: %(default)s-localized)")
    p.add_argument("--window", default=None)
    p.add_argument("--max-iter", type=integer, default=config.max_iterations,
                   help="cap on the solver's iterations over the whole run; "
                        "0 returns the start (default: %(default)s)")
    p.add_argument("--tol", type=float, default=config.convergence_tol)
    p.add_argument("--algorithm", default=config.algorithm,
                   choices=list(OPTIMIZER_ALGORITHMS))
    p.add_argument("--aux", help="auxiliary file (needed by pm/fb/oao starts)")
    p.add_argument("--trace-out", help="write the per-iteration CSV trace here")
    p.add_argument("--rotation-out", help="write the rotation matrix here")
    p.add_argument("-o", "--output", help="write optimized FCIDUMP here")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("oracle-check", help="compare formula lambda_Q with the Pauli expansion")
    p.add_argument("input")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("scaling-fit", help="power-law fit of (N, lambda) points")
    p.add_argument("--csv", dest="csv_file", required=True,
                   help="CSV file with N,lambda columns")
    p.set_defaults(func=_cmd_scaling_fit)

    p = sub.add_parser("report", help="tabulate norm reports against a baseline")
    p.add_argument("--baseline", required=True, help="label of the reference entry")
    p.add_argument("entries", nargs="+", metavar="label=path")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("table-benchmark",
                       help="lambda_Q in the input basis, localized bases and the optimizer's")
    p.add_argument("input")
    p.add_argument("--aux", help="auxiliary file (needed by fb/pm/oao)")
    p.add_argument("--schemes", default="er", help="comma list from {er,fb,pm,oao}")
    p.add_argument("--method", default=request.method, choices=list(LOCALIZE_METHODS),
                   help="maximizer for the schemes and the optimizer's ER start")
    p.add_argument("--optimize", action="store_true",
                   help="also minimize lambda_Q from the ER basis")
    p.add_argument("--algorithm", default="sequential-quadratic",
                   choices=list(OPTIMIZER_ALGORITHMS))
    p.add_argument("--max-iter", type=integer, default=300)
    p.add_argument("--csv", action="store_true", help="CSV of the rows instead of JSON")
    p.set_defaults(func=_cmd_table_benchmark)

    p = sub.add_parser("scaling-study", help="power-law fits of lambda_Q over FCIDUMP files")
    p.add_argument("inputs", nargs="+", metavar="input")
    p.add_argument("--localize", choices=list(LOCALIZE_SCHEMES),
                   help="also fit this scheme's localized basis; fb/pm/oao read the "
                        "<stem>_aux.txt beside each <stem>_cmo.fcidump")
    p.add_argument("--method", default=request.method, choices=list(LOCALIZE_METHODS))
    p.add_argument("--csv", action="store_true", help="CSV of the points instead of JSON")
    p.set_defaults(func=_cmd_scaling_study)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
