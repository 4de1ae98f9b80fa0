#!/usr/bin/env python3
"""Benchmark lambda_Q across orbital bases for one Hamiltonian.

Runs CMO (as parsed), each requested localization scheme, and the direct
1-norm optimizer, then prints the comparison table with percent reductions
against the CMO baseline.

Example:
  python scripts/table_benchmark.py fixtures/h2_ccpvdz_cmo.fcidump \
      --aux fixtures/h2_ccpvdz_aux.txt --schemes er,fb,pm,oao \
      --optimize --csv out.csv

``--method ascent`` applies to er (and oao, which ignores it); fb and pm
take the default ``jacobi``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from onenorm import (
    LocalizationRequest,
    OptimizerConfig,
    localize,
    minimize_norm,
    norm_report,
    parse_auxiliary,
    parse_fcidump,
)
from onenorm.analysis import REPORT_COLUMNS, aggregate_report, to_csv
from onenorm.localize import METHODS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fcidump")
    parser.add_argument("--aux", help="auxiliary file (needed for fb/pm/oao)")
    parser.add_argument("--schemes", default="er",
                        help="comma list from {er,fb,pm,oao}")
    parser.add_argument("--method", default="jacobi", choices=METHODS)
    parser.add_argument("--optimize", action="store_true",
                        help="also run the direct optimizer from the ER basis")
    parser.add_argument("--algorithm", default="sequential-quadratic")
    parser.add_argument("--max-iter", type=int, default=300)
    parser.add_argument("--csv", help="write the table here as CSV")
    args = parser.parse_args()

    ham = parse_fcidump(open(args.fcidump).read())
    aux = parse_auxiliary(open(args.aux).read()) if args.aux else None
    coeff = aux.mo_coefficients if aux is not None else None

    entries = [("cmo", norm_report(ham))]
    for scheme in args.schemes.split(","):
        scheme = scheme.strip().lower()
        if not scheme:
            continue
        request = LocalizationRequest(scheme=scheme, method=args.method)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = localize(ham, coeff, aux, request)
        entries.append((scheme, norm_report(result.hamiltonian)))
        print(f"{scheme}: converged={result.converged} sweeps={result.sweeps}",
              file=sys.stderr)

    if args.optimize:
        config = OptimizerConfig(
            start_from="localized:er",
            localization_method=args.method,
            algorithm=args.algorithm,
            max_iterations=args.max_iter,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            opt = minimize_norm(ham, config, aux=aux, coeff=coeff)
        entries.append(("optimizer", norm_report(opt.hamiltonian)))
        print(f"optimizer: converged={opt.converged} calls={opt.n_objective_calls} "
              f"gradients={opt.n_gradient_calls}", file=sys.stderr)

    rows = aggregate_report(entries, baseline="cmo")
    print(json.dumps(rows, indent=2, sort_keys=True))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(REPORT_COLUMNS, (row.values() for row in rows)))


if __name__ == "__main__":
    main()
