#!/usr/bin/env python3
"""Fit the growth exponent of lambda_Q over a family of Hamiltonians.

Takes FCIDUMP files labelled by system size, computes lambda_Q in the
parsed (canonical) basis and optionally after localization, and fits
log(lambda) = alpha log(N) + beta for each series.  The fb and pm schemes
read each ``<stem>_cmo.fcidump``'s MO coefficients and AO data from the
``<stem>_aux.txt`` beside it, as ``generate_fixtures.py`` writes them.

Example:
  python scripts/scaling_study.py --localize er \
      $(ls fixtures/hchain_*_sto3g_cmo.fcidump) --csv chains.csv
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings

from onenorm import (
    LocalizationRequest,
    fit_scaling,
    lambda_q,
    localize,
    parse_auxiliary,
    parse_fcidump,
)
from onenorm.analysis import to_csv
from onenorm.localize import METHODS


def size_from_name(path, ham):
    match = re.search(r"(\d+)", path.rsplit("/", 1)[-1])
    return int(match.group(1)) if match else ham.n_orbitals


def load_aux(path):
    """The auxiliary data beside ``<stem>_cmo.fcidump``; exits if it is absent."""
    aux_path = re.sub(r"_cmo\.fcidump$", "", path) + "_aux.txt"
    if not os.path.exists(aux_path):
        sys.exit(f"error: {path} needs auxiliary data in {aux_path}, which does not exist")
    with open(aux_path, encoding="utf-8") as handle:
        return parse_auxiliary(handle.read())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fcidumps", nargs="+")
    parser.add_argument("--localize", default=None,
                        help="also fit this scheme's localized basis (er/fb/pm)")
    parser.add_argument("--method", default="jacobi", choices=METHODS)
    parser.add_argument("--size-from", default="name", choices=["name", "orbitals"],
                        help="system size: first integer in the filename, or N")
    parser.add_argument("--csv", help="write the per-system values here")
    args = parser.parse_args()

    rows = []
    for path in sorted(args.fcidumps):
        ham = parse_fcidump(open(path).read())
        size = size_from_name(path, ham) if args.size_from == "name" else ham.n_orbitals
        row = {"path": path, "size": size, "lambda_cmo": lambda_q(ham)}
        if args.localize:
            request = LocalizationRequest(scheme=args.localize, method=args.method)
            aux = None if request.scheme == "er" else load_aux(path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = localize(ham, None, aux, request)
            row["lambda_localized"] = lambda_q(result.hamiltonian)
        rows.append(row)

    payload = {"points": rows}
    fit = fit_scaling([(r["size"], r["lambda_cmo"]) for r in rows])
    payload["fit_cmo"] = fit.to_dict()
    if args.localize:
        fit_loc = fit_scaling([(r["size"], r["lambda_localized"]) for r in rows])
        payload["fit_localized"] = fit_loc.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))

    if args.csv:
        columns = ["size", "lambda_cmo"] + (["lambda_localized"] if args.localize else [])
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(columns, ([row[c] for c in columns] for row in rows)))


if __name__ == "__main__":
    main()
