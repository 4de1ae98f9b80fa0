"""The bit record: values the package computes on the shipped fixtures.

Prints one JSON object of ``repr`` floats and counts:

- per fixture, lambda_Q in the CMO basis, and lambda_Q and sweeps after
  ER, FB, PM and OAO Jacobi localization;
- per fixture, lambda_V and lambda_V' of the CMO ``norm_report``, and
  lambda_SF and the rank of its Cholesky vectors;
- ER gradient ascent on H2/cc-pVDZ;
- ``onenorm optimize`` with its default flags on H2/cc-pVDZ and H10;
- the criterion-10 SLSQP run on H2/cc-pVDZ (the ER-ascent start);
- the class sums of H2/cc-pVDZ.

``tests/test_bit_record.py`` compares this output, run at one BLAS
thread, with ``tests/bit_record.json`` exactly.  A change that moves bits
regenerates the file, so its diff shows which values moved:

    python tests/bit_record.py --write

``--write`` reruns this script in a child process whose BLAS thread
variables are set to 1 before numpy loads, and writes its output.
"""

import json
import os
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "bit_record.json")
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
SRC = os.path.join(HERE, os.pardir, "src")
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
STEMS = ["h2_ccpvdz"] + [f"hchain_{n:02d}_sto3g" for n in (*range(2, 11), 12, 14, 16, 18, 20)]


def run_pinned() -> str:
    """This script's output, from a child process at one BLAS thread."""
    return subprocess.run([sys.executable, os.path.abspath(__file__)], check=True,
                          timeout=300, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC, **ONE_THREAD)).stdout


def _read(stem, kind):
    with open(os.path.join(FIXTURES, f"{stem}_{kind}"), encoding="utf-8") as handle:
        return handle.read()


def record() -> dict:
    # imported here, in the child, which has src/ on its path
    from onenorm import (
        LocalizationRequest, OptimizerConfig, cholesky_decompose, class_decomposition, lambda_q,
        lambda_sf, localize, minimize_norm, norm_report, parse_auxiliary, parse_fcidump,
    )

    def optimized(ham, config):
        r = minimize_norm(ham, config)
        return {"start": r.start_scheme, "lambda_start": r.lambda_start,
                "lambda_final": r.lambda_final, "objective_calls": r.n_objective_calls,
                "gradient_calls": r.n_gradient_calls}

    fixtures = {}
    for stem in STEMS:
        ham = parse_fcidump(_read(stem, "cmo.fcidump"))
        aux = parse_auxiliary(_read(stem, "aux.txt"))
        row = {"cmo": lambda_q(ham)}
        report = norm_report(ham)
        chol = cholesky_decompose(ham)  # as norm_report(with_cholesky=True) runs it
        row["cmo_norms"] = {"lambda_V_lee": report.lambda_V_lee,
                            "lambda_V_prime": report.lambda_V_prime,
                            "lambda_SF": lambda_sf(chol),
                            "cholesky_rank": chol.rank}
        for scheme in ("er", "fb", "pm", "oao"):
            loc = localize(ham, None, aux, LocalizationRequest(scheme=scheme))
            row[scheme] = [lambda_q(loc.hamiltonian), loc.sweeps]
        fixtures[stem] = row
    h2 = parse_fcidump(_read("h2_ccpvdz", "cmo.fcidump"))
    ascent = localize(h2, None, None, LocalizationRequest(scheme="er", method="ascent"))
    return {
        "fixtures": fixtures,
        "h2_er_ascent": [lambda_q(ascent.hamiltonian), ascent.sweeps],
        "h2_optimize_default": optimized(h2, OptimizerConfig()),
        "h10_optimize_default": optimized(
            parse_fcidump(_read("hchain_10_sto3g", "cmo.fcidump")), OptimizerConfig()),
        "h2_slsqp_criterion_10": optimized(h2, OptimizerConfig(
            start_from="localized:er", localization_method="ascent",
            algorithm="sequential-quadratic", max_iterations=400)),
        "h2_class_sums": class_decomposition(h2),
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        text = run_pinned()
        with open(RECORD, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        warnings.simplefilter("ignore")
        sys.stdout.write(json.dumps(record(), indent=1) + "\n")
