"""The benchmark's workloads: inputs, timed steps and output checks.

Each workload has three parts:

``setup(root, seed, smoke)``
    reads fixtures or builds synthetic data; not timed as part of the run.
``run(inputs)``
    the timed steps, calling the package only through its modules'
    attributes so that the tracer's wrappers see every call.
``check(inputs, out, smoke)``
    returns ``[(name, passed), ...]``.  The reference bands of the shipped
    molecules apply to full-size inputs only; structural checks always run.

Only ``dense_n50`` uses the seed.  ``h2_optimize`` and ``chain_scaling``
run the shipped fixtures as they are, whatever the seed.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np

fcidump = importlib.import_module("onenorm.fcidump")
integrals = importlib.import_module("onenorm.integrals")
transform = importlib.import_module("onenorm.transform")
norms = importlib.import_module("onenorm.norms")
localize = importlib.import_module("onenorm.localize")
optimize = importlib.import_module("onenorm.optimize")
analysis = importlib.import_module("onenorm.analysis")
errors = importlib.import_module("onenorm.errors")

CHAIN_SIZES = tuple(range(2, 11)) + (12, 14, 16, 18, 20)
SMOKE_CHAIN_SIZES = (2, 3, 4)


def _read(root, name):
    with open(root / "fixtures" / name, encoding="utf-8") as handle:
        return handle.read()


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _norm_order(report):
    """lambda_V' <= lambda_V (<= lambda_SF when it was computed)."""
    ok = report.lambda_V_prime <= report.lambda_V_lee * (1 + 1e-12)
    if report.lambda_SF is not None:
        ok = ok and report.lambda_V_lee <= report.lambda_SF * (1 + 1e-12)
    return ok


class H2Optimize:
    """Criterion-10 row: H2/cc-pVDZ (N=10), ER ascent start, SLSQP."""

    name = "h2_optimize"

    def setup(self, root, seed, smoke):
        return {"text": _read(root, "h2_ccpvdz_cmo.fcidump"),
                "max_iterations": 2 if smoke else 400}

    def run(self, inputs):
        ham = fcidump.parse_fcidump(inputs["text"])
        report_cmo = norms.norm_report(ham)
        er = localize.localize(
            ham, None, None, localize.LocalizationRequest(scheme="er", method="ascent")
        )
        config = optimize.OptimizerConfig(
            start_from="localized:er",
            localization_method="ascent",
            algorithm="sequential-quadratic",
            max_iterations=inputs["max_iterations"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.ConvergenceWarning)
            result = optimize.minimize_norm(ham, config)
        report_final = norms.norm_report(result.hamiltonian)
        return {"report_cmo": report_cmo, "er": er, "result": result,
                "report_final": report_final}

    def lambda_final(self, out):
        return out["result"].lambda_final

    def check(self, inputs, out, smoke):
        result = out["result"]
        lam_cmo = out["report_cmo"].lambda_Q_no_const
        checks = [
            ("optimizer_never_regresses", result.lambda_final <= result.lambda_start),
            ("final_report_matches_optimizer",
             _close(out["report_final"].lambda_Q_no_const, result.lambda_final, 1e-8)),
            ("initial_is_parsed_cmo", _close(result.lambda_initial, lam_cmo, 1e-12)),
            ("norm_order_cmo", _norm_order(out["report_cmo"])),
            ("norm_order_final", _norm_order(out["report_final"])),
        ]
        if not smoke:
            lam_er = norms.lambda_q(out["er"].hamiltonian)
            reduction = 100.0 * (1.0 - result.lambda_final / lam_cmo)
            checks += [
                ("cmo_101_pm_1", abs(lam_cmo - 101.0) <= 1.0),
                ("er_le_94", lam_er <= 94.0),
                ("lambda_final_le_91", result.lambda_final <= 91.0),
                ("reduction_10.9_pm_0.5", abs(reduction - 10.9) <= 0.5),
            ]
        return checks


class ChainScaling:
    """H2..H20 STO-3G: norms, ER Jacobi localization, write, both fits."""

    name = "chain_scaling"

    def setup(self, root, seed, smoke):
        sizes = SMOKE_CHAIN_SIZES if smoke else CHAIN_SIZES
        return {"chains": [(n, _read(root, f"hchain_{n:02d}_sto3g_cmo.fcidump"))
                           for n in sizes]}

    def run(self, inputs):
        rows = []
        for size, text in inputs["chains"]:
            ham = fcidump.parse_fcidump(text)
            lam_cmo = norms.lambda_q(ham)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", errors.ConvergenceWarning)
                loc = localize.localize(
                    ham, None, None, localize.LocalizationRequest(scheme="er")
                )
            lam_loc = norms.lambda_q(loc.hamiltonian)
            written = fcidump.write_fcidump(loc.hamiltonian)
            report = norms.norm_report(loc.hamiltonian, with_cholesky=True)
            rows.append({"size": size, "lam_cmo": lam_cmo, "lam_loc": lam_loc,
                         "localized": loc.hamiltonian, "written": written,
                         "report": report})
        fit_cmo = analysis.fit_scaling([(r["size"], r["lam_cmo"]) for r in rows])
        fit_loc = analysis.fit_scaling([(r["size"], r["lam_loc"]) for r in rows])
        return {"rows": rows, "fit_cmo": fit_cmo, "fit_loc": fit_loc}

    def lambda_final(self, out):
        return out["rows"][-1]["lam_loc"]

    def check(self, inputs, out, smoke):
        checks = []
        for row in out["rows"]:
            size = row["size"]
            checks += [
                (f"h{size}_round_trip", _round_trip_exact(row["localized"], row["written"])),
                (f"h{size}_report_matches_lambda_q",
                 _close(row["report"].lambda_Q_no_const, row["lam_loc"], 1e-12)),
                (f"h{size}_norm_order", _norm_order(row["report"])),
            ]
        if not smoke:
            checks += [
                ("cmo_exponent_2.31_pm_0.15", abs(out["fit_cmo"].alpha - 2.31) <= 0.15),
                ("er_exponent_1.34_pm_0.15", abs(out["fit_loc"].alpha - 1.34) <= 0.15),
            ]
        return checks


def _round_trip_exact(ham, text):
    """parse_fcidump(write_fcidump(H)) reproduces what the file holds, bit for bit.

    An FCIDUMP file holds each symmetric pair once: the canonical packed
    two-body entries and the lower triangle of h.  write_fcidump omits
    entries of magnitude 1e-12 or less, so those must read back as exactly
    zero.  The upper triangle of h is not in the file; a rotated h can
    differ from its transpose in the last bit, so it is not compared.
    """
    back = fcidump.parse_fcidump(text)
    lower = np.tril_indices(ham.n_orbitals)

    def kept(values):
        return np.where(np.abs(values) > 1e-12, values, 0.0)

    return (
        back.n_orbitals == ham.n_orbitals
        and back.n_electrons == ham.n_electrons
        and back.core_constant == ham.core_constant
        and np.array_equal(back.one_body[lower], kept(ham.one_body[lower]))
        and np.array_equal(back.two_body, kept(ham.two_body))
    )


class DenseN50:
    """Seeded PSD Hamiltonian, N=50 and rank 100, from symmetric factors."""

    name = "dense_n50"

    def setup(self, root, seed, smoke):
        n = 6 if smoke else 50
        rank = 2 * n
        rng = np.random.default_rng(seed)
        factors = rng.standard_normal((rank, n, n)) / np.sqrt(rank)
        factors = (factors + factors.transpose(0, 2, 1)).reshape(rank, n * n)
        dense = (factors.T @ factors).reshape(n, n, n, n)
        one_body = rng.standard_normal((n, n))
        ham = integrals.MolecularHamiltonian.from_dense(
            core_constant=rng.standard_normal(),
            one_body=one_body + one_body.T,
            two_body_dense=dense,
            n_electrons=n,
        )
        generator = transform.AntisymmetricGenerator(
            dim=n, params=0.1 * rng.standard_normal(n * (n - 1) // 2)
        )
        return {"ham": ham, "generator": generator}

    def run(self, inputs):
        ham = inputs["ham"]
        report = norms.norm_report(ham, with_cholesky=True)
        rotation = transform.exp_generator(inputs["generator"])
        rotated = transform.rotate_hamiltonian(ham, rotation)
        report_rotated = norms.norm_report(rotated, with_cholesky=True)
        return {"report": report, "rotated": rotated, "report_rotated": report_rotated}

    def lambda_final(self, out):
        return out["report_rotated"].lambda_Q_no_const

    def check(self, inputs, out, smoke):
        ham, rotated = inputs["ham"], out["rotated"]
        report, report_rotated = out["report"], out["report_rotated"]
        return [
            ("norm_order", _norm_order(report)),
            ("norm_order_rotated", _norm_order(report_rotated)),
            ("lambda_c_rotation_invariant",
             abs(report_rotated.lambda_C - report.lambda_C)
             <= 1e-9 * max(abs(report.lambda_C), 1.0)),
            ("lambda_q_matches_reference",
             _close(report.lambda_Q_no_const,
                    reference_lambda_q(ham.one_body, ham.two_body_dense()), 1e-10)),
            ("lambda_q_rotated_matches_reference",
             _close(report_rotated.lambda_Q_no_const,
                    reference_lambda_q(rotated.one_body, rotated.two_body_dense()),
                    1e-10)),
        ]


def reference_lambda_q(h, g):
    """lambda_T + lambda_V' straight from the README formulas, by einsum."""
    n = h.shape[0]
    t = h + np.einsum("pqrr->pq", g) - 0.5 * np.einsum("prrq->pq", g)
    below = np.tril(np.ones((n, n)), -1)  # below[p, r] = [p > r]
    antisym = np.abs(g - g.transpose(0, 3, 2, 1))  # |g_pqrs - g_psrq|
    lambda_v_prime = (0.5 * np.einsum("pqrs,pr,sq->", antisym, below, below)
                      + 0.25 * np.abs(g).sum())
    return float(np.abs(t).sum() + lambda_v_prime)


WORKLOADS = {w.name: w for w in (H2Optimize(), ChainScaling(), DenseN50())}
