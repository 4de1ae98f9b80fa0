"""One-line mutants of ``src/``, each with the tests that must fail on it.

    python tests/mutants.py

Each mutant replaces one exact line of a module (compared without its
indentation) in a temporary copy of ``src/``, ``tests/`` and ``fixtures/``;
the checkout is never written.  Only the mutant's named tests run, in that
copy, at one BLAS thread, and the mutant is killed when one of them fails.
The exit code is 1 if a mutant survives, unless its entry says why it is
equivalent on every input, and 2 if an entry no longer applies (its old
line is not in the module exactly once) or its tests fail unmutated.
Tier-1 does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "fixtures", "pyproject.toml")
ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


class Mutant(NamedTuple):
    name: str
    module: str  # under src/onenorm/
    old: str  # the line, without its indentation
    new: str
    tests: tuple[str, ...]  # pytest node ids under tests/
    equivalent: str | None = None  # why no input tells it apart, if none does


CANONICAL_SUMS = (
    "test_norms.py::test_canonical_sums_equal_the_full_ones",
    "test_norms.py::test_canonical_sums_equal_the_full_ones_on_the_fixtures",
)

MUTANTS = [
    # the threshold mutants of the ROADMAP's re-anchor table
    Mutant("lambda_t_float64_sum", "norms.py",
           "return float(np.sum(np.abs(t), dtype=np.longdouble))",
           "return float(np.sum(np.abs(t), dtype=np.float64))",
           ("test_bit_record.py::test_no_bit_moved",)),
    Mutant("rotation_orthogonality_1e-8", "transform.py",
           "if not err <= 1e-10:  # NaN entries give a NaN err",
           "if not err <= 1e-8:  # NaN entries give a NaN err",
           ("test_cli.py::test_optimizer_numerical_failure_exits_2_under_strict",)),
    Mutant("jacobi_b_floor_1e-9", "localize.py",
           "b = np.where(np.abs(b) <= 1e-12 * scale, 0.0, b)",
           "b = np.where(np.abs(b) <= 1e-9 * scale, 0.0, b)",
           ("test_localize.py::test_jacobi_rotates_a_pair_just_above_the_flatness_floor",)),
    Mutant("jacobi_amplitude_floor_1e-9", "localize.py",
           "keep = (amplitude > 1e-12 * scale) & (amplitude - a > 0.0) & (theta != 0.0)",
           "keep = (amplitude > 1e-9 * scale) & (amplitude - a > 0.0) & (theta != 0.0)",
           ("test_localize.py::test_jacobi_rotates_a_pair_just_above_the_flatness_floor",)),
    Mutant("cholesky_tie_window_1e-6", "norms.py",
           "pivot = int(order[np.argmax(diag[order] >= top - 1e-12 * abs(top))])",
           "pivot = int(order[np.argmax(diag[order] >= top - 1e-6 * abs(top))])",
           ("test_norms.py::test_cholesky_tie_window_is_1e_12_relative",)),
    Mutant("mo_coeff_bound_1e-6", "integrals.py",
           "if err > 1e-8:",
           "if err > 1e-6:",
           ("test_integrals.py::test_mo_coeff_orthonormality_bound_is_1e_8",)),
    Mutant("duplicate_threshold_1e-8", "fcidump.py",
           "& (np.abs(value[1:] - value[:-1]) > 1e-10))",
           "& (np.abs(value[1:] - value[:-1]) > 1e-8))",
           ("test_fcidump.py::test_conflicting_duplicate_threshold_is_1e_10",)),
    # boundaries and canonical sums
    Mutant("norb_intp_check_dropped", "fcidump.py",
           "if norb**4 * 8 <= np.iinfo(np.intp).max:  # numpy's own limit on the bytes",
           "if True:",
           ("test_fcidump.py::test_a_norb_too_large_to_allocate_is_an_input_error",)),
    Mutant("symmetric_sum_float64", "norms.py",
           "total += np.sum(panel, dtype=np.longdouble)",
           "total += np.sum(panel, dtype=np.float64)",
           CANONICAL_SUMS),
    Mutant("symmetric_sum_left_part_not_doubled", "norms.py",
           "panel[:, : panel.shape[1] - panel.shape[0]] *= 2.0",
           "panel[:, : panel.shape[1] - panel.shape[0]] *= 1.0",
           CANONICAL_SUMS),
    Mutant("pair_panel_row_weight_dropped", "norms.py",
           "panel *= images[b, None]",
           "pass",
           CANONICAL_SUMS),
    # the one reader of the lambda_V' quarter, and the gradient's weight on it
    Mutant("quarter_rows_adds_the_swapped_entry", "norms.py",
           "out -= np.take(flat, bra + swapped[:stop])",
           "out += np.take(flat, bra + swapped[:stop])",
           ("test_norms.py::test_v_prime_quarter_matches_the_broadcast_gather",)),
    Mutant("gradient_quarter_weight_quartered", "optimize.py",
           "d *= 0.5",
           "d *= 0.25",
           ("test_optimize.py::test_gradient_equals_the_mask_built_oracle_bitwise",
            "test_optimize.py::test_gradient_matches_stencil")),
]


def _pytest(copy: str, tests) -> subprocess.CompletedProcess:
    """The given tests, run in ``copy`` at one BLAS thread; no bytecode is
    written, so an edit of the same size is never hidden by a cached one."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1",
               **ENV)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(os.path.join("tests", test) for test in tests)]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def _mutated(text: str, mutant: Mutant) -> str | None:
    """``text`` with the mutant's line replaced, or None unless the old line
    occurs exactly once."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    return "".join(lines)


def run(mutants) -> int:
    """Exit code: 0 if every mutant is killed or equivalent, 1 if one
    survives, 2 if an entry is broken."""
    with tempfile.TemporaryDirectory(prefix="onenorm-mutants-") as copy:
        for name in COPIED:
            source, target = os.path.join(ROOT, name), os.path.join(copy, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        clean = _pytest(copy, sorted({t for m in mutants for t in m.tests}))
        if clean.returncode != 0:
            print(clean.stdout[-3000:] + "the named tests fail on the unmutated copy")
            return 2
        status = 0
        for mutant in mutants:
            path = os.path.join(copy, "src", "onenorm", mutant.module)
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            mutated = _mutated(original, mutant)
            if mutated is None:
                print(f"BROKEN    {mutant.name}: {mutant.old!r} is not in {mutant.module} once")
                status = 2
                continue
            start = time.perf_counter()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(mutated)
            result = _pytest(copy, mutant.tests)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original)
            code = result.returncode
            if code == 1:
                verdict = "killed"
            elif code != 0:
                verdict, status = f"BROKEN (pytest exit {code})", 2
            elif mutant.equivalent:
                verdict = f"equivalent: {mutant.equivalent}"
            else:
                verdict, status = "SURVIVED", max(status, 1)
            summary = (result.stdout.strip().splitlines() or [""])[-1]
            print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - start:.1f} s): {summary}")
        return status


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
