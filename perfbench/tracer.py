"""Per-layer timing from outside the package.

The tracer replaces public functions of each ``onenorm`` layer with timing
wrappers at every place the package looks them up: the defining module
(where the benchmark calls them) and each module that imported the name.
Calls between layers therefore pass through a wrapper without any change
to the package itself.  ``uninstall`` puts every original back.

Each wrapped call is one span.  A span's self time is its duration minus
the time spent in wrapped calls it made.  Spans are folded into per-name
totals as they end, so memory stays constant however many calls a run
makes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _module(name):
    # ``onenorm.localize`` is rebound to the function of that name by the
    # package ``__init__``, so modules are looked up by their full name.
    return importlib.import_module(f"onenorm.{name}")


def _dense_bytes(counts, args, result):
    counts["integrals.dense_bytes"] += result.nbytes


def _parse_bytes(counts, args, result):
    counts["fcidump.bytes"] += len(args[0])  # the benchmark parses str input


def _write_bytes(counts, args, result):
    counts["fcidump.bytes"] += len(result)  # written to a string, not a stream


def _two_body_flop(counts, args, result):
    n = result.shape[0]
    counts["transform.two_body_flop"] += 8.0 * n**5  # four quarter transforms


def _cholesky_rank(counts, args, result):
    counts["norms.cholesky_rank"] += result.rank


def _localize_stats(counts, args, result):
    counts["localize.sweeps"] += result.sweeps
    counts["localize.unconverged"] += 0 if result.converged else 1


def _optimize_stats(counts, args, result):
    counts["optimize.iterations"] += len(result.trace)


# (span name, function name, modules that hold a binding of it, result hook)
SPANS = (
    ("fcidump.parse", "parse_fcidump", ("fcidump",), _parse_bytes),
    ("fcidump.write", "write_fcidump", ("fcidump",), _write_bytes),
    ("integrals.class_decomposition", "class_decomposition",
     ("integrals", "norms"), None),
    ("transform.rotate", "rotate_hamiltonian",
     ("transform", "localize", "optimize"), None),
    ("transform.two_body", "transform_two_body", ("transform", "localize"),
     _two_body_flop),
    ("transform.expm", "expm", ("transform", "localize"), None),
    ("norms.lambda_q", "lambda_q", ("norms", "optimize"), None),
    ("norms.norm_report", "norm_report", ("norms",), None),
    ("norms.cholesky", "cholesky_decompose", ("norms",), _cholesky_rank),
    ("localize.localize", "localize", ("localize", "optimize"), _localize_stats),
    ("optimize.minimize", "minimize_norm", ("optimize",), _optimize_stats),
    ("optimize.objective", "objective", ("optimize",), None),
)

# MolecularHamiltonian methods, wrapped on the class itself.
METHOD_SPANS = (
    ("integrals.two_body_dense", "two_body_dense", _dense_bytes),
    ("integrals.from_dense", "from_dense", None),
)


class Tracer:
    """Wraps the layer functions; collects calls, total and self seconds."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: defaultdict[str, float] = defaultdict(int)
        self._open: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple] = []

    def _wrap(self, func, name, hook):
        tracer = self
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(func)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer._open.append(children)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for name, func_name, modules, hook in SPANS:
            for module_name in modules:
                module = _module(module_name)
                self._patch(module, func_name,
                            self._wrap(getattr(module, func_name), name, hook))
        cls = _module("integrals").MolecularHamiltonian
        for name, attr, hook in METHOD_SPANS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, hook)))
            else:
                self._patch(cls, attr, self._wrap(raw, name, hook))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed as in ``UNITS``."""
        calls = {name: s[0] for name, s in self.spans.items()}
        total = {name: s[1] for name, s in self.spans.items()}
        own = {name: s[2] for name, s in self.spans.items()}
        c = self.counts
        return {
            "fcidump.parse_s": total["fcidump.parse"],
            "fcidump.parse_calls": calls["fcidump.parse"],
            "fcidump.write_s": total["fcidump.write"],
            "fcidump.write_calls": calls["fcidump.write"],
            "fcidump.mb": c["fcidump.bytes"] / 1e6,
            "integrals.two_body_dense_s": total["integrals.two_body_dense"],
            "integrals.two_body_dense_calls": calls["integrals.two_body_dense"],
            "integrals.dense_mb": c["integrals.dense_bytes"] / 1e6,
            "integrals.from_dense_s": total["integrals.from_dense"],
            "integrals.from_dense_calls": calls["integrals.from_dense"],
            "integrals.class_decomposition_s": total["integrals.class_decomposition"],
            "transform.rotate_s": total["transform.rotate"],
            "transform.rotate_calls": calls["transform.rotate"],
            "transform.two_body_s": total["transform.two_body"],
            "transform.two_body_calls": calls["transform.two_body"],
            "transform.two_body_gflop": c["transform.two_body_flop"] / 1e9,
            "transform.expm_s": total["transform.expm"],
            "transform.expm_calls": calls["transform.expm"],
            "norms.lambda_q_s": total["norms.lambda_q"],
            "norms.lambda_q_calls": calls["norms.lambda_q"],
            "norms.norm_report_s": total["norms.norm_report"],
            "norms.cholesky_s": total["norms.cholesky"],
            "norms.cholesky_rank": c["norms.cholesky_rank"],
            "localize.s": total["localize.localize"],
            "localize.calls": calls["localize.localize"],
            "localize.sweeps": c["localize.sweeps"],
            "localize.unconverged": c["localize.unconverged"],
            "optimize.minimize_s": total["optimize.minimize"],
            "optimize.self_s": own["optimize.minimize"],
            "optimize.objective_s": total["optimize.objective"],
            "optimize.objective_self_s": own["optimize.objective"],
            "optimize.objective_calls": calls["optimize.objective"],
            "optimize.iterations": c["optimize.iterations"],
        }


# Units of the per-layer metrics.  "-computed" marks figures derived from
# array sizes or text lengths rather than measured: fcidump.mb is the text
# parsed plus written, integrals.dense_mb the N^4 float64 tensors that
# two_body_dense materialized, and transform.two_body_gflop 8 N^5 flop per
# four-index transform.
UNITS = {
    "import.onenorm_s": "s",
    "trace.overhead_s": "s",
    **{name: "s" for name in (
        "fcidump.parse_s", "fcidump.write_s", "integrals.two_body_dense_s",
        "integrals.from_dense_s", "integrals.class_decomposition_s", "transform.rotate_s",
        "transform.two_body_s", "transform.expm_s", "norms.lambda_q_s",
        "norms.norm_report_s", "norms.cholesky_s", "localize.s", "optimize.minimize_s",
        "optimize.self_s", "optimize.objective_s", "optimize.objective_self_s")},
    **{name: "count" for name in (
        "fcidump.parse_calls", "fcidump.write_calls", "integrals.two_body_dense_calls",
        "integrals.from_dense_calls", "transform.rotate_calls", "transform.two_body_calls",
        "transform.expm_calls", "norms.lambda_q_calls", "norms.cholesky_rank",
        "localize.calls", "localize.sweeps", "localize.unconverged",
        "optimize.objective_calls", "optimize.iterations")},
    "fcidump.mb": "MB-computed",
    "integrals.dense_mb": "MB-computed",
    "transform.two_body_gflop": "GFLOP-computed",
}
