"""Log-log scaling fits and multi-basis report tables."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .norms import NormReport

__all__ = ["ScalingFit", "fit_scaling", "aggregate_report", "to_csv"]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log(lambda) = alpha log(N) + beta."""

    alpha: float
    beta: float
    r_squared: float
    points: tuple[tuple[float, float], ...]
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The fields, with tuples of points as lists, as JSON reads them."""
        return {name: [list(p) for p in value] if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


def fit_scaling(points) -> ScalingFit:
    """Fit a power law lambda = e^beta * N^alpha through (N, lambda) pairs.

    Ordinary least squares on the natural logs.  A series with zero
    variance in lambda fits alpha = 0 exactly and is reported with
    r_squared = 1 and the degenerate flag set.
    """
    pts = [(float(n), float(lam)) for n, lam in points]
    if len(pts) < 3:
        raise InputError(f"need at least 3 points for a scaling fit, got {len(pts)}")
    if not all(0.0 < x < np.inf for point in pts for x in point):  # NaN fails too
        raise InputError("scaling fits need finite, strictly positive sizes and norms")
    log_n = np.log([n for n, _ in pts])
    log_l = np.log([lam for _, lam in pts])
    if np.ptp(log_n) == 0.0:
        raise InputError("all points share the same N; slope is undefined")
    degenerate = bool(np.ptp(log_l) == 0.0)
    if degenerate:
        alpha, beta, r_squared = 0.0, float(log_l[0]), 1.0
    else:
        n_centered = log_n - log_n.mean()
        alpha = float(n_centered @ (log_l - log_l.mean()) / (n_centered @ n_centered))
        beta = float(log_l.mean() - alpha * log_n.mean())
        residuals = log_l - (alpha * log_n + beta)
        ss_res = float(residuals @ residuals)
        ss_tot = float(((log_l - log_l.mean()) ** 2).sum())
        r_squared = 1.0 - ss_res / ss_tot
    return ScalingFit(alpha, beta, r_squared, tuple(pts), degenerate)


REPORT_COLUMNS = ("label", "lambda_C", "lambda_T", "lambda_V_prime", "lambda_Q", "reduction_pct")


def aggregate_report(entries, baseline: str):
    """Rows of (label, norms, percent reduction vs the baseline label).

    ``entries`` is a sequence of (label, NormReport).  Reduction is
    100 * (1 - lambda_Q / lambda_Q_baseline) on the identity-free value.
    """
    labels = [label for label, _ in entries]
    if not labels:
        raise InputError("no reports to aggregate")
    if len(set(labels)) != len(labels):
        raise InputError("duplicate labels in report list")
    by_label = dict(entries)
    if baseline not in by_label:
        raise InputError(f"baseline label {baseline!r} not among {labels}")
    base = by_label[baseline].lambda_Q_no_const
    rows = []
    for label, report in entries:
        if not isinstance(report, NormReport):
            raise InputError(f"entry {label!r} is not a NormReport")
        lam = report.lambda_Q_no_const
        reduction = 0.0 if base == 0.0 else 100.0 * (1.0 - lam / base)
        values = (label, report.lambda_C, report.lambda_T, report.lambda_V_prime, lam, reduction)
        rows.append(dict(zip(REPORT_COLUMNS, values)))
    return rows


def to_csv(columns, rows) -> str:
    """CSV text: the header ``columns``, then one line per row of values
    (none is a header alone).  Floats are written as their repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()
