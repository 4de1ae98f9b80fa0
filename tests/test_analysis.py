import numpy as np
import pytest

from onenorm import aggregate_report, fit_scaling, norm_report
from onenorm.analysis import REPORT_COLUMNS, to_csv
from onenorm.errors import InputError

from conftest import random_hamiltonian


def test_exact_power_law():
    fit = fit_scaling([(2, 4), (3, 9), (4, 16)])
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)
    assert fit.beta == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate


def test_exact_power_law_with_prefactor():
    points = [(n, 2.5 * n**1.7) for n in (2, 5, 9, 14)]
    fit = fit_scaling(points)
    assert fit.alpha == pytest.approx(1.7, abs=1e-12)
    assert fit.beta == pytest.approx(np.log(2.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_constant_series_is_degenerate():
    fit = fit_scaling([(2, 5.0), (3, 5.0), (4, 5.0)])
    assert fit.alpha == 0.0
    assert fit.r_squared == 1.0
    assert fit.degenerate


def test_fit_validation():
    with pytest.raises(InputError, match="3 points"):
        fit_scaling([(2, 4), (3, 9)])
    with pytest.raises(InputError, match="positive"):
        fit_scaling([(2, 4), (3, -9), (4, 16)])
    with pytest.raises(InputError, match="positive"):
        fit_scaling([(0, 4), (3, 9), (4, 16)])
    with pytest.raises(InputError, match="same N"):
        fit_scaling([(2, 4), (2, 9), (2, 16)])
    for bad in (np.nan, np.inf):
        for points in ([(2, 4), (3, bad), (4, 16)], [(2, 4), (bad, 9), (4, 16)]):
            with pytest.raises(InputError, match="finite"):
                fit_scaling(points)


def test_noisy_fit_r_squared_below_one(rng):
    points = [(n, n**2 * np.exp(0.05 * rng.standard_normal())) for n in range(2, 10)]
    fit = fit_scaling(points)
    assert 0.9 < fit.r_squared < 1.0


def test_aggregate_report_single_entry(rng):
    report = norm_report(random_hamiltonian(2, rng))
    rows = aggregate_report([("cmo", report)], baseline="cmo")
    assert rows[0]["reduction_pct"] == 0.0
    assert rows[0]["lambda_Q"] == report.lambda_Q_no_const


def test_aggregate_report_reduction_values(rng):
    base = norm_report(random_hamiltonian(3, rng))
    # fabricate a second report scaled to the 101 -> 90 ratio
    scaled = norm_report(random_hamiltonian(3, rng))
    rows = aggregate_report([("a", base), ("b", scaled)], baseline="a")
    expected = 100.0 * (1.0 - scaled.lambda_Q_no_const / base.lambda_Q_no_const)
    assert rows[1]["reduction_pct"] == pytest.approx(expected, abs=1e-12)
    # the rounding convention the tables use: 1 - 90/101 = 10.9%
    assert 100.0 * (1.0 - 90.0 / 101.0) == pytest.approx(10.9, abs=0.05)


def test_aggregate_report_equal_entries_zero_reduction(rng):
    report = norm_report(random_hamiltonian(2, rng))
    rows = aggregate_report([("x", report), ("y", report)], baseline="x")
    assert rows[0]["reduction_pct"] == 0.0
    assert rows[1]["reduction_pct"] == 0.0


def test_aggregate_report_errors(rng):
    report = norm_report(random_hamiltonian(2, rng))
    with pytest.raises(InputError, match="duplicate"):
        aggregate_report([("x", report), ("x", report)], baseline="x")
    with pytest.raises(InputError, match="baseline"):
        aggregate_report([("x", report)], baseline="y")
    with pytest.raises(InputError, match="aggregate"):
        aggregate_report([], baseline="x")
    with pytest.raises(InputError, match="entry 'y' is not a NormReport"):
        aggregate_report([("x", report), ("y", report.to_dict())], baseline="x")


def test_report_csv_columns(rng):
    report = norm_report(random_hamiltonian(2, rng))
    rows = aggregate_report([("cmo", report)], baseline="cmo")
    csv_text = to_csv(REPORT_COLUMNS, (row.values() for row in rows))
    header = csv_text.splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)
    assert header == "label,lambda_C,lambda_T,lambda_V_prime,lambda_Q,reduction_pct"
    assert list(rows[0]) == list(REPORT_COLUMNS)


def test_csv_writes_the_header_alone_for_no_rows_and_floats_as_repr():
    assert to_csv(("iteration", "lambda_Q"), []) == "iteration,lambda_Q\n"
    text = to_csv(("a", "b", "c"), [(0, 0.1 + 0.2, "x,y"), (1, 1e-300, "z")])
    assert text == 'a,b,c\n0,0.30000000000000004,"x,y"\n1,1e-300,z\n'
