import os
import warnings

import numpy as np
import pytest

from onenorm import (
    LocalizationRequest,
    MolecularHamiltonian,
    OptimizerConfig,
    lambda_q,
    localize,
    minimize_norm,
    objective,
    parse_fcidump,
    rotate_hamiltonian,
)
from onenorm.errors import ConvergenceWarning, InputError, NumericalError

from conftest import H2_FCIDUMP, chain_path, random_aux, random_hamiltonian, requires_fixtures


def test_config_validation():
    with pytest.raises(InputError, match="algorithm"):
        OptimizerConfig(algorithm="adam")
    with pytest.raises(InputError, match="start_from"):
        OptimizerConfig(start_from="somewhere")
    with pytest.raises(InputError, match="localization_method"):
        OptimizerConfig(localization_method="bogus", start_from="current")
    assert OptimizerConfig(algorithm="sequential-quadratic").scipy_method == "SLSQP"
    assert OptimizerConfig().start_scheme() == "er"
    assert OptimizerConfig(start_from="current").start_scheme() is None
    assert OptimizerConfig(start_from="localized:pm").start_scheme() == "pm"


@pytest.mark.parametrize("scheme", ["fb", "pm"])
def test_config_refuses_an_ascent_start_for_fb_and_pm(scheme):
    with pytest.raises(InputError, match="use 'jacobi'"):
        OptimizerConfig(start_from=f"localized:{scheme}", localization_method="ascent")
    for start in ("current", "localized:er", "localized:oao"):
        OptimizerConfig(start_from=start, localization_method="ascent")


def test_start_from_is_one_of_the_named_starts():
    from onenorm.localize import SCHEMES

    for scheme in SCHEMES:
        assert OptimizerConfig(start_from=f"localized:{scheme}").start_scheme() == scheme
    for start in ("localized", "localizedfoo", "localized:xyz", "localized:", "Localized:er",
                  "current:er"):
        with pytest.raises(InputError, match="start_from"):
            OptimizerConfig(start_from=start)


def test_negative_cap_or_bad_tolerance_is_an_input_error():
    bad = [(OptimizerConfig, "max_iterations", -1), (LocalizationRequest, "max_sweeps", -1)]
    for tol in (-1.0, float("nan"), float("inf")):
        bad += [(OptimizerConfig, "convergence_tol", tol),
                (LocalizationRequest, "convergence_tol", tol)]
    for cls, field, value in bad:
        scheme = {"scheme": "er"} if cls is LocalizationRequest else {}
        with pytest.raises(InputError, match=field):
            cls(**scheme, **{field: value})
    OptimizerConfig(max_iterations=0, convergence_tol=0.0)
    LocalizationRequest(scheme="er", max_sweeps=0, convergence_tol=0.0)


@pytest.mark.parametrize("cls, field, value", [
    (LocalizationRequest, "max_sweeps", 2.5),
    (OptimizerConfig, "max_iterations", 2.5),
    (LocalizationRequest, "convergence_tol", "x"),
    (OptimizerConfig, "convergence_tol", "x"),
])
def test_caps_are_whole_numbers_and_tolerances_numbers(cls, field, value):
    # 2.5 sweeps failed in range(), 2.5 iterations went on to scipy, and a
    # tolerance "x" was a TypeError from np.isfinite
    scheme = {"scheme": "er"} if cls is LocalizationRequest else {}
    with pytest.raises(InputError, match=field):
        cls(**scheme, **{field: value})
    if field != "convergence_tol":
        assert type(getattr(cls(**scheme, **{field: 2.0}), field)) is int


def test_objective_at_zero_equals_lambda_q(rng):
    ham = random_hamiltonian(4, rng)
    assert objective(ham, np.zeros(6)) == lambda_q(ham)


def test_objective_wrong_length(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="length"):
        objective(ham, np.zeros(2), window=(0, 1))
    with pytest.raises(NumericalError, match="non-finite rotation parameters"):
        objective(ham, [np.nan], window=(0, 1))
    huge = MolecularHamiltonian.from_dense(0.0, np.full((2, 2), 1e308), np.zeros((2,) * 4))
    with pytest.raises(NumericalError, match="non-finite value"):
        objective(huge, np.zeros(1))


def test_objective_checks_its_window(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="distinct"):
        objective(ham, np.full(3, 0.1), window=(0, 0, 1))
    with pytest.raises(InputError, match="out of range"):
        objective(ham, np.zeros(1), window=(0, 3))


def test_objective_half_rotation_composition(rng):
    ham = random_hamiltonian(4, rng)
    kvec = 0.3 * rng.standard_normal(6)
    from onenorm.optimize import _window_rotation

    half = _window_rotation(4, tuple(range(4)), 0.5 * kvec)
    twice = rotate_hamiltonian(rotate_hamiltonian(ham, half), half)
    assert lambda_q(twice) == pytest.approx(objective(ham, kvec), abs=1e-9)


def minimize_warning_iff_unconverged(ham, config):
    """``minimize_norm``, which must raise one ConvergenceWarning exactly
    when it did not converge, and no other warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = minimize_norm(ham, config)
    assert [w.category for w in caught] == ([] if result.converged else [ConvergenceWarning])
    return result


def test_minimizer_never_regresses(rng):
    for algorithm in ("quasi-newton-bounded", "sequential-quadratic"):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            ham = random_hamiltonian(n, rng)
            config = OptimizerConfig(
                start_from="current", algorithm=algorithm, max_iterations=40,
            )
            result = minimize_warning_iff_unconverged(ham, config)
            assert result.lambda_final <= result.lambda_start + 1e-9
            assert result.lambda_start == pytest.approx(lambda_q(ham), abs=1e-12)
    zero = MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), np.zeros((2,) * 4))
    result = minimize_warning_iff_unconverged(zero, OptimizerConfig(start_from="current"))
    assert result.lambda_initial == result.lambda_final == result.reduction_percent == 0.0


def test_minimizer_beats_er_start(rng):
    ham = random_hamiltonian(4, rng)
    er = localize(ham, None, None, LocalizationRequest(scheme="er"))
    config = OptimizerConfig(start_from="localized:er", max_iterations=150)
    result = minimize_norm(ham, config)
    assert result.lambda_final <= lambda_q(er.hamiltonian) + 1e-9
    assert result.start_scheme == "er"
    # returned Hamiltonian consistent with reported value
    assert lambda_q(result.hamiltonian) == pytest.approx(result.lambda_final, abs=1e-9)
    # rotation folds in the localization pre-rotation
    rebuilt = rotate_hamiltonian(ham, result.rotation)
    assert lambda_q(rebuilt) == pytest.approx(result.lambda_final, abs=1e-9)


def test_minimizer_beats_best_localization(rng):
    ham = random_hamiltonian(4, rng)
    aux = random_aux(4, rng)
    coeff = aux.mo_coefficients
    values = {}
    for scheme in ("er", "pm", "fb", "oao"):
        res = localize(ham, coeff, aux, LocalizationRequest(scheme=scheme))
        values[scheme] = lambda_q(res.hamiltonian)
    best = min(values, key=values.get)
    config = OptimizerConfig(start_from=f"localized:{best}", max_iterations=200)
    result = minimize_norm(ham, config, aux=aux)
    assert result.lambda_final <= min(values.values()) + 1e-9


def test_window_restriction(rng):
    ham = random_hamiltonian(5, rng)
    window = (1, 3)
    config = OptimizerConfig(window=window, start_from="current", max_iterations=60)
    result = minimize_norm(ham, config)
    u = result.rotation.matrix
    outside = [0, 2, 4]
    assert np.array_equal(u[np.ix_(outside, outside)], np.eye(3))
    assert np.max(np.abs(u[np.ix_(outside, list(window))])) == 0.0


def test_stationary_start_returns_identity():
    # isotropic tensors are invariant under every orbital rotation, so the
    # objective is flat and the optimizer must return the identity
    n = 2
    eye = np.eye(n)
    g = 0.2 * (
        np.einsum("pq,rs->pqrs", eye, eye)
        + np.einsum("pr,qs->pqrs", eye, eye)
        + np.einsum("ps,qr->pqrs", eye, eye)
    )
    from onenorm import MolecularHamiltonian

    ham = MolecularHamiltonian.from_dense(0.0, 0.7 * eye, g)
    result = minimize_norm(
        ham, OptimizerConfig(start_from="current", window=(0, 1), max_iterations=50)
    )
    assert np.array_equal(result.rotation.matrix, np.eye(n))
    assert result.hamiltonian is ham
    assert result.lambda_final == result.lambda_start


def test_reoptimization_never_regresses(rng):
    ham = random_hamiltonian(3, rng)
    first = minimize_norm(
        ham, OptimizerConfig(start_from="current", max_iterations=200)
    )
    second = minimize_norm(
        first.hamiltonian,
        OptimizerConfig(start_from="current", max_iterations=200),
    )
    assert second.lambda_start == pytest.approx(first.lambda_final, abs=1e-9)
    assert second.lambda_final <= second.lambda_start + 1e-9


def test_empty_window_returns_identity(rng):
    ham = random_hamiltonian(3, rng)
    result = minimize_norm(
        ham, OptimizerConfig(window=(1,), start_from="current")
    )
    assert np.array_equal(result.rotation.matrix, np.eye(3))
    assert result.hamiltonian is ham
    assert result.converged
    assert result.stop_reason == "no free parameters"


def test_gradient_matches_stencil(rng):
    # the exact subgradient against a 5-point stencil of the objective at
    # generic K != 0 points, where no |.| argument sits at a kink
    from onenorm.optimize import _gradient

    for n, window in ((3, None), (4, None), (6, None), (4, (1, 3)), (6, (0, 2, 3, 5))):
        ham = random_hamiltonian(n, rng)
        window = window or tuple(range(n))
        m = len(window) * (len(window) - 1) // 2
        x0 = 0.3 * rng.standard_normal(m)
        _, *rotated = objective(ham, x0, window, full_output=True)
        grad = _gradient(x0, window, rotated)
        h = 1e-5
        stencil = np.empty(m)
        for k in range(m):
            probes = []
            for offset in (-2, -1, 1, 2):
                x = x0.copy()
                x[k] += offset * h
                probes.append(objective(ham, x, window))
            stencil[k] = (probes[0] - 8 * probes[1] + 8 * probes[2] - probes[3]) / (12 * h)
        np.testing.assert_allclose(grad, stencil, rtol=0, atol=1e-7)


def _mask_built_gradient(kvec, window, rotated):
    """``_gradient`` with C built from N^4 index masks over the whole
    tensor, the way it was first written: the oracle for the quarter of
    ``v_prime_quarter``."""
    from scipy.linalg import expm_frechet

    from onenorm import AntisymmetricGenerator
    from onenorm.norms import t_matrix

    window = list(window)
    rotation, ham = rotated
    n = ham.n_orbitals
    g = ham.two_body_dense()
    t = t_matrix(ham.one_body, g)
    sign_t = np.sign(t)
    p, q, r, s = np.ogrid[0:n, 0:n, 0:n, 0:n]
    b = np.where((p > r) & (s > q), np.sign(g - g.transpose(0, 3, 2, 1)), 0.0)
    c = 0.25 * np.sign(g) + 0.5 * (b - b.transpose(0, 3, 2, 1))
    c = c + c.transpose(1, 0, 2, 3) + c.transpose(2, 3, 0, 1) + c.transpose(3, 2, 1, 0)
    f = t @ sign_t.T + t.T @ sign_t + np.tensordot(g, c, axes=([1, 2, 3], [1, 2, 3]))
    du = (rotation.matrix @ f)[np.ix_(window, window)]
    k = AntisymmetricGenerator(dim=len(window), params=kvec).matrix()
    dk = -expm_frechet(k, du, compute_expm=False)
    rows, cols = np.triu_indices(len(window), k=1)
    return dk[rows, cols] - dk[cols, rows]


def test_gradient_equals_the_mask_built_oracle_bitwise(rng):
    # at a generic point, and at K = 0 of a tensor rounded to integers,
    # where many g' and g'_pqrs - g'_psrq are exactly zero
    from onenorm import MolecularHamiltonian
    from onenorm.optimize import _gradient

    cases = [(n, tuple(range(n))) for n in (*range(13), 24)]
    cases += [(6, (0, 2, 3, 5)), (3, (2, 0, 1)), (12, (11, 4, 7, 0, 9)), (24, (5, 23, 0, 17, 8, 2))]
    for n, window in cases:
        ham = random_hamiltonian(n, rng)
        rounded = MolecularHamiltonian.from_dense(0.0, np.round(ham.one_body),
                                                  np.round(2 * ham.two_body) / 2)
        m = len(window) * (len(window) - 1) // 2
        for base, kvec in ((ham, 0.3 * rng.standard_normal(m)), (rounded, np.zeros(m))):
            _, *rotated = objective(base, kvec, window, full_output=True)
            expected = _mask_built_gradient(kvec, window, rotated)
            assert np.array_equal(_gradient(kvec, window, rotated), expected), (n, window)


def test_gradient_reuses_last_evaluation(rng):
    from onenorm.optimize import _TrackedObjective, _gradient

    ham = random_hamiltonian(4, rng)
    tracked = _TrackedObjective(ham, tuple(range(4)))
    x = 0.2 * rng.standard_normal(6)
    assert tracked(x) == objective(ham, x)
    grad = tracked.gradient(x)
    assert (tracked.calls, tracked.gradient_calls) == (1, 1)
    _, *rotated = objective(ham, x, full_output=True)
    assert np.array_equal(grad, _gradient(x, tuple(range(4)), rotated))
    tracked.gradient(-x)
    assert (tracked.calls, tracked.gradient_calls) == (2, 2)
    assert tracked.best.value == min(objective(ham, x), objective(ham, -x))


def test_trace_records_monotone_best(rng):
    ham = random_hamiltonian(4, rng)
    result = minimize_norm(
        ham, OptimizerConfig(start_from="current", max_iterations=60)
    )
    best = [record.best_so_far for record in result.trace]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))
    for record in result.trace:
        assert record.best_so_far <= record.lambda_value + 1e-15


def test_bit_reproducible(rng):
    ham = random_hamiltonian(4, rng)
    config = OptimizerConfig(start_from="localized:er", max_iterations=60)
    first = minimize_norm(ham, config)
    second = minimize_norm(ham, config)
    assert first.lambda_final == second.lambda_final
    assert np.array_equal(first.rotation.matrix, second.rotation.matrix)
    assert first.n_objective_calls == second.n_objective_calls
    assert first.n_gradient_calls == second.n_gradient_calls > 0
    assert first.grad_inf_norm == second.grad_inf_norm is not None


def test_reduction_percent(rng):
    ham = random_hamiltonian(3, rng)
    result = minimize_norm(
        ham, OptimizerConfig(start_from="current", max_iterations=50)
    )
    expected = 100.0 * (1.0 - result.lambda_final / result.lambda_initial)
    assert result.reduction_percent == pytest.approx(expected, abs=1e-12)


@requires_fixtures
def test_stop_reason_records_lbfgsb_stall_on_h20():
    # ER start, default L-BFGS-B: scipy stops after one iteration on the
    # relative-reduction test while the gradient is still large, and calls
    # that a success
    ham = parse_fcidump(open(chain_path(20)).read())
    result = minimize_norm(ham, OptimizerConfig())
    assert result.stop_reason == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
    assert result.n_objective_calls == 12
    assert len(result.trace) == 1
    assert result.converged
    assert result.grad_inf_norm == pytest.approx(8.17, abs=0.05)


@requires_fixtures
@pytest.mark.parametrize("algorithm", ["quasi-newton-bounded", "sequential-quadratic"])
def test_max_iterations_caps_the_whole_run(algorithm):
    ham = parse_fcidump(open(chain_path(6)).read())
    for cap in (0, 1, 5):
        config = OptimizerConfig(algorithm=algorithm, max_iterations=cap)
        assert len(minimize_warning_iff_unconverged(ham, config).trace) <= cap


@requires_fixtures
@pytest.mark.parametrize("start", ["current", "localized:er"])
@pytest.mark.parametrize("algorithm", ["quasi-newton-bounded", "sequential-quadratic"])
def test_the_result_is_the_best_evaluation(monkeypatch, algorithm, start):
    # the returned Hamiltonian is the best evaluation's own, and the norm is
    # the subgradient's at that point, whichever iterate the solver ended on
    import onenorm.optimize as optimize_module
    from onenorm.optimize import _gradient

    evaluated = []
    original = optimize_module.objective

    def recording_objective(ham_ref, kvec, *args, **kwargs):
        out = original(ham_ref, kvec, *args, **kwargs)
        evaluated.append((out[0], ham_ref, np.array(kvec, dtype=float)))
        return out

    monkeypatch.setattr(optimize_module, "objective", recording_objective)
    ham = parse_fcidump(open(chain_path(6)).read())
    result = minimize_norm(ham, OptimizerConfig(algorithm=algorithm, start_from=start))
    assert lambda_q(result.hamiltonian) == result.lambda_final
    value, ham_ref, x = min(evaluated, key=lambda point: point[0])
    assert value == result.lambda_final and len(evaluated) == result.n_objective_calls
    window = tuple(range(ham.n_orbitals))
    _, *rotated = objective(ham_ref, x, window, full_output=True)
    assert result.grad_inf_norm == np.max(np.abs(_gradient(x, window, rotated)))


@requires_fixtures
def test_h2_sequential_quadratic_run_at_one_blas_thread():
    # the h2_optimize benchmark run: SLSQP from the ER-ascent start, in a
    # fresh interpreter so that the BLAS thread count is set before numpy loads
    import subprocess
    import sys

    code = (
        "from onenorm import OptimizerConfig, minimize_norm, parse_fcidump\n"
        f"ham = parse_fcidump(open({H2_FCIDUMP!r}).read())\n"
        "config = OptimizerConfig(start_from='localized:er', localization_method='ascent',\n"
        "                         algorithm='sequential-quadratic', max_iterations=400)\n"
        "r = minimize_norm(ham, config)\n"
        "print(repr((r.lambda_final, r.grad_inf_norm, r.n_objective_calls, r.n_gradient_calls)))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    one = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code], check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src, **one),
                         capture_output=True, text=True).stdout
    assert out == repr((90.44164546364041, 4.8257269992892455, 154, 46)) + "\n"


@pytest.mark.parametrize("algorithm", ["quasi-newton-bounded", "sequential-quadratic"])
def test_zero_cap_returns_the_start(rng, algorithm):
    ham = random_hamiltonian(4, rng)
    config = OptimizerConfig(algorithm=algorithm, max_iterations=0)
    with pytest.warns(ConvergenceWarning, match="max_iterations is 0"):
        result = minimize_norm(ham, config)
    er = localize(ham, None, None, LocalizationRequest(scheme="er"))
    assert not result.converged
    assert result.stop_reason == "max_iterations is 0: returned the start"
    assert result.trace == () and result.n_gradient_calls == 0
    assert np.array_equal(result.rotation.matrix, er.rotation.matrix)
    assert result.lambda_final == result.lambda_start


def test_lost_orthogonality_ends_the_run_at_the_best_point():
    # SLSQP steps this instance to max|K| ~ 3e6, where exp(-K) is no
    # longer orthogonal to 1e-10: a numerical failure, not bad input
    rng = np.random.default_rng(5)
    hams = [random_hamiltonian(int(rng.integers(3, 6)), rng) for _ in range(12)]
    config = OptimizerConfig(algorithm="sequential-quadratic", start_from="current")
    with pytest.warns(ConvergenceWarning, match="orthogonality"):
        result = minimize_norm(hams[7], config)
    assert not result.converged
    assert "lost orthogonality" in result.stop_reason
    assert result.lambda_final <= result.lambda_start
    u = result.rotation.matrix
    assert np.max(np.abs(u.T @ u - np.eye(len(u)))) < 1e-10
    assert lambda_q(result.hamiltonian) == pytest.approx(result.lambda_final, rel=1e-10)


@requires_fixtures
def test_default_run_starts_from_the_lower_of_input_and_localized_start():
    # H2/cc-pVDZ: ER Jacobi (112.92) is above the canonical 101.33, so the
    # run starts from the input; on H10 the ER start (13.44) is kept
    for path, scheme, bound in ((H2_FCIDUMP, None, 90.50), (chain_path(10), "er", 13.40)):
        ham = parse_fcidump(open(path).read())
        result = minimize_norm(ham, OptimizerConfig())
        assert result.start_scheme == scheme, path
        assert result.lambda_start <= result.lambda_initial
        assert result.lambda_final <= bound, (path, result.lambda_final)
