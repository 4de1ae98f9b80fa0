import warnings

import numpy as np
import pytest

from onenorm import (
    LocalizationRequest,
    MolecularHamiltonian,
    class_decomposition,
    cost_er,
    cost_fb,
    cost_pm,
    lambda_c,
    lambda_q,
    localize,
    lowdin_orthogonalize,
    rotate_hamiltonian,
)
from onenorm.errors import ConvergenceWarning, InputError
from onenorm.integrals import AuxiliaryIntegrals

from conftest import random_aux, random_hamiltonian, random_orthogonal


def test_request_validation():
    with pytest.raises(InputError, match="scheme"):
        LocalizationRequest(scheme="bogus")
    with pytest.raises(InputError, match="method"):
        LocalizationRequest(scheme="er", method="newton")
    with pytest.raises(InputError, match="distinct"):
        LocalizationRequest(scheme="er", window=(0, 0))
    req = LocalizationRequest(scheme="ER")
    assert req.scheme == "er"


def test_cost_er_single_orbital():
    g = np.full((1, 1, 1, 1), 0.37)
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((1, 1)), g)
    assert cost_er(ham) == pytest.approx(0.37, abs=1e-15)


def test_cost_er_diagonal_free(rng):
    n = 3
    g = np.zeros((n, n, n, n))
    g[0, 0, 1, 1] = g[1, 1, 0, 0] = 0.4  # no pppp entries
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    assert cost_er(ham) == 0.0


def test_cost_er_equals_class_sum(rng):
    ham = random_hamiltonian(3, rng)
    # class sum collects |g_pppp|; compare on a tensor with positive diagonal
    g = ham.two_body_dense().copy()
    for p in range(3):
        g[p, p, p, p] = abs(g[p, p, p, p])
    ham = MolecularHamiltonian.from_dense(0.0, ham.one_body, g)
    assert cost_er(ham) == pytest.approx(class_decomposition(ham)["pppp"], abs=1e-13)


def test_cost_fb_single_orbital_window(rng):
    aux = random_aux(3, rng)
    c = aux.mo_coefficients
    value = cost_fb(c, aux, window=(1,))
    expected = sum(
        float(c[:, 1] @ aux.dipole_ao[k] @ c[:, 1]) ** 2 for k in range(3)
    )
    assert value == pytest.approx(expected, abs=1e-12)


def test_cost_fb_requires_dipoles(rng):
    aux = AuxiliaryIntegrals(ao_overlap=np.eye(3))
    with pytest.raises(InputError, match="DIPOLE"):
        cost_fb(np.eye(3), aux, window=(0,))


def test_cost_pm_single_atom_fully_occupied():
    # one atom with Z=2, one orbital entirely on it, doubly counted
    aux = AuxiliaryIntegrals(
        ao_overlap=np.eye(1),
        mo_coefficients=np.eye(1),
        ao_to_atom=[0],
        atomic_numbers=[2.0],
    )
    assert cost_pm(np.eye(1), aux, window=(0,)) == pytest.approx(0.0, abs=1e-15)


def test_cost_pm_shared_orbital_between_identical_atoms():
    # one orbital split evenly over two atoms: Q_A = Z - 1 each
    z = 3.0
    c = np.array([[2.0**-0.5], [2.0**-0.5]])
    aux = AuxiliaryIntegrals(
        ao_overlap=np.eye(2),
        mo_coefficients=c,
        ao_to_atom=[0, 1],
        atomic_numbers=[z, z],
    )
    assert cost_pm(c, aux, window=(0,)) == pytest.approx(2 * (z - 1) ** 2, abs=1e-12)


def test_cost_pm_invariant_under_window_rotation(rng):
    # the aggregate charge form cannot change under window rotations
    aux = random_aux(4, rng)
    c = aux.mo_coefficients
    before = cost_pm(c, aux, window=(0, 1, 2, 3))
    rot = random_orthogonal(4, rng).matrix
    after = cost_pm(c @ rot, aux, window=(0, 1, 2, 3))
    assert after == pytest.approx(before, abs=1e-10)


def test_localize_stationary_returns_same_object(rng):
    # zero two-body tensor: the ER objective is flat, nothing to do
    ham = MolecularHamiltonian(
        n_orbitals=3, core_constant=0.0,
        one_body=np.zeros((3, 3)), two_body=np.zeros((3,) * 4),
    )
    result = localize(ham, None, None, LocalizationRequest(scheme="er"))
    assert result.hamiltonian is ham
    assert np.array_equal(result.rotation.matrix, np.eye(3))
    assert result.converged


@pytest.mark.parametrize("method", ["jacobi", "ascent"])
def test_er_monotone_and_improves(rng, method):
    ham = random_hamiltonian(4, rng)
    result = localize(ham, None, None, LocalizationRequest(scheme="er", method=method))
    log = np.asarray(result.objective_per_sweep)
    assert (np.diff(log) >= -1e-12).all()
    assert log[-1] >= log[0]
    assert cost_er(result.hamiltonian) == pytest.approx(log[-1], abs=1e-10)


@pytest.mark.parametrize("scheme", ["fb", "pm"])
@pytest.mark.parametrize("method", ["jacobi", "ascent"])
def test_matrix_schemes_monotone(rng, scheme, method):
    ham = random_hamiltonian(4, rng)
    aux = random_aux(4, rng)
    result = localize(
        ham, aux.mo_coefficients, aux,
        LocalizationRequest(scheme=scheme, method=method),
    )
    log = np.asarray(result.objective_per_sweep)
    assert (np.diff(log) >= -1e-12).all()


def test_fb_objective_matches_cost_function(rng):
    ham = random_hamiltonian(4, rng)
    aux = random_aux(4, rng)
    c = aux.mo_coefficients
    window = (0, 1, 2, 3)
    result = localize(ham, c, aux, LocalizationRequest(scheme="fb", window=window))
    rotated_c = c @ result.rotation.matrix
    assert cost_fb(rotated_c, aux, window) == pytest.approx(
        result.objective_per_sweep[-1], abs=1e-10
    )


def test_rotation_identity_outside_window(rng):
    ham = random_hamiltonian(5, rng)
    window = (1, 3)
    result = localize(ham, None, None, LocalizationRequest(scheme="er", window=window))
    u = result.rotation.matrix
    outside = [0, 2, 4]
    assert np.array_equal(u[np.ix_(outside, outside)], np.eye(3))
    assert np.max(np.abs(u[np.ix_(outside, list(window))])) == 0.0
    assert np.max(np.abs(u[np.ix_(list(window), outside)])) == 0.0
    assert np.max(np.abs(u.T @ u - np.eye(5))) <= 1e-10


def test_localization_preserves_lambda_c(rng):
    ham = random_hamiltonian(4, rng)
    result = localize(ham, None, None, LocalizationRequest(scheme="er"))
    assert lambda_c(result.hamiltonian) == pytest.approx(lambda_c(ham), abs=1e-9)


def test_window_of_one_is_identity(rng):
    ham = random_hamiltonian(3, rng)
    result = localize(ham, None, None, LocalizationRequest(scheme="er", window=(2,)))
    assert result.hamiltonian is ham
    assert result.sweeps == 0


def test_window_out_of_range(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="range"):
        localize(ham, None, None, LocalizationRequest(scheme="er", window=(0, 7)))


def test_oao_identity_overlap_gives_identity(rng):
    ham = random_hamiltonian(4, rng)
    aux = AuxiliaryIntegrals(ao_overlap=np.eye(4))
    result = localize(ham, None, aux, LocalizationRequest(scheme="oao"))
    assert np.array_equal(result.rotation.matrix, np.eye(4))
    assert result.hamiltonian.allclose(ham, tol=0.0)


def test_oao_rotation_reaches_lowdin_basis(rng):
    ham = random_hamiltonian(4, rng)
    aux = random_aux(4, rng)
    result = localize(ham, None, aux, LocalizationRequest(scheme="oao"))
    target = lowdin_orthogonalize(aux.ao_overlap)
    reached = aux.mo_coefficients @ result.rotation.matrix
    assert np.max(np.abs(reached - target)) < 1e-8


def test_oao_requires_overlap(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="OVERLAP"):
        localize(ham, None, None, LocalizationRequest(scheme="oao"))
    with pytest.raises(InputError, match="MO coefficients"):
        aux = AuxiliaryIntegrals(ao_overlap=np.diag([1.0, 2.0, 3.0]))
        localize(ham, None, aux, LocalizationRequest(scheme="oao"))


def test_er_scheme_needs_no_aux(rng):
    ham = random_hamiltonian(3, rng)
    localize(ham, None, None, LocalizationRequest(scheme="er"))


def test_fb_scheme_missing_aux_errors(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="DIPOLE"):
        localize(ham, None, AuxiliaryIntegrals(ao_overlap=np.eye(3)),
                 LocalizationRequest(scheme="fb"))


def test_nonconvergence_warns_and_flags(rng):
    ham = random_hamiltonian(5, rng)
    request = LocalizationRequest(scheme="er", max_sweeps=1, convergence_tol=1e-16)
    with pytest.warns(ConvergenceWarning):
        result = localize(ham, None, None, request)
    assert not result.converged
    assert result.sweeps == 1


def test_seeded_sweep_is_deterministic(rng):
    ham = random_hamiltonian(4, rng)
    request = LocalizationRequest(scheme="er", seed=11)
    first = localize(ham, None, None, request)
    second = localize(ham, None, None, request)
    assert np.array_equal(first.rotation.matrix, second.rotation.matrix)
    assert first.objective_per_sweep == second.objective_per_sweep


def test_jacobi_pair_angle_is_pairwise_optimal(rng):
    # after convergence no single pair rotation improves the ER cost
    ham = random_hamiltonian(3, rng)
    result = localize(
        ham, None, None, LocalizationRequest(scheme="er", convergence_tol=1e-13)
    )
    final = result.hamiltonian
    base = cost_er(final)
    thetas = np.linspace(-np.pi / 4, np.pi / 4, 181)
    from onenorm.transform import givens_rotation

    for i in range(3):
        for j in range(i + 1, 3):
            values = [
                cost_er(rotate_hamiltonian(final, givens_rotation(3, i, j, t)))
                for t in thetas
            ]
            assert max(values) <= base + 1e-6


def test_ascent_matrix_gradient_matches_finite_difference(rng):
    # gradient of sum_k sum_{p in w} (M_k)_pp^2 wrt generator entries
    from scipy.linalg import expm

    n = 4
    window = (0, 1, 2)
    mats = []
    for _ in range(2):
        m = rng.standard_normal((n, n))
        mats.append(0.5 * (m + m.T))

    def value(kvec):
        k = np.zeros((n, n))
        k[np.triu_indices(n, 1)] = kvec
        k -= k.T
        u = expm(k)
        total = 0.0
        for m in mats:
            rotated = u.T @ m @ u
            total += sum(rotated[p, p] ** 2 for p in window)
        return total

    from onenorm.localize import _ascent_matrix_scheme

    # probe the analytic gradient at the origin through a tiny step
    window_mask = np.zeros(n, dtype=bool)
    window_mask[list(window)] = True
    analytic = np.zeros((n, n))
    for m in mats:
        d = np.where(window_mask, np.diagonal(m), 0.0)
        raw = 4.0 * m * d[np.newaxis, :]
        analytic += raw - raw.T

    h = 1e-6
    rows, cols = np.triu_indices(n, 1)
    for idx in range(len(rows)):
        e = np.zeros(len(rows))
        e[idx] = h
        fd = (value(e) - value(-e)) / (2 * h)
        assert fd == pytest.approx(analytic[rows[idx], cols[idx]], abs=1e-5)
