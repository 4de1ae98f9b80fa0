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

from conftest import (
    chain_path,
    givens_rotation,
    random_aux,
    random_hamiltonian,
    random_orthogonal,
    random_psd_hamiltonian,
    requires_fixtures,
)


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


def test_cost_functions_check_their_window(rng):
    aux = random_aux(3, rng)
    c = aux.mo_coefficients
    for cost in (cost_fb, cost_pm):
        with pytest.raises(InputError, match="range"):
            cost(None, aux, window=(5,))
        with pytest.raises(InputError, match="range"):
            cost(c, aux, window=(0, -1))
        with pytest.raises(InputError, match="distinct"):
            cost(c, aux, window=(1, 1))
        assert cost(c, aux, window=None) == cost(c, aux, window=(0, 1, 2))


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


@pytest.mark.parametrize("method", ["jacobi", "ascent"])
def test_windowed_logs_are_documented_costs(rng, method):
    # the logged objective is the window sum: sum_{p in w} (pp|pp) for ER,
    # cost_fb for FB
    ham = random_hamiltonian(5, rng)
    aux = random_aux(5, rng)
    c = aux.mo_coefficients
    window = (0, 2, 3)

    def er_window_cost(h):
        return float(sum(h.two_body[p, p, p, p] for p in window))

    er = localize(ham, None, None, LocalizationRequest(scheme="er", window=window,
                                                       method=method))
    assert er.objective_per_sweep[0] == pytest.approx(er_window_cost(ham), abs=1e-12)
    assert er.objective_per_sweep[-1] == pytest.approx(
        er_window_cost(er.hamiltonian), abs=1e-10
    )
    fb = localize(ham, c, aux, LocalizationRequest(scheme="fb", window=window,
                                                   method=method))
    assert fb.objective_per_sweep[-1] == pytest.approx(
        cost_fb(c @ fb.rotation.matrix, aux, window), abs=1e-10
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
    with pytest.raises(InputError, match="scheme needs AO data"):
        localize(ham, None, None, LocalizationRequest(scheme="pm"))


def test_nonconvergence_warns_and_flags(rng):
    ham = random_hamiltonian(5, rng)
    request = LocalizationRequest(scheme="er", max_sweeps=1, convergence_tol=1e-16)
    with pytest.warns(ConvergenceWarning):
        result = localize(ham, None, None, request)
    assert not result.converged
    assert result.sweeps == 1


def test_sweep_is_deterministic(rng):
    ham = random_hamiltonian(4, rng)
    request = LocalizationRequest(scheme="er")
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
    for i in range(3):
        for j in range(i + 1, 3):
            values = [
                cost_er(rotate_hamiltonian(final, givens_rotation(3, i, j, t)))
                for t in thetas
            ]
            assert max(values) <= base + 1e-6


def test_ascent_matrix_gradient_matches_finite_difference(rng):
    # gradient of sum_k w_k sum_{p in w} (M_k)_pp^2 wrt generator entries
    from scipy.linalg import expm

    from onenorm.localize import _stack_gradient

    n = 4
    window = (0, 1, 2)
    weights = np.array([1.3, -0.7])
    mats = rng.standard_normal((2, n, n))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))

    def value(kvec):
        k = np.zeros((n, n))
        k[np.triu_indices(n, 1)] = kvec
        k -= k.T
        u = expm(k)
        total = 0.0
        for w, m in zip(weights, mats):
            rotated = u.T @ m @ u
            total += w * sum(rotated[p, p] ** 2 for p in window)
        return total

    analytic = _stack_gradient(mats, weights, window)
    h = 1e-6
    rows, cols = np.triu_indices(n, 1)
    for idx in range(len(rows)):
        e = np.zeros(len(rows))
        e[idx] = h
        fd = (value(e) - value(-e)) / (2 * h)
        assert fd == pytest.approx(analytic[rows[idx], cols[idx]], abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("psd", [True, False])
def test_er_factors_reconstruct_the_tensor(rng, n, psd):
    from onenorm.localize import _er_factors

    ham = random_psd_hamiltonian(n, rng) if psd else random_hamiltonian(n, rng)
    g = ham.two_body_dense()
    mats, weights = _er_factors(g)
    assert np.array_equal(mats, mats.transpose(0, 2, 1))
    # orthonormal in the Frobenius inner product, so s_k are the eigenvalues
    # of g acting on symmetric matrices
    gram = np.einsum("kpq,lpq->kl", mats, mats)
    assert np.max(np.abs(gram - np.eye(len(weights)))) <= 1e-12
    rebuilt = np.einsum("k,kpq,krs->pqrs", weights, mats, mats)
    assert np.max(np.abs(rebuilt - g)) <= 1e-12 * np.max(np.abs(g))
    diag = np.einsum("kpp->kp", mats)
    assert float(weights @ np.sum(diag**2, axis=1)) == pytest.approx(cost_er(ham), rel=1e-12)
    if not psd and n > 1:
        assert weights.min() < 0 < weights.max()


def _cyclic_jacobi(mats, weights, window, request):
    """The former Jacobi engine: one pair at a time, in index order."""
    from onenorm.localize import _stack_objective

    abs_weights = np.abs(weights)
    pairs = [(i, j) for a, i in enumerate(window) for j in window[a + 1:]]
    u = np.eye(mats.shape[1])
    log = [_stack_objective(mats, weights, window)]
    converged = False
    sweeps = 0
    for _ in range(request.max_sweeps):
        sweeps += 1
        for i, j in pairs:
            diff = mats[:, i, i] - mats[:, j, j]
            off = mats[:, i, j]
            weighted = weights * diff
            a = 0.25 * float(weighted @ diff) - float((weights * off) @ off)
            b = -float(weighted @ off)
            theta = 0.25 * float(np.arctan2(b, a))
            amplitude = float(np.hypot(a, b))
            scale = 0.25 * float((abs_weights * diff) @ diff) + float((abs_weights * off) @ off)
            if amplitude <= 1e-12 * scale or amplitude - a <= 0.0 or theta == 0.0:
                continue
            c, s = float(np.cos(theta)), float(np.sin(theta))
            for view in (mats, mats.swapaxes(1, 2), u):
                col_i, col_j = view[..., i].copy(), view[..., j].copy()
                view[..., i] = c * col_i - s * col_j
                view[..., j] = s * col_i + c * col_j
        log.append(_stack_objective(mats, weights, window))
        if log[-1] - log[-2] < request.convergence_tol * max(abs(log[-1]), 1.0):
            converged = True
            break
    return u, log, converged, sweeps


def _chain_er_stack(n):
    from onenorm import parse_fcidump
    from onenorm.localize import _objective_stack

    ham = parse_fcidump(open(chain_path(n)).read())
    return (ham, *_objective_stack(ham, None, None, "er"))


@requires_fixtures
@pytest.mark.parametrize(
    "n, lam, sweeps",
    [(4, 3.7235500366650447, 4), (10, 13.43504354637642, 5), (20, 32.56949355135883, 5)],
)
def test_er_jacobi_on_chains_matches_tensor_sweep(n, lam, sweeps):
    # lambda_Q and sweep counts of the former sweep over the N^4 tensor,
    # reached by the cyclic oracle
    from onenorm import OrbitalRotation

    ham, mats, weights = _chain_er_stack(n)
    u, _, converged, oracle_sweeps = _cyclic_jacobi(
        mats, weights, tuple(range(n)), LocalizationRequest(scheme="er")
    )
    rotated = rotate_hamiltonian(ham, OrbitalRotation(u))
    assert lambda_q(rotated) == pytest.approx(lam, rel=1e-12)
    assert oracle_sweeps == sweeps
    assert converged


@requires_fixtures
@pytest.mark.parametrize(
    "n, lam, sweeps",
    [(4, 3.7235500366592627, 2), (10, 13.435043572484652, 4), (20, 32.56948766610111, 5)],
)
def test_er_jacobi_rounds_reach_the_cyclic_objective(n, lam, sweeps):
    # same ER objective as one pair at a time; the basis is a neighbouring
    # point of the flat optimum, so lambda_Q and the sweeps are its own
    ham, mats, weights = _chain_er_stack(n)
    request = LocalizationRequest(scheme="er")
    _, oracle_log, _, _ = _cyclic_jacobi(mats.copy(), weights, tuple(range(n)), request)
    result = localize(ham, None, None, request)
    assert result.objective_per_sweep[-1] == pytest.approx(oracle_log[-1], rel=1e-12)
    assert cost_er(result.hamiltonian) == pytest.approx(oracle_log[-1], rel=1e-12)
    assert lambda_q(result.hamiltonian) == pytest.approx(lam, rel=1e-12)
    assert result.sweeps == sweeps
    assert result.converged


@pytest.mark.parametrize(
    "window", [tuple(range(w)) for w in range(2, 10)] + [(7, 2, 4, 0, 9)]
)
def test_round_robin_visits_every_pair_once_in_disjoint_rounds(window):
    from onenorm.localize import _round_robin

    rounds = _round_robin(window)
    w = len(window)
    assert len(rounds) == w - 1 + w % 2
    seen = []
    for i, j in rounds:
        assert len(i) == len(j) == w // 2
        assert (i < j).all()
        members = np.concatenate([i, j])
        assert len(set(members.tolist())) == len(members)
        seen += list(zip(i.tolist(), j.tolist()))
    expected = sorted(
        (min(p, q), max(p, q)) for a, p in enumerate(window) for q in window[a + 1:]
    )
    assert sorted(seen) == expected


def test_jacobi_leaves_a_flat_pair_alone():
    # sum_k (M_k)_pp^2 of these two matrices is the same at every angle
    from onenorm.localize import _jacobi

    mats = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    u, log, converged, sweeps = _jacobi(
        mats, np.ones(2), (0, 1), LocalizationRequest(scheme="fb")
    )
    assert np.array_equal(u, np.eye(2))
    assert log == [2.0, 2.0]
    assert converged and sweeps == 1


def test_jacobi_skips_a_pair_flat_up_to_rounding():
    # the first two matrices cancel in A and B exactly; the third leaves
    # A and B of about 1e-17 against a pair scale of 2, below the 1e-12
    # flatness floor, so rounding noise picks no angle
    from onenorm.localize import _jacobi

    mats = np.array([
        [[1.0, 0.0], [0.0, -1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[4e-9, 4e-9], [4e-9, 0.0]],
    ])
    u, _, converged, sweeps = _jacobi(
        mats, np.ones(3), (0, 1), LocalizationRequest(scheme="fb")
    )
    assert np.array_equal(u, np.eye(2))
    assert converged and sweeps == 1


def _two_phase_ascend(state_cost, state_gradient, state_step, n, window, request):
    """The former ascent: every accepted step is transformed a second time."""
    from scipy.linalg import expm

    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(window, window)] = True
    u = np.eye(n)
    cost = state_cost()
    log = [cost]
    eta = None
    converged = False
    iterations = 0
    stalls = 0
    for _ in range(request.max_sweeps):
        grad = state_gradient()
        grad = np.where(mask, grad, 0.0)
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        scale = max(1.0, abs(cost))
        if gnorm <= max(request.convergence_tol, 1e-13) * scale:
            converged = True
            break
        if eta is None:
            eta = 0.2 / gnorm
        improved = False
        while eta * gnorm >= 1e-15:
            u_step = expm(eta * grad)
            trial_cost = state_step(u_step, trial=True)
            if trial_cost > cost:
                state_step(u_step, trial=False)
                u = u @ u_step
                gain = trial_cost - cost
                cost = trial_cost
                log.append(cost)
                eta *= 1.25
                improved = True
                stalls = stalls + 1 if gain < request.convergence_tol * scale else 0
                break
            eta *= 0.5
        iterations += 1
        if not improved or stalls >= 3:
            converged = True
            break
    return u, log, converged, iterations


def _two_phase_ascent(ham, coeff, aux, request):
    """The former ER (tensor) and FB/PM (stack) ascent wrappers."""
    from onenorm.localize import (
        _objective_stack, _stack_gradient, _stack_objective, resolve_window,
    )
    from onenorm.integrals import symmetrize_two_body
    from onenorm.transform import transform_two_body

    window = resolve_window(request.window, ham.n_orbitals)
    if request.scheme == "er":
        state = ham.two_body_dense()

        def cost(g):
            return float(np.sum(np.einsum("pppp->p", g)[list(window)], dtype=np.longdouble))

        def gradient(g):
            raw = 4.0 * np.einsum("pppq->qp", g)
            return raw - raw.T

        def rotate(g, v):  # filled after each transform
            return symmetrize_two_body(transform_two_body(g, v))
    else:
        state, weights = _objective_stack(ham, coeff, aux, request.scheme)

        def cost(m):
            return _stack_objective(m, weights, window)

        def gradient(m):
            return _stack_gradient(m, weights, window)

        def rotate(m, v):
            return v.T @ m @ v

    def step(u_step, trial):
        nonlocal state
        rotated = rotate(state, u_step)
        if trial:
            return cost(rotated)
        state = rotated
        return None

    return _two_phase_ascend(lambda: cost(state), lambda: gradient(state), step,
                             ham.n_orbitals, window, request)


def _assert_ascent_matches_two_phase(ham, coeff, aux, request):
    u, log, converged, sweeps = _two_phase_ascent(ham, coeff, aux, request)
    result = localize(ham, coeff, aux, request)
    assert np.array_equal(result.rotation.matrix, u)
    assert result.objective_per_sweep == tuple(log)
    assert (result.converged, result.sweeps) == (converged, sweeps)


@pytest.mark.filterwarnings("ignore::onenorm.errors.ConvergenceWarning")
@pytest.mark.parametrize("scheme", ["er", "fb", "pm"])
@pytest.mark.parametrize("n, window", [(4, None), (5, (0, 2, 3)), (6, None)])
def test_ascent_matches_the_two_phase_ascent_bitwise(rng, scheme, n, window):
    ham = random_hamiltonian(n, rng)
    aux = random_aux(n, rng)
    request = LocalizationRequest(scheme=scheme, method="ascent", window=window)
    _assert_ascent_matches_two_phase(ham, aux.mo_coefficients, aux, request)


@requires_fixtures
@pytest.mark.parametrize("scheme", ["er", "fb", "pm"])
def test_h2_ascent_matches_the_two_phase_ascent_bitwise(scheme):
    from conftest import H2_AUX, H2_FCIDUMP

    from onenorm import parse_auxiliary, parse_fcidump

    ham = parse_fcidump(open(H2_FCIDUMP).read())
    aux = parse_auxiliary(open(H2_AUX).read())
    request = LocalizationRequest(scheme=scheme, method="ascent")
    _assert_ascent_matches_two_phase(ham, aux.mo_coefficients, aux, request)


@requires_fixtures
def test_er_ascent_transforms_once_per_trial(monkeypatch):
    # H2/cc-pVDZ: 13 accepted and 4 rejected trials; the former ascent
    # transformed every accepted step twice (30 calls)
    import importlib

    from conftest import H2_FCIDUMP

    from onenorm import parse_fcidump
    from onenorm.integrals import symmetrize_two_body
    from onenorm.transform import transform_two_body

    module = importlib.import_module("onenorm.localize")
    calls = []

    def counting(g, u):
        calls.append(u.shape)
        return transform_two_body(g, u)

    monkeypatch.setattr(module, "transform_two_body", counting)
    ham = parse_fcidump(open(H2_FCIDUMP).read())
    result = localize(ham, None, None, LocalizationRequest(scheme="er", method="ascent"))
    assert len(result.objective_per_sweep) == 14
    assert len(calls) == 17


def test_ascent_from_a_stationary_start_returns_it_unchanged(rng):
    # FB at <p|r|p> = 0 for every p, as for the canonical orbitals of a
    # centrosymmetric molecule: the gradient vanishes at the start
    n = 4
    ham = random_hamiltonian(n, rng)
    dipoles = rng.standard_normal((3, n, n))
    dipoles = dipoles + dipoles.transpose(0, 2, 1)
    for d in dipoles:
        np.fill_diagonal(d, 0.0)
    aux = AuxiliaryIntegrals(mo_coefficients=np.eye(n), dipole_ao=dipoles)
    result = localize(ham, None, aux, LocalizationRequest(scheme="fb", method="ascent"))
    assert result.hamiltonian is ham
    assert np.array_equal(result.rotation.matrix, np.eye(n))
    assert result.converged
    assert result.sweeps == 0
    assert result.objective_per_sweep == (0.0,)
    # Jacobi needs no gradient and leaves the stationary start
    jacobi = localize(ham, None, aux, LocalizationRequest(scheme="fb"))
    assert jacobi.objective_per_sweep[-1] > 0.0
