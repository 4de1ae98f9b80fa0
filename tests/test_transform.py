import itertools

import numpy as np
import pytest

from onenorm import (
    ActiveSpaceSpec,
    AntisymmetricGenerator,
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    OrbitalRotation,
    determinant_expectation,
    exp_generator,
    freeze_core,
    jacobi_rotation_norm_scan,
    jordan_wigner_expand,
    lambda_q,
    lowdin_orthogonalize,
    rotate_hamiltonian,
    transform_one_body,
    transform_two_body,
)
from onenorm.errors import InputError, NumericalError

from conftest import (
    chain_path, givens_rotation, random_hamiltonian, random_orthogonal, requires_fixtures,
)


def test_exp_of_zero_generator_is_identity():
    gen = AntisymmetricGenerator(dim=4, params=np.zeros(6))
    assert np.array_equal(exp_generator(gen).matrix, np.eye(4))


def test_exp_two_by_two_closed_form():
    theta = 0.3
    gen = AntisymmetricGenerator(dim=2, params=np.array([theta]))
    u = exp_generator(gen).matrix
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.max(np.abs(u - expected)) < 1e-15
    assert u[0, 0] == pytest.approx(np.cos(0.3), abs=1e-15)


def test_exp_orthogonality_and_inverse(rng):
    for _ in range(10):
        params = rng.standard_normal(15)
        gen = AntisymmetricGenerator(dim=6, params=params)
        u = exp_generator(gen).matrix
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-12
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)
        from scipy.linalg import expm

        assert np.max(np.abs(u @ expm(gen.matrix()) - np.eye(6))) <= 1e-10


def test_generator_param_mapping():
    gen = AntisymmetricGenerator(dim=3, params=[1.0, 2.0, 3.0])
    k = gen.matrix()
    assert k[0, 1] == 1.0 and k[0, 2] == 2.0 and k[1, 2] == 3.0
    assert np.array_equal(k, -k.T)


@pytest.mark.parametrize("dim", [*range(13), 24])
def test_generator_matrix_matches_the_per_call_triangle(dim, rng):
    params = rng.standard_normal(dim * (dim - 1) // 2)
    expected = np.zeros((dim, dim))
    rows, cols = np.triu_indices(dim, k=1)
    expected[rows, cols] = params
    expected -= expected.T
    assert AntisymmetricGenerator(dim=dim, params=params).matrix().tobytes() == expected.tobytes()


def test_generator_validation():
    with pytest.raises(InputError, match="parameters"):
        AntisymmetricGenerator(dim=3, params=[1.0])
    with pytest.raises(InputError, match="finite"):
        AntisymmetricGenerator(dim=2, params=[np.inf])


def test_exp_of_a_huge_generator_is_a_numerical_error():
    # finite, valid K whose exp is not orthogonal to 1e-10 in floating point
    with pytest.raises(NumericalError, match=r"exp\(-K\) lost orthogonality at max\|K\| = 1e\+07"):
        exp_generator(AntisymmetricGenerator(dim=2, params=[1e7]))


def test_orbital_rotation_validation():
    with pytest.raises(InputError, match="orthogonal"):
        OrbitalRotation(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(InputError, match="orthogonal"):
        OrbitalRotation(np.full((2, 2), np.nan))
    with pytest.raises(InputError, match="square"):
        OrbitalRotation(np.eye(3)[:, :2])


def test_transform_one_body_identity_and_permutation(rng):
    h = rng.standard_normal((4, 4))
    h = 0.5 * (h + h.T)
    assert np.array_equal(transform_one_body(h, np.eye(4)), h)
    perm = np.eye(4)[:, [1, 0, 2, 3]]
    permuted = transform_one_body(h, perm)
    order = [1, 0, 2, 3]
    assert np.array_equal(permuted, h[np.ix_(order, order)])
    with pytest.raises(InputError, match="square"):
        transform_one_body(h[:3], np.eye(4))
    with pytest.raises(InputError, match="incompatible"):
        transform_one_body(h, np.eye(3))


def test_transform_one_body_matches_double_loop(rng):
    h = rng.standard_normal((5, 5))
    h = 0.5 * (h + h.T)
    c = rng.standard_normal((5, 5))
    naive = np.zeros((5, 5))
    for p in range(5):
        for q in range(5):
            naive[p, q] = sum(
                h[a, b] * c[a, p] * c[b, q] for a in range(5) for b in range(5)
            )
    assert np.max(np.abs(transform_one_body(h, c) - naive)) < 1e-13


def test_transform_two_body_identity_bit_exact(rng):
    ham = random_hamiltonian(3, rng)
    g = ham.two_body_dense()
    assert np.array_equal(transform_two_body(g, np.eye(3)), g)


def test_transform_two_body_permutation(rng):
    ham = random_hamiltonian(3, rng)
    g = ham.two_body_dense()
    order = [1, 0, 2]
    perm = np.eye(3)[:, order]
    swapped = transform_two_body(g, perm)
    assert np.max(np.abs(swapped - g[np.ix_(order, order, order, order)])) == 0.0


def test_transform_two_body_matches_naive(rng):
    ham = random_hamiltonian(5, rng)
    g = ham.two_body_dense()
    c = random_orthogonal(5, rng).matrix
    naive = np.einsum("abcd,ap,bq,cr,ds->pqrs", g, c, c, c, c, optimize=False)
    staged = transform_two_body(g, c)
    assert np.max(np.abs(staged - naive)) < 1e-11


def test_transform_two_body_matches_quadruple_loop(rng):
    # anchors the einsum reference itself on a tiny instance
    ham = random_hamiltonian(2, rng)
    g = ham.two_body_dense()
    c = random_orthogonal(2, rng).matrix
    loop = np.zeros((2, 2, 2, 2))
    for p, q, r, s in itertools.product(range(2), repeat=4):
        loop[p, q, r, s] = sum(
            g[a, b, cc, d] * c[a, p] * c[b, q] * c[cc, r] * c[d, s]
            for a, b, cc, d in itertools.product(range(2), repeat=4)
        )
    assert np.max(np.abs(transform_two_body(g, c) - loop)) < 1e-13


def test_transform_two_body_rectangular_coefficients(rng):
    # AO -> MO style reduction: 4 raw functions onto 2 orthonormal ones
    ham = random_hamiltonian(4, rng)
    g = ham.two_body_dense()
    c = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    reduced = transform_two_body(g, c)
    naive = np.einsum("abcd,ap,bq,cr,ds->pqrs", g, c, c, c, c, optimize=False)
    assert reduced.shape == (2, 2, 2, 2)
    assert np.max(np.abs(reduced - naive)) < 1e-12
    h_reduced = transform_one_body(ham.one_body, c)
    assert h_reduced.shape == (2, 2)
    with pytest.raises(InputError, match="incompatible"):
        transform_two_body(g, c.T)


def staged_einsum_transform(g, c):
    """The quarter transforms as einsum stages."""
    out = np.einsum("abcd,ap->pbcd", g, c, optimize=True)
    out = np.einsum("pbcd,bq->pqcd", out, c, optimize=True)
    out = np.einsum("pqcd,cr->pqrd", out, c, optimize=True)
    return np.einsum("pqrd,ds->pqrs", out, c, optimize=True)


def test_transform_two_body_matches_staged_einsum_bitwise(rng):
    g = random_hamiltonian(10, rng).two_body_dense()
    square = random_orthogonal(10, rng).matrix
    rectangular = np.linalg.qr(rng.standard_normal((10, 6)))[0]
    for c in (square, rectangular):
        assert np.array_equal(transform_two_body(g, c), staged_einsum_transform(g, c))


def test_transform_composition(rng):
    ham = random_hamiltonian(4, rng)
    g = ham.two_body_dense()
    c1 = random_orthogonal(4, rng).matrix
    c2 = random_orthogonal(4, rng).matrix
    step = transform_two_body(transform_two_body(g, c1), c2)
    direct = transform_two_body(g, c1 @ c2)
    assert np.max(np.abs(step - direct)) < 1e-10


def test_rotate_hamiltonian_identity(rng):
    ham = random_hamiltonian(3, rng)
    assert rotate_hamiltonian(ham, OrbitalRotation.identity(3)) is ham
    with pytest.raises(InputError, match="rotation dimension 2 != 3"):
        rotate_hamiltonian(ham, OrbitalRotation.identity(2))
    near = rotate_hamiltonian(ham, givens_rotation(3, 0, 1, 1e-9))
    assert near is not ham and near.allclose(ham, tol=1e-8)


def test_rotate_hamiltonian_large_h(rng):
    # core-level h of order 1e4: the rotation's round-off asymmetry is far
    # above 1e-12 absolute, and the constructor's check scales with max|h|
    base = random_hamiltonian(30, rng)
    ham = MolecularHamiltonian.from_dense(0.0, 1e4 * base.one_body, base.two_body)
    u = random_orthogonal(30, rng)
    raw = transform_one_body(ham.one_body, u.matrix)
    assert np.max(np.abs(raw - raw.T)) > 1e-12
    rotated = rotate_hamiltonian(ham, u)
    assert np.array_equal(rotated.one_body, rotated.one_body.T)
    assert np.allclose(rotated.one_body, raw, rtol=0, atol=1e-8)


def test_rotate_group_action(rng):
    ham = random_hamiltonian(4, rng)
    u1 = random_orthogonal(4, rng)
    u2 = random_orthogonal(4, rng)
    twice = rotate_hamiltonian(rotate_hamiltonian(ham, u1), u2)
    once = rotate_hamiltonian(ham, u1.then(u2))
    assert np.max(np.abs(twice.one_body - once.one_body)) < 1e-10
    assert np.max(np.abs(twice.two_body - once.two_body)) < 1e-10


def test_trace_invariants_under_rotation(rng):
    ham = random_hamiltonian(4, rng)
    rotated = rotate_hamiltonian(ham, random_orthogonal(4, rng))
    for moment in (
        lambda h: np.trace(h.one_body),
        lambda h: np.einsum("pprr->", h.two_body_dense()),
        lambda h: np.einsum("prrp->", h.two_body_dense()),
    ):
        assert moment(rotated) == pytest.approx(moment(ham), abs=1e-9)


def test_jacobi_scan_matches_givens_rotation(rng):
    # the scan reduces each angle before exp(-K): without that, exp(-K)
    # at |theta| >= 1e6 is not orthogonal and the scan fails
    ham = random_hamiltonian(4, rng)
    thetas = [0.0, 0.3, -1.2, np.pi / 2, 2.5, -4.0, 1e6, -1e6, 1e12]
    for p, q in ((0, 2), (3, 1)):
        scan = jacobi_rotation_norm_scan(ham, p, q, thetas)
        assert scan[0] == lambda_q(ham)
        for theta, value in zip(thetas, scan):
            expected = lambda_q(rotate_hamiltonian(ham, givens_rotation(4, p, q, theta)))
            assert value == pytest.approx(expected, rel=1e-12)


def test_jacobi_scan_pi_periodicity(rng):
    ham = random_hamiltonian(3, rng)
    a, b = jacobi_rotation_norm_scan(ham, 0, 1, [0.4, 0.4 + np.pi])
    assert a == pytest.approx(b, abs=1e-10)


def test_jacobi_scan_invalid_pair(rng):
    ham = random_hamiltonian(3, rng)
    with pytest.raises(InputError, match="distinct"):
        jacobi_rotation_norm_scan(ham, 1, 1, [0.0])


@requires_fixtures
def test_jacobi_scan_bonding_pair_minimum_at_quarter_pi():
    # H2 minimal basis: the sigma / sigma* pair localizes onto the atoms
    # at a quarter turn, where lambda_Q is smallest
    from onenorm import parse_fcidump

    ham = parse_fcidump(open(chain_path(2)).read())
    thetas = np.linspace(0.0, np.pi / 2, 181)
    values = jacobi_rotation_norm_scan(ham, 0, 1, thetas)
    k = int(np.argmin(values))
    assert 0 < k < len(thetas) - 1  # interior extremum
    assert thetas[k] == pytest.approx(np.pi / 4, abs=np.pi / 90)
    assert values[k] < values[0]


def test_freeze_core_noop():
    ham = random_hamiltonian(3, np.random.default_rng(0))
    spec = ActiveSpaceSpec(frozen=(), active=(0, 1, 2), n_active_electrons=2)
    active, shift = freeze_core(ham, spec)
    assert shift == 0.0
    assert active.allclose(ham)


def test_freeze_core_one_body_only():
    h = np.diag([0.7, 0.1])
    ham = MolecularHamiltonian(
        n_orbitals=2, core_constant=0.5, one_body=h, two_body=np.zeros((2,) * 4)
    )
    spec = ActiveSpaceSpec(frozen=(0,), active=(1,), n_active_electrons=0)
    active, shift = freeze_core(ham, spec)
    assert shift == pytest.approx(2 * 0.7, abs=1e-15)
    assert active.core_constant == pytest.approx(0.5 + 1.4, abs=1e-15)
    assert active.one_body[0, 0] == pytest.approx(0.1, abs=1e-15)
    assert active.n_orbitals == 1


def test_freeze_core_dense_oracle_identity(rng):
    for _ in range(5):
        ham = random_hamiltonian(3, rng)
        spec = ActiveSpaceSpec(frozen=(0,), active=(1, 2), n_active_electrons=2)
        active, shift = freeze_core(ham, spec)
        full_terms = jordan_wigner_expand(ham)
        active_terms = jordan_wigner_expand(active)
        for bits in range(16):
            occ_active = [(bits >> k) & 1 for k in range(4)]
            occ_full = [1, 1] + occ_active
            lhs = determinant_expectation(full_terms, occ_full)
            rhs = determinant_expectation(active_terms, occ_active)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_freeze_core_deletes_virtuals(rng):
    ham = random_hamiltonian(4, rng)
    spec = ActiveSpaceSpec(frozen=(0,), active=(1, 2), n_active_electrons=2)
    active, _ = freeze_core(ham, spec)
    assert active.n_orbitals == 2
    assert active.two_body[0, 1, 0, 1] == ham.two_body[1, 2, 1, 2]


def test_freeze_core_invalid_partition(rng):
    ham = random_hamiltonian(3, rng)
    for frozen, active in (((0,), (0, 1)), ((0,), (1, 3)), ((-1,), (1,))):
        with pytest.raises(InputError, match="distinct indices in 0..2"):
            freeze_core(ham, ActiveSpaceSpec(frozen=frozen, active=active,
                                             n_active_electrons=0))


def test_active_space_around_fermi():
    spec = ActiveSpaceSpec.around_fermi(
        n_orbitals=6, n_electrons=6, n_active_orbitals=3, n_active_electrons=2
    )
    assert spec.frozen == (0, 1)
    assert spec.active == (2, 3, 4)  # orbital 5 is virtual
    with pytest.raises(InputError, match="even"):
        ActiveSpaceSpec.around_fermi(6, 5, 3, 2)
    with pytest.raises(InputError, match="exceed"):
        ActiveSpaceSpec.around_fermi(4, 6, 3, 2)
    empty = ActiveSpaceSpec.around_fermi(6, 6, 0, 0)  # a zero window is valid
    assert (empty.frozen, empty.active) == ((0, 1, 2), ())
    for window in (-1, -3):
        with pytest.raises(InputError, match=">= 0 orbitals"):
            ActiveSpaceSpec.around_fermi(6, 6, window, 2)


def test_lowdin_identity():
    assert np.array_equal(lowdin_orthogonalize(np.eye(3)), np.eye(3))
    with pytest.raises(InputError, match="square"):
        lowdin_orthogonalize(np.eye(3)[:2])
    with pytest.raises(InputError, match="symmetric"):
        lowdin_orthogonalize(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_lowdin_two_by_two_closed_form():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    result = lowdin_orthogonalize(s)
    expected_diag = 0.5 * (1.5**-0.5 + 0.5**-0.5)
    assert result[0, 0] == pytest.approx(expected_diag, abs=1e-14)
    assert result[1, 1] == pytest.approx(expected_diag, abs=1e-14)
    assert np.max(np.abs(result - result.T)) == 0.0
    assert np.max(np.abs(result @ s @ result - np.eye(2))) < 1e-14


def test_lowdin_random_spd(rng):
    a = rng.standard_normal((6, 6))
    s = a @ a.T + 6 * np.eye(6)
    c = lowdin_orthogonalize(s)
    assert np.max(np.abs(c @ s @ c - np.eye(6))) < 1e-10


def test_lowdin_near_singular_raises():
    # S is read by the AuxiliaryIntegrals rules: a near-singular S is bad input
    s = np.diag([1.0, 1e-12])
    with pytest.raises(InputError, match="^overlap not positive definite$"):
        lowdin_orthogonalize(s)


@pytest.mark.parametrize("overlap", [
    np.zeros((0, 0)),
    np.eye(3)[:2],
    np.array([[1.0, 0.1], [0.0, 1.0]]),
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.diag([1.0, 1e-11]),
], ids=["empty", "non-square", "asymmetric", "indefinite", "near-singular"])
def test_lowdin_reads_the_overlap_by_the_record_rules(overlap):
    with pytest.raises(InputError) as record_error:
        AuxiliaryIntegrals(ao_overlap=overlap)
    with pytest.raises(InputError) as lowdin_error:
        lowdin_orthogonalize(overlap)
    assert str(lowdin_error.value) == str(record_error.value)
