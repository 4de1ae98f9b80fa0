import itertools

import numpy as np
import pytest

from onenorm import (
    ActiveSpaceSpec,
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    class_decomposition,
    freeze_core,
    parse_fcidump,
    rotate_hamiltonian,
    write_fcidump,
)
from onenorm.errors import InputError
from onenorm.integrals import CLASS_NAMES, pair_index

from conftest import random_hamiltonian, random_orthogonal


def _from_dense_roundoff(rng):
    source = random_hamiltonian(4, rng).two_body_dense()
    noisy = source + 1e-12 * rng.standard_normal(source.shape)
    return MolecularHamiltonian.from_dense(0.0, np.zeros((4, 4)), noisy), noisy


def _parsed(rng):
    ham = random_hamiltonian(4, rng)
    return parse_fcidump(write_fcidump(ham)), ham.two_body_dense()


def _rotated(rng):
    ham = random_hamiltonian(4, rng)
    return rotate_hamiltonian(ham, random_orthogonal(4, rng)), None


def _frozen(rng):
    ham = random_hamiltonian(5, rng)
    space = ActiveSpaceSpec(frozen=(0,), active=(1, 2, 3, 4), n_active_electrons=2)
    return freeze_core(ham, space)[0], None


def _canonical(p, q, r, s):
    p, q, r, s = max(p, q), min(p, q), max(r, s), min(r, s)
    return (p, q, r, s) if pair_index(p, q) >= pair_index(r, s) else (r, s, p, q)


def test_accessor_resolves_all_eight_images(rng):
    # one input per construction path
    for build in (_from_dense_roundoff, _parsed, _rotated, _frozen):
        ham, source = build(rng)
        g = ham.two_body_dense()
        for p, q, r, s in itertools.product(range(4), repeat=4):
            value = ham.g(p, q, r, s)
            if source is not None:  # the canonical entry of the input wins
                assert value == source[_canonical(p, q, r, s)], build.__name__
            images = [
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ]
            for image in images:
                assert g[image] == value, build.__name__  # exact, bit for bit


def test_from_dense_rejects_asymmetric():
    g = np.zeros((2, 2, 2, 2))
    g[0, 1, 0, 0] = 0.5  # no symmetry images set
    with pytest.raises(InputError, match="symmetry"):
        MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)


def test_from_dense_accepts_symmetric(rng):
    ham = random_hamiltonian(3, rng)
    rebuilt = MolecularHamiltonian.from_dense(
        ham.core_constant, ham.one_body, ham.two_body_dense()
    )
    assert rebuilt.allclose(ham)


def test_hamiltonian_validation_errors():
    with pytest.raises(InputError, match="symmetric"):
        MolecularHamiltonian(
            n_orbitals=2,
            core_constant=0.0,
            one_body=np.array([[0.0, 1.0], [0.0, 0.0]]),
            two_body=np.zeros((2,) * 4),
        )
    with pytest.raises(InputError, match="finite"):
        MolecularHamiltonian(
            n_orbitals=1,
            core_constant=0.0,
            one_body=np.array([[np.nan]]),
            two_body=np.zeros((1, 1, 1, 1)),
        )
    with pytest.raises(InputError, match="shape"):
        MolecularHamiltonian(
            n_orbitals=2,
            core_constant=0.0,
            one_body=np.zeros((2, 2)),
            two_body=np.zeros((2, 2, 2)),
        )
    roundoff = np.zeros((2,) * 4)
    roundoff[1, 0, 0, 0] = roundoff[0, 1, 0, 0] = roundoff[0, 0, 1, 0] = 0.5
    roundoff[0, 0, 0, 1] = np.nextafter(0.5, 1.0)  # within from_dense's tolerance
    with pytest.raises(InputError, match="exactly"):
        MolecularHamiltonian(
            n_orbitals=2,
            core_constant=0.0,
            one_body=np.zeros((2, 2)),
            two_body=roundoff,
        )


def test_arrays_are_immutable(rng):
    ham = random_hamiltonian(2, rng)
    with pytest.raises(ValueError):
        ham.one_body[0, 0] = 1.0
    with pytest.raises(ValueError):
        ham.two_body[0] = 1.0


def test_class_decomposition_single_orbital():
    g = np.full((1, 1, 1, 1), -0.7)
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((1, 1)), g)
    sums = class_decomposition(ham)
    assert sums["pppp"] == pytest.approx(0.7, abs=1e-15)
    assert all(sums[name] == 0.0 for name in CLASS_NAMES if name != "pppp")


def test_class_decomposition_totals_full_tensor(rng):
    for _ in range(5):
        ham = random_hamiltonian(4, rng)
        sums = class_decomposition(ham)
        total = sum(sums.values())
        brute = float(np.sum(np.abs(ham.two_body_dense())))
        assert total == pytest.approx(brute, abs=1e-12)


def test_class_decomposition_pattern_isolation():
    # only (01|21)-type entries set: the straddling-repeat class
    n = 3
    g = np.zeros((n, n, n, n))
    value = 0.25
    for image in [(0, 1, 2, 1), (1, 0, 2, 1), (0, 1, 1, 2), (1, 0, 1, 2),
                  (2, 1, 0, 1), (2, 1, 1, 0), (1, 2, 0, 1), (1, 2, 1, 0)]:
        g[image] = value
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    sums = class_decomposition(ham)
    assert sums["pqrq"] == pytest.approx(8 * value, abs=1e-15)
    assert all(sums[name] == 0.0 for name in CLASS_NAMES if name != "pqrq")


def test_class_decomposition_counts_images_like_convention(rng):
    # pqrq sums four symmetry images per distinct (p, q, r) triple
    n = 3
    g = np.zeros((n, n, n, n))
    triples = [(p, q, r) for p in range(n) for q in range(n) for r in range(n)
               if p != q and q != r and p != r]
    rng_local = np.random.default_rng(7)
    values = {}
    for p, q, r in triples:
        if (r, q, p) in values:  # symmetry partner (rq|pq) = (pq|rq)
            continue
        values[(p, q, r)] = rng_local.standard_normal()
    for (p, q, r), v in values.items():
        for image in [(p, q, r, q), (q, p, r, q), (p, q, q, r), (q, p, q, r),
                      (r, q, p, q), (q, r, p, q), (r, q, q, p), (q, r, q, p)]:
            g[image] = v
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    sums = class_decomposition(ham)
    expected = sum(8 * abs(v) for v in values.values())
    assert sums["pqrq"] == pytest.approx(expected, rel=1e-13)


def test_active_space_spec_validation():
    spec = ActiveSpaceSpec(frozen=(0,), active=(1, 2), n_active_electrons=2)
    spec.validate(3)
    with pytest.raises(InputError, match="partition"):
        ActiveSpaceSpec(frozen=(0,), active=(0, 1), n_active_electrons=0).validate(2)
    with pytest.raises(InputError, match="partition"):
        ActiveSpaceSpec(frozen=(), active=(0,), n_active_electrons=0).validate(2)
    with pytest.raises(InputError, match="even"):
        ActiveSpaceSpec(frozen=(), active=(0, 1), n_active_electrons=3).validate(2)
    with pytest.raises(InputError, match="electrons"):
        ActiveSpaceSpec(frozen=(), active=(0,), n_active_electrons=4).validate(1)


def test_auxiliary_overlap_must_be_positive_definite():
    with pytest.raises(InputError, match="positive definite"):
        AuxiliaryIntegrals(ao_overlap=np.diag([1.0, -0.1]))


def test_auxiliary_orthonormality_enforced():
    s = np.eye(2)
    bad_c = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(InputError, match="orthonormal"):
        AuxiliaryIntegrals(ao_overlap=s, mo_coefficients=bad_c)
    AuxiliaryIntegrals(ao_overlap=s, mo_coefficients=np.eye(2))


def test_auxiliary_dimension_cross_checks():
    with pytest.raises(InputError, match="AOs"):
        AuxiliaryIntegrals(ao_overlap=np.eye(2), ao_to_atom=[0, 0, 1])
    with pytest.raises(InputError, match="atom"):
        AuxiliaryIntegrals(ao_to_atom=[0, 3], atomic_numbers=[1.0, 1.0])
