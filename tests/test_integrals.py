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
from onenorm.integrals import CLASS_NAMES, SYMMETRY_TOL, pair_index, symmetrize_two_body

from conftest import random_hamiltonian, random_orthogonal


# Construction paths: each builder sets up its inputs and returns a thunk
# that runs only the construction, plus the dense input whose canonical
# entries the result must hold (None where the input is not at hand).
def _roundoff_tensor(rng):
    source = random_hamiltonian(4, rng).two_body_dense()
    return source + 1e-12 * rng.standard_normal(source.shape)


def _direct_roundoff(rng):
    noisy = _roundoff_tensor(rng)
    return lambda: MolecularHamiltonian(4, 0.0, np.zeros((4, 4)), noisy), noisy


def _from_dense_roundoff(rng):
    noisy = _roundoff_tensor(rng)
    return lambda: MolecularHamiltonian.from_dense(0.0, np.zeros((4, 4)), noisy), noisy


def _parsed(rng):
    ham = random_hamiltonian(4, rng)
    text = write_fcidump(ham)
    return lambda: parse_fcidump(text), ham.two_body_dense()


def _rotated(rng):
    ham = random_hamiltonian(4, rng)
    rotation = random_orthogonal(4, rng)
    return lambda: rotate_hamiltonian(ham, rotation), None


def _frozen(rng):
    ham = random_hamiltonian(5, rng)
    space = ActiveSpaceSpec(frozen=(0,), active=(1, 2, 3, 4), n_active_electrons=2)
    return lambda: freeze_core(ham, space)[0], None


BUILDERS = (_direct_roundoff, _from_dense_roundoff, _parsed, _rotated, _frozen)


def _canonical(p, q, r, s):
    p, q, r, s = max(p, q), min(p, q), max(r, s), min(r, s)
    return (p, q, r, s) if pair_index(p, q) >= pair_index(r, s) else (r, s, p, q)


def test_accessor_resolves_all_eight_images(rng):
    # one input per construction path
    for build in BUILDERS:
        make, source = build(rng)
        g = make().two_body_dense()
        for p, q, r, s in itertools.product(range(4), repeat=4):
            value = g[p, q, r, s]
            if source is not None:  # the canonical entry of the input wins
                assert value == source[_canonical(p, q, r, s)], build.__name__
            images = [
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ]
            for image in images:
                assert g[image] == value, build.__name__  # exact, bit for bit


def test_every_construction_checks_once_and_stores_a_fixed_point(rng, monkeypatch):
    # the constructor is the one place a tensor is checked and filled: one
    # symmetrize_two_body call per construction, and the stored tensor is
    # its own fill, so rebuilding from it reproduces it bit for bit
    import onenorm.integrals as integrals

    calls = []

    def counting(dense):
        calls.append(np.shape(dense))
        return symmetrize_two_body(dense)

    for build in BUILDERS:
        make, _ = build(rng)
        monkeypatch.setattr(integrals, "symmetrize_two_body", counting)
        ham = make()
        monkeypatch.undo()
        assert len(calls) == 1, build.__name__
        calls.clear()
        rebuilt = MolecularHamiltonian(
            ham.n_orbitals, ham.core_constant, ham.one_body, ham.two_body
        )
        assert rebuilt.two_body.tobytes() == ham.two_body.tobytes(), build.__name__


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


def test_constructor_makes_h_exactly_symmetric(rng):
    ham = random_hamiltonian(3, rng)
    h = ham.one_body.copy()
    h[0, 1] += 1e-13  # inside the 1e-12 tolerance
    rebuilt = MolecularHamiltonian.from_dense(0.0, h, ham.two_body_dense())
    assert np.array_equal(rebuilt.one_body, rebuilt.one_body.T)
    assert rebuilt.one_body[0, 1] == 0.5 * h[0, 1] + 0.5 * h[1, 0]
    same = MolecularHamiltonian.from_dense(0.0, ham.one_body, ham.two_body)
    assert np.array_equal(same.one_body, ham.one_body)  # a symmetric h is kept bit for bit


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
    with pytest.raises(InputError, match=r"one-body tensor shape \(2, 3\)"):
        MolecularHamiltonian(
            n_orbitals=2,
            core_constant=0.0,
            one_body=np.zeros((2, 3)),
            two_body=np.zeros((2,) * 4),
        )
    with pytest.raises(InputError, match="core constant is not finite"):
        MolecularHamiltonian(
            n_orbitals=1,
            core_constant=np.inf,
            one_body=np.zeros((1, 1)),
            two_body=np.zeros((1, 1, 1, 1)),
        )
    roundoff = np.zeros((2,) * 4)
    roundoff[1, 0, 0, 0] = roundoff[0, 1, 0, 0] = roundoff[0, 0, 1, 0] = 0.5
    roundoff[0, 0, 0, 1] = np.nextafter(0.5, 1.0)  # within SYMMETRY_TOL
    # a tensor symmetric to round-off is stored as its fill: the canonical
    # entry (1, 0, 0, 0) wins over the image (0, 0, 0, 1)
    ham = MolecularHamiltonian(
        n_orbitals=2, core_constant=0.0, one_body=np.zeros((2, 2)), two_body=roundoff
    )
    assert ham.two_body[0, 0, 0, 1] == 0.5
    assert roundoff[0, 0, 0, 1] != 0.5  # the input is not written to
    roundoff[0, 0, 0, 1] = 0.5 + 10 * SYMMETRY_TOL
    with pytest.raises(InputError, match="symmetry"):
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


def test_writeable_inputs_are_copied(rng):
    source = random_hamiltonian(3, rng)
    h = source.one_body.copy()
    g = source.two_body_dense().copy()
    built = [
        MolecularHamiltonian(n_orbitals=3, core_constant=0.0, one_body=h, two_body=g),
        MolecularHamiltonian.from_dense(0.0, h, g),
    ]
    h += 1.0
    g += 1.0
    for ham in built:
        assert np.array_equal(ham.one_body, source.one_body)
        assert np.array_equal(ham.two_body, source.two_body)


def class_decomposition_oracle(g):
    """The broadcast-mask class sums: per class (sum, number of entries)."""
    g = np.abs(g)
    n = g.shape[0]
    p, q, r, s = np.ogrid[0:n, 0:n, 0:n, 0:n]
    pq, rs = p == q, r == s
    pr, ps = p == r, p == s
    qr, qs = q == r, q == s
    all_equal = pq & pr & ps
    n_pairs_eq = (
        pq.astype(int) + pr.astype(int) + ps.astype(int)
        + qr.astype(int) + qs.astype(int) + rs.astype(int)
    )
    masks = {
        "pppp": all_equal,
        "pqqq": (n_pairs_eq == 3) & ~all_equal,
        "pqpq": ((pr & qs) | (ps & qr)) & ~all_equal,
        "ppqq": pq & rs & ~all_equal,
        "pqrq": (n_pairs_eq == 1) & (pr | ps | qr | qs),
        "pprs": (n_pairs_eq == 1) & (pq | rs),
        "pqrs": n_pairs_eq == 0,
    }
    total_mask = np.zeros(g.shape, dtype=int)
    out = {}
    for name in CLASS_NAMES:
        m = np.broadcast_to(masks[name], g.shape)
        total_mask += m
        out[name] = (float(np.sum(g[m], dtype=np.longdouble)), int(m.sum()))
    assert (total_mask == 1).all()  # every tuple falls in exactly one class
    return out


def test_class_decomposition_matches_mask_oracle(rng):
    for n in range(1, 8):
        for _ in range(3):
            ham = random_hamiltonian(n, rng)
            sums = class_decomposition(ham)
            assert list(sums) == list(CLASS_NAMES)
            for name, (expected, count) in class_decomposition_oracle(
                ham.two_body_dense()
            ).items():
                if count == 0:
                    assert sums[name] == 0.0, (n, name)
                else:
                    assert sums[name] == pytest.approx(expected, rel=1e-12), (n, name)


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
    ActiveSpaceSpec(frozen=(), active=(0,), n_active_electrons=0).validate(2)  # 1 is virtual
    with pytest.raises(InputError, match="distinct"):
        ActiveSpaceSpec(frozen=(0,), active=(0, 1), n_active_electrons=0).validate(2)
    with pytest.raises(InputError, match="0..1"):
        ActiveSpaceSpec(frozen=(), active=(0, 2), n_active_electrons=0).validate(2)
    with pytest.raises(InputError, match="even"):
        ActiveSpaceSpec(frozen=(), active=(0, 1), n_active_electrons=3).validate(2)
    with pytest.raises(InputError, match="electrons"):
        ActiveSpaceSpec(frozen=(), active=(0,), n_active_electrons=4).validate(1)
    with pytest.raises(InputError, match="negative active electron count"):
        ActiveSpaceSpec(frozen=(), active=(0,), n_active_electrons=-2).validate(1)


def test_auxiliary_overlap_must_be_positive_definite():
    with pytest.raises(InputError, match="positive definite"):
        AuxiliaryIntegrals(ao_overlap=np.diag([1.0, -0.1]))
    with pytest.raises(InputError, match="overlap matrix is not symmetric"):
        AuxiliaryIntegrals(ao_overlap=np.array([[1.0, 0.1], [0.0, 1.0]]))


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
    with pytest.raises(InputError, match="non-negative"):
        AuxiliaryIntegrals(ao_to_atom=[-1, 0], atomic_numbers=[1.0, 1.0])
    with pytest.raises(InputError, match="must be 2-D"):
        AuxiliaryIntegrals(mo_coefficients=np.ones(2))
    with pytest.raises(InputError, match=r"stacked \(3, M, M\)"):
        AuxiliaryIntegrals(dipole_ao=np.zeros((2, 2, 2)))
    dipoles = np.zeros((3, 2, 2))
    dipoles[2, 0, 1] = 0.1
    with pytest.raises(InputError, match="dipole matrices must be symmetric"):
        AuxiliaryIntegrals(dipole_ao=dipoles)


@pytest.mark.parametrize("atoms", [[0.5, 1.7], [float("nan")], [0, np.inf]])
def test_auxiliary_atom_map_entries_are_integers(atoms):
    # the rule holds for library callers as it does for parsed files
    with pytest.raises(InputError, match="AO_ATOM_MAP entries must be integers"):
        AuxiliaryIntegrals(ao_to_atom=atoms)
    assert AuxiliaryIntegrals(ao_to_atom=[0.0, 1.0]).ao_to_atom == (0, 1)
