import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onenorm import (
    parse_auxiliary,
    parse_fcidump,
    rotate_hamiltonian,
    write_auxiliary,
    write_fcidump,
)
from onenorm.errors import DataWarning, InputError
from onenorm.fcidump import read_labeled_matrix, write_labeled_matrix

from conftest import random_aux, random_hamiltonian, random_orthogonal


def test_single_orbital_direct_read():
    text = "\n".join([
        " &FCI NORB=1,NELEC=2,MS2=0,",
        "  ORBSYM=1,",
        "  ISYM=1,",
        " &END",
        "0.5 1 1 0 0",
        "0.25 1 1 1 1",
        "1.0 0 0 0 0",
    ])
    ham = parse_fcidump(text)
    assert ham.n_orbitals == 1
    assert ham.n_electrons == 2
    assert ham.one_body[0, 0] == 0.5
    assert ham.g(0, 0, 0, 0) == 0.25
    assert ham.core_constant == 1.0


def test_symmetry_expansion_from_single_representative():
    text = " &FCI NORB=4,NELEC=2,\n &END\n0.1 1 2 3 4\n0.0 0 0 0 0\n"
    ham = parse_fcidump(text)
    base = (0, 1, 2, 3)
    p, q, r, s = base
    for a, b in ((p, q), (q, p)):
        for c, d in ((r, s), (s, r)):
            assert ham.g(a, b, c, d) == 0.1
            assert ham.g(c, d, a, b) == 0.1
    assert ham.g(0, 0, 0, 0) == 0.0


def test_roundtrip_bitwise(rng):
    for trial in range(50):
        n = int(rng.integers(1, 7))
        ham = random_hamiltonian(n, rng)
        back = parse_fcidump(write_fcidump(ham))
        assert back.n_orbitals == ham.n_orbitals
        assert back.core_constant == ham.core_constant
        assert np.array_equal(back.one_body, ham.one_body)
        assert np.array_equal(back.two_body, ham.two_body)


def test_roundtrip_rotated_bitwise(rng):
    # a rotated h is exactly symmetric, so its upper triangle survives too
    for n in range(2, 8):
        ham = rotate_hamiltonian(random_hamiltonian(n, rng), random_orthogonal(n, rng))
        back = parse_fcidump(write_fcidump(ham))
        assert np.array_equal(back.one_body, ham.one_body)
        assert np.array_equal(back.two_body, ham.two_body)
        assert back.core_constant == ham.core_constant


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(n, seed):
    ham = random_hamiltonian(n, np.random.default_rng(seed))
    back = parse_fcidump(write_fcidump(ham))
    assert np.array_equal(back.two_body, ham.two_body)
    assert np.array_equal(back.one_body, ham.one_body)


def test_write_zero_hamiltonian_emits_only_core_line():
    ham = random_hamiltonian(2, np.random.default_rng(0), core=0.0, scale=0.0)
    body = [
        line for line in write_fcidump(ham).splitlines()
        if line and not line.startswith((" &", "  "))
    ]
    assert body == ["0.0 0 0 0 0"]


def test_write_emits_one_line_per_symmetry_class():
    g = np.zeros((2, 2, 2, 2))
    for a, b in ((0, 1), (1, 0)):
        for c, d in ((0, 1), (1, 0)):
            g[a, b, c, d] = 0.3
    from onenorm import MolecularHamiltonian

    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)
    two_body_lines = [
        line for line in write_fcidump(ham).splitlines()
        if not line.startswith((" &", "  ")) and "0 0" not in line
    ]
    assert two_body_lines == ["0.3 2 1 2 1"]


def test_write_accepts_stream():
    ham = random_hamiltonian(2, np.random.default_rng(3))
    buffer = io.StringIO()
    write_fcidump(ham, buffer)
    assert parse_fcidump(buffer.getvalue()).allclose(ham)


def test_parse_errors():
    with pytest.raises(InputError, match="&FCI"):
        parse_fcidump("NORB=2\n")
    with pytest.raises(InputError, match="NORB"):
        parse_fcidump(" &FCI NELEC=2,\n &END\n")
    with pytest.raises(InputError, match="outside"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 3 0 0\n")
    with pytest.raises(InputError, match="non-numeric"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\nabc 1 1 0 0\n")
    with pytest.raises(InputError, match="malformed"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 0 1 1\n")
    with pytest.raises(InputError, match="expected"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 1 0\n")
    with pytest.raises(InputError, match="unterminated"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n0.1 1 1 0 0\n")


def test_duplicate_entries_overwrite_with_warning():
    text = (
        " &FCI NORB=1,NELEC=2,\n &END\n"
        "0.25 1 1 1 1\n"
        "0.50 1 1 1 1\n"
        "0.0 0 0 0 0\n"
    )
    with pytest.warns(DataWarning, match="duplicate"):
        ham = parse_fcidump(text)
    assert ham.g(0, 0, 0, 0) == 0.50  # last one wins

    # an agreeing duplicate is silent
    import warnings

    quiet = (
        " &FCI NORB=1,NELEC=2,\n &END\n"
        "0.25 1 1 1 1\n"
        "0.25 1 1 1 1\n"
        "0.0 0 0 0 0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_fcidump(quiet)


def test_orbsym_parsed_and_ignored():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n0.5 1 1 0 0\n0.0 0 0 0 0\n"
    ham = parse_fcidump(text)
    assert ham.one_body[0, 0] == 0.5


def test_parse_auxiliary_identity_overlap():
    aux = parse_auxiliary("#SECTION OVERLAP 2 2\n1 0\n0 1\n")
    assert np.array_equal(aux.ao_overlap, np.eye(2))


def test_parse_auxiliary_rejects_indefinite_overlap():
    text = "#SECTION OVERLAP 2 2\n1 0\n0 -0.1\n"
    with pytest.raises(InputError, match="positive definite"):
        parse_auxiliary(text)


def test_parse_auxiliary_full_file_cross_checks(rng):
    aux = random_aux(4, rng, n_atoms=2)
    back = parse_auxiliary(write_auxiliary(aux))
    assert np.allclose(back.ao_overlap, aux.ao_overlap, atol=0)
    assert np.allclose(back.mo_coefficients, aux.mo_coefficients, atol=0)
    assert np.allclose(back.dipole_ao, aux.dipole_ao, atol=0)
    assert back.ao_to_atom == aux.ao_to_atom
    assert back.atomic_numbers == aux.atomic_numbers


def test_parse_auxiliary_errors():
    with pytest.raises(InputError, match="unknown section"):
        parse_auxiliary("#SECTION JUNK 1 1\n1\n")
    with pytest.raises(InputError, match="expected 4 values"):
        parse_auxiliary("#SECTION OVERLAP 2 2\n1 0 0\n")
    with pytest.raises(InputError, match="together"):
        parse_auxiliary("#SECTION DIPOLE_X 1 1\n0.0\n")
    with pytest.raises(InputError, match="before any"):
        parse_auxiliary("1.0 2.0\n")
    with pytest.raises(InputError, match="AOs"):
        parse_auxiliary(
            "#SECTION OVERLAP 2 2\n1 0\n0 1\n#SECTION AO_ATOM_MAP 1 3\n0 0 1\n"
        )


def test_labeled_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 5))
    text = write_labeled_matrix("ROTATION", m)
    assert np.array_equal(read_labeled_matrix(text), m)
    assert np.array_equal(read_labeled_matrix(text, "rotation"), m)
    with pytest.raises(InputError, match="not found"):
        read_labeled_matrix(text, "OVERLAP")


def test_bare_matrix_read():
    assert np.array_equal(
        read_labeled_matrix("1 2\n3 4\n"), np.array([[1.0, 2.0], [3.0, 4.0]])
    )
