import itertools

import numpy as np
import pytest

from onenorm import (
    MolecularHamiltonian,
    PauliTermSum,
    dense_matrix,
    determinant_expectation,
    jordan_wigner_expand,
    lambda_c,
    lambda_q_oracle,
    lambda_t,
    lambda_v_prime,
    sparsity_count,
)
from onenorm.errors import InputError
from onenorm.qubit_oracle import multiply_words, string_to_word, word_to_string

from conftest import random_hamiltonian

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def word_matrix(word):
    out = np.array([[1.0 + 0.0j]])
    for ch in word:  # qubit 0 innermost
        out = np.kron(PAULI[ch], out)
    return out


def test_word_multiplication_against_two_qubit_table():
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=2)]
    for left in words:
        for right in words:
            xl, zl = string_to_word(left)
            xr, zr = string_to_word(right)
            x, z, phase = multiply_words(xl, zl, xr, zr)
            product = word_to_string(x, z, 2)
            assert np.allclose(
                word_matrix(left) @ word_matrix(right),
                phase * word_matrix(product),
                atol=1e-14,
            )


def test_word_multiplication_associative(rng):
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=2)]
    idx = rng.integers(0, len(words), size=(40, 3))
    for i, j, k in idx:
        a, b, c = (string_to_word(words[t]) for t in (i, j, k))
        x1, z1, p1 = multiply_words(*a, *b)
        x2, z2, p2 = multiply_words(x1, z1, *c)
        y1, w1, q1 = multiply_words(*b, *c)
        y2, w2, q2 = multiply_words(*a, y1, w1)
        assert (x2, z2) == (y2, w2)
        assert p1 * p2 == q1 * q2


def test_jw_single_orbital_quadratic_terms():
    ham = MolecularHamiltonian(
        n_orbitals=1, core_constant=0.0, one_body=np.array([[1.0]]), two_body=np.zeros((1, 1, 1, 1))
    )
    terms = jordan_wigner_expand(ham).terms
    assert terms == pytest.approx({"II": 1.0, "ZI": -0.5, "IZ": -0.5})


def test_jw_zero_hamiltonian_is_empty():
    ham = MolecularHamiltonian(
        n_orbitals=2, core_constant=0.0, one_body=np.zeros((2, 2)), two_body=np.zeros((2,) * 4)
    )
    assert jordan_wigner_expand(ham).terms == {}


def test_jw_guard_rail():
    ham = MolecularHamiltonian(
        n_orbitals=9, core_constant=0.0, one_body=np.zeros((9, 9)), two_body=np.zeros((9,) * 4)
    )
    with pytest.raises(InputError, match="guard"):
        jordan_wigner_expand(ham)


def test_lambda_q_oracle_single_orbital():
    ham = MolecularHamiltonian(
        n_orbitals=1, core_constant=0.0, one_body=np.array([[1.0]]), two_body=np.zeros((1, 1, 1, 1))
    )
    term_sum = jordan_wigner_expand(ham)
    assert lambda_q_oracle(term_sum) == pytest.approx(1.0, abs=1e-15)
    assert lambda_q_oracle(term_sum, include_identity=True) == pytest.approx(2.0, abs=1e-15)
    assert sparsity_count(term_sum) == 2


def test_oracle_matches_formula(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ham = random_hamiltonian(n, rng, core=0.0)
        term_sum = jordan_wigner_expand(ham)
        formula = lambda_t(ham) + lambda_v_prime(ham)
        assert lambda_q_oracle(term_sum) == pytest.approx(formula, abs=1e-9)
        with_identity = lambda_c(ham) + formula
        assert lambda_q_oracle(term_sum, include_identity=True) == pytest.approx(
            with_identity, abs=1e-9
        )
        assert abs(term_sum.identity_coefficient) == pytest.approx(
            lambda_c(ham), abs=1e-9
        )


def test_all_coefficients_real_and_pruned(rng):
    term_sum = jordan_wigner_expand(random_hamiltonian(3, rng))
    for coeff in term_sum.terms.values():
        assert isinstance(coeff, float)
        assert abs(coeff) >= 1e-14


def ladder_matrix(qubit, n_qubits, dagger):
    """Independent dense construction of the JW ladder operators."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # <0|a|1> = 1
    op = lower.conj().T if dagger else lower
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_qubits):
        if k < qubit:
            factor = PAULI["Z"]
        elif k == qubit:
            factor = op
        else:
            factor = PAULI["I"]
        out = np.kron(factor, out)
    return out


def dense_from_fermions(ham):
    n = ham.n_orbitals
    n_qubits = 2 * n
    dim = 2**n_qubits
    out = np.eye(dim, dtype=complex) * ham.core_constant
    create = [ladder_matrix(i, n_qubits, True) for i in range(n_qubits)]
    destroy = [ladder_matrix(i, n_qubits, False) for i in range(n_qubits)]
    for p in range(n):
        for q in range(n):
            for sigma in (0, 1):
                out += ham.one_body[p, q] * create[2 * p + sigma] @ destroy[2 * q + sigma]
    g = ham.two_body_dense()
    for p, q, r, s in itertools.product(range(n), repeat=4):
        for sigma in (0, 1):
            for tau in (0, 1):
                out += 0.5 * g[p, q, r, s] * (
                    create[2 * p + sigma]
                    @ create[2 * r + tau]
                    @ destroy[2 * s + tau]
                    @ destroy[2 * q + sigma]
                )
    return out


def test_dense_matrix_identity_and_z():
    c = 0.37
    ts = PauliTermSum(n_qubits=2, terms={"II": c})
    assert np.allclose(dense_matrix(ts), c * np.eye(4), atol=0)
    tz = PauliTermSum(n_qubits=2, terms={"ZI": 1.0})
    assert np.allclose(dense_matrix(tz), np.diag([1, -1, 1, -1]), atol=0)


def test_dense_matrix_matches_fermionic_construction(rng):
    ham = random_hamiltonian(2, rng)
    term_sum = jordan_wigner_expand(ham)
    from_terms = dense_matrix(term_sum)
    from_fermions = dense_from_fermions(ham)
    assert np.max(np.abs(from_terms - from_fermions)) < 1e-10
    assert np.max(np.abs(from_terms - from_terms.conj().T)) < 1e-12
    eigenvalues = np.linalg.eigvals(from_terms)
    assert np.max(np.abs(eigenvalues.imag)) < 1e-10


def test_dense_matrix_guard():
    ts = PauliTermSum(n_qubits=14, terms={})
    with pytest.raises(InputError, match="guard"):
        dense_matrix(ts)


def test_determinant_expectation_examples():
    # vacuum with zero core
    ham = MolecularHamiltonian(
        n_orbitals=1, core_constant=0.0, one_body=np.array([[1.0]]),
        two_body=np.full((1, 1, 1, 1), 0.4),
    )
    term_sum = jordan_wigner_expand(ham)
    assert determinant_expectation(term_sum, [0, 0]) == pytest.approx(0.0, abs=1e-14)
    # doubly occupied single orbital: 2 h00 + g0000
    assert determinant_expectation(term_sum, [1, 1]) == pytest.approx(2.4, abs=1e-12)


def test_determinant_expectation_matches_dense_diagonal(rng):
    ham = random_hamiltonian(2, rng)
    term_sum = jordan_wigner_expand(ham)
    dense = dense_matrix(term_sum)
    for index in range(16):
        occ = [(index >> k) & 1 for k in range(4)]
        assert determinant_expectation(term_sum, occ) == pytest.approx(
            dense[index, index].real, abs=1e-11
        )


def test_determinant_expectation_validation():
    ts = PauliTermSum(n_qubits=2, terms={"ZI": 1.0})
    with pytest.raises(InputError, match="length"):
        determinant_expectation(ts, [1])
    with pytest.raises(InputError, match="0 or 1"):
        determinant_expectation(ts, [2, 0])
    with pytest.raises(InputError, match="invalid Pauli letter 'Q'"):
        string_to_word("ZQ")
    with pytest.raises(InputError, match="term 'Z' has length 1, expected 2"):
        PauliTermSum(n_qubits=2, terms={"Z": 1.0})


def test_sparsity_zero_hamiltonian():
    ham = MolecularHamiltonian(
        n_orbitals=1, core_constant=0.0, one_body=np.zeros((1, 1)), two_body=np.zeros((1, 1, 1, 1))
    )
    assert sparsity_count(jordan_wigner_expand(ham)) == 0
