"""Exact Pauli expansion of small Hamiltonians for independent verification.

The Hamiltonian sum_pq h_pq E_pq + 1/2 sum_pqrs g_pqrs e_pqrs + const is
expanded through the Jordan-Wigner transformation with exact symbolic
Pauli algebra, equal strings combined.  The 1-norm of the resulting
coefficient vector is the quantity the closed-form expressions in
:mod:`onenorm.norms` must reproduce, so nothing here may depend on them.

Spin orbital -> qubit ordering is orbital-major, spin-minor: spatial
orbital p with spin sigma in {0, 1} sits on qubit 2p + sigma.  A Pauli
word is held as a pair of bit masks (x, z) with qubit k on bit k; the
string form writes qubit 0 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .integrals import MolecularHamiltonian

__all__ = [
    "PauliTermSum",
    "jordan_wigner_expand",
    "lambda_q_oracle",
    "sparsity_count",
    "dense_matrix",
    "determinant_expectation",
]

MAX_EXPAND_ORBITALS = 8   # 16 qubits
MAX_DENSE_QUBITS = 12
PRUNE = 1e-14

# i-power of the single-qubit product L*R, indexed by code = x + 2z
# (I=0, X=1, Z=2, Y=3).  Cyclic X->Y->Z products pick up +i.
_PHASE_EXP = (
    (0, 0, 0, 0),  # I * .
    (0, 0, 3, 1),  # X * (I X Z Y)
    (0, 1, 0, 3),  # Z * (I X Z Y)
    (0, 3, 1, 0),  # Y * (I X Z Y)
)
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def multiply_words(xl: int, zl: int, xr: int, zr: int) -> tuple[int, int, complex]:
    """Product of two Pauli words: masks of the result and its phase."""
    exponent = 0
    both = (xl | zl) & (xr | zr)
    while both:
        bit = both & -both
        code_l = (1 if xl & bit else 0) + (2 if zl & bit else 0)
        code_r = (1 if xr & bit else 0) + (2 if zr & bit else 0)
        exponent += _PHASE_EXP[code_l][code_r]
        both ^= bit
    return xl ^ xr, zl ^ zr, _I_POW[exponent & 3]


def word_to_string(x: int, z: int, n_qubits: int) -> str:
    chars = []
    for k in range(n_qubits):
        bit = 1 << k
        chars.append("IXZY"[(1 if x & bit else 0) + (2 if z & bit else 0)])
    return "".join(chars)


def string_to_word(word: str) -> tuple[int, int]:
    x = z = 0
    for k, ch in enumerate(word):
        if ch in ("X", "Y"):
            x |= 1 << k
        if ch in ("Z", "Y"):
            z |= 1 << k
        if ch not in "IXYZ":
            raise InputError(f"invalid Pauli letter {ch!r}")
    return x, z


def _ladder(qubit: int, dagger: bool) -> dict[tuple[int, int], complex]:
    """JW image of a (dagger=False) or a^dagger (dagger=True) on ``qubit``."""
    parity = (1 << qubit) - 1
    bit = 1 << qubit
    sign = -0.5j if dagger else 0.5j
    return {
        (bit, parity): 0.5 + 0.0j,         # X_q Z_(<q)
        (bit, parity | bit): sign,          # Y_q Z_(<q)
    }


def _op_product(ops):
    """Fold a sequence of {word: coeff} operators into one."""
    result = {(0, 0): 1.0 + 0.0j}
    for op in ops:
        folded: dict[tuple[int, int], complex] = {}
        for (xl, zl), cl in result.items():
            for (xr, zr), cr in op.items():
                x, z, phase = multiply_words(xl, zl, xr, zr)
                key = (x, z)
                folded[key] = folded.get(key, 0.0) + cl * cr * phase
        result = folded
    return result


@dataclass(frozen=True)
class PauliTermSum:
    """Deduplicated real-coefficient Pauli decomposition of an operator."""

    n_qubits: int
    terms: dict[str, float]

    def __post_init__(self):
        for word in self.terms:
            if len(word) != self.n_qubits:
                raise InputError(
                    f"term {word!r} has length {len(word)}, expected {self.n_qubits}"
                )

    @property
    def identity_coefficient(self) -> float:
        return self.terms.get("I" * self.n_qubits, 0.0)


def jordan_wigner_expand(ham: MolecularHamiltonian) -> PauliTermSum:
    """Expand a Hamiltonian (core constant included) into Pauli terms."""
    n = ham.n_orbitals
    if n > MAX_EXPAND_ORBITALS:
        raise InputError(
            f"{n} orbitals exceeds the {MAX_EXPAND_ORBITALS}-orbital expansion guard"
        )
    n_qubits = 2 * n
    acc: dict[tuple[int, int], complex] = {}

    def add(words: dict[tuple[int, int], complex], weight: complex):
        for key, coeff in words.items():
            acc[key] = acc.get(key, 0.0) + weight * coeff

    if ham.core_constant:
        acc[(0, 0)] = complex(ham.core_constant)

    creators = [_ladder(i, dagger=True) for i in range(n_qubits)]
    annihilators = [_ladder(i, dagger=False) for i in range(n_qubits)]

    h = ham.one_body
    for p in range(n):
        for q in range(n):
            if h[p, q] == 0.0:
                continue
            for sigma in (0, 1):
                add(_op_product([creators[2 * p + sigma], annihilators[2 * q + sigma]]),
                    h[p, q])

    g = ham.two_body_dense()
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    val = g[p, q, r, s]
                    if val == 0.0:
                        continue
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            i, j = 2 * p + sigma, 2 * r + tau
                            k, l = 2 * s + tau, 2 * q + sigma
                            if i == j or k == l:
                                continue  # a!a! or aa on the same mode
                            add(
                                _op_product(
                                    [creators[i], creators[j],
                                     annihilators[k], annihilators[l]]
                                ),
                                0.5 * val,
                            )

    terms: dict[str, float] = {}
    imag_tol = 1e-12 * max(1.0, max((abs(c) for c in acc.values()), default=0.0))
    for (x, z), coeff in acc.items():
        if abs(coeff.imag) > imag_tol:  # round-off grows with the coefficients
            raise InputError(
                f"non-real Pauli coefficient {coeff!r}; Hamiltonian not Hermitian"
            )
        if abs(coeff.real) < PRUNE:
            continue
        terms[word_to_string(x, z, n_qubits)] = float(coeff.real)
    return PauliTermSum(n_qubits=n_qubits, terms=terms)


def lambda_q_oracle(term_sum: PauliTermSum) -> float:
    """1-norm of the Pauli coefficients, the identity term left out."""
    identity = "I" * term_sum.n_qubits
    total = np.longdouble(0.0)
    for word, coeff in term_sum.terms.items():
        if word != identity:
            total += abs(np.longdouble(coeff))
    return float(total)


def sparsity_count(term_sum: PauliTermSum) -> int:
    """Number of non-identity terms with |coefficient| above 1e-12."""
    identity = "I" * term_sum.n_qubits
    return sum(
        1
        for word, coeff in term_sum.terms.items()
        if word != identity and abs(coeff) > 1e-12
    )


def dense_matrix(term_sum: PauliTermSum) -> np.ndarray:
    """Kronecker assembly; qubit 0 is the least-significant basis bit."""
    n = term_sum.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise InputError(f"{n} qubits exceeds the {MAX_DENSE_QUBITS}-qubit dense guard")
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in term_sum.terms.items():
        block = np.array([[1.0 + 0.0j]])
        for ch in word:  # qubit 0 first -> innermost kron factor
            block = np.kron(_PAULI_MATRICES[ch], block)
        out += coeff * block
    return out


def determinant_expectation(term_sum: PauliTermSum, occupation) -> float:
    """Diagonal matrix element in the basis state given by ``occupation``.

    ``occupation`` is a 0/1 sequence over spin orbitals, index = qubit.
    Only X/Y-free terms contribute: each Z on an occupied mode gives -1.
    """
    occ = [int(b) for b in occupation]
    if len(occ) != term_sum.n_qubits:
        raise InputError(
            f"occupation length {len(occ)} does not match {term_sum.n_qubits} qubits"
        )
    if any(b not in (0, 1) for b in occ):
        raise InputError("occupation entries must be 0 or 1")
    total = 0.0
    for word, coeff in term_sum.terms.items():
        sign = 1
        for k, ch in enumerate(word):
            if ch in ("X", "Y"):
                sign = 0
                break
            if ch == "Z" and occ[k]:
                sign = -sign
        total += sign * coeff
    return total
