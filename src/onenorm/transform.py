"""Orbital rotations and integral transformations.

Rotations follow the composition convention C~ = C U: column p of U holds
the expansion of new orbital p in the old ones, so tensors transform as
h' = U^T h U and g'_pqrs = sum g_abcd U_ap U_bq U_cr U_ds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InputError, NumericalError
from .integrals import ActiveSpaceSpec, AuxiliaryIntegrals, MolecularHamiltonian, index_plan

__all__ = [
    "OrbitalRotation",
    "AntisymmetricGenerator",
    "exp_generator",
    "transform_one_body",
    "transform_two_body",
    "rotate_hamiltonian",
    "freeze_core",
    "lowdin_orthogonalize",
]


@dataclass(frozen=True)
class OrbitalRotation:
    """Real orthogonal basis change, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.array(self.matrix, dtype=float, copy=True)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InputError("rotation matrix must be square")
        err = np.max(np.abs(u.T @ u - np.eye(u.shape[0])), initial=0.0)
        if not err <= 1e-10:  # NaN entries give a NaN err
            raise InputError(f"matrix is not orthogonal (U^T U deviates by {err:.2e})")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def then(self, other: "OrbitalRotation") -> "OrbitalRotation":
        """Apply ``self`` first, then ``other`` (C U_self U_other)."""
        return OrbitalRotation(self.matrix @ other.matrix)

    @classmethod
    def identity(cls, n: int) -> "OrbitalRotation":
        return cls(np.eye(n))


@dataclass(frozen=True)
class AntisymmetricGenerator:
    """K = -K^T stored as its N(N-1)/2 strict upper-triangle entries."""

    dim: int
    params: np.ndarray

    def __post_init__(self):
        params = np.array(self.params, dtype=float, copy=True).reshape(-1)
        expected = self.dim * (self.dim - 1) // 2
        if params.size != expected:
            raise InputError(
                f"generator for dimension {self.dim} needs {expected} parameters, "
                f"got a vector of length {params.size}"
            )
        if not np.isfinite(params).all():
            raise InputError("generator parameters must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    def matrix(self) -> np.ndarray:
        k = np.zeros((self.dim, self.dim))
        plan = index_plan(self.dim)
        k[plan.rows, plan.cols] = self.params
        k -= k.T
        return k


def exp_generator(generator: AntisymmetricGenerator) -> OrbitalRotation:
    """U = exp(-K); orthogonal with unit determinant for antisymmetric K.

    Raises NumericalError when expm's round-off leaves U further than
    1e-10 from orthogonal, as it does at very large |K|.
    """
    try:
        return OrbitalRotation(expm(-generator.matrix()))
    except InputError as exc:
        kmax = np.max(np.abs(generator.params), initial=0.0)
        raise NumericalError(f"exp(-K) lost orthogonality at max|K| = {kmax:.3g}: {exc}") from None


def transform_one_body(h: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Two-index congruence transform h'_pq = sum_ab h_ab C_ap C_bq."""
    h = np.asarray(h, dtype=float)
    coeff = np.asarray(coeff, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputError("one-body tensor must be square")
    if coeff.ndim != 2 or coeff.shape[0] != h.shape[0]:
        raise InputError(
            f"coefficient rows {coeff.shape} incompatible with tensor {h.shape}"
        )
    return coeff.T @ h @ coeff


def transform_two_body(g: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Four-index transform by four quarter contractions (O(N^5)).

    Each quarter is one GEMM: it contracts the leading old index and
    appends the new one last, so after four the order is (p, q, r, s)
    again and no more than two tensors are live.  The result is the raw
    contraction, symmetric only to round-off; the ``MolecularHamiltonian``
    constructor checks and fills it.
    """
    g = np.asarray(g, dtype=float)
    coeff = np.asarray(coeff, dtype=float)
    m, n = coeff.shape
    if g.shape != (m, m, m, m):
        raise InputError(
            f"two-body tensor {g.shape} incompatible with coefficient rows {m}"
        )
    out = g
    for quarter in range(4):
        out = out.reshape(m, m ** (3 - quarter) * n**quarter).T @ coeff
    return out.reshape(n, n, n, n)


def rotate_hamiltonian(
    ham: MolecularHamiltonian, rotation: OrbitalRotation
) -> MolecularHamiltonian:
    """New Hamiltonian in the rotated basis; core constant unchanged.

    The identity rotation returns ``ham`` itself.
    """
    if rotation.dim != ham.n_orbitals:
        raise InputError(
            f"rotation dimension {rotation.dim} != {ham.n_orbitals} orbitals"
        )
    u = rotation.matrix
    if np.array_equal(u, np.eye(ham.n_orbitals)):
        return ham
    return MolecularHamiltonian(
        n_orbitals=ham.n_orbitals,
        core_constant=ham.core_constant,
        one_body=transform_one_body(ham.one_body, u),
        two_body=transform_two_body(ham.two_body_dense(), u),
        n_electrons=ham.n_electrons,
    )


def freeze_core(
    ham: MolecularHamiltonian, space: ActiveSpaceSpec
) -> tuple[MolecularHamiltonian, float]:
    """Fold doubly occupied frozen orbitals into an active-space Hamiltonian.

    Returns the active Hamiltonian and the frozen mean-field shift

        shift = 2 sum_i h_ii + sum_ij (2 g_iijj - g_ijji)

    The active one-body tensor gains the frozen-orbital potential

        V_tu = sum_i (2 g_tuii - g_tiiu)

    and the active core constant is the original one plus the shift.
    Virtual orbitals are deleted.  For any determinant with the frozen
    orbitals doubly occupied and the virtuals empty, its energy under the
    original Hamiltonian equals its energy under the returned one (both
    including their core constants).
    """
    space.validate(ham.n_orbitals)
    frozen = list(space.frozen)
    active = list(space.active)
    h = ham.one_body
    g = ham.two_body_dense()

    g_ff = g[np.ix_(frozen, frozen, frozen, frozen)]
    shift = float(
        2.0 * np.sum(h[frozen, frozen], dtype=np.longdouble)
        + np.sum(
            2.0 * np.einsum("iijj->ij", g_ff) - np.einsum("ijji->ij", g_ff),
            dtype=np.longdouble,
        )
    )
    potential = 2.0 * np.einsum(
        "tuii->tu", g[np.ix_(active, active, frozen, frozen)]
    ) - np.einsum("tiiu->tu", g[np.ix_(active, frozen, frozen, active)])
    h_active = h[np.ix_(active, active)] + potential
    g_active = g[np.ix_(active, active, active, active)]
    active_ham = MolecularHamiltonian.from_dense(
        core_constant=ham.core_constant + shift,
        one_body=h_active,
        two_body_dense=g_active,
        n_electrons=space.n_active_electrons,
    )
    return active_ham, shift


def lowdin_orthogonalize(overlap: np.ndarray) -> np.ndarray:
    """S^(-1/2) by symmetric eigendecomposition.

    S is read by the ``AuxiliaryIntegrals`` overlap rules, so an empty,
    non-square, asymmetric or not positive definite S is an InputError.
    """
    eigenvalues, vectors = np.linalg.eigh(AuxiliaryIntegrals(ao_overlap=overlap).ao_overlap)
    inv_sqrt = vectors @ np.diag(eigenvalues**-0.5) @ vectors.T
    return 0.5 * (inv_sqrt + inv_sqrt.T)
