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
from .integrals import ActiveSpaceSpec, MolecularHamiltonian, symmetrize_two_body

__all__ = [
    "OrbitalRotation",
    "AntisymmetricGenerator",
    "exp_generator",
    "transform_one_body",
    "transform_two_body",
    "rotate_hamiltonian",
    "jacobi_rotation_norm_scan",
    "freeze_core",
    "lowdin_orthogonalize",
    "givens_rotation",
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
        if err > 1e-10:
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
                f"got {params.size}"
            )
        if not np.isfinite(params).all():
            raise InputError("generator parameters must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    def matrix(self) -> np.ndarray:
        k = np.zeros((self.dim, self.dim))
        rows, cols = np.triu_indices(self.dim, k=1)
        k[rows, cols] = self.params
        k -= k.T
        return k

    @classmethod
    def from_matrix(cls, k: np.ndarray) -> "AntisymmetricGenerator":
        k = np.asarray(k, dtype=float)
        if np.max(np.abs(k + k.T), initial=0.0) > 1e-12:
            raise InputError("generator matrix must be antisymmetric")
        rows, cols = np.triu_indices(k.shape[0], k=1)
        return cls(dim=k.shape[0], params=k[rows, cols])


def exp_generator(generator: AntisymmetricGenerator) -> OrbitalRotation:
    """U = exp(-K); orthogonal with unit determinant for antisymmetric K."""
    return OrbitalRotation(expm(-generator.matrix()))


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
    """Four-index transform by staged quarter contractions (O(N^5)).

    The result is symmetry-checked and returned with every permutational
    image set to its canonical entry, so the eight images are exactly equal.
    """
    g = np.asarray(g, dtype=float)
    coeff = np.asarray(coeff, dtype=float)
    m = coeff.shape[0]
    if g.shape != (m, m, m, m):
        raise InputError(
            f"two-body tensor {g.shape} incompatible with coefficient rows {m}"
        )
    out = np.einsum("abcd,ap->pbcd", g, coeff, optimize=True)
    out = np.einsum("pbcd,bq->pqcd", out, coeff, optimize=True)
    out = np.einsum("pqcd,cr->pqrd", out, coeff, optimize=True)
    out = np.einsum("pqrd,ds->pqrs", out, coeff, optimize=True)
    try:
        return symmetrize_two_body(out)
    except InputError as exc:
        raise InputError(f"transformed tensor lost its symmetry: {exc}") from exc


def rotate_hamiltonian(
    ham: MolecularHamiltonian, rotation: OrbitalRotation
) -> MolecularHamiltonian:
    """New Hamiltonian in the rotated basis; core constant unchanged."""
    if rotation.dim != ham.n_orbitals:
        raise InputError(
            f"rotation dimension {rotation.dim} != {ham.n_orbitals} orbitals"
        )
    u = rotation.matrix
    return MolecularHamiltonian(
        n_orbitals=ham.n_orbitals,
        core_constant=ham.core_constant,
        one_body=transform_one_body(ham.one_body, u),
        two_body=transform_two_body(ham.two_body_dense(), u),
        n_electrons=ham.n_electrons,
    )


def givens_rotation(n: int, p: int, q: int, theta: float) -> OrbitalRotation:
    """exp(-K) for the single-pair generator K_pq = theta (p < q sense).

    The embedded 2x2 block is [[cos, -sin], [sin, cos]], matching the
    window-restricted exp(-K) parameterization used by the optimizer, so
    one-parameter scans and one-parameter objectives agree angle for
    angle.  lambda values are periodic in theta with period pi/2 (a
    quarter turn permutes the pair up to signs).
    """
    if p == q or not (0 <= p < n and 0 <= q < n):
        raise InputError(f"invalid rotation pair ({p}, {q}) for {n} orbitals")
    u = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    u[p, p] = c
    u[p, q] = -s
    u[q, p] = s
    u[q, q] = c
    return OrbitalRotation(u)


def jacobi_rotation_norm_scan(ham, p, q, thetas):
    """lambda_Q (identity excluded) after a (p, q) Jacobi rotation, per angle."""
    from .norms import lambda_q

    return [
        lambda_q(rotate_hamiltonian(ham, givens_rotation(ham.n_orbitals, p, q, t)))
        for t in thetas
    ]


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

    if frozen:
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
    else:
        shift = 0.0
        potential = np.zeros((len(active), len(active)))

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
    """S^(-1/2) by symmetric eigendecomposition; errors on near-singular S."""
    s = np.asarray(overlap, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InputError("overlap matrix must be square")
    if np.max(np.abs(s - s.T), initial=0.0) > 1e-10:
        raise InputError("overlap matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh(s)
    if eigenvalues.min() < 1e-10:
        raise NumericalError(
            f"near-singular overlap (smallest eigenvalue {eigenvalues.min():.3e})"
        )
    inv_sqrt = vectors @ np.diag(eigenvalues**-0.5) @ vectors.T
    return 0.5 * (inv_sqrt + inv_sqrt.T)
