"""Hamiltonian and auxiliary-data containers.

The two-electron tensor g_pqrs (chemist convention, (pq|rs)) is stored as a
read-only dense N^4 array in which every symmetry image holds, bit for bit,
the value of its canonical entry (p>=q, r>=s, pair(pq)>=pair(rs)), so the
permutational symmetries

    (pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = (sr|pq) = (rs|qp) = (sr|qp)

hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "MolecularHamiltonian",
    "AuxiliaryIntegrals",
    "ActiveSpaceSpec",
    "class_decomposition",
    "from_pair_matrix",
    "pair_index",
    "pair_matrix",
    "pair_stack",
    "symmetrize_two_body",
]

CLASS_NAMES = ("pppp", "pqqq", "pqpq", "ppqq", "pqrq", "pprs", "pqrs")

SYMMETRY_TOL = 1e-8

BLOCK_ENTRIES = 1 << 16  # entries per block of a pass over an N^4 tensor


def pair_index(p, q):
    """Composite index of the unordered pair {p, q}; works on arrays."""
    hi = np.maximum(p, q)
    lo = np.minimum(p, q)
    return hi * (hi + 1) // 2 + lo


def pair_matrix(g: np.ndarray):
    """``(p, q, G)``: the P = N(N+1)/2 pairs p>=q in pair order and a fresh
    (P, P) array G[a, b] = g[p[a], q[a], p[b], q[b]].

    The one owner of the canonical layout (p>=q, r>=s, pair(pq)>=pair(rs)):
    the canonical entries are G[a, b] with a >= b.
    """
    n = g.shape[0]
    flat = np.flatnonzero(np.tri(n, dtype=bool))  # p>=q row by row: pair order
    p, q = np.divmod(flat, n)
    return p, q, np.take(np.take(g.reshape(n * n, n * n), flat, axis=0), flat, axis=1)


def from_pair_matrix(pairs: np.ndarray, n: int) -> np.ndarray:
    """Read-only N^4 tensor spread from the lower triangle of a pair matrix.

    Values are copied, never combined.  No writeable array shares the
    result's data, so ``MolecularHamiltonian`` stores it without a copy.
    """
    pairs = np.where(np.tri(len(pairs), dtype=bool), pairs, pairs.T)
    spread = pair_index(*np.indices((n, n)).reshape(2, -1))
    out = np.take(np.take(pairs, spread, axis=0), spread, axis=1)
    out.setflags(write=False)
    return out.reshape(n, n, n, n)


def pair_stack(rows: np.ndarray, n: int) -> np.ndarray:
    """(K, N, N) symmetric matrices spread from K rows over the pairs of
    ``pair_matrix``: M_k[p, q] = M_k[q, p] = rows[k, pair(p, q)]."""
    p, q = np.tril_indices(n)  # p>=q row by row: pair order
    mats = np.zeros((len(rows), n, n))
    mats[:, p, q] = mats[:, q, p] = rows
    return mats


def row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Slices over the leading axis, each of about BLOCK_ENTRIES entries.

    Passes over an N^4 tensor go block by block, so their temporaries stay
    a fraction of the tensor; a small tensor is a single block.
    """
    step = max(1, BLOCK_ENTRIES // max(1, row_size))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def symmetrize_two_body(dense: np.ndarray) -> np.ndarray:
    """Canonical fill of a dense N^4 tensor, checking its 8-fold symmetry.

    Raises InputError if the tensor is not N^4, holds non-finite entries, or
    differs from its fill by more than SYMMETRY_TOL anywhere.  The fill is
    read-only (see ``from_pair_matrix``).
    """
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    if dense.shape != (n, n, n, n):
        raise InputError(f"two-body tensor must be N^4, got {dense.shape}")
    if not np.isfinite(dense).all():
        raise InputError("two-body tensor contains non-finite entries")
    filled = from_pair_matrix(pair_matrix(dense)[2], n)
    err = max(
        (float(np.max(np.abs(dense[b] - filled[b]))) for b in row_blocks(n, n**3)),
        default=0.0,
    )
    if err > SYMMETRY_TOL:
        raise InputError(
            f"two-body tensor violates permutational symmetry by {err:.3e} "
            f"(tol {SYMMETRY_TOL:.1e})"
        )
    return filled


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only C-ordered float64 array: ``arr`` itself when no writeable
    array shares its data, otherwise a copy."""
    owner = arr
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None and arr.dtype == np.float64 and arr.flags.c_contiguous:
        return arr
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MolecularHamiltonian:
    """Spin-free electronic Hamiltonian: core constant, h_pq, dense g_pqrs.

    All energies in Hartree.  Instances are immutable; the arrays are
    flagged read-only so they can be shared freely.  A writeable input is
    copied; a read-only float64 one is stored as it is.  The constructor
    accepts only an exactly 8-fold-symmetric two-body tensor; build from
    a tensor that is symmetric to round-off with ``from_dense``.
    """

    n_orbitals: int
    core_constant: float
    one_body: np.ndarray
    two_body: np.ndarray  # dense (N, N, N, N), exactly 8-fold symmetric
    n_electrons: int | None = None

    def __post_init__(self):
        n = self.n_orbitals
        h = _freeze(self.one_body)
        g = _freeze(self.two_body)
        if h.shape != (n, n):
            raise InputError(f"one-body tensor shape {h.shape}, expected ({n}, {n})")
        if g.shape != (n, n, n, n):
            raise InputError(
                f"two-body tensor shape {g.shape}, expected {(n, n, n, n)}"
            )
        if not (np.isfinite(h).all() and np.isfinite(g).all()):
            raise InputError("Hamiltonian contains non-finite entries")
        if not np.isfinite(self.core_constant):
            raise InputError("core constant is not finite")
        if n and np.max(np.abs(h - h.T)) > 1e-12:
            raise InputError("one-body tensor is not symmetric to 1e-12")
        # (pq|rs) = (qp|rs) and (pq|rs) = (rs|pq) generate all eight images
        if not ((g == g.transpose(1, 0, 2, 3)).all()
                and (g == g.transpose(2, 3, 0, 1)).all()):
            raise InputError(
                "two-body tensor is not exactly 8-fold symmetric (use from_dense)"
            )
        object.__setattr__(self, "one_body", h)
        object.__setattr__(self, "two_body", g)
        object.__setattr__(self, "core_constant", float(self.core_constant))

    @classmethod
    def from_dense(cls, core_constant, one_body, two_body_dense, n_electrons=None):
        """Build from a dense N^4 two-body tensor symmetric to SYMMETRY_TOL."""
        one_body = np.asarray(one_body, dtype=float)
        n = one_body.shape[0]
        return cls(
            n_orbitals=n,
            core_constant=float(core_constant),
            one_body=one_body,
            two_body=symmetrize_two_body(two_body_dense),
            n_electrons=n_electrons,
        )

    def g(self, p: int, q: int, r: int, s: int) -> float:
        """Two-electron integral (pq|rs)."""
        return float(self.two_body[p, q, r, s])

    def two_body_dense(self) -> np.ndarray:
        """The full read-only N^4 tensor (no copy)."""
        return self.two_body

    def replace(self, **kw) -> "MolecularHamiltonian":
        fields = dict(
            n_orbitals=self.n_orbitals,
            core_constant=self.core_constant,
            one_body=self.one_body,
            two_body=self.two_body,
            n_electrons=self.n_electrons,
        )
        fields.update(kw)
        return MolecularHamiltonian(**fields)

    def allclose(self, other: "MolecularHamiltonian", tol: float = 0.0) -> bool:
        return (
            self.n_orbitals == other.n_orbitals
            and abs(self.core_constant - other.core_constant) <= tol
            and np.max(np.abs(self.one_body - other.one_body), initial=0.0) <= tol
            and np.max(np.abs(self.two_body - other.two_body), initial=0.0) <= tol
        )


@dataclass(frozen=True)
class AuxiliaryIntegrals:
    """AO-basis data consumed by the localization schemes.

    Every field is optional; each scheme validates what it needs.  S must
    be positive definite, and C^T S C = I is enforced when both the
    overlap and the MO coefficients are present.
    """

    ao_overlap: np.ndarray | None = None
    mo_coefficients: np.ndarray | None = None
    ao_to_atom: tuple[int, ...] | None = None
    atomic_numbers: tuple[float, ...] | None = None
    dipole_ao: np.ndarray | None = None  # stacked (3, M, M)

    def __post_init__(self):
        s = self.ao_overlap
        if s is not None:
            s = _freeze(s)
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise InputError("overlap matrix must be square")
            if np.max(np.abs(s - s.T), initial=0.0) > 1e-10:
                raise InputError("overlap matrix is not symmetric")
            if np.linalg.eigvalsh(s).min() <= 1e-10:
                raise InputError("overlap not positive definite")
            object.__setattr__(self, "ao_overlap", s)
        c = self.mo_coefficients
        if c is not None:
            c = _freeze(c)
            if c.ndim != 2:
                raise InputError("MO coefficient matrix must be 2-D")
            object.__setattr__(self, "mo_coefficients", c)
        if self.dipole_ao is not None:
            d = _freeze(self.dipole_ao)
            if d.ndim != 3 or d.shape[0] != 3 or d.shape[1] != d.shape[2]:
                raise InputError("dipole integrals must be stacked (3, M, M)")
            for k in range(3):
                if np.max(np.abs(d[k] - d[k].T), initial=0.0) > 1e-10:
                    raise InputError("dipole matrices must be symmetric")
            object.__setattr__(self, "dipole_ao", d)
        if self.ao_to_atom is not None:
            object.__setattr__(self, "ao_to_atom", tuple(int(a) for a in self.ao_to_atom))
        if self.atomic_numbers is not None:
            object.__setattr__(
                self, "atomic_numbers", tuple(float(z) for z in self.atomic_numbers)
            )
        self._check_dimensions()

    def _check_dimensions(self):
        m = None

        def check(name, value):
            nonlocal m
            if value is None:
                return
            if m is None:
                m = value
            elif value != m:
                raise InputError(f"{name} implies {value} AOs, other sections imply {m}")

        if self.ao_overlap is not None:
            check("OVERLAP", self.ao_overlap.shape[0])
        if self.mo_coefficients is not None:
            check("MO_COEFF", self.mo_coefficients.shape[0])
        if self.dipole_ao is not None:
            check("DIPOLE", self.dipole_ao.shape[1])
        if self.ao_to_atom is not None:
            check("AO_ATOM_MAP", len(self.ao_to_atom))
            if self.atomic_numbers is not None:
                n_atoms = len(self.atomic_numbers)
                if self.ao_to_atom and max(self.ao_to_atom) >= n_atoms:
                    raise InputError(
                        f"AO_ATOM_MAP references atom {max(self.ao_to_atom)} but only "
                        f"{n_atoms} atomic numbers are given"
                    )
            if any(a < 0 for a in self.ao_to_atom):
                raise InputError("AO_ATOM_MAP entries must be non-negative")
        if (
            self.ao_overlap is not None
            and self.mo_coefficients is not None
        ):
            s, c = self.ao_overlap, self.mo_coefficients
            gram = c.T @ s @ c
            err = np.max(np.abs(gram - np.eye(c.shape[1])))
            if err > 1e-8:
                raise InputError(f"MO coefficients not S-orthonormal (deviation {err:.2e})")

    @property
    def n_ao(self) -> int | None:
        for value in (self.ao_overlap, self.mo_coefficients):
            if value is not None:
                return value.shape[0]
        if self.dipole_ao is not None:
            return self.dipole_ao.shape[1]
        if self.ao_to_atom is not None:
            return len(self.ao_to_atom)
        return None


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Frozen / active / virtual partition of the spatial orbitals."""

    frozen: tuple[int, ...]
    active: tuple[int, ...]
    virtual: tuple[int, ...] = field(default_factory=tuple)
    n_active_electrons: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frozen", tuple(int(i) for i in self.frozen))
        object.__setattr__(self, "active", tuple(int(i) for i in self.active))
        object.__setattr__(self, "virtual", tuple(int(i) for i in self.virtual))

    @classmethod
    def around_fermi(cls, n_orbitals, n_electrons, n_active_orbitals,
                     n_active_electrons):
        """Window of ``n_active_orbitals`` around the highest occupied level.

        Assumes energy-ordered orbitals: the lowest
        (n_electrons - n_active_electrons) / 2 doubly occupied orbitals are
        frozen, the next ``n_active_orbitals`` form the active space, and
        the highest virtuals are deleted.  Degenerate levels are split by
        index order.
        """
        n_frozen_elec = n_electrons - n_active_electrons
        if n_frozen_elec < 0 or n_frozen_elec % 2:
            raise InputError(
                f"cannot freeze {n_frozen_elec} electrons; the frozen count "
                "must be even and non-negative"
            )
        n_frozen = n_frozen_elec // 2
        if n_frozen + n_active_orbitals > n_orbitals:
            raise InputError(
                f"{n_frozen} frozen + {n_active_orbitals} active orbitals "
                f"exceed the {n_orbitals} available"
            )
        frozen = tuple(range(n_frozen))
        active = tuple(range(n_frozen, n_frozen + n_active_orbitals))
        virtual = tuple(range(n_frozen + n_active_orbitals, n_orbitals))
        spec = cls(frozen=frozen, active=active, virtual=virtual,
                   n_active_electrons=n_active_electrons)
        spec.validate(n_orbitals)
        return spec

    def validate(self, n_orbitals: int):
        union = sorted(self.frozen + self.active + self.virtual)
        if union != list(range(n_orbitals)):
            raise InputError(
                "frozen/active/virtual lists must partition the orbital range "
                f"0..{n_orbitals - 1} without overlap"
            )
        if self.n_active_electrons % 2 != 0:
            raise InputError("active electron count must be even (closed-shell)")
        if self.n_active_electrons > 2 * len(self.active):
            raise InputError("more active electrons than active spin orbitals")
        if self.n_active_electrons < 0:
            raise InputError("negative active electron count")


# Diagonal views of the six classes with a repeated index, as einsum
# subscripts; each view is read where its free indices are pairwise distinct.
_CLASS_VIEWS = {
    "pppp": ("pppp->p",),
    "pqqq": ("pqqq->pq", "qpqq->pq", "qqpq->pq", "qqqp->pq"),
    "pqpq": ("pqpq->pq", "pqqp->pq"),
    "ppqq": ("ppqq->pq",),
    "pqrq": ("pqps->pqs", "pqrp->pqr", "pqqs->pqs", "pqrq->pqr"),
    "pprs": ("pprs->prs", "pqrr->pqr"),
}


def class_decomposition(ham: MolecularHamiltonian) -> dict[str, float]:
    """Split sum(|g_pqrs|) over the full tensor into seven index classes.

    Classes by coincidence pattern of (p, q, r, s), counting every
    symmetry image (so e.g. pqrq collects 4|g_pqrq| per distinct p,q,r):

      pppp  all four equal
      pqqq  three equal, one different
      pqpq  two pairs straddling the bra/ket split  (exchange-type)
      ppqq  two pairs inside bra and ket            (Coulomb-type)
      pqrq  one repeated index straddling the split, two singletons
      pprs  one repeated index inside bra or ket, two singletons
      pqrs  all four distinct

    The seven sums add up to the unrestricted sum over all N^4 entries.
    The first six are read from O(N^3) diagonal views; pqrs goes one
    p-slab at a time, so the extra memory is O(N^3).
    """
    n = ham.n_orbitals
    g = ham.two_body_dense()
    i = np.arange(n)
    distinct = {  # masks of pairwise-distinct indices, by count
        1: np.ones(n, dtype=bool),
        2: i[:, None] != i,
        3: (i[:, None, None] != i[:, None]) & (i[:, None, None] != i)
        & (i[:, None] != i),
    }

    def abs_sum(parts) -> float:  # parts are gathered copies, so |.| in place
        return float(sum(
            np.sum(np.abs(part, out=part), dtype=np.longdouble) for part in parts
        ))

    out = {
        name: abs_sum(
            np.einsum(sub, g)[distinct[len(sub.split("->")[1])]] for sub in subs
        )
        for name, subs in _CLASS_VIEWS.items()
    }

    def all_distinct_slabs():
        for p in range(n):
            keep = distinct[3].copy()
            keep[p] = keep[:, p] = keep[:, :, p] = False
            yield g[p][keep]

    out["pqrs"] = abs_sum(all_distinct_slabs())
    return out
