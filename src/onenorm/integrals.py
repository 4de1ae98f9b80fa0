"""Hamiltonian and auxiliary-data containers.

The two-electron tensor g_pqrs (chemist convention, (pq|rs)) is stored as a
read-only dense N^4 array in which every symmetry image holds, bit for bit,
the value of its canonical entry (p>=q, r>=s, pair(pq)>=pair(rs)), so the
permutational symmetries

    (pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = (sr|pq) = (rs|qp) = (sr|qp)

hold exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError

__all__ = [
    "MolecularHamiltonian",
    "AuxiliaryIntegrals",
    "ActiveSpaceSpec",
    "class_decomposition",
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


IndexPlan = namedtuple("IndexPlan", "flat p q images mirror spread rows cols bra ket swapped")


@lru_cache(maxsize=16)
def index_plan(n: int) -> IndexPlan:
    """Every index array the layers read for N orbitals, built once per N.

    Each array is read-only and has O(N^2) entries; no N^4 index is kept.

    flat, p, q          the pairs p>=q row by row, which is pair order;
                        flat = p * N + q indexes a row of g reshaped to
                        (N^2, N^2)
    images              the images of each pair in a row of g, 1.0 for
                        p = q and 2.0 otherwise, so that G[a, b] of
                        ``pair_matrix`` stands for images[a] images[b]
                        entries of g
    mirror              q * N + p, the row of the same pair as (q, p)
    spread              the pair index of each flat (p, q), over all N^2
    rows, cols          the strict upper triangle, row by row
    bra, ket, swapped   the p>r, s>q quarter that lambda_V' sums over, as
                        offsets into g.reshape(-1), both in the order of
                        the pairs (hi, lo) of ``np.tril_indices(N, -1)``:
                        bra = hi N^3 + lo N, shape (M, 1), for (p, r), and
                        ket = lo N^2 + hi and swapped = hi N^2 + lo for
                        (s, q), so that bra + ket indexes g_pqrs and
                        bra + swapped g_psrq.  g_pqrs - g_psrq is the same
                        under (p, q, r, s) -> (s, r, q, p), so on an
                        exactly symmetric g the (M, M) quarter is a
                        symmetric matrix bit for bit
    """
    flat = np.flatnonzero(np.tri(n, dtype=bool))
    p, q = np.divmod(flat, n)
    spread = pair_index(*np.indices((n, n)).reshape(2, -1))
    rows, cols = np.triu_indices(n, 1)
    hi, lo = np.tril_indices(n, -1)
    plan = IndexPlan(flat, p, q, np.where(p == q, 1.0, 2.0), q * n + p, spread, rows, cols,
                     (hi * n**3 + lo * n)[:, None], lo * n**2 + hi, hi * n**2 + lo)
    for array in plan:
        array.setflags(write=False)
    return plan


def pair_matrix(g: np.ndarray):
    """``(p, q, G)``: the P = N(N+1)/2 pairs p>=q in pair order and a fresh
    (P, P) array G[a, b] = g[p[a], q[a], p[b], q[b]].

    The one owner of the canonical layout (p>=q, r>=s, pair(pq)>=pair(rs)):
    the canonical entries are G[a, b] with a >= b.  Gathered one block of
    pair rows at a time, so no other (P, N^2)-sized array is built.
    """
    n = g.shape[0]
    flat, p, q, *_ = index_plan(n)
    rows = g.reshape(n * n, n * n)
    out = np.empty((len(flat), len(flat)))
    for block in row_blocks(len(flat), n * n):
        out[block] = rows[flat[block]][:, flat]
    return p, q, out


def pair_stack(rows: np.ndarray, n: int) -> np.ndarray:
    """(K, N, N) symmetric matrices spread from K rows over the pairs of
    ``pair_matrix``: M_k[p, q] = M_k[q, p] = rows[k, pair(p, q)]."""
    _, p, q, *_ = index_plan(n)
    mats = np.zeros((len(rows), n, n))
    mats[:, p, q] = mats[:, q, p] = rows
    return mats


def row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Slices over the leading axis, each of about BLOCK_ENTRIES entries.

    Passes over an N^4 tensor go block by block, so their temporaries stay
    a fraction of the tensor; a small tensor is a single block.
    """
    step = max(1, BLOCK_ENTRIES // max(1, row_size))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def symmetrize_two_body(dense: np.ndarray) -> np.ndarray:
    """Canonical fill of a dense N^4 tensor, checking its 8-fold symmetry.

    Raises InputError if the tensor holds non-finite entries or differs
    from its fill by more than SYMMETRY_TOL anywhere.  The caller checks
    the N^4 shape.

    The fill is a new read-only tensor whose every image holds the lower
    triangle of the pair matrix G of ``dense``, gathered straight from
    ``dense``, so no pair matrix is built beside it.  Block by block of
    about BLOCK_ENTRIES, the pair rows of G are read from its lower
    triangle, G[a, :a+1] along the row and G[a+1:, a] down the column,
    spread over the pair index of each column and written to the rows
    p N + q and q N + p of the result reshaped to (N^2, N^2).  Only the
    block's own square is gathered above the diagonal, and that part is
    replaced from below it.  Values are copied, never combined, so the
    result is its own fill.
    """
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    if not np.isfinite(dense).all():
        raise InputError("two-body tensor contains non-finite entries")
    rows = dense.reshape(n * n, n * n)
    flat, _, _, _, mirror, spread, *_ = index_plan(n)
    size = len(flat)
    filled = np.empty((n * n, n * n))
    for block in row_blocks(size, n * n):
        # a block of whole rows, narrowed to the columns after the copy
        pairs = rows[flat[block]][:, flat[: block.stop]]
        if block.stop < size:  # the columns below: element by element
            below = rows[flat[block.stop:, None], flat[block]]
            pairs = np.concatenate((pairs, below.T), axis=1)
        square = pairs[:, block]
        # flat increases, so this is the square's strict upper triangle
        np.copyto(square, square.T, where=flat[block, None] < flat[block])
        filled[flat[block]] = filled[mirror[block]] = pairs[:, spread]
    filled.setflags(write=False)
    blocks = row_blocks(n * n, n * n)
    buffer = np.empty_like(rows[blocks[0]]) if blocks else None
    err = 0.0
    for block in blocks:
        diff = buffer[: block.stop - block.start]
        np.subtract(rows[block], filled[block], out=diff)
        err = max(err, float(diff.max()), -float(diff.min()))
    if err > SYMMETRY_TOL:
        raise InputError(
            f"two-body tensor violates permutational symmetry by {err:.3e} "
            f"(tol {SYMMETRY_TOL:.1e})"
        )
    return filled.reshape(n, n, n, n)


def integer_tuple(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; InputError naming the first entry
    that is not a whole number (an integral float such as 2.0 is one).
    Ints and numpy integers are taken as they are, so none is rounded."""
    out = []
    for value in values.tolist() if isinstance(values, np.ndarray) else values:
        if not isinstance(value, (int, np.integer)):
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                number = np.nan
            if not number.is_integer():
                raise InputError(f"{name} entries must be integers, got {value!r}")
            value = number
        out.append(int(value))
    return tuple(out)


def known_electron_count(n_electrons) -> int:
    """``n_electrons``, which must be known: None is an InputError."""
    if n_electrons is None:
        raise InputError("the Hamiltonian has no electron count (NELEC)")
    return n_electrons


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only float64 copy of ``arr``."""
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MolecularHamiltonian:
    """Spin-free electronic Hamiltonian: core constant, h_pq, dense g_pqrs.

    All energies in Hartree.  Instances are immutable; the arrays are
    flagged read-only so they can be shared freely.  ``n_electrons``, if
    given, is a whole number in 0..2N, stored as an int.  The constructor
    is the one place where h and g become exactly symmetric: h must be
    symmetric to 1e-12 max(1, max|h|) and is stored as 1/2 (h + h^T), and
    one ``symmetrize_two_body`` call checks g and stores its fill, a new
    array whose eight images are exactly equal.
    """

    n_orbitals: int
    core_constant: float
    one_body: np.ndarray
    two_body: np.ndarray  # dense (N, N, N, N), stored as its canonical fill
    n_electrons: int | None = None

    def __post_init__(self):
        n = self.n_orbitals
        h = np.asarray(self.one_body, dtype=float)
        if h.shape != (n, n):
            raise InputError(f"one-body tensor shape {h.shape}, expected ({n}, {n})")
        if (shape := np.shape(self.two_body)) != (n, n, n, n):
            raise InputError(
                f"two-body tensor shape {shape}, expected {(n, n, n, n)}"
            )
        if not np.isfinite(h).all():
            raise InputError("Hamiltonian contains non-finite entries")
        if not np.isfinite(self.core_constant):
            raise InputError("core constant is not finite")
        if self.n_electrons is not None:
            (nelec,) = integer_tuple((self.n_electrons,), "NELEC")
            if not 0 <= nelec <= 2 * n:
                raise InputError(f"NELEC={nelec} is outside 0..{2 * n}: "
                                 f"{n} orbitals hold at most {2 * n} electrons")
            object.__setattr__(self, "n_electrons", nelec)
        # relative above |h| = 1: a rotation's round-off grows with max|h|
        if n and np.max(np.abs(h - h.T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
            raise InputError("one-body tensor is not symmetric to 1e-12 max(1, max|h|)")
        g = symmetrize_two_body(self.two_body)
        # halved before the sum, so no finite h overflows
        object.__setattr__(self, "one_body", _freeze(0.5 * h + 0.5 * h.T))
        object.__setattr__(self, "two_body", g)
        object.__setattr__(self, "core_constant", float(self.core_constant))

    @classmethod
    def from_dense(cls, core_constant, one_body, two_body_dense, n_electrons=None):
        """Build with N read from h; the constructor checks and fills g."""
        one_body = np.asarray(one_body, dtype=float)
        return cls(
            n_orbitals=one_body.shape[0],
            core_constant=float(core_constant),
            one_body=one_body,
            two_body=two_body_dense,
            n_electrons=n_electrons,
        )

    def two_body_dense(self) -> np.ndarray:
        """The full read-only N^4 tensor (no copy)."""
        return self.two_body

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

    Every field is optional; each scheme validates what it needs.  The
    constructor checks, for parsed files and library callers alike, that
    entries are finite, atom-map entries non-negative integers, S square,
    symmetric, non-empty and positive definite, all fields imply one AO
    count, and C^T S C = I given S and C.  These are the package's one
    statement of the AO rules: ``lowdin_orthogonalize`` reads S through
    them too.
    """

    ao_overlap: np.ndarray | None = None
    mo_coefficients: np.ndarray | None = None
    ao_to_atom: tuple[int, ...] | None = None
    dipole_ao: np.ndarray | None = None  # stacked (3, M, M)

    def __post_init__(self):
        if self.ao_to_atom is not None:
            object.__setattr__(self, "ao_to_atom", integer_tuple(self.ao_to_atom, "AO_ATOM_MAP"))
        for name in ("ao_overlap", "mo_coefficients", "dipole_ao"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise InputError(f"{name} contains non-finite entries")
        implied = []  # (section, the number of AOs it implies)
        s = self.ao_overlap
        if s is not None:
            s = _freeze(s)
            if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
                raise InputError("overlap matrix must be square and non-empty")
            if np.max(np.abs(s - s.T), initial=0.0) > 1e-10:
                raise InputError("overlap matrix is not symmetric")
            if np.linalg.eigvalsh(s).min() <= 1e-10:
                raise InputError("overlap not positive definite")
            object.__setattr__(self, "ao_overlap", s)
            implied.append(("OVERLAP", s.shape[0]))
        c = self.mo_coefficients
        if c is not None:
            c = _freeze(c)
            if c.ndim != 2:
                raise InputError("MO coefficient matrix must be 2-D")
            object.__setattr__(self, "mo_coefficients", c)
            implied.append(("MO_COEFF", c.shape[0]))
        if self.dipole_ao is not None:
            d = _freeze(self.dipole_ao)
            if d.ndim != 3 or d.shape[0] != 3 or d.shape[1] != d.shape[2]:
                raise InputError("dipole integrals must be stacked (3, M, M)")
            if np.max(np.abs(d - d.transpose(0, 2, 1)), initial=0.0) > 1e-10:
                raise InputError("dipole matrices must be symmetric")
            object.__setattr__(self, "dipole_ao", d)
            implied.append(("DIPOLE", d.shape[1]))
        if self.ao_to_atom is not None:
            implied.append(("AO_ATOM_MAP", len(self.ao_to_atom)))
        for name, count in implied:
            if count != implied[0][1]:
                raise InputError(f"{name} implies {count} AOs, other sections imply "
                                 f"{implied[0][1]}")
        if self.ao_to_atom is not None and any(a < 0 for a in self.ao_to_atom):
            raise InputError("AO_ATOM_MAP entries must be non-negative")
        if s is not None and c is not None:
            gram = c.T @ s @ c
            err = np.max(np.abs(gram - np.eye(c.shape[1])), initial=0.0)
            if err > 1e-8:
                raise InputError(f"MO coefficients not S-orthonormal (deviation {err:.2e})")


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Frozen and active spatial orbitals; every other orbital is virtual."""

    frozen: tuple[int, ...]
    active: tuple[int, ...]
    n_active_electrons: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frozen", integer_tuple(self.frozen, "frozen"))
        object.__setattr__(self, "active", integer_tuple(self.active, "active"))
        (nelec,) = integer_tuple((self.n_active_electrons,), "n_active_electrons")
        object.__setattr__(self, "n_active_electrons", nelec)

    @classmethod
    def around_fermi(cls, n_orbitals, n_electrons, n_active_orbitals,
                     n_active_electrons):
        """Window of ``n_active_orbitals`` around the highest occupied level.

        Assumes energy-ordered orbitals: the lowest
        (n_electrons - n_active_electrons) / 2 doubly occupied orbitals are
        frozen, the next ``n_active_orbitals`` form the active space, and
        the highest virtuals are deleted.  Degenerate levels are split by
        index order.  An unknown ``n_electrons`` (None) is an InputError.
        """
        n_frozen_elec = known_electron_count(n_electrons) - n_active_electrons
        if n_frozen_elec < 0 or n_frozen_elec % 2:
            raise InputError(
                f"cannot freeze {n_frozen_elec} electrons; the frozen count "
                "must be even and non-negative"
            )
        n_frozen = n_frozen_elec // 2
        if n_active_orbitals < 0:
            raise InputError(f"the active window needs >= 0 orbitals, got {n_active_orbitals}")
        if n_frozen + n_active_orbitals > n_orbitals:
            raise InputError(
                f"{n_frozen} frozen + {n_active_orbitals} active orbitals "
                f"exceed the {n_orbitals} available"
            )
        spec = cls(frozen=tuple(range(n_frozen)),
                   active=tuple(range(n_frozen, n_frozen + n_active_orbitals)),
                   n_active_electrons=n_active_electrons)
        spec.validate(n_orbitals)
        return spec

    def validate(self, n_orbitals: int):
        chosen = self.frozen + self.active
        if len(set(chosen)) != len(chosen) or not all(0 <= i < n_orbitals for i in chosen):
            raise InputError(
                "frozen and active orbitals must be distinct indices in "
                f"0..{n_orbitals - 1}"
            )
        if self.n_active_electrons % 2 != 0:
            raise InputError("active electron count must be even (closed-shell)")
        if self.n_active_electrons > 2 * len(self.active):
            raise InputError("more active electrons than active spin orbitals")
        if self.n_active_electrons < 0:
            raise InputError("negative active electron count")


# Class of an index tuple, as an index into CLASS_NAMES, by [number of equal
# pairs among (p, q, r, s), whether p = q or r = s]; 4 or 5 cannot occur.
_CLASS_OF_COINCIDENCE = np.array([[6, 6], [4, 5], [2, 3], [1, 1], [-1, -1], [-1, -1], [0, 0]])
# The same by one key, 4 c + 2 [p = q] + [r = s], where c = 0..4 counts the
# equal pairs between {p, q} and {r, s}.
_CLASS_OF_KEY = np.array([_CLASS_OF_COINCIDENCE[c + bra + ket, bra | ket]
                          for c in range(5) for bra in (0, 1) for ket in (0, 1)])


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
    One pass over the rows of the pair matrix, N rows at a time so the
    extra memory is O(N^3): each |G[a, b]| stands for its 1, 2 or 4
    images, and its class follows from how many index pairs coincide.
    """
    n = ham.n_orbitals
    flat, p, q, images, *_ = index_plan(n)
    rows = ham.two_body_dense().reshape(n * n, n * n)
    # the key of _CLASS_OF_KEY for bra pair a and ket pair b is
    # ket_occurs[p[a], b] + occurs[q[a], b] + bra[a], where occurs[k, b] is
    # 4 x how often orbital k is in pair b
    orbitals = np.arange(n)[:, None]
    occurs = 4 * ((orbitals == p).view(np.int8) + (orbitals == q))
    ket_occurs = occurs + (p == q)
    bra = 2 * (p == q).view(np.int8)
    sums = np.zeros(len(CLASS_NAMES), dtype=np.longdouble)
    for start in range(0, len(flat), max(n, 1)):
        a = slice(start, start + n)
        block = np.abs(rows[flat[a]][:, flat])
        block *= images[a, None] * images
        keys = ket_occurs[p[a]] + occurs[q[a]]
        keys += bra[a, None]
        classes = _CLASS_OF_KEY[keys]
        sums += np.bincount(classes.ravel(), block.ravel(), len(CLASS_NAMES))
    return {name: float(total) for name, total in zip(CLASS_NAMES, sums)}
