"""Pauli-basis 1-norm of the electronic Hamiltonian from molecular integrals.

The qubit Hamiltonian written over unique Pauli strings has 1-norm

    lambda_Q = lambda_C + lambda_T + lambda_V'

with

    lambda_C  = |sum_p h_pp + 1/2 sum_pr g_pprr - 1/4 sum_pr g_prrp|
    lambda_T  = sum_pq |h_pq + sum_r g_pqrr - 1/2 sum_r g_prrq|
    lambda_V' = 1/2 sum_{p>r, s>q} |g_pqrs - g_psrq| + 1/4 sum_pqrs |g_pqrs|

lambda_C is the identity coefficient (rotation invariant): ``lambda_q``
leaves it out, as it does the scalar core constant, and
``NormReport.lambda_Q_full`` adds it back.  The
older convention lambda = lambda_T + lambda_V with lambda_V = 1/2 sum |g|
is also provided; lambda_V' <= lambda_V always.

All sums over the N^4 index space accumulate in extended precision
(np.longdouble) so results are reproducible to well below test tolerances.
sum |g| and the lambda_V' quarter read each distinct value once, from the
lower triangle of a symmetric matrix with exact power-of-two weights.
That reorders the sums: where np.longdouble is the 80-bit x87 type they
matched the full sums bit for bit on every tensor tested, but a reordered
sum can still differ in the last bit on another input.  No pass holds
more than a fraction of the N^4 tensor in temporaries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import InputError, NotPositiveSemidefiniteError
from .integrals import (
    MolecularHamiltonian, class_decomposition, index_plan, pair_matrix, pair_stack, row_blocks,
)

__all__ = [
    "NormReport",
    "CholeskyFactorization",
    "lambda_c",
    "lambda_t",
    "lambda_v_lee",
    "lambda_v_prime",
    "lambda_q",
    "norm_report",
    "cholesky_decompose",
    "lambda_sf",
    "t_matrix",
    "quarter_rows",
]

CHOLESKY_TOL = 1e-8  # default stopping diagonal of cholesky_decompose


def _symmetric_abs_sum(panels) -> float:
    """Sum of |S| in extended precision over a bit-symmetric matrix S, read
    from its lower triangle: ``panels`` yields S[b, :b.stop] for the row
    blocks b of ``row_blocks`` in order, each a fresh array that is
    overwritten with its |.|.  The part left of a block's square stands for
    itself and its mirror, so it is doubled in place, an exact weight; one
    block is a plain sum of S."""
    total = np.longdouble(0.0)
    for panel in panels:
        np.abs(panel, out=panel)
        panel[:, : panel.shape[1] - panel.shape[0]] *= 2.0
        total += np.sum(panel, dtype=np.longdouble)
    return float(total)


def _image_weighted_pair_panels(g):
    """The row panels G[b, :b.stop] of the pair matrix of ``pair_matrix``,
    gathered from g one row block at a time, each entry times its exact
    image count images[a] images[b] of ``index_plan``."""
    n = g.shape[0]
    flat, _, _, images, *_ = index_plan(n)
    rows = g.reshape(n * n, n * n)
    for b in row_blocks(len(flat), len(flat)):
        panel = rows[flat[b, None], flat[: b.stop]]
        panel *= images[: b.stop]
        panel *= images[b, None]
        yield panel


def _two_body_abs_sum(g) -> float:
    """sum |g_pqrs| over all N^4 entries, each distinct value read once from
    the lower triangle of the pair matrix."""
    return _symmetric_abs_sum(_image_weighted_pair_panels(g))


def t_matrix(h, g) -> np.ndarray:
    """t_pq = h_pq + sum_r g_pqrr - 1/2 sum_r g_prrq, whose |.| sum is lambda_T."""
    return h + np.einsum("pqrr->pq", g) - 0.5 * np.einsum("prrq->pq", g)


def quarter_rows(g, b, stop):
    """A fresh d[b, :stop] of the (M, M) quarter d = g_pqrs - g_psrq over
    p>r, s>q that lambda_V' sums over, M = N(N-1)/2, gathered through the
    offsets ``bra[b] + ket`` and ``bra[b] + swapped`` of ``index_plan``.
    d equals its transpose bit for bit when the images of g are equal."""
    *_, bra, ket, swapped = index_plan(g.shape[0])
    flat = g.reshape(-1)
    bra = bra[b]
    out = np.take(flat, bra + ket[:stop])
    out -= np.take(flat, bra + swapped[:stop])
    return out


def _lambda_v_prime(g, abs_sum_g) -> float:
    """lambda_V' from abs_sum_g = sum |g| and sum |d| over the quarter of
    ``quarter_rows``, each distinct d read once from its lower triangle."""
    size = len(index_plan(g.shape[0]).bra)
    abs_sum_d = _symmetric_abs_sum(quarter_rows(g, b, b.stop) for b in row_blocks(size, size))
    return 0.5 * abs_sum_d + 0.25 * abs_sum_g


def lambda_c(ham: MolecularHamiltonian) -> float:
    """Identity-term coefficient magnitude (core constant excluded)."""
    g = ham.two_body_dense()
    trace_h = np.sum(np.diagonal(ham.one_body), dtype=np.longdouble)
    coulomb = np.sum(np.einsum("pprr->pr", g), dtype=np.longdouble)
    exchange = np.sum(np.einsum("prrp->pr", g), dtype=np.longdouble)
    return float(abs(trace_h + 0.5 * coulomb - 0.25 * exchange))


def lambda_t(ham: MolecularHamiltonian) -> float:
    """1-norm of the quadratic Majorana coefficients."""
    t = t_matrix(ham.one_body, ham.two_body_dense())
    return float(np.sum(np.abs(t), dtype=np.longdouble))


def lambda_v_lee(ham: MolecularHamiltonian) -> float:
    """Plain two-body coefficient norm: 1/2 sum |g_pqrs|."""
    return 0.5 * _two_body_abs_sum(ham.two_body_dense())


def lambda_v_prime(ham: MolecularHamiltonian) -> float:
    """Quartic Majorana coefficient norm (tighter than lambda_v_lee)."""
    g = ham.two_body_dense()
    return _lambda_v_prime(g, _two_body_abs_sum(g))


def lambda_q(ham: MolecularHamiltonian) -> float:
    """Pauli 1-norm lambda_T + lambda_V', the identity term left out."""
    return lambda_t(ham) + lambda_v_prime(ham)


@dataclass(frozen=True)
class NormReport:
    """Every 1-norm variant for one Hamiltonian, in Hartree."""

    n_orbitals: int
    lambda_C: float
    lambda_T: float
    lambda_V_lee: float
    lambda_V_prime: float
    lambda_Q_no_const: float
    lambda_Q_full: float
    lambda_lee: float
    class_sums: dict[str, float] = field(default_factory=dict)
    lambda_SF: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)  # lambda_SF may keep its default, None
            if f.name.startswith("lambda_") and value is not f.default and value < 0.0:
                raise ValueError(f"{f.name} must be non-negative")

    def to_dict(self) -> dict:
        """The fields, leaving out lambda_SF when it was not computed."""
        return {name: value for name, value in asdict(self).items() if value is not None}


def norm_report(
    ham: MolecularHamiltonian,
    with_cholesky: bool = False,
    cholesky_tolerance: float = CHOLESKY_TOL,
) -> NormReport:
    """Compute all norm variants; sum |g| is taken once and shared."""
    _check_cholesky_tolerance(cholesky_tolerance)
    g = ham.two_body_dense()
    lc = lambda_c(ham)
    lt = lambda_t(ham)
    abs_sum_g = _two_body_abs_sum(g)
    lv = 0.5 * abs_sum_g
    lvp = _lambda_v_prime(g, abs_sum_g)
    lsf = None
    if with_cholesky:
        lsf = lambda_sf(cholesky_decompose(ham, tolerance=cholesky_tolerance))
    no_const = lt + lvp
    return NormReport(
        n_orbitals=ham.n_orbitals,
        lambda_C=lc,
        lambda_T=lt,
        lambda_V_lee=lv,
        lambda_V_prime=lvp,
        lambda_Q_no_const=no_const,
        lambda_Q_full=lc + no_const,
        lambda_lee=lt + lv,
        class_sums=class_decomposition(ham),
        lambda_SF=lsf,
    )


@dataclass(frozen=True)
class CholeskyFactorization:
    """Pivoted Cholesky vectors of g_(pq),(rs): g = sum_l L^l (x) L^l."""

    vectors: tuple[np.ndarray, ...]
    residual: float
    tolerance: float

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def reconstruct(self) -> np.ndarray:
        """Dense N^4 tensor rebuilt from the vectors."""
        n = self.vectors[0].shape[0] if self.vectors else 0
        out = np.zeros((n, n, n, n))
        for vec in self.vectors:
            out += np.einsum("pq,rs->pqrs", vec, vec)
        return out


def _check_cholesky_tolerance(tolerance):
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise InputError(f"Cholesky tolerance must be finite and >= 0, got {tolerance}")


def cholesky_decompose(
    ham: MolecularHamiltonian, tolerance: float = CHOLESKY_TOL
) -> CholeskyFactorization:
    """Diagonal-pivoted Cholesky of the two-electron tensor.

    Runs on the (pq|rs) pair matrix of ``pair_matrix``.  The N^2 x N^2
    matrix g_(pq),(rs) repeats the row of every pair p != q, so it gives
    the same vectors; a diagonal within 1e-12 (relative) of the largest
    ties with it, and ties go to the pair that comes first there, the
    smaller (q, p).  Stops when the largest remaining diagonal drops to
    ``tolerance`` (finite, non-negative).  Diagonal entries below
    -10*tolerance mean the tensor is not positive semi-definite (beyond
    round-off slack) and raise.
    """
    _check_cholesky_tolerance(tolerance)
    n = ham.n_orbitals
    p, q, pairs = pair_matrix(ham.two_body_dense())
    order = np.argsort(q * n + p)
    diag = np.diagonal(pairs).copy()
    factor = np.zeros(pairs.shape)  # zero pages: only the rows written take memory
    for rank in range(len(pairs) + 1):
        if diag.min(initial=0.0) < -10.0 * tolerance:
            raise NotPositiveSemidefiniteError(
                "two-electron tensor is not positive semi-definite "
                f"(diagonal reached {diag.min():.3e})"
            )
        if rank == len(pairs):
            break
        top = diag.max()
        pivot = int(order[np.argmax(diag[order] >= top - 1e-12 * abs(top))])
        if diag[pivot] <= tolerance:
            break
        vec = (pairs[:, pivot] - factor[:rank, pivot] @ factor[:rank]) / np.sqrt(diag[pivot])
        factor[rank] = vec
        diag -= vec * vec
        diag[pivot] = 0.0
    del pairs  # freed before the vectors are built: it lowers the peak
    vectors = tuple(pair_stack(factor[:rank], n))
    residual = float(diag.max(initial=0.0))
    return CholeskyFactorization(vectors=vectors, residual=residual, tolerance=tolerance)


def lambda_sf(factorization: CholeskyFactorization) -> float:
    """Single-factorization 1-norm from Cholesky vectors.

    Computed as sum_l (sum_pq |L^l_pq|)^2 over spatial indices, i.e. the
    spin-summed form 1/4 sum_l (sum over spin-orbital pairs |W|)^2 with
    W = L (+) L.  In this convention lambda_SF bounds lambda_V from above
    for every positive semi-definite tensor.
    """
    total = np.longdouble(0.0)
    for vec in factorization.vectors:
        s = np.sum(np.abs(vec), dtype=np.longdouble)
        total += s * s
    return float(total)
