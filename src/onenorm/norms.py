"""Pauli-basis 1-norm of the electronic Hamiltonian from molecular integrals.

The qubit Hamiltonian written over unique Pauli strings has 1-norm

    lambda_Q = lambda_C + lambda_T + lambda_V'

with

    lambda_C  = |sum_p h_pp + 1/2 sum_pr g_pprr - 1/4 sum_pr g_prrp|
    lambda_T  = sum_pq |h_pq + sum_r g_pqrr - 1/2 sum_r g_prrq|
    lambda_V' = 1/2 sum_{p>r, s>q} |g_pqrs - g_psrq| + 1/4 sum_pqrs |g_pqrs|

lambda_C is the identity coefficient (rotation invariant) and is excluded
from the reported value by default, as is the scalar core constant.  The
older convention lambda = lambda_T + lambda_V with lambda_V = 1/2 sum |g|
is also provided; lambda_V' <= lambda_V always.

All sums over the N^4 index space accumulate in extended precision
(np.longdouble) so results are reproducible to well below test tolerances.
No pass holds more than a fraction of the N^4 tensor in temporaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveSemidefiniteError
from .integrals import (
    MolecularHamiltonian, class_decomposition, pair_matrix, pair_stack, row_blocks,
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
]


def _abs_sum(values) -> float:
    """Sum of |values| in extended precision, over blocks of leading rows."""
    rows = len(values)
    blocks = row_blocks(rows, values[0].size if rows else 0)
    return float(sum(np.sum(np.abs(values[b]), dtype=np.longdouble) for b in blocks))


def _lambda_c(h, g) -> float:
    trace_h = np.sum(np.diagonal(h), dtype=np.longdouble)
    coulomb = np.sum(np.einsum("pprr->pr", g), dtype=np.longdouble)
    exchange = np.sum(np.einsum("prrp->pr", g), dtype=np.longdouble)
    return float(abs(trace_h + 0.5 * coulomb - 0.25 * exchange))


def _lambda_t(h, g) -> float:
    t = h + np.einsum("pqrr->pq", g) - 0.5 * np.einsum("prrq->pq", g)
    return _abs_sum(t)


def _lambda_v_prime(g, abs_sum_g=None) -> float:
    """lambda_V' from the p>r, s>q quarter of g; ``abs_sum_g`` is sum |g|
    when the caller has it."""
    n = g.shape[0]
    p, r = np.tril_indices(n, -1)
    q, s = np.triu_indices(n, 1)
    p, r = p[:, None], r[:, None]
    antisym = g[p, q, r, s]
    antisym -= g[p, s, r, q]  # g_pqrs - g_psrq
    np.abs(antisym, out=antisym)
    if abs_sum_g is None:
        abs_sum_g = _abs_sum(g)
    return 0.5 * float(np.sum(antisym, dtype=np.longdouble)) + 0.25 * abs_sum_g


def lambda_c(ham: MolecularHamiltonian) -> float:
    """Identity-term coefficient magnitude (core constant excluded)."""
    return _lambda_c(ham.one_body, ham.two_body_dense())


def lambda_t(ham: MolecularHamiltonian) -> float:
    """1-norm of the quadratic Majorana coefficients."""
    return _lambda_t(ham.one_body, ham.two_body_dense())


def lambda_v_lee(ham: MolecularHamiltonian) -> float:
    """Plain two-body coefficient norm: 1/2 sum |g_pqrs|."""
    return 0.5 * _abs_sum(ham.two_body_dense())


def lambda_v_prime(ham: MolecularHamiltonian) -> float:
    """Quartic Majorana coefficient norm (tighter than lambda_v_lee)."""
    return _lambda_v_prime(ham.two_body_dense())


def lambda_q(ham: MolecularHamiltonian, include_constant: bool = False) -> float:
    """Pauli 1-norm; identity term included only on request."""
    g = ham.two_body_dense()
    total = _lambda_t(ham.one_body, g) + _lambda_v_prime(g)
    if include_constant:
        total += _lambda_c(ham.one_body, g)
    return total


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
        for name in ("lambda_C", "lambda_T", "lambda_V_lee", "lambda_V_prime",
                     "lambda_Q_no_const", "lambda_Q_full", "lambda_lee"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.lambda_SF is not None and self.lambda_SF < 0.0:
            raise ValueError("lambda_SF must be non-negative")

    def to_dict(self) -> dict:
        out = {
            "n_orbitals": self.n_orbitals,
            "lambda_C": self.lambda_C,
            "lambda_T": self.lambda_T,
            "lambda_V_lee": self.lambda_V_lee,
            "lambda_V_prime": self.lambda_V_prime,
            "lambda_Q_no_const": self.lambda_Q_no_const,
            "lambda_Q_full": self.lambda_Q_full,
            "lambda_lee": self.lambda_lee,
            "class_sums": dict(self.class_sums),
        }
        if self.lambda_SF is not None:
            out["lambda_SF"] = self.lambda_SF
        return out

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "NormReport":
        return cls(
            n_orbitals=int(data["n_orbitals"]),
            lambda_C=float(data["lambda_C"]),
            lambda_T=float(data["lambda_T"]),
            lambda_V_lee=float(data["lambda_V_lee"]),
            lambda_V_prime=float(data["lambda_V_prime"]),
            lambda_Q_no_const=float(data["lambda_Q_no_const"]),
            lambda_Q_full=float(data["lambda_Q_full"]),
            lambda_lee=float(data["lambda_lee"]),
            class_sums={k: float(v) for k, v in data.get("class_sums", {}).items()},
            lambda_SF=float(data["lambda_SF"]) if "lambda_SF" in data else None,
        )


def norm_report(
    ham: MolecularHamiltonian,
    with_cholesky: bool = False,
    cholesky_tolerance: float = 1e-8,
) -> NormReport:
    """Compute all norm variants; sum |g| is taken once and shared."""
    g = ham.two_body_dense()
    lc = _lambda_c(ham.one_body, g)
    lt = _lambda_t(ham.one_body, g)
    abs_sum_g = _abs_sum(g)
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


def cholesky_decompose(
    ham: MolecularHamiltonian, tolerance: float = 1e-8
) -> CholeskyFactorization:
    """Diagonal-pivoted Cholesky of the two-electron tensor.

    Runs on the (pq|rs) pair matrix of ``pair_matrix``.  The N^2 x N^2
    matrix g_(pq),(rs) repeats the row of every pair p != q, so it gives
    the same vectors; pivot ties go to the pair that comes first there,
    the smaller (q, p).  Stops when the largest remaining diagonal drops to
    ``tolerance``.  Diagonal entries below -10*tolerance mean the tensor
    is not positive semi-definite (beyond round-off slack) and raise.
    """
    n = ham.n_orbitals
    p, q, pairs = pair_matrix(ham.two_body_dense())
    order = np.argsort(q * n + p)
    diag = np.diagonal(pairs).copy()
    factor = np.zeros(pairs.shape)  # zero pages: only the rows written take memory
    for rank in range(len(pairs) + 1):
        if diag.min() < -10.0 * tolerance:
            raise NotPositiveSemidefiniteError(
                "two-electron tensor is not positive semi-definite "
                f"(diagonal reached {diag.min():.3e})"
            )
        pivot = int(order[np.argmax(diag[order])])
        if rank == len(pairs) or diag[pivot] <= tolerance:
            break
        vec = (pairs[:, pivot] - factor[:rank, pivot] @ factor[:rank]) / np.sqrt(diag[pivot])
        factor[rank] = vec
        diag -= vec * vec
        diag[pivot] = 0.0
    vectors = tuple(pair_stack(factor[:rank], n))
    return CholeskyFactorization(vectors=vectors, residual=float(diag.max()), tolerance=tolerance)


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
