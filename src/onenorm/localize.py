"""Orbital localization by Jacobi sweeps or gradient ascent, plus Lowdin OAO.

The three molecular-orbital schemes share one engine.  Each maximizes a
weighted sum of squared diagonals over a stack of symmetric matrices,

    L(U) = sum_k w_k sum_{p in window} ((U^T M_k U)_pp)^2,

which a 2x2 rotation of orbitals (i, j) turns into a pure fourth harmonic
in the angle,

    f(theta) = const + A cos(4 theta) + B sin(4 theta),

so the optimal angle per pair is closed-form: 4 theta* = atan2(B, A).
A pair whose A and B are rounding noise is flat and is skipped.

  ER  maximizes sum_{p in window} (pp|pp), the orbital self-repulsion.
      Any factorization g = sum_k s_k M_k (x) M_k gives
      sum_p (pp|pp) = sum_k s_k sum_p (M_k)_pp^2, so the stack holds the
      eigenvectors of the (pq|rs) pair matrix and the weights its
      eigenvalues, of either sign (see :func:`_er_factors`).
  FB  maximizes sum_p |<p|r|p>|^2 over the window: the three MO dipole
      matrices with unit weights.  Because the window trace of <r^2> is
      rotation invariant, this is the same optimum as minimizing the
      orbital spread sum_p (<p|r^2|p> - <p|r|p>^2).
  PM  maximizes sum_p sum_A (orbital Mulliken population on atom A)^2:
      the per-atom population matrices with unit weights.  The aggregate
      atomic-charge sum sum_A Q_A^2 reported by :func:`cost_pm` is
      invariant under window rotations and is kept as a diagnostic only.

The logged objective is the window sum for every scheme; for ER with an
explicit window it leaves out sum_{p not in window} (pp|pp), a constant
that no window rotation changes.

``method="jacobi"`` runs :func:`_jacobi` on the stack for all three
schemes, and ``method="ascent"`` runs :func:`_ascend`: on the stack for FB
and PM, on the two-electron tensor itself for ER.  The orbital optimizer
starts from the ER result, and SLSQP on H2/cc-pVDZ is so sensitive to the
last bits of that start that running the ascent on the stack instead (a
start 4e-9 relative away) took it from 154 to 1838 objective calls.

OAO ignores the window: it returns the rotation carrying the current MO
basis onto the symmetrically orthogonalized AOs, C^-1 S^(-1/2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ConvergenceWarning, InputError
from .integrals import AuxiliaryIntegrals, MolecularHamiltonian, pair_matrix, pair_stack
from .transform import (
    OrbitalRotation,
    lowdin_orthogonalize,
    rotate_hamiltonian,
    transform_two_body,
)

__all__ = [
    "LocalizationRequest",
    "LocalizationResult",
    "SCHEMES",
    "cost_er",
    "cost_fb",
    "cost_pm",
    "localize",
]

SCHEMES = ("oao", "pm", "fb", "er")
METHODS = ("jacobi", "ascent")


@dataclass(frozen=True)
class LocalizationRequest:
    """What to localize and how hard to try.

    ``method`` picks the maximizer for the MO schemes: "jacobi" (pairwise
    sweeps, aggressive, may hop basins) or "ascent" (monotone Riemannian
    gradient ascent, converges to the stationary point nearest the
    starting basis, the way Newton-style localizers in production
    chemistry codes behave).  Both never decrease the objective.
    ``max_sweeps`` caps Jacobi sweeps and ascent iterations alike.  A
    start whose gradient vanishes is stationary for "ascent", which
    returns it after 0 iterations: FB on centrosymmetric canonical
    orbitals (<p|r|p> = 0) and PM with populations equal by symmetry.
    Use "jacobi" for FB and PM there.
    """

    scheme: str
    window: tuple[int, ...] | None = None
    convergence_tol: float = 1e-8
    max_sweeps: int = 200
    seed: int | None = None
    method: str = "jacobi"

    def __post_init__(self):
        scheme = str(self.scheme).lower()
        if scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        object.__setattr__(self, "scheme", scheme)
        method = str(self.method).lower()
        if method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; pick one of {METHODS}")
        object.__setattr__(self, "method", method)
        if self.window is not None:
            window = tuple(int(i) for i in self.window)
            if len(set(window)) != len(window):
                raise InputError("window indices must be distinct")
            object.__setattr__(self, "window", window)

    def resolve_window(self, n_orbitals: int) -> tuple[int, ...]:
        if self.window is None:
            return tuple(range(n_orbitals))
        if self.window and not all(0 <= i < n_orbitals for i in self.window):
            raise InputError(f"window indices out of range 0..{n_orbitals - 1}")
        return self.window


@dataclass(frozen=True)
class LocalizationResult:
    scheme: str
    rotation: OrbitalRotation
    hamiltonian: MolecularHamiltonian
    converged: bool
    sweeps: int
    objective_per_sweep: tuple[float, ...] = field(default_factory=tuple)


def cost_er(ham: MolecularHamiltonian) -> float:
    """Self-repulsion functional sum_p (pp|pp)."""
    return _self_repulsion(ham.two_body_dense(), range(ham.n_orbitals))


def _self_repulsion(g, window) -> float:
    """sum_{p in window} (pp|pp): the ER objective, and its ascent cost."""
    return float(np.sum(np.einsum("pppp->p", g)[list(window)], dtype=np.longdouble))


def _mo_dipoles(coeff, aux: AuxiliaryIntegrals):
    if aux is None or aux.dipole_ao is None:
        raise InputError("scheme needs dipole integrals: missing DIPOLE_X/Y/Z sections")
    if coeff is None:
        coeff = aux.mo_coefficients
    if coeff is None:
        raise InputError("scheme needs MO coefficients (argument or MO_COEFF section)")
    return [coeff.T @ aux.dipole_ao[k] @ coeff for k in range(3)]


def cost_fb(coeff, aux: AuxiliaryIntegrals, window) -> float:
    """Dipole-norm form of the Foster-Boys measure: sum_p |<p|r|p>|^2."""
    return _stack_objective(np.array(_mo_dipoles(coeff, aux)), np.ones(3), window)


def _population_matrices(coeff, aux: AuxiliaryIntegrals):
    """Symmetrized per-atom Mulliken population matrices in the MO basis."""
    if aux is None:
        raise InputError("scheme needs AO data (overlap, atom map, charges)")
    for name, value in (
        ("OVERLAP", aux.ao_overlap),
        ("AO_ATOM_MAP", aux.ao_to_atom),
        ("ATOMIC_NUMBERS", aux.atomic_numbers),
    ):
        if value is None:
            raise InputError(f"scheme needs the {name} section")
    if coeff is None:
        coeff = aux.mo_coefficients
    if coeff is None:
        raise InputError("scheme needs MO coefficients (argument or MO_COEFF section)")
    sc = aux.ao_overlap @ coeff
    atoms = sorted(set(aux.ao_to_atom))
    mats = []
    ao_atom = np.asarray(aux.ao_to_atom)
    for atom in atoms:
        rows = np.flatnonzero(ao_atom == atom)
        half = coeff[rows, :].T @ sc[rows, :]
        mats.append(0.5 * (half + half.T))
    return atoms, mats


def cost_pm(coeff, aux: AuxiliaryIntegrals, window, weight: float = 2.0) -> float:
    """Squared-Mulliken-charge sum over atoms.

    Q_A = Z_A - weight * sum_{p in window} (population of p on A).  The
    default weight 2 treats every window orbital as doubly occupied.
    Invariant under rotations inside the window; see module docstring.
    """
    atoms, mats = _population_matrices(coeff, aux)
    window = list(window)
    total = 0.0
    for atom, mat in zip(atoms, mats):
        z = aux.atomic_numbers[atom]
        population = float(np.sum(np.diagonal(mat)[window], dtype=np.longdouble))
        total += (z - weight * population) ** 2
    return total


def _er_factors(g):
    """Stack (M_k) and weights s_k with g = sum_k s_k M_k (x) M_k.

    The eigenpairs of the (pq|rs) matrix over pairs p >= q, each
    off-diagonal pair scaled by sqrt(2) so that the pair basis is
    orthonormal.  ``eigh`` rather than a Cholesky factorization, because
    the tensor need not be PSD: negative s_k are kept as they are.  Modes
    with |s_k| <= 1e-14 max|s| are dropped.
    """
    rows, cols, pair = pair_matrix(g)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    pair *= np.outer(scale, scale)
    weights, vecs = np.linalg.eigh(pair)
    del pair  # freed before the stack is built: it lowers the peak RSS
    keep = np.abs(weights) > 1e-14 * np.max(np.abs(weights))
    return pair_stack((vecs[:, keep] / scale[:, np.newaxis]).T, g.shape[0]), weights[keep]


def _objective_stack(ham, coeff, aux, scheme):
    """The (K, N, N) stack and weights whose objective the scheme maximizes."""
    if scheme == "er":
        return _er_factors(ham.two_body_dense())
    if scheme == "fb":
        mats = _mo_dipoles(coeff, aux)
    else:
        _, mats = _population_matrices(coeff, aux)
    return np.array(mats, dtype=float), np.ones(len(mats))


def _stack_objective(mats, weights, window) -> float:
    """sum_k w_k sum_{p in window} (M_k)_pp^2."""
    diag = np.einsum("kpp->kp", mats)[:, list(window)]
    return sum(
        (w * float(np.sum(d * d, dtype=np.longdouble)) for w, d in zip(weights, diag)), 0.0
    )


def _stack_gradient(mats, weights, window):
    """Gradient of the stack objective with respect to a generator K.

    Columns convention, as ``_ascend`` uses it: entry (q, p) is
    R_qp - R_pq with R_qp = 4 sum_k w_k (M_k)_qp (M_k)_pp [p in window].
    """
    diag = np.zeros(mats.shape[:2])
    diag[:, list(window)] = np.einsum("kpp->kp", mats)[:, list(window)]
    raw = 4.0 * np.einsum("kqp,kp->qp", mats, weights[:, np.newaxis] * diag)
    return raw - raw.T


def _sweep_pairs(window, sweep_index, seed):
    pairs = [(i, j) for a, i in enumerate(window) for j in window[a + 1:]]
    if seed is not None:
        rng = np.random.default_rng((seed, sweep_index))
        rng.shuffle(pairs)
    return pairs


def _jacobi(mats, weights, window, request):
    """Jacobi sweeps over the stack, rotated in place; returns (U, log, converged, sweeps).

    A rotation by theta of pair (i, j) changes the objective by
    f(theta) - f(0) with f(theta) = const + A cos(4 theta) + B sin(4 theta),
    where, for d_k = (M_k)_ii - (M_k)_jj and v_k = (M_k)_ij,
    A = sum_k w_k (d_k^2 / 4 - v_k^2) and B = -sum_k w_k d_k v_k.  Its
    maximum is hypot(A, B) - A above f(0).  A pair is flat when hypot(A, B)
    is at most 1e-12 sum_k |w_k| (d_k^2 / 4 + v_k^2), the size of the terms
    that cancel in A and B, so rounding noise picks no angle.
    """
    abs_weights = np.abs(weights)
    u = np.eye(mats.shape[1])
    log = [_stack_objective(mats, weights, window)]
    converged = False
    sweeps = 0
    for sweep in range(request.max_sweeps):
        sweeps += 1
        for i, j in _sweep_pairs(window, sweep, request.seed):
            diff = mats[:, i, i] - mats[:, j, j]
            off = mats[:, i, j]
            weighted = weights * diff
            a = 0.25 * float(weighted @ diff) - float((weights * off) @ off)
            b = -float(weighted @ off)
            theta = 0.25 * float(np.arctan2(b, a))
            amplitude = float(np.hypot(a, b))
            scale = 0.25 * float((abs_weights * diff) @ diff) + float((abs_weights * off) @ off)
            if amplitude <= 1e-12 * scale or amplitude - a <= 0.0 or theta == 0.0:
                continue
            c, s = float(np.cos(theta)), float(np.sin(theta))
            # M_k <- G^T M_k G (columns, then rows) and U <- U G
            for view in (mats, mats.swapaxes(1, 2), u):
                col_i, col_j = view[..., i].copy(), view[..., j].copy()
                view[..., i] = c * col_i - s * col_j
                view[..., j] = s * col_i + c * col_j
        log.append(_stack_objective(mats, weights, window))
        if log[-1] - log[-2] < request.convergence_tol * max(abs(log[-1]), 1.0):
            converged = True
            break
    return u, log, converged, sweeps


def _ascend(state, rotate, cost, gradient, window, request):
    """Monotone gradient ascent over window rotations.

    ``cost(state)`` evaluates the objective, ``gradient(state)`` its
    derivative with respect to an antisymmetric generator (columns
    convention), and ``rotate(state, u_step)`` returns the state in the
    rotated basis.  A trial step that improves the objective becomes the
    state as it is; one that does not is halved.  The accumulated rotation
    and the per-iteration objective log are returned.
    """
    n = state.shape[-1]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(window, window)] = True
    u = np.eye(n)
    value = cost(state)
    log = [value]
    eta = None
    converged = False
    iterations = 0
    stalls = 0
    for _ in range(request.max_sweeps):
        grad = np.where(mask, gradient(state), 0.0)
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        scale = max(1.0, abs(value))
        if gnorm <= max(request.convergence_tol, 1e-13) * scale:
            converged = True
            break
        if eta is None:
            eta = 0.2 / gnorm  # first step of ~0.2 rad at the largest entry
        improved = False
        while eta * gnorm >= 1e-15:
            u_step = expm(eta * grad)
            trial = rotate(state, u_step)
            trial_value = cost(trial)
            if trial_value > value:
                state = trial
                u = u @ u_step
                gain = trial_value - value
                value = trial_value
                log.append(value)
                eta *= 1.25
                improved = True
                stalls = stalls + 1 if gain < request.convergence_tol * scale else 0
                break
            eta *= 0.5
        iterations += 1
        if not improved or stalls >= 3:
            converged = True  # out of ascent at this resolution
            break
    return u, log, converged, iterations


def _er_gradient(g):
    """Ascent gradient of sum_p (pp|pp): R_qp - R_pq with R_qp = 4 (pp|pq)."""
    raw = 4.0 * np.einsum("pppq->qp", g)
    return raw - raw.T


def _localize_oao(ham, coeff, aux, request):
    if aux is None or aux.ao_overlap is None:
        raise InputError("OAO needs the OVERLAP section")
    s = aux.ao_overlap
    if coeff is None:
        coeff = aux.mo_coefficients
    n = ham.n_orbitals
    if coeff is None:
        if np.max(np.abs(s - np.eye(s.shape[0]))) > 1e-10:
            raise InputError(
                "OAO needs MO coefficients relating the Hamiltonian basis to the AOs"
            )
        coeff = np.eye(n)
    if coeff.shape != (n, n):
        raise InputError(
            "OAO applies to the full orbital space: MO coefficients must be "
            f"square of dimension {n}, got {coeff.shape}"
        )
    inv_sqrt = lowdin_orthogonalize(s)
    v = np.linalg.solve(coeff, inv_sqrt)
    # project to the nearest orthogonal matrix (polar factor)
    w, _, zt = np.linalg.svd(v)
    rotation = OrbitalRotation(w @ zt)
    return LocalizationResult(
        scheme="oao",
        rotation=rotation,
        hamiltonian=rotate_hamiltonian(ham, rotation),
        converged=True,
        sweeps=0,
        objective_per_sweep=(),
    )


def localize(
    ham: MolecularHamiltonian,
    coeff: np.ndarray | None,
    aux: AuxiliaryIntegrals | None,
    request: LocalizationRequest,
) -> LocalizationResult:
    """Run the requested scheme; rotations act only inside the window.

    Returns the accumulated rotation (identity outside the window) and
    the Hamiltonian rebuilt in the rotated basis.  Hitting ``max_sweeps``
    returns the best basis found and raises a ConvergenceWarning.
    """
    if request.scheme == "oao":
        return _localize_oao(ham, coeff, aux, request)

    window = request.resolve_window(ham.n_orbitals)
    if len(window) < 2:
        return LocalizationResult(
            scheme=request.scheme,
            rotation=OrbitalRotation.identity(ham.n_orbitals),
            hamiltonian=ham,
            converged=True,
            sweeps=0,
            objective_per_sweep=(),
        )

    if request.method == "jacobi":
        mats, weights = _objective_stack(ham, coeff, aux, request.scheme)
        u, log, converged, sweeps = _jacobi(mats, weights, window, request)
    elif request.scheme == "er":
        u, log, converged, sweeps = _ascend(
            ham.two_body_dense(), transform_two_body,
            lambda g: _self_repulsion(g, window), _er_gradient, window, request,
        )
    else:
        mats, weights = _objective_stack(ham, coeff, aux, request.scheme)
        u, log, converged, sweeps = _ascend(
            mats, lambda m, v: v.T @ m @ v,
            lambda m: _stack_objective(m, weights, window),
            lambda m: _stack_gradient(m, weights, window), window, request,
        )

    if not converged:
        warnings.warn(
            f"{request.scheme} localization ({request.method}) stopped at "
            f"max_sweeps={request.max_sweeps}",
            ConvergenceWarning,
            stacklevel=2,
        )
    if np.array_equal(u, np.eye(ham.n_orbitals)):
        rotation = OrbitalRotation.identity(ham.n_orbitals)
        rotated = ham
    else:
        rotation = OrbitalRotation(u)
        rotated = rotate_hamiltonian(ham, rotation)
    return LocalizationResult(
        scheme=request.scheme,
        rotation=rotation,
        hamiltonian=rotated,
        converged=converged,
        sweeps=sweeps,
        objective_per_sweep=tuple(log),
    )
