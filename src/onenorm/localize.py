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
      the per-atom population matrices with unit weights.

The logged objective is the window sum for every scheme, which
:func:`cost_fb` and :func:`cost_pm` also return; for ER with an explicit
window it leaves out sum_{p not in window} (pp|pp), a constant that no
window rotation changes.

``method="jacobi"`` runs :func:`_jacobi` on the stack for all three
schemes.  ``method="ascent"`` serves ER alone and runs :func:`_ascend` on
the two-electron tensor itself: the orbital optimizer starts from its
result, and SLSQP on H2/cc-pVDZ is so sensitive to the last bits of that
start that running the ascent on the stack instead (a start 4e-9 relative
away) took it from 154 to 1838 objective calls.  FB and PM ascent, which
on the shipped inputs stopped at the symmetric canonical start or ended
no lower in lambda_Q than Jacobi, is refused.

OAO ignores the window: it returns the rotation carrying the current MO
basis onto the symmetrically orthogonalized AOs, C^-1 S^(-1/2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .errors import ConvergenceWarning, InputError
from .integrals import (
    AuxiliaryIntegrals, MolecularHamiltonian, integer_tuple, pair_matrix, pair_stack,
    symmetrize_two_body,
)
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


def check_window(window) -> tuple[int, ...] | None:
    """``window`` as a tuple of distinct orbital indices; None means all."""
    if window is None:
        return None
    window = integer_tuple(window, "window")
    if len(set(window)) != len(window):
        raise InputError("window indices must be distinct")
    return window


def resolve_window(window, n_orbitals: int) -> tuple[int, ...]:
    """The orbitals a checked window covers, each in 0..n_orbitals-1."""
    if window is None:
        return tuple(range(n_orbitals))
    if not all(0 <= i < n_orbitals for i in window):
        raise InputError(f"window indices out of range 0..{n_orbitals - 1}")
    return window


def check_limits(cap_name: str, cap: int, tol: float) -> int:
    """The iteration cap as an int; it must be a non-negative whole number,
    and the tolerance a finite non-negative number."""
    (cap,) = integer_tuple((cap,), cap_name)
    if cap < 0:
        raise InputError(f"{cap_name} must be non-negative, got {cap}")
    try:
        tol_ok = bool(np.isfinite(tol)) and tol >= 0.0
    except TypeError:  # not a number
        tol_ok = False
    if not tol_ok:
        raise InputError(f"convergence_tol must be finite and non-negative, got {tol!r}")
    return cap


@dataclass(frozen=True)
class LocalizationRequest:
    """What to localize and how hard to try.

    ``method`` picks the maximizer for the MO schemes: "jacobi" (sweeps
    over the window pairs in rounds of disjoint pairs, aggressive, may hop
    basins) or, for ER only, "ascent" (monotone Riemannian gradient
    ascent, converges to the stationary point nearest the starting basis,
    the way Newton-style localizers in production chemistry codes behave;
    a start whose gradient vanishes is returned after 0 iterations).  Both
    never decrease the objective and are deterministic; FB and PM with
    "ascent" are refused, and OAO ignores the method.  ``max_sweeps``
    caps Jacobi sweeps and ascent iterations alike and must be a
    non-negative whole number; ``convergence_tol`` must be finite and
    non-negative.
    """

    scheme: str
    window: tuple[int, ...] | None = None
    convergence_tol: float = 1e-8
    max_sweeps: int = 200
    method: str = "jacobi"

    def __post_init__(self):
        scheme = str(self.scheme).lower()
        if scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        object.__setattr__(self, "scheme", scheme)
        method = str(self.method).lower()
        if method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if method == "ascent" and scheme in ("fb", "pm"):
            raise InputError(f"method 'ascent' serves er only; use 'jacobi' for {scheme}")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "window", check_window(self.window))
        object.__setattr__(self, "max_sweeps",
                           check_limits("max_sweeps", self.max_sweeps, self.convergence_tol))


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


# The sections each scheme reads, as (section, AuxiliaryIntegrals field); OAO
# also reads MO_COEFF unless the overlap is the identity (see _oao_rotation)
_NEEDS = {"fb": (("DIPOLE_X/Y/Z", "dipole_ao"), ("MO_COEFF", "mo_coefficients")),
          "pm": (("OVERLAP", "ao_overlap"), ("AO_ATOM_MAP", "ao_to_atom"),
                 ("MO_COEFF", "mo_coefficients")),
          "oao": (("OVERLAP", "ao_overlap"),)}


def _checked_aux(scheme, coeff, aux):
    """``aux`` with a ``coeff`` argument as its MO_COEFF section (so the
    section's rules apply to it), holding every section ``scheme`` reads."""
    if coeff is not None:
        aux = replace(aux or AuxiliaryIntegrals(), mo_coefficients=coeff)
    for section, name in _NEEDS.get(scheme, ()):
        if getattr(aux, name, None) is None:
            raise InputError(f"{scheme} needs the {section} section")
    return aux


def _mo_coefficients(aux: AuxiliaryIntegrals, n_orbitals=None):
    """The MO_COEFF section, checked to have ``n_orbitals`` columns (any
    count when that is None); its rows match the other sections' AOs."""
    coeff = aux.mo_coefficients
    if n_orbitals is not None and coeff.shape[1] != n_orbitals:
        raise InputError(f"MO coefficients have shape {coeff.shape}, "
                         f"expected {(len(coeff), n_orbitals)}")
    return coeff


def _mo_stack(scheme, aux: AuxiliaryIntegrals, n_orbitals=None):
    """The (K, N, N) stack FB or PM maximizes with unit weights: the MO
    dipole matrices, or the symmetrized per-atom Mulliken populations."""
    coeff = _mo_coefficients(aux, n_orbitals)
    if scheme == "fb":
        return np.array([coeff.T @ aux.dipole_ao[k] @ coeff for k in range(3)])
    sc = aux.ao_overlap @ coeff
    ao_atom = np.asarray(aux.ao_to_atom)
    mats = []
    for atom in sorted(set(aux.ao_to_atom)):
        rows = np.flatnonzero(ao_atom == atom)
        half = coeff[rows, :].T @ sc[rows, :]
        mats.append(0.5 * (half + half.T))
    return np.array(mats)


def _mo_objective(scheme, coeff, aux, window) -> float:
    mats = _mo_stack(scheme, _checked_aux(scheme, coeff, aux))
    return _stack_objective(mats, np.ones(len(mats)),
                            resolve_window(check_window(window), mats.shape[1]))


def cost_fb(coeff, aux: AuxiliaryIntegrals, window) -> float:
    """The FB objective: dipole-norm form sum_{p in window} |<p|r|p>|^2."""
    return _mo_objective("fb", coeff, aux, window)


def cost_pm(coeff, aux: AuxiliaryIntegrals, window) -> float:
    """The PM objective: sum_{p in window} sum_A (population of p on A)^2."""
    return _mo_objective("pm", coeff, aux, window)


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


def _objective_stack(ham, aux, scheme):
    """The (K, N, N) stack and weights whose objective the scheme maximizes."""
    if scheme == "er":
        return _er_factors(ham.two_body_dense())
    mats = _mo_stack(scheme, aux, ham.n_orbitals)
    return mats, np.ones(len(mats))


def _stack_objective(mats, weights, window) -> float:
    """sum_k w_k sum_{p in window} (M_k)_pp^2."""
    diag = np.einsum("kpp->kp", mats)[:, list(window)]
    squares = np.sum(diag * diag, axis=1, dtype=np.longdouble).astype(float)
    return sum((weights * squares).tolist(), 0.0)


def _round_robin(window):
    """One sweep: rounds (i, j) of disjoint window pairs, index arrays with
    i < j, covering each pair once (circle method; odd windows add a slot -1)."""
    slots = list(window) + [-1] * (len(window) % 2)
    rounds = []
    for _ in range(len(slots) - 1):
        # slot k meets slot -1-k; each pair shows up in both orders
        pairs = [(p, q) for p, q in zip(slots, reversed(slots)) if 0 <= p < q]
        rounds.append(tuple(np.array(pairs).T))
        slots.insert(1, slots.pop())  # every slot but the first moves on
    return rounds


def _jacobi(mats, weights, window, request):
    """Jacobi sweeps over the stack; returns (U, log, converged, sweeps).

    A rotation by theta of pair (i, j) changes the objective by
    f(theta) - f(0) with f(theta) = const + A cos(4 theta) + B sin(4 theta),
    where, for d_k = (M_k)_ii - (M_k)_jj and v_k = (M_k)_ij,
    A = sum_k w_k (d_k^2 / 4 - v_k^2) and B = -sum_k w_k d_k v_k.  Its
    maximum is hypot(A, B) - A above f(0).  A pair is flat when hypot(A, B)
    is at most 1e-12 sum_k |w_k| (d_k^2 / 4 + v_k^2), the size of the terms
    that cancel in A and B, so rounding noise picks no angle.  A B below
    that floor counts as 0, so noise picks no sign either: a pair that a
    symmetry exchanges (A < 0, B = 0) turns by +pi/4.

    A sweep runs the rounds of :func:`_round_robin`.  The pairs of a round
    touch disjoint 2x2 blocks, so their gains add exactly and the round is
    one orthogonal G: M_k <- G^T M_k G and U <- U G.
    """
    n = mats.shape[1]
    stack = mats.transpose(1, 0, 2).copy()  # (N, K, N): G^T M_k and M_k G are one GEMM each
    abs_weights = np.abs(weights)
    rounds = _round_robin(window)
    u = np.eye(n)
    log = [_stack_objective(mats, weights, window)]
    converged = False
    sweeps = 0
    for _ in range(request.max_sweeps):
        sweeps += 1
        for i, j in rounds:
            diff, off = stack[i, :, i] - stack[j, :, j], stack[i, :, j]
            # einsum, not BLAS: the angles do not depend on the thread count
            a = np.einsum("rk,k->r", 0.25 * diff * diff - off * off, weights)
            b = -np.einsum("rk,k->r", diff * off, weights)
            scale = np.einsum("rk,k->r", 0.25 * diff * diff + off * off, abs_weights)
            b = np.where(np.abs(b) <= 1e-12 * scale, 0.0, b)
            theta = 0.25 * np.arctan2(b, a)
            amplitude = np.hypot(a, b)
            keep = (amplitude > 1e-12 * scale) & (amplitude - a > 0.0) & (theta != 0.0)
            i, j, c, s = i[keep], j[keep], np.cos(theta[keep]), np.sin(theta[keep])
            g = np.eye(n)
            g[i, i] = g[j, j] = c
            g[i, j], g[j, i] = s, -s
            stack = (g.T @ (stack.reshape(-1, n) @ g).reshape(n, -1)).reshape(stack.shape)
            u = u @ g
        log.append(_stack_objective(stack.transpose(1, 0, 2), weights, window))
        if log[-1] - log[-2] < request.convergence_tol * max(abs(log[-1]), 1.0):
            converged = True
            break
    return u, log, converged, sweeps


def _ascend(g, window, request):
    """Monotone gradient ascent of sum_{p in window} (pp|pp) over window rotations.

    The gradient with respect to an antisymmetric generator (columns
    convention) is R_qp - R_pq with R_qp = 4 (pp|pq).  A trial step rotates
    the tensor, filled after the transform, and one that improves the
    objective becomes the tensor as it is; one that does not is halved.
    The accumulated rotation and the per-iteration objective log are
    returned.
    """
    n = g.shape[-1]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(window, window)] = True
    u = np.eye(n)
    value = _self_repulsion(g, window)
    log = [value]
    eta = None
    converged = False
    iterations = 0
    stalls = 0
    for _ in range(request.max_sweeps):
        raw = 4.0 * np.einsum("pppq->qp", g)
        grad = np.where(mask, raw - raw.T, 0.0)
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
            trial = symmetrize_two_body(transform_two_body(g, u_step))
            trial_value = _self_repulsion(trial, window)
            if trial_value > value:
                g = trial
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


def _oao_rotation(ham, aux):
    """The rotation carrying the MO basis onto the Lowdin-orthogonalized AOs."""
    s = aux.ao_overlap
    n = ham.n_orbitals
    if len(s) != n:
        raise InputError(f"OAO applies to the full orbital space: {len(s)} AOs for {n} orbitals")
    if aux.mo_coefficients is not None:
        coeff = _mo_coefficients(aux, n)
    elif np.max(np.abs(s - np.eye(n)), initial=0.0) <= 1e-10:
        coeff = np.eye(n)  # orthonormal AOs are the orbitals
    else:
        raise InputError("oao needs the MO_COEFF section")
    # the nearest orthogonal matrix (polar factor) to C^-1 S^(-1/2)
    w, _, zt = np.linalg.svd(np.linalg.solve(coeff, lowdin_orthogonalize(s)))
    return w @ zt


def localize(
    ham: MolecularHamiltonian,
    coeff: np.ndarray | None,
    aux: AuxiliaryIntegrals | None,
    request: LocalizationRequest,
) -> LocalizationResult:
    """Run the requested scheme; rotations act only inside the window.

    A ``coeff`` argument is the MO_COEFF section of ``aux``, by its rules.
    Returns the accumulated rotation (identity outside the window) and
    the Hamiltonian rebuilt in the rotated basis.  Hitting ``max_sweeps``
    returns the best basis found and raises a ConvergenceWarning.
    """
    aux = _checked_aux(request.scheme, coeff, aux)
    if request.scheme == "oao":  # ignores the window
        u, log, converged, sweeps = _oao_rotation(ham, aux), [], True, 0
    elif len(window := resolve_window(request.window, ham.n_orbitals)) < 2:
        u, log, converged, sweeps = np.eye(ham.n_orbitals), [], True, 0
    elif request.method == "jacobi":
        mats, weights = _objective_stack(ham, aux, request.scheme)
        u, log, converged, sweeps = _jacobi(mats, weights, window, request)
    else:  # ER: the request refuses ascent for FB and PM
        u, log, converged, sweeps = _ascend(ham.two_body_dense(), window, request)

    if not converged:
        warnings.warn(
            f"{request.scheme} localization ({request.method}) stopped at "
            f"max_sweeps={request.max_sweeps}",
            ConvergenceWarning,
            stacklevel=2,
        )
    rotation = OrbitalRotation(u)
    return LocalizationResult(scheme=request.scheme, rotation=rotation,
                              hamiltonian=rotate_hamiltonian(ham, rotation), converged=converged,
                              sweeps=sweeps, objective_per_sweep=tuple(log))
