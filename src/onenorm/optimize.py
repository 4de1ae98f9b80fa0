"""Direct minimization of lambda_Q over exp(-K) orbital rotations.

The objective is piecewise smooth (absolute values everywhere).  Its
exact subgradient, taken through the adjoint Frechet derivative of expm,
is fed to one bounded quasi-Newton (L-BFGS-B) or sequential-quadratic
(SLSQP) run, capped at ``max_iterations`` iterations; whether it converged
and why it stopped are scipy's own verdict.  The best evaluated point is
tracked independently of the solver, so the returned basis never has a
higher 1-norm than the starting one.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm_frechet
from scipy.optimize import minimize as scipy_minimize

from .errors import ConvergenceWarning, InputError, NumericalError
from .integrals import AuxiliaryIntegrals, MolecularHamiltonian, index_plan, row_blocks
from .localize import (
    METHODS, SCHEMES, LocalizationRequest, check_limits, check_window, localize, resolve_window,
)
from .norms import lambda_q, quarter_rows, t_matrix
from .transform import AntisymmetricGenerator, OrbitalRotation, exp_generator, rotate_hamiltonian

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "IterationRecord",
    "objective",
    "jacobi_rotation_norm_scan",
    "minimize_norm",
]

_ALGORITHMS = {"quasi-newton-bounded": "L-BFGS-B", "sequential-quadratic": "SLSQP"}

_STARTS = ("current", *(f"localized:{scheme}" for scheme in SCHEMES))


@dataclass(frozen=True)
class OptimizerConfig:
    window: tuple[int, ...] | None = None
    max_iterations: int = 600
    convergence_tol: float = 1e-8
    algorithm: str = "quasi-newton-bounded"
    start_from: str = "localized:er"
    localization_method: str = "jacobi"

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise InputError(f"algorithm must be one of {list(_ALGORITHMS)}, "
                             f"got {self.algorithm!r}")
        if self.start_from not in _STARTS:
            raise InputError(f"start_from must be one of {_STARTS}, got {self.start_from!r}")
        if self.localization_method not in METHODS:
            raise InputError(f"localization_method must be one of {METHODS}, "
                             f"got {self.localization_method!r}")
        object.__setattr__(self, "window", check_window(self.window))
        object.__setattr__(self, "max_iterations", check_limits(
            "max_iterations", self.max_iterations, self.convergence_tol))
        self.start_request()  # refuses what the request refuses: ascent for fb and pm

    @property
    def scipy_method(self) -> str:
        return _ALGORITHMS[self.algorithm]

    def start_scheme(self) -> str | None:
        if self.start_from == "current":
            return None
        return self.start_from.partition(":")[2]

    def start_request(self) -> LocalizationRequest | None:
        """The localization the run starts from; None for the input basis."""
        scheme = self.start_scheme()
        if scheme is None:
            return None
        return LocalizationRequest(scheme=scheme, window=self.window,
                                   method=self.localization_method)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lambda_value: float
    best_so_far: float


@dataclass(frozen=True)
class OptimizationResult:
    rotation: OrbitalRotation
    hamiltonian: MolecularHamiltonian
    trace: tuple[IterationRecord, ...]
    converged: bool
    lambda_initial: float
    lambda_start: float
    lambda_final: float
    n_objective_calls: int
    n_gradient_calls: int
    start_scheme: str | None = None  # the localization started from; None for the input
    stop_reason: str = ""  # scipy's message, or why scipy was not run or did not finish
    grad_inf_norm: float | None = None  # max |subgradient| at the returned point

    @property
    def reduction_percent(self) -> float:
        if self.lambda_initial == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.lambda_final / self.lambda_initial)


def _window_rotation(n, window, kvec) -> OrbitalRotation:
    """exp(-K) on the window orbitals, identity elsewhere (exactly)."""
    kvec = np.asarray(kvec, dtype=float)
    if not np.isfinite(kvec).all():  # checked first: a NaN trial point is not an input error
        raise NumericalError("non-finite rotation parameters")
    generator = AntisymmetricGenerator(dim=len(window), params=kvec)
    if not np.any(kvec):
        return OrbitalRotation.identity(n)
    if tuple(window) == tuple(range(n)):  # every orbital in order: nothing to embed
        return exp_generator(generator)
    block = exp_generator(generator).matrix
    full = np.eye(n)
    full[np.ix_(window, window)] = block
    return OrbitalRotation(full)


def objective(ham_ref: MolecularHamiltonian, kvec, window=None, full_output=False):
    """lambda_Q (identity excluded) after rotating by exp(-K(kvec)).

    ``full_output`` returns ``(value, rotation, rotated Hamiltonian)``.
    """
    window = resolve_window(check_window(window), ham_ref.n_orbitals)
    rotation = _window_rotation(ham_ref.n_orbitals, window, kvec)
    rotated = rotate_hamiltonian(ham_ref, rotation)
    value = lambda_q(rotated)
    if not np.isfinite(value):
        raise NumericalError("objective evaluated to a non-finite value")
    return (value, rotation, rotated) if full_output else value


def jacobi_rotation_norm_scan(ham, p, q, thetas):
    """``objective`` on the one coordinate K_pq = theta, per angle: the (p, q)
    block of the rotation is [[cos, -sin], [sin, cos]].  Angles are reduced
    to (-pi, pi] first, where exp(-K) stays orthogonal."""
    return [objective(ham, [np.arctan2(np.sin(t), np.cos(t))], window=(p, q)) for t in thetas]


def _gradient(kvec, window, rotated) -> np.ndarray:
    """Exact subgradient of ``objective`` with respect to ``kvec``, O(N^5).

    lambda_Q depends on the rotated integrals through t' = U^T t U (the
    lambda_T matrix) and g', with partials sign(t') and C: 1/4 sign(g'),
    plus 1/2 sign(d) at (p, q, r, s) and -1/2 sign(d) at (p, s, r, q) for
    the quarter d of ``quarter_rows``, read and added through its flat
    offsets one row block at a time.  C holds multiples of 1/4, so any
    summation order gives it exactly.
    So dlambda/dU = U F, F = t' sign(t')^T + t'^T sign(t') + (g' contracted
    with C over each of its four slots), and dlambda/dK = -L(K, dlambda/dU)
    on the window, L being the Frechet derivative of expm (U = exp(-K)).
    Uses sign(0) = 0: at an exact zero of an |.| argument this is one valid
    subgradient, and finite differences there can differ.  ``rotated`` is
    the ``(rotation, Hamiltonian)`` that ``objective`` returns at ``kvec``.
    """
    window = list(window)
    rotation, ham = rotated
    g = ham.two_body_dense()
    t = t_matrix(ham.one_body, g)
    sign_t = np.sign(t)
    c = 0.25 * np.sign(g)
    *_, bra, ket, swapped = index_plan(g.shape[0])
    flat = c.reshape(-1)
    for b in row_blocks(len(bra), len(ket)):
        d = quarter_rows(g, b, len(ket))
        np.sign(d, out=d)
        d *= 0.5
        flat[bra[b] + ket] += d
        flat[bra[b] + swapped] -= d
    # g' is exactly 8-fold symmetric, so each slot's contraction is the
    # first slot's against a transposed C
    c = c + c.transpose(1, 0, 2, 3) + c.transpose(2, 3, 0, 1) + c.transpose(3, 2, 1, 0)
    f = t @ sign_t.T + t.T @ sign_t + np.tensordot(g, c, axes=([1, 2, 3], [1, 2, 3]))
    du = (rotation.matrix @ f)[np.ix_(window, window)]
    k = AntisymmetricGenerator(dim=len(window), params=kvec).matrix()
    dk = -expm_frechet(k, du, compute_expm=False)
    plan = index_plan(len(window))
    return dk[plan.rows, plan.cols] - dk[plan.cols, plan.rows]


_Point = namedtuple("_Point", "x value rotation hamiltonian")  # x, then objective's full output


class _TrackedObjective:
    """Objective and gradient for scipy: call counts and the last and the
    best evaluated ``_Point``; a gradient at the last point reuses its
    rotation."""

    def __init__(self, ham_ref, window):
        self.ham_ref = ham_ref
        self.window = window
        self.calls = 0
        self.gradient_calls = 0
        self.last = self.best = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.last is None or not np.array_equal(x, self.last.x):
            self.last = _Point(x.copy(), *objective(self.ham_ref, x, self.window, full_output=True))
            self.calls += 1
            if self.best is None or self.last.value < self.best.value:
                self.best = self.last
        return self.last.value

    def gradient(self, x):
        self(x)
        self.gradient_calls += 1
        return _gradient(self.last.x, self.window, self.last[2:])


def minimize_norm(
    ham: MolecularHamiltonian,
    config: OptimizerConfig,
    aux: AuxiliaryIntegrals | None = None,
) -> OptimizationResult:
    """Minimize lambda_Q over window rotations, optionally pre-localizing.

    The run starts from the localized basis only when its lambda_Q is not
    above the input's, and from the input otherwise; ``start_scheme`` names
    the start used.  The result is the best point ever evaluated, hence
    never above the starting value: its own lambda_Q and Hamiltonian, its
    rotation after any localization pre-rotation, and the subgradient norm
    there.
    """
    n = ham.n_orbitals
    window = resolve_window(config.window, n)
    lambda_initial = lambda_q(ham)

    scheme = config.start_scheme()
    pre_rotation, ham_ref = OrbitalRotation.identity(n), ham
    if scheme is not None:
        loc = localize(ham, None, aux, config.start_request())
        pre_rotation, ham_ref = loc.rotation, loc.hamiltonian

    n_params = len(window) * (len(window) - 1) // 2
    tracked = _TrackedObjective(ham_ref, window)
    lambda_start = tracked(np.zeros(n_params))
    if lambda_start > lambda_initial:  # the localized start is above the input: use the input
        pre_rotation, scheme = OrbitalRotation.identity(n), None
        tracked = _TrackedObjective(ham, window)
        lambda_start = tracked(np.zeros(n_params))

    trace: list[IterationRecord] = []

    def callback(xk, *_args):
        trace.append(IterationRecord(iteration=len(trace), lambda_value=tracked(xk),
                                     best_so_far=tracked.best.value))

    if n_params == 0:
        converged, stop_reason = True, "no free parameters"
    elif config.max_iterations == 0:  # L-BFGS-B would still take a step
        converged, stop_reason = False, "max_iterations is 0: returned the start"
    else:
        try:
            result = scipy_minimize(
                tracked,
                np.zeros(n_params),
                jac=tracked.gradient,
                method=config.scipy_method,
                callback=callback,
                options={"maxiter": config.max_iterations, "ftol": config.convergence_tol},
            )
            converged, stop_reason = bool(result.success), str(result.message)
        except NumericalError as exc:  # a trial point failed: keep the best one
            converged, stop_reason = False, f"stopped at the best point: {exc}"
    if not converged:
        warnings.warn(
            f"1-norm optimization did not converge ({stop_reason}); "
            "returning the best point found",
            ConvergenceWarning,
            stacklevel=2,
        )

    best = tracked.best
    grad_inf_norm = None  # taken once, outside the solver's counts
    if n_params:
        grad_inf_norm = float(np.max(np.abs(_gradient(best.x, window, best[2:]))))
    return OptimizationResult(
        rotation=pre_rotation.then(best.rotation),
        hamiltonian=best.hamiltonian,
        trace=tuple(trace),
        converged=converged,
        lambda_initial=lambda_initial,
        lambda_start=lambda_start,
        lambda_final=best.value,
        n_objective_calls=tracked.calls,
        n_gradient_calls=tracked.gradient_calls,
        start_scheme=scheme,
        stop_reason=stop_reason,
        grad_inf_norm=grad_inf_norm,
    )
