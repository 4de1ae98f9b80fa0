"""Metamorphic checks of the index rules behind lambda_Q.

A signed orbital permutation relabels the orbitals and flips the signs of
some, so it changes no |.| sum: every norm and class sum stays put, the
subgradient at K = 0 turns with the permutation, and a quarter turn of one
pair (p -> q, q -> -p) is such a permutation.  Each check runs over random
Hamiltonians with N = 3..8 and the fixtures with N <= 10.
"""

import numpy as np
import pytest

from onenorm import MolecularHamiltonian, norm_report, parse_fcidump
from onenorm.optimize import _gradient, jacobi_rotation_norm_scan
from onenorm.transform import AntisymmetricGenerator, OrbitalRotation

from conftest import CHAIN_SIZES, H2_FCIDUMP, chain_path, fixtures_present, random_hamiltonian

RANDOM_SIZES = range(3, 9)
FIXTURES = ([H2_FCIDUMP] + [chain_path(n) for n in CHAIN_SIZES if n <= 10]
            if fixtures_present() else [])


def _hamiltonians():
    rng = np.random.default_rng(2021)
    for n in RANDOM_SIZES:
        yield f"random N={n}", random_hamiltonian(n, rng)
    for path in FIXTURES:
        with open(path) as handle:
            yield path, parse_fcidump(handle.read())


HAMILTONIANS = list(_hamiltonians())
IDS = [name.rsplit("/", 1)[-1] for name, _ in HAMILTONIANS]


def _signed_permutation(n, rng):
    """Q with Q[perm[p], p] = sign[p]: orbital p of the result is
    sign[p] times orbital perm[p] of the input."""
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], n)
    q = np.zeros((n, n))
    q[perm, np.arange(n)] = signs
    return q, perm, signs


def _relabel(ham, perm, signs):
    """Q^T H Q by indexing alone, no transform."""
    h = ham.one_body[np.ix_(perm, perm)] * np.outer(signs, signs)
    g = ham.two_body[np.ix_(perm, perm, perm, perm)] * np.einsum(
        "p,q,r,s->pqrs", signs, signs, signs, signs)
    return MolecularHamiltonian.from_dense(ham.core_constant, h, g, ham.n_electrons)


def _flatten(report):
    values = {k: v for k, v in report.to_dict().items() if k != "class_sums"}
    values.update({f"class {k}": v for k, v in report.class_sums.items()})
    return values


@pytest.mark.parametrize("name, ham", HAMILTONIANS, ids=IDS)
def test_norms_and_class_sums_ignore_a_signed_permutation(name, ham):
    rng = np.random.default_rng(7)
    before = _flatten(norm_report(ham))
    for _ in range(3):
        _, perm, signs = _signed_permutation(ham.n_orbitals, rng)
        after = _flatten(norm_report(_relabel(ham, perm, signs)))
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert after[key] == pytest.approx(value, rel=1e-13, abs=0.0), key


def _gradient_matrix(ham):
    """The subgradient of lambda_Q at K = 0 as an antisymmetric matrix."""
    n = ham.n_orbitals
    vec = _gradient(np.zeros(n * (n - 1) // 2), range(n), (OrbitalRotation.identity(n), ham))
    return AntisymmetricGenerator(dim=n, params=vec).matrix()


@pytest.mark.parametrize("name, ham", HAMILTONIANS, ids=IDS)
def test_gradient_at_zero_turns_with_a_signed_permutation(name, ham):
    # lambda(Q^T H Q, K) = lambda(H, Q K Q^T), so G(Q^T H Q) = Q^T G(H) Q
    rng = np.random.default_rng(11)
    grad = _gradient_matrix(ham)
    scale = max(np.max(np.abs(grad), initial=0.0), 1.0)
    for _ in range(2):
        q, perm, signs = _signed_permutation(ham.n_orbitals, rng)
        turned = _gradient_matrix(_relabel(ham, perm, signs))
        assert np.max(np.abs(turned - q.T @ grad @ q), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("name, ham", HAMILTONIANS, ids=IDS)
def test_pair_scan_has_period_a_quarter_turn(name, ham):
    rng = np.random.default_rng(13)
    n = ham.n_orbitals
    p, q = sorted(rng.choice(n, 2, replace=False).tolist())
    thetas = np.linspace(-np.pi / 4, np.pi / 4, 9)
    values = np.array(jacobi_rotation_norm_scan(ham, p, q, thetas))
    for turns in (1, 2, -1):
        shifted = np.array(jacobi_rotation_norm_scan(ham, p, q, thetas + turns * np.pi / 2))
        assert np.max(np.abs(shifted - values)) <= 1e-13 * np.max(values)
