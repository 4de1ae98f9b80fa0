"""Shared generators for randomized instances and fixture paths."""

import os

import numpy as np
import pytest

from onenorm import AuxiliaryIntegrals, MolecularHamiltonian
from onenorm.integrals import fill_from_canonical

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

H2_FCIDUMP = os.path.join(FIXTURE_DIR, "h2_ccpvdz_cmo.fcidump")
H2_AUX = os.path.join(FIXTURE_DIR, "h2_ccpvdz_aux.txt")

CHAIN_SIZES = list(range(2, 11)) + [12, 14, 16, 18, 20]


def chain_path(n: int) -> str:
    return os.path.join(FIXTURE_DIR, f"hchain_{n:02d}_sto3g_cmo.fcidump")


def fixtures_present() -> bool:
    paths = [H2_FCIDUMP, H2_AUX] + [chain_path(n) for n in CHAIN_SIZES]
    return all(os.path.exists(p) for p in paths)


requires_fixtures = pytest.mark.skipif(
    not fixtures_present(),
    reason="molecular fixtures not generated (run scripts/generate_fixtures.py)",
)


def random_hamiltonian(n, rng, core=None, scale=1.0):
    """8-fold-symmetric instance: one draw per canonical tuple, then filled."""
    h = rng.standard_normal((n, n)) * scale
    h = 0.5 * (h + h.T)
    # canonical tuples (p>=q, r>=s, pair(pq)>=pair(rs)) in lexicographic order
    slots = [
        (p, q, r, s)
        for p in range(n) for q in range(p + 1)
        for r in range(p + 1) for s in range(r + 1)
        if r * (r + 1) // 2 + s <= p * (p + 1) // 2 + q
    ]
    g = np.zeros((n,) * 4)
    g[tuple(np.array(slots, dtype=int).reshape(-1, 4).T)] = (
        rng.standard_normal(len(slots)) * scale
    )
    if core is None:
        core = float(rng.standard_normal())
    return MolecularHamiltonian(
        n_orbitals=n, core_constant=core, one_body=h, two_body=fill_from_canonical(g)
    )


def random_psd_hamiltonian(n, rng, rank=None, core=0.0):
    """Instance whose two-body tensor is PSD as the (pq),(rs) matrix."""
    rank = rank if rank is not None else n * (n + 1) // 2
    g = np.zeros((n, n, n, n))
    for _ in range(rank):
        vec = rng.standard_normal((n, n))
        vec = 0.5 * (vec + vec.T)
        g += np.einsum("pq,rs->pqrs", vec, vec)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    return MolecularHamiltonian.from_dense(core, h, g)


def random_orthogonal(n, rng):
    from onenorm import AntisymmetricGenerator, exp_generator

    params = rng.standard_normal(n * (n - 1) // 2)
    return exp_generator(AntisymmetricGenerator(dim=n, params=params))


def random_aux(n, rng, n_atoms=2):
    """Synthetic AO data consistent with an n-orbital Hamiltonian."""
    a = rng.standard_normal((n, n))
    s = a @ a.T + n * np.eye(n)
    evals, evecs = np.linalg.eigh(s)
    s_inv_half = evecs @ np.diag(evals**-0.5) @ evecs.T
    c = s_inv_half @ random_orthogonal(n, rng).matrix
    dipoles = []
    for _ in range(3):
        d = rng.standard_normal((n, n))
        dipoles.append(0.5 * (d + d.T))
    return AuxiliaryIntegrals(
        ao_overlap=s,
        mo_coefficients=c,
        ao_to_atom=[i % n_atoms for i in range(n)],
        atomic_numbers=[1.0 + (i % 3) for i in range(n_atoms)],
        dipole_ao=np.stack(dipoles),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
