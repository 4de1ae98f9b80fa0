"""Acceptance suite: one test per binding criterion, one PASS line each.

Criteria 1-9 are property-based and self-contained; criterion 10 needs the
molecular fixtures under fixtures/ (regenerate with
``python scripts/generate_fixtures.py``).
"""

import warnings

import numpy as np
import pytest

import onenorm as on

from conftest import (
    CHAIN_SIZES,
    H2_FCIDUMP,
    chain_path,
    random_aux,
    random_hamiltonian,
    random_orthogonal,
    random_psd_hamiltonian,
    requires_fixtures,
)

SEED = 1729


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_oracle_equivalence():
    """lambda_T + lambda_V' equals the Pauli-expansion 1-norm to 1e-9."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        ham = random_hamiltonian(n, rng)
        formula = on.lambda_t(ham) + on.lambda_v_prime(ham)
        oracle = on.lambda_q_oracle(on.jordan_wigner_expand(ham), include_identity=False)
        worst = max(worst, abs(formula - oracle))
        assert abs(formula - oracle) <= 1e-9
    report(1, f"200 instances, worst |formula - oracle| = {worst:.3e}")


def test_criterion_02_lambda_v_prime_bound():
    """lambda_V' <= lambda_V, equality exactly for sign-opposed-or-zero pairs."""
    rng = np.random.default_rng(SEED + 1)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        ham = random_hamiltonian(n, rng)
        lv, lvp = on.lambda_v_lee(ham), on.lambda_v_prime(ham)
        assert lvp <= lv + 1e-12
        if n > 1:
            assert lvp < lv  # dense random tensors are never tight

    # tight case: only (pp|qq) entries, every straddling partner zero
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 1, 1] = g[1, 1, 0, 0] = 0.7
    tight = on.MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)
    assert on.lambda_v_prime(tight) == pytest.approx(on.lambda_v_lee(tight), abs=1e-15)
    report(2, "bound strict on 200 dense instances, tight on the Coulomb-only tensor")


def test_criterion_03_lambda_c_rotation_invariance():
    """lambda_C shifts by <= 1e-9 under random exp(-K) rotations."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(3):
            ham = random_hamiltonian(n, rng)
            reference = on.lambda_c(ham)
            for _ in range(20):
                rotated = on.rotate_hamiltonian(ham, random_orthogonal(n, rng))
                worst = max(worst, abs(on.lambda_c(rotated) - reference))
                assert abs(on.lambda_c(rotated) - reference) <= 1e-9
    report(3, f"12 instances x 20 rotations, worst drift = {worst:.3e}")


def test_criterion_04_transform_against_naive_reference():
    """Staged O(N^5) transform matches the O(N^8) sum; rotations compose."""
    rng = np.random.default_rng(SEED + 3)
    worst_t = 0.0
    for n in (2, 3, 4, 5, 6):
        ham = random_hamiltonian(n, rng)
        g = ham.two_body_dense()
        c = random_orthogonal(n, rng).matrix
        naive = np.einsum("abcd,ap,bq,cr,ds->pqrs", g, c, c, c, c, optimize=False)
        staged = on.transform_two_body(g, c)
        worst_t = max(worst_t, float(np.max(np.abs(staged - naive))))
        assert np.max(np.abs(staged - naive)) <= 1e-11

    worst_c = 0.0
    for _ in range(5):
        ham = random_hamiltonian(4, rng)
        u1, u2 = random_orthogonal(4, rng), random_orthogonal(4, rng)
        twice = on.rotate_hamiltonian(on.rotate_hamiltonian(ham, u1), u2)
        once = on.rotate_hamiltonian(ham, u1.then(u2))
        delta = max(
            float(np.max(np.abs(twice.one_body - once.one_body))),
            float(np.max(np.abs(twice.two_body - once.two_body))),
        )
        worst_c = max(worst_c, delta)
        assert delta <= 1e-10
    report(4, f"N<=6 staged vs naive worst = {worst_t:.3e}; composition worst = {worst_c:.3e}")


def test_criterion_05_frozen_core_expectation_identity():
    """Determinant energies agree between full and frozen-core Hamiltonians."""
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 4))
        ham = random_hamiltonian(n, rng)
        n_frozen = 1 if n == 2 else int(rng.integers(1, 3))
        orbitals = list(range(n))
        frozen = orbitals[:n_frozen]
        active = orbitals[n_frozen:]
        spec = on.ActiveSpaceSpec(frozen=frozen, active=active, n_active_electrons=0)
        active_ham, shift = on.freeze_core(ham, spec)
        full_terms = on.jordan_wigner_expand(ham)
        active_terms = on.jordan_wigner_expand(active_ham)
        n_active_spin = 2 * len(active)
        for bits in range(2**n_active_spin):
            occ_active = [(bits >> k) & 1 for k in range(n_active_spin)]
            occ_full = [1] * (2 * n_frozen) + occ_active
            lhs = on.determinant_expectation(full_terms, occ_full)
            rhs = on.determinant_expectation(active_terms, occ_active)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-9
            checked += 1
    report(5, f"50 instances, {checked} determinants, worst mismatch = {worst:.3e}")


def test_criterion_06_localization_monotonicity():
    """ER/PM/FB sweep objectives never decrease; OAO on S=I is the identity."""
    rng = np.random.default_rng(SEED + 5)
    count = 0
    for trial in range(50):
        n = int(rng.integers(3, 5))
        ham = random_hamiltonian(n, rng)
        aux = random_aux(n, rng)
        scheme = ("er", "pm", "fb")[trial % 3]
        coeff = None if scheme == "er" else aux.mo_coefficients
        result = on.localize(
            ham, coeff, aux, on.LocalizationRequest(scheme=scheme, max_sweeps=50)
        )
        log = np.asarray(result.objective_per_sweep)
        assert (np.diff(log) >= -1e-12).all()
        count += 1

    ham = random_hamiltonian(3, rng)
    aux_eye = on.AuxiliaryIntegrals(ao_overlap=np.eye(3))
    oao = on.localize(ham, None, aux_eye, on.LocalizationRequest(scheme="oao"))
    assert np.array_equal(oao.rotation.matrix, np.eye(3))
    report(6, f"{count} sweeps monotone (slack 1e-12); OAO(S=I) = identity")


def test_criterion_07_optimizer_never_regresses():
    """Optimized lambda_Q never exceeds the start; ER starts are improved."""
    rng = np.random.default_rng(SEED + 6)
    for algorithm in ("quasi-newton-bounded", "sequential-quadratic"):
        for _ in range(4):
            n = int(rng.integers(3, 5))
            ham = random_hamiltonian(n, rng)
            er = on.localize(ham, None, None, on.LocalizationRequest(scheme="er"))
            config = on.OptimizerConfig(
                start_from="localized:er", algorithm=algorithm, max_iterations=60,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = on.minimize_norm(ham, config)
            assert result.lambda_final <= result.lambda_start + 1e-9
            assert result.lambda_final <= on.lambda_q(er.hamiltonian) + 1e-9
    report(7, "8 runs, both algorithms: final <= start and final <= ER value")


def test_criterion_08_cholesky_and_single_factorization():
    """Reconstruction within 10x tolerance; lambda_SF bounds lambda_V."""
    rng = np.random.default_rng(SEED + 7)
    worst_rec = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        ham = random_psd_hamiltonian(n, rng, rank=int(rng.integers(1, 5)))
        tolerance = 10.0 ** -rng.integers(6, 10)
        fac = on.cholesky_decompose(ham, tolerance=tolerance)
        err = float(np.max(np.abs(fac.reconstruct() - ham.two_body_dense())))
        worst_rec = max(worst_rec, err / tolerance)
        assert err <= 10.0 * tolerance
        assert on.lambda_sf(fac) >= on.lambda_v_lee(ham) - 1e-10
    report(8, f"50 PSD instances, worst reconstruction = {worst_rec:.2f}x tolerance")


def test_criterion_09_scaling_fit_exact_on_power_laws():
    """Noiseless power laws are recovered to 1e-12 with R^2 = 1."""
    rng = np.random.default_rng(SEED + 8)
    for _ in range(20):
        alpha = float(rng.uniform(-3.0, 3.0))
        prefactor = float(rng.uniform(0.1, 10.0))
        sizes = rng.choice(np.arange(2, 40), size=6, replace=False)
        points = [(int(n), prefactor * float(n) ** alpha) for n in sizes]
        fit = on.fit_scaling(points)
        assert fit.alpha == pytest.approx(alpha, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    report(9, "20 random power laws recovered exactly")


@requires_fixtures
def test_criterion_10_reference_molecule_row():
    """H2/cc-pVDZ row and hydrogen-chain scaling exponents."""
    ham = on.parse_fcidump(open(H2_FCIDUMP).read())
    lam_cmo = on.lambda_q(ham)
    assert abs(lam_cmo - 101.0) <= 1.0

    # nearest-stationary ER from the canonical orbitals
    er = on.localize(
        ham, None, None, on.LocalizationRequest(scheme="er", method="ascent")
    )
    lam_er = on.lambda_q(er.hamiltonian)
    assert lam_er <= 94.0

    config = on.OptimizerConfig(
        start_from="localized:er",
        localization_method="ascent",
        algorithm="sequential-quadratic",
        max_iterations=400,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = on.minimize_norm(ham, config)
    assert result.lambda_final <= 91.0
    reduction = 100.0 * (1.0 - result.lambda_final / lam_cmo)
    assert reduction == pytest.approx(10.9, abs=0.5)

    # scaling exponents over the hydrogen-chain series (all 2..10 plus the
    # even extension to 20, where the localized series reaches its
    # near-linear asymptote; the short-range fit alone lands at 1.50)
    pts_cmo, pts_loc = [], []
    for n in CHAIN_SIZES:
        chain = on.parse_fcidump(open(chain_path(n)).read())
        pts_cmo.append((n, on.lambda_q(chain)))
        loc = on.localize(chain, None, None, on.LocalizationRequest(scheme="er"))
        pts_loc.append((n, on.lambda_q(loc.hamiltonian)))
    fit_cmo = on.fit_scaling(pts_cmo)
    fit_loc = on.fit_scaling(pts_loc)
    assert fit_cmo.alpha == pytest.approx(2.31, abs=0.15)
    assert fit_loc.alpha == pytest.approx(1.34, abs=0.15)
    report(
        10,
        "H2 row: CMO %.2f, ER %.2f, optimized %.2f, reduction %.2f%%; "
        "chain exponents %.3f -> %.3f"
        % (lam_cmo, lam_er, result.lambda_final, reduction,
           fit_cmo.alpha, fit_loc.alpha),
    )
