import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from onenorm import (
    MolecularHamiltonian,
    OrbitalRotation,
    cholesky_decompose,
    class_decomposition,
    lambda_c,
    lambda_q,
    lambda_sf,
    lambda_t,
    lambda_v_lee,
    lambda_v_prime,
    norm_report,
    parse_fcidump,
    rotate_hamiltonian,
    write_fcidump,
)
from onenorm.errors import NotPositiveSemidefiniteError
from onenorm.integrals import index_plan, row_blocks
from onenorm.norms import _quarter_abs_sum, _two_body_abs_sum, v_prime_quarter
from onenorm.optimize import _gradient

from conftest import (
    CHAIN_SIZES,
    H2_FCIDUMP,
    chain_path,
    random_hamiltonian,
    random_orthogonal,
    random_psd_hamiltonian,
    requires_fixtures,
    spread_pair_matrix,
)


def single_orbital(h00=1.0, g0000=0.4, core=0.0):
    g = np.full((1, 1, 1, 1), g0000)
    return MolecularHamiltonian.from_dense(core, np.array([[h00]]), g)


def zero_hamiltonian(n=3):
    return MolecularHamiltonian(
        n_orbitals=n,
        core_constant=0.0,
        one_body=np.zeros((n, n)),
        two_body=np.zeros((n,) * 4),
    )


def test_single_orbital_closed_forms():
    ham = single_orbital()
    assert lambda_c(ham) == pytest.approx(1.1, abs=1e-15)   # |1 + 0.2 - 0.1|
    assert lambda_t(ham) == pytest.approx(1.2, abs=1e-15)   # |1 + 0.4 - 0.2|
    assert lambda_v_lee(ham) == pytest.approx(0.2, abs=1e-15)
    assert lambda_v_prime(ham) == pytest.approx(0.1, abs=1e-15)
    assert lambda_q(ham) == pytest.approx(1.3, abs=1e-14)
    assert norm_report(ham).lambda_Q_full == pytest.approx(2.4, abs=1e-14)


def test_zero_hamiltonian_all_zero():
    report = norm_report(zero_hamiltonian())
    assert report.lambda_C == 0.0
    assert report.lambda_T == 0.0
    assert report.lambda_V_lee == 0.0
    assert report.lambda_V_prime == 0.0
    assert report.lambda_Q_no_const == 0.0
    assert report.lambda_Q_full == 0.0


def test_lambda_t_reduces_to_entrywise_norm_without_g(rng):
    h = rng.standard_normal((4, 4))
    h = 0.5 * (h + h.T)
    ham = MolecularHamiltonian(
        n_orbitals=4, core_constant=0.0, one_body=h, two_body=np.zeros((4,) * 4)
    )
    assert lambda_t(ham) == pytest.approx(np.abs(h).sum(), abs=1e-12)


def test_lambda_v_equals_half_class_sum(rng):
    ham = random_hamiltonian(4, rng)
    total = sum(class_decomposition(ham).values())
    assert lambda_v_lee(ham) == pytest.approx(0.5 * total, abs=1e-12)


def test_lambda_v_prime_bounded_by_lambda_v(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ham = random_hamiltonian(n, rng)
        assert lambda_v_prime(ham) <= lambda_v_lee(ham) + 1e-12


def lambda_v_prime_oracle(g):
    """lambda_V' from the full antisymmetrized tensor and a broadcast mask."""
    n = g.shape[0]
    p, q, r, s = np.ogrid[0:n, 0:n, 0:n, 0:n]
    mask = np.broadcast_to((p > r) & (s > q), g.shape)
    antisym = g - np.transpose(g, (0, 3, 2, 1))  # g_pqrs - g_psrq
    return (0.5 * float(np.sum(np.abs(antisym[mask]), dtype=np.longdouble))
            + 0.25 * float(np.sum(np.abs(g), dtype=np.longdouble)))


def test_lambda_v_prime_matches_mask_oracle(rng):
    for n in range(1, 8):
        for _ in range(3):
            ham = random_hamiltonian(n, rng)
            expected = lambda_v_prime_oracle(ham.two_body_dense())
            assert lambda_v_prime(ham) == pytest.approx(expected, rel=1e-12)
            assert norm_report(ham).lambda_V_prime == lambda_v_prime(ham)


def _broadcast_v_prime_quarter(g):
    """``v_prime_quarter`` gathered through broadcast ``tril_indices``, the
    pairs (p, r) down the rows and (s, q) in the same order along them:
    the oracle."""
    n = g.shape[0]
    p, r = np.tril_indices(n, -1)
    s, q = np.tril_indices(n, -1)
    p, r = p[:, None], r[:, None]
    d = g[p, q, r, s]
    d -= g[p, s, r, q]
    return p, q, r, s, d


@pytest.mark.parametrize("n", [*range(13), 24])
def test_v_prime_quarter_matches_the_broadcast_gather(n, rng):
    # N = 24 gathers in two row blocks
    g = random_hamiltonian(n, rng).two_body_dense()
    bra, ket, swapped, d = v_prime_quarter(g)
    p, q, r, s, expected = _broadcast_v_prime_quarter(g)
    assert d.shape == expected.shape and d.tobytes() == expected.tobytes()
    assert np.array_equal(bra + ket, np.ravel_multi_index(np.broadcast_arrays(p, q, r, s), g.shape))
    assert np.array_equal(bra + swapped,
                          np.ravel_multi_index(np.broadcast_arrays(p, s, r, q), g.shape))


def _full_sums(g):
    """sum |g| over all N^4 entries and sum |d| over the whole quarter,
    gathered with the ket pairs (q, s) of ``triu_indices``, as the norms
    summed them before the canonical sums: the oracle."""
    n = g.shape[0]
    abs_g = sum(np.sum(np.abs(g[b]), dtype=np.longdouble) for b in row_blocks(n, n**3))
    p, r = np.tril_indices(n, -1)
    q, s = np.triu_indices(n, 1)
    p, r = p[:, None], r[:, None]
    d = g[p, q, r, s] - g[p, s, r, q]
    return float(abs_g), float(np.sum(np.abs(d), dtype=np.longdouble))


def _assert_canonical_sums_are_the_full_ones(g):
    abs_g, abs_d = _full_sums(g)
    assert _two_body_abs_sum(g).hex() == abs_g.hex()
    assert _quarter_abs_sum(g).hex() == abs_d.hex()
    d = v_prime_quarter(g)[3]
    assert d.tobytes() == np.ascontiguousarray(d.T).tobytes()


def _random_tensor(n, rng, scale=1.0):
    """A tensor whose images hold a random pair matrix's lower triangle."""
    size = n * (n + 1) // 2
    return spread_pair_matrix(rng.standard_normal((size, size)) * scale, n)


# the canonical sums reorder an extended-precision sum; with a 64-bit
# significand they matched the full sums on every tensor tested
requires_x87_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble is not the 80-bit x87 type, so the canonical sums "
           "may differ from the full ones in the last bit",
)


@requires_x87_long_double
@requires_fixtures
@pytest.mark.parametrize("stem", ["h2_ccpvdz", *CHAIN_SIZES])
def test_canonical_sums_equal_the_full_ones_on_the_fixtures(stem):
    path = H2_FCIDUMP if stem == "h2_ccpvdz" else chain_path(stem)
    _assert_canonical_sums_are_the_full_ones(parse_fcidump(open(path).read()).two_body_dense())


@requires_x87_long_double
@pytest.mark.parametrize("n", [*range(13), 24, 50])
def test_canonical_sums_equal_the_full_ones(n, rng):
    # at N = 24 and 50 the pair matrix and the quarter are read in several row blocks
    _assert_canonical_sums_are_the_full_ones(_random_tensor(n, rng))


@requires_x87_long_double
def test_canonical_sums_equal_the_full_ones_over_scales():
    rng = np.random.default_rng(20211)
    for _ in range(200):
        n = int(rng.integers(2, 16))
        _assert_canonical_sums_are_the_full_ones(
            _random_tensor(n, rng, scale=10.0 ** rng.uniform(-3.0, 6.0)))


@requires_x87_long_double
@pytest.mark.parametrize("n", [5, 10])
def test_canonical_sums_read_negative_zeros(n, rng):
    size = n * (n + 1) // 2
    pairs = rng.standard_normal((size, size))
    pairs[rng.random(pairs.shape) < 0.3] = -0.0
    g = spread_pair_matrix(pairs, n)
    assert (np.signbit(g) & (g == 0.0)).any()
    _assert_canonical_sums_are_the_full_ones(g)
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    abs_g, abs_d = _full_sums(g)
    assert lambda_v_prime(ham).hex() == (0.5 * abs_d + 0.25 * abs_g).hex()
    assert lambda_v_lee(ham).hex() == (0.5 * abs_g).hex()


def _peak_in_tensors(func, nbytes):
    """Peak traced allocation while ``func`` runs, in units of ``nbytes``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / nbytes


def _psd_inputs(n, rng):
    """A rank-2N PSD dense tensor, a symmetric h and their Hamiltonian."""
    factors = rng.standard_normal((2 * n, n, n))
    factors = (factors + factors.transpose(0, 2, 1)).reshape(2 * n, n * n)
    dense = (factors.T @ factors).reshape(n, n, n, n)
    h = rng.standard_normal((n, n))
    h = h + h.T
    return dense, h, MolecularHamiltonian.from_dense(0.0, h, dense, n_electrons=n)


def test_n4_passes_are_memory_bounded(rng):
    # numpy registers its data buffers with tracemalloc; bounds are in
    # units of the N^4 tensor and include whatever the call returns.  At
    # N = 24 one block of 2^16 entries is 0.2 tensor.
    n = 24
    dense, h, ham = _psd_inputs(n, rng)
    rotation = random_orthogonal(n, rng)
    text = write_fcidump(ham)
    at_start = (np.zeros(n * (n - 1) // 2), range(n), (OrbitalRotation.identity(n), ham))
    peaks = {
        "norm_report": _peak_in_tensors(lambda: norm_report(ham), dense.nbytes),
        "class_decomposition": _peak_in_tensors(
            lambda: class_decomposition(ham), dense.nbytes),
        "from_dense": _peak_in_tensors(
            lambda: MolecularHamiltonian.from_dense(0.0, h, dense), dense.nbytes),
        "rotate_hamiltonian": _peak_in_tensors(
            lambda: rotate_hamiltonian(ham, rotation), dense.nbytes),
        "parse_fcidump": _peak_in_tensors(lambda: parse_fcidump(text), dense.nbytes),
        "gradient": _peak_in_tensors(lambda: _gradient(*at_start), dense.nbytes),
        "cholesky_decompose": _peak_in_tensors(lambda: cholesky_decompose(ham), dense.nbytes),
        "write_fcidump": _peak_in_tensors(lambda: write_fcidump(ham), dense.nbytes),
    }
    # measured 0.62, 0.12, 1.38, 2.38, 2.44, 2.03, 0.57 and 2.95
    bounds = {"norm_report": 1.0, "class_decomposition": 0.25,
              "from_dense": 1.45, "rotate_hamiltonian": 2.45,
              "parse_fcidump": 2.5, "gradient": 2.5, "cholesky_decompose": 0.65,
              "write_fcidump": 3.0}
    for name, bound in bounds.items():
        assert peaks[name] <= bound, (name, peaks[name])


def test_the_fill_adds_little_to_the_transform(rng):
    # the 4-GEMM transform holds two tensors at a time; the fill then holds
    # its result beside the raw one, and its blocks are 0.03 tensor at N = 40
    n = 40
    dense, _, ham = _psd_inputs(n, rng)
    rotation = random_orthogonal(n, rng)
    peak = _peak_in_tensors(lambda: rotate_hamiltonian(ham, rotation), dense.nbytes)
    assert peak <= 2.15, peak  # measured 2.05


def test_index_plans_keep_no_n4_array(rng):
    # what the objective path leaves allocated once its results are gone is
    # the cached O(N^2) plans; an N^4-sized index would be 0.23 tensor at N = 24
    n = 24
    ham = random_psd_hamiltonian(n, rng, rank=2 * n)
    rotation = random_orthogonal(n, rng)
    at_start = (np.zeros(n * (n - 1) // 2), range(n), (OrbitalRotation.identity(n), ham))
    index_plan.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        norm_report(ham)
        rotate_hamiltonian(ham, rotation)
        _gradient(*at_start)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    tensor = ham.two_body.nbytes
    assert retained <= 0.05 * tensor, retained / tensor


def test_lambda_v_prime_equality_for_coulomb_only_tensor():
    # nonzero entries only in the (pp|qq) class: every straddling partner
    # g_psrq of a nonzero g_pqrs is zero, and no p=r / q=s entry survives,
    # so the bound is tight
    n = 2
    g = np.zeros((n, n, n, n))
    g[0, 0, 1, 1] = g[1, 1, 0, 0] = 0.7
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    assert lambda_v_prime(ham) == pytest.approx(lambda_v_lee(ham), abs=1e-15)


def test_lambda_v_prime_strict_inequality_generic(rng):
    ham = random_hamiltonian(3, rng)
    assert lambda_v_prime(ham) < lambda_v_lee(ham) - 1e-6


def test_lambda_c_rotation_invariance(rng):
    ham = random_hamiltonian(4, rng)
    reference = lambda_c(ham)
    for _ in range(20):
        rot = random_orthogonal(4, rng)
        assert lambda_c(rotate_hamiltonian(ham, rot)) == pytest.approx(
            reference, abs=1e-9
        )


def test_norm_report_consistency(rng):
    ham = random_hamiltonian(4, rng)
    report = norm_report(ham)
    assert report.lambda_C == pytest.approx(lambda_c(ham), abs=1e-14)
    assert report.lambda_T == pytest.approx(lambda_t(ham), abs=1e-14)
    assert report.lambda_V_lee == pytest.approx(lambda_v_lee(ham), abs=1e-14)
    assert report.lambda_V_prime == pytest.approx(lambda_v_prime(ham), abs=1e-14)
    assert report.lambda_Q_no_const == pytest.approx(
        report.lambda_T + report.lambda_V_prime, abs=1e-14
    )
    assert report.lambda_Q_full == pytest.approx(
        report.lambda_C + report.lambda_Q_no_const, abs=1e-14
    )
    assert report.lambda_lee == pytest.approx(
        report.lambda_T + report.lambda_V_lee, abs=1e-14
    )
    assert report.n_orbitals == 4
    assert report.lambda_SF is None
    assert "lambda_SF" not in report.to_dict()
    for name in ("lambda_C", "lambda_lee", "lambda_SF"):
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            dataclasses.replace(report, **{name: -1.0})


def test_norm_report_json_roundtrip(rng):
    report = norm_report(random_psd_hamiltonian(3, rng), with_cholesky=True)
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


@requires_fixtures
def test_h2_fixture_lambda_q():
    ham = parse_fcidump(open(H2_FCIDUMP).read())
    report = norm_report(ham)
    assert report.n_orbitals == 10
    assert abs(report.lambda_Q_no_const - 101.0) <= 1.0


def test_cholesky_diagonal_tensor_gives_unit_vectors():
    # g_pppp = 1 for every p: the composite matrix is a diagonal 0/1
    # pattern, so the pivoted factorization returns one unit entry per
    # orbital
    n = 3
    g = np.zeros((n, n, n, n))
    for p in range(n):
        g[p, p, p, p] = 1.0
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    fac = cholesky_decompose(ham, tolerance=1e-12)
    assert fac.rank == n
    for vec in fac.vectors:
        flat = np.abs(vec).ravel()
        assert np.sum(flat > 1e-14) == 1
        assert flat.max() == pytest.approx(1.0, abs=1e-14)


def test_cholesky_symmetrizer_tensor():
    # g_pqrs = (d_pr d_qs + d_ps d_qr) / 2 is the nearest symmetric
    # analogue of a composite-space identity: PSD with unit spectrum on
    # the symmetric-pair subspace
    n = 3
    eye = np.eye(n)
    g = 0.5 * (
        np.einsum("pr,qs->pqrs", eye, eye) + np.einsum("ps,qr->pqrs", eye, eye)
    )
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g)
    fac = cholesky_decompose(ham, tolerance=1e-10)
    assert fac.rank == n * (n + 1) // 2
    assert np.max(np.abs(fac.reconstruct() - g)) < 1e-12


def test_cholesky_reconstruction_and_residual(rng):
    ham = random_psd_hamiltonian(4, rng)
    fac = cholesky_decompose(ham, tolerance=1e-8)
    err = np.max(np.abs(fac.reconstruct() - ham.two_body_dense()))
    assert err <= 1e-8 * 10
    assert fac.residual <= 1e-8
    for vec in fac.vectors:
        assert np.max(np.abs(vec - vec.T)) <= 1e-12


def test_cholesky_rejects_indefinite(rng):
    ham = random_hamiltonian(3, rng)  # dense random tensor is indefinite
    with pytest.raises(NotPositiveSemidefiniteError, match="not positive semi-definite"):
        cholesky_decompose(ham)


@pytest.mark.parametrize("top, pivot", [(1 + 1e-9, (1, 1)), (1 + 1e-13, (0, 0))])
def test_cholesky_tie_window_is_1e_12_relative(top, pivot):
    # a diagonal pair matrix over (0, 0), (1, 0), (1, 1): a largest diagonal
    # more than 1e-12 above 1.0 is the first pivot; one within it ties, and
    # the tie goes to the first pair, (0, 0)
    g = spread_pair_matrix(np.diag([1.0, 0.5, top]), 2)
    first = cholesky_decompose(MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)).vectors[0]
    assert np.flatnonzero(first).tolist() == [np.ravel_multi_index(pivot, (2, 2))]


def _cholesky_over_composite_pairs(g, tolerance):
    """The former factorization over the N^2 x N^2 matrix: its (N, N) vectors.

    Same tie rule as ``cholesky_decompose``: a diagonal within 1e-12
    (relative) of the largest ties, and a tie goes to the first row.
    """
    n = g.shape[0]
    mat = g.reshape(n * n, n * n)
    diag = np.diagonal(mat).copy()
    rows = []
    for _ in range(n * n):
        top = diag.max()
        pivot = int(np.argmax(diag >= top - 1e-12 * abs(top)))
        d = diag[pivot]
        if d <= tolerance:
            break
        column = mat[:, pivot].copy()
        for vec in rows:
            column -= vec * vec[pivot]
        vec = column / np.sqrt(d)
        rows.append(vec)
        diag = diag - vec * vec
        diag[pivot] = 0.0
    return [vec.reshape(n, n) for vec in rows]


def _assert_cholesky_matches_composite_pairs(ham, tolerance=1e-8, same_pivots=True):
    # the GEMV sums in another order than the loop: agreement to 1e-12
    old = _cholesky_over_composite_pairs(ham.two_body_dense(), tolerance)
    fac = cholesky_decompose(ham, tolerance=tolerance)
    assert fac.rank == len(old)
    assert lambda_sf(fac) == pytest.approx(
        sum(float(np.sum(np.abs(vec))) ** 2 for vec in old), rel=1e-12
    )
    for vec in fac.vectors:
        assert np.array_equal(vec, vec.T)
    if same_pivots:
        scale = max((float(np.max(np.abs(vec))) for vec in old), default=1.0)
        for vec, ref in zip(fac.vectors, old):
            assert np.max(np.abs(vec - ref)) <= 1e-12 * scale


def test_cholesky_matches_the_composite_pair_loop(rng):
    for n in range(1, 9):
        for rank in (1, n, n * (n + 1) // 2):
            _assert_cholesky_matches_composite_pairs(
                random_psd_hamiltonian(n, rng, rank=rank)
            )
    # every pair diagonal equal: each tie goes to the smaller (q, p), the
    # first of the pair's two rows in the N^2 x N^2 matrix
    n = 3
    g = np.zeros((n,) * 4)
    for p, q in zip(*np.tril_indices(n)):
        unit = np.zeros((n, n))
        unit[p, q] = unit[q, p] = 1.0
        g += np.einsum("pq,rs->pqrs", unit, unit)
    _assert_cholesky_matches_composite_pairs(
        MolecularHamiltonian.from_dense(0.0, np.zeros((n, n)), g), tolerance=1e-10
    )
    # diagonals one ulp apart tie too: the later, larger one does not win
    g = np.zeros((2,) * 4)
    g[0, 0, 0, 0] = 1.0
    g[1, 1, 1, 1] = np.nextafter(1.0, 2.0)
    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)
    assert cholesky_decompose(ham).vectors[0][0, 0] == 1.0
    _assert_cholesky_matches_composite_pairs(ham)


@requires_fixtures
@pytest.mark.parametrize("n", [2, 4, 10, 20, "h2_ccpvdz"])
def test_cholesky_on_chains_matches_the_composite_pair_loop(n):
    # H2/cc-pVDZ has two diagonals 3e-17 apart at its 15th pivot: a tie
    from conftest import chain_path

    path = H2_FCIDUMP if n == "h2_ccpvdz" else chain_path(n)
    _assert_cholesky_matches_composite_pairs(parse_fcidump(open(path).read()))


def test_lambda_sf_single_vector():
    from onenorm.norms import CholeskyFactorization

    vec = np.zeros((1, 1))
    vec[0, 0] = 2.0
    fac = CholeskyFactorization(vectors=(vec,), residual=0.0, tolerance=1e-8)
    # spin-summed convention: 1/4 * (sum over both spin blocks = 2*2)^2
    assert lambda_sf(fac) == pytest.approx(4.0, abs=1e-15)


def test_lambda_sf_bounds_lambda_v(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        ham = random_psd_hamiltonian(n, rng, rank=int(rng.integers(1, 4)))
        fac = cholesky_decompose(ham, tolerance=1e-10)
        assert lambda_sf(fac) >= lambda_v_lee(ham) - 1e-10


@requires_fixtures
def test_h2_fixture_lambda_sf_regression():
    ham = parse_fcidump(open(H2_FCIDUMP).read())
    report = norm_report(ham, with_cholesky=True)
    assert report.lambda_SF is not None
    assert report.lambda_SF >= report.lambda_V_lee
    assert np.isfinite(report.lambda_SF)
