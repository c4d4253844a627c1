import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from veilshare.numt import is_primitive_root
from veilshare.rng import named_stream
from veilshare.lattice import (
    InversionError,
    LweParams,
    centered,
    det_count_formulas,
    det_int,
    exact_matmul,
    f_p_fraction,
    find_modswitch_pair,
    find_q,
    lwe_invert,
    matmul_mod,
    matrix_power_mod,
    modswitch_roundtrip,
    modswitch_window_ok,
    planted_trapdoor,
    prim_acceptance_fraction,
    sample_dgauss_centered,
    sample_preimage_batch,
    sample_prim_secret,
    trapdoor_gen,
)
from veilshare import lattice
from veilshare.lattice import _decode_digit_blocks, _dgauss_table, _gadget_basis, _preimage_sigma_z

DESK = LweParams(n=4, p=31, q=find_q(31, 23))


def test_find_q_pins_31_divisibility():
    q = find_q(31, 23)
    assert q % 31 == 0 and (q // 31) % 31 != 0
    assert 2**22 < q <= 2**23
    assert DESK.d == 23 and DESK.w == 96 and DESK.w_bar == 4


def test_digit_width_is_exact_past_float_precision():
    # ceil(log2(2**60 + 30)) rounds to 60 in float64, a digit short of q,
    # and deal at that q asked numpy for 1.48 EiB
    wide = LweParams(n=4, p=31, q=2**60 + 30)
    assert wide.d == 61 and wide.w == 4 * 62
    for bits in (5, 23, 30, 47, 61):
        assert LweParams(n=4, p=31, q=find_q(31, bits)).d == bits


def test_params_validation():
    with pytest.raises(ValueError):
        LweParams(n=4, p=31, q=31 * 31 * 4)       # p divides c
    with pytest.raises(ValueError):
        LweParams(n=4, p=31, q=2**23)             # p does not divide q
    assert modswitch_window_ok(31, 31 * 1000, 31 * 5000) is False   # window violated
    with pytest.raises(ValueError, match="q must be at least p"):
        LweParams(n=4, p=31, q=-31)                # p*c with c = -1
    for bits in (0, 4):
        with pytest.raises(ValueError, match="too small"):
            find_q(31, bits)
    assert find_q(31, 5) == 31


def test_det_int_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(-9, 10, size=(4, 4))
        assert det_int(m) == round(np.linalg.det(m.astype(float)))


# ---------------------------------------------------------------------------
# counting


def test_det_count_formulas_exhaustive_3_2():
    # oracle: enumerate all 81 matrices over Z_3
    by_det = {0: 0, 1: 0, 2: 0}
    for entries in itertools.product(range(3), repeat=4):
        a, b, c, d = entries
        by_det[(a * d - b * c) % 3] += 1
    assert by_det == {0: 33, 1: 24, 2: 24}
    zero, per_alpha = det_count_formulas(3, 2)
    assert (zero, per_alpha) == (33, 24)


def test_det_count_scalars_and_partition():
    assert det_count_formulas(5, 1) == (1, 1)
    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        zero, per_alpha = det_count_formulas(p, n)
        assert zero + (p - 1) * per_alpha == p ** (n * n)


def test_acceptance_fraction_table_values():
    # approximate c(p) values: 0.380 at p=5, 0.280 at p=3, 0.279 at p=7
    assert abs(float(prim_acceptance_fraction(5, 12)) - 0.380) < 5e-3
    assert abs(float(prim_acceptance_fraction(3, 12)) - 0.280) < 5e-3
    assert abs(float(prim_acceptance_fraction(7, 12)) - 0.279) < 5e-3


def test_f_p_monotone_decreasing():
    for p in (3, 5, 7):
        vals = [f_p_fraction(p, n) for n in range(1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(isinstance(v, Fraction) for v in vals)


def test_prim_secret_n1_p7():
    # oracle: primitive roots of 7 by brute force are {3, 5}
    roots = {k for k in range(1, 7) if is_primitive_root(k, 7)}
    assert roots == {3, 5}
    rng = named_stream(3, "prim17")
    for _ in range(20):
        s = sample_prim_secret(1, 7, rng)
        assert int(s[0, 0]) in roots


def test_prim_secret_p3_n2_exhaustive_count():
    accepted = 0
    for entries in itertools.product(range(3), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 3 == 2:     # 2 is the only generator of Z_3^*
            accepted += 1
    assert accepted == 24
    assert det_count_formulas(3, 2)[1] == 24


@pytest.mark.parametrize("p,n,samples", [(3, 3, 30_000), (5, 4, 30_000), (7, 3, 30_000)])
def test_prim_acceptance_monte_carlo(p, n, samples):
    rng = named_stream(9, "prim-mc", p, n)
    mats = rng.integers(0, p, size=(samples, n, n), dtype=np.int64)
    dets = np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64) % p
    roots = {k for k in range(1, p) if is_primitive_root(k, p)}
    hits = sum(int(d) in roots for d in dets)
    expect = float(prim_acceptance_fraction(p, n))
    se = math.sqrt(expect * (1 - expect) / samples)
    assert abs(hits / samples - expect) < 3 * se


def test_prim_secret_det_conditioning():
    rng = named_stream(4, "prim-det")
    s = sample_prim_secret(4, 31, rng, det_value=3)
    assert det_int(s) % 31 == 3 and 0 <= s.min() and s.max() < 31


def test_matrix_power_mod():
    rng = named_stream(5, "pow")
    s = rng.integers(0, 31, size=(4, 4), dtype=np.int64)
    direct = np.eye(4, dtype=np.int64)
    for _ in range(13):
        direct = direct @ s % 31
    assert (matrix_power_mod(s, 13, 31) == direct).all()


# ---------------------------------------------------------------------------
# discrete Gaussian


def test_dgauss_moments():
    rng = named_stream(6, "dg")
    for sigma in (2.0, 3.5, 11.0):
        x = sample_dgauss_centered(rng, sigma, np.zeros(40_000))
        assert abs(float(x.mean())) < 4 * sigma / math.sqrt(40_000)
        assert abs(float(x.std()) - sigma) / sigma < 0.05


@pytest.mark.parametrize("sigma", [1.21, 1.36, 1.57])
def test_dgauss_centered_matches_its_exact_weights(sigma):
    """Chi-square of sample_dgauss_centered against rho_sigma(x - c).

    The widths are those of the desk profile's gadget planes.
    """
    draws = 100_000
    offsets = np.arange(-40, 41)
    for c in (0.0, 0.3, 0.5, -0.49, 1.2, 1000.3):
        nearest = math.floor(c + 0.5)
        rng = named_stream(17, "dgauss-centered", sigma, c)
        x = sample_dgauss_centered(rng, sigma, np.full(draws, c))
        weights = np.exp(-((nearest + offsets - c) ** 2) / (2 * sigma**2))
        expected = draws * weights / weights.sum()
        observed = np.bincount(x - nearest - offsets[0], minlength=offsets.size)
        assert observed.size == offsets.size, "a draw fell beyond 40 offsets"
        # pool the thin tails so every bin expects at least 5 draws
        body = expected >= 5
        obs = np.append(observed[body], observed[~body].sum())
        exp = np.append(expected[body], expected[~body].sum())
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        df = obs.size - 1
        # Wilson-Hilferty upper 1e-6 point of chi-square with df degrees:
        # 18 fixed streams, so about 2e-5 of false failure in all
        z = 4.753
        critical = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < critical, (c, chi2, critical)


def chi2_critical(df: int) -> float:
    """Wilson-Hilferty upper 1e-6 point of chi-square with df degrees."""
    z = 4.753
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("sigma", [1.21, 1.36, 1.57])
def test_dgauss_centered_mixed_centres_in_one_call(sigma):
    """One call over many centres, as the walk makes it, chi-squared per centre.

    The centres cover every 1/16 bucket of f = c - floor(c + 0.5): its
    edges -1/2 + j/16, the doubles just below them (below -1/2 that is
    f just under 1/2), bucket midpoints, f = -1/2 itself, and |c| near
    2^20.  Draws for one centre are interleaved with all the others.
    """
    draws = 20_000
    edges = -0.5 + np.arange(16) / 16
    centres = np.concatenate([
        edges, np.nextafter(edges, -np.inf), edges + 1 / 32,
        [2.0**20 + 0.3, -(2.0**20) - 0.7, 2.0**20 - 0.5, np.nextafter(-(2.0**20) + 0.5, 0)],
    ])
    rng = named_stream(17, "dgauss-mixed", sigma)
    x = sample_dgauss_centered(rng, sigma, np.tile(centres, draws)).reshape(draws, -1)
    offsets = np.arange(-40, 41)
    for col, c in enumerate(centres):
        nearest = math.floor(c + 0.5)
        weights = np.exp(-((nearest + offsets - c) ** 2) / (2 * sigma**2))
        expected = draws * weights / weights.sum()
        observed = np.bincount(x[:, col] - nearest - offsets[0], minlength=offsets.size)
        assert observed.size == offsets.size, "a draw fell beyond 40 offsets"
        body = expected >= 5
        obs = np.append(observed[body], observed[~body].sum())
        exp = np.append(expected[body], expected[~body].sum())
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert chi2 < chi2_critical(obs.size - 1), (c, chi2)


def test_dgauss_tables_are_small_and_exact():
    """Every desk plane's table fits 32 KiB; its guide agrees with a searchsorted
    build, and proposal times acceptance is the target law for every bucket."""
    params = LweParams(n=4, p=31, q=find_q(31, 30))
    _, _, norms2, _ = _gadget_basis(params.q, params.d)
    bins = np.arange(256) / 256
    for width in _preimage_sigma_z(params) / np.sqrt(norms2):
        table = _dgauss_table(float(width))
        assert sum(a.nbytes for a in table if isinstance(a, np.ndarray)) <= 32 * 1024
        cdf, guide, step, log_env, half, a = table
        offsets = np.arange(-half, half + 1)
        for j in range(16):
            lo = np.searchsorted(cdf[j], bins, side="right")
            assert (guide[j] == lo).all()
            assert (step[j] == (lo != np.searchsorted(cdf[j], bins + 1 / 256))).all()
            proposal = np.diff(cdf[j], prepend=0.0)
            for f in -0.5 + (j + np.array([0.0, 0.3, 1.0])) / 16:
                log_ratio = log_env[j] - a * (offsets - f) ** 2
                assert (log_ratio <= 1e-12).all()       # an acceptance probability
                law = proposal * np.exp(log_ratio)
                target = np.exp(-a * (offsets - f) ** 2)
                # a float64 CDF resolves probabilities down to about 2^-53
                np.testing.assert_allclose(law / law.sum(), target / target.sum(),
                                           rtol=1e-9, atol=2.0**-50)


def dense_nearest_plane_centres(q: int, d: int, targets, coeffs):
    """Centres of a nearest-plane walk that projects the whole running remainder.

    The walk takes the coefficient of plane i from coeffs[i], so it follows
    the same path as the walk under test whatever that one rounds to.
    """
    basis = np.zeros((d, d))
    for i in range(d - 1):
        basis[i, i], basis[i + 1, i] = 2, -1
    basis[:, d - 1] = [(q >> j) & 1 for j in range(d)]
    qmat, rmat = np.linalg.qr(basis)
    gso = qmat * np.diag(rmat)                  # Gram-Schmidt vectors as columns
    remaining = -np.array([[(t >> j) & 1 for t in targets] for j in range(d)], dtype=float)
    centres = {}
    for i in range(d - 1, -1, -1):
        centres[i] = gso[:, i] @ remaining / (gso[:, i] @ gso[:, i])
        remaining -= np.outer(basis[:, i], coeffs[i])
    return centres


@pytest.mark.parametrize("q_bits", [30, 38])
def test_coset_walk_centres_match_a_dense_walk(monkeypatch, q_bits):
    q = find_q(31, q_bits)
    d = max(1, math.ceil(math.log2(q)))
    seen = []

    def nearest(rng, sigma, centers):
        seen.append(np.array(centers, dtype=float))
        return np.floor(centers + 0.5).astype(np.int64)

    monkeypatch.setattr(lattice, "sample_dgauss_centered", nearest)
    targets = named_stream(5, "walk-centres", q_bits).integers(0, q, size=300)
    z = lattice.sample_gadget_cosets(named_stream(6, "walk"), q, d, 2.7, targets)
    assert len(seen) == d
    planes = {d - 1 - n: c for n, c in enumerate(seen)}      # the walk runs d-1 down to 0
    coeffs = {i: np.floor(c + 0.5) for i, c in planes.items()}
    reference = dense_nearest_plane_centres(q, d, [int(t) for t in targets], coeffs)
    for i in range(d):
        np.testing.assert_allclose(planes[i], reference[i], rtol=0, atol=1e-9)
    assert ((z @ (1 << np.arange(d, dtype=np.int64))) % q == targets).all()


# ---------------------------------------------------------------------------
# trapdoors


@pytest.fixture(scope="module")
def trap():
    return trapdoor_gen(DESK, rng=named_stream(7, "trap"))


def test_gadget_relation_exact(trap):
    assert not trap.relation_residual().any()


def test_planted_trapdoor_rebuilds_and_checks_shapes(trap):
    wb = DESK.w_bar
    rebuilt = planted_trapdoor(DESK, trap.A[:wb], trap.R)
    assert (rebuilt.A == trap.A).all() and (rebuilt.R == trap.R).all()
    for a_bar, r in ((trap.A[: wb - 1], trap.R), (trap.A[:wb, :-1], trap.R),
                     (trap.A[:wb], trap.R[:-1]), (trap.A[:wb], trap.R[:, :-1])):
        with pytest.raises(ValueError, match="shape"):
            planted_trapdoor(DESK, a_bar, r)


def test_invert_recovers_planted_secrets(trap):
    rng = named_stream(10, "invert")
    q = DESK.q
    bound = DESK.inversion_bound
    for trial in range(100):
        s = rng.integers(0, q, size=(4, 4), dtype=np.int64)
        e = rng.integers(-(bound // 2), bound // 2 + 1, size=(DESK.w, 4), dtype=np.int64)
        b = np.mod(trap.A.astype(object) @ s.astype(object) + e, q)
        s_rec, e_rec = lwe_invert(trap, np.asarray(b, dtype=np.int64))
        assert (s_rec == s).all(), f"trial {trial}"
        assert (e_rec == e).all()


def test_invert_zero_error(trap):
    s = np.arange(16, dtype=np.int64).reshape(4, 4) % DESK.q
    b = np.mod(trap.A @ s, DESK.q)
    s_rec, e_rec = lwe_invert(trap, b)
    assert (s_rec == s).all() and not e_rec.any()


def test_invert_rejects_huge_error(trap):
    rng = named_stream(11, "invert-bad")
    s = rng.integers(0, DESK.q, size=(4, 4), dtype=np.int64)
    e = rng.integers(-DESK.q // 2, DESK.q // 2, size=(DESK.w, 4), dtype=np.int64)
    b = np.mod(trap.A.astype(object) @ s.astype(object) + e, DESK.q)
    with pytest.raises(InversionError):
        lwe_invert(trap, np.asarray(b, dtype=np.int64))


def test_invert_stacked_equals_separate_calls(trap):
    rng = named_stream(12, "invert-stack")
    q, bound = DESK.q, DESK.inversion_bound
    blocks = []
    for _ in range(3):
        s = rng.integers(0, q, size=(4, 4), dtype=np.int64)
        e = rng.integers(-bound, bound + 1, size=(DESK.w, 4), dtype=np.int64)
        blocks.append(np.asarray(np.mod(trap.A.astype(object) @ s.astype(object) + e, q),
                                 dtype=np.int64))
    # one decoding far outside the bound: check=False returns its nearest decode
    blocks[1] = rng.integers(0, q, size=(DESK.w, 4), dtype=np.int64)
    s_all, e_all = lwe_invert(trap, np.concatenate(blocks, axis=1), check=False)
    assert s_all.shape == (4, 12) and e_all.shape == (DESK.w, 12)
    for t, b in enumerate(blocks):
        s_one, e_one = lwe_invert(trap, b, check=False)
        assert (s_all[:, 4 * t: 4 * t + 4] == s_one).all()
        assert (e_all[:, 4 * t: 4 * t + 4] == e_one).all()
    with pytest.raises(InversionError):
        lwe_invert(trap, np.concatenate(blocks, axis=1))
    lwe_invert(trap, np.concatenate([blocks[0], blocks[2]], axis=1))
    for shape in ((DESK.w, 5), (DESK.w, 0), (DESK.w + 1, 4), (DESK.w * 4,)):
        with pytest.raises(ValueError):
            lwe_invert(trap, np.zeros(shape, dtype=np.int64))


def _decode_digit_block_reference(block: list[int], q: int, d: int) -> tuple[int, bool]:
    """One block at a time in Python ints: the loop the array decode replaced."""
    half = q // 2

    def lift(x):
        x %= q
        return x - q if x > half else x

    gamma = 0
    for j in range(d - 1):
        gamma = 2 * gamma + lift(block[j + 1] - 2 * block[j])
    e0 = int(math.floor(-(gamma / float(2 ** (d - 1))) + 0.5))
    v = (block[0] - e0) % q
    return v, all(abs(lift(block[j] - (v << j))) <= q // 4 for j in range(d))


@pytest.mark.parametrize("q_bits", [30, 40])
def test_digit_decode_matches_the_scalar_reference(q_bits):
    # d = 30 decodes in int64; d = 40 has |gamma| up to 2**78, in Python ints
    q = find_q(31, q_bits)
    d = LweParams(n=4, p=31, q=q).d
    rng = named_stream(16, "decode", q_bits)
    for trial in range(1500):
        if trial % 2:
            block = [int(v) for v in rng.integers(0, q, size=d)]
        else:       # near a codeword, errors up to about q/4
            v = int(rng.integers(0, q))
            spread = (1, q // 64, q // 8, q // 4)[trial // 2 % 4]
            block = [((v << j) + int(rng.integers(-spread, spread + 1))) % q
                     for j in range(d)]
        got, ok = _decode_digit_blocks(np.array([block], dtype=object), q, d)
        assert (int(got[0]), ok) == _decode_digit_block_reference(block, q, d), trial


def test_preimage_congruence_and_norm(trap):
    rng = named_stream(13, "pre")
    q = DESK.q
    cap = DESK.encoding_cap
    targets = rng.integers(0, q, size=(1000, 4), dtype=np.int64)
    d = sample_preimage_batch([trap], [targets], rng)[0]
    assert (np.mod(d.astype(object) @ trap.A.astype(object), q) == targets).all()
    assert int(np.abs(d).max()) < cap
    # pooled entry deviation tracks sigma
    std = float(d.std())
    assert abs(std - DESK.sigma) / DESK.sigma < 0.20


def test_preimage_zero_target(trap):
    rng = named_stream(14, "pre0")
    d = sample_preimage_batch([trap], [np.zeros((1, 4), dtype=np.int64)], rng)[0]
    assert not np.mod(d @ trap.A, DESK.q).any()
    assert int(np.abs(d).max()) < DESK.encoding_cap


# ---------------------------------------------------------------------------
# modulus switching


def test_modswitch_window_and_roundtrip():
    q, q_prime = find_modswitch_pair(31)
    assert modswitch_window_ok(31, q, q_prime)
    rng = named_stream(15, "ms")
    a = rng.integers(-30, 31, size=(40, 40), dtype=np.int64)
    assert modswitch_roundtrip(a, q, q_prime, 31) is True
    assert modswitch_roundtrip(np.zeros((3, 3), dtype=np.int64), q, q_prime, 31) is True
    full = np.full((2, 2), 30, dtype=np.int64)
    assert modswitch_roundtrip(full, q, q_prime, 31) is True


def test_modswitch_large_entry_fails():
    q, q_prime = find_modswitch_pair(31)
    big = np.full((1, 1), 62, dtype=np.int64)
    assert modswitch_roundtrip(big, q, q_prime, 31) is False


def test_modswitch_noncompliant_ratio_rejected():
    q, q_prime = find_modswitch_pair(31)
    with pytest.raises(ValueError):
        modswitch_roundtrip(np.zeros((1, 1), dtype=np.int64), q - 31 * 5, q_prime, 31)


def test_modswitch_bound_is_active():
    # a ratio just below the window breaks the roundtrip for some entry < p
    p = 31
    c, c_prime = 983, 1000
    assert not modswitch_window_ok(p, p * c, p * c_prime)
    a = np.arange(-30, 31).reshape(61, 1)
    up = np.array([round(int(v) * (p * c_prime) / (p * c)) for v in a.ravel()])
    down_err = any(abs(int(v) * c / c_prime - round(int(v) * c / c_prime)) > 0 and
                   round(int(v) * c / c_prime) != int(v) for v in a.ravel())
    assert down_err or (up != a.ravel()).any()


# ---------------------------------------------------------------------------
# exact products


def _product_reference(a, b):
    return np.asarray(a).astype(object) @ np.asarray(b).astype(object)


@pytest.mark.parametrize("a_bits,b_bits,inner", [
    (8, 30, 124), (3, 30, 4), (30, 30, 4), (20, 33, 124), (40, 40, 16)])
def test_exact_matmul_matches_object_reference(a_bits, b_bits, inner):
    # float64, int64 and object tiers, signed entries, reduced mod q as chain walks do
    rng = named_stream(17, "matmul", a_bits, b_bits, inner)
    q = find_q(31, 30)
    for _ in range(20):
        a = rng.integers(-(1 << a_bits), 1 << a_bits, size=(9, inner), dtype=np.int64)
        b = rng.integers(-(1 << b_bits), 1 << b_bits, size=(inner, 7), dtype=np.int64)
        want = _product_reference(a, b)
        assert (exact_matmul(a, b) == want).all()
        assert (matmul_mod(a, b, q) == np.mod(want, q)).all()


def test_exact_matmul_at_its_tier_bounds():
    # max|a| * max|b| * inner just below and just above 2**53 and 2**62; a
    # sum of 2**53 + 1 rounds in float64, and one of 2**63 wraps in int64
    cases = [
        ([[2**52 - 1, 1]], [[1], [1]]),                   # bound 2**53 - 2
        ([[2**52, 1]], [[2], [1]]),                       # bound 2**54
        ([[2**26, 1]], [[2**27 - 1], [2**26 + 1]]),       # bound 2**54 - 2**27, sum 2**53 + 1
        ([[2**30 - 1] * 4], [[2**30 - 1]] * 4),           # bound just below 2**62
        ([[2**31, 2**31]], [[2**31], [2**31]]),           # bound 2**63
        ([[2**61, -2**61]], [[2], [-2]]),                 # bound 2**64
        ([[-2**63, 0]], [[-1], [0]]),                     # |-2**63| wraps in np.abs
    ]
    for a, b in cases:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        want = _product_reference(a, b)
        got = exact_matmul(a, b)
        assert (got == want).all(), (a, b, got, want)
        assert (matmul_mod(a, b, 2**61 - 1) == np.mod(want, 2**61 - 1)).all()
    assert exact_matmul(np.array([[2**52, 1]]), np.array([[2], [1]]))[0, 0] == 2**53 + 1
    assert exact_matmul(np.array([[2**31, 2**31]]), np.array([[2**31], [2**31]]))[0, 0] == 2**63


def test_centered():
    assert list(centered(np.array([0, 1, 14, 8]), 15)) == [0, 1, -1, -7]
