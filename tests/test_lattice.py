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
    f_p_fraction,
    find_modswitch_pair,
    find_q,
    lwe_invert,
    matrix_power_mod,
    modswitch_roundtrip,
    modswitch_window_ok,
    prim_acceptance_fraction,
    sample_dgauss,
    sample_preimage_batch,
    sample_prim_secret,
    trapdoor_gen,
)

DESK = LweParams(n=4, p=31, q=find_q(31, 23))


def test_find_q_pins_31_divisibility():
    q = find_q(31, 23)
    assert q % 31 == 0 and (q // 31) % 31 != 0
    assert 2**22 < q <= 2**23
    assert DESK.d == 23 and DESK.w == 96 and DESK.w_bar == 4


def test_params_validation():
    with pytest.raises(ValueError):
        LweParams(n=4, p=31, q=31 * 31 * 4)       # p divides c
    with pytest.raises(ValueError):
        LweParams(n=4, p=31, q=2**23)             # p does not divide q
    assert modswitch_window_ok(31, 31 * 1000, 31 * 5000) is False   # window violated


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
        assert int(s.S[0, 0]) in roots


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
    assert det_int(s.S) % 31 == 3 and s.k == 3


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
        x = sample_dgauss(rng, sigma, 40_000)
        assert abs(float(x.mean())) < 4 * sigma / math.sqrt(40_000)
        assert abs(float(x.std()) - sigma) / sigma < 0.05


# ---------------------------------------------------------------------------
# trapdoors


@pytest.fixture(scope="module")
def trap():
    return trapdoor_gen(DESK, rng=named_stream(7, "trap"))


def test_gadget_relation_exact(trap):
    assert not trap.relation_residual().any()


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


def test_centered():
    assert list(centered(np.array([0, 1, 14, 8]), 15)) == [0, 1, -1, -7]
