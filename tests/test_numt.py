import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilshare.numt import (
    Modulus,
    crt_combine,
    euler_phi,
    forward_differences,
    is_primitive_root,
)


def phi_by_scan(y):
    return sum(1 for k in range(1, y + 1) if math.gcd(k, y) == 1)


def order_by_scan(k, p):
    acc, e = k % p, 1
    while acc != 1:
        acc = acc * k % p
        e += 1
    return e


def test_euler_phi_small():
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    assert euler_phi(30) == phi_by_scan(30)


@pytest.mark.parametrize("y", [2, 7, 12, 36, 97, 210])
def test_euler_phi_matches_scan(y):
    assert euler_phi(y) == phi_by_scan(y)


def test_primitive_root_examples():
    assert is_primitive_root(3, 7) is True
    assert is_primitive_root(1, 7) is False
    # independent oracle: enumerate powers of 2 mod 31
    assert order_by_scan(2, 31) == 5
    assert is_primitive_root(2, 31) is False


def test_primitive_root_rejects_bad_input():
    with pytest.raises(ValueError):
        is_primitive_root(0, 7)
    with pytest.raises(ValueError):
        is_primitive_root(3, 15)


def test_primitive_root_agrees_with_bruteforce_up_to_101():
    primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        for k in range(1, p):
            assert is_primitive_root(k, p) == (order_by_scan(k, p) == p - 1)


def test_crt_examples():
    assert crt_combine([(0, 3), (1, 5)]) == 6
    assert crt_combine([(1, 3), (1, 5)]) == 1
    # oracle: scan residues 0..14
    expect = next(x for x in range(15) if x % 3 == 2 and x % 5 == 4)
    assert crt_combine([(2, 3), (4, 5)]) == expect == 14


def test_crt_rejects_duplicates():
    with pytest.raises(ValueError):
        crt_combine([(1, 3), (2, 3)])


@given(st.lists(st.sampled_from([3, 5, 7, 11, 13]), min_size=1, max_size=4, unique=True),
       st.data())
@settings(max_examples=60, deadline=None)
def test_crt_projection_roundtrip(primes, data):
    total = math.prod(primes)
    x = data.draw(st.integers(min_value=0, max_value=total - 1))
    assert crt_combine([(x % p, p) for p in primes]) == x


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_forward_differences_rebuild_f_by_newton(coeffs, n):
    # Newton: f(y) = sum_j D^j f(0) * C(y, j) on 0..n, and over the cube C(|x|, j)
    # counts the degree-j monomials x satisfies, so D^j f(0) is each one's coefficient
    def f(y):
        return sum(c * y**k for k, c in enumerate(coeffs))

    diffs = forward_differences([f(y) for y in range(n + 1)])
    assert len(diffs) == n + 1
    for y in range(n + 1):
        assert sum(d * math.comb(y, j) for j, d in enumerate(diffs)) == f(y)
    for bits in range(2**n):
        x = [(bits >> i) & 1 for i in range(n)]
        satisfied = [mono for j in range(n + 1) for mono in itertools.combinations(range(n), j)
                     if all(x[i] for i in mono)]
        assert sum(diffs[len(mono)] for mono in satisfied) == f(sum(x))


def test_modulus_validation():
    Modulus.of(105).require_odd_squarefree()
    with pytest.raises(ValueError):
        Modulus.of(9).require_odd_squarefree()
    with pytest.raises(ValueError):
        Modulus.of(45).require_odd_squarefree()   # 3^2 * 5
    with pytest.raises(ValueError):
        Modulus.of(30).require_odd_squarefree()   # even
    with pytest.raises(ValueError):
        Modulus.of(7).require_odd_squarefree()    # single prime
