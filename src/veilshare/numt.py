"""Exact modular arithmetic primitives.

Everything here runs on arbitrary-precision Python integers; no floating
point touches a modular code path.  ``Modulus`` is an integer together
with its prime factorization, used to state and check squarefree and
odd-prime requirements.

``forward_differences`` gives the Newton coefficients D^j f(0) of f
known at 0..n, so that f(y) = sum_j D^j f(0) * C(y, j).  For boolean x,
C(x_1 + ... + x_n, j) counts the degree-j monomials that x satisfies, so
D^j f(0) is the coefficient of every degree-j monomial in the multilinear
form of f(x_1 + ... + x_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def factorize(y: int) -> list[tuple[int, int]]:
    """Factor 1 <= y < 2**32 (milliseconds) by trial division; returns [(prime, exponent)]."""
    if y < 1:
        raise ValueError("can only factor positive integers")
    if y >= 1 << 32:
        raise ValueError(f"{y} is too large to factor: trial division stops below 2**32")
    out = []
    rem = y
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        out.append((rem, 1))
    return out


def is_prime(y: int) -> bool:
    if y < 2:
        return False
    return factorize(y) == [(y, 1)]


def euler_phi(y: int) -> int:
    """Order of the multiplicative group mod y; phi(1) = 1 by convention."""
    if y < 1:
        raise ValueError("phi is defined for positive integers")
    out = y
    for p, _ in factorize(y):
        out = out // p * (p - 1)
    return out


def is_primitive_root(k: int, p: int) -> bool:
    """True iff k generates Z_p^* for an odd-or-2 prime p.

    Decided by checking k^((p-1)/l) != 1 mod p for every prime l | p-1.
    Rejects k outside [1, p-1] and non-prime p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= p - 1:
        raise ValueError("k must lie in [1, p-1]")
    if p == 2:
        return k == 1
    for ell, _ in factorize(p - 1):
        if pow(k, (p - 1) // ell, p) == 1:
            return False
    return True


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Combine [(residue, prime)] into the unique residue mod the product.

    The moduli must be pairwise distinct primes.
    """
    primes = [p for _, p in residues]
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in CRT input")
    total = math.prod(primes)
    acc = 0
    for r, p in residues:
        rest = total // p
        acc += (r % p) * rest * pow(rest, -1, p)
    return acc % total


@dataclass(frozen=True)
class Modulus:
    """A positive integer with its factorization attached."""

    m: int
    factorization: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, m: int) -> "Modulus":
        return cls(m, tuple(factorize(m)))

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be at least 2")
        if math.prod(p**a for p, a in self.factorization) != self.m:
            raise ValueError("factorization does not match modulus")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    def require_odd_squarefree(self):
        """Raise unless m is squarefree with at least two odd prime divisors."""
        if len(self.factorization) < 2:
            raise ValueError(f"modulus {self.m} needs at least 2 prime divisors")
        for p, a in self.factorization:
            if a != 1:
                raise ValueError(f"modulus {self.m} is not squarefree")
            if p == 2:
                raise ValueError(f"modulus {self.m} must be odd")


def forward_differences(values: list[int]) -> list[int]:
    """All forward differences D^j f(0) for f given by its values at 0..n."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out
