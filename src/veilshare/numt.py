"""Exact modular and polynomial arithmetic primitives.

Everything here runs on arbitrary-precision Python integers; no floating
point touches a modular code path.  The two central objects are

* ``Modulus``: an integer together with its prime factorization, used to
  state and check squarefree/odd-prime requirements, and
* ``MultilinearPoly``: a multilinear polynomial over Z_m with monomials
  keyed by sorted variable-index tuples in lexicographic order.

A univariate polynomial p(y) restricted to y = x_1 + ... + x_n with
boolean x_i has a unique multilinear representative; its coefficient on
a monomial of degree j is the j-th forward difference of p at 0.  That
identity (x_i^2 = x_i) is what ``multilinear_reduce`` implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial over Z_m, monomials keyed by sorted index tuples."""

    n_vars: int
    coeffs: dict[tuple[int, ...], int] = field(compare=False)
    modulus: Modulus

    def __post_init__(self):
        m = self.modulus.m
        for mono, c in self.coeffs.items():
            if tuple(sorted(mono)) != mono or len(set(mono)) != len(mono):
                raise ValueError(f"monomial key {mono} is not a sorted index set")
            if any(i < 0 or i >= self.n_vars for i in mono):
                raise ValueError(f"monomial key {mono} out of range for n={self.n_vars}")
            if not 0 < c < m:
                raise ValueError("stored coefficients must be nonzero residues")

    def degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def monomials(self) -> list[tuple[int, ...]]:
        """Monomials in the canonical (lexicographic) order."""
        return sorted(self.coeffs)


def poly_eval(poly: MultilinearPoly, x) -> int:
    """Evaluate at a boolean point, reduced mod m."""
    xs = list(x)
    if len(xs) != poly.n_vars:
        raise ValueError(f"point has length {len(xs)}, expected {poly.n_vars}")
    acc = 0
    for mono, c in poly.coeffs.items():
        if all(xs[i] for i in mono):
            acc += c
    return acc % poly.modulus.m


def eval_univariate(coeffs, y: int) -> int:
    """Evaluate sum_k coeffs[k] * y^k over the integers (Horner)."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * y + c
    return acc


def forward_differences(values: list[int]) -> list[int]:
    """All forward differences D^j f(0) for f given by its values at 0..n."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def multilinear_from_symmetric_values(values: list[int], n_vars: int,
                                      modulus: Modulus) -> MultilinearPoly:
    """Multilinear poly in x agreeing with f(x_1+...+x_n) for f's values at 0..n."""
    if len(values) != n_vars + 1:
        raise ValueError("need one value per weight 0..n")
    diffs = forward_differences(values)
    m = modulus.m
    coeffs: dict[tuple[int, ...], int] = {}
    for size, d in enumerate(diffs):
        c = d % m
        if c == 0:
            continue
        for mono in _index_subsets(n_vars, size):
            coeffs[mono] = c
    return MultilinearPoly(n_vars, coeffs, modulus)


def multilinear_reduce(univariate_coeffs, n_vars: int, modulus: Modulus) -> MultilinearPoly:
    """Expand p(y), y = x_1 + ... + x_n, into multilinear form using x_i^2 = x_i.

    ``univariate_coeffs`` lists the integer coefficients of p by ascending
    degree.  The output agrees with p on every x in {0,1}^n.
    """
    values = [eval_univariate(univariate_coeffs, y) for y in range(n_vars + 1)]
    return multilinear_from_symmetric_values(values, n_vars, modulus)


def _index_subsets(n: int, size: int):
    import itertools

    return itertools.combinations(range(n), size)
