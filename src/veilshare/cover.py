"""Covering-vector families: set algebra through inner products.

Each member set of a set system maps to its characteristic vector in
Z_m^h.  For characteristic vectors the plain inner product counts the
intersection, so pairwise products mod m land in a bounded residue set S
and vanish exactly on the self products (set sizes being 0 mod m).
A k-multilinear form extends this to k-fold intersections, and
inclusion-exclusion expresses intersections with unions without ever
touching the underlying sets.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numt import Modulus
from .setsys import SetSystem


class VectorFamily:
    """Covering vectors for one set system, stored as an (N, h) matrix."""

    def __init__(self, matrix: np.ndarray, modulus: Modulus):
        self.matrix = np.asarray(matrix, dtype=np.int64)
        self.modulus = modulus

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def width(self) -> int:
        return self.matrix.shape[1]

    def vector(self, i: int) -> np.ndarray:
        """Row i: the length-h int64 covering vector of member set i."""
        return self.matrix[i]

    def inner_products(self) -> np.ndarray:
        """All pairwise inner products over the integers, (N, N)."""
        return self.matrix @ self.matrix.T

    def residue_set(self) -> set[int]:
        """Distinct nonzero residues of off-diagonal products mod m."""
        prod = self.inner_products() % self.modulus.m
        off = prod[~np.eye(len(self), dtype=bool)]
        return set(int(v) for v in np.unique(off)) - {0}


def to_covering_family(system: SetSystem) -> VectorFamily:
    """One characteristic vector per member set, entries in {0,1} as residues."""
    return VectorFamily(system.sets.astype(np.int64), system.modulus)


def multilinear_form(vs: list) -> int:
    """Exact integer sum_i v_1[i] * ... * v_k[i]; counts k-fold intersections."""
    arrays = [np.asarray(v, dtype=np.int64) for v in vs]
    if not arrays:
        raise ValueError("need at least one vector")
    width = arrays[0].shape[0]
    if any(a.shape != (width,) for a in arrays):
        raise ValueError("vectors must share one length")
    acc = arrays[0].copy()
    for a in arrays[1:]:
        acc *= a
    return int(acc.sum())


def union_size_via_F(x: int, y: int, z: int) -> int:
    """|H n (H1 u H2)| from x = |H n H1|, y = |H n H2|, z = |H n H1 n H2|."""
    return x + y - z


def iterated_union_form(v, ws: list) -> int:
    """|H n (W_1 u ... u W_w)| by inclusion-exclusion over multilinear forms."""
    if not ws:
        raise ValueError("need at least one union argument")
    total = 0
    for size in range(1, len(ws) + 1):
        sign = 1 if size % 2 == 1 else -1
        for combo in itertools.combinations(ws, size):
            total += sign * multilinear_form([v, *combo])
    return total

