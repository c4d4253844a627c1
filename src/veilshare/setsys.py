"""Set systems with restricted modular intersections.

Construction pipeline, all over a squarefree odd modulus m with r > 1
prime divisors:

1. A low-degree polynomial over Z_m that vanishes only at the all-ones
   boolean point, built per prime from base-p digit tests (binomial
   coefficients C(y, p^t) reduce to digits by Lucas' theorem, and a
   (p-1)-th power turns a digit into a 0/1 indicator), then assembled
   across primes by CRT.
2. A uniform set system G with n^n member sets indexed by vectors
   y in [0,n-1]^n.  Universe elements are (monomial, copy, block)
   triples: each monomial of the polynomial above contributes as many
   copies of its coordinate-agreement partition as its coefficient, and
   the set for y collects the blocks covering y.  Intersection sizes of
   distinct sets are then literally polynomial values at the agreement
   pattern, which is what pins them to nonzero residues mod m.
3. A merged non-uniform system H: l disjoint relabeled copies of G with
   their common cores identified, plus one padding block B, closed under
   taking the union of one set per copy together with B.  Member sizes
   are km and lkm only, and every family of at most t members that is
   non-degenerate (no member contained in all others) has intersection
   size nonzero mod m.

t appears only in that claim: the construction reads m, n and l, and
the verifier takes t as the largest family size it checks.

Everything is desk-scale and exhaustively checkable; the verifier at the
bottom re-derives the claimed properties from the bit vectors alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .numt import Modulus, crt_combine, forward_differences


MAX_CELLS = 2**26     # largest sets x universe matrix built or loaded, in booleans


def require_cells(rows: int, cols: int) -> None:
    """Refuse a rows x cols membership matrix above MAX_CELLS before allocating it."""
    if rows * cols > MAX_CELLS:
        raise ValueError(f"{rows} sets over a universe of {cols} exceed the "
                         f"{MAX_CELLS}-cell budget")


def integer_root_ceil(n: int, r: int) -> int:
    """Exact ceil(n ** (1/r)) for positive integers."""
    if n < 1 or r < 1:
        raise ValueError("need positive n, r")
    k = round(n ** (1.0 / r))
    while k**r < n:
        k += 1
    while k > 1 and (k - 1) ** r >= n:
        k -= 1
    return k


def bbr_prime_exponents(m: Modulus, n: int) -> dict[int, int]:
    """Smallest e_i per prime with p_i^e_i > ceil(n^(1/r))."""
    r = len(m.factorization)
    bound = integer_root_ceil(n, r)
    out = {}
    for p, _ in m.factorization:
        e = 1
        while p**e <= bound:
            e += 1
        out[p] = e
    return out


def build_bbr_core_values(m: Modulus, n: int) -> list[int]:
    """Values of the vanishing-only-at-zero polynomial at y = 0..n.

    Per prime p with exponent e, the digit test
    1 - prod_{t<e} (1 - C(y, p^t)^(p-1))  mod p
    is 1 exactly when y has a nonzero base-p digit below position e,
    i.e. when y != 0 mod p^e.  CRT-combining the per-prime indicators
    gives a value that is 0 mod m only when y = 0 mod prod p^e, and the
    parameter check prod p^e > n confines that to y = 0.
    """
    m.require_odd_squarefree()
    if n < 1:
        raise ValueError("need n >= 1")
    exps = bbr_prime_exponents(m, n)
    if math.prod(p**e for p, e in exps.items()) <= n:
        raise ValueError("prime-power product does not exceed n")
    values = []
    for y in range(n + 1):
        per_prime = []
        for p, e in exps.items():
            keep = 1
            for t in range(e):
                digit = math.comb(y, p**t) % p
                keep = (keep * (1 - pow(digit, p - 1, p))) % p
            per_prime.append(((1 - keep) % p, p))
        values.append(crt_combine(per_prime))
    return values


def build_bbr_polynomial(m: Modulus, n: int) -> list[int]:
    """Coefficients c of Q over Z_m, vanishing on the cube only at the all-ones point.

    Q(x) is the core polynomial evaluated at y = number of zero
    coordinates of x, so Q(1,...,1) = 0 mod m, Q is nonzero mod m
    elsewhere on the cube, and every value lies in {0,1} mod each prime.
    Q depends on x only through its weight |x|, so its multilinear form
    gives every degree-j monomial the one coefficient c[j]:
    Q(x) = sum_j c[j] * C(|x|, j) mod m.
    """
    core = build_bbr_core_values(m, n)
    # weight w of x corresponds to n - w zero coordinates
    values = [core[n - w] for w in range(n + 1)]
    return [d % m.m for d in forward_differences(values)]


@dataclass
class SetSystem:
    """Member sets as rows of a boolean matrix over a fixed universe."""

    modulus: Modulus
    universe_size: int
    sets: np.ndarray                      # (N, h) bool
    labels: list = field(default_factory=list)

    def __post_init__(self):
        self.sets = np.asarray(self.sets, dtype=bool)
        if self.sets.ndim != 2 or self.sets.shape[1] != self.universe_size:
            raise ValueError("set matrix width must equal universe size")
        if not self.sets.any(axis=1).all():
            raise ValueError("every member set must be nonempty")

    def __len__(self) -> int:
        return self.sets.shape[0]

    def sizes(self) -> np.ndarray:
        return self.sets.sum(axis=1, dtype=np.int64)

    def packed(self) -> np.ndarray:
        """Rows packed into uint64 words for popcount-based intersection counts."""
        bits = np.packbits(self.sets, axis=1, bitorder="little")
        pad = (-bits.shape[1]) % 8
        if pad:
            bits = np.pad(bits, ((0, 0), (0, pad)))
        return bits.view(np.uint64)

    def gram(self) -> np.ndarray:
        """All pairwise intersection sizes as an (N, N) int64 matrix.

        Computed once and cached; float64 products are exact here since
        counts never approach 2^53.
        """
        cached = getattr(self, "_gram", None)
        if cached is None:
            rows, universe = self.sets.shape
            # the float64 copy of the sets and the product, before either exists
            need = rows * (universe + rows) * 8
            if need > MAX_CELLS:
                raise ValueError(f"the Gram matrix of {rows} sets over {universe} "
                                 f"elements needs {need} bytes, over the "
                                 f"{MAX_CELLS}-byte budget")
            a = self.sets.astype(np.float64)
            cached = np.rint(a @ a.T).astype(np.int64)
            self._gram = cached
        return cached


def build_grolmusz_system(m: Modulus, n: int) -> SetSystem:
    """Uniform system G with n^n sets whose intersections are pinned mod m.

    Universe elements are (monomial, copy, block) triples; the set for
    y in [0,n-1]^n holds, for every monomial copy, the block of vectors
    agreeing with y on the monomial's coordinates.  Monomials with zero
    reduced coefficient contribute no elements.  Only m and n shape G, and
    build_bbr_core_values checks both: m odd, squarefree and of two or
    more primes, n >= 1, and a prime-power product above n.  merge_systems
    checks the merge factor l.  n^n sets, and n^n times the universe, must
    stay within MAX_CELLS.
    """
    if n > 1 and n * math.log2(n) > math.log2(MAX_CELLS):    # n**n itself may be huge
        raise ValueError(f"n = {n} gives n^n sets, over the {MAX_CELLS}-cell budget")
    coeffs = build_bbr_polynomial(m, n)
    # lexicographic monomial order fixes the universe layout
    terms = sorted((mono, c) for j, c in enumerate(coeffs) if c
                   for mono in itertools.combinations(range(n), j))

    # term k lays its c copies of n^|mono| blocks side by side from starts[k]
    starts = list(itertools.accumulate((c * n ** len(mono) for mono, c in terms), initial=0))
    universe = starts[-1]
    require_cells(n**n, universe)

    labels = list(itertools.product(range(n), repeat=n))
    sets = np.zeros((len(labels), universe), dtype=bool)
    for row, y in enumerate(labels):
        for (mono, c), start in zip(terms, starts):
            block = 0
            for i in mono:
                block = block * n + y[i]
            width = n ** len(mono)
            sets[row, start + block:start + c * width:width] = True

    system = SetSystem(m, universe, sets, labels=labels)
    sizes = system.sizes()
    if not (sizes == sizes[0]).all() or sizes[0] % m.m != 0:
        raise RuntimeError("construction lost uniformity or divisibility")
    if int(system.sets.all(axis=0).sum()) % m.m == 0:
        raise RuntimeError("full intersection must not vanish mod m")
    return system


def merge_systems(g_system: SetSystem, l: int) -> SetSystem:
    """Merge l relabeled copies of G, cores identified, plus a padding block.

    Members are every copy set and every union of one set per copy
    together with the padding block B of (l-1)*|core| fresh elements.
    The copy-core identification uses the identity map on core element
    indices, which is a coherent choice of the pairwise bijections.  Each
    union row starts as B and takes in the copy rows merge_layout(l, s)
    assigns it, so the layout the token encoding reads is the one built.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    if l >= min(g_system.modulus.primes):
        raise ValueError("need l < min prime divisor of m")
    sizes = g_system.sizes()
    if not (sizes == sizes[0]).all():
        raise ValueError("input system must be uniform")
    if sizes[0] % g_system.modulus.m != 0:
        raise ValueError("member sizes must be 0 mod m")
    core_mask = g_system.sets.all(axis=0)
    a = int(core_mask.sum())
    if a == 0:
        raise ValueError("degenerate input: empty common core")
    g = g_system.universe_size
    s = len(g_system)

    h = l * g       # a core elements, l * (g - a) rest elements, (l - 1) * a padding
    require_cells(l * s + s**l, h)

    sets = np.zeros((l * s + s**l, h), dtype=bool)
    cmap = np.empty(g, dtype=np.int64)
    cmap[core_mask] = np.arange(a)
    for copy in range(l):
        cmap[~core_mask] = a + copy * (g - a) + np.arange(g - a)
        sets[copy * s:(copy + 1) * s, cmap] = g_system.sets
    sets[l * s:, a + l * (g - a):] = True       # B in every union row
    for row, unions in merge_layout(l, s).items():
        sets[unions] |= sets[row]
    labels = [("copy", copy, g_system.labels[j] if g_system.labels else j)
              for copy in range(l) for j in range(s)]
    labels += [("union", combo) for combo in itertools.product(range(s), repeat=l)]
    return SetSystem(g_system.modulus, h, sets, labels=labels)


def merge_layout(l: int, s: int) -> dict[int, np.ndarray]:
    """Per copy row of an l-fold merge of s sets, the ascending union rows holding it.

    merge_systems writes l*s copy rows, copy by copy, then one union row per
    combo in itertools.product order, and builds each union from this map.
    Copy row c*s + j lies in exactly the s^(l-1) unions that pick j in copy
    c and holds no member, so every copy row can be the designated set H of
    the token encoding.
    """
    picks = np.array(list(itertools.product(range(s), repeat=l)))
    return {c * s + j: l * s + np.flatnonzero(picks[:, c] == j)
            for c in range(l) for j in range(s)}


@dataclass
class IntersectionReport:
    """Outcome of brute-force restricted-intersection checking."""

    modulus: int
    t: int
    l: int | None
    set_count: int
    size_classes: list[int]
    checked_pairs: int
    checked_families: int
    skipped_degenerate: int
    sample_seed: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_restricted_intersections(system: SetSystem, t: int, l: int | None = None,
                                    samples: int = 10**6, seed: int = 0) -> IntersectionReport:
    """Check sizes, size classes and nonzero intersections by brute force.

    All pairs are checked exhaustively; families of size 3..t are checked
    on ``samples`` seeded random draws each.  Families where one member is
    contained in every other member are degenerate and exempt.  Violations
    are returned with witnesses, never raised; ValueError refuses, before
    any family is drawn, a t and ``samples`` whose families of every arity
    would not fit MAX_CELLS together.
    """
    m = system.modulus.m
    sizes = system.sizes()
    report = IntersectionReport(
        modulus=m, t=t, l=l, set_count=len(system),
        size_classes=sorted(int(v) for v in np.unique(sizes)),
        checked_pairs=0, checked_families=0, skipped_degenerate=0,
        sample_seed=seed,
    )

    for i in np.flatnonzero(sizes % m != 0):
        report.violations.append({"kind": "size", "index": int(i), "size": int(sizes[i])})

    classes = report.size_classes
    if len(classes) > 2:
        report.violations.append({"kind": "size-classes", "classes": classes})
    elif len(classes) == 2 and l is not None and classes[1] != l * classes[0]:
        report.violations.append({"kind": "size-ratio", "classes": classes, "expected_ratio": l})

    n_sets = len(system)
    if n_sets >= 2:
        gram = system.gram()
        iu = np.triu_indices(n_sets, k=1)
        pair_sizes = gram[iu]
        degenerate = (pair_sizes == sizes[iu[0]]) | (pair_sizes == sizes[iu[1]])
        report.checked_pairs = int((~degenerate).sum())
        report.skipped_degenerate += int(degenerate.sum())
        for b in np.flatnonzero(~degenerate & (pair_sizes % m == 0))[:32]:
            report.violations.append(
                {"kind": "pair", "family": [int(iu[0][b]), int(iu[1][b])],
                 "intersection": int(pair_sizes[b])})

        # the (families, arity) arrays of all arities, summed before any is
        # drawn; gram() caps n_sets near 2,900, which keeps these combs cheap
        arities = range(3, min(t, n_sets) + 1)
        cells = sum(min(math.comb(n_sets, a), samples) * a for a in arities)
        if cells > MAX_CELLS:
            raise ValueError(f"families of 3 to {t} sets take {cells} cells, over "
                             f"the {MAX_CELLS}-cell budget; lower t or samples")
        packed = system.packed()
        rng = np.random.default_rng(seed)
        for arity in arities:
            total = math.comb(n_sets, arity)
            if total <= samples:
                fams = np.array(list(itertools.combinations(range(n_sets), arity)))
            else:
                fams = np.unique(
                    np.sort(rng.integers(0, n_sets, size=(samples, arity)), axis=1), axis=0)
                fams = fams[(np.diff(fams, axis=1) > 0).all(axis=1)]
            for chunk in np.array_split(fams, max(1, len(fams) // 4096)):
                if chunk.size == 0:
                    continue
                acc = packed[chunk[:, 0]]
                for col in range(1, arity):
                    acc = acc & packed[chunk[:, col]]
                counts = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
                degenerate = np.zeros(len(chunk), dtype=bool)
                for col in range(arity):
                    degenerate |= counts == sizes[chunk[:, col]]
                report.skipped_degenerate += int(degenerate.sum())
                report.checked_families += int((~degenerate).sum())
                bad = np.flatnonzero(~degenerate & (counts % m == 0))
                for b in bad[:32]:
                    report.violations.append(
                        {"kind": "family", "family": [int(v) for v in chunk[b]],
                         "intersection": int(counts[b])})
    return report
