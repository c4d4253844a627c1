"""PRIM-LWE sampling, gadget trapdoors and modulus switching.

Shapes follow the scheme's convention: public matrices A are tall
(w x n) over Z_q, secrets S are n x n, encodings D are w x w, and an
LWE instance is B = A S + E.  The modulus q is p*c for the scheme prime
p with p not dividing c, and need not be a power of two.

Trapdoor layout.  With d = ceil(log2 q) base-2 digits and w = n*(1+d):

    A = [ A_bar                          ]   A_bar uniform, (w_bar x n)
        [ G - R A_bar  (mod q)           ]   R small Gaussian, (n*d x w_bar)

where G is the digit gadget (n*d x n) with G[i*d + j, i] = 2^j, so that
[R | I] A = G exactly mod q.  Given B = A S + E,

    [R | I] B = G S + (R E_top + E_bottom),

and each length-d digit block (2^j v + e_j) decodes exactly: consecutive
differences b_{j+1} - 2 b_j lift to e_{j+1} - 2 e_j over the integers
whenever errors stay below q/6, which recovers e_0 by one rounded
division and then v itself.  No power-of-two modulus is needed.

A profile is n, p and q alone.  The constants of the trapdoor analysis
(Micciancio-Peikert, EUROCRYPT 2012) are fixed: the norm parameter
LAM = 512 sets the caps s*sqrt(LAM) on errors and sigma*sqrt(LAM) on
encodings, and C_BOUND = 4 sets the inversion residual bound
q / (C_BOUND * p * d), rounded down and at least 1.

Integer products are exact in one of three tiers (exact_matmul), chosen
from the bound max|a| * max|b| * inner on every partial sum.  Below 2^53
each partial sum is an integer that float64 holds exactly in any
summation order, so a matrix product runs in float64 BLAS; below 2^62 it
runs in int64, which numpy multiplies without BLAS; beyond that in
Python ints.  A matrix-vector product, such as the coset syndrome check,
skips float64: converting a would copy all of it for one output column.
A chain product at the desk profile has q < 2^30, |D| < 2^8 and inner
w = 124, so it stays below 2^45; at q_bits 38 to 46 it falls back to
int64, and from 47 on to Python ints.

Preimage sampling inverts the syndrome map d^T A = u^T by sampling one
digit-lattice coset vector per secret coordinate with a randomized
nearest-plane (Klein) walk over the standard gadget basis, then mapping
through [R | I]^T.  Rejection against the norm caps keeps
||d||_inf < sigma*sqrt(LAM) as the dealer requires.  Every basis
vector but the last (the bits of q) is 2 e_i - e_(i+1), so a plane's
centre is its share of the target bits, projected once for all planes,
less two GSO terms: one from the bits of q and one from the next plane.
Each plane draws its integers by exact rejection from a proposal chosen
by the centre's fraction, one of 16 buckets whose envelope the target
fills to about 98 %, looked up through a 256-bin guide table.  That one
exact sampler, at centre 0 and width s, also draws every trapdoor's R
and the dealer's errors E.

Bookkeeping note on the matrix-secret view: an n x n secret is n
column secrets against one public matrix, and insisting on a generator
determinant costs at most a 1/c(p) rejection factor, so distinguishing
these instances is no easier than single-secret LWE up to an O(n^2)
sample/advantage factor.  That loss is irrelevant at desk scale and is
not asserted by any test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numt import euler_phi, is_prime, is_primitive_root

PREIMAGE_RESAMPLES = 64          # preimage retries against the norm cap
LAM = 512                        # norm parameter: caps are s*sqrt(LAM) and sigma*sqrt(LAM)
C_BOUND = 4                      # inversion residual bound is q / (C_BOUND * p * d)
PRIM_TRIES = 200_000             # rejection budget for secret sampling


class InversionError(ValueError):
    """LWE inversion found a residual above the decoding bound."""


def centered(x, q: int):
    """Representatives in (-q/2, q/2]."""
    arr = np.asarray(x)
    c = np.mod(arr, q)
    return np.where(c > q // 2, c - q, c)


def _max_abs(x: np.ndarray) -> int:
    """max |x| as a Python int; np.abs would wrap -2^63 back to itself."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the integers, in the cheapest dtype that neither rounds nor wraps.

    Every partial sum is bounded by max|a| * max|b| * inner: below 2^53 a
    matrix product runs in float64 BLAS, below 2^62 in int64, beyond in
    Python ints.  A matrix-vector product skips float64.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    bound = _max_abs(a) * _max_abs(b) * a.shape[-1]
    if bound < 2**53 and b.ndim == 2:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if bound < 2**62:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, exactly (see exact_matmul); object dtype beyond int64's reach."""
    return np.mod(exact_matmul(a, b), q)


def det_int(mat) -> int:
    """Exact integer determinant (Bareiss, fraction-free)."""
    m = [[int(v) for v in row] for row in np.asarray(mat)]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def find_q(p: int, bits: int) -> int:
    """Largest q <= 2^bits with q = p*c and p not dividing c."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if bits < 0 or (1 << bits) < p:
        raise ValueError(f"q_bits {bits} is too small: 2**q_bits must be at least p = {p}")
    q = (1 << bits) // p * p
    while q // p % p == 0:
        q -= p
    return q


@dataclass(frozen=True)
class LweParams:
    """Dimension and moduli of one trapdoor profile; widths and caps follow from them."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.q < self.p:
            raise ValueError("q must be at least p")
        if self.q % self.p != 0 or (self.q // self.p) % self.p == 0:
            raise ValueError("need q = p*c with p not dividing c")
        if self.q >= 1 << 62:
            raise ValueError("q must be below 2**62: entries, coset targets and 2**j are int64")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def d(self) -> int:
        return (self.q - 1).bit_length()        # ceil(log2 q), exact for any q >= 2

    @property
    def w(self) -> int:
        return self.n * (1 + self.d)

    @property
    def w_bar(self) -> int:
        return self.w - self.n * self.d

    @property
    def s(self) -> float:
        return math.sqrt(self.n)

    @property
    def sigma(self) -> int:
        return math.ceil(math.sqrt(self.n * math.log2(self.q)))

    @property
    def error_cap(self) -> float:
        return self.s * math.sqrt(LAM)

    @property
    def encoding_cap(self) -> float:
        return self.sigma * math.sqrt(LAM)

    @property
    def inversion_bound(self) -> int:
        return max(1, self.q // (C_BOUND * self.p * self.d))


# ---------------------------------------------------------------------------
# discrete Gaussians


CENTRE_BUCKETS = 16        # proposal rows, one per 1/16 of the centre's fraction
GUIDE_BINS = 256           # guide-table bins per row; a power of two keeps G * cdf exact


# keyed by the width: s for R and E, and the d plane widths (q, d, sigma_z) fix
@functools.lru_cache(maxsize=256)
def _dgauss_table(sigma: float):
    """Per-bucket proposal tables for sample_dgauss_centered.

    Bucket j holds the fractions f in [-1/2 + j/16, -1/2 + (j + 1)/16].
    Its proposal over offsets u = -half..half is the envelope
    max_f rho_sigma(u - f) over the bucket; beyond 10 sigma + 1 every
    weight is below 2^-70 of the total.  Returns (cdf, guide, step,
    log_env, half, a):

    - cdf (16, n): each row's CDF, last entry exactly 1;
    - guide (16, 256): #{j : cdf_j <= g/256}, the offset index for every
      uniform in bin g unless step marks a CDF step inside the bin;
    - log_env (16, n): a * (distance from u to the bucket)^2, so the
      acceptance ratio is exp(log_env - a (u - f)^2) <= 1;
    - a = 1 / (2 sigma^2).
    """
    half = math.ceil(10 * sigma) + 1
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    edges = -0.5 + np.arange(CENTRE_BUCKETS + 1) / CENTRE_BUCKETS
    nearest = np.clip(offsets, edges[:-1, None], edges[1:, None])
    a = 1.0 / (2 * sigma * sigma)
    log_env = a * (offsets - nearest) ** 2
    cdf = np.cumsum(np.exp(-log_env), axis=1)
    cdf /= cdf[:, -1:]
    cdf[:, -1] = 1.0       # every uniform in [0, 1) lands on an offset
    row = (GUIDE_BINS + 1) * np.arange(CENTRE_BUCKETS)[:, None]

    def at_most(bins):          # per row, #{j : bins_j <= g} for every bin g
        counts = np.bincount((bins.astype(np.intp) + row).ravel(),
                             minlength=CENTRE_BUCKETS * (GUIDE_BINS + 1))
        return counts.reshape(CENTRE_BUCKETS, -1).cumsum(axis=1)[:, :GUIDE_BINS]

    # G cdf is exact since G is a power of two, so lo[g] = #{j : cdf_j <= g/G}
    # and hi[g] = #{j : cdf_j < (g+1)/G}; bin g holds a step iff they differ
    lo, hi = at_most(np.ceil(GUIDE_BINS * cdf)), at_most(np.floor(GUIDE_BINS * cdf))
    guide = lo.astype(np.min_scalar_type(-offsets.size))
    step = lo != hi
    for arr in (cdf, guide, step, log_env):
        arr.flags.writeable = False
    return cdf, guide, step, log_env, half, a


def sample_dgauss_centered(rng: np.random.Generator, sigma: float,
                           centers: np.ndarray) -> np.ndarray:
    """Discrete Gaussians over Z with per-entry real centers, same width.

    x = r + u with r = floor(c + 0.5) has weight rho_sigma(x - c), exactly.
    This is the one sampler: R, E (centre 0) and every coset-walk plane
    draw from it.  Each round draws one (proposal, acceptance) uniform
    pair per pending entry: u comes from the proposal row of the bucket
    holding f = c - r (see _dgauss_table), found through the guide table
    and, in a bin that holds a CDF step, by comparing against the row, and
    is kept with probability rho_sigma(u - f) / envelope(u).  The ratio is exact,
    and about 98 % of proposals are kept at the desk widths.
    """
    if sigma <= 0.5:
        raise ValueError("sigma too small")
    cdf, guide, step, log_env, half, a = _dgauss_table(float(sigma))
    centers = np.asarray(centers, dtype=np.float64)
    flat = centers.ravel()
    rounded = np.floor(flat + 0.5)
    frac = flat - rounded
    # f can sit an ulp below -1/2 when c + 0.5 rounds up; truncation puts it in bucket 0
    bucket = np.minimum(((frac + 0.5) * CENTRE_BUCKETS).astype(np.intp), CENTRE_BUCKETS - 1)
    rounded = rounded.astype(np.int64)
    out = np.empty(flat.shape, dtype=np.int64)
    todo = np.arange(flat.size)
    while todo.size:
        b, f = bucket.take(todo), frac.take(todo)
        draw = rng.random((todo.size, 2))
        # take() reads the (bucket, bin) and (bucket, offset) tables flattened
        cell = (draw[:, 0] * GUIDE_BINS).astype(np.intp) + b * GUIDE_BINS
        idx = guide.take(cell).astype(np.intp)
        stepped = np.flatnonzero(step.take(cell))
        if stepped.size:
            idx[stepped] = (cdf[b[stepped]] <= draw[stepped, :1]).sum(axis=1)
        u = idx - half
        out[todo] = rounded.take(todo) + u     # a rejected entry is overwritten next round
        log_ratio = log_env.take(b * cdf.shape[1] + idx) - a * (u - f) ** 2
        todo = todo[draw[:, 1] >= np.exp(log_ratio)]
    return out.reshape(centers.shape)


# ---------------------------------------------------------------------------
# gadget lattice


@functools.lru_cache(maxsize=8)
def _gadget_basis(q: int, d: int):
    """Standard basis of {z in Z^d : <z, (1,2,...,2^(d-1))> = 0 mod q}, its GSO
    (columns), their squared norms and the GSO coefficients mu."""
    basis = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        basis[i, i] = 2
        basis[i + 1, i] = -1
    for j in range(d):
        basis[j, d - 1] = (q >> j) & 1
    gso = np.zeros((d, d), dtype=np.float64)
    norms2 = np.zeros(d)
    bf = basis.astype(np.float64)
    for i in range(d):
        v = bf[:, i].copy()
        for j in range(i):
            v -= (bf[:, i] @ gso[:, j]) / norms2[j] * gso[:, j]
        gso[:, i] = v
        norms2[i] = v @ v
    # mu[j, i] = <b_j, gso_i> / |gso_i|^2; gso_i lies on coordinates 0..i+1,
    # so above the diagonal only j = i + 1 and the bits of q, j = d - 1, meet it
    mu = bf.T @ gso / norms2
    return basis, gso, norms2, mu


def gadget_powers(d: int) -> np.ndarray:
    return np.int64(1) << np.arange(d, dtype=np.int64)


def sample_gadget_cosets(rng: np.random.Generator, q: int, d: int, sigma_z: float,
                         targets: np.ndarray) -> np.ndarray:
    """Klein sampling of z with <z, g> = target mod q, one row per target.

    Starts from the binary decomposition u0 of each target (an exact coset
    representative) and walks the gadget basis planes with randomized
    rounding, yielding short coset vectors of per-entry width ~ sigma_z.
    Plane i's centre is y_i - sum_(j > i) mu[j, i] z_j with
    y = -gso^T u0 / |gso|^2, and only two of those mu are nonzero: the
    first plane, the bits of q, is dense and shifts every later centre
    once; each later plane shifts only the next one.
    """
    basis, gso, norms2, mu = _gadget_basis(q, d)
    targets = np.asarray(targets, dtype=np.int64) % q
    k = targets.shape[0]
    # target-major (k, d) throughout, so z is built in place and no plane
    # allocates a (k, d) temporary
    u0 = np.unpackbits(targets.astype("<i8").view(np.uint8).reshape(k, 8), axis=1,
                       count=d, bitorder="little")
    centres = u0 @ (gso / -norms2)
    widths = sigma_z / np.sqrt(norms2)
    z = u0.astype(np.int64)     # u0 + basis @ coeff, one basis column per plane
    dense = sample_dgauss_centered(rng, widths[d - 1], centres[:, d - 1])
    for j in np.flatnonzero(basis[:, d - 1]):
        z[:, j] += dense
    for i in range(d - 2, -1, -1):
        centre = centres[:, i] - mu[d - 1, i] * dense
        if i < d - 2:           # b_(i+1) = 2 e_(i+1) - e_(i+2); b_(d-1) is the dense one
            centre -= mu[i + 1, i] * below
        below = sample_dgauss_centered(rng, widths[i], centre)
        z[:, i] += 2 * below
        z[:, i + 1] -= below
    if not (matmul_mod(z, gadget_powers(d), q) == targets).all():
        raise RuntimeError("coset sampling lost the syndrome")
    return z


# ---------------------------------------------------------------------------
# trapdoors


def gadget_matrix(n: int, d: int) -> np.ndarray:
    """G (n*d x n) with G[i*d + j, i] = 2^j."""
    g = np.zeros((n * d, n), dtype=np.int64)
    for i in range(n):
        g[i * d: (i + 1) * d, i] = gadget_powers(d)
    return g


@dataclass
class TrapdoorMatrix:
    params: LweParams
    A: np.ndarray          # (w, n) mod q
    R: np.ndarray          # (n*d, w_bar), small

    def relation_residual(self) -> np.ndarray:
        """([R | I] A - G) mod q; all zero for a well-formed trapdoor."""
        q = self.params.q
        wb = self.params.w_bar
        left = matmul_mod(self.R, self.A[:wb], q)
        combined = np.mod(left + self.A[wb:], q)
        return np.mod(combined - gadget_matrix(self.params.n, self.params.d), q)


def planted_trapdoor(params: LweParams, a_bar: np.ndarray, r: np.ndarray) -> TrapdoorMatrix:
    """The trapdoor R plants under A_bar: A = [A_bar; G - R A_bar mod q].

    Raises ValueError unless A_bar is (w_bar x n) and R is (n*d x w_bar).
    """
    n, q, d, wb = params.n, params.q, params.d, params.w_bar
    if np.shape(a_bar) != (wb, n) or np.shape(r) != (n * d, wb):
        raise ValueError(f"expected A_bar of shape {(wb, n)} and R of shape {(n * d, wb)}")
    lower = np.mod(gadget_matrix(n, d) - matmul_mod(r, a_bar, q), q)
    return TrapdoorMatrix(params, np.concatenate([a_bar, lower]).astype(np.int64), r)


def trapdoor_gen(params: LweParams, rng: np.random.Generator) -> TrapdoorMatrix:
    """Sample A with a planted gadget trapdoor; the top block is uniform."""
    n, q, d = params.n, params.q, params.d
    a_bar = rng.integers(0, q, size=(params.w_bar, n), dtype=np.int64)
    r = sample_dgauss_centered(rng, params.s, np.zeros((n * d, params.w_bar)))
    return planted_trapdoor(params, a_bar, r)


def _decode_digit_blocks(blocks: np.ndarray, q: int, d: int) -> tuple[np.ndarray, bool]:
    """Recover every v from its block b_j = 2^j v + e_j mod q, j < d (last axis).

    Exact while max |e_j| < q/6.  gamma, the sum over j of 2^(d-2-j)
    centered(b_{j+1} - 2 b_j), stays below 2^(2d-2) in magnitude, so int64
    holds it for 2d <= 62 and Python ints (object arrays) hold it beyond.
    e0 is rounded in float64, as int / float division rounds gamma.
    """
    dtype = np.int64 if 2 * d <= 62 else object
    b = np.asarray(blocks).astype(dtype)
    horner = np.array([1 << j for j in range(d - 2, -1, -1)], dtype=dtype)
    gamma = centered(b[..., 1:] - 2 * b[..., :-1], q) @ horner
    e0 = np.floor(-(np.asarray(gamma).astype(np.float64) / float(2 ** (d - 1))) + 0.5)
    v = np.mod(b[..., 0] - e0.astype(np.int64).astype(dtype), q)
    digits = np.array([1 << j for j in range(d)], dtype=dtype)
    ok = bool((np.abs(centered(b - v[..., None] * digits, q)) <= q // 4).all())
    return v.astype(np.int64), ok


def lwe_invert(trap: TrapdoorMatrix, b_matrix: np.ndarray, check: bool = True):
    """Recover (S, E) from B = A S + E.

    B may also be k such instances side by side, [B_1 | ... | B_k] of shape
    (w, k*n); S and E then come back in the same layout, (n, k*n) and
    (w, k*n), all decoded in one pass.

    With ``check`` the implied error must stay within the params' declared
    inversion bound, else InversionError; without it the nearest decode is
    returned regardless (used by post-hoc share verification, where an
    implausible residual is itself the evidence being scored).
    """
    params = trap.params
    n, q, d, wb = params.n, params.q, params.d, params.w_bar
    b = np.mod(np.asarray(b_matrix), q)
    if b.ndim != 2 or b.shape[0] != params.w or b.shape[1] % n or not b.shape[1]:
        raise ValueError(f"expected B of shape {(params.w, n)}, or k of them side by side")
    y = np.mod(matmul_mod(trap.R, b[:wb], q) + b[wb:], q)
    # row i*d + j of y is digit j of secret row i: one block per (i, col)
    s, clean = _decode_digit_blocks(y.reshape(n, d, -1).transpose(0, 2, 1), q, d)
    e = centered(np.mod(b - matmul_mod(trap.A, s, q), q), q)
    if check:
        bound = params.inversion_bound
        worst = int(np.abs(e).max())
        if not clean or worst > bound:
            raise InversionError(f"residual {worst} exceeds bound {bound}")
    return s, np.asarray(e, dtype=np.int64)


def _preimage_sigma_z(params: LweParams) -> float:
    """Coset width making the pooled preimage entry deviation track sigma."""
    n, d, w, wb = params.n, params.d, params.w, params.w_bar
    pooled = params.sigma * math.sqrt(w / (n * d * (wb * params.n + 1)))
    return max(2.2, pooled)


def sample_preimage_batch(traps: list[TrapdoorMatrix], targets_list: list[np.ndarray],
                          rng: np.random.Generator) -> list[np.ndarray]:
    """Preimage matrices for several trapdoors sharing one parameter set.

    The coset walk depends only on (q, d) and the syndromes, so all
    requests run through one wide Klein pass; only the final map through
    [R | I]^T and the norm cap are per trapdoor.
    """
    if len(traps) != len(targets_list):
        raise ValueError("one target matrix per trapdoor")
    if not traps:
        return []
    params = traps[0].params
    if any(t.params is not params and t.params != params for t in traps):
        raise ValueError("trapdoors must share parameters")
    n, q, d = params.n, params.q, params.d
    sigma_z = _preimage_sigma_z(params)
    cap = params.encoding_cap

    targets_list = [np.mod(np.asarray(t, dtype=np.int64), q) for t in targets_list]
    if any(t.ndim != 2 or t.shape[1] != n for t in targets_list):
        raise ValueError(f"targets must be matrices with {n} columns")
    flat = np.concatenate([t.reshape(-1) for t in targets_list])
    z_all = sample_gadget_cosets(rng, q, d, sigma_z, flat)

    outs = []
    offset = 0
    for trap, targets in zip(traps, targets_list):
        k = targets.shape[0]
        z = z_all[offset: offset + k * n].reshape(k, n * d)
        offset += k * n
        out = np.concatenate([exact_matmul(z, trap.R), z], axis=1)
        todo = np.flatnonzero(np.abs(out).max(axis=1) >= cap)
        for _ in range(PREIMAGE_RESAMPLES):
            if todo.size == 0:
                break
            z_new = sample_gadget_cosets(rng, q, d, sigma_z, targets[todo].reshape(-1))
            z_new = z_new.reshape(len(todo), n * d)
            cand = np.concatenate([exact_matmul(z_new, trap.R), z_new], axis=1)
            good = np.abs(cand).max(axis=1) < cap
            out[todo[good]] = cand[good]
            todo = todo[~good]
        if todo.size:
            raise RuntimeError("preimage resampling cap exceeded")
        residual = np.mod(matmul_mod(out, trap.A, q) - targets, q)
        if residual.any():
            raise RuntimeError("preimage congruence violated")
        outs.append(out)
    return outs


# ---------------------------------------------------------------------------
# PRIM-LWE secrets


def det_count_formulas(p: int, n: int) -> tuple[int, int]:
    """(#matrices with det 0, #matrices per fixed nonzero det) over Z_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    gl = math.prod(p**n - p**k for k in range(n))
    return p ** (n * n) - gl, p ** (n - 1) * math.prod(p**n - p**k for k in range(n - 1))


def f_p_fraction(p: int, n: int) -> Fraction:
    """Fraction of matrices over Z_p with any fixed nonzero determinant value."""
    return Fraction(math.prod(p**k - 1 for k in range(2, n + 1)),
                    p ** (n * (n + 1) // 2))


def prim_acceptance_fraction(p: int, n: int) -> Fraction:
    """Fraction of n x n matrices over Z_p whose determinant generates Z_p^*."""
    return euler_phi(p - 1) * f_p_fraction(p, n)


def batch_det_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a batch of small integer matrices (exact)."""
    mats = np.asarray(mats)
    n = mats.shape[-1]
    bound = math.factorial(n) * (p - 1) ** n
    if bound < 2**52:
        raw = np.linalg.det(mats.astype(np.float64))
        dets = np.rint(raw)
        if float(np.abs(raw - dets).max(initial=0.0)) > 0.25:
            raise RuntimeError("float determinant drifted; widen the exact path")
        return np.mod(dets.astype(np.int64), p)
    return np.array([det_int(m) % p for m in mats], dtype=np.int64)


def sample_prim_secret(n: int, p: int, rng: np.random.Generator,
                       det_value: int | None = None) -> np.ndarray:
    """Rejection-sample a uniform n x n matrix S over [0, p) whose determinant
    generates Z_p^*.

    With ``det_value`` the determinant is additionally pinned to that
    residue (used by the dealer, where det(S) must equal the secret).
    batch_det_mod computes every determinant exactly, so S needs no
    second check.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if det_value is not None and not is_primitive_root(det_value, p):
        raise ValueError("requested determinant is not a generator")
    wanted = [det_value] if det_value is not None else \
        [k for k in range(1, p) if is_primitive_root(k, p)]
    batch = 256
    for _ in range(PRIM_TRIES // batch):
        mats = rng.integers(0, p, size=(batch, n, n), dtype=np.int64)
        hits = np.flatnonzero(np.isin(batch_det_mod(mats, p), wanted))
        if hits.size:
            return mats[hits[0]]
    raise RuntimeError("rejection sampling exhausted its retry budget")


def matrix_power_mod(s: np.ndarray, e: int, p: int) -> np.ndarray:
    """S^e mod p by square and multiply."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    acc = np.eye(s.shape[0], dtype=np.int64)
    base = np.mod(np.asarray(s, dtype=np.int64), p)
    while e:
        if e & 1:
            acc = matmul_mod(acc, base, p).astype(np.int64)
        base = matmul_mod(base, base, p).astype(np.int64)
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# modulus switching


def modswitch_window_ok(p: int, q: int, q_prime: int) -> bool:
    """(2p-1)/2p < q/q' < 2p/(2p+1), checked in exact integers."""
    return (2 * p - 1) * q_prime < 2 * p * q and q * (2 * p + 1) < 2 * p * q_prime


def _round_ratio(a: np.ndarray, num: int, den: int) -> np.ndarray:
    """round(a * num / den) entrywise, half away from zero, exact integers."""
    a = np.asarray(a, dtype=object)
    sign = np.where(a < 0, -1, 1)
    mag = np.abs(a)
    return (sign * ((2 * mag * num + den) // (2 * den))).astype(object)


def modswitch_roundtrip(a: np.ndarray, q: int, q_prime: int, p: int) -> bool:
    """True iff rounding a through q'/q and back through q/q' fixes a entrywise.

    The window for p must hold, else ValueError; under it, matrices with
    entries strictly below p in magnitude may be read in both Z_q and
    Z_q' interchangeably.
    """
    if not modswitch_window_ok(p, q, q_prime):
        raise ValueError("q/q' violates the switching window for this p")
    a = np.asarray(a, dtype=object)
    up = _round_ratio(a, q_prime, q)
    down = _round_ratio(a, q, q_prime)
    return bool((up == a).all() and (down == a).all())


def find_modswitch_pair(p: int) -> tuple[int, int]:
    """Smallest compliant (q, q') = (p*c, p*c') with c' >= 1000."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    c_prime = 1000
    while True:
        low = (c_prime * (2 * p - 1)) // (2 * p) + 1
        high = -(-c_prime * 2 * p // (2 * p + 1)) - 1
        for c in range(low, high + 1):
            if c % p and c_prime % p and modswitch_window_ok(p, p * c, p * c_prime):
                return p * c, p * c_prime
        c_prime += 1
