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

Preimage sampling inverts the syndrome map d^T A = u^T by sampling one
digit-lattice coset vector per secret coordinate with a randomized
nearest-plane (Klein) walk over the standard gadget basis, then mapping
through [R | I]^T.  Rejection against the norm caps keeps
||d||_inf < sigma*sqrt(lambda) as the dealer requires.

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

from .numt import factorize, is_prime, is_primitive_root

PREIMAGE_RESAMPLES = 64          # preimage retries against the norm cap
PRIM_TRIES = 200_000             # rejection budget for secret sampling


class InversionError(ValueError):
    """LWE inversion found a residual above the decoding bound."""


def centered(x, q: int):
    """Representatives in (-q/2, q/2]."""
    arr = np.asarray(x)
    c = np.mod(arr, q)
    return np.where(c > q // 2, c - q, c)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, switching to exact object arithmetic when int64 could wrap."""
    a = np.asarray(a)
    b = np.asarray(b)
    inner = a.shape[-1]
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * inner
    if bound < 2**62:
        return np.mod(a.astype(np.int64) @ b.astype(np.int64), q)
    prod = a.astype(object) @ b.astype(object)
    return np.mod(prod, q).astype(object)


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
    q = (1 << bits) // p * p
    while q // p % p == 0:
        q -= p
    return q


@dataclass(frozen=True)
class LweParams:
    """Dimensions, moduli and width parameters for one trapdoor profile."""

    n: int
    p: int
    q: int
    lam: int = 512
    c_bound: float = 4.0             # inversion residual bound is q / (c_bound * p * d)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.q % self.p != 0 or (self.q // self.p) % self.p == 0:
            raise ValueError("need q = p*c with p not dividing c")
        if self.q >= 1 << 62:
            raise ValueError("q must be below 2**62 to keep chain products in int64")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.c_bound > 0:
            raise ValueError("c_bound must be positive")

    @property
    def d(self) -> int:
        return max(1, math.ceil(math.log2(self.q)))

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
        return self.s * math.sqrt(self.lam)

    @property
    def encoding_cap(self) -> float:
        return self.sigma * math.sqrt(self.lam)

    @property
    def inversion_bound(self) -> int:
        return max(1, int(self.q / (self.c_bound * self.p * self.d)))


# ---------------------------------------------------------------------------
# discrete Gaussians


def sample_dgauss(rng: np.random.Generator, sigma: float, size) -> np.ndarray:
    """Centered discrete Gaussian over Z by rejection from a geometric tail.

    Proposal: sign * geometric magnitude with P(k) proportional to
    exp(-k/sigma); acceptance exp(-(|k|-sigma)^2 / (2 sigma^2)) thins it
    to the exact exp(-k^2 / (2 sigma^2)) weights.
    """
    if sigma <= 0.5:
        raise ValueError("sigma too small")
    total = int(np.prod(size)) if not np.isscalar(size) else int(size)
    out = np.empty(total, dtype=np.int64)
    filled = 0
    p_geom = 1.0 - math.exp(-1.0 / sigma)
    while filled < total:
        batch = max(64, int(1.5 * (total - filled)))
        mag = rng.geometric(p_geom, size=batch) - 1
        sign = rng.integers(0, 2, size=batch) * 2 - 1
        dup_zero = (mag == 0) & (sign == -1)
        accept = (~dup_zero) & (rng.random(batch) <
                                np.exp(-((mag - sigma) ** 2) / (2 * sigma * sigma)))
        take = (sign * mag)[accept][: total - filled]
        out[filled: filled + len(take)] = take
        filled += len(take)
    return out.reshape(size)


def sample_dgauss_centered(rng: np.random.Generator, sigma: float,
                           centers: np.ndarray) -> np.ndarray:
    """Discrete Gaussians over Z with per-entry real centers, same width."""
    if sigma <= 0.5:
        raise ValueError("sigma too small")
    centers = np.asarray(centers, dtype=np.float64)
    flat = centers.ravel()
    out = np.zeros(flat.shape, dtype=np.int64)
    todo = np.arange(flat.size)
    rounded = np.floor(flat + 0.5)
    p_geom = 1.0 - math.exp(-1.0 / sigma)
    log_m = 0.5 + 1.0 / (2 * sigma)
    while todo.size:
        k = todo.size
        mag = rng.geometric(p_geom, size=k) - 1
        sign = rng.integers(0, 2, size=k) * 2 - 1
        u = sign * mag
        x = rounded[todo] + u
        log_ratio = -((x - flat[todo]) ** 2) / (2 * sigma * sigma) \
            + np.abs(u) / sigma - log_m
        accept = rng.random(k) < np.exp(log_ratio)
        hit = todo[accept]
        out[hit] = x[accept].astype(np.int64)
        todo = todo[~accept]
    return out.reshape(centers.shape)


# ---------------------------------------------------------------------------
# gadget lattice


@functools.lru_cache(maxsize=8)
def _gadget_basis(q: int, d: int):
    """Standard basis of {z in Z^d : <z, (1,2,...,2^(d-1))> = 0 mod q} plus its GSO."""
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
    return basis, gso, norms2


def gadget_powers(d: int) -> np.ndarray:
    return np.int64(1) << np.arange(d, dtype=np.int64)


def sample_gadget_cosets(rng: np.random.Generator, q: int, d: int, sigma_z: float,
                         targets: np.ndarray) -> np.ndarray:
    """Klein sampling of z with <z, g> = target mod q, one row per target.

    Starts from the binary decomposition of each target (an exact coset
    representative) and walks the gadget basis planes with randomized
    rounding, yielding short coset vectors of per-entry width ~ sigma_z.
    """
    basis, gso, norms2 = _gadget_basis(q, d)
    targets = np.asarray(targets, dtype=np.int64) % q
    k = targets.shape[0]
    u0 = ((targets[:, None] >> np.arange(d, dtype=np.int64)) & 1).astype(np.float64)
    remaining = -u0
    coeff = np.zeros((k, d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        c = remaining @ gso[:, i] / norms2[i]
        coeff[:, i] = sample_dgauss_centered(rng, sigma_z / math.sqrt(norms2[i]), c)
        remaining -= coeff[:, i: i + 1] * basis[:, i].astype(np.float64)
    z = u0.astype(np.int64) + coeff @ basis.T
    check = (z @ gadget_powers(d)) % q
    if not (check == targets).all():
        raise RuntimeError("coset sampling lost the syndrome")
    return z


# ---------------------------------------------------------------------------
# trapdoors


@dataclass
class TrapdoorMatrix:
    params: LweParams
    A: np.ndarray          # (w, n) mod q
    R: np.ndarray          # (n*d, w_bar), small

    def gadget_block(self) -> np.ndarray:
        n, d = self.params.n, self.params.d
        g = np.zeros((n * d, n), dtype=np.int64)
        for i in range(n):
            g[i * d: (i + 1) * d, i] = gadget_powers(d)
        return g

    def relation_residual(self) -> np.ndarray:
        """([R | I] A - G) mod q; all zero for a well-formed trapdoor."""
        q = self.params.q
        wb = self.params.w_bar
        left = matmul_mod(self.R, self.A[:wb], q)
        combined = np.mod(left + self.A[wb:], q)
        return np.mod(combined - self.gadget_block(), q)


def trapdoor_gen(params: LweParams,
                 rng: np.random.Generator | None = None) -> TrapdoorMatrix:
    """Sample A with a planted gadget trapdoor; the top block is uniform."""
    if rng is None:
        rng = np.random.default_rng()
    n, q, d = params.n, params.q, params.d
    a_bar = rng.integers(0, q, size=(params.w_bar, n), dtype=np.int64)
    r = sample_dgauss(rng, params.s, (n * d, params.w_bar))
    trap = TrapdoorMatrix(params, np.zeros((params.w, n), dtype=np.int64), r)
    lower = np.mod(trap.gadget_block() - matmul_mod(r, a_bar, q), q)
    trap.A = np.concatenate([a_bar, lower]).astype(np.int64)
    if trap.relation_residual().any():
        raise RuntimeError("gadget relation failed to hold")
    return trap


def _decode_digit_block(block: list[int], q: int, d: int) -> tuple[int, bool]:
    """Recover v from b_j = 2^j v + e_j mod q; exact while max |e_j| < q/6."""
    half = q // 2

    def lift(x):
        x %= q
        return x - q if x > half else x

    gamma = 0
    for j in range(d - 1):
        gamma = 2 * gamma + lift(block[j + 1] - 2 * block[j])
    e0 = -(gamma / float(2 ** (d - 1)))
    e0 = int(math.floor(e0 + 0.5))
    v = (block[0] - e0) % q
    ok = all(abs(lift(block[j] - (v << j))) <= q // 4 for j in range(d))
    return v, ok


def lwe_invert(trap: TrapdoorMatrix, b_matrix: np.ndarray, check: bool = True):
    """Recover (S, E) from B = A S + E.

    With ``check`` the implied error must stay within the params' declared
    inversion bound, else InversionError; without it the nearest decode is
    returned regardless (used by post-hoc share verification, where an
    implausible residual is itself the evidence being scored).
    """
    params = trap.params
    n, q, d, wb = params.n, params.q, params.d, params.w_bar
    b = np.mod(np.asarray(b_matrix), q)
    if b.shape != (params.w, n):
        raise ValueError(f"expected B of shape {(params.w, n)}")
    y = np.mod(matmul_mod(trap.R, b[:wb], q) + b[wb:], q)

    s = np.zeros((n, n), dtype=np.int64)
    clean = True
    for i in range(n):
        for col in range(n):
            block = [int(y[i * d + j, col]) for j in range(d)]
            s[i, col], ok = _decode_digit_block(block, q, d)
            clean = clean and ok
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
        out = np.concatenate([z @ trap.R.astype(np.int64), z], axis=1)
        todo = np.flatnonzero(np.abs(out).max(axis=1) >= cap)
        for _ in range(PREIMAGE_RESAMPLES):
            if todo.size == 0:
                break
            z_new = sample_gadget_cosets(rng, q, d, sigma_z, targets[todo].reshape(-1))
            z_new = z_new.reshape(len(todo), n * d)
            cand = np.concatenate([z_new @ trap.R.astype(np.int64), z_new], axis=1)
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
    phi = math.prod((f - 1) * f ** (e - 1) for f, e in factorize(p - 1))
    return phi * f_p_fraction(p, n)


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


@dataclass(frozen=True)
class PrimSecret:
    S: np.ndarray
    p: int
    k: int

    def __post_init__(self):
        if int(np.abs(self.S).max()) >= self.p:
            raise ValueError("secret entries must stay below p")
        if det_int(self.S) % self.p != self.k:
            raise ValueError("determinant does not match k")
        if not is_primitive_root(self.k, self.p):
            raise ValueError("k must generate Z_p^*")


def sample_prim_secret(n: int, p: int, rng: np.random.Generator,
                       det_value: int | None = None) -> PrimSecret:
    """Rejection-sample a uniform matrix whose determinant generates Z_p^*.

    With ``det_value`` the determinant is additionally pinned to that
    residue (used by the dealer, where det(S) must equal the secret).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if det_value is not None and not is_primitive_root(det_value, p):
        raise ValueError("requested determinant is not a generator")
    roots = {k for k in range(1, p) if is_primitive_root(k, p)}
    batch = 256
    for _ in range(PRIM_TRIES // batch):
        mats = rng.integers(0, p, size=(batch, n, n), dtype=np.int64)
        dets = batch_det_mod(mats, p)
        for i in range(batch):
            k = int(dets[i])
            if det_value is not None:
                if k == det_value:
                    return PrimSecret(mats[i], p, k)
            elif k in roots:
                return PrimSecret(mats[i], p, k)
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


def find_modswitch_pair(p: int, start: int = 1000) -> tuple[int, int]:
    """Smallest compliant (q, q') = (p*c, p*c') with c' >= start."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    c_prime = start
    while True:
        low = (c_prime * (2 * p - 1)) // (2 * p) + 1
        high = -(-c_prime * 2 * p // (2 * p + 1)) - 1
        for c in range(low, high + 1):
            if c % p and c_prime % p and modswitch_window_ok(p, p * c, p * c_prime):
                return p * c, p * c_prime
        c_prime += 1
