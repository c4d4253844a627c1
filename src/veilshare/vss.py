"""Dealer, reconstruction and post-hoc share verification.

One chain is dealt per minimal authorized subset Omega.  The dealer
samples a secret matrix S with det(S) = k (a generator of Z_p^*), puts
the members of Omega in a random order along a chain of trapdoor
matrices A_1 .. A_{|Omega|+1}, and links consecutive matrices with
small encodings

    D_i A_i = A_{i+1} S^{e_i} + E_i   (mod q),

where the exponents e_i sum to 0 mod (p-1) before one randomly chosen
member's exponent is raised by one.  Multiplying the encodings along the
chain telescopes to a single LWE instance of A_term S^{sum+1}, so any
coalition holding every link recovers M = prod S^{e_i} exactly and reads
the secret off as det(M) = k^{c(p-1)+1} = k mod p.

Hidden membership and the keys to the terminal trapdoor both ride on
access-structure tokens: every authorized coalition, and only those,
intersects its tokens to one fixed identifier set gamma(H).  The header
carrying the chain order, the exponents and the terminal trapdoor is
encrypted under a key derived from gamma(H) and K2, the XOR of the Omega
members' key shares; every party holds one uniform key share per
instance, so no coalition without all of Omega holds K2, and a coalition
that has them finds K2 among the XORs of its shares' subsets.  The
header carries the terminal trapdoor as R and the uniform top block
A_bar (w_bar x n) of A_term; the reader rebuilds A_term = [A_bar;
G - R A_bar mod q] with lattice.planted_trapdoor, which trapdoor_gen
builds every trapdoor with.  Parties outside the chain receive decoy
matrices and encodings drawn from the same marginal distributions, and
serialize_bundles pads every serialized bundle to one byte length.  A
share writes its A at a fixed width and its encoding D Rice coded
(serial.rice_doc), since D's entries are small and mostly near zero.

Verification is communication free and runs after reconstruction: for
each chain position j the suffix product D_last ... D_j A_j is inverted
with the terminal trapdoor and det must step by k^{e_j} from the suffix
above it.  One walk down the chain builds every suffix product side by
side.  _read_chains token-tests, opens and walks a coalition's chains one
at a time; reconstruct reads until one opens (_open_chain decodes the
first suffix), verify_shares reads them all, and the simulator reads
each trial once for both.  The dealer walks each chain it builds and
redraws the chain's errors and encodings until _open_chain opens it, at
most CHAIN_DRAWS times before deal refuses, so no dealing goes out that
its coalition cannot open.
A forged encoding survives one such check only if its decode happens to
land on the right determinant residue, roughly a 1/(p-1) fluke per
check.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import serial
from .lattice import (
    InversionError,
    LweParams,
    TrapdoorMatrix,
    det_int,
    find_q,
    lwe_invert,
    matmul_mod,
    matrix_power_mod,
    planted_trapdoor,
    sample_dgauss_centered,
    sample_preimage_batch,
    sample_prim_secret,
    trapdoor_gen,
)
from .numt import is_primitive_root
from .rng import named_stream
from .tokens import (
    DEFAULT_L,
    DEFAULT_M,
    DEFAULT_N,
    check_party_count,
    combine_tokens,
    encode_access_structure,
    membership_test,
    read_token,
)


class VssError(Exception):
    pass


class UnauthorizedError(VssError):
    """The coalition's tokens do not certify any dealt access structure."""


class ShareCorruptionError(VssError):
    """An authorized coalition's encodings failed to invert within bounds."""


class HeaderUnavailableError(VssError):
    """Verification requested before any instance header could be opened."""


@dataclass(frozen=True)
class Secret:
    k: int
    p: int

    def __post_init__(self):
        if not is_primitive_root(self.k, self.p):
            raise ValueError(f"{self.k} does not generate Z_{self.p}^*")


@dataclass(frozen=True)
class VssParams:
    """A lattice profile; every dealing uses the one default token system."""

    lwe: LweParams
    token_m: ClassVar[int] = DEFAULT_M
    token_m_prime: ClassVar[int] = DEFAULT_M   # equals token_m; read only by perfbench/run.py
    token_n: ClassVar[int] = DEFAULT_N
    token_l: ClassVar[int] = DEFAULT_L

    @classmethod
    def desk(cls, p: int = 31, q_bits: int = 30, n: int = 4) -> "VssParams":
        return cls(LweParams(n=n, p=p, q=find_q(p, q_bits)))

    def to_doc(self) -> dict:
        return {"n": self.lwe.n, "p": self.lwe.p, "q": self.lwe.q}

    @classmethod
    def from_doc(cls, doc: dict) -> "VssParams":
        fields = ("n", "p", "q")
        serial.read_fields(doc, "params", fields)
        return cls(LweParams(*(serial.read_int(doc[f], f"params {f}") for f in fields)))


KEY_SHARE_BYTES = 32
CHAIN_DRAWS = 4          # draws of a chain's errors and encodings before deal refuses it


@dataclass
class InstanceShare:
    instance_id: str
    token: frozenset[int]      # permuted element ids
    a_matrix: np.ndarray       # (w, n): chain matrix or decoy
    d_matrix: np.ndarray       # (w, w): encoding or decoy
    header_ct: bytes
    key_share: bytes           # uniform; K2 is the XOR of Omega's shares

    def to_doc(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "token": sorted(self.token),
            "a": serial.matrix_doc(self.a_matrix),
            "d": serial.rice_doc(self.d_matrix),
            "header_ct": serial.to_b64(self.header_ct),
            "key_share": serial.to_b64(self.key_share),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "InstanceShare":
        serial.read_fields(doc, "instance share",
                           ("instance_id", "token", "a", "d", "header_ct", "key_share"))
        token, instance_id = read_token(doc["token"]), doc["instance_id"]
        if not isinstance(instance_id, str):
            raise serial.SerializationError("instance_id must be a string")
        key_share = serial.from_b64(doc["key_share"])
        if len(key_share) != KEY_SHARE_BYTES:
            raise serial.SerializationError(f"key_share must be {KEY_SHARE_BYTES} bytes")
        return cls(instance_id=instance_id, token=token,
                   a_matrix=serial.doc_matrix(doc["a"]),
                   d_matrix=serial.doc_rice(doc["d"]),
                   header_ct=serial.from_b64(doc["header_ct"]), key_share=key_share)


@dataclass
class ShareBundle:
    party: int
    params: VssParams
    instances: list[InstanceShare]

    def instance(self, instance_id: str) -> InstanceShare:
        for inst in self.instances:
            if inst.instance_id == instance_id:
                return inst
        raise KeyError(instance_id)

    def to_doc(self) -> dict:
        return {
            "party": self.party,
            "params": self.params.to_doc(),
            "instances": [i.to_doc() for i in self.instances],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShareBundle":
        """Parse a bundle that serializes back to the same bytes.

        The pad that serialize_bundles writes is optional and all spaces.
        """
        serial.read_fields(doc, "share bundle", ("party", "params", "instances"),
                           optional=("pad",))
        pad, party = doc.get("pad", ""), serial.read_int(doc["party"], "party", 1)
        if not isinstance(pad, str) or pad.strip(" "):
            raise serial.SerializationError("pad must be a string of spaces")
        if not isinstance(doc["instances"], list):
            raise serial.SerializationError("instances must be a list")
        try:
            params = VssParams.from_doc(doc["params"])
        except serial.SerializationError:
            raise
        except ValueError as exc:               # LweParams refusing a value
            raise serial.SerializationError(f"malformed share bundle: {exc}") from exc
        return cls(party=party, params=params,
                   instances=[InstanceShare.from_doc(d) for d in doc["instances"]])


# ---------------------------------------------------------------------------
# header encryption: hash KDF, xor keystream, MAC; deterministic per key/nonce


def header_keys(element_ids, key_parts):
    """SHA-256(domain | K2 | gamma(H)) for each candidate K2 in key_parts, lazily."""
    ids = ",".join(str(i) for i in sorted(element_ids)).encode()
    for part in key_parts:
        yield hashlib.sha256(b"veilshare.header.v4|" + part + ids).digest()


def _subset_xors(key_shares: list[bytes]):
    """XOR of each nonempty subset of key_shares: step i flips the share at i's lowest set bit."""
    values = [int.from_bytes(share, "big") for share in key_shares]
    acc = 0
    for i in range(1, 1 << len(values)):
        acc ^= values[(i & -i).bit_length() - 1]
        yield acc.to_bytes(KEY_SHARE_BYTES, "big")


def _xor_keystream(key: bytes, nonce: str, data: bytes) -> bytes:
    stream = hashlib.shake_256(b"enc|" + key + nonce.encode()).digest(len(data))
    return (int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")).to_bytes(
        len(data), "little")


def _ct_digest(nonce: str, ct: bytes) -> bytes:
    return hashlib.sha256(nonce.encode() + b"|" + ct).digest()


def seal_header(key: bytes, nonce: str, plaintext: bytes) -> bytes:
    ct = _xor_keystream(key, nonce, plaintext)
    return ct + hmac.digest(key, _ct_digest(nonce, ct), "sha256")


def open_header(candidate_keys, nonce: str, sealed: bytes) -> bytes:
    """Decrypt under the first candidate key whose MAC verifies.

    nonce | ct is hashed once, so each candidate costs one HMAC over a
    32-byte digest.
    """
    if len(sealed) < 32:
        raise VssError("header too short")
    ct, tag = sealed[:-32], sealed[-32:]
    digest = _ct_digest(nonce, ct)
    for key in candidate_keys:
        if hmac.compare_digest(tag, hmac.digest(key, digest, "sha256")):
            return _xor_keystream(key, nonce, ct)
    raise VssError("header authentication failed")


# ---------------------------------------------------------------------------
# dealing


def _draw_exponents(rng: np.random.Generator, count: int, p: int) -> list[int]:
    """count exponents in [1, p-2] summing to 0 mod p-1, then one raised by 1."""
    if count == 1:
        exps = [p - 1]
    else:
        while True:
            exps = [int(rng.integers(1, p - 1)) for _ in range(count - 1)]
            last = (-sum(exps)) % (p - 1)
            if 1 <= last <= p - 2:
                exps.append(last)
                break
    exps[int(rng.integers(0, count))] += 1
    return exps


def _sample_error(rng: np.random.Generator, params: LweParams, shape) -> np.ndarray:
    for _ in range(64):
        e = sample_dgauss_centered(rng, params.s, np.zeros(shape))
        if int(np.abs(e).max()) < params.error_cap:
            return e
    raise VssError("error sampling cap exceeded")


def _validate_gamma0(gamma0, parties: int) -> list[tuple[int, ...]]:
    cleaned = []
    for omega in gamma0:
        o = tuple(sorted(set(int(v) for v in omega)))
        if not o or o[0] < 1 or o[-1] > parties:
            raise VssError("each minimal subset must be a nonempty subset of 1..parties")
        cleaned.append(o)
    if not cleaned:
        raise VssError("need at least one minimal authorized subset")
    for a in cleaned:
        for b in cleaned:
            if a is not b and set(a) <= set(b):
                raise VssError(f"{b} is not minimal: it contains {a}")
    return cleaned


def deal(secret: Secret, gamma0, parties: int, params: VssParams,
         seed: int) -> list[ShareBundle]:
    """Produce one ShareBundle per party for cl(gamma0)."""
    if secret.p != params.lwe.p:
        raise VssError("secret prime does not match the parameter prime")
    check_party_count(parties)      # before anything is built per party
    gamma0 = _validate_gamma0(gamma0, parties)
    lwe = params.lwe
    p, q, n = lwe.p, lwe.q, lwe.n

    per_party: dict[int, list[InstanceShare]] = {i: [] for i in range(1, parties + 1)}
    for idx, omega in enumerate(gamma0):
        tag_rng = named_stream(seed, "vss", "tag", idx)
        tag = bytes(tag_rng.integers(0, 256, size=6, dtype=np.uint8)).hex()
        inst_id = f"chain-{idx:03d}-{tag}"
        rng = named_stream(seed, "vss", inst_id)
        instance = encode_access_structure(parties, omega, rng, instance_id=inst_id)

        order = [int(v) for v in rng.permutation(np.array(omega))]
        exps = _draw_exponents(rng, len(order), p)
        s_mat = sample_prim_secret(n, p, rng, det_value=secret.k)
        s_pows = [matrix_power_mod(s_mat, e, p) for e in exps]

        chain = [trapdoor_gen(lwe, rng=rng) for _ in range(len(order) + 1)]
        outsiders = [party for party in range(1, parties + 1) if party not in omega]
        decoys = {party: trapdoor_gen(lwe, rng=rng) for party in outsiders}

        # the decode an authorized coalition will run, done once here: a
        # chain whose error outgrows the bound is redrawn, then refused
        for _ in range(CHAIN_DRAWS):
            link_targets = []
            for pos in range(len(order)):
                e_mat = _sample_error(rng, lwe, (lwe.w, n))
                link_targets.append(np.asarray(
                    np.mod(matmul_mod(chain[pos + 1].A, s_pows[pos], q) + e_mat, q),
                    dtype=np.int64))
            decoy_targets = {party: rng.integers(0, q, size=(lwe.w, n), dtype=np.int64)
                             for party in outsiders}
            encodings = sample_preimage_batch(
                chain[:-1] + [decoys[p] for p in outsiders],
                link_targets + [decoy_targets[p] for p in outsiders], rng)
            d_mats = encodings[: len(order)]
            walk = _chain_walk([(t.A, d) for t, d in zip(chain, d_mats)], chain[-1])
            try:
                _open_chain(chain[-1], walk)
                break
            except InversionError as exc:
                failure = str(exc)      # not exc: its traceback would pin this frame
        else:
            raise VssError(
                f"a chain of {len(order)} cannot be opened after {CHAIN_DRAWS} draws: "
                f"{failure}; raise --q-bits")
        decoy_d = dict(zip(outsiders, encodings[len(order):]))

        header_payload = {
            "order": order,
            "exponents": exps,
            "a_bar": serial.matrix_doc(chain[-1].A[: lwe.w_bar]),
            "r_term": serial.matrix_doc(chain[-1].R),
        }
        header_bytes = serial.serialize("reconstruction", header_payload)
        # row i - 1 is party i's key share; decoys and members draw alike
        key_shares = named_stream(seed, "vss", "key", inst_id).integers(
            0, 256, size=(parties, KEY_SHARE_BYTES), dtype=np.uint8)
        k2 = np.bitwise_xor.reduce(key_shares[[party - 1 for party in omega]]).tobytes()
        [key] = header_keys(instance.authorized_element_ids(), [k2])
        sealed = seal_header(key, inst_id, header_bytes)

        for party in range(1, parties + 1):
            token = instance.token_for(party)
            if party in omega:
                pos = order.index(party)
                a_mat, d_mat = chain[pos].A, d_mats[pos]
            else:
                a_mat, d_mat = decoys[party].A, decoy_d[party]
            per_party[party].append(InstanceShare(
                inst_id, token, a_mat, d_mat, sealed, key_shares[party - 1].tobytes()))

    return [ShareBundle(party, params, per_party[party])
            for party in range(1, parties + 1)]


def serialize_bundles(bundles: list[ShareBundle]) -> list[bytes]:
    """Canonical bytes of each bundle, padded so all siblings share one length."""
    return serial.equalize_lengths([b.to_doc() for b in bundles], "share-bundle")


# ---------------------------------------------------------------------------
# reconstruction


def _check_header(header) -> None:
    """Refuse an opened header unless it holds exactly the fields deal writes.

    Any authorized coalition holds the header key, so it can seal anything;
    the header is input like a share file, not trusted dealer output.
    """
    serial.read_fields(header, "header", ("order", "exponents", "a_bar", "r_term"))
    order = serial.read_ints(header["order"], "header order")
    if not order or len(set(order)) != len(order):
        raise serial.SerializationError("header order must be nonempty and distinct")
    if len(serial.read_ints(header["exponents"], "header exponents")) != len(order):
        raise serial.SerializationError("header exponents must be one per chain member")


def _read_chains(bundles: list[ShareBundle]):
    """Token-test every dealt instance; open and walk each certified one.

    K2 is tried as the XOR of each nonempty subset of the c parties' key
    shares: at most 2^c - 1 header keys.

    Yields (order, exponents, terminal trapdoor, _chain_walk of the links)
    for every instance whose tokens certify the coalition, one at a time as
    asked, or None when the header fails to authenticate or its chain order
    names a party outside the coalition.  Bundles must come from one dealing
    and name distinct parties.  A header that opens but does not hold
    exactly the fields deal writes raises SerializationError (_check_header).
    """
    if len({b.party for b in bundles}) != len(bundles):
        raise VssError("two shares name the same party")
    per_bundle = [sorted(i.instance_id for i in b.instances) for b in bundles]
    if any(ids != per_bundle[0] for ids in per_bundle[1:]):
        raise VssError("bundles disagree on instances: not from one dealing")
    params = bundles[0].params
    if any(b.params != params for b in bundles[1:]):
        raise VssError("bundles disagree on parameters: not from one dealing")
    for instance_id in per_bundle[0]:
        shares = {b.party: b.instance(instance_id) for b in bundles}
        combined = combine_tokens([s.token for s in shares.values()])
        if not membership_test(combined):
            continue
        keys = header_keys(combined, _subset_xors([s.key_share for s in shares.values()]))
        try:
            header_bytes = open_header(keys, instance_id, shares[bundles[0].party].header_ct)
            header = serial.deserialize(header_bytes, "reconstruction")
        except (VssError, serial.SerializationError):
            yield None
            continue
        _check_header(header)
        order = header["order"]
        if not set(order) <= shares.keys():
            yield None
            continue
        trap = planted_trapdoor(params.lwe, serial.doc_matrix(header["a_bar"]),
                                serial.doc_matrix(header["r_term"]))
        links = [(shares[p].a_matrix, shares[p].d_matrix) for p in order]
        yield order, header["exponents"], trap, _chain_walk(links, trap)


def _chain_walk(links, trap: TrapdoorMatrix) -> np.ndarray:
    """[D_last ... D_0 A_0 | D_last ... D_1 A_1 | ... | D_last A_last] mod q.

    links holds each member's (A, D) in chain order.  Each appends its A as
    new columns, then the whole stack is multiplied by its D once, so column
    block j ends up holding the suffix product from position j on.  The
    dealer and every reader walk through here.
    """
    lwe = trap.params
    stack = np.zeros((lwe.w, 0), dtype=np.int64)
    for a_mat, d_mat in links:
        if a_mat.shape != (lwe.w, lwe.n):
            raise ValueError(f"expected A of shape {(lwe.w, lwe.n)}")
        stack = np.concatenate([stack, a_mat % lwe.q], axis=1)
        stack = np.asarray(matmul_mod(d_mat, stack, lwe.q), dtype=np.int64)
    return stack


def _open_chain(trap: TrapdoorMatrix, walk: np.ndarray) -> np.ndarray:
    """M decoded from block 0 of a walk; InversionError means the chain does not open."""
    m_mat, _ = lwe_invert(trap, walk[:, : trap.params.n], check=True)
    return m_mat


def _secret_of(chains) -> Secret:
    """reconstruct's answer from _read_chains; stops at the first chain that opens."""
    corruption: object = None
    certified = False
    for chain in chains:
        certified = True
        if chain is None:
            corruption = "header failed to open for this coalition"
            continue
        _, _, trap, walk = chain
        try:
            m_mat = _open_chain(trap, walk)
        except InversionError as exc:
            corruption = exc
            continue
        try:
            return Secret(det_int(m_mat) % trap.params.p, trap.params.p)
        except ValueError as exc:
            # a clean inversion must telescope to a generator; anything else
            # means the dealing itself was inconsistent
            corruption = exc
    if certified:
        raise ShareCorruptionError(f"authorized but inversion failed: {corruption}")
    raise UnauthorizedError("coalition tokens certify no dealt access structure")


def reconstruct(bundles: list[ShareBundle]) -> Secret:
    """Recover the secret for an authorized coalition of bundles.

    Raises UnauthorizedError when no dealt instance certifies the
    coalition, ShareCorruptionError when certification succeeds but the
    chain fails to invert within bounds.
    """
    if not bundles:
        raise UnauthorizedError("empty coalition")
    return _secret_of(_read_chains(bundles))


# ---------------------------------------------------------------------------
# verification


def _verdicts_of(chains, bundles: list[ShareBundle], secret: Secret) -> dict[int, int]:
    """verify_shares' verdicts from every chain _read_chains(bundles) yields."""
    verdicts = {b.party: 1 for b in bundles}
    opened_any = False
    for chain in chains:
        if chain is None:
            continue
        opened_any = True
        order, exps, trap, walk = chain
        n, p = trap.params.n, trap.params.p
        m_all, _ = lwe_invert(trap, walk, check=False)
        above = 1       # det of the S-power product strictly above j
        for j in range(len(order) - 1, -1, -1):
            det_j = det_int(m_all[:, j * n: (j + 1) * n]) % p
            if det_j != above * pow(secret.k, exps[j], p) % p:
                verdicts[order[j]] = 0
            above = det_j
    if not opened_any:
        raise HeaderUnavailableError(
            "no instance header opened: verification runs only after the "
            "coalition could reconstruct")
    return verdicts


def verify_shares(bundles: list[ShareBundle], secret: Secret) -> dict[int, int]:
    """Per-party verdict map: 1 iff every determinant step involving the
    party's encoding is consistent with the claimed secret.

    Requires an authorized coalition (the headers decrypt only then);
    parties whose shares sit outside every opened chain have nothing to
    check and verdict 1.  The map is a pure function of bundles and k.
    """
    if not bundles:
        raise HeaderUnavailableError("no bundles supplied")
    return _verdicts_of(_read_chains(bundles), bundles, secret)


# ---------------------------------------------------------------------------
# share-size bound


C_H = 8                  # the bound's constant factor on the token universe h


def max_share_size(parties: int, q: int, h: int) -> int:
    """Byte bound binom(l, l/2) * (sqrt(q) (2 q^rho + 1) + C_H * h) at rho = 1/2.

    Both square roots are rounded up, so the bound is exact in integers.
    """
    root = math.isqrt(q - 1) + 1            # ceil(sqrt(q)) for q >= 1
    return math.comb(parties, parties // 2) * (root * (2 * root + 1) + C_H * h)
