"""Hidden access-structure tokens.

A monotone access structure cl(Omega) over parties P_1..P_l is encoded
against a restricted-intersection set system: a designated small set H
(a proper subset of exactly s^(l-1) members and a proper superset of
none) anchors the structure, distinct proper supersets of H are handed
to the remaining parties, and small tag elements outside the set-system
universe punch per-party holes so that the member sets of a coalition
intersect down to exactly H precisely when the coalition contains Omega.

Every party only ever sees its token: the image of H_0 n S_i under a
secret random permutation gamma of the universe, where H_0 is one more
superset of H joined with all tags.  Coalitions intersect their tokens
and test the cardinality: 0 mod m or 0 mod m' means authorized.  The
tokens never identify Omega, and re-running with a fresh gamma rewrites
every token while preserving all verdicts.

The two moduli come from reading one merged set system under both m and
m' = m * p for an extra prime p.  Soundness needs the largest prime
divisor of m to exceed l + |Omega| + kappa, so the default token systems
use m = 39 = 3*13 and m' = 195 = 3*5*13, hosting |Omega| up to 8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numt import Modulus
from .setsys import GrolmuszParams, SetSystem, build_grolmusz_system, merge_systems

DEFAULT_M = 39
DEFAULT_M_PRIME = 195
DEFAULT_N = 3
DEFAULT_L = 2


class TokenEncodingError(ValueError):
    """Raised when an access structure cannot be encoded over the given systems."""


@dataclass(frozen=True)
class TokenPack:
    """One party's access-structure token: permuted element identifiers."""

    party: int
    elements: frozenset[int]
    instance_id: str

    def __post_init__(self):
        if not self.elements:
            raise ValueError("token element set must be nonempty")


@dataclass
class AccessStructureInstance:
    """Everything the dealer generated for one minimal authorized subset."""

    instance_id: str
    party_count: int
    omega: tuple[int, ...]
    kappa: int
    m: int
    m_prime: int
    merge_l: int
    universe_size: int                 # extended universe (set system + tags)
    h_set: frozenset[int]              # the designated set H
    h_zero: frozenset[int]             # H_0 = H_partial joined with all tags
    assigned_sets: dict[int, frozenset[int]]   # party id -> S_i
    gamma: np.ndarray                  # permutation over the extended universe

    def token_for(self, party: int) -> TokenPack:
        raw = self.h_zero & self.assigned_sets[party]
        return TokenPack(party, frozenset(int(self.gamma[e]) for e in raw),
                         self.instance_id)

    def tokens(self) -> list[TokenPack]:
        return [self.token_for(p) for p in range(1, self.party_count + 1)]

    def authorized_element_ids(self) -> tuple[int, ...]:
        """gamma(H): the common value every authorized coalition intersects to."""
        return tuple(sorted(int(self.gamma[e]) for e in self.h_set))


@functools.lru_cache(maxsize=4)
def default_token_systems(m: int = DEFAULT_M, m_prime: int = DEFAULT_M_PRIME,
                          n: int = DEFAULT_N, l: int = DEFAULT_L):
    """Build the shared member collection and read it under both moduli.

    One merged system is constructed over m'; since m | m' all member
    sizes are 0 mod m as well, and the per-copy intersection values stay
    in {0,1} modulo every prime divisor of m, so the same collection has
    restricted intersections under both moduli.  Every member therefore
    lies in both systems, which is what the encoding needs.
    """
    if m_prime % m != 0 or m_prime == m:
        raise ValueError("m' must be a proper multiple of m")
    mod_prime = Modulus.of(m_prime)
    g = build_grolmusz_system(GrolmuszParams(mod_prime, n, l=l))
    merged = merge_systems(g, l)
    base_view = SetSystem(Modulus.of(m), merged.universe_size, merged.sets,
                          labels=merged.labels)
    return base_view, merged


def _common_rows(a: SetSystem, b: SetSystem) -> list[int]:
    if a.universe_size != b.universe_size:
        raise TokenEncodingError("systems must share one universe")
    seen = {row.tobytes() for row in b.sets}
    return [i for i, row in enumerate(a.sets) if row.tobytes() in seen]


def _encoding_structure(h_system: SetSystem, h_prime_system: SetSystem) -> dict:
    """Candidate designated sets and their superset lists.

    Cached on h_prime_system for the last h_system it was paired with, so
    the cache lives exactly as long as the systems do.
    """
    cached = getattr(h_prime_system, "_encoding_structure", None)
    if cached is not None and cached[0] is h_system:
        return cached[1]

    sizes = h_prime_system.sizes()
    classes = sorted(set(int(v) for v in sizes))
    if len(classes) != 2 or classes[1] % classes[0] != 0:
        raise TokenEncodingError("system must have two size classes with integer ratio")
    merge_l = classes[1] // classes[0]

    common = _common_rows(h_system, h_prime_system)
    gram = h_prime_system.gram()
    proper_superset_count = (
        (gram == sizes[:, None]) & (sizes[:, None] < sizes[None, :])).sum(axis=1)
    is_proper_superset_of_any = (
        (gram == sizes[None, :]) & (sizes[None, :] < sizes[:, None])).any(axis=1)
    n_members = len(h_prime_system)
    base = int(round(n_members ** (1 / merge_l)))
    s_count = next((c for c in range(max(1, base - 2), base + 3)
                    if c**merge_l + merge_l * c == n_members), None)
    want = s_count ** (merge_l - 1) if s_count else int(proper_superset_count.max())
    candidates = [i for i in common
                  if proper_superset_count[i] == want and not is_proper_superset_of_any[i]]
    supersets = {
        i: np.flatnonzero((gram[i] == sizes[i]) & (sizes > sizes[i])) for i in candidates}
    # every member set is built from these shared int objects, so encoding
    # allocates no ints of its own
    ids = np.arange(h_prime_system.universe_size).astype(object)
    structure = {"merge_l": merge_l, "candidates": candidates, "supersets": supersets,
                 "ids": ids}
    h_prime_system._encoding_structure = (h_system, structure)
    return structure


def encode_access_structure(party_count: int, omega, h_system: SetSystem,
                            h_prime_system: SetSystem, rng: np.random.Generator,
                            kappa: int | None = None,
                            instance_id: str | None = None) -> AccessStructureInstance:
    """Assign member sets to parties so coalitions intersect to H iff authorized.

    The designated H is drawn among sets common to both systems that are
    proper subsets of exactly s^(l-1) members and proper supersets of
    none; its supersets supply the other parties.  Tag elements beyond
    the universe give each Omega-party a punched tail.  kappa defaults to
    the smallest pad >= 2 keeping l + |Omega| + kappa below the largest
    prime divisor of m, which is what pins unauthorized intersection
    sizes away from 0 mod m and mod m'.
    """
    omega = tuple(sorted(set(int(i) for i in omega)))
    if not omega:
        raise TokenEncodingError("Omega must be nonempty")
    if party_count < 1 or omega[0] < 1 or omega[-1] > party_count:
        raise TokenEncodingError("Omega must be a subset of 1..party_count")
    m = h_system.modulus.m
    m_prime = h_prime_system.modulus.m
    if m_prime % m != 0:
        raise TokenEncodingError("m must divide m'")

    structure = _encoding_structure(h_system, h_prime_system)
    merge_l = structure["merge_l"]

    max_prime = max(h_system.modulus.primes)
    k = len(omega)
    if kappa is None:
        kappa = 2
    if kappa < 1 or merge_l + k + kappa >= max_prime:
        raise TokenEncodingError(
            f"no valid pad: need l + |Omega| + kappa < {max_prime}, "
            f"got l={merge_l}, |Omega|={k}, kappa={kappa}")

    candidates = structure["candidates"]
    if not candidates:
        raise TokenEncodingError("no eligible designated set in the common collection")

    h_idx = int(rng.choice(np.array(candidates)))
    superset_idx = structure["supersets"][h_idx]
    if len(superset_idx) < party_count + 1:
        raise TokenEncodingError(
            f"need at least {party_count + 1} supersets, have {len(superset_idx)}")

    base_h = h_prime_system.universe_size
    universe = base_h + k + kappa
    tags = list(range(base_h, universe))     # tag j is tags[j-1]

    def member(row_idx) -> frozenset[int]:
        return frozenset(structure["ids"][h_prime_system.sets[row_idx]])

    h_set = member(h_idx)
    draw = rng.choice(superset_idx, size=party_count, replace=False)
    others = iter(int(v) for v in draw)

    assigned: dict[int, frozenset[int]] = {}
    full_tail = frozenset(tags)
    for party in range(1, party_count + 1):
        if party == omega[0]:
            if k == 1:
                assigned[party] = h_set
            else:
                assigned[party] = h_set | (full_tail - {tags[0]})
        elif party == omega[-1] and k >= 2:
            assigned[party] = member(next(others)) | frozenset(tags[: k - 1])
        elif party in omega:
            pos = omega.index(party) + 1
            assigned[party] = member(next(others)) | (full_tail - {tags[pos - 1]})
        else:
            assigned[party] = member(next(others)) | full_tail
    h_zero = member(next(others)) | full_tail

    gamma = rng.permutation(universe)
    if instance_id is None:
        instance_id = bytes(rng.integers(0, 256, size=8, dtype=np.uint8)).hex()

    return AccessStructureInstance(
        instance_id=instance_id, party_count=party_count, omega=omega,
        kappa=kappa, m=m, m_prime=m_prime, merge_l=merge_l,
        universe_size=universe, h_set=h_set, h_zero=h_zero,
        assigned_sets=assigned, gamma=gamma,
    )


def combine_tokens(packs: list[TokenPack]) -> frozenset[int]:
    """Intersection of the packs' element sets; packs must share one instance."""
    if not packs:
        raise ValueError("need at least one token pack")
    ids = {p.instance_id for p in packs}
    if len(ids) != 1:
        raise ValueError(f"mixed instances: {sorted(ids)}")
    out = packs[0].elements
    for p in packs[1:]:
        out = out & p.elements
    return out


def membership_test(combined, m: int, m_prime: int) -> bool:
    """Authorized iff the combined cardinality is 0 mod m or 0 mod m'."""
    size = combined if isinstance(combined, int) else len(combined)
    return size % m == 0 or size % m_prime == 0


def subset_is_authorized(instance: AccessStructureInstance, subset) -> bool:
    """Run the whole pipeline for one coalition; empty coalitions are refused."""
    subset = sorted(set(subset))
    if not subset:
        return False
    combined = combine_tokens([instance.token_for(p) for p in subset])
    return membership_test(combined, instance.m, instance.m_prime)
