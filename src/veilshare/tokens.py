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
and test the cardinality: nonzero and 0 mod m means authorized.  The
tokens never identify Omega, and re-running with a fresh gamma rewrites
every token while preserving all verdicts.

Soundness needs the largest prime divisor of m to exceed
l + |Omega| + KAPPA, where the tag pad KAPPA is fixed at 2, so the
default token system is built and tested over the one modulus
m = 39 = 3*13, hosting |Omega| up to 8.  Callers never pass that system or
m: _encoding_structure builds it once and reads H's 27 supersets off
setsys.merge_layout.  H_0 takes one, so an encoding hosts at most 26 parties.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numt import Modulus
from .serial import SerializationError, read_ints
from .setsys import SetSystem, build_grolmusz_system, merge_layout, merge_systems

DEFAULT_M = 39
DEFAULT_N = 3
DEFAULT_L = 2
KAPPA = 2               # tag elements beyond |Omega| in every token universe


class TokenEncodingError(ValueError):
    """Raised when an access structure cannot be encoded over the given system."""


@dataclass
class AccessStructureInstance:
    """Everything the dealer generated for one minimal authorized subset."""

    instance_id: str
    party_count: int
    h_set: frozenset[int]              # the designated set H
    h_zero: frozenset[int]             # H_0 = H_partial joined with all tags
    assigned_sets: dict[int, frozenset[int]]   # party id -> S_i
    gamma: np.ndarray                  # permutation over the extended universe

    def token_for(self, party: int) -> frozenset[int]:
        """The party's token: gamma of H_0 n S_i, as permuted element ids."""
        raw = self.h_zero & self.assigned_sets[party]
        return frozenset(int(self.gamma[e]) for e in raw)

    def authorized_element_ids(self) -> tuple[int, ...]:
        """gamma(H): the common value every authorized coalition intersects to."""
        return tuple(sorted(int(self.gamma[e]) for e in self.h_set))


@functools.lru_cache(maxsize=4)
def default_token_systems(m: int = DEFAULT_M, m_prime: int = DEFAULT_M,
                          n: int = DEFAULT_N, l: int = DEFAULT_L) -> SetSystem:
    """The merged member collection over m, whose sizes are 0 mod m.

    m_prime must equal m.  The slot is there only because perfbench/run.py
    passes these four arguments positionally.
    """
    if m_prime != m:
        raise ValueError("the token system has one modulus: m_prime must equal m")
    return merge_systems(build_grolmusz_system(Modulus.of(m), n), l)


@functools.cache
def token_id_bound() -> int:
    """One past the largest element id a default token can hold.

    Ids permute the universe plus |Omega| + KAPPA tag elements, and
    encode_access_structure keeps l + |Omega| + KAPPA below the largest
    prime of m.  The merged universe is l copies of G's, so reading a
    token never builds the merged system.
    """
    m = Modulus.of(DEFAULT_M)
    universe = DEFAULT_L * build_grolmusz_system(m, DEFAULT_N).universe_size
    return universe + max(m.primes) - DEFAULT_L - 1


def check_party_count(parties: int) -> None:
    """Refuse more parties than an encoding hosts: H_0 and each party take a superset of H."""
    bound = len(_encoding_structure()[2][0]) - 1
    if parties > bound:
        raise TokenEncodingError(f"the token system hosts at most {bound} parties, not {parties}")


def read_token(doc) -> frozenset[int]:
    """A token as share and token files write it; anything else is refused.

    That is a nonempty, strictly increasing list of integer ids below
    token_id_bound(): the one order writers use, with no repeats.
    """
    doc = read_ints(doc, "token")
    if not doc or any(a >= b for a, b in zip(doc, doc[1:])):
        raise SerializationError("token must be nonempty and strictly increasing")
    bound = token_id_bound()
    if doc[0] < 0 or doc[-1] >= bound:
        raise SerializationError(f"token elements must lie in [0, {bound})")
    return frozenset(doc)


@functools.cache
def _encoding_structure():
    """(system, candidate H rows, supersets per candidate, element ids) of the token system.

    The rows come from merge_layout, the layout merge_systems builds.  Every
    member set is built from the shared int objects in ids, so encoding
    allocates no ints.
    """
    # positional, as perfbench/run.py passes them, so the lru_cache builds it once
    system = default_token_systems(DEFAULT_M, DEFAULT_M, DEFAULT_N, DEFAULT_L)
    supersets = merge_layout(DEFAULT_L, DEFAULT_N ** DEFAULT_N)
    ids = np.arange(system.universe_size).astype(object)
    return system, np.array(list(supersets)), supersets, ids


def encode_access_structure(party_count: int, omega, rng: np.random.Generator,
                            instance_id: str | None = None) -> AccessStructureInstance:
    """Deal member sets of the token system so coalitions intersect to H iff authorized.

    The designated H is drawn among the copy rows of the merged system,
    which are proper subsets of exactly s^(l-1) members (the unions that
    pick them) and proper supersets of none; those unions supply the
    other parties, so check_party_count bounds them.  Tag elements
    beyond the universe give each Omega-party a punched tail.
    l + |Omega| + KAPPA must stay below the largest prime divisor of m,
    which is what pins unauthorized intersection sizes away from 0 mod m.
    """
    omega = tuple(sorted(set(int(i) for i in omega)))
    if not omega:
        raise TokenEncodingError("Omega must be nonempty")
    if party_count < 1 or omega[0] < 1 or omega[-1] > party_count:
        raise TokenEncodingError("Omega must be a subset of 1..party_count")
    check_party_count(party_count)
    system, candidates, supersets, ids = _encoding_structure()

    max_prime = max(system.modulus.primes)
    k = len(omega)
    if DEFAULT_L + k + KAPPA >= max_prime:
        raise TokenEncodingError(
            f"no valid pad: need l + |Omega| + kappa < {max_prime}, "
            f"got l={DEFAULT_L}, |Omega|={k}, kappa={KAPPA}")

    h_idx = int(rng.choice(candidates))

    base_h = system.universe_size
    universe = base_h + k + KAPPA
    tags = list(range(base_h, universe))     # tag j is tags[j-1]

    def member(row_idx) -> frozenset[int]:
        return frozenset(ids[system.sets[row_idx]])

    h_set = member(h_idx)
    draw = rng.choice(supersets[h_idx], size=party_count, replace=False)
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
        instance_id=instance_id, party_count=party_count, h_set=h_set, h_zero=h_zero,
        assigned_sets=assigned, gamma=gamma,
    )


def combine_tokens(tokens: list[frozenset[int]]) -> frozenset[int]:
    """Intersection of one instance's tokens."""
    if not tokens:
        raise ValueError("need at least one token")
    return frozenset(tokens[0]).intersection(*tokens[1:])


def membership_test(combined) -> bool:
    """Authorized iff the combined cardinality is nonzero and 0 mod DEFAULT_M."""
    return len(combined) > 0 and len(combined) % DEFAULT_M == 0


def subset_is_authorized(instance: AccessStructureInstance, subset) -> bool:
    """Run the whole pipeline for one coalition; empty coalitions are refused."""
    subset = sorted(set(subset))
    if not subset:
        return False
    combined = combine_tokens([instance.token_for(p) for p in subset])
    return membership_test(combined)
