import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilshare import serial, setsys, tokens
from veilshare.rng import named_stream
from veilshare.setsys import verify_restricted_intersections
from veilshare.tokens import (
    DEFAULT_L,
    DEFAULT_M,
    DEFAULT_N,
    KAPPA,
    TokenEncodingError,
    _encoding_structure,
    combine_tokens,
    default_token_systems,
    encode_access_structure,
    membership_test,
    read_token,
    subset_is_authorized,
    token_id_bound,
    token_ids,
    token_mask,
)
from veilshare.vss import Secret, ShareBundle, VssParams, deal, serialize_bundles


@pytest.fixture(scope="module")
def system():
    return default_token_systems()


def closure_member(subset, omega):
    return set(omega).issubset(subset)


def all_subsets(parties):
    for r in range(1, parties + 1):
        yield from itertools.combinations(range(1, parties + 1), r)


def encode(parties, omega, seed):
    rng = named_stream(seed, "tokens-test", parties, omega)
    return encode_access_structure(parties, omega, rng)


def test_default_systems_have_restricted_intersections_under_both_moduli(system):
    # one modulus now: the members are built and read under m = 39
    assert system.modulus.m == 39
    report = verify_restricted_intersections(system, t=3, l=2, samples=2 * 10**4, seed=3)
    assert report.ok, report.violations


def test_default_systems_take_one_modulus():
    # the second slot exists for the benchmark's positional call and must equal m
    assert default_token_systems(DEFAULT_M, DEFAULT_M, DEFAULT_N, DEFAULT_L).universe_size == 2340
    with pytest.raises(ValueError):
        default_token_systems(DEFAULT_M, 195, DEFAULT_N, DEFAULT_L)


def test_membership_test_numeric_edges():
    assert membership_test((1 << 39) - 1) is True
    assert membership_test((1 << 40) - 1) is False
    assert membership_test((1 << 78) - 1) is True
    # an empty intersection is 0 mod everything, and still never authorized
    assert membership_test(0) is False


# a shared core keeps the intersections of random tokens from being empty
ID_SETS = st.sets(st.integers(0, token_id_bound() - 1), max_size=120).flatmap(
    lambda core: st.lists(st.sets(st.integers(0, token_id_bound() - 1), max_size=120)
                          .map(core.union), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(ID_SETS)
def test_masks_agree_with_id_sets(id_sets):
    masks = [token_mask(list(ids)) for ids in id_sets]
    for ids, mask in zip(id_sets, masks):
        written = token_ids(mask)
        assert all(a < b for a, b in zip(written, written[1:]))
        assert written == sorted(ids)
        assert mask.bit_count() == len(ids)
        if ids:
            assert read_token(written) == mask
    common = frozenset.intersection(*map(frozenset, id_sets))
    combined = combine_tokens(masks)
    assert token_ids(combined) == sorted(common)
    assert combined.bit_count() == len(common)
    assert membership_test(combined) == (len(common) > 0 and len(common) % DEFAULT_M == 0)


def test_deal_builds_no_gram_matrix():
    # H and its supersets are read off the merge layout, so dealing never
    # forms the 783 x 783 Gram matrix (or its 81 MB float operand)
    deal(Secret(3, 31), [(1, 2)], 3, VssParams.desk(), seed=1)
    assert not hasattr(_encoding_structure()[0], "_gram")


def test_token_id_bound_is_the_merged_universe_plus_the_tag_room():
    # 2,340 universe elements, and l + |Omega| + KAPPA < 13 leaves 10 tags
    assert token_id_bound() == _encoding_structure()[0].universe_size + 13 - 3 == 2350


def test_reading_a_share_builds_no_token_system(monkeypatch):
    # token_id_bound read the bound off the merged 783 x 2,340 system, so the
    # first share a reader parsed built the whole system to learn 2,350
    bundle = deal(Secret(3, 31), [(1, 2)], 3, VssParams.desk(), seed=1)[0]
    payload = serial.deserialize(serialize_bundles([bundle])[0], "share-bundle")

    class Merged(Exception):
        pass

    def merged(*args):
        raise Merged

    caches = [f for f in vars(tokens).values() if hasattr(f, "cache_clear")]
    for f in caches:
        f.cache_clear()
    monkeypatch.setattr(setsys, "merge_systems", merged)
    monkeypatch.setattr(tokens, "merge_systems", merged)
    try:
        assert ShareBundle.from_doc(payload).party == 1
    finally:
        for f in caches:        # nothing built under the patch stays cached
            f.cache_clear()


def test_example_instance_authorized_and_not():
    inst = encode(5, (1, 2, 3), seed=101)
    assert subset_is_authorized(inst, [1, 2, 3]) is True
    assert subset_is_authorized(inst, [1, 2, 4, 5]) is False


def test_all_coalitions_at_five_parties():
    inst = encode(5, (1, 2, 3), seed=102)
    for subset in all_subsets(5):
        assert subset_is_authorized(inst, subset) == closure_member(subset, (1, 2, 3))


def test_combined_tokens_values():
    inst = encode(5, (2, 4), seed=103)
    tokens = {p: inst.token_for(p) for p in range(1, 6)}
    # a single token combines to itself
    assert combine_tokens([tokens[1]]) == tokens[1]
    # authorized coalitions all reach gamma(H)
    gamma_h = inst.authorized_token()
    assert gamma_h.bit_count() % DEFAULT_M == 0
    for subset in all_subsets(5):
        combined = combine_tokens([tokens[p] for p in subset])
        if closure_member(subset, (2, 4)):
            assert combined == gamma_h
        else:
            assert combined.bit_count() % DEFAULT_M != 0


FIXED_CASES = [
    (6, (1, 2, 3)),
    (6, (2, 5)),
    (6, (6,)),
    (6, (1, 2, 3, 4, 5, 6)),
    (8, (1, 4, 7, 8)),
]


def soundness_cases():
    """The fixed cases, then l in {5, 6, 8} x every |Omega| <= min(l, 8) x 6 seeds.

    The sweep is 15,438 coalition verdicts, each of which must be exact.
    """
    for i, (parties, omega) in enumerate(FIXED_CASES):
        yield pytest.param(parties, omega, hash(omega) % 2**32, id=f"{parties}-omega{i}")
    for parties in (5, 6, 8):
        for size in range(1, min(parties, 8) + 1):
            for seed in range(6):
                rng = named_stream(seed, "sweep", parties, size)
                omega = tuple(sorted(int(v) + 1
                                     for v in rng.choice(parties, size=size, replace=False)))
                yield pytest.param(parties, omega, seed, id=f"l{parties}-size{size}-seed{seed}")


@pytest.mark.parametrize("parties,omega,seed", soundness_cases())
def test_exhaustive_soundness_and_completeness(parties, omega, seed):
    inst = encode(parties, omega, seed=seed)
    for subset in all_subsets(parties):
        assert subset_is_authorized(inst, subset) == closure_member(subset, omega)


def test_eight_party_instance_exhaustive():
    inst = encode(8, (2, 3, 5, 6, 7, 8), seed=42)
    for subset in all_subsets(8):
        assert subset_is_authorized(inst, subset) == closure_member(subset, (2, 3, 5, 6, 7, 8))


def test_permutation_invariance():
    verdicts = []
    for seed in (7, 8):
        rng = named_stream(seed, "perm")
        inst = encode_access_structure(5, (1, 3), rng)
        verdicts.append([subset_is_authorized(inst, s) for s in all_subsets(5)])
    assert verdicts[0] == verdicts[1]
    # but the token bytes themselves differ
    a = encode(5, (1, 3), seed=7).token_for(1)
    b = encode(5, (1, 3), seed=8).token_for(1)
    assert a != b


def test_kappa_constraint():
    # KAPPA = 2 needs l + |Omega| + 2 < 13, so |Omega| <= 8
    assert KAPPA == 2
    inst = encode(8, tuple(range(1, 9)), seed=9)
    assert subset_is_authorized(inst, range(1, 9)) is True
    with pytest.raises(TokenEncodingError):
        encode(9, tuple(range(1, 10)), seed=77)
    with pytest.raises(TokenEncodingError):
        encode(12, tuple(range(1, 12)), seed=9)


def test_omega_validation():
    with pytest.raises(TokenEncodingError):
        encode(5, (), seed=1)
    with pytest.raises(TokenEncodingError):
        encode(5, (0, 2), seed=1)
    with pytest.raises(TokenEncodingError):
        encode(5, (6,), seed=1)


def test_tokens_are_subsets_of_gamma_h_zero():
    inst = encode(5, (1, 2, 3), seed=110)
    gamma_h0 = sum(1 << int(inst.gamma[e]) for e in inst.h_zero)
    for p in range(1, 6):
        token = inst.token_for(p)
        assert token
        assert token & ~gamma_h0 == 0


def test_hiding_surrogate_token_size_multisets():
    """Across two hidden Omega of equal size, the unordered per-instance
    multiset of token sizes is identically distributed."""
    trials = 500     # two-sample comparison over 10^3 trials total
    parties = 6

    def size_counter(omega, tag):
        counter = Counter()
        for t in range(trials):
            rng = named_stream(2024, "hiding", tag, t)
            inst = encode_access_structure(parties, omega, rng)
            sizes = tuple(sorted(inst.token_for(p).bit_count()
                                 for p in range(1, parties + 1)))
            counter[sizes] += 1
        return counter

    c1 = size_counter((1, 2, 4), "a")
    c2 = size_counter((3, 5, 6), "b")
    support = set(c1) | set(c2)
    tvd = 0.5 * sum(abs(c1.get(s, 0) - c2.get(s, 0)) / trials for s in support)
    assert tvd < 0.35, f"token size multiset distributions diverge: tvd={tvd}"
    # pooled single-size marginals have far less sampling noise
    m1, m2 = Counter(), Counter()
    for counter, marginal in ((c1, m1), (c2, m2)):
        for sizes, count in counter.items():
            for s in sizes:
                marginal[s] += count
    total = trials * parties
    marginal_tvd = 0.5 * sum(abs(m1.get(s, 0) - m2.get(s, 0)) / total
                             for s in set(m1) | set(m2))
    assert marginal_tvd < 0.08, f"size marginals diverge: tvd={marginal_tvd}"
