import dataclasses
import itertools

import numpy as np
import pytest

from veilshare.lattice import LweParams, find_q
from veilshare.rng import named_stream
from veilshare.vss import (
    HeaderUnavailableError,
    Secret,
    ShareBundle,
    ShareCorruptionError,
    UnauthorizedError,
    VssError,
    VssParams,
    deal,
    max_share_size,
    reconstruct,
    serialize_bundles,
    verify_shares,
)

PARAMS = VssParams.desk()
SECRET = Secret(3, 31)


def coalition(bundles, subset):
    return [b for b in bundles if b.party in subset]


@pytest.fixture(scope="module")
def dealt():
    return deal(SECRET, [(1, 2, 3)], 5, PARAMS, seed=2001)


def test_secret_validation():
    Secret(3, 31)
    with pytest.raises(ValueError):
        Secret(2, 31)     # order of 2 mod 31 is 5
    with pytest.raises(ValueError):
        Secret(0, 31)


def test_reconstruct_by_omega(dealt):
    got = reconstruct(coalition(dealt, [1, 2, 3]))
    assert got == SECRET
    # recovered value generates Z_p^*: k^(p-1) = 1 with no smaller kernel
    assert pow(got.k, 30, 31) == 1
    assert all(pow(got.k, 30 // ell, 31) != 1 for ell in (2, 3, 5))


def test_reconstruct_by_superset(dealt):
    assert reconstruct(dealt) == SECRET
    assert reconstruct(coalition(dealt, [1, 2, 3, 5])) == SECRET


def test_unauthorized_coalitions_fail(dealt):
    with pytest.raises(UnauthorizedError):
        reconstruct(coalition(dealt, [1, 2, 4, 5]))
    with pytest.raises(UnauthorizedError):
        reconstruct([])


def test_all_32_coalitions(dealt):
    for r in range(1, 6):
        for subset in itertools.combinations(range(1, 6), r):
            authorized = {1, 2, 3} <= set(subset)
            if authorized:
                assert reconstruct(coalition(dealt, subset)) == SECRET
            else:
                with pytest.raises(UnauthorizedError):
                    reconstruct(coalition(dealt, subset))


def test_share_bundle_bytes_equal(dealt):
    blobs = serialize_bundles(dealt)
    lengths = {len(b) for b in blobs}
    assert len(lengths) == 1
    # and the padded docs round trip to the identical bytes
    from veilshare import serial
    back = [ShareBundle.from_doc(serial.deserialize(b, "share-bundle")) for b in blobs]
    assert back[0].party == dealt[0].party
    assert (back[0].instances[0].a_matrix == dealt[0].instances[0].a_matrix).all()
    assert serialize_bundles(back) == blobs
    # padding lives only in the bytes: serializing again changes nothing
    assert serialize_bundles(dealt) == blobs


def test_multi_instance_access_structure():
    gamma0 = [(1, 2), (3, 4, 5)]
    bundles = deal(SECRET, gamma0, 5, PARAMS, seed=2002)
    for r in range(1, 6):
        for subset in itertools.combinations(range(1, 6), r):
            authorized = any(set(o) <= set(subset) for o in gamma0)
            if authorized:
                assert reconstruct(coalition(bundles, subset)) == SECRET
            else:
                with pytest.raises(UnauthorizedError):
                    reconstruct(coalition(bundles, subset))


def test_exhaustive_classification_six_parties():
    gamma0 = [(1, 2), (2, 5, 6)]
    bundles = deal(SECRET, gamma0, 6, PARAMS, seed=2100)
    for r in range(0, 7):
        for subset in itertools.combinations(range(1, 7), r):
            authorized = any(set(o) <= set(subset) for o in gamma0)
            if authorized:
                assert reconstruct(coalition(bundles, subset)) == SECRET
            else:
                with pytest.raises(UnauthorizedError):
                    reconstruct(coalition(bundles, subset))


def test_gamma0_validation():
    with pytest.raises(VssError):
        deal(SECRET, [(1, 2), (1, 2, 3)], 5, PARAMS, seed=1)   # not an antichain
    with pytest.raises(VssError):
        deal(SECRET, [()], 5, PARAMS, seed=1)
    with pytest.raises(VssError):
        deal(SECRET, [(0, 1)], 5, PARAMS, seed=1)
    with pytest.raises(VssError):
        deal(Secret(3, 31), [(1,)], 5, VssParams.desk(p=11, q_bits=28), seed=1)


def test_single_member_omega():
    bundles = deal(SECRET, [(2,)], 3, PARAMS, seed=2003)
    assert reconstruct(coalition(bundles, [2])) == SECRET
    assert reconstruct(coalition(bundles, [1, 2])) == SECRET
    with pytest.raises(UnauthorizedError):
        reconstruct(coalition(bundles, [1, 3]))


def test_verify_all_honest(dealt):
    verdicts = verify_shares(coalition(dealt, [1, 2, 3]), SECRET)
    assert verdicts == {1: 1, 2: 1, 3: 1}
    again = verify_shares(coalition(dealt, [1, 2, 3]), SECRET)
    assert again == verdicts


def test_verify_without_authorization(dealt):
    with pytest.raises(HeaderUnavailableError):
        verify_shares(coalition(dealt, [1, 2]), SECRET)


def corrupt_encoding(bundles, party, seed):
    rng = named_stream(seed, "corrupt", party)
    out = []
    for b in bundles:
        if b.party != party:
            out.append(b)
            continue
        inst = b.instances[0]
        fake_d = rng.normal(0, b.params.lwe.sigma, size=inst.d_matrix.shape)
        inst = dataclasses.replace(inst, d_matrix=np.rint(fake_d).astype(np.int64))
        out.append(ShareBundle(b.party, b.params, [inst]))
    return out


def test_corrupted_encoding_detected_and_reconstruction_flagged():
    trials, flagged, fooled = 60, 0, 0
    for t in range(trials):
        bundles = deal(SECRET, [(1, 2, 3)], 4, PARAMS, seed=3000 + t)
        bad = corrupt_encoding(coalition(bundles, [1, 2, 3]), 2, seed=t)
        with pytest.raises((ShareCorruptionError, UnauthorizedError)):
            reconstruct(bad)
        verdicts = verify_shares(bad, SECRET)
        if verdicts[2] == 0:
            flagged += 1
        else:
            fooled += 1
    # fluke pass rate is about 1/(p-1); at 60 trials demand >= 80% detection
    assert flagged >= int(0.8 * trials), (flagged, fooled)


def test_verdict_determinism_under_corruption():
    bundles = deal(SECRET, [(1, 2, 3)], 4, PARAMS, seed=3100)
    bad = corrupt_encoding(coalition(bundles, [1, 2, 3]), 1, seed=9)
    v1 = verify_shares(bad, SECRET)
    v2 = verify_shares(bad, SECRET)
    assert v1 == v2


def test_exponent_telescoping_and_error_growth():
    # exact recovery across chain lengths, with growing q for longer chains;
    # the accumulated error stays finite and grows with the chain
    from veilshare.lattice import lwe_invert, matmul_mod
    from veilshare.vss import _opened_chains

    norms = {}
    for omega, bits in [((1, 2), 30), ((1, 2, 3), 30), ((1, 2, 3, 4), 40)]:
        params = VssParams(LweParams(n=4, p=31, q=find_q(31, bits),
                                     c_bound_milli=500 if len(omega) == 4 else 4000))
        bundles = deal(SECRET, [omega], len(omega), params, seed=4000 + len(omega))
        assert reconstruct(bundles) == SECRET
        [(shares, header, trap)] = _opened_chains(bundles)
        assert header is not None
        q = params.lwe.q
        x = shares[header["order"][0]].a_matrix % q
        for party in header["order"]:
            x = np.asarray(matmul_mod(shares[party].d_matrix, x, q), dtype=np.int64)
        _, err = lwe_invert(trap, x)
        norms[len(omega)] = int(np.abs(err).max())
    assert all(v > 0 for v in norms.values())
    assert norms[2] < norms[3] < norms[4]


def test_params_doc_roundtrip():
    base = VssParams.desk().to_doc()
    for milli in range(1, 5001):
        doc = {**base, "c_bound_milli": milli}
        assert VssParams.from_doc(doc).to_doc() == doc


def test_entry_overflow_rejected():
    tiny = VssParams(LweParams(n=4, p=31, q=31 * 33))
    with pytest.raises(VssError):
        deal(SECRET, [(1, 2, 3, 4, 5)], 5, tiny, seed=5)


def test_mixed_dealings_rejected(dealt):
    other = deal(SECRET, [(1, 2)], 5, PARAMS, seed=2099)
    with pytest.raises(VssError):
        reconstruct([dealt[0], other[1]])


def test_header_tamper_detected(dealt):
    tampered = []
    for b in coalition(dealt, [1, 2, 3]):
        inst = b.instances[0]
        ct = bytearray(inst.header_ct)
        ct[5] ^= 0xFF
        inst = dataclasses.replace(inst, header_ct=bytes(ct))
        tampered.append(ShareBundle(b.party, b.params, [inst]))
    with pytest.raises(VssError):
        reconstruct(tampered)


def test_disjoint_token_is_unauthorized(dealt):
    # an empty intersection has size 0, which is 0 mod m yet certifies nothing
    bundles = coalition(dealt, [1, 2, 3])
    inst = bundles[2].instances[0]
    inst = dataclasses.replace(inst, token=frozenset({-1}))
    tampered = [*bundles[:2], ShareBundle(3, bundles[2].params, [inst])]
    with pytest.raises(UnauthorizedError):
        reconstruct(tampered)
    with pytest.raises(HeaderUnavailableError):
        verify_shares(tampered, SECRET)


def test_max_share_size_shape():
    assert max_share_size(2, 100, 10) % 2 == 0          # binom(2,1) = 2 factor
    values = [max_share_size(l, PARAMS.lwe.q, 12950) for l in range(2, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_measured_shares_below_bound(dealt):
    blobs = serialize_bundles(dealt)
    bound = max_share_size(5, PARAMS.lwe.q, 12950 + 5)
    assert all(len(b) <= bound for b in blobs)


def test_framing_resistance_surrogate():
    # a coalition lacking position i cannot craft a passing D for i
    trials, passed = 40, 0
    for t in range(trials):
        bundles = deal(SECRET, [(1, 2, 3)], 3, PARAMS, seed=6000 + t)
        forged = corrupt_encoding(bundles, 3, seed=100 + t)
        verdicts = verify_shares(forged, SECRET)
        passed += verdicts[3]
    assert passed <= max(4, int(0.15 * trials))


def test_dealer_side_exponent_telescoping():
    # reconstructed matrix equals the integer product of the dealt powers
    params = PARAMS
    bundles = deal(SECRET, [(1, 2)], 2, params, seed=7001)
    secret_mat = reconstruct(bundles)
    assert secret_mat == SECRET
    # determinant arithmetic: sum of exponents collapses via Fermat
    assert pow(3, 61, 31) == 3
