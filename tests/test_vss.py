import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from veilshare import serial, vss
from veilshare.lattice import LweParams, det_int, lwe_invert, matmul_mod
from veilshare.rng import named_stream
from veilshare.sim import SimulationConfig, _corrupt_bundle, run_simulation
from veilshare.tokens import token_id_bound
from veilshare.vss import (
    HeaderUnavailableError,
    Secret,
    ShareBundle,
    ShareCorruptionError,
    UnauthorizedError,
    VssError,
    VssParams,
    _read_chains,
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


def test_party_count_is_refused_before_anything_per_party():
    # H has 27 supersets and H_0 takes one, so 26 parties fit.  deal built one
    # list per party, and validate a set of 1..parties, before the token layer
    # refused: 170 and 237 MiB max RSS at 10**6 parties
    params = VssParams.desk()
    vss.check_party_count(1)    # builds the token system outside the trace
    for refused in (lambda: deal(Secret(3, 31), [(1, 2)], 10**6, params, seed=1),
                    lambda: SimulationConfig(parties=10**6).validate()):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                refused()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak} B traced before the refusal"


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


def _suffix_det_reference(shares, order, j, trap, check):
    """det mod p decoded from D_last ... D_j A_j, walked for this suffix alone."""
    q = trap.params.q
    x = shares[order[j]].a_matrix % q
    for party in order[j:]:
        x = np.asarray(matmul_mod(shares[party].d_matrix, x, q), dtype=np.int64)
    m_mat, _ = lwe_invert(trap, x, check=check)
    return det_int(m_mat) % trap.params.p


def _verdicts_reference(bundles, secret):
    """verify_shares with one chain walk and one inversion per suffix.

    The reader opens each instance's header alone; its walk goes unused.
    """
    verdicts = {b.party: 1 for b in bundles}
    for inst in bundles[0].instances:
        shares = {b.party: b.instance(inst.instance_id) for b in bundles}
        alone = [dataclasses.replace(b, instances=[shares[b.party]]) for b in bundles]
        chain = next(_read_chains(alone), None)
        if chain is None:
            continue
        order, exps, trap, _ = chain
        above = 1
        for j in range(len(order) - 1, -1, -1):
            det_j = _suffix_det_reference(shares, order, j, trap, check=False)
            if det_j != above * pow(secret.k, exps[j], secret.p) % secret.p:
                verdicts[order[j]] = 0
            above = det_j
    return verdicts


def test_stacked_chain_walk_matches_the_per_suffix_reference():
    cases = [([(1, 2, 3)], 5, 4100), ([(1, 2, 3)], 5, 4101),
             ([(1, 2, 3), (2, 4, 5), (1, 6)], 6, 4102)]
    for gamma0, parties, seed in cases:
        bundles = deal(SECRET, gamma0, parties, PARAMS, seed=seed)
        assert verify_shares(bundles, SECRET) == _verdicts_reference(bundles, SECRET)
        for order, _, _, _ in _read_chains(bundles):
            for party in order:
                for mode in ("encoding", "bitflip"):
                    rng = named_stream(seed, "forge", mode, party)
                    bad = [_corrupt_bundle(b, mode, rng) if b.party == party else b
                           for b in bundles]
                    assert verify_shares(bad, SECRET) == _verdicts_reference(bad, SECRET), \
                        (seed, mode, party)


def test_forged_middle_a_leaves_reconstruction_intact():
    # reconstruct decodes D_last ... D_0 A_0 alone, which never meets the
    # middle member's A, so only verification sees that forgery
    bundles = deal(SECRET, [(1, 2, 3)], 3, PARAMS, seed=4103)
    [(order, _, _, _)] = _read_chains(bundles)
    middle = order[1]
    rng = named_stream(4103, "forge-a")
    bad = []
    for b in bundles:
        if b.party == middle:
            inst = b.instances[0]
            fake = rng.integers(0, PARAMS.lwe.q, size=inst.a_matrix.shape, dtype=np.int64)
            b = ShareBundle(b.party, b.params, [dataclasses.replace(inst, a_matrix=fake)])
        bad.append(b)
    assert reconstruct(bad) == SECRET
    verdicts = verify_shares(bad, SECRET)
    assert verdicts == _verdicts_reference(bad, SECRET)
    assert verdicts[middle] == 0


def test_exponent_telescoping_and_error_growth():
    # exact recovery across chain lengths, with growing q for longer chains;
    # the accumulated error stays finite and grows with the chain
    norms = {}
    for omega, bits in [((1, 2), 30), ((1, 2, 3), 30), ((1, 2, 3, 4), 40)]:
        params = VssParams.desk(q_bits=bits)
        bundles = deal(SECRET, [omega], len(omega), params, seed=4000 + len(omega))
        assert reconstruct(bundles) == SECRET
        [(order, _, trap, walk)] = _read_chains(bundles)
        shares = {b.party: b.instances[0] for b in bundles}
        q = params.lwe.q
        x = shares[order[0]].a_matrix % q
        for party in order:
            x = np.asarray(matmul_mod(shares[party].d_matrix, x, q), dtype=np.int64)
        assert (walk[:, : params.lwe.n] == x).all()
        _, err = lwe_invert(trap, x)
        norms[len(omega)] = int(np.abs(err).max())
    assert all(v > 0 for v in norms.values())
    assert norms[2] < norms[3] < norms[4]


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
def test_deal_refuses_what_no_coalition_can_open(length):
    # the desk profile opens chains of up to 3; a longer chain's error
    # outgrows the bound, and deal must refuse it rather than issue it
    omega = tuple(range(1, length + 1))
    for seed in range(20):
        try:
            bundles = deal(SECRET, [omega], length, PARAMS, seed=seed)
        except VssError:
            assert length > 3, seed
            continue
        assert reconstruct(bundles) == SECRET, seed


def test_deal_redraws_a_chain_until_it_opens(monkeypatch):
    calls, original = [], vss.lwe_invert

    def failing_twice(trap, b_matrix, check=True):
        calls.append(check)
        if len(calls) <= 2:
            raise vss.InversionError("residual 9 exceeds bound 1")
        return original(trap, b_matrix, check=check)

    monkeypatch.setattr(vss, "lwe_invert", failing_twice)
    bundles = deal(SECRET, [(1, 2, 3)], 5, PARAMS, seed=11)
    assert calls == [True] * 3
    monkeypatch.setattr(vss, "lwe_invert", original)
    assert reconstruct(bundles) == SECRET

    def never_opens(trap, b_matrix, check=True):
        raise vss.InversionError("residual 9 exceeds bound 1")

    monkeypatch.setattr(vss, "lwe_invert", never_opens)
    with pytest.raises(VssError, match=rf"chain of 3 .* {vss.CHAIN_DRAWS} draws: residual 9 "
                                        r"exceeds bound 1; raise --q-bits"):
        deal(SECRET, [(1, 2, 3)], 5, PARAMS, seed=11)


def test_params_doc_roundtrip():
    for params in (VssParams.desk(), VssParams.desk(p=7, q_bits=20, n=2)):
        doc = params.to_doc()
        assert doc.keys() == {"n", "p", "q"}
        assert VssParams.from_doc(doc) == params
    # the five-field profile of share format 5 is refused
    with pytest.raises(serial.SerializationError, match="params must be exactly the fields n, p, q"):
        VssParams.from_doc({**VssParams.desk().to_doc(), "lam": 512, "c_bound_milli": 4000})


def test_entry_overflow_rejected():
    tiny = VssParams(LweParams(n=4, p=31, q=31 * 33))
    with pytest.raises(VssError):
        deal(SECRET, [(1, 2, 3, 4, 5)], 5, tiny, seed=5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reader_rebuilds_the_dealers_terminal_trapdoor(seed, monkeypatch):
    made, original = [], vss.trapdoor_gen

    def recording_trapdoor_gen(params, rng=None):
        made.append(original(params, rng=rng))
        return made[-1]

    monkeypatch.setattr(vss, "trapdoor_gen", recording_trapdoor_gen)
    bundles = deal(SECRET, [(1, 2, 3)], 5, PARAMS, seed=seed)
    # the chain's 4 trapdoors come first, then the 2 decoys'; A_4 is terminal
    assert len(made) == 6
    dealer = made[3]
    [(_, _, trap, _)] = _read_chains(coalition(bundles, [1, 2, 3]))
    assert (trap.A == dealer.A).all() and (trap.R == dealer.R).all()
    assert not trap.relation_residual().any()


def _count_header_opens(monkeypatch):
    opened, original = [], vss.open_header

    def counting_open_header(candidate_keys, nonce, sealed):
        opened.append(nonce)
        return original(candidate_keys, nonce, sealed)

    monkeypatch.setattr(vss, "open_header", counting_open_header)
    return opened


def test_a_simulated_trial_reads_its_coalition_once(monkeypatch):
    # one read yields both the outcome and the verdicts: one header per trial
    opened = _count_header_opens(monkeypatch)
    report = run_simulation(SimulationConfig(parties=5, gamma0=((1, 2, 3),), mode="encoding",
                                             trials=5, seed=5, params=PARAMS))
    assert len(report.trials) == 5
    assert len(opened) == 5


def test_reconstruct_reads_no_chain_past_the_first_that_opens(monkeypatch):
    # the full coalition opens the first chain; reading all three would open
    # and walk two more, which the sweep-l6 tail would show
    bundles = deal(SECRET, [(1, 2, 3), (2, 4, 5), (1, 6)], 6, PARAMS, seed=4104)
    opened = _count_header_opens(monkeypatch)
    assert reconstruct(bundles) == SECRET
    assert len(opened) == 1


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
    values = [max_share_size(l, PARAMS.lwe.q, token_id_bound()) for l in range(2, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_measured_shares_below_bound(dealt):
    blobs = serialize_bundles(dealt)
    bound = max_share_size(5, PARAMS.lwe.q, token_id_bound())
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
