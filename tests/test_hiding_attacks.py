"""Attacks on access-structure hiding, run as a coalition would run them.

Five attacks need no coalition: two solve a share's public matrices
for its trapdoor, two read a party's role, one off its token size and
one off its encoding, and one reads |Omega| and |Gamma0| off byte lengths.
A sixth has two parties invert the link between them, and a seventh test
counts the honest parties that verification blames next to a cheater.
All seven still succeed, so each is a strict xfail on its AssertionError
naming the ROADMAP item that fixes it: the run fails once an attack stops
working, and the fix removes the marker.

Each instance's header is sealed under SHA-256(domain | K2 | gamma(H)),
where K2 is the XOR of the Omega members' key shares.  Every token is a
superset of gamma(H), so a coalition guesses gamma(H) by dropping
r = 0, 1, 2, ... elements of its combined token, and guesses K2 as the XOR
of a nonempty subset of its own key shares.  With at most 2^12 keys per
coalition, no unauthorized coalition may open a header; the same search
run by Omega itself must.
"""

import itertools

import numpy as np
import pytest

from veilshare.lattice import TrapdoorMatrix, centered, det_int, gadget_matrix
from veilshare.rng import named_stream
from veilshare.sim import SimulationConfig, run_simulation
from veilshare.tokens import combine_tokens, token_ids
from veilshare.vss import (
    Secret,
    VssError,
    VssParams,
    _subset_xors,
    deal,
    header_keys,
    open_header,
    serialize_bundles,
)

CAP = 2**12


def inverse_mod(mat, q):
    """mat^-1 mod q through the adjugate, or None when det(mat) is no unit mod q."""
    n = mat.shape[0]
    try:
        det_inv = pow(det_int(mat) % q, -1, q)
    except ValueError:
        return None
    adj = [[(-1) ** (i + j) * det_int(np.delete(np.delete(mat, i, 0), j, 1))
            for i in range(n)] for j in range(n)]
    return np.array(adj, dtype=object) * det_inv % q


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: a share's A gives away its R")
def test_no_share_gives_away_its_trapdoor_from_a():
    # A = [A_bar; G - R A_bar], so R = (G - A_bottom) A_bar^-1 wherever A_bar
    # is invertible mod q; a share gives R away when that R is short
    params = VssParams.desk()
    lwe = params.lwe
    g = gadget_matrix(lwe.n, lwe.d).astype(object)
    recovered = []
    for seed in range(10):
        for bundle in deal(Secret(3, 31), [(1, 2, 3)], 5, params, seed=seed):
            a = bundle.instances[0].a_matrix
            a_bar_inv = inverse_mod(a[:lwe.w_bar].astype(object), lwe.q)
            if a_bar_inv is None:
                continue
            r = centered((g - a[lwe.w_bar:].astype(object)).dot(a_bar_inv) % lwe.q, lwe.q)
            r = r.astype(np.int64)
            if np.abs(r).max() < lwe.error_cap \
                    and not TrapdoorMatrix(lwe, a, r).relation_residual().any():
                recovered.append((seed, bundle.party))
    assert not recovered, f"{len(recovered)} of 50 shares gave away R"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: D = [ZR | Z] gives away R")
def test_no_share_gives_away_its_trapdoor_from_d():
    # an unperturbed preimage is D = [Z R | Z], so least squares on its two
    # column blocks returns R; a share gives R away when that solve is integral
    # and short, decoys included
    params = VssParams.desk()
    lwe = params.lwe
    recovered, total = [], 0
    for seed in range(5):
        for bundle in deal(Secret(3, 31), [(1, 2, 3)], 5, params, seed=seed):
            for inst in bundle.instances:
                d = inst.d_matrix.astype(np.float64)
                x = np.linalg.lstsq(d[:, lwe.w_bar:], d[:, :lwe.w_bar], rcond=None)[0]
                r = np.rint(x)
                total += 1
                if np.abs(x - r).max() < 1e-6 and np.abs(r).max() < lwe.error_cap:
                    recovered.append((seed, bundle.party, inst.instance_id))
    assert not recovered, f"{len(recovered)} of {total} shares gave away R"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: token size gives away role")
def test_token_size_does_not_give_away_role():
    # learn the sizes outsiders' tokens take on 20 dealings, then call every
    # other size a member's on 20 fresh ones; chance is 3 of 6 per dealing
    omega, parties = (1, 2, 3), 6

    def sizes(seeds):
        for seed in seeds:
            for bundle in deal(Secret(3, 31), [omega], parties, VssParams.desk(), seed=seed):
                yield bundle.instances[0].token.bit_count(), bundle.party in omega

    outsider_sizes = {size for size, member in sizes(range(20)) if not member}
    guesses = [(size not in outsider_sizes) == member for size, member in sizes(range(20, 40))]
    assert sum(guesses) <= 0.6 * len(guesses), f"{sum(guesses)} of {len(guesses)} roles guessed"


# nine structures over five parties: |Gamma0| and each |Omega| run over 1, 2, 3
GAMMAS = [[(1,)], [(1, 2)], [(1, 2, 3)],
          [(1,), (2, 3)], [(1, 2), (3, 4, 5)], [(1, 2, 3), (4,)],
          [(1,), (2,), (3, 4, 5)], [(1, 2), (3, 4), (5,)], [(1, 2, 3), (4,), (5,)]]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: lengths give away |Omega| and |Gamma0|")
def test_lengths_do_not_give_away_the_structure():
    # an attacker deals 100 structures of its own and learns which header_ct
    # length goes with which |Omega| and which share length with which
    # |Gamma0|, then reads 100 fresh dealings off the nearest length it saw.
    # Always guessing the commonest size scores about 4 of 9 and 1 of 3
    headers, shares = [], []
    for seed in range(200):
        gamma0 = GAMMAS[seed % len(GAMMAS)]
        bundles = deal(Secret(3, 31), gamma0, 5, VssParams.desk(), seed=seed)
        shares.append((seed, len(serialize_bundles(bundles)[0]), len(gamma0)))
        headers += [(seed, len(inst.header_ct), len(omega))
                    for omega, inst in zip(gamma0, bundles[0].instances)]

    def read_off(samples):
        seen = [(n, size) for seed, n, size in samples if seed < 100]
        fresh = [(n, size) for seed, n, size in samples if seed >= 100]
        right = sum(min(seen, key=lambda s: abs(s[0] - n))[1] == size for n, size in fresh)
        return right, len(fresh)

    (omega_right, omegas), (gamma_right, gammas) = read_off(headers), read_off(shares)
    assert omega_right <= 0.6 * omegas and gamma_right <= 0.6 * gammas, \
        f"{omega_right} of {omegas} |Omega| and {gamma_right} of {gammas} |Gamma0| read off lengths"


def link_products(d, lwe):
    """T = D[:, w_bar:] G mod q, which is D A for a preimage D = [Z R | Z] of any A."""
    g = gadget_matrix(lwe.n, lwe.d)
    return d[:, lwe.w_bar:] @ g % lwe.q


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 16 and 4: one share gives away its role")
def test_one_share_does_not_give_away_its_role():
    # a member's T is A_next S^e + E, and A_next = [A_bar; G - R A_bar], so
    # bottom row w_bar + i*d plus r T_top lands near row i of S^e (entries
    # in [0, p)) for r = row i*d of R_next, which is short; a decoy's T is
    # uniform.  A share is called a member's when every i has such an r in
    # [-8, 8]^4.  The test reads only d; chance is 24 of 40 (always "member")
    params = VssParams.desk()
    lwe = params.lwe
    rs = np.indices((17,) * lwe.n).reshape(lwe.n, -1).T - 8
    right = 0
    for seed in range(8):
        for bundle in deal(Secret(3, 31), [(1, 2, 3)], 5, params, seed=seed):
            t = link_products(bundle.instances[0].d_matrix, lwe)
            shifts = rs @ t[:lwe.w_bar]
            near = [((c >= -128) & (c <= 160)).all(axis=1).any()
                    for c in (centered(t[lwe.w_bar + i * lwe.d] + shifts, lwe.q)
                              for i in range(lwe.n))]
            right += all(near) == (bundle.party in (1, 2, 3))
    assert right <= 30, f"{right} of 40 roles read off one share"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 16 and 4: an adjacent pair inverts its link")
def test_no_pair_inverts_a_link():
    # party i's T_i = D_i A_i is A_{i+1} S^{e_i} + E when party i+1 follows i
    # in the chain, so the pair finds X = S^{e_i} mod p by trying every X in
    # [0, p)^n column by column against party j's A: screened on the first
    # row, then checked on all, residuals within 64.  Item 16 takes A out of
    # the share, and this test must then be rewritten
    params = VssParams.desk()
    lwe = params.lwe
    xs = np.indices((lwe.p,) * lwe.n).reshape(lwe.n, -1).T
    inverted = []
    for seed in range(3):
        shares = {b.party: b.instances[0]
                  for b in deal(Secret(3, 31), [(1, 2, 3)], 5, params, seed=seed)}
        ts = {i: link_products(share.d_matrix, lwe) for i, share in shares.items()}
        for j, share in shares.items():
            a = share.a_matrix
            first = xs @ a[0] % lwe.q
            for i, t in ts.items():
                if i == j:
                    continue
                found = []
                for col in t.T:
                    screened = xs[np.abs(centered(first - col[0], lwe.q)) <= 64]
                    found.append(any((np.abs(centered(a @ x - col, lwe.q)) <= 64).all()
                                     for x in screened))
                if all(found):
                    inverted.append((seed, i, j))
    assert not inverted, f"{len(inverted)} of 60 ordered pairs inverted a link"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: verdicts blame honest parties")
def test_verification_does_not_blame_honest_chain_members():
    # one chain member's encoding is forged per trial; each honest member's
    # verdict 0 is a false accusation.  Item 5 aims at about 1/(p-1) of the
    # corrupted trials, 4 of 120; allow three times that
    report = run_simulation(SimulationConfig(trials=120, seed=3, mode="encoding",
                                             malicious=1))
    honest = [v for trial in report.trials if trial["verdicts"] is not None
              for p, v in trial["verdicts"].items()
              if int(p) in (1, 2, 3) and int(p) not in trial["malicious"]]
    accused = honest.count(0)
    assert len(honest) == 240
    assert accused <= 12, f"{accused} of {len(honest)} honest chain members got verdict 0"


def dealings():
    """(parties, Omega, seed): Omega = (1,2,3) at l = 5 on two seeds, three random Omega at l = 6.

    Random Omega have two or three members: one member leaves no part of
    Omega to collude, and three is the longest chain the desk profile deals.
    """
    cases = [(5, (1, 2, 3), seed) for seed in (0, 1)]
    rng = named_stream(0, "hiding", "omegas")
    for i in range(3):
        size = int(rng.integers(2, 4))
        omega = tuple(sorted(int(v) + 1 for v in rng.choice(6, size=size, replace=False)))
        cases.append((6, omega, 100 + i))
    for parties, omega, seed in cases:
        label = "".join(str(p) for p in omega)
        yield pytest.param(parties, omega, seed, id=f"l{parties}-omega{label}-seed{seed}")


def coalitions(parties):
    for r in range(1, parties + 1):
        yield from itertools.combinations(range(1, parties + 1), r)


def instance_shares(parties, omega, seed):
    bundles = deal(Secret(3, 31), [omega], parties, VssParams.desk(), seed=seed)
    return {b.party: b.instances[0] for b in bundles}


def keys_tried_to_open(shares) -> int | None:
    """Keys tried before the coalition's header opened; None if CAP keys all failed."""
    combined = combine_tokens([s.token for s in shares])
    ids = token_ids(combined)
    key_parts = list(_subset_xors([s.key_share for s in shares]))

    def guesses():
        for r in range(len(ids) + 1):
            for dropped in itertools.combinations(ids, r):
                yield from header_keys(combined & ~sum(1 << e for e in dropped), key_parts)

    tried = 0

    def counted():
        nonlocal tried
        for key in itertools.islice(guesses(), CAP):
            tried += 1
            yield key

    try:
        open_header(counted(), shares[0].instance_id, shares[0].header_ct)
    except VssError:
        assert tried == CAP
        return None
    return tried


@pytest.mark.parametrize("parties,omega,seed", dealings())
def test_no_unauthorized_coalition_opens_the_header(parties, omega, seed):
    shares = instance_shares(parties, omega, seed)
    opened = []
    for coalition in coalitions(parties):
        if set(omega) <= set(coalition):
            continue
        tried = keys_tried_to_open([shares[p] for p in coalition])
        if tried is not None:
            opened.append((coalition, tried))
    assert not opened


@pytest.mark.parametrize("parties,omega,seed", dealings())
def test_omega_opens_the_header_at_once(parties, omega, seed):
    # the positive control: the same search finds K2 among Omega's own subset XORs
    shares = instance_shares(parties, omega, seed)
    tried = keys_tried_to_open([shares[p] for p in omega])
    assert tried is not None and tried <= 2 ** len(omega) - 1
