"""Attacks on access-structure hiding, run as a coalition would run them.

Two attacks need no coalition: one solves a share's public matrix for
its trapdoor, the other reads a party's role off its token size.  Both
still succeed, so each is a strict xfail naming the ROADMAP item that
fixes it: the run fails once an attack stops working, and the fix
removes the marker.

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
from veilshare.tokens import combine_tokens
from veilshare.vss import (
    Secret,
    VssError,
    VssParams,
    _subset_xors,
    deal,
    header_keys,
    open_header,
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: a share's A gives away its R")
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: token size gives away role")
def test_token_size_does_not_give_away_role():
    # learn the sizes outsiders' tokens take on 20 dealings, then call every
    # other size a member's on 20 fresh ones; chance is 3 of 6 per dealing
    omega, parties = (1, 2, 3), 6

    def sizes(seeds):
        for seed in seeds:
            for bundle in deal(Secret(3, 31), [omega], parties, VssParams.desk(), seed=seed):
                yield len(bundle.instances[0].token), bundle.party in omega

    outsider_sizes = {size for size, member in sizes(range(20)) if not member}
    guesses = [(size not in outsider_sizes) == member for size, member in sizes(range(20, 40))]
    assert sum(guesses) <= 0.6 * len(guesses), f"{sum(guesses)} of {len(guesses)} roles guessed"


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
    combined = sorted(combine_tokens([s.token for s in shares]))
    key_parts = list(_subset_xors([s.key_share for s in shares]))

    def guesses():
        for r in range(len(combined) + 1):
            for dropped in itertools.combinations(combined, r):
                yield from header_keys(set(combined).difference(dropped), key_parts)

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
