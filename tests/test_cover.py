import itertools

import numpy as np
import pytest

from veilshare.numt import Modulus
from veilshare.setsys import SetSystem, build_grolmusz_system, merge_systems
from veilshare.cover import (
    iterated_union_form,
    multilinear_form,
    to_covering_family,
    union_size_via_F,
)

M15 = Modulus.of(15)


@pytest.fixture(scope="module")
def h15():
    return merge_systems(build_grolmusz_system(M15, 3), 2)


@pytest.fixture(scope="module")
def v15(h15):
    return to_covering_family(h15)


def popcount_intersection(system, idx):
    acc = system.sets[idx[0]].copy()
    for i in idx[1:]:
        acc &= system.sets[i]
    return int(acc.sum())


def test_singleton_family():
    rows = np.ones((1, 15), dtype=bool)
    fam = to_covering_family(SetSystem(M15, 15, rows))
    v = fam[0]
    assert v.dtype == np.int64 and int(v.sum()) == 15
    assert multilinear_form([v, v]) % 15 == 0


def test_self_products_vanish_mod_m(v15):
    prods = v15 @ v15.T
    assert (np.diag(prods) % 15 == 0).all()


def test_pairwise_products_match_intersections(v15, h15):
    prods = v15 @ v15.T
    gram = h15.gram()
    assert (prods == gram).all()
    # nonzero mod 15 except on degenerate (subset) pairs
    sizes = h15.sizes()
    iu = np.triu_indices(len(h15), k=1)
    vals = prods[iu]
    subset_pair = (vals == sizes[iu[0]]) | (vals == sizes[iu[1]])
    assert (vals[~subset_pair] % 15 != 0).all()
    assert (vals[subset_pair] % 15 == 0).all()


def test_residue_set_is_bounded(v15):
    prods = (v15 @ v15.T) % 15
    residues = set(np.unique(prods[~np.eye(len(v15), dtype=bool)]).tolist()) - {0}
    assert len(residues) <= 14
    assert all(1 <= r <= 14 for r in residues)


def test_multilinear_form_arities(v15, h15):
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        idx = rng.choice(len(h15), size=k, replace=False)
        form = multilinear_form([v15[i] for i in idx])
        assert form == popcount_intersection(h15, list(idx))


def test_multilinear_form_symmetry(v15):
    vs = [v15[i] for i in (3, 100, 400)]
    base = multilinear_form(vs)
    for perm in itertools.permutations(vs):
        assert multilinear_form(list(perm)) == base


def test_multilinear_form_disjoint_and_weight():
    a = np.zeros(10, dtype=np.int64)
    b = np.zeros(10, dtype=np.int64)
    a[:4] = 1
    b[6:] = 1
    assert multilinear_form([a]) == 4
    assert multilinear_form([a, b]) == 0
    with pytest.raises(ValueError):
        multilinear_form([a, np.ones(3, dtype=np.int64)])


def test_union_size_via_F():
    assert union_size_via_F(6, 10, 1) == 15
    assert union_size_via_F(7, 7, 7) == 7


def test_iterated_union_form_small_arities(v15):
    v = v15[10]
    w1, w2 = v15[60], v15[200]
    assert iterated_union_form(v, [w1]) == multilinear_form([v, w1])
    x = multilinear_form([v, w1])
    y = multilinear_form([v, w2])
    z = multilinear_form([v, w1, w2])
    assert iterated_union_form(v, [w1, w2]) == union_size_via_F(x, y, z)


def test_iterated_union_form_matches_bitset_oracle(v15, h15):
    rng = np.random.default_rng(11)
    for _ in range(300):
        idx = rng.choice(len(h15), size=4, replace=False)
        v = v15[idx[0]]
        ws = [v15[i] for i in idx[1:]]
        union = h15.sets[idx[1]] | h15.sets[idx[2]] | h15.sets[idx[3]]
        expect = int((h15.sets[idx[0]] & union).sum())
        assert iterated_union_form(v, ws) == expect
