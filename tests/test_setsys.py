import itertools

import numpy as np
import pytest

from veilshare.numt import Modulus, eval_univariate, poly_eval  # noqa: F401
from veilshare.setsys import (
    SetSystem,
    build_bbr_core_values,
    build_bbr_polynomial,
    build_grolmusz_system,
    merge_layout,
    merge_systems,
    universe_bound_applies,
    verify_restricted_intersections,
)

M15 = Modulus.of(15)


def as_pysets(system):
    return [frozenset(np.flatnonzero(row)) for row in system.sets]


def test_bbr_core_values_m15_n3():
    # oracle: CRT assembly of y^2 mod 3 and y^4 mod 5 evaluated directly
    expected = []
    for y in range(4):
        expected.append(next(v for v in range(15)
                             if v % 3 == pow(y, 2, 3) and v % 5 == pow(y, 4, 5)))
    assert expected == [0, 1, 1, 6]
    assert build_bbr_core_values(M15, 3) == expected
    # same values from the closed form 10y^2 + 6y^4 mod 15
    assert [eval_univariate([0, 0, 10, 0, 6], y) % 15 for y in range(4)] == expected


@pytest.mark.parametrize("m,n", [(15, 2), (15, 3), (15, 4), (21, 3), (33, 3), (35, 2), (105, 3)])
def test_bbr_polynomial_conditions(m, n):
    mod = Modulus.of(m)
    q = build_bbr_polynomial(mod, n)
    for bits in range(2**n):
        x = [(bits >> i) & 1 for i in range(n)]
        v = poly_eval(q, x)
        if all(x):
            assert v == 0
        else:
            assert v != 0
            for p in mod.primes:
                assert v % p in (0, 1)


def test_bbr_all_zero_point_value_m15_n3():
    q = build_bbr_polynomial(M15, 3)
    assert poly_eval(q, (0, 0, 0)) == 6
    # one zero coordinate flipped: two zeros left, oracle 10*2^2 + 6*2^4 mod 15
    assert poly_eval(q, (1, 0, 0)) == eval_univariate([0, 0, 10, 0, 6], 2) % 15 == 1


def test_bbr_degree_bound_kicks_in():
    # m=15, n=9: exponents are 2 for p=3 and 1 for p=5, so degree <= 8 < 9
    q = build_bbr_polynomial(M15, 9)
    assert q.degree() <= 8


def test_bbr_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_bbr_polynomial(Modulus.of(7), 3)       # single prime
    with pytest.raises(ValueError):
        build_bbr_polynomial(M15, 0)


def test_grolmusz_params_validation():
    g = build_grolmusz_system(M15, 3)
    merge_systems(g, 2)
    with pytest.raises(ValueError):
        merge_systems(g, 3)                          # l not below min prime


@pytest.fixture(scope="module")
def g15():
    return build_grolmusz_system(M15, 3)


@pytest.fixture(scope="module")
def h15(g15):
    return merge_systems(g15, 2)


def test_grolmusz_counts_and_sizes(g15):
    assert len(g15) == 27
    sizes = g15.sizes()
    assert (sizes == 60).all()
    assert (sizes % 15 == 0).all()


def test_grolmusz_full_intersection_nonzero(g15):
    common = g15.sets.all(axis=0).sum()
    assert common == 6
    assert common % 15 != 0


def test_grolmusz_pairwise_matches_polynomial_side(g15):
    # set-side counts vs polynomial-side prediction at the agreement pattern
    q = build_bbr_polynomial(M15, 3)
    mono_int = {mono: c for mono, c in q.coeffs.items()}
    labels = g15.labels
    sets = as_pysets(g15)
    for i, j in itertools.combinations(range(27), 2):
        z = [1 if labels[i][k] == labels[j][k] else 0 for k in range(3)]
        predicted = sum(c for mono, c in mono_int.items() if all(z[v] for v in mono))
        got = len(sets[i] & sets[j])
        assert got == predicted
        assert got % 15 != 0
        assert got % 3 in (0, 1) and got % 5 in (0, 1)


def test_merge_counts(h15, g15):
    assert len(h15) == 27**2 + 2 * 27 == 783
    assert h15.universe_size == 2 * g15.universe_size == 948
    sizes = h15.sizes()
    assert sorted(set(int(v) for v in sizes)) == [60, 120]
    assert (sizes % 15 == 0).all()


def test_merge_superset_subset_counts(h15):
    gram = h15.gram()
    sizes = h15.sizes()
    proper_supersets = ((gram == sizes[:, None]) & (sizes[:, None] < sizes[None, :])).sum(axis=1)
    proper_subsets = ((gram == sizes[None, :]) & (sizes[None, :] < sizes[:, None])).sum(axis=1)
    small = sizes == 60
    assert (proper_supersets[small] == 27).all()
    assert (proper_subsets[small] == 0).all()
    assert (proper_supersets[~small] == 0).all()
    assert (proper_subsets[~small] == 2).all()
    # the layout merge_systems writes names the same designated sets and
    # supersets that the Gram matrix finds, row for row
    l, supersets = merge_layout(h15)
    assert l == 2
    candidates = np.flatnonzero((proper_supersets == 27) & (proper_subsets == 0))
    assert list(supersets) == candidates.tolist()
    for i in candidates:
        reference = np.flatnonzero((gram[i] == sizes[i]) & (sizes > sizes[i]))
        assert np.array_equal(supersets[i], reference)


def test_merge_layout_refuses_other_systems(g15, h15):
    with pytest.raises(ValueError):
        merge_layout(g15)
    shuffled = SetSystem(M15, h15.universe_size, h15.sets, labels=h15.labels[::-1])
    with pytest.raises(ValueError):
        merge_layout(shuffled)


def test_merge_rejects_degenerate_core():
    rows = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=bool)
    bad = SetSystem(Modulus.of(15), 6, rows)
    with pytest.raises(ValueError):
        merge_systems(bad, 2)


def test_verify_clean_system(h15):
    report = verify_restricted_intersections(h15, t=3, l=2, samples=10**5, seed=7)
    assert report.ok
    assert report.checked_pairs > 0
    assert report.checked_families > 0
    assert report.size_classes == [60, 120]


def test_verify_spots_violation():
    # sizes 15 and 15, intersection 0 = 0 mod 15: a genuine violation
    rows = np.zeros((2, 30), dtype=bool)
    rows[0, :15] = True
    rows[1, 15:] = True
    bad = SetSystem(M15, 30, rows)
    report = verify_restricted_intersections(bad, t=2, samples=10)
    assert not report.ok
    assert any(v["kind"] == "pair" for v in report.violations)


def test_verify_single_set_vacuous():
    rows = np.ones((1, 15), dtype=bool)
    report = verify_restricted_intersections(SetSystem(M15, 15, rows), t=3, samples=10)
    assert report.ok


def test_verify_exempts_degenerate_pairs():
    rows = np.zeros((2, 45), dtype=bool)
    rows[0, :15] = True
    rows[1, :30] = True       # superset; intersection 15 = 0 mod 15 but exempt
    report = verify_restricted_intersections(SetSystem(M15, 45, rows), t=2, samples=10)
    assert report.ok
    assert report.skipped_degenerate == 1


def test_universe_bound_precondition_is_desk_scale_false():
    assert not universe_bound_applies(M15, 3)
