"""Acceptance suite: one test per release criterion.

Every criterion builds a canonical report twice from the same seed and
requires byte-identical output; the terminal summary prints one
pass/fail line per criterion.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import criterion

from veilshare import serial
from veilshare.cli import main as cli_main
from veilshare.cover import iterated_union_form, to_covering_family
from veilshare.lattice import (
    LweParams,
    det_count_formulas,
    find_modswitch_pair,
    find_q,
    lwe_invert,
    modswitch_window_ok,
    prim_acceptance_fraction,
    sample_preimage_batch,
    trapdoor_gen,
)
from veilshare.numt import Modulus
from veilshare.rng import named_stream
from veilshare.setsys import (
    build_grolmusz_system,
    merge_systems,
    verify_restricted_intersections,
)
from veilshare.sim import SimulationConfig, run_simulation
from veilshare.tokens import default_token_systems, encode_access_structure, \
    subset_is_authorized
from veilshare.vss import (
    Secret,
    UnauthorizedError,
    VssParams,
    deal,
    max_share_size,
    reconstruct,
    serialize_bundles,
)

SEED = 20260808


def deterministic(kind, builder):
    """Build twice; the canonical bytes must agree. Returns (payload, bytes)."""
    first = builder()
    blob = serial.serialize(kind, first)
    again = serial.serialize(kind, builder())
    assert blob == again, "re-run with the same seed changed the report bytes"
    return first, blob


@pytest.fixture(scope="module")
def h15():
    return merge_systems(build_grolmusz_system(Modulus.of(15), 3), 2)


@pytest.fixture(scope="module")
def v15(h15):
    return to_covering_family(h15)


def packed_rows(system):
    return system.packed()


def popcount_and(packed, i, j, k=None):
    acc = packed[i] & packed[j]
    if k is not None:
        acc = acc & packed[k]
    return int(np.bitwise_count(acc).sum())


def test_criterion_01_set_system_construction(h15):
    with criterion("criterion-01", "set-system m=15 n=3 l=2 t=3") as entry:
        def build():
            g = build_grolmusz_system(Modulus.of(15), 3)
            h = merge_systems(g, 2)
            report = verify_restricted_intersections(h, t=3, l=2,
                                                     samples=10**6, seed=SEED)
            sizes = sorted(set(int(v) for v in h.sizes()))
            return {
                "g_sets": len(g), "h_sets": len(h),
                "g_universe": g.universe_size, "h_universe": h.universe_size,
                "size_classes": sizes,
                "sizes_divisible": bool((h.sizes() % 15 == 0).all()),
                "verify": report.to_doc(),
            }

        payload, _ = deterministic("intersection-report", build)
        assert payload["g_sets"] == 27
        assert payload["h_sets"] == 783
        assert payload["sizes_divisible"] is True
        assert payload["size_classes"] == [60, 120]
        assert payload["size_classes"][1] == 2 * payload["size_classes"][0]
        assert payload["verify"]["ok"] is True
        assert payload["verify"]["checked_pairs"] > 0
        assert payload["verify"]["checked_families"] > 0
        entry["detail"] = (f"|G|=27 |H|=783, zero violations over "
                           f"{payload['verify']['checked_pairs']} pairs and "
                           f"{payload['verify']['checked_families']} sampled triples")
    assert entry["seconds"] < 2 * 60, "single build must fit the 60s budget"


def test_criterion_02_covering_vectors(h15, v15):
    with criterion("criterion-02", "covering vectors match intersections mod 15") as entry:
        def build():
            prods = v15 @ v15.T                   # form route: integer matmul
            packed = packed_rows(h15)             # oracle route: popcounts
            n = len(h15)
            mism = 0
            checked = 0
            for i in range(n):
                acc = packed[i] & packed[i:]
                counts = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
                row = prods[i, i:]
                mism += int(((row % 15) != (counts % 15)).sum())
                mism -= int((row[0] % 15) != (counts[0] % 15))   # exclude diagonal
                checked += n - i - 1
            return {"pairs": checked, "mismatches": mism,
                    "match_rate": [checked - mism, checked]}

        payload, _ = deterministic("empty-report", build)
        assert payload["pairs"] == 783 * 782 // 2
        assert payload["mismatches"] == 0
        entry["detail"] = f"100% of {payload['pairs']} pairs agree"
    assert entry["seconds"] < 2 * 60


def test_criterion_03_inclusion_exclusion(h15, v15):
    with criterion("criterion-03", "iterated union forms vs bitset oracle") as entry:
        def build():
            rng = named_stream(SEED, "accept", "ie")
            draws = rng.integers(0, len(h15), size=(2 * 10**4, 4))
            draws = draws[(np.diff(np.sort(draws, axis=1), axis=1) > 0).all(axis=1)]
            draws = draws[: 10**4]
            bad = 0
            for row in draws:
                got = iterated_union_form(v15[int(row[0])],
                                          [v15[int(i)] for i in row[1:]])
                union = h15.sets[row[1]] | h15.sets[row[2]] | h15.sets[row[3]]
                expect = int((h15.sets[row[0]] & union).sum())
                bad += int(got != expect)
            return {"tuples": len(draws), "mismatches": bad}

        payload, _ = deterministic("empty-report", build)
        assert payload["tuples"] == 10**4
        assert payload["mismatches"] == 0
        entry["detail"] = f"{payload['tuples']} tuples, integer-exact"


def test_criterion_04_token_encoding():
    with criterion("criterion-04", "token membership matches closure at 6 parties") as entry:
        def classify(omega, seed):
            rng = named_stream(seed, "accept", "tokens", omega)
            inst = encode_access_structure(6, omega, rng)
            bits = []
            for r in range(1, 7):
                for subset in itertools.combinations(range(1, 7), r):
                    got = subset_is_authorized(inst, subset)
                    want = set(omega) <= set(subset)
                    bits.append((got, want))
            return bits

        def build():
            cases = [((1, 2, 3), SEED)]
            picker = named_stream(SEED, "accept", "omegas")
            while len(cases) < 21:
                size = int(picker.integers(1, 7))
                omega = tuple(sorted(int(v) + 1
                                     for v in picker.choice(6, size=size, replace=False)))
                cases.append((omega, SEED + len(cases)))
            total = mism = 0
            for omega, seed in cases:
                for got, want in classify(omega, seed):
                    total += 1
                    mism += int(got != want)
            return {"cases": [[list(o), s] for o, s in cases],
                    "subsets_checked": total, "mismatches": mism}

        payload, _ = deterministic("empty-report", build)
        assert payload["mismatches"] == 0
        assert payload["subsets_checked"] == 21 * 63
        entry["detail"] = "exhaustive over 2^6 subsets for 1 fixed and 20 random structures"


def test_criterion_05_prim_lwe_counting():
    with criterion("criterion-05", "PRIM-LWE counting and acceptance rate") as entry:
        def build():
            by_det = {}
            for entries in itertools.product(range(3), repeat=4):
                a, b, c, d = entries
                key = (a * d - b * c) % 3
                by_det[key] = by_det.get(key, 0) + 1
            zero, per_alpha = det_count_formulas(3, 2)

            samples = 10**5
            rng = named_stream(SEED, "accept", "prim")
            mats = rng.integers(0, 5, size=(samples, 4, 4), dtype=np.int64)
            dets = np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64) % 5
            hits = int(np.isin(dets, (2, 3)).sum())     # generators of Z_5^*
            return {"exhaustive": {str(k): v for k, v in sorted(by_det.items())},
                    "formula": [zero, per_alpha],
                    "mc": [hits, samples]}

        payload, _ = deterministic("empty-report", build)
        assert payload["formula"] == [33, 24]
        assert payload["exhaustive"] == {"0": 33, "1": 24, "2": 24}
        hits, samples = payload["mc"]
        target = 0.380
        se = math.sqrt(target * (1 - target) / samples)
        assert abs(hits / samples - target) < 3 * se
        assert abs(float(prim_acceptance_fraction(5, 4)) - target) < 1e-3
        entry["detail"] = (f"det counts (33,24) exact; acceptance "
                           f"{hits}/{samples} vs 0.380 within 3 SE")


def test_criterion_06_trapdoor_roundtrip():
    with criterion("criterion-06", "trapdoor inversion and preimage sampling") as entry:
        params = LweParams(n=4, p=31, q=find_q(31, 23))

        def build():
            trap = trapdoor_gen(params, rng=named_stream(SEED, "accept", "trap"))
            rng = named_stream(SEED, "accept", "plant")
            bound = params.inversion_bound
            recovered = 0
            for _ in range(100):
                s = rng.integers(0, params.q, size=(4, 4), dtype=np.int64)
                e = rng.integers(-bound, bound + 1, size=(params.w, 4), dtype=np.int64)
                b = np.mod(trap.A.astype(object) @ s.astype(object) + e, params.q)
                s_rec, e_rec = lwe_invert(trap, np.asarray(b, dtype=np.int64))
                recovered += int((s_rec == s).all() and (e_rec == e).all())

            targets = rng.integers(0, params.q, size=(1000, 4), dtype=np.int64)
            d = sample_preimage_batch([trap], [targets], rng)[0]
            exact = int((np.mod(d.astype(object) @ trap.A.astype(object), params.q)
                         == targets).all())
            max_norm = int(np.abs(d).max())
            return {"inversions": [recovered, 100],
                    "preimages_exact": [1000 * exact, 1000],
                    "max_norm": max_norm,
                    "cap": int(params.encoding_cap)}

        payload, _ = deterministic("empty-report", build)
        assert payload["inversions"] == [100, 100]
        assert payload["preimages_exact"] == [1000, 1000]
        assert payload["max_norm"] < payload["cap"]
        entry["detail"] = (f"100/100 inversions, 1000/1000 exact preimages, "
                           f"norms < {payload['cap']}")


def test_criterion_07_modulus_switching():
    with criterion("criterion-07", "modulus switching window at p=31") as entry:
        p = 31
        q, q_prime = find_modswitch_pair(p)

        def roundtrip_exact(val, num, den):
            # round(val * num / den), half away from zero, exact integers
            sign = -1 if val < 0 else 1
            mag = abs(val)
            return sign * ((2 * mag * num + den) // (2 * den))

        def build():
            assert modswitch_window_ok(p, q, q_prime)
            rng = named_stream(SEED, "accept", "ms")
            fails = 0
            for _ in range(10**4):
                a = int(rng.integers(-(p - 1), p))
                up = roundtrip_exact(a, q_prime, q)
                down = roundtrip_exact(a, q, q_prime)
                fails += int(up != a or down != a)
            # non-compliant ratio: q/q' below (2p-1)/2p must break something
            bad_c, bad_cp = 983 - 3, 1000
            assert not modswitch_window_ok(p, p * bad_c, p * bad_cp)
            bad_fail = 0
            for a in range(-(p - 1), p):
                got = roundtrip_exact(a, p * bad_cp, p * bad_c)
                back = roundtrip_exact(a, p * bad_c, p * bad_cp)
                bad_fail += int(got != a or back != a)
            return {"q": q, "q_prime": q_prime,
                    "compliant_failures": fails,
                    "noncompliant_failures": bad_fail}

        payload, _ = deterministic("empty-report", build)
        assert payload["compliant_failures"] == 0
        assert payload["noncompliant_failures"] >= 1
        entry["detail"] = (f"(q,q')=({q},{q_prime}): 10^4 roundtrips clean; "
                           f"bound active ({payload['noncompliant_failures']} "
                           "failures off-window)")


def test_criterion_08_end_to_end_vss():
    with criterion("criterion-08", "end-to-end VSS at l=5, p=31") as entry:
        params = VssParams.desk()
        secret = Secret(3, 31)

        def build():
            bundles = deal(secret, [(1, 2, 3)], 5, params, seed=SEED)
            classified = []
            for r in range(0, 6):
                for subset in itertools.combinations(range(1, 6), r):
                    chosen = [b for b in bundles if b.party in subset]
                    want = {1, 2, 3} <= set(subset)
                    try:
                        got_secret = reconstruct(chosen)
                        got = got_secret == secret
                    except UnauthorizedError:
                        got = False
                    classified.append([list(subset), want, got])
            sim = run_simulation(SimulationConfig(
                secret_k=3, parties=5, gamma0=((1, 2, 3),), malicious=1,
                mode="encoding", trials=1000, seed=SEED, params=params))
            return {"classified": classified, "totals": sim.totals}

        payload, _ = deterministic("empty-report", build)
        assert all(want == got for _, want, got in payload["classified"])
        assert len(payload["classified"]) == 32
        accepted, checks = payload["totals"]["acceptance_rate"]
        assert checks == 1000
        assert 0.5 / 30 <= accepted / checks <= 2 / 30, (accepted, checks)
        entry["detail"] = (f"32/32 coalitions classified; per-check acceptance "
                           f"{accepted}/{checks} within [0.5/30, 2/30]")
    assert entry["seconds"] < 2 * 300, "single run must fit the 5 min budget"


def test_criterion_09_share_size_bound():
    with criterion("criterion-09", "share bytes under the size bound") as entry:
        params = VssParams.desk()
        secret = Secret(3, 31)

        def build():
            bundles = deal(secret, [(1, 2, 3)], 5, params, seed=SEED + 9)
            blobs = serialize_bundles(bundles)
            # token system universe plus |Omega| + kappa tags
            universe = default_token_systems().universe_size + 3 + 2
            bound = max_share_size(5, params.lwe.q, universe)
            return {"lengths": [len(b) for b in blobs], "bound": bound}

        payload, _ = deterministic("empty-report", build)
        lengths = payload["lengths"]
        assert len(set(lengths)) == 1, "share byte lengths must be identical"
        assert all(v <= payload["bound"] for v in lengths)
        entry["detail"] = f"all 5 shares {lengths[0]} bytes <= bound {payload['bound']}"


def test_criterion_10_determinism(tmp_path):
    with criterion("criterion-10", "seeded runs are byte-identical") as entry:
        from conftest import ACCEPTANCE

        done = [k for k in ACCEPTANCE if k != "criterion-10"]
        assert all(ACCEPTANCE[k]["status"] == "PASS" for k in done), \
            "a prior criterion failed; determinism claim not established"
        # every criterion above already rebuilt its report from the same
        # seed and compared bytes; close the loop at the CLI layer too
        for sub in ("a", "b"):
            code = cli_main(["--seed", "77", "--quiet", "deal", "--secret", "3",
                             "--gamma0", "1,2", "--parties", "3",
                             "--outdir", str(tmp_path / sub)])
            assert code == 0
        for name in ("share_001.json", "share_002.json", "share_003.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        entry["detail"] = f"{len(done)} criteria double-built byte-identically, CLI included"
