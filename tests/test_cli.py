import base64
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilshare import serial
from veilshare.cli import main
from veilshare.numt import Modulus
from veilshare.setsys import build_grolmusz_system, merge_systems
from veilshare.sim import SimulationConfig, run_simulation
from veilshare.vss import VssParams


# ---------------------------------------------------------------------------
# canonical serialization


def test_empty_report_fixed_bytes():
    blob = serial.serialize("empty-report", {})
    assert blob == b'{"payload":{},"schema":"empty-report","version":4}\n'
    assert serial.deserialize(blob, "empty-report") == {}


def test_set_system_roundtrip_783():
    system = merge_systems(build_grolmusz_system(Modulus.of(15), 3), 2)
    blob = serial.serialize("set-system", serial.set_system_doc(system))
    back = serial.doc_set_system(serial.deserialize(blob, "set-system"))
    assert back.universe_size == system.universe_size
    assert (back.sets == system.sets).all()
    assert serial.serialize("set-system", serial.set_system_doc(back)) == blob


def test_corrupted_bytes_raise_cleanly():
    blob = serial.serialize("empty-report", {"a": 1})
    with pytest.raises(serial.SerializationError):
        serial.deserialize(blob[:-8])
    with pytest.raises(serial.SerializationError):
        serial.deserialize(b"\xff\x00garbage")


def test_version_and_schema_mismatch():
    doc = json.loads(serial.serialize("empty-report", {}).decode())
    doc["version"] = 9
    with pytest.raises(serial.SerializationError):
        serial.deserialize(json.dumps(doc).encode())
    with pytest.raises(serial.SerializationError):
        serial.serialize("no-such-kind", {})
    with pytest.raises(serial.SerializationError):
        serial.deserialize(serial.serialize("empty-report", {}), "sim-report")


def test_floats_rejected():
    with pytest.raises(serial.SerializationError):
        serial.serialize("empty-report", {"rate": 0.5})


def test_set_system_doc_bounds_checked():
    payload = {"m": 15, "universe_size": 10, "sets": [[0, 3, 11]], "labels": []}
    with pytest.raises(serial.SerializationError):
        serial.doc_set_system(payload)
    with pytest.raises(serial.SerializationError):
        serial.doc_set_system({"m": 15})


MATRIX = np.array([[1, -2, 3]])          # 3 bits each: 9 bits, 7 pad bits
MATRIX_DOC = serial.matrix_doc(MATRIX)
MATRIX_BYTES = base64.b64decode(MATRIX_DOC["b64"])


def test_matrix_width_enforced():
    doc = serial.matrix_doc(np.array([[1, 2], [3, 4]]))
    assert doc["bits"] == 4
    assert (serial.doc_matrix(doc) == [[1, 2], [3, 4]]).all()
    with pytest.raises(serial.SerializationError):
        serial.matrix_doc(np.array([[2**63]], dtype=object))
    for bits in (0, 65, True):
        with pytest.raises(serial.SerializationError):
            serial.doc_matrix({**doc, "bits": bits})
    # 1, -2, 3 as 3-bit fields, low bit first: 100 011 110 -> 0xF1 0x00
    assert MATRIX_DOC == {"rows": 1, "cols": 3, "bits": 3, "b64": "8QA="}
    assert (serial.doc_matrix(MATRIX_DOC) == MATRIX).all()


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def packed_by_loop(mat, bits: int) -> str:
    """Reference packing: each entry's low `bits` bits, least significant first."""
    stream = "".join(format(int(v) & ((1 << bits) - 1), f"0{bits}b")[::-1]
                     for v in np.asarray(mat).flat)
    stream += "0" * (-len(stream) % 8)
    return _b64(bytes(int(stream[i: i + 8][::-1], 2) for i in range(0, len(stream), 8)))


def signed_width_by_loop(mat) -> int:
    return max((int(v).bit_length() if v >= 0 else (-int(v) - 1).bit_length()) + 1
               for v in [0, *np.asarray(mat).flat])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 130), st.integers(0, 130), st.integers(1, 64),
       st.integers(0, 2**32 - 1))
def test_matrix_doc_roundtrip(rows, cols, width, seed):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    rng = np.random.default_rng(seed)
    mat = rng.integers(lo, hi, size=(rows, cols), dtype=np.int64, endpoint=True)
    if mat.size:
        mat.flat[seed % mat.size] = lo if seed & 1 else hi
    doc = serial.matrix_doc(mat)
    assert doc["bits"] == signed_width_by_loop(mat) == (width if mat.size else 1)
    assert doc["b64"] == packed_by_loop(mat, doc["bits"])
    back = serial.doc_matrix(doc)
    assert back.dtype == np.int64 and back.shape == (rows, cols)
    assert (back == mat).all()
    assert serial.matrix_doc(back) == doc


HOSTILE_MATRIX_DOCS = {
    **{f"{field}={value!r}": {field: value}
       for field in ("rows", "cols", "bits") for value in (1.0, "1", True)},
    "no bits": {"bits": None},
    "no b64": {"b64": None},
    "rows=-1": {"rows": -1},
    "rows=-1,cols=-3": {"rows": -1, "cols": -3},
    "b64 non-alphabet": {"b64": MATRIX_DOC["b64"][:-1] + "*"},
    "b64 whitespace": {"b64": " " + MATRIX_DOC["b64"]},
    "b64 non-ascii": {"b64": "\u00e9" * 4},
    "b64 a list": {"b64": list(MATRIX_BYTES)},
    "b64 non-canonical": {"b64": MATRIX_DOC["b64"][:2] + "B="},
    "one byte short": {"b64": _b64(MATRIX_BYTES[:-1])},
    "one byte long": {"b64": _b64(MATRIX_BYTES + b"\x00")},
    "nonzero pad bit": {"b64": _b64(MATRIX_BYTES[:-1] + bytes([MATRIX_BYTES[-1] | 0x80]))},
    "bits not minimal": {"bits": 4, "b64": packed_by_loop(MATRIX, 4)},
    "absurd empty shape": {"rows": 10**30, "cols": 0, "bits": 1, "b64": ""},
}


@pytest.mark.parametrize("change", HOSTILE_MATRIX_DOCS.values(), ids=HOSTILE_MATRIX_DOCS)
def test_matrix_doc_hostile(change):
    doc = {k: v for k, v in {**MATRIX_DOC, **change}.items() if v is not None}
    with pytest.raises(serial.SerializationError):
        serial.doc_matrix(doc)


def test_matrix_doc_write_range():
    serial.matrix_doc(np.array([[-(2**63), 2**63 - 1]], dtype=object))
    for value in (2**63, -(2**63) - 1):
        with pytest.raises(serial.SerializationError):
            serial.matrix_doc(np.array([[value]], dtype=object))


def test_matrix_doc_unpacks_only_the_planes_it_writes():
    # a 124 x 124 encoding of 9-bit entries, as dealt at l = 6; unpacking all
    # 64 bit planes of each entry would take 64 bytes per entry
    d = np.random.default_rng(0).integers(-256, 256, size=(124, 124))
    tracemalloc.start()
    try:
        doc = serial.matrix_doc(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc["bits"] == 9
    assert peak < 32 * d.size, f"{peak / d.size:.1f} B per entry"


# ---------------------------------------------------------------------------
# simulation harness


SMALL = VssParams.desk()


def test_simulation_zero_malicious():
    report = run_simulation(SimulationConfig(
        parties=4, gamma0=((1, 2),), malicious=0, trials=10, seed=5, params=SMALL))
    assert report.totals["ok"] == 10
    assert report.totals["detected"] == 0
    assert report.totals["corrupted_trials"] == 0


def test_simulation_token_tamper_unauthorized_coalition():
    report = run_simulation(SimulationConfig(
        parties=4, gamma0=((1, 2),), coalition=(2, 3, 4), malicious=1,
        mode="token", trials=20, seed=6, params=SMALL))
    assert report.totals["unauthorized"] == 20


def test_simulation_encoding_corruption_detection():
    report = run_simulation(SimulationConfig(
        parties=4, gamma0=((1, 2, 3),), malicious=1, mode="encoding",
        trials=40, seed=7, params=SMALL))
    assert report.totals["corrupted_trials"] == 40
    assert report.totals["detected"] >= 32
    num, den = report.totals["acceptance_rate"]
    assert den == 40 and num <= 8


def test_simulation_rejects_bad_config():
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(parties=4, malicious=4, trials=2,
                                        coalition=(1, 2, 3, 4), params=SMALL))
    with pytest.raises(ValueError):
        run_simulation(SimulationConfig(mode="nonsense", trials=2, params=SMALL))


def test_simulation_deterministic():
    cfg = SimulationConfig(parties=4, gamma0=((1, 2),), malicious=1,
                           trials=6, seed=11, params=SMALL)
    a = run_simulation(cfg).to_doc()
    b = run_simulation(cfg).to_doc()
    assert serial.serialize("sim-report", a) == serial.serialize("sim-report", b)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_setsys_build_and_verify(tmp_path, capsys):
    out = tmp_path / "h15.json"
    assert run_cli("setsys", "build", "--m", "15", "--n", "3", "--l", "2",
                   "--t", "3", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("setsys", "verify", str(out), "--samples", "2000") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["ok"] is True
    assert report["payload"]["set_count"] == 783


def test_cli_setsys_verify_flags_violations(tmp_path, capsys):
    payload = {"m": 15, "universe_size": 30,
               "sets": [list(range(15)), list(range(15, 30))], "labels": [], "t": 2}
    (tmp_path / "bad.json").write_bytes(serial.serialize("set-system", payload))
    assert run_cli("setsys", "verify", str(tmp_path / "bad.json")) == 3


def test_cli_setsys_verify_rejects_malformed_files(tmp_path, capsys):
    good = {"m": 15, "universe_size": 30,
            "sets": [list(range(15)), list(range(15, 30))], "labels": [], "t": 2}
    # a prime modulus of 2**61-1 would stall trial division for minutes
    # a universe of 10**15 or 2**62 elements would be allocated before any set is read
    for change in ({"m": 2**61 - 1}, {"labels": 5}, {"sets": [[1.5, 2]]},
                   {"sets": [[1, True]]}, {"sets": 5},
                   {"universe_size": 10**15, "sets": [[1, 2]]},
                   {"universe_size": 2**62, "sets": [[1, 2]]}):
        # plain json.dumps, since serialize refuses to write the float
        (tmp_path / "bad.json").write_text(json.dumps(
            {"schema": "set-system", "version": serial.VERSION,
             "payload": {**good, **change}}))
        assert run_cli("setsys", "verify", str(tmp_path / "bad.json")) == 2, change
        assert capsys.readouterr().err.startswith("invalid:")


def test_cli_set_systems_stay_within_the_cell_budget(tmp_path, capsys):
    # refused before allocating: n = 4 merges 66,048 sets over 5,730 elements,
    # n = 8 lists 8**8 sets over 86.7 M elements, n = 9 (9**9 sets) was
    # killed by the kernel, and m = 3 * (10**9 + 7) has polynomial
    # coefficients near 10**9, each a run of copies to list; the file
    # declares 8,193 sets over 8,192 elements
    for m, n in ((15, 4), (15, 8), (15, 9), (3 * (10**9 + 7), 2)):
        assert run_cli("setsys", "build", "--m", str(m), "--n", str(n),
                       "--out", str(tmp_path / "h.json")) == 2, (m, n)
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "budget" in err
    payload = {"m": 15, "universe_size": 8192, "labels": [], "t": 2,
               "sets": [list(range(8192))] + [[0]] * 8192}
    (tmp_path / "big.json").write_bytes(serial.serialize("set-system", payload))
    assert run_cli("setsys", "verify", str(tmp_path / "big.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "budget" in err


def test_cli_refuses_repeated_keys(tmp_path, capsys):
    # json.loads keeps the last of repeated keys, so this share used to load
    # as party 1 and, with shares 2 and 3, reconstruct the secret
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    blob = (outdir / "share_001.json").read_bytes()
    assert blob.count(b'"party":1}') == 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(blob.replace(b'"party":1}', b'"party":7,"party":1}'))
    shares = ",".join([str(bad), *(str(outdir / f"share_00{i}.json") for i in (2, 3))])
    assert run_cli("reconstruct", "--shares", shares) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "repeats a key" in err


def test_cli_tokens_roundtrip(tmp_path):
    out = tmp_path / "tok.json"
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "5",
                   "--omega", "1,2,3", "--out", str(out)) == 0
    assert run_cli("--quiet", "tokens", "test", str(out), "--subset", "1,2,3") == 0
    assert run_cli("--quiet", "tokens", "test", str(out), "--subset", "1,2,3,4") == 0
    assert run_cli("--quiet", "tokens", "test", str(out), "--subset", "1,2,4") == 3
    assert run_cli("--quiet", "tokens", "test", str(out), "--subset", "9") == 2


def test_cli_deal_reconstruct_verify(tmp_path, capsys):
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    files = sorted(str(p) for p in outdir.glob("share_*.json"))
    assert len(files) == 5
    sizes = {p.stat().st_size for p in outdir.glob("share_*.json")}
    assert len(sizes) == 1

    authorized = ",".join(files[:3])
    assert run_cli("reconstruct", "--shares", authorized) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["secret"] == 3

    unauthorized = ",".join([files[0], files[3]])
    assert run_cli("--quiet", "reconstruct", "--shares", unauthorized) == 3

    assert run_cli("verify", "--shares", authorized, "--secret", "3") == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert verdicts["payload"] == {"1": 1, "2": 1, "3": 1}
    assert run_cli("--quiet", "verify", "--shares", unauthorized, "--secret", "3") == 3


def test_cli_deal_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert run_cli("--seed", "33", "--quiet", "deal", "--secret", "3",
                       "--gamma0", "1,2", "--parties", "3",
                       "--outdir", str(outdir)) == 0
    for name in ("share_001.json", "share_002.json", "share_003.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # --seed is accepted on the subcommand as well and means the same thing
    c = tmp_path / "c"
    assert run_cli("--quiet", "deal", "--secret", "3", "--gamma0", "1,2",
                   "--parties", "3", "--outdir", str(c), "--seed", "33") == 0
    assert (a / "share_001.json").read_bytes() == (c / "share_001.json").read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    # validation: bad secret (not a generator mod 31)
    assert run_cli("--quiet", "deal", "--secret", "2", "--gamma0", "1,2",
                   "--parties", "3", "--outdir", str(tmp_path / "x")) == 2
    # validation: malformed subcommand
    assert run_cli("nonsense") == 2
    # validation: t shapes nothing in the build, so the CLI checks it itself
    assert run_cli("setsys", "build", "--t", "1", "--out", str(tmp_path / "h.json")) == 2
    assert capsys.readouterr().err.startswith("invalid:")
    # validation: deal encodes with the default kappa, so tokens gen takes no other
    assert run_cli("tokens", "gen", "--parties", "5", "--omega", "1,2,3",
                   "--kappa", "1", "--out", str(tmp_path / "tok.json")) == 2
    assert "unrecognized arguments: --kappa" in capsys.readouterr().err
    # io: missing file
    assert run_cli("--quiet", "reconstruct", "--shares", str(tmp_path / "nope.json")) == 4
    capsys.readouterr()


def test_cli_rejects_malformed_inputs(tmp_path, capsys):
    # a structurally valid document of the right kind but with fields missing
    (tmp_path / "bad_share.json").write_bytes(
        serial.serialize("share-bundle", {"party": 1, "pad": ""}))
    assert run_cli("--quiet", "reconstruct",
                   "--shares", str(tmp_path / "bad_share.json")) == 2
    (tmp_path / "bad_tok.json").write_bytes(
        serial.serialize("token-instance", {"tokens": {"1": [1, 2]}}))
    assert run_cli("--quiet", "tokens", "test", str(tmp_path / "bad_tok.json"),
                   "--subset", "1") == 2
    # m is an integer >= 2, each token a list of integers, and any other
    # field (m_prime included) is refused
    good = {"instance_id": "x", "parties": 1, "m": 39, "tokens": {"1": list(range(39))}}
    for change in ({"m": 0}, {"m": "x"}, {"m_prime": True}, {"m_prime": 200},
                   {"tokens": {"1": 5}}, {"tokens": {"1": "abc"}},
                   {"tokens": 5}, {"instance_id": []}):
        (tmp_path / "bad_tok.json").write_bytes(
            serial.serialize("token-instance", {**good, **change}))
        assert run_cli("--quiet", "tokens", "test", str(tmp_path / "bad_tok.json"),
                       "--subset", "1") == 2, change
        assert capsys.readouterr().err.startswith("invalid:")
    (tmp_path / "tok.json").write_bytes(serial.serialize("token-instance", good))
    assert run_cli("--quiet", "tokens", "test", str(tmp_path / "tok.json"),
                   "--subset", "1") == 0
    capsys.readouterr()


def test_cli_hostile_share_files_exit_2(tmp_path, capsys):
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    files = sorted(str(p) for p in outdir.glob("share_*.json"))

    def rewritten(path, change, part=lambda payload: payload["instances"][0]):
        payload = serial.deserialize(Path(path).read_bytes(), "share-bundle")
        change(part(payload))
        bad = tmp_path / f"bad_{Path(path).name}"
        bad.write_text(json.dumps(
            {"schema": "share-bundle", "version": serial.VERSION, "payload": payload}))
        return str(bad)

    def assert_invalid(*argv, reason=""):
        assert run_cli("--quiet", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and reason in err

    # a declared width above 64 must not let a huge entry reach int64
    def widen(inst):
        inst["a"]["bits"] = 100
    assert_invalid("reconstruct", "--shares", rewritten(files[0], widen))

    # nesting deep enough to exhaust the parser's recursion limit
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[" * 200_000)
    assert_invalid("reconstruct", "--shares", str(bad))

    # a chain member's encoding with one row removed, at every chain position
    def drop_row(inst):
        inst["d"] = serial.matrix_doc(serial.doc_matrix(inst["d"])[:-1])
    for victim in range(3):
        shares = [rewritten(f, drop_row) if i == victim else f
                  for i, f in enumerate(files[:3])]
        assert_invalid("reconstruct", "--shares", ",".join(shares))
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3")

    # token elements must be integers: a string would iterate as characters
    def stringify_token(inst):
        inst["token"] = "abc"
    shares = [rewritten(files[0], stringify_token), *files[1:3]]
    assert_invalid("reconstruct", "--shares", ",".join(shares), reason="token")

    # parameters that would divide by zero or overflow int64 in the chain walk
    def params(payload):
        return payload["params"]
    for field, value in (("c_bound_milli", 0), ("q", 31 * 2**70 + 31)):
        def change(doc):
            doc[field] = value
        shares = [rewritten(f, change, params) for f in files[:3]]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason="must be")
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason="must be")

    # q below p (q = -31 is p*c with p not dividing c) and a bound past its floor
    for field, value, reason in (("q", -31, "q must be at least p"),
                                 ("c_bound_milli", 2**70, "c_bound must be at most q")):
        def change(doc):
            doc[field] = value
        shares = [rewritten(f, change, params) for f in files[:3]]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason=reason)
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason=reason)

    # a key share is exactly 32 bytes
    def short_key(inst):
        inst["key_share"] = serial.to_b64(bytes(31))
    shares = [rewritten(files[0], short_key), *files[1:3]]
    assert_invalid("reconstruct", "--shares", ",".join(shares), reason="key_share")
    assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                   reason="key_share")

    # a prime p of 2**61-1 would stall trial division for minutes
    def huge_prime(doc):
        doc["p"] = doc["q"] = 2**61 - 1
    shares = [rewritten(f, huge_prime, params) for f in files[:3]]
    assert_invalid("reconstruct", "--shares", ",".join(shares), reason="2**32")
    assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                   reason="2**32")

    # params are exactly five integers: no JSON booleans, floats or extra fields
    for field, value in (("n", True), ("p", 31.0), ("token_m", 39)):
        def change(doc):
            doc[field] = value
        shares = [rewritten(f, change, params) for f in files[:3]]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason="params")
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason="params")

    # a party label is an integer of at least 1, and no two shares share one
    def whole(payload):
        return payload
    for value in (0, -1, True, 2):
        def relabel(doc):
            doc["party"] = value
        shares = [rewritten(files[0], relabel, whole), *files[1:3]]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason="party")
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason="party")

    # what loads must write back to the same bytes: no repeated or reordered
    # token element, no unknown key, a pad of spaces only, instances as objects
    def first(payload):
        return payload["instances"][0]
    for part, change in (
            (first, lambda inst: inst["token"].insert(0, inst["token"][0])),
            (first, lambda inst: inst["token"].reverse()),
            (whole, lambda doc: doc.update(extra=1)),
            (first, lambda inst: inst.update(extra=1)),
            (whole, lambda doc: doc.update(pad="x")),
            (whole, lambda doc: doc["instances"].__setitem__(0, 5))):
        shares = ",".join([rewritten(files[0], change, part), *files[1:3]])
        assert_invalid("reconstruct", "--shares", shares)
        assert_invalid("verify", "--shares", shares, "--secret", "3")

    # a label outside the chain leaves the opened header naming a missing party
    def relabel_99(doc):
        doc["party"] = 99
    shares = ",".join([rewritten(files[0], relabel_99, whole), *files[1:3]])
    assert run_cli("reconstruct", "--shares", shares) == 3
    assert json.loads(capsys.readouterr().out)["payload"] == {"outcome": "corrupt"}
    assert run_cli("verify", "--shares", shares, "--secret", "3") == 3
    assert json.loads(capsys.readouterr().out)["payload"] == {
        "outcome": "header-unavailable"}

    # shares of an earlier version are refused as such, not misread
    for version in (1, 2, 3):
        doc = json.loads(Path(files[0]).read_bytes())
        doc["version"] = version
        bad.write_bytes(json.dumps(doc).encode())
        assert_invalid("reconstruct", "--shares", str(bad), reason="unsupported version")


def test_cli_instance_id_must_be_a_string(tmp_path, capsys):
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3;4,5", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    payload = serial.deserialize((outdir / "share_001.json").read_bytes(), "share-bundle")
    payload["instances"][1]["instance_id"] = 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(serial.serialize("share-bundle", payload))
    shares = ",".join([str(bad), str(outdir / "share_002.json"),
                       str(outdir / "share_003.json")])
    assert run_cli("--quiet", "reconstruct", "--shares", shares) == 2
    assert "instance_id" in capsys.readouterr().err


def test_cli_simulate_rejects_nonpositive_c_bound(capsys):
    assert run_cli("--quiet", "simulate", "--trials", "1", "--c-bound", "0") == 2
    assert "c_bound must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["deal", "--secret", "3", "--gamma0", "1,2", "--parties", "2"],
    ["simulate", "--trials", "1"],
])
@pytest.mark.parametrize("value,reason", [
    ("0.0004", "whole number of thousandths"),    # a float would store 0
    ("inf", "whole number of thousandths"),
    ("1e308", "c_bound must be at most q"),        # a float would overflow on write
])
def test_cli_c_bound_is_whole_thousandths(tmp_path, capsys, command, value, reason):
    outdir = ["--outdir", str(tmp_path / "out")] if command[0] == "deal" else []
    assert run_cli("--quiet", *command, *outdir, "--c-bound", value) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and reason in err
    assert not (tmp_path / "out").exists()


def test_cli_q_bits_below_p(tmp_path, capsys):
    # 2**4 < 31 leaves no q = 31*c with c >= 1
    assert run_cli("--quiet", "deal", "--secret", "3", "--gamma0", "1,2", "--parties", "2",
                   "--q-bits", "4", "--outdir", str(tmp_path / "out")) == 2
    assert "q_bits 4 is too small" in capsys.readouterr().err


def test_pad_marker_collision_guard():
    # string values cannot collide (quotes are escaped); nested keys can
    with pytest.raises(serial.SerializationError):
        serial.equalize_lengths([{"pad": "", "inner": {"pad": ""}}], "empty-report")
    blobs = serial.equalize_lengths(
        [{"pad": "", "v": 1}, {"pad": "", "v": 1234}], "empty-report")
    assert len(blobs[0]) == len(blobs[1])


def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert run_cli("--seed", "4", "simulate", "--trials", "5", "--malicious", "1",
                   "--parties", "4", "--gamma0", "1,2", "--out", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["payload"]["totals"]["corrupted_trials"] == 5
    full = serial.deserialize(out.read_bytes(), "sim-report")
    assert len(full["trials"]) == 5
