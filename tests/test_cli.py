import base64
import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilshare import serial
from veilshare.cli import main
from veilshare.numt import Modulus
from veilshare.setsys import SetSystem, build_grolmusz_system, merge_systems, \
    verify_restricted_intersections
from veilshare.sim import SimulationConfig, run_simulation
from veilshare.tokens import combine_tokens, token_id_bound
from veilshare.vss import (
    Secret,
    ShareBundle,
    VssError,
    VssParams,
    _subset_xors,
    deal,
    header_keys,
    open_header,
    seal_header,
    serialize_bundles,
)


# ---------------------------------------------------------------------------
# canonical serialization


def test_empty_report_fixed_bytes():
    blob = serial.serialize("empty-report", {})
    assert blob == b'{"payload":{},"schema":"empty-report","version":7}\n'
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
        serial.deserialize(blob[:-8], "empty-report")
    with pytest.raises(serial.SerializationError):
        serial.deserialize(b"\xff\x00garbage", "empty-report")


def test_version_and_schema_mismatch(tmp_path, capsys):
    doc = json.loads(serial.serialize("empty-report", {}).decode())
    doc["version"] = 9
    with pytest.raises(serial.SerializationError):
        serial.deserialize(json.dumps(doc).encode(), "empty-report")
    # every document of version 4 to 6 is refused, whatever its kind
    for kind in ("share-bundle", "token-instance", "set-system"):
        for version in (4, 5, 6):
            old = json.dumps({"schema": kind, "version": version, "payload": {}}).encode()
            with pytest.raises(serial.SerializationError,
                               match=f"unsupported version {version}"):
                serial.deserialize(old, kind)
    # a version-6 share (which always carries a pad), token file and
    # set-system file each exit 2 on the version, not on a field
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3", "--gamma0", "1,2",
                   "--parties", "3", "--outdir", str(tmp_path)) == 0
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "3",
                   "--omega", "1,2", "--out", str(tmp_path / "tok.json")) == 0
    (tmp_path / "sys.json").write_bytes(serial.serialize("set-system", {
        "m": 15, "universe_size": 30, "labels": [],
        "sets": [list(range(15)), list(range(15, 30))]}))
    for name, kind, argv in (
            ("share_001.json", "share-bundle", ("reconstruct", "--shares")),
            ("tok.json", "token-instance", ("tokens", "test", "--subset", "1,2")),
            ("sys.json", "set-system", ("setsys", "verify"))):
        path = tmp_path / name
        doc = json.loads(path.read_bytes())
        if kind == "share-bundle":
            doc["payload"]["pad"] = "  "
        path.write_text(json.dumps({**doc, "version": 6}))
        argv = (*argv[:2], str(path), *argv[2:])
        assert run_cli("--quiet", *argv) == 2, kind
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "unsupported version 6" in err, err
    with pytest.raises(serial.SerializationError):
        serial.serialize("no-such-kind", {})
    with pytest.raises(serial.SerializationError):
        serial.deserialize(serial.serialize("empty-report", {}), "sim-report")
    # a kind no writer knows fails the kind match like any other wrong kind
    unknown = json.dumps(
        {"schema": "no-such-kind", "version": serial.VERSION, "payload": {}}).encode()
    with pytest.raises(serial.SerializationError, match="expected schema 'empty-report'"):
        serial.deserialize(unknown, "empty-report")


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


def stream_b64(stream: str) -> str:
    """A string of bits, first bit lowest, zero-padded to whole bytes and base64 encoded."""
    stream += "0" * (-len(stream) % 8)
    return _b64(bytes(int(stream[i: i + 8][::-1], 2) for i in range(0, len(stream), 8)))


def packed_by_loop(mat, bits: int) -> str:
    """Reference packing: each entry's low `bits` bits, least significant first."""
    return stream_b64("".join(format(int(v) & ((1 << bits) - 1), f"0{bits}b")[::-1]
                              for v in np.asarray(mat).flat))


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


def test_matrix_doc_roundtrip_every_width():
    for width in range(1, 65):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for mat in (np.array([[lo, -1], [0, hi]]), np.array([[hi, 0, hi]]),
                    np.array([[lo]])):
            doc = serial.matrix_doc(mat)
            assert doc["bits"] == signed_width_by_loop(mat), (width, mat)
            assert doc["b64"] == packed_by_loop(mat, doc["bits"]), (width, mat)
            back = serial.doc_matrix(doc)
            assert back.dtype == np.int64 and (back == mat).all(), (width, mat)
    for shape in ((0, 0), (0, 3), (5, 0)):
        doc = serial.matrix_doc(np.zeros(shape, dtype=np.int64))
        assert doc == {"rows": shape[0], "cols": shape[1], "bits": 1, "b64": ""}
        assert serial.doc_matrix(doc).shape == shape


def rice_by_loop(values, k: int) -> str:
    """Reference Rice code, as bits: every (sign, k low bits) field, then every unary part."""
    fixed = "".join(str(int(v < 0)) + "".join(str(abs(v) >> j & 1) for j in range(k))
                    for v in values)
    return fixed + "".join("0" * (abs(v) >> k) + "1" for v in values)


def rice_k_by_scan(values) -> int:
    """The smallest k of least coded length, over every k the format allows."""
    lengths = [sum(k + 2 + (abs(v) >> k) for v in values) for k in range(serial.RICE_BITS)]
    return lengths.index(min(lengths))


RICE = np.array([[1, -2], [0, 5]])
RICE_DOC = serial.rice_doc(RICE)


def test_rice_doc_layout():
    # |v| = 1, 2, 0, 5 costs 16 bits at k = 0, 15 at k = 1 and 17 at k = 2.
    # Fields (sign, low bit): 01 10 00 01; unary of 0, 1, 0, 2: 1 01 1 001.
    assert RICE_DOC == {"rows": 2, "cols": 2, "k": 1,
                        "b64": stream_b64("01100001" "1011001")}
    assert (serial.doc_rice(RICE_DOC) == RICE).all()
    for shape in ((0, 0), (0, 3), (5, 0)):
        doc = serial.rice_doc(np.zeros(shape, dtype=np.int64))
        assert doc == {"rows": shape[0], "cols": shape[1], "k": 0, "b64": ""}
        assert serial.doc_rice(doc).shape == shape


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 30),
       st.integers(0, 2**32 - 1))
def test_rice_doc_roundtrip(rows, cols, scale, seed):
    rng = np.random.default_rng(seed)
    limit = (1 << serial.RICE_BITS) - 1
    mat = np.clip(np.round(rng.normal(0, 2.0**scale, size=(rows, cols))),
                  -limit, limit).astype(np.int64)
    if mat.size:
        mat.flat[seed % mat.size] = limit if seed & 1 else -limit
    values = [int(v) for v in mat.flat]
    doc = serial.rice_doc(mat)
    assert doc["k"] == rice_k_by_scan(values)
    assert doc["b64"] == stream_b64(rice_by_loop(values, doc["k"]))
    back = serial.doc_rice(doc)
    assert back.dtype == np.int64 and back.shape == (rows, cols)
    assert (back == mat).all()
    assert serial.rice_doc(back) == doc


def test_rice_doc_write_range():
    limit = 1 << serial.RICE_BITS
    serial.rice_doc(np.array([[1 - limit, limit - 1]]))
    for value in (limit, -limit, 2**63 - 1, -(2**63)):
        with pytest.raises(serial.SerializationError):
            serial.rice_doc(np.array([[value]]))


RICE_VALUES = [int(v) for v in RICE.flat]
RICE_BITS_STR = rice_by_loop(RICE_VALUES, 1)
# the canonical-code cases on a dealt D are in test_cli_hostile_coded_d_exits_2
HOSTILE_RICE_DOCS = {                   # name: (fields changed, reason refused)
    "bits instead of k": ({"k": None, "bits": 1}, "exactly the fields rows, cols, k, b64"),
    "k=True": ({"k": True}, "matrix k must be an integer"),
    "k=1.0": ({"k": 1.0}, "matrix k must be an integer"),
    "k=2**70": ({"k": 2**70}, "k must lie in [0, 30]"),
    "nonzero pad bit": ({"b64": stream_b64(RICE_BITS_STR + "1")}, "nonzero pad bits"),
    "unterminated unary": ({"b64": stream_b64(RICE_BITS_STR[:-1])}, "fewer codes"),
    "overlong unary": ({"rows": 1, "cols": 1, "k": 30,
                        "b64": stream_b64("0" * 31 + "001")}, "unary part of 2**1"),
    "absurd shape": ({"rows": 10**30, "cols": 10**30}, "fewer codes"),
    "absurd empty shape": ({"rows": 10**30, "cols": 0, "k": 0, "b64": ""}, "out of range"),
}


@pytest.mark.parametrize("change, reason", HOSTILE_RICE_DOCS.values(), ids=HOSTILE_RICE_DOCS)
def test_rice_doc_hostile(change, reason):
    doc = {k: v for k, v in {**RICE_DOC, **change}.items() if v is not None}
    with pytest.raises(serial.SerializationError, match=re.escape(reason)):
        serial.doc_rice(doc)


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
    # m and universe_size are JSON integers, and no field lies outside the
    # schema: int() read "15" and 15.9 as 15, and the extra field was ignored
    for change in ({"m": 2**61 - 1}, {"labels": 5}, {"sets": [[1.5, 2]]},
                   {"sets": [[1, True]]}, {"sets": 5},
                   {"universe_size": 10**15, "sets": [[1, 2]]},
                   {"universe_size": 2**62, "sets": [[1, 2]]},
                   {"m": "15"}, {"m": 15.9}, {"universe_size": "30"}, {"extra": 1}):
        # plain json.dumps, since serialize refuses to write the float
        (tmp_path / "bad.json").write_text(json.dumps(
            {"schema": "set-system", "version": serial.VERSION,
             "payload": {**good, **change}}))
        assert run_cli("setsys", "verify", str(tmp_path / "bad.json")) == 2, change
        assert capsys.readouterr().err.startswith("invalid:")


def test_cli_setsys_verify_refuses_labels_not_one_per_set(tmp_path, capsys):
    # set_system_doc writes no labels or one per set; a file cut to one label
    # for its 24 sets verified with exit 0
    path = tmp_path / "h.json"
    assert run_cli("--quiet", "setsys", "build", "--m", "15", "--n", "2", "--l", "2",
                   "--out", str(path)) == 0
    payload = serial.deserialize(path.read_bytes(), "set-system")
    assert len(payload["sets"]) == len(payload["labels"]) == 24
    path.write_bytes(serial.serialize("set-system", {**payload, "labels": payload["labels"][:1]}))
    assert run_cli("setsys", "verify", str(path), "--samples", "1000") == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "one per set" in err, err


@pytest.fixture(scope="module")
def h15_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("h15") / "h15.json"
    assert main(["--quiet", "setsys", "build", "--m", "15", "--n", "3", "--l", "2",
                 "--t", "3", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("change", [{"l": "2"}, {"l": True}, {"l": [2]},
                                    {"t": True}, {"t": "3"}])
def test_cli_setsys_verify_refuses_a_non_integer_t_or_l(h15_file, tmp_path, capsys, change):
    # the l values reached the size-ratio check and came back as a violation
    # (exit 3); int() read "t": true as t = 1 and "t": "3" as 3 (exit 0)
    payload = serial.deserialize(h15_file.read_bytes(), "set-system")
    (tmp_path / "bad.json").write_bytes(serial.serialize("set-system", {**payload, **change}))
    assert run_cli("setsys", "verify", str(tmp_path / "bad.json"), "--samples", "2000") == 2
    assert capsys.readouterr().err.startswith("invalid:")


@pytest.mark.parametrize("flag", [("--t", "1"), ("--l", "1")])
def test_cli_setsys_verify_refuses_t_or_l_below_two(h15_file, capsys, flag):
    # t = 1 checked no family (exit 0); l = 1 was reported as a size-ratio violation
    assert run_cli("setsys", "verify", str(h15_file), "--samples", "2000", *flag) == 2
    assert capsys.readouterr().err.startswith("invalid:")


def test_cli_setsys_verify_refuses_samples_over_the_cell_budget(h15_file, capsys):
    # C(783, 3) ~ 79.8 M triples fit under 10**15 samples, so every one was
    # listed as a Python tuple; the (families, 3) array is over 2**26 cells
    assert run_cli("setsys", "verify", str(h15_file), "--samples", str(10**15)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "budget" in err


def test_cli_setsys_verify_budgets_every_arity_together(h15_file, tmp_path, capsys,
                                                       monkeypatch):
    # 10**6 families of each arity from 3 to t take 10**6 * (3 + ... + t) cells:
    # 63 M at t = 11, 75 M at t = 12, over 2**26.  Each arity alone fit, so
    # t = 12 ran for 19 s and a file saying "t": 67 for about two minutes
    payload = serial.deserialize(h15_file.read_bytes(), "set-system")
    system = serial.doc_set_system(payload)

    class Drawn(Exception):
        pass

    def drawn(self):
        raise Drawn             # families are drawn from the packed rows

    monkeypatch.setattr(SetSystem, "packed", drawn)
    with pytest.raises(Drawn):
        verify_restricted_intersections(system, t=11)
    with pytest.raises(ValueError, match="budget"):
        verify_restricted_intersections(system, t=12)
    (tmp_path / "t67.json").write_bytes(serial.serialize("set-system", {**payload, "t": 67}))
    assert run_cli("setsys", "verify", str(tmp_path / "t67.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "budget" in err


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
    # 8,192 sets over 8,192 elements load within the budget, but their Gram
    # matrix would take two float64 copies of 512 MiB each
    payload["sets"].pop()
    (tmp_path / "gram.json").write_bytes(serial.serialize("set-system", payload))
    assert run_cli("setsys", "verify", str(tmp_path / "gram.json")) == 2
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


def test_cli_exit_3_prints_one_document(tmp_path, capsys):
    out = tmp_path / "tok.json"
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "5",
                   "--omega", "1,2,3", "--out", str(out)) == 0
    assert run_cli("tokens", "test", str(out), "--subset", "1,2,4") == 3
    report = json.loads(capsys.readouterr().out)
    assert report["payload"] == {"subset": [1, 2, 4], "authorized": False}
    payload = {"m": 15, "universe_size": 30,
               "sets": [list(range(15)), list(range(15, 30))], "labels": [], "t": 2}
    (tmp_path / "bad.json").write_bytes(serial.serialize("set-system", payload))
    assert run_cli("setsys", "verify", str(tmp_path / "bad.json")) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "intersection-report" and report["payload"]["ok"] is False


def test_cli_tokens_test_refuses_ids_outside_the_universe(tmp_path, capsys):
    # these files answered exit 3, unauthorized, as if the ids were real
    out = tmp_path / "tok.json"
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "5",
                   "--omega", "1,2,3", "--out", str(out)) == 0
    good = serial.deserialize(out.read_bytes(), "token-instance")
    for last in (10**6, token_id_bound(), -5):
        doc = json.loads(json.dumps(good))
        doc["tokens"]["1"][-1] = last
        (tmp_path / "bad.json").write_bytes(serial.serialize("token-instance", doc))
        assert run_cli("--quiet", "tokens", "test", str(tmp_path / "bad.json"),
                       "--subset", "1,2,3") == 2, last
        assert capsys.readouterr().err.startswith("invalid:")


def test_cli_tokens_test_reads_the_whole_token_file(tmp_path, capsys):
    # each of these answered exit 0, authorized, for the coalition 1,2,3
    out = tmp_path / "tok.json"
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "5",
                   "--omega", "1,2,3", "--out", str(out)) == 0
    good = serial.deserialize(out.read_bytes(), "token-instance")

    def reversed_with_repeat(party):
        def change(doc):
            token = doc["tokens"][party]
            doc["tokens"][party] = token[::-1] + token[:1]
        return change

    changes = {
        "parties abc": lambda doc: doc.update(parties="abc"),
        "parties true": lambda doc: doc.update(parties=True),
        "parties 0": lambda doc: doc.update(parties=0),
        "parties 6 of 5 tokens": lambda doc: doc.update(parties=6),
        "token for party 9 of 5": lambda doc: doc["tokens"].update({"9": doc["tokens"]["1"]}),
        "no token for party 5": lambda doc: doc["tokens"].pop("5"),
        "party 1 reversed": reversed_with_repeat("1"),
        "party 5 reversed": reversed_with_repeat("5"),
    }
    for name, change in changes.items():
        doc = json.loads(json.dumps(good))
        change(doc)
        (tmp_path / "bad.json").write_bytes(serial.serialize("token-instance", doc))
        assert run_cli("--quiet", "tokens", "test", str(tmp_path / "bad.json"),
                       "--subset", "1,2,3") == 2, name
        assert capsys.readouterr().err.startswith("invalid:"), name
    assert run_cli("--quiet", "tokens", "test", str(out), "--subset", "1,2,3") == 0


def test_cli_refuses_float_literals(tmp_path, capsys):
    # json reads 6.0 as a float equal to version 6, so each of these files
    # passed the version check, and the share and token file answered exit 0
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    assert run_cli("--seed", "5", "--quiet", "tokens", "gen", "--parties", "5",
                   "--omega", "1,2,3", "--out", str(tmp_path / "tok.json")) == 0
    assert run_cli("--quiet", "setsys", "build", "--out", str(tmp_path / "sys.json")) == 0

    def floated(path, old, new, name):
        blob = path.read_bytes()
        assert blob.count(old) == 1
        bad = tmp_path / name
        bad.write_bytes(blob.replace(old, new))
        return str(bad)

    version = b'"version":%d}' % serial.VERSION
    float_version = b'"version":%d.0}' % serial.VERSION
    first = outdir / "share_001.json"
    rest = [str(outdir / f"share_00{i}.json") for i in (2, 3)]
    share = floated(first, version, float_version, "share_float.json")
    nan_share = floated(first, b'"party":1}', b'"party":NaN}', "share_nan.json")
    tok = floated(tmp_path / "tok.json", version, float_version, "tok_float.json")
    system = floated(tmp_path / "sys.json", version, float_version, "sys_float.json")
    for argv in (("reconstruct", "--shares", ",".join([share, *rest])),
                 ("reconstruct", "--shares", ",".join([nan_share, *rest])),
                 ("tokens", "test", tok, "--subset", "1,2,3"),
                 ("setsys", "verify", system)):
        assert run_cli("--quiet", *argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "non-integer number" in err, argv


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
    # --seed has one spelling, before the subcommand
    c = tmp_path / "c"
    assert run_cli("--quiet", "deal", "--secret", "3", "--gamma0", "1,2",
                   "--parties", "3", "--outdir", str(c), "--seed", "33") == 2
    assert not c.exists()


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
        serial.serialize("share-bundle", {"party": 1}))
    assert run_cli("--quiet", "reconstruct",
                   "--shares", str(tmp_path / "bad_share.json")) == 2
    (tmp_path / "bad_tok.json").write_bytes(
        serial.serialize("token-instance", {"tokens": {"1": [1, 2]}}))
    assert run_cli("--quiet", "tokens", "test", str(tmp_path / "bad_tok.json"),
                   "--subset", "1") == 2
    # each token is a list of integers, and any other field is refused: m
    # among them, since every token file is tested over the one m = 39
    good = {"instance_id": "x", "parties": 1, "tokens": {"1": list(range(39))}}
    for change in ({"m": 39}, {"m": 0}, {"m_prime": True}, {"m_prime": 200},
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

    # a schema that is no string: the known-kind lookup hashed it (exit 1)
    bad.write_text(json.dumps({"schema": [], "version": serial.VERSION, "payload": {}}))
    assert_invalid("reconstruct", "--shares", str(bad), reason="expected schema")

    # a chain member's encoding with one row removed, at every chain position
    def drop_row(inst):
        inst["d"] = serial.rice_doc(serial.doc_rice(inst["d"])[:-1])
    for victim in range(3):
        shares = [rewritten(f, drop_row) if i == victim else f
                  for i, f in enumerate(files[:3])]
        assert_invalid("reconstruct", "--shares", ",".join(shares))
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3")

    # a chain member's A with its columns doubled would shift every column
    # block after it in the stacked chain walk
    def double_columns(inst):
        a = serial.doc_matrix(inst["a"])
        inst["a"] = serial.matrix_doc(np.concatenate([a, a], axis=1))
    for victim in range(3):
        shares = [rewritten(f, double_columns) if i == victim else f
                  for i, f in enumerate(files[:3])]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason="shape")
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason="shape")

    # token elements must be integers: a string would iterate as characters
    def stringify_token(inst):
        inst["token"] = "abc"
    shares = [rewritten(files[0], stringify_token), *files[1:3]]
    assert_invalid("reconstruct", "--shares", ",".join(shares), reason="token")

    # token elements are ids of the universe and its tags; these were read as
    # ids no coalition shares and refused as unauthorized (exit 3)
    for change in (lambda inst: inst["token"].__setitem__(-1, 10**6),
                   lambda inst: inst["token"].__setitem__(0, -5)):
        shares = ",".join([rewritten(files[0], change), *files[1:3]])
        assert_invalid("reconstruct", "--shares", shares, reason="token elements")
        assert_invalid("verify", "--shares", shares, "--secret", "3",
                       reason="token elements")

    # a q that would overflow int64 in the chain walk, and q below p
    # (q = -31 is p*c with p not dividing c)
    def params(payload):
        return payload["params"]
    for value, reason in ((31 * 2**70 + 31, "q must be below 2**62"),
                          (-31, "q must be at least p")):
        def change(doc):
            doc["q"] = value
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

    # params are exactly n, p and q as integers: no JSON booleans, floats or
    # extra fields, and not the norm and bound settings an earlier profile carried;
    # the parser refuses a float before the params check sees it
    for extra, reason in (({"n": True}, "params"), ({"p": 31.0}, "non-integer number"),
                          ({"token_m": 39}, "params"),
                          ({"lam": 512, "c_bound_milli": 4000}, "params")):
        def change(doc):
            doc.update(extra)
        shares = [rewritten(f, change, params) for f in files[:3]]
        assert_invalid("reconstruct", "--shares", ",".join(shares), reason=reason)
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3",
                       reason=reason)

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
    # token element, no unknown key (a pad field of share format 6 among them),
    # instances as objects
    def first(payload):
        return payload["instances"][0]
    for part, change in (
            (first, lambda inst: inst["token"].insert(0, inst["token"][0])),
            (first, lambda inst: inst["token"].reverse()),
            (whole, lambda doc: doc.update(extra=1)),
            (first, lambda inst: inst.update(extra=1)),
            (whole, lambda doc: doc.update(pad="  ")),
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
    for version in (1, 2, 3, 4, 5, 6):
        doc = json.loads(Path(files[0]).read_bytes())
        doc["version"] = version
        bad.write_bytes(json.dumps(doc).encode())
        assert_invalid("reconstruct", "--shares", str(bad), reason="unsupported version")


@pytest.fixture(scope="module")
def coded_d_shares(tmp_path_factory):
    """Shares 1-3 of a --seed 9 dealing with Omega = {1, 2, 3}; party 1 is a chain member."""
    outdir = tmp_path_factory.mktemp("coded-d")
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5", "--outdir", str(outdir)) == 0
    return [outdir / f"share_{i:03d}.json" for i in (1, 2, 3)]


def _negative_zero(values, k):
    bits = rice_by_loop(values, k)
    at = values.index(0) * (k + 1)
    return {"b64": stream_b64(bits[:at] + "1" + bits[at + 1:])}


def _overlong(values, k):
    big = 20                                # 2**31 >> 20: a unary part of 2,048 zeros
    return {"k": big, "b64": stream_b64(rice_by_loop([2**31, *values[1:]], big))}


CODED_D_CASES = {                       # name: (rewrite of d's fields, reason refused)
    "too few codes": (lambda v, k: {"b64": stream_b64(rice_by_loop(v[:-1], k))},
                      "fewer codes"),
    "too many codes": (lambda v, k: {"b64": stream_b64(rice_by_loop(v + [0], k))},
                       "more codes"),
    "nonzero pad bits": (lambda v, k: {"b64": stream_b64(rice_by_loop(v, k) + "1")},
                         "nonzero pad bits"),
    "byte after the last code": (
        lambda v, k: {"b64": stream_b64(rice_by_loop(v, k) + "0" * 8)},
        "bytes after its last code"),
    "overlong unary": (_overlong, "unary part"),
    "negative zero": (_negative_zero, "negative zero"),
    "k not minimal": (lambda v, k: {"k": k + 1, "b64": stream_b64(rice_by_loop(v, k + 1))},
                      "not the minimal"),
    "k=31": (lambda v, k: {"k": serial.RICE_BITS}, "k must lie in"),
    "k=-1": (lambda v, k: {"k": -1}, "k must lie in"),
}


@pytest.mark.parametrize("rewrite, reason", CODED_D_CASES.values(), ids=CODED_D_CASES)
def test_cli_hostile_coded_d_exits_2(coded_d_shares, tmp_path, capsys, rewrite, reason):
    payload = serial.deserialize(coded_d_shares[0].read_bytes(), "share-bundle")
    d = payload["instances"][0]["d"]
    d.update(rewrite([int(v) for v in serial.doc_rice(d).flat], d["k"]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"schema": "share-bundle", "version": serial.VERSION, "payload": payload}))
    shares = ",".join(map(str, [bad, *coded_d_shares[1:]]))
    for argv in (["reconstruct", "--shares", shares],
                 ["verify", "--shares", shares, "--secret", "3"]):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("invalid:") and reason in err, err


def resealed_share_files(tmp_path, edit):
    """Shares 1-3 of a --seed 9 dealing whose header is opened, edited and re-sealed.

    Any authorized coalition holds the header key, so it can do this.
    """
    bundles = deal(Secret(3, 31), [(1, 2, 3)], 5, VssParams.desk(), seed=9)
    members = [b.instances[0] for b in bundles[:3]]
    inst_id, sealed = members[0].instance_id, members[0].header_ct
    gamma_h = combine_tokens([inst.token for inst in members])
    for key in header_keys(gamma_h, _subset_xors([inst.key_share for inst in members])):
        try:
            header = serial.deserialize(open_header([key], inst_id, sealed), "reconstruction")
            break
        except VssError:
            continue
    else:
        pytest.fail("no key of the coalition opens the header")
    resealed = seal_header(key, inst_id, serial.serialize("reconstruction", edit(header)))
    files = []
    for b in bundles[:3]:
        inst = dataclasses.replace(b.instances[0], header_ct=resealed)
        blob, = serialize_bundles([ShareBundle(b.party, b.params, [inst])])
        files.append(tmp_path / f"share_{b.party}.json")
        files[-1].write_bytes(blob)
    return ",".join(map(str, files))


def test_cli_header_matrices_of_wrong_shape_exit_2(tmp_path, capsys):
    for field in ("a_bar", "r_term"):
        shares = resealed_share_files(tmp_path, lambda header: {
            **header, field: serial.matrix_doc(serial.doc_matrix(header[field])[:-1])})
        for argv in (["reconstruct", "--shares", shares],
                     ["verify", "--shares", shares, "--secret", "3"]):
            assert run_cli("--quiet", *argv) == 2
            assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "a_bar"},
    lambda h: {**h, "exponents": h["exponents"][:1]},
    lambda h: {**h, "order": [h["order"][0], h["order"][0], h["order"][2]]},
    lambda h: {**h, "exponents": [h["exponents"][0], "2", h["exponents"][2]]},
    lambda h: {**h, "order": [True if v == 1 else v for v in h["order"]]},
], ids=["missing-field", "short-exponents", "repeated-party", "str-exponent",
        "bool-party"])
def test_cli_malformed_opened_header_exits_2(tmp_path, capsys, edit):
    shares = resealed_share_files(tmp_path, edit)
    for argv in (["reconstruct", "--shares", shares],
                 ["verify", "--shares", shares, "--secret", "3"]):
        assert run_cli("--quiet", *argv) == 2
        out, err = capsys.readouterr()
        assert not out and "invalid: header" in err


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


@pytest.mark.parametrize("command", [
    ["deal", "--secret", "3", "--gamma0", "1,2", "--parties", "2"],
    ["simulate", "--trials", "1"],
])
@pytest.mark.parametrize("flag,value", [
    ("--lam", "8"),            # ended in "preimage resampling cap exceeded"
    ("--lam", "-5"),           # ended in "math domain error"
    ("--c-bound", "0"),
    ("--c-bound", "0.0004"),
    ("--c-bound", "inf"),
    ("--c-bound", "1e308"),
])
def test_cli_removed_profile_flags_exit_2(tmp_path, capsys, command, flag, value):
    # the norm and bound settings are constants of lattice, not flags
    outdir = ["--outdir", str(tmp_path / "out")] if command[0] == "deal" else []
    assert run_cli("--quiet", *command, *outdir, flag, value) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_q_bits_below_p(tmp_path, capsys):
    # 2**4 < 31 leaves no q = 31*c with c >= 1
    assert run_cli("--quiet", "deal", "--secret", "3", "--gamma0", "1,2", "--parties", "2",
                   "--q-bits", "4", "--outdir", str(tmp_path / "out")) == 2
    assert "q_bits 4 is too small" in capsys.readouterr().err


def test_cli_deals_and_reconstructs_at_61_bits(tmp_path, capsys):
    # the coset sampler's syndrome check wrapped in int64 once |z_j| * 2^(d-1)
    # reached 2^63, and deal ended in "coset sampling lost the syndrome"
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "1", "--quiet", "deal", "--secret", "3", "--gamma0", "1,2",
                   "--parties", "3", "--q-bits", "61", "--outdir", str(outdir)) == 0
    shares = ",".join(str(outdir / f"share_{i:03d}.json") for i in (1, 2))
    assert run_cli("reconstruct", "--shares", shares) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["secret"] == 3


def test_equalize_lengths_pads_with_spaces_after_the_document():
    docs = [{"v": 1}, {"v": 1234}, {"pad": "", "inner": {"pad": ""}}]
    blobs = serial.equalize_lengths(docs, "empty-report")
    assert len({len(blob) for blob in blobs}) == 1
    for doc, blob in zip(docs, blobs):
        bare = serial.serialize("empty-report", doc)
        assert blob == bare[:-1] + b" " * (len(blob) - len(bare)) + b"\n"
        assert serial.deserialize(blob, "empty-report") == doc
    assert blobs[2] == serial.serialize("empty-report", docs[2])     # the longest


def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert run_cli("--seed", "4", "simulate", "--trials", "5", "--malicious", "1",
                   "--parties", "4", "--gamma0", "1,2", "--out", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["payload"]["totals"]["corrupted_trials"] == 5
    full = serial.deserialize(out.read_bytes(), "sim-report")
    assert len(full["trials"]) == 5
