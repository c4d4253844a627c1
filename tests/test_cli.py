import json
from pathlib import Path

import numpy as np
import pytest

from veilshare import serial
from veilshare.cli import main
from veilshare.numt import Modulus
from veilshare.setsys import GrolmuszParams, build_grolmusz_system, merge_systems
from veilshare.sim import SimulationConfig, run_simulation
from veilshare.vss import VssParams


# ---------------------------------------------------------------------------
# canonical serialization


def test_empty_report_fixed_bytes():
    blob = serial.serialize("empty-report", {})
    assert blob == b'{"payload":{},"schema":"empty-report","version":1}\n'
    assert serial.deserialize(blob, "empty-report") == {}


def test_set_system_roundtrip_783():
    system = merge_systems(build_grolmusz_system(GrolmuszParams(Modulus.of(15), 3)), 2)
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


def test_matrix_width_enforced():
    doc = serial.matrix_doc(np.array([[1, 2], [3, 4]]))
    assert doc["width"] == 64
    assert (serial.doc_matrix(doc) == [[1, 2], [3, 4]]).all()
    with pytest.raises(serial.SerializationError):
        serial.matrix_doc(np.array([[2**63]], dtype=object))
    doc["data"][0] = 2**63
    with pytest.raises(serial.SerializationError):
        serial.doc_matrix(doc)
    doc["data"][0], doc["width"] = 1, 8       # 64 is the only width accepted
    with pytest.raises(serial.SerializationError):
        serial.doc_matrix(doc)


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
    capsys.readouterr()


def test_cli_hostile_share_files_exit_2(tmp_path, capsys):
    outdir = tmp_path / "shares"
    assert run_cli("--seed", "9", "--quiet", "deal", "--secret", "3",
                   "--gamma0", "1,2,3", "--parties", "5",
                   "--outdir", str(outdir)) == 0
    files = sorted(str(p) for p in outdir.glob("share_*.json"))
    bad = tmp_path / "bad.json"

    def rewritten(path, change):
        payload = serial.deserialize(Path(path).read_bytes(), "share-bundle")
        change(payload["instances"][0])
        bad.write_bytes(serial.serialize("share-bundle", payload))
        return str(bad)

    def assert_invalid(*argv):
        assert run_cli("--quiet", *argv) == 2
        assert capsys.readouterr().err.startswith("invalid:")

    # a declared width above 64 must not let a huge entry reach int64
    def widen(inst):
        inst["a"]["width"], inst["a"]["data"][0] = 100, 2**70
    assert_invalid("reconstruct", "--shares", rewritten(files[0], widen))

    # nesting deep enough to exhaust the parser's recursion limit
    bad.write_bytes(b"[" * 200_000)
    assert_invalid("reconstruct", "--shares", str(bad))

    # a chain member's encoding with one row removed, at every chain position
    def drop_row(inst):
        inst["d"]["rows"] -= 1
        inst["d"]["data"] = inst["d"]["data"][: -inst["d"]["cols"]]
    for victim in range(3):
        shares = [rewritten(f, drop_row) if i == victim else f
                  for i, f in enumerate(files[:3])]
        assert_invalid("reconstruct", "--shares", ",".join(shares))
        assert_invalid("verify", "--shares", ",".join(shares), "--secret", "3")


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
