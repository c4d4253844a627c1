"""Every leaf of a share document, rewritten to every hostile value, exits cleanly.

One fixed dealing (two chains, five parties) and the authorized coalition
of shares 1-3.  Each case rewrites one leaf to one value of a fixed list
and runs `reconstruct` and `verify` in-process: `main` must return 0, 2 or
3 and never raise, and a value whose JSON type differs from the leaf's
must be refused as malformed (exit 2).
"""

import copy
import json
import time

import pytest

from veilshare import serial
from veilshare.cli import main

VALUES = ["x", True, 2.5, None, [], [[[]]], 0, -1, 2**70]

PARAM_FIELDS = ("n", "p", "q")
INSTANCE_LEAVES = [("instance_id",), ("token",), ("token", 0), ("header_ct",),
                   ("key_share",)] + [
    (m, *rest) for m, width in (("a", "bits"), ("d", "k"))
    for rest in [(), ("rows",), ("cols",), (width,), ("b64",)]]


def cases():
    """(label, share indices to rewrite, path inside each payload)."""
    yield "party", (0,), ("party",)
    for field in PARAM_FIELDS:
        yield f"params.{field}", (0, 1, 2), ("params", field)
    for inst in (0, 1):
        for leaf in INSTANCE_LEAVES:
            path = ("instances", inst, *leaf)
            yield ".".join(str(k) for k in path), (0,), path


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("shares")
    assert main(["--seed", "9", "--quiet", "deal", "--secret", "3",
                 "--gamma0", "1,2,3;4,5", "--parties", "5",
                 "--outdir", str(outdir)]) == 0
    return [serial.deserialize((outdir / f"share_{i:03d}.json").read_bytes(),
                               "share-bundle") for i in (1, 2, 3)]


def test_every_leaf_mutation_exits_cleanly(payloads, tmp_path, capsys):
    start = time.monotonic()
    failures = []
    runs = 0
    for label, victims, path in cases():
        for value in VALUES:
            files = []
            for i, payload in enumerate(payloads):
                doc = copy.deepcopy(payload)
                if i in victims:
                    parent = doc
                    for key in path[:-1]:
                        parent = parent[key]
                    old = parent[path[-1]]
                    parent[path[-1]] = value
                out = tmp_path / f"share_{i}.json"
                out.write_text(json.dumps(
                    {"schema": "share-bundle", "version": serial.VERSION, "payload": doc}))
                files.append(str(out))
            # json.loads maps each JSON type to one Python type
            must_refuse = type(value) is not type(old)
            for command in (["reconstruct"], ["verify", "--secret", "3"]):
                runs += 1
                try:
                    code = main(["--quiet", command[0], "--shares", ",".join(files),
                                 *command[1:]])
                except Exception as exc:          # noqa: BLE001 - the point of the test
                    failures.append((label, value, command[0], repr(exc)))
                    continue
                if code not in (0, 2, 3) or (must_refuse and code != 2):
                    failures.append((label, value, command[0], code))
    capsys.readouterr()
    elapsed = time.monotonic() - start
    print(f"{runs} mutation runs in {elapsed:.1f} s")
    assert not failures, failures
