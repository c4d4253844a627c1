"""Canonical, self-describing serialization.

Documents are JSON objects {"schema": <kind>, "version": 1, "payload": ...}
rendered with sorted keys and no whitespace, so a fixed input always
produces the same bytes.  Integers are arbitrary precision (JSON numbers
are decimal strings); floats are refused outright to keep byte output
platform independent.  Matrices carry explicit shape and a declared
bit width of 64 that is enforced on load.
"""

from __future__ import annotations

import json

import numpy as np

VERSION = 1

KNOWN_SCHEMAS = {
    "set-system",
    "intersection-report",
    "token-instance",
    "share-bundle",
    "reconstruction",
    "verdict-map",
    "sim-report",
    "empty-report",
}


class SerializationError(ValueError):
    pass


def _reject_floats(obj, path="$"):
    if isinstance(obj, float):
        raise SerializationError(f"float at {path} would break byte determinism")
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise SerializationError(f"non-string key at {path}")
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):     # flat integer arrays: done
            return
        for i, v in enumerate(obj):
            _reject_floats(v, f"{path}[{i}]")


def serialize(kind: str, payload) -> bytes:
    if kind not in KNOWN_SCHEMAS:
        raise SerializationError(f"unknown schema kind {kind!r}")
    doc = {"schema": kind, "version": VERSION, "payload": payload}
    _reject_floats(payload)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode() + b"\n"


def deserialize(data: bytes, expect_kind: str | None = None):
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SerializationError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"schema", "version", "payload"}:
        raise SerializationError("document must carry schema, version and payload")
    if doc["version"] != VERSION:
        raise SerializationError(f"unsupported version {doc['version']!r}")
    if doc["schema"] not in KNOWN_SCHEMAS:
        raise SerializationError(f"unknown schema kind {doc['schema']!r}")
    if expect_kind is not None and doc["schema"] != expect_kind:
        raise SerializationError(
            f"expected schema {expect_kind!r}, found {doc['schema']!r}")
    return doc["payload"]


_WIDTH = 64                  # bits per matrix entry, the only width on the wire
_LIMIT = 1 << (_WIDTH - 1)


def matrix_doc(mat) -> dict:
    arr = np.asarray(mat)
    flat = [int(v) for v in arr.reshape(-1)]
    if any(not -_LIMIT <= v < _LIMIT for v in flat):
        raise SerializationError(f"matrix entry exceeds width {_WIDTH}")
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            "width": _WIDTH, "data": flat}


def doc_matrix(doc: dict) -> np.ndarray:
    try:
        rows, cols, width, data = doc["rows"], doc["cols"], doc["width"], doc["data"]
    except (KeyError, TypeError) as exc:
        raise SerializationError("matrix document is missing fields") from exc
    if width != _WIDTH:
        raise SerializationError(f"matrix width must be {_WIDTH}, not {width!r}")
    if rows * cols != len(data):
        raise SerializationError("matrix length does not match its shape")
    if any(not isinstance(v, int) or not -_LIMIT <= v < _LIMIT for v in data):
        raise SerializationError("matrix entry exceeds declared width")
    return np.array(data, dtype=np.int64).reshape(rows, cols)


def set_system_doc(system) -> dict:
    return {
        "m": system.modulus.m,
        "universe_size": system.universe_size,
        "sets": [[int(i) for i in np.flatnonzero(row)] for row in system.sets],
        "labels": [lab if isinstance(lab, str) else repr(lab)
                   for lab in system.labels] if system.labels else [],
    }


def doc_set_system(payload: dict):
    from .numt import Modulus
    from .setsys import SetSystem

    try:
        h = int(payload["universe_size"])
        rows = payload["sets"]
        m = int(payload["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("set-system document is missing fields") from exc
    sets = np.zeros((len(rows), h), dtype=bool)
    for i, row in enumerate(rows):
        idx = np.asarray(row, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= h):
            raise SerializationError("set element outside the declared universe")
        sets[i, idx] = True
    return SetSystem(Modulus.of(m), h, sets, labels=list(payload.get("labels", [])))


def equalize_lengths(docs: list[dict], kind: str) -> list[bytes]:
    """Serialize sibling documents padded to one common byte length.

    Each payload gets a string "pad" field at its top level, overriding
    any it carries; spaces are appended inside it until all siblings
    match.  The documents themselves are left untouched.
    """
    marker = b'"pad":""'
    blobs = []
    for doc in docs:
        blob = serialize(kind, {**doc, "pad": ""})
        if blob.count(marker) != 1:
            raise SerializationError("payload must carry exactly one empty pad field")
        blobs.append(blob)
    target = max(len(b) for b in blobs)
    out = []
    for blob in blobs:
        fill = b" " * (target - len(blob))
        padded = blob.replace(marker, b'"pad":"' + fill + b'"', 1)
        if len(padded) != target:
            raise SerializationError("padding failed to equalize byte lengths")
        out.append(padded)
    return out
