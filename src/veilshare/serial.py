"""Canonical, self-describing serialization.

Documents are JSON objects {"schema": <kind>, "version": 4, "payload": ...}
rendered with sorted keys and no whitespace, so a fixed input always
produces the same bytes.  Integers are arbitrary precision; floats are
refused outright to keep byte output platform independent.  Documents of
any other version, and objects that repeat a key, are refused.

Binary fields are canonical base64 text.  A matrix document is
{"rows", "cols", "bits", "b64"}: its int64 entries, row-major, each
written as a `bits`-wide two's-complement field, packed least significant
bit first into bytes, and base64 encoded; the unused bits of the last
byte are zero.  `bits` is the fewest that hold every entry, so it is a
function of the data and a fixed input still gives fixed bytes.  The
loader refuses any document that would not serialize back to the same
bytes.
"""

from __future__ import annotations

import base64
import json

import numpy as np

VERSION = 4

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


def _unique_keys(pairs: list) -> dict:
    """json object hook: a repeated key would let a later value override what was read."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise SerializationError("document repeats a key")
    return obj


def deserialize(data: bytes, expect_kind: str | None = None):
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
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


def to_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def from_b64(text) -> bytes:
    """Bytes of a strict, canonical base64 string; anything else is refused."""
    if not isinstance(text, str):
        raise SerializationError("binary field must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:                   # binascii.Error or non-ASCII text
        raise SerializationError(f"invalid base64: {exc}") from exc
    if to_b64(data) != text:                    # nonzero unused bits in the last digit
        raise SerializationError("base64 is not in canonical form")
    return data


def _signed_width(arr: np.ndarray) -> int:
    """Fewest two's-complement bits holding every entry of an int64 array."""
    magnitude = int(np.max(arr ^ (arr >> 63), initial=0))   # v for v >= 0, ~v for v < 0
    return magnitude.bit_length() + 1


def matrix_doc(mat) -> dict:
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise SerializationError("a matrix document holds a 2-d array")
    try:                                        # e.g. object arrays of Python ints
        flat = np.ascontiguousarray(arr, dtype="<i8").reshape(-1)
    except OverflowError as exc:
        raise SerializationError("matrix entry does not fit 64 bits") from exc
    bits = _signed_width(flat)
    planes = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1, count=bits,
                           bitorder="little")
    packed = np.packbits(planes, bitorder="little")
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "bits": bits,
            "b64": to_b64(packed.tobytes())}


def doc_matrix(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict) or doc.keys() != {"rows", "cols", "bits", "b64"}:
        raise SerializationError("a matrix document is exactly rows, cols, bits and b64")
    rows, cols, bits, text = doc["rows"], doc["cols"], doc["bits"], doc["b64"]
    if any(type(v) is not int for v in (rows, cols, bits)):
        raise SerializationError("matrix rows, cols and bits must be integers")
    if rows < 0 or cols < 0:
        raise SerializationError("matrix shape must be nonnegative")
    if not 1 <= bits <= 64:
        raise SerializationError(f"matrix bits must lie in [1, 64], not {bits}")
    data = from_b64(text)
    count = rows * cols
    if len(data) != -(-count * bits // 8):
        raise SerializationError("matrix length does not match its shape")
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if stream[count * bits:].any():
        raise SerializationError("matrix pad bits must be zero")
    planes = np.empty((count, 64), dtype=np.uint8)
    planes[:, :bits] = stream[: count * bits].reshape(count, bits)
    planes[:, bits:] = planes[:, bits - 1: bits]          # sign extension
    flat = np.packbits(planes, axis=1, bitorder="little").view("<i8").reshape(-1)
    if _signed_width(flat) != bits:
        raise SerializationError("matrix bits is not the minimal width of its data")
    try:
        return flat.astype(np.int64, copy=False).reshape(rows, cols)
    except ValueError as exc:                   # an empty matrix of absurd shape
        raise SerializationError(f"matrix shape is out of range: {exc}") from exc


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
    from .setsys import SetSystem, require_cells

    try:
        h = int(payload["universe_size"])
        rows = payload["sets"]
        m = int(payload["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("set-system document is missing fields") from exc
    labels = payload.get("labels", [])
    if not isinstance(rows, list) or not isinstance(labels, list):
        raise SerializationError("set-system sets and labels must be lists")
    if any(not isinstance(row, list) or any(type(v) is not int for v in row)
           for row in rows):
        raise SerializationError("set elements must be integers")
    # an element in no member set changes no size and no intersection, so a
    # larger universe would only allocate what the file never spells out
    entries = sum(len(row) for row in rows)
    if h > entries:
        raise SerializationError(
            f"universe_size {h} exceeds the {entries} element entries the sets list")
    require_cells(len(rows), h)
    sets = np.zeros((len(rows), h), dtype=bool)
    for i, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= h):
            raise SerializationError("set element outside the declared universe")
        sets[i, row] = True
    return SetSystem(Modulus.of(m), h, sets, labels=labels)


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
