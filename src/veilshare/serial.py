"""Canonical, self-describing serialization.

Documents are JSON objects {"schema": <kind>, "version": 7, "payload": ...}
rendered with sorted keys and no whitespace, so a fixed input always
produces the same bytes; equalize_lengths pads siblings to one length
with spaces after the JSON, which every reader skips.  Integers are
arbitrary precision; floats are refused outright to keep byte output
platform independent.  Documents of any other version, and objects that
repeat a key, are refused.

Binary fields are canonical base64 text, and a matrix is written in one
of two forms, both row-major and packed least significant bit first with
zero bits filling the last byte.

* A matrix document {"rows", "cols", "bits", "b64"} writes each int64
  entry as a `bits`-wide two's-complement field.  `bits` is the fewest
  that hold every entry.
* A Rice document {"rows", "cols", "k", "b64"} (Golomb-Rice with divisor
  2^k, as in Falcon's signature compression) writes small signed entries
  in two runs: first one (1 + k)-bit field per entry, a sign bit and then
  the k low bits of |v|; then each high part |v| >> k in unary, as that
  many zeros and a one.  Magnitudes lie below 2^31, so k lies in [0, 30],
  and k is the smallest of least coded length.  Zero carries no sign.

Every width, k and sign is thus a function of the data, so a fixed input
still gives fixed bytes, and the loaders refuse any document that would
not serialize back to the same bytes.
"""

from __future__ import annotations

import base64
import itertools
import json

import numpy as np

VERSION = 7
RICE_BITS = 31                   # Rice-coded magnitudes lie below 2**RICE_BITS

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


def _no_float(text: str):
    """json number hook: the schemas hold integers only, so 6.0 or NaN is refused."""
    raise SerializationError(f"non-integer number {text} in document")


def deserialize(data: bytes, expect_kind: str):
    """The payload of a document of kind expect_kind; anything else is refused."""
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys,
                         parse_float=_no_float, parse_constant=_no_float)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SerializationError(f"malformed document: {exc}") from exc
    read_fields(doc, "document", ("schema", "version", "payload"))
    if doc["version"] != VERSION:
        raise SerializationError(f"unsupported version {doc['version']!r}")
    if doc["schema"] != expect_kind:
        raise SerializationError(
            f"expected schema {expect_kind!r}, found {doc['schema']!r}")
    return doc["payload"]


def read_fields(doc, what: str, names, optional=()) -> dict:
    """doc if it is a JSON object of exactly names plus any of optional.

    Of a lazy names, no more is read than one past the object's size.
    """
    if not isinstance(doc, dict):
        raise SerializationError(f"{what} must be a JSON object")
    names = list(itertools.islice(names, len(doc) + 1))
    if not set(names) <= doc.keys() <= {*names, *optional}:
        extra = f" and an optional {', '.join(optional)}" if optional else ""
        raise SerializationError(f"{what} must be exactly the fields {', '.join(names)}{extra}")
    return doc


def read_int(value, what: str, low: int | None = None) -> int:
    """value if it is a JSON integer of at least low: type() is int refuses
    the strings, floats and booleans that int() and isinstance would take."""
    if type(value) is not int or (low is not None and value < low):
        floor = "" if low is None else f" of at least {low}"
        raise SerializationError(f"{what} must be an integer{floor}")
    return value


def read_ints(value, what: str) -> list[int]:
    """value if it is a list of JSON integers."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise SerializationError(f"{what} must be a list of integers")
    return value


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


def _flat_entries(mat) -> tuple[tuple[int, int], np.ndarray]:
    """Shape and row-major little-endian int64 entries of a 2-d matrix."""
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise SerializationError("a matrix document holds a 2-d array")
    try:                                        # e.g. object arrays of Python ints
        flat = np.ascontiguousarray(arr, dtype="<i8").reshape(-1)
    except OverflowError as exc:
        raise SerializationError("matrix entry does not fit 64 bits") from exc
    return (int(arr.shape[0]), int(arr.shape[1])), flat


def matrix_doc(mat) -> dict:
    (rows, cols), flat = _flat_entries(mat)
    bits = _signed_width(flat)
    planes = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1, count=bits,
                           bitorder="little")
    packed = np.packbits(planes, bitorder="little")
    return {"rows": rows, "cols": cols, "bits": bits, "b64": to_b64(packed.tobytes())}


def _reshape(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    try:
        return flat.reshape(rows, cols)
    except ValueError as exc:                   # an empty matrix of absurd shape
        raise SerializationError(f"matrix shape is out of range: {exc}") from exc


def _doc_ints(doc, width: str) -> tuple[int, int, int]:
    """rows, cols and width of a binary matrix document, which holds them and b64 only."""
    read_fields(doc, "matrix document", ("rows", "cols", width, "b64"))
    return (read_int(doc["rows"], "matrix rows", 0), read_int(doc["cols"], "matrix cols", 0),
            read_int(doc[width], f"matrix {width}"))


def doc_matrix(doc: dict) -> np.ndarray:
    rows, cols, bits = _doc_ints(doc, "bits")
    if not 1 <= bits <= 64:
        raise SerializationError(f"matrix bits must lie in [1, 64], not {bits}")
    data = from_b64(doc["b64"])
    count = rows * cols
    if len(data) != -(-count * bits // 8):
        raise SerializationError("matrix length does not match its shape")
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if stream[count * bits:].any():
        raise SerializationError("matrix pad bits must be zero")
    fields = stream[: count * bits].reshape(count, bits)
    # two's complement: bit j weighs 2^j and the sign bit -2^(bits-1); every
    # partial sum is an integer below 2^53 in magnitude while bits <= 53
    weights = [1 << j for j in range(bits - 1)] + [-(1 << (bits - 1))]
    if bits <= 53:
        flat = (fields @ np.array(weights, dtype=np.float64)).astype(np.int64)
    else:
        flat = np.array(fields.astype(object) @ np.array(weights, dtype=object),
                        dtype=np.int64)
    if _signed_width(flat) != bits:
        raise SerializationError("matrix bits is not the minimal width of its data")
    return _reshape(flat, rows, cols)


def _rice_k(magnitudes: np.ndarray) -> int:
    """Smallest k of least Rice-coded length for these magnitudes.

    The length count * (k + 2) + sum(m >> k) is convex in k, so the first
    k whose successor is no shorter is the minimum.
    """
    count = magnitudes.size
    k, high = 0, int(magnitudes.sum())
    while k + 1 < RICE_BITS:
        nxt = int((magnitudes >> (k + 1)).sum())
        if count + nxt >= high:
            break
        k, high = k + 1, nxt
    return k


def rice_doc(mat) -> dict:
    """Rice document of an integer matrix whose entries lie within +-(2^31 - 1)."""
    (rows, cols), flat = _flat_entries(mat)
    limit = 1 << RICE_BITS
    if flat.size and not -limit < int(flat.min()) <= int(flat.max()) < limit:
        raise SerializationError(f"Rice-coded entries must lie within +-(2**{RICE_BITS} - 1)")
    magnitudes = np.abs(flat)
    k = _rice_k(magnitudes)
    fixed = np.empty((flat.size, k + 1), dtype=np.uint8)
    fixed[:, 0] = flat < 0
    for j in range(k):                          # one pass per bit plane
        fixed[:, j + 1] = (magnitudes >> j) & 1
    high = magnitudes >> k
    unary = np.zeros(int(high.sum()) + flat.size, dtype=np.uint8)
    unary[np.cumsum(high + 1) - 1] = 1
    packed = np.packbits(np.concatenate([fixed.reshape(-1), unary]), bitorder="little")
    return {"rows": rows, "cols": cols, "k": k, "b64": to_b64(packed.tobytes())}


def doc_rice(doc: dict) -> np.ndarray:
    """Matrix of a Rice document; anything rice_doc would not write is refused."""
    rows, cols, k = _doc_ints(doc, "k")
    if not 0 <= k < RICE_BITS:
        raise SerializationError(f"Rice k must lie in [0, {RICE_BITS - 1}], not {k}")
    data = from_b64(doc["b64"])
    count = rows * cols
    fixed_bits = count * (k + 1)
    if fixed_bits + count > 8 * len(data):     # before allocating anything per entry
        raise SerializationError("coded matrix holds fewer codes than its shape")
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    ones = np.flatnonzero(stream[fixed_bits:].view(bool))    # bool: numpy's fast path
    if ones.size < count:
        raise SerializationError("coded matrix holds fewer codes than its shape")
    if ones.size > count:
        raise SerializationError(
            "coded matrix holds more codes than its shape, or nonzero pad bits")
    end = fixed_bits + (int(ones[-1]) + 1 if count else 0)
    if len(data) != -(-end // 8):
        raise SerializationError("coded matrix has bytes after its last code")
    high = np.diff(ones, prepend=-1) - 1
    if int(high.max(initial=0)) >> (RICE_BITS - k):
        raise SerializationError(
            f"coded matrix has a unary part of 2**{RICE_BITS - k} or more zeros: "
            f"magnitudes lie below 2**{RICE_BITS}")
    fields = stream[:fixed_bits].reshape(count, k + 1)
    magnitudes = high << k
    for j in range(k):
        magnitudes |= fields[:, j + 1].astype(np.int64) << j
    sign = fields[:, 0].astype(np.int64)
    if (sign & (magnitudes == 0)).any():
        raise SerializationError("coded matrix holds a negative zero")
    if _rice_k(magnitudes) != k:
        raise SerializationError("Rice k is not the minimal one for its data")
    return _reshape(magnitudes * (1 - 2 * sign), rows, cols)


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

    read_fields(payload, "set-system document", ("m", "universe_size", "sets"),
                optional=("labels", "t", "l"))
    h = read_int(payload["universe_size"], "set-system universe_size")
    m = read_int(payload["m"], "set-system m")
    rows, labels = payload["sets"], payload.get("labels", [])
    if not isinstance(rows, list):
        raise SerializationError("set-system sets must be a list")
    for row in rows:
        read_ints(row, "each set")
    # set_system_doc writes every label as a string, and no labels or one per set
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise SerializationError("set-system labels must be a list of strings")
    if len(labels) not in (0, len(rows)):
        raise SerializationError("set-system labels must be none or one per set")
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

    Spaces go before each document's final newline, up to the longest
    sibling; a reader skips them as it skips any whitespace after JSON.
    """
    blobs = [serialize(kind, doc) for doc in docs]
    target = max(len(blob) for blob in blobs)
    return [blob[:-1].ljust(target - 1) + b"\n" for blob in blobs]
