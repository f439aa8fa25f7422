"""Bit-exact binary container for named weight matrices.

Layout::

    bytes 0..3    magic b"UWS1"
    bytes 4..11   unsigned 64-bit little-endian manifest length L
    bytes 12..12+L UTF-8 JSON manifest
    remainder     payload: the matrices, concatenated row-major
                  little-endian in manifest order

The manifest is ``{"model_id": str, "layers": [...]}`` with one record
``{"name", "rows", "cols", "dtype", "offset", "nbytes"}`` per matrix;
``dtype`` is ``"f32"`` or ``"f64"`` and ``offset`` counts from the start
of the payload.  An optional ``"meta"`` object carries auxiliary data
(subspace shapes, extraction settings) and survives round trips.

Subspace and coefficient files reuse this container with reserved layer
name prefixes: ``mu/``, ``U/``, ``core/``, ``ledger/``, ``coef/`` and
``raw/``.

Every reader-side failure raises a :class:`~uws.errors.ContainerError`
subclass naming the byte offset where the problem was detected; no input,
however corrupt, may surface anything else.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import (
    BadMagicError,
    ContainerError,
    CorruptPayloadError,
    InvalidArgumentError,
    ManifestError,
    PayloadMismatchError,
    TruncatedFileError,
    UnknownDtypeError,
)

MAGIC = b"UWS1"
HEADER_LEN = 12

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class LayerRecord(NamedTuple):
    name: str
    array: np.ndarray
    dtype: str


class ContainerDocument(NamedTuple):
    model_id: str
    layers: list[LayerRecord]
    meta: dict | None


def _encode_array(arr: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes(order="C")


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write via a sibling temp file and rename, so a crash or error can
    never leave a partially written file at the destination."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def build_container(model_id: str, layers, meta: dict | None = None) -> bytes:
    """Serialize to bytes; see :func:`write_container`."""
    if not isinstance(model_id, str):
        raise InvalidArgumentError(f"model_id must be a string, got {type(model_id).__name__}")
    records = []
    chunks = []
    seen = set()
    offset = 0
    for entry in layers:
        try:
            name, arr, dtype = entry
        except (TypeError, ValueError):
            raise InvalidArgumentError("each layer must be a (name, matrix, dtype) triple")
        if not isinstance(name, str) or not name:
            raise InvalidArgumentError(f"layer name must be a nonempty string, got {name!r}")
        if name in seen:
            raise InvalidArgumentError(f"duplicate layer name {name!r}")
        seen.add(name)
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise InvalidArgumentError(
                f"layer {name!r}: dtype must be one of {sorted(_DTYPES)}, got {dtype!r}"
            )
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidArgumentError(
                f"layer {name!r}: expected a nonempty 2-D matrix, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError(f"layer {name!r} contains non-finite values")
        blob = _encode_array(arr, dtype)
        records.append(
            {
                "name": name,
                "rows": int(arr.shape[0]),
                "cols": int(arr.shape[1]),
                "dtype": dtype,
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        chunks.append(blob)
        offset += len(blob)
    manifest: dict = {"model_id": model_id, "layers": records}
    if meta is not None:
        if not isinstance(meta, dict):
            raise InvalidArgumentError("meta must be a dict")
        manifest["meta"] = meta
    try:
        text = json.dumps(manifest, separators=(",", ":"), ensure_ascii=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"meta is not JSON-serializable: {exc}") from exc
    manifest_bytes = text.encode("utf-8")
    return MAGIC + struct.pack("<Q", len(manifest_bytes)) + manifest_bytes + b"".join(chunks)


def write_container(path, model_id: str, layers, meta: dict | None = None) -> None:
    """Write named matrices to ``path``.

    ``layers`` is an iterable of ``(name, matrix, dtype)`` with dtype
    ``"f32"`` or ``"f64"``; matrices are cast to the declared precision.
    The write is atomic and byte-deterministic for identical inputs.
    """
    atomic_write_bytes(path, build_container(model_id, layers, meta))


def _manifest_error(detail: str) -> ManifestError:
    return ManifestError(f"bad manifest: {detail}", HEADER_LEN)


def _require_int(layer: dict, key: str, minimum: int) -> int:
    val = layer.get(key)
    if isinstance(val, bool) or not isinstance(val, int):
        raise _manifest_error(f"layer field {key!r} must be an integer, got {val!r}")
    if val < minimum:
        raise _manifest_error(f"layer field {key!r} must be >= {minimum}, got {val}")
    return val


def parse_container(data: bytes) -> ContainerDocument:
    """Parse container bytes; raises a classified error on any defect."""
    if len(data) < HEADER_LEN:
        raise TruncatedFileError(
            f"file ends after {len(data)} bytes; a {HEADER_LEN}-byte header is required",
            len(data),
        )
    if data[:4] != MAGIC:
        raise BadMagicError(f"magic bytes {data[:4]!r} are not {MAGIC!r}", 0)
    (manifest_len,) = struct.unpack("<Q", data[4:HEADER_LEN])
    if HEADER_LEN + manifest_len > len(data):
        raise TruncatedFileError(
            f"manifest of {manifest_len} bytes extends past the end of the file", HEADER_LEN
        )
    manifest_bytes = data[HEADER_LEN : HEADER_LEN + manifest_len]
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid UTF-8: {exc}", HEADER_LEN) from exc
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}", HEADER_LEN) from exc
    if not isinstance(manifest, dict):
        raise _manifest_error("top level is not an object")
    model_id = manifest.get("model_id")
    if not isinstance(model_id, str):
        raise _manifest_error(f"model_id must be a string, got {model_id!r}")
    raw_layers = manifest.get("layers")
    if not isinstance(raw_layers, list):
        raise _manifest_error("layers must be an array")
    meta = manifest.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise _manifest_error("meta must be an object when present")

    payload = data[HEADER_LEN + manifest_len :]
    payload_base = HEADER_LEN + manifest_len
    layers: list[LayerRecord] = []
    seen: set[str] = set()
    expected_offset = 0
    for rec in raw_layers:
        if not isinstance(rec, dict):
            raise _manifest_error(f"layer record must be an object, got {rec!r}")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise _manifest_error(f"layer name must be a nonempty string, got {name!r}")
        if name in seen:
            raise _manifest_error(f"duplicate layer name {name!r}")
        seen.add(name)
        dtype = rec.get("dtype")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise UnknownDtypeError(
                f"layer {name!r} declares element type {dtype!r}; "
                f"this format defines {sorted(_DTYPES)}",
                HEADER_LEN,
            )
        rows = _require_int(rec, "rows", 1)
        cols = _require_int(rec, "cols", 1)
        offset = _require_int(rec, "offset", 0)
        nbytes = _require_int(rec, "nbytes", 0)
        itemsize = _DTYPES[dtype].itemsize
        if nbytes != rows * cols * itemsize:
            raise PayloadMismatchError(
                f"layer {name!r} declares {nbytes} bytes for a {rows}x{cols} "
                f"{dtype} matrix ({rows * cols * itemsize} expected)",
                payload_base + offset,
            )
        if offset != expected_offset:
            raise PayloadMismatchError(
                f"layer {name!r} starts at payload offset {offset}, expected "
                f"{expected_offset} (matrices must be contiguous)",
                payload_base + offset,
            )
        expected_offset += nbytes
        if offset + nbytes > len(payload):
            raise TruncatedFileError(
                f"layer {name!r} needs payload bytes [{offset}, {offset + nbytes}) "
                f"but only {len(payload)} payload bytes are present",
                len(data),
            )
        arr = np.frombuffer(payload, dtype=_DTYPES[dtype], count=rows * cols, offset=offset)
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise CorruptPayloadError(
                f"layer {name!r} decodes to a non-finite value at element {bad}",
                payload_base + offset + bad * itemsize,
            )
        layers.append(LayerRecord(name, arr.reshape(rows, cols).copy(), dtype))
    if len(payload) != expected_offset:
        raise PayloadMismatchError(
            f"payload holds {len(payload)} bytes but the manifest declares {expected_offset}",
            payload_base,
        )
    return ContainerDocument(model_id=model_id, layers=layers, meta=meta)


def read_container(path) -> ContainerDocument:
    """Read and parse a container file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ContainerError(f"cannot read container file {path}: {exc}", 0) from exc
    return parse_container(data)
