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
name prefixes: ``mu/``, ``U/``, ``ledger/`` (spectra, ``sv/``), ``coef/``
and ``raw/``; their meta keeps only what these entries cannot say.

A matrix's precision is its dtype: the writer stores a float32 matrix as
``f32`` and any other real one as ``f64``, and the reader gives each
entry as a ``<f4`` or ``<f8`` array.  A reader checks a file's manifest
whole but may read only some of its entries.  Its one record, the
document, maps each entry read, by name in file order, to its matrix.
The entries read go into one buffer, of which those matrices are
read-only views, so reading costs one copy of them.

Every reader-side failure raises a :class:`~uws.errors.ContainerError`
subclass naming the byte offset where the problem was detected; no input,
however corrupt, may surface anything else.
"""

from __future__ import annotations

import io
import json
import os
import struct
from contextlib import contextmanager
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
from ..tensor import as_real, finite_entries

MAGIC = b"UWS1"
HEADER_LEN = 12

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class ContainerDocument(NamedTuple):
    """A container's model id, each entry read mapped by name, in file
    order, to its read-only ``<f4`` or ``<f8`` matrix (``layers``), its
    meta and the shape of every entry, read or not."""

    model_id: str
    layers: dict
    meta: dict | None
    shapes: dict


@contextmanager
def _atomic_file(path):
    """A binary file that appears at ``path`` only once the ``with`` block
    completes: it is written as a sibling temp file and renamed, so an
    error or a crash of the process never leaves a partially written file
    there.  Nothing is fsynced, so no promise is made across a power loss
    or an operating-system crash.  The temp file is created with mode
    0o666, which the umask trims, as ``open()`` creates a file.  An error
    creating it or renaming it to ``path`` names ``path``, not the temp file."""
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (see :func:`_atomic_file`)."""
    with _atomic_file(path) as fh:
        fh.write(blob)


def _layout(model_id: str, entries, meta: dict | None):
    """Validate a container's layout and values without encoding them.

    Returns the header (magic, manifest length and manifest) and the
    ``(matrix, dtype)`` pairs whose encodings follow it, in order: a
    float32 matrix is stored as ``f32`` and any other as ``f64``
    (:func:`~uws.tensor.as_real`), and each must be finite."""
    if not isinstance(model_id, str):
        raise InvalidArgumentError(f"model_id must be a string, got {type(model_id).__name__}")
    records = []
    payload = []
    seen = set()
    offset = 0
    for entry in entries:
        try:
            name, arr = entry
        except (TypeError, ValueError):
            raise InvalidArgumentError("each entry must be a (name, matrix) pair")
        if not isinstance(name, str) or not name:
            raise InvalidArgumentError(f"layer name must be a nonempty string, got {name!r}")
        if name in seen:
            raise InvalidArgumentError(f"duplicate layer name {name!r}")
        seen.add(name)
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float32):
            arr = as_real(arr, f"layer {name!r}")
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidArgumentError(
                f"layer {name!r}: expected a nonempty 2-D matrix, got shape {arr.shape}"
            )
        finite_entries(arr, f"layer {name!r}")
        dtype = "f32" if arr.dtype == np.float32 else "f64"
        records.append(
            {
                "name": name,
                "rows": int(arr.shape[0]),
                "cols": int(arr.shape[1]),
                "dtype": dtype,
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        payload.append((arr, dtype))
        offset += arr.nbytes
    manifest: dict = {"model_id": model_id, "layers": records}
    if meta is not None:
        if not isinstance(meta, dict):
            raise InvalidArgumentError("meta must be a dict")
        manifest["meta"] = meta
    try:
        text = json.dumps(manifest, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"meta is not JSON-serializable: {exc}") from exc
    manifest_bytes = text.encode("utf-8")
    return MAGIC + struct.pack("<Q", len(manifest_bytes)) + manifest_bytes, payload


def write_container(path, model_id: str, entries, meta: dict | None = None) -> None:
    """Write named matrices to ``path``.

    ``entries`` is an iterable of ``(name, matrix)`` pairs, each matrix a
    nonempty, 2-D, finite real one; a float32 matrix is stored as ``f32``
    and any other as ``f64``, so ``write_container(path, doc.model_id,
    doc.layers.items(), doc.meta)`` writes a document back bit for bit.
    Every matrix is checked before the file is opened, so a refused one
    leaves no file.  The write is atomic and byte-deterministic for
    identical inputs, and goes straight to the file: the header, then
    each matrix row-major little-endian, so no copy of the whole file is
    built in memory.
    """
    header, payload = _layout(model_id, entries, meta)
    with _atomic_file(path) as fh:
        fh.write(header)
        for arr, dtype in payload:
            fh.write(memoryview(np.ascontiguousarray(arr, dtype=_DTYPES[dtype])).cast("B"))


def _manifest_error(detail: str) -> ManifestError:
    return ManifestError(f"bad manifest: {detail}", HEADER_LEN)


def _require_int(layer: dict, key: str, minimum: int) -> int:
    val = layer.get(key)
    if isinstance(val, bool) or not isinstance(val, int):
        raise _manifest_error(f"layer field {key!r} must be an integer, got {val!r}")
    if val < minimum:
        raise _manifest_error(f"layer field {key!r} must be >= {minimum}, got {val}")
    return val


def _fill(fh, buf, at: int) -> None:
    """Fill ``buf`` from byte ``at`` of ``fh``; a file shorter than its
    size said raises TruncatedFileError."""
    fh.seek(at)
    view, got = memoryview(buf), 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise TruncatedFileError(f"file ends at byte {at + got}, before its size", at + got)
        got += n


def _read(fh, size: int, names) -> ContainerDocument:
    """The container in ``fh``, of ``size`` bytes: its manifest, checked
    whole against that size, and the entries that ``names`` holds (all
    where it is None), read into one buffer and checked finite."""
    if size < HEADER_LEN:
        raise TruncatedFileError(
            f"file ends after {size} bytes; a {HEADER_LEN}-byte header is required", size
        )
    head = bytearray(HEADER_LEN)
    _fill(fh, head, 0)
    if head[:4] != MAGIC:
        raise BadMagicError(f"magic bytes {bytes(head[:4])!r} are not {MAGIC!r}", 0)
    (manifest_len,) = struct.unpack("<Q", head[4:HEADER_LEN])
    if HEADER_LEN + manifest_len > size:
        raise TruncatedFileError(
            f"manifest of {manifest_len} bytes extends past the end of the file", HEADER_LEN
        )
    manifest_bytes = bytearray(manifest_len)
    _fill(fh, manifest_bytes, HEADER_LEN)
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

    payload_base = HEADER_LEN + manifest_len
    payload_len = size - payload_base
    shapes, wanted = {}, []
    expected_offset = 0
    for rec in raw_layers:
        if not isinstance(rec, dict):
            raise _manifest_error(f"layer record must be an object, got {rec!r}")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise _manifest_error(f"layer name must be a nonempty string, got {name!r}")
        if name in shapes:
            raise _manifest_error(f"duplicate layer name {name!r}")
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
        if offset + nbytes > payload_len:
            raise TruncatedFileError(
                f"layer {name!r} needs payload bytes [{offset}, {offset + nbytes}) "
                f"but only {payload_len} payload bytes are present",
                size,
            )
        shapes[name] = (rows, cols)
        if names is None or name in names:
            wanted.append((name, dtype, payload_base + offset, nbytes))
    if payload_len != expected_offset:
        raise PayloadMismatchError(
            f"payload holds {payload_len} bytes but the manifest declares {expected_offset}",
            payload_base,
        )

    buf = bytearray(sum(nbytes for *_, nbytes in wanted))
    view = memoryview(buf).toreadonly()
    layers, start = {}, 0
    for name, dtype, at, nbytes in wanted:
        _fill(fh, memoryview(buf)[start : start + nbytes], at)
        arr = np.frombuffer(view, dtype=_DTYPES[dtype], count=nbytes // _DTYPES[dtype].itemsize,
                            offset=start)
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise CorruptPayloadError(
                f"layer {name!r} decodes to a non-finite value at element {bad}",
                at + bad * arr.itemsize,
            )
        layers[name] = arr.reshape(shapes[name])
        start += nbytes
    return ContainerDocument(model_id, layers, meta, shapes)


def parse_container(data: bytes) -> ContainerDocument:
    """Parse container bytes as :func:`read_container` reads a file."""
    return _read(io.BytesIO(data), len(data), None)


def read_container(path, names=None) -> ContainerDocument:
    """Read a container file: its manifest, checked whole against the size
    ``os.fstat`` gives, and the entries named in ``names`` (anything that
    answers ``name in names``; all by default), checked finite.  A name
    the file lacks is no error; ``shapes`` lists every entry."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return _read(fh, os.fstat(fh.fileno()).st_size, names)
    except OSError as exc:
        raise ContainerError(f"cannot read container file {path}: {exc}", 0) from exc
