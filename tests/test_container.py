import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from uws.errors import (
    BadMagicError,
    ContainerError,
    CorruptPayloadError,
    InvalidArgumentError,
    ManifestError,
    PayloadMismatchError,
    TruncatedFileError,
    UnknownDtypeError,
)
from uws.ensemble.container import read_container, write_container


def hand_built_single_layer() -> tuple[bytes, np.ndarray]:
    """One 2x2 f64 layer, laid out byte by byte from the format notes."""
    mat = np.array([[1.5, -2.0], [0.25, 8.0]])
    manifest = (
        b'{"model_id":"m","layers":[{"name":"w","rows":2,"cols":2,'
        b'"dtype":"f64","offset":0,"nbytes":32}]}'
    )
    payload = struct.pack("<4d", 1.5, -2.0, 0.25, 8.0)  # row-major
    return b"UWS1" + struct.pack("<Q", len(manifest)) + manifest + payload, mat


def write_fixture(tmp_path, name="m.uws", meta=None):
    rng = np.random.default_rng(71)
    layers = [
        ("layers/0/w", rng.standard_normal((3, 4))),
        ("layers/1/w", rng.standard_normal((2, 2)).astype(np.float32)),
    ]
    path = tmp_path / name
    write_container(path, "fixture", layers, meta=meta)
    return path, layers


# ------------------------------------------------------------------- parsing


def test_hand_built_layout_parses(tmp_path):
    blob, mat = hand_built_single_layer()
    p = tmp_path / "hand.uws"
    p.write_bytes(blob)
    doc = read_container(p)
    assert doc.model_id == "m"
    assert list(doc.layers) == ["w"] and doc.layers["w"].dtype == "<f8"
    assert np.array_equal(doc.layers["w"], mat)
    assert doc.meta is None


def test_writer_reproduces_hand_layout(tmp_path):
    blob, mat = hand_built_single_layer()
    p = tmp_path / "writer.uws"
    write_container(p, "m", [("w", mat)])
    assert p.read_bytes() == blob


def test_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(72)
    for i in range(25):
        layers = []
        for j in range(int(rng.integers(1, 5))):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            arr = rng.standard_normal((r, c))
            if rng.integers(2):
                arr = arr.astype(np.float32)
            layers.append((f"L{j}", arr))
        p = tmp_path / f"m{i}.uws"
        write_container(p, f"model-{i}", layers, meta={"idx": i})
        raw = p.read_bytes()
        doc = read_container(p)
        assert doc.model_id == f"model-{i}"
        assert doc.meta == {"idx": i}
        assert list(doc.layers) == [name for name, _ in layers]
        for name, arr in layers:
            assert np.array_equal(arr, doc.layers[name])
            assert doc.layers[name].dtype == arr.dtype
        p2 = tmp_path / f"m{i}b.uws"
        write_container(p2, doc.model_id, doc.layers.items(), meta=doc.meta)
        assert p2.read_bytes() == raw


def test_a_read_is_one_document_of_entries_by_name(tmp_path):
    layers = [("c", np.ones((1, 3), np.float32)), ("a", np.eye(2)),
              ("b", np.arange(6.0, dtype=np.float32).reshape(3, 2))]
    path = tmp_path / "doc.uws"
    write_container(path, "m", layers, meta={"note": 1})
    raw = path.read_bytes()
    doc = read_container(path, names={"b", "c"})
    # the entries asked for, in file order, not the order of the names
    assert list(doc.layers) == ["c", "b"]
    assert [arr.dtype for arr in doc.layers.values()] == ["<f4", "<f4"]
    assert doc.shapes == {"c": (1, 3), "a": (2, 2), "b": (3, 2)}
    doc = read_container(path)
    assert list(doc.layers) == ["c", "a", "b"] and doc.layers["a"].dtype == "<f8"
    again = tmp_path / "again.uws"
    write_container(again, doc.model_id, doc.layers.items(), meta=doc.meta)
    assert again.read_bytes() == raw


def test_write_is_deterministic(tmp_path):
    _, layers = write_fixture(tmp_path, "a.uws")
    write_container(tmp_path / "b.uws", "fixture", layers)
    write_container(tmp_path / "c.uws", "fixture", layers)
    assert (tmp_path / "b.uws").read_bytes() == (tmp_path / "c.uws").read_bytes()


# -------------------------------------------------------------------- errors


def corrupt(tmp_path, blob: bytes, name="bad.uws"):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


def test_bad_magic_names_offset_zero(tmp_path):
    blob, _ = hand_built_single_layer()
    p = corrupt(tmp_path, b"UWSX" + blob[4:])
    with pytest.raises(BadMagicError) as ei:
        read_container(p)
    assert ei.value.offset == 0
    assert "offset 0" in str(ei.value)


def test_truncated_header(tmp_path):
    p = corrupt(tmp_path, b"UWS1\x05")
    with pytest.raises(TruncatedFileError):
        read_container(p)


def test_manifest_length_past_eof(tmp_path):
    blob, _ = hand_built_single_layer()
    p = corrupt(tmp_path, blob[:4] + struct.pack("<Q", 10_000) + blob[12:])
    with pytest.raises(TruncatedFileError) as ei:
        read_container(p)
    assert ei.value.offset == 12


def test_manifest_invalid_json(tmp_path):
    manifest = b'{"model_id":'
    blob = b"UWS1" + struct.pack("<Q", len(manifest)) + manifest
    with pytest.raises(ManifestError):
        read_container(corrupt(tmp_path, blob))


def test_manifest_invalid_utf8(tmp_path):
    manifest = b'\xff\xfe{"a":1}'
    blob = b"UWS1" + struct.pack("<Q", len(manifest)) + manifest
    with pytest.raises(ManifestError):
        read_container(corrupt(tmp_path, blob))


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"layers":[]}',
        '{"model_id":"m"}',
        '{"model_id":3,"layers":[]}',
        '{"model_id":"m","layers":{}}',
        '{"model_id":"m","layers":[3]}',
        '{"model_id":"m","layers":[{"name":"w","rows":2,"cols":2,"dtype":"f64","offset":0}]}',
        '{"model_id":"m","layers":[{"name":7,"rows":2,"cols":2,"dtype":"f64","offset":0,"nbytes":32}]}',
        '{"model_id":"m","layers":[{"name":"w","rows":"2","cols":2,"dtype":"f64","offset":0,"nbytes":32}]}',
        '{"model_id":"m","layers":[{"name":"w","rows":0,"cols":2,"dtype":"f64","offset":0,"nbytes":0}]}',
        '{"model_id":"m","layers":[{"name":"w","rows":2,"cols":2,"dtype":"f64","offset":-8,"nbytes":32}]}',
        '{"model_id":"m","layers":[{"name":"w","rows":2,"cols":2,"dtype":"f64","offset":0,"nbytes":32},'
        '{"name":"w","rows":2,"cols":2,"dtype":"f64","offset":32,"nbytes":32}]}',
        '{"model_id":"m","layers":[],"meta":5}',
    ],
)
def test_manifest_schema_violations(tmp_path, doc):
    manifest = doc.encode()
    payload = bytes(64)
    blob = b"UWS1" + struct.pack("<Q", len(manifest)) + manifest + payload
    with pytest.raises(ManifestError):
        read_container(corrupt(tmp_path, blob))


def test_unknown_dtype(tmp_path):
    manifest = json.dumps(
        {
            "model_id": "m",
            "layers": [
                {"name": "w", "rows": 2, "cols": 2, "dtype": "f16", "offset": 0, "nbytes": 8}
            ],
        },
        separators=(",", ":"),
    ).encode()
    blob = b"UWS1" + struct.pack("<Q", len(manifest)) + manifest + bytes(8)
    with pytest.raises(UnknownDtypeError):
        read_container(corrupt(tmp_path, blob))


def test_nbytes_disagrees_with_shape(tmp_path):
    manifest = json.dumps(
        {
            "model_id": "m",
            "layers": [
                {"name": "w", "rows": 2, "cols": 2, "dtype": "f64", "offset": 0, "nbytes": 24}
            ],
        },
        separators=(",", ":"),
    ).encode()
    blob = b"UWS1" + struct.pack("<Q", len(manifest)) + manifest + bytes(24)
    with pytest.raises(PayloadMismatchError):
        read_container(corrupt(tmp_path, blob))


def test_payload_too_short_and_too_long(tmp_path):
    blob, _ = hand_built_single_layer()
    with pytest.raises((TruncatedFileError, PayloadMismatchError)):
        read_container(corrupt(tmp_path, blob[:-8], "short.uws"))
    with pytest.raises(PayloadMismatchError):
        read_container(corrupt(tmp_path, blob + bytes(4), "long.uws"))


def test_non_finite_payload_is_classified(tmp_path):
    blob, _ = hand_built_single_layer()
    nan = struct.pack("<d", np.nan)
    p = corrupt(tmp_path, blob[: len(blob) - 32] + nan + blob[len(blob) - 24 :])
    with pytest.raises(CorruptPayloadError):
        read_container(p)


def test_missing_file_is_classified(tmp_path):
    with pytest.raises(ContainerError):
        read_container(tmp_path / "nope.uws")


# ------------------------------------------------------------ writer guards


@pytest.mark.parametrize("args, message", [
    (("m", [("w", np.array([[1 + 1j]]))]), "layer 'w' is complex"),
    (("m", [("w", [[True]])]), "layer 'w' does not form a real tensor: its dtype is bool"),
    (("m", [("w", np.array([1.0, 2.0]))]), "layer 'w': expected a nonempty 2-D matrix"),
    (("m", [("w", np.array([[np.nan]]))]), "layer 'w' must be finite, got nan at index (0, 0)"),
    # finite, but past the float64 range: refused as such, not as the inf a cast makes
    pytest.param(("m", [("w", np.array([[np.longdouble("1e400")]]))]),
                 "layer 'w' has values beyond the float64 range",
                 marks=pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                                          reason="long double is no wider than float64 here")),
    (("m", [("", np.zeros((1, 1)))]), "layer name must be a nonempty string"),
    (("m", [("w", np.zeros((1, 1))), ("w", np.ones((1, 1)))]), "duplicate layer name 'w'"),
    (("m", [("w", np.zeros((1, 1)), "f64")]), "each entry must be a (name, matrix) pair"),
    (("m", [np.zeros((1, 1))]), "each entry must be a (name, matrix) pair"),
    ((1, [("w", np.zeros((1, 1)))]), "model_id must be a string, got int"),
    (("m", [("w", np.zeros((1, 1)))], ["note"]), "meta must be a dict"),
    # not JSON: the manifest would not parse
    (("m", [("w", np.zeros((1, 1)))], {"epsilon": float("nan")}), "meta is not JSON"),
    (("m", [("w", np.zeros((1, 1)))], {"epsilon": float("inf")}), "meta is not JSON"),
])
def test_writer_rejects_bad_inputs(tmp_path, args, message):
    p = tmp_path / "x.uws"
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message)):
        write_container(p, *args)
    assert not p.exists()


def test_a_matrix_is_stored_at_its_own_precision(tmp_path):
    """float32 as f32 and any other real matrix as f64, so a value beyond
    the float32 range is stored as it is, not refused or cut."""
    p = tmp_path / "big.uws"
    big = np.array([[1.0, -1e40]])
    write_container(p, "m", [("a", np.ones((1, 1), np.float32)), ("w", big),
                             ("i", np.array([[2**40, -3]]))])
    doc = read_container(p)
    assert [arr.dtype for arr in doc.layers.values()] == ["<f4", "<f8", "<f8"]
    assert doc.layers["w"][0, 1] == -1e40 and doc.layers["i"].tolist() == [[2.0**40, -3.0]]


def test_failed_write_leaves_no_partial_file(tmp_path):
    p = tmp_path / "y.uws"
    with pytest.raises(InvalidArgumentError):
        write_container(p, "m", [("w", np.array([[np.inf]]))])
    assert not p.exists()
    assert list(tmp_path.iterdir()) == []


def test_write_into_an_existing_directory_names_it_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "outdir"
    target.mkdir()
    with pytest.raises(OSError) as caught:
        write_container(target, "m", [("w", np.ones((1, 1)))])
    exc = caught.value
    assert exc.filename == str(target) and exc.filename2 is None
    assert str(exc) == f"[Errno {exc.errno}] {exc.strerror}: {str(target)!r}"
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_a_temp_name_that_is_taken_is_drawn_again(monkeypatch, tmp_path):
    target = tmp_path / "x.uws"
    taken = tmp_path / f".x.uws.{bytes(8).hex()}.tmp"
    taken.write_bytes(b"someone else's")
    draws = iter([bytes(8), b"\x01" * 8])  # the first draw names the taken file
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    write_container(target, "m", [("w", np.ones((1, 1)))])
    assert next(draws, None) is None  # drawn twice
    assert taken.read_bytes() == b"someone else's"
    assert sorted(tmp_path.iterdir()) == sorted([taken, target])
    assert read_container(target).model_id == "m"


def test_write_into_a_missing_directory_names_the_destination(tmp_path):
    target = tmp_path / "absent" / "x.uws"
    with pytest.raises(FileNotFoundError) as caught:
        write_container(target, "m", [("w", np.ones((1, 1)))])
    assert caught.value.filename == str(target)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- fuzz


def fuzz_once(rng, base: bytes, tmp_path, i: int):
    """Structure-damaging corruption; returns the mutated blob."""
    op = rng.integers(4)
    blob = bytearray(base)
    if op == 0:  # truncate strictly inside the file
        cut = int(rng.integers(0, len(blob)))
        blob = blob[:cut]
    elif op == 1:  # damage the magic
        pos = int(rng.integers(0, 4))
        old = blob[pos]
        new = int(rng.integers(0, 256))
        blob[pos] = new if new != old else (old + 1) % 256
    elif op == 2:  # rewrite the manifest-length field
        true_len = struct.unpack("<Q", base[4:12])[0]
        while True:
            val = int(rng.integers(0, 2**63))
            if val != true_len:
                break
        blob[4:12] = struct.pack("<Q", val)
    else:  # grow or shrink the payload
        if rng.integers(2):
            blob.extend(rng.integers(0, 256, size=int(rng.integers(1, 17))).tolist())
        else:
            drop = int(rng.integers(1, 17))
            blob = blob[: max(12, len(blob) - drop)]
    p = tmp_path / "fuzz.uws"
    p.write_bytes(bytes(blob))
    return p


RANGES = [(), ("layers/1/w",), ("layers/0/w", "layers/1/w")]


def assert_ranged_reads_agree(path):
    """A read of no entry, of one and of all either raises a classified
    error, where the full read raises one too, or returns the full read's
    arrays for the names asked; it may succeed where the full read fails
    only on a non-finite value in an entry it skips."""
    try:
        full = read_container(path)
    except ContainerError as exc:
        full = exc
    for names in RANGES:
        try:
            doc = read_container(path, names=names)
        except ContainerError:
            assert isinstance(full, ContainerError)
            continue
        if isinstance(full, ContainerError):
            assert isinstance(full, CorruptPayloadError)
            assert not any(f"layer {name!r} decodes" in str(full) for name in names)
            continue
        assert list(doc.layers) == [n for n in full.shapes if n in names]
        assert doc.shapes == full.shapes and doc.meta == full.meta
        for name, arr in doc.layers.items():
            assert arr.dtype == full.layers[name].dtype and not arr.flags.writeable
            assert np.array_equal(arr, full.layers[name])


def test_structural_fuzz_always_classified(tmp_path):
    path, _ = write_fixture(tmp_path)
    base = path.read_bytes()
    rng = np.random.default_rng(73)
    for i in range(1500):
        p = fuzz_once(rng, base, tmp_path, i)
        with pytest.raises(ContainerError):
            read_container(p)
        for names in RANGES:
            with pytest.raises(ContainerError):
                read_container(p, names=names)


def test_random_byte_flips_never_crash(tmp_path):
    path, _ = write_fixture(tmp_path)
    base = path.read_bytes()
    rng = np.random.default_rng(74)
    outcomes = {"ok": 0, "classified": 0}
    for _ in range(800):
        blob = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(blob)))
            blob[pos] = int(rng.integers(0, 256))
        p = tmp_path / "flip.uws"
        p.write_bytes(bytes(blob))
        try:
            read_container(p)
            outcomes["ok"] += 1
        except ContainerError:
            outcomes["classified"] += 1
        assert_ranged_reads_agree(p)
    assert sum(outcomes.values()) == 800


@pytest.mark.parametrize("cut", [5, 30, -40, -1], ids=["header", "manifest", "first", "last"])
def test_file_cut_short_after_its_size_was_taken(monkeypatch, tmp_path, cut):
    path, _ = write_fixture(tmp_path)
    cut %= path.stat().st_size
    real_fstat = os.fstat

    def fstat_then_cut(fd):
        size = real_fstat(fd)
        os.truncate(path, cut)
        return size

    monkeypatch.setattr(os, "fstat", fstat_then_cut)
    with pytest.raises(TruncatedFileError) as ei:
        read_container(path)
    assert ei.value.offset == cut


def test_read_costs_one_copy_of_the_file(tmp_path):
    rng = np.random.default_rng(79)
    layers = [(f"L{i}", rng.standard_normal((64, 512))) for i in range(12)]
    layers = [(name, arr.astype(np.float32) if i % 2 else arr) for i, (name, arr) in enumerate(layers)]
    path = tmp_path / "big.uws"
    write_container(path, "big", layers)
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    doc = read_container(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.2 * size
    for name, arr in layers:
        assert not doc.layers[name].flags.writeable
        assert np.array_equal(doc.layers[name], arr) and doc.layers[name].dtype == arr.dtype
    with pytest.raises(ValueError):
        doc.layers["L0"].flags.writeable = True
    # a ranged read costs one copy of the entries it reads
    names = ("L3", "L8")
    tracemalloc.start()
    doc = read_container(path, names=names)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert list(doc.layers) == list(names)
    assert peak <= 1.2 * sum(arr.nbytes for arr in doc.layers.values())
    assert list(doc.shapes) == [name for name, _ in layers]
    for name, arr in doc.layers.items():
        assert not arr.flags.writeable
        assert np.array_equal(arr, layers[int(name[1:])][1].astype(arr.dtype))


def test_write_costs_one_copy_of_the_file(tmp_path):
    rng = np.random.default_rng(80)
    layers = [(f"L{i}", rng.standard_normal((64, 1024))) for i in range(4)]
    path = tmp_path / "big.uws"
    tracemalloc.start()
    write_container(path, "big", layers, meta={"note": "written in place"})
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    assert peak <= 1.1 * size
    # the header, then the matrices encoded in order
    blob = path.read_bytes()
    payload = b"".join(arr.astype("<f8").tobytes() for _, arr in layers)
    assert blob.endswith(payload) and size == 12 + struct.unpack("<Q", blob[4:12])[0] + len(payload)
