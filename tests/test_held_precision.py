"""A model holds each layer at the precision it was given, float32 or
float64, and reads it as float64: a loaded float32 model costs its stored
bytes, and every route gives the bits it gives the same values in float64."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import uws.ensemble as ensemble_module
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    extract_universal,
    load_coefficients,
    load_weights,
    merge_models,
    project_model,
    reconstruct_model,
    save_coefficients,
    save_weights,
    stack_layer,
)
from uws.ensemble.container import read_container
from uws.errors import InvalidArgumentError
from uws.spectral import RankPolicy

from oracles import planted_ensemble

SHAPES = {"embed": (6, 24), "block0": (6, 24), "block1": (5, 20), "head": (6, 24)}


def planted_f32(tmp_path, n_models=10, seed=301):
    """``n_models`` planted models written at f32 (``head`` at f64), each
    loaded back and given again as float64 copies of the same values,
    which are held at float64."""
    rng = np.random.default_rng(seed)
    dicts, _, _ = planted_ensemble(rng, n_models, SHAPES, k=3)
    dtypes = {name: "f64" if name == "head" else "f32" for name in SHAPES}
    paths = []
    for i, layers in enumerate(dicts):
        paths.append(tmp_path / f"m{i}.uws")
        save_weights(ModelWeights(f"m{i}", layers, dtypes), paths[-1])
    loaded = [load_weights(p) for p in paths]
    as_f64 = [ModelWeights(m.model_id, {n: np.array(a) for n, a in m.layers.items()})
              for m in loaded]
    return paths, loaded, as_f64


def assert_same_subspace(a, b):
    assert a.layer_shapes == b.layer_shapes and a.provenance == b.provenance
    for name, ma in a.layer_models.items():
        mb = b.layer_models[name]
        assert np.array_equal(ma.mu, mb.mu)
        for fa, fb in zip(ma.factors, mb.factors):
            assert np.array_equal(fa, fb)
        for sa, sb in zip(ma.spectra, mb.spectra):
            assert np.array_equal(sa.singular_values, sb.singular_values) and sa.tail == sb.tail


def assert_same_weights(a, b):
    assert list(a.layers) == list(b.layers) and a.dtypes == b.dtypes
    for name in a.layers:
        assert np.array_equal(a.layers[name], b.layers[name])


def test_a_loaded_f32_model_holds_the_readers_views_and_reads_float64(tmp_path, monkeypatch):
    paths, _, _ = planted_f32(tmp_path, n_models=1)
    docs = []

    def capturing(*args, **kwargs):
        docs.append(read_container(*args, **kwargs))
        return docs[-1]

    monkeypatch.setattr(ensemble_module, "read_container", capturing)
    w = load_weights(paths[0])
    (doc,) = docs
    for name, arr in w.layers.held.items():
        assert arr is doc.layers[name]  # the document's view, not a copy
        assert arr.dtype == (np.float64 if name == "head" else np.float32)
        assert not arr.flags.writeable
        read = w.layers[name]
        assert read.dtype == np.float64 and np.array_equal(read, arr)
        if arr.dtype == np.float64:
            assert read is arr
        else:
            assert not read.flags.writeable and not np.shares_memory(read, arr)
    assert w.shapes == doc.shapes
    assert w.dtypes == {name: "f64" if name == "head" else "f32" for name in SHAPES}


def test_a_write_into_a_layer_is_never_lost():
    f32 = np.arange(6, dtype=np.float32).reshape(2, 3)
    f64 = np.zeros((2, 3))
    w = ModelWeights("m", {"a": f32, "b": f64})
    assert w.layers.held["a"] is f32 and w.layers.held["b"] is f64
    with pytest.raises(ValueError, match="read-only"):
        w.layers["a"][0, 0] = 7.0  # a float32 layer reads as a copy
    w.layers["b"][0, 0] = 7.0  # a float64 layer reads as itself
    assert f64[0, 0] == 7.0
    w.layers["c"] = np.ones((1, 2), dtype=np.float32)
    w.layers["d"] = [[1, 2]]
    assert w.layers.held["c"].dtype == np.float32 and w.layers.held["d"].dtype == np.float64
    for name, arr, message in [("e", np.ones(3), "matrix, got shape (3,)"),
                               ("e", np.ones((0, 2), np.float32), "matrix, got shape (0, 2)"),
                               ("e", "text", "does not form a real tensor"),
                               (1, np.eye(2), "layers must be a dict of matrices by name")]:
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            w.layers[name] = arr
    del w.layers["a"]
    assert list(w.layers) == ["b", "c", "d"] and "a" not in w.layers and len(w.layers) == 3
    again = ModelWeights("n", w.layers)
    assert again.layers.held == w.layers.held and again.layers.held is not w.layers.held


@pytest.mark.parametrize(
    "config",
    [ExtractionConfig(policy=RankPolicy.fixed_k(3)),
     ExtractionConfig(policy=RankPolicy.hard_threshold()),
     ExtractionConfig(policy=RankPolicy.fixed_k(2), order=3)],
    ids=["gram", "exact", "order-3"],
)
def test_every_route_gives_f32_held_models_the_bits_of_their_float64_values(tmp_path, config):
    paths, loaded, as_f64 = planted_f32(tmp_path)
    u = extract_universal(loaded, config)
    assert_same_subspace(u, extract_universal(as_f64, config))
    assert_same_subspace(u, extract_universal(paths, config))
    c32, c64 = project_model(u, loaded[1]), project_model(u, as_f64[1])
    for name, sc in c32.coefficients.items():
        assert np.array_equal(sc.coeffs, c64.coefficients[name].coeffs)
    assert c32.passthrough["embed"] is loaded[1].layers.held["embed"]
    # rebuilt at the precision each projected layer was held at, and
    # otherwise the bits of the float64 copies' rebuild
    rebuilt = reconstruct_model(u, c32)
    assert rebuilt.dtypes == loaded[1].dtypes
    assert_same_weights(rebuilt, ModelWeights("m1", reconstruct_model(u, c64).layers,
                                              dict(rebuilt.dtypes)))
    assert stack_layer(loaded, "block0", config.order).dtype == np.float64
    assert np.array_equal(stack_layer(loaded, "block0", config.order),
                          stack_layer(as_f64, "block0", config.order))
    weights = np.random.default_rng(302).dirichlet(np.ones(len(loaded)))
    merged = merge_models(u, loaded, weights)
    assert_same_weights(merged, merge_models(u, as_f64, weights))
    assert_same_weights(merged, merge_models(u, paths, weights))


def test_a_loaded_coefficient_set_keeps_raw_entries_at_their_stored_precision(tmp_path):
    _, loaded, _ = planted_f32(tmp_path, n_models=6)
    u = extract_universal(loaded, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    c = project_model(u, loaded[0])
    save_coefficients(c, tmp_path / "c.uws")
    back = load_coefficients(tmp_path / "c.uws")
    assert {n: a.dtype for n, a in back.passthrough.items()} == {"embed": np.float32,
                                                                 "head": np.float64}
    assert not any(a.flags.writeable for a in back.passthrough.values())
    assert_same_weights(reconstruct_model(u, back), reconstruct_model(u, c))


def test_loaded_f32_models_cost_their_payload_bytes(tmp_path):
    rng = np.random.default_rng(303)
    layers = {f"l{j}": rng.standard_normal((64, 256)) for j in range(4)}
    paths = []
    for i in range(25):
        paths.append(tmp_path / f"m{i}.uws")
        save_weights(ModelWeights(f"m{i}", layers, dict.fromkeys(layers, "f32")), paths[-1])
    payload = 25 * 4 * 64 * 256 * 4
    tracemalloc.start()
    try:
        held = [load_weights(p) for p in paths]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 25
    assert current <= 1.1 * payload


def test_a_model_built_from_float32_arrays_is_saved_at_f32(tmp_path):
    path = tmp_path / "m.uws"
    save_weights(ModelWeights("m", {"a": np.ones((64, 1024), np.float32)}), path)
    assert path.stat().st_size == 262_259  # 64 x 1024 x 4 payload bytes and a header
    assert load_weights(path).dtypes == {"a": "f32"}


def test_dtypes_casts_once_at_construction_and_is_read_from_the_held_arrays(tmp_path):
    big = np.array([[1.0, -1e40]])  # finite in f64, -inf once cast to f32
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast must not warn
        with pytest.raises(InvalidArgumentError,
                           match="^layer 'w' has values outside the f32 range$"):
            ModelWeights("m", {"ok": np.ones((1, 1)), "w": big}, {"ok": "f32", "w": "f32"})
    f32 = np.ones((2, 2), np.float32)
    w = ModelWeights("m", {"a": np.ones((2, 2)), "b": f32, "c": [[1, 2]], "d": f32, "w": big},
                     {"a": "f32", "b": "f64", "zzz": "f32"})  # a name that is no layer is ignored
    assert w.dtypes == {"a": "f32", "b": "f64", "c": "f64", "d": "f32", "w": "f64"}
    assert [arr.dtype for arr in w.layers.held.values()] == [np.float32, np.float64,
                                                             np.float64, np.float32, np.float64]
    assert w.layers.held["d"] is f32
    with pytest.raises(TypeError):
        w.dtypes["a"] = "f64"
    with pytest.raises(AttributeError):
        w.dtypes = {"a": "f64"}
    w.layers["a"] = np.zeros((1, 1))
    assert w.dtypes["a"] == "f64"
    assert ModelWeights("n", w.layers, w.dtypes).dtypes == w.dtypes
    save_weights(w, tmp_path / "w.uws")
    doc = read_container(tmp_path / "w.uws")
    assert {name: arr.dtype.str for name, arr in doc.layers.items()} == {
        "a": "<f8", "b": "<f8", "c": "<f8", "d": "<f4", "w": "<f8"}
    # a value that is not finite stays so under the cast, and is refused where written
    nan = ModelWeights("m", {"w": np.array([[np.nan]])}, {"w": "f32"})
    assert nan.dtypes == {"w": "f32"}
    with pytest.raises(InvalidArgumentError, match=r"^layer 'w' must be finite, got nan"):
        save_weights(nan, tmp_path / "nan.uws")
    assert not (tmp_path / "nan.uws").exists()
