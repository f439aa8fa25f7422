import re
import tracemalloc

import numpy as np
import pytest

import uws.ensemble as ensemble_module
from uws.ensemble import (
    CoefficientSet,
    ExtractionConfig,
    MEMORY_PRESETS,
    ModelWeights,
    coefficient_parameter_count,
    adapt_coefficients,
    extract_universal,
    load_coefficients,
    load_subspace,
    load_weights,
    memory_savings,
    merge_models,
    project_model,
    reconstruct_model,
    save_coefficients,
    save_subspace,
    save_weights,
    scree_report,
    stack_layer,
)
from uws.ensemble.container import read_container, write_container
from uws.errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    ManifestError,
    RankDeficiencyError,
)
from uws.hosvd import SliceCoefficients, reconstruct_slice
from uws.spectral import RankPolicy

from oracles import planted_ensemble


def as_models(layer_dicts, prefix="m"):
    return [
        ModelWeights(
            model_id=f"{prefix}{i}",
            layers={k: np.asarray(v, dtype=np.float64) for k, v in layers.items()},
            dtypes={k: "f64" for k in layers},
        )
        for i, layers in enumerate(layer_dicts)
    ]


def make_planted(rng, n_models=30, k=4, noise=1e-3, shapes=None):
    shapes = shapes or {
        "embed": (6, 24),
        "block0": (6, 24),
        "block1": (5, 20),
        "head": (6, 24),
    }
    dicts, bases, means = planted_ensemble(rng, n_models, shapes, k=k, noise=noise)
    return as_models(dicts), bases, shapes


# ------------------------------------------------------------------ weights IO


def test_weights_roundtrip_promotes_and_restores(tmp_path):
    rng = np.random.default_rng(81)
    w = ModelWeights(
        model_id="m0",
        layers={
            "a": rng.standard_normal((3, 4)),
            "b": rng.standard_normal((2, 5)).astype(np.float32).astype(np.float64),
        },
        dtypes={"a": "f64", "b": "f32"},
    )
    p = tmp_path / "w.uws"
    save_weights(w, p)
    got = load_weights(p)
    assert got.model_id == "m0"
    assert list(got.layers) == ["a", "b"]
    assert all(v.dtype == np.float64 for v in got.layers.values())
    assert got.dtypes == {"a": "f64", "b": "f32"}
    assert np.array_equal(got.layers["a"], w.layers["a"])
    assert np.array_equal(got.layers["b"], w.layers["b"])
    save_weights(got, tmp_path / "w2.uws")
    assert (tmp_path / "w2.uws").read_bytes() == p.read_bytes()



@pytest.mark.parametrize("model_id, layers, message", [
    ("m", [("a", np.eye(2))], "layers must be a dict of matrices by name"),
    ("m", {1: np.eye(2)}, "layers must be a dict of matrices by name"),
    (1, {}, "model_id must be a string"),
], ids=["list", "int-name", "int-model-id"])
def test_model_weights_refuse_layers_that_are_not_named_matrices(model_id, layers, message):
    with pytest.raises(InvalidArgumentError, match=message):
        ModelWeights(model_id, layers)


# a finite long double past the float64 range, refused rather than held as inf
BEYOND_FLOAT64 = pytest.param(
    np.array([[np.longdouble("1e400")]]), "has values beyond the float64 range",
    marks=pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                             reason="long double is no wider than float64 here"))


@pytest.mark.parametrize(
    "arr, message",
    [(np.ones(3), "matrix, got shape (3,)"), (np.ones((2, 2, 2)), "matrix, got shape (2, 2, 2)"),
     (np.ones((0, 3)), "matrix, got shape (0, 3)"), ("text", "does not form a real tensor"),
     (np.eye(2) * 1j, "is complex"), BEYOND_FLOAT64],
    ids=["1-D", "3-D", "empty", "text", "complex", "beyond-float64"],
)
def test_model_weights_refuse_a_layer_that_is_not_a_nonempty_real_matrix(arr, message):
    with pytest.raises(InvalidArgumentError, match="layer 'b'.*" + re.escape(message)):
        ModelWeights("m", {"a": np.eye(2), "b": arr})


@pytest.mark.parametrize(
    "dtypes, message",
    [(["f32"], "dtypes must be a dict of precisions by layer name, got list"),
     ({"a": "f16"}, "layer 'a': dtype must be f32 or f64, got 'f16'"),
     ({"a": "f64", "b": np.float32}, "layer 'b': dtype must be f32 or f64, got <class")],
    ids=["list", "f16", "numpy-type"],
)
def test_model_weights_refuse_dtypes_that_are_not_f32_or_f64_by_layer(dtypes, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        ModelWeights("m", {"a": np.eye(2), "b": np.eye(2)}, dtypes)


# ----------------------------------------------------------------- stack_layer


def test_stack_single_model_is_identity():
    rng = np.random.default_rng(82)
    (m,) = as_models([{"a": rng.standard_normal((4, 6))}])
    t = stack_layer([m], "a", order=2)
    assert np.array_equal(t, m.layers["a"])


def test_stack_shapes():
    rng = np.random.default_rng(83)
    models = as_models([{"a": rng.standard_normal((16, 40))} for _ in range(5)])
    assert stack_layer(models, "a", order=2).shape == (80, 40)
    assert stack_layer(models, "a", order=3).shape == (5, 16, 40)
    two = as_models([{"a": np.eye(2)}, {"a": np.ones((2, 2))}])
    assert stack_layer(two, "a", order=3).shape == (2, 2, 2)


def test_stack_mismatch_names_offenders():
    models = as_models([{"a": np.eye(3)}, {"a": np.eye(2)}])
    with pytest.raises(InvalidArgumentError) as ei:
        stack_layer(models, "a", order=2)
    assert "m1" in str(ei.value)
    with pytest.raises(InvalidArgumentError):
        stack_layer(models, "missing", order=2)
    with pytest.raises(InvalidArgumentError, match="^no models to stack$"):
        stack_layer([], "a")


# ------------------------------------------------------------ extract_universal


def test_identical_copies_concentrate_on_one_direction():
    rng = np.random.default_rng(84)
    row = {f"L{i}": rng.standard_normal((1, 6)) for i in range(4)}
    models = as_models([row] * 5)
    u = extract_universal(
        models,
        ExtractionConfig(policy=RankPolicy.cumulative_variance(1.0), centering="global"),
    )
    assert u.included_layers == ["L1", "L2"]
    assert u.excluded_layers == ["L0", "L3"]
    for layer in u.included_layers:
        assert u.layer_models[layer].spectra[-1].ratios[0] == pytest.approx(1.0, abs=1e-12)


def test_identical_copies_with_feature_centering_are_degenerate():
    rng = np.random.default_rng(85)
    row = {f"L{i}": rng.standard_normal((1, 6)) for i in range(4)}
    models = as_models([row] * 5)
    with pytest.raises(DegenerateSpectrumError):
        extract_universal(models, ExtractionConfig(centering="feature"))


def test_default_exclusion_rule_and_overrides():
    rng = np.random.default_rng(86)
    models, _, shapes = make_planted(rng, n_models=8)
    u = extract_universal(models, ExtractionConfig())
    assert u.included_layers == ["block0", "block1"]
    assert u.excluded_layers == ["embed", "head"]
    u_all = extract_universal(models, ExtractionConfig(exclude_layers=()))
    assert u_all.included_layers == list(shapes)
    u_named = extract_universal(models, ExtractionConfig(exclude_layers=("block1",)))
    assert u_named.included_layers == ["embed", "block0", "head"]
    two = as_models([{"a": np.eye(3), "b": np.eye(3)}] * 3)
    with pytest.raises(InvalidArgumentError):
        extract_universal(two, ExtractionConfig())  # default rule empties the set


@pytest.mark.parametrize("exclude", [None, (), ("head", "embed")], ids=["default", "none", "named"])
def test_an_extracted_subspace_and_its_file_hold_one_config(tmp_path, exclude):
    rng = np.random.default_rng(107)
    models, _, _ = make_planted(rng, n_models=8)
    u = extract_universal(models, ExtractionConfig(exclude_layers=exclude))
    save_subspace(u, tmp_path / "s.uws")
    v = load_subspace(tmp_path / "s.uws")
    for fact in ("policy", "order", "centering", "architecture_id", "layer_shapes",
                 "excluded_layers"):
        assert getattr(u, fact) == getattr(v, fact), fact
    named = ("embed", "head") if exclude is None else exclude  # the resolved exclusion
    assert u.excluded_layers == [name for name in u.layer_shapes if name in named]


@pytest.mark.parametrize("value", ["head", 5, {"head"}, ("head", 5)])
def test_excluded_layers_are_a_sequence_of_names(value):
    # a string would be split into one-character names, a set has no order
    message = f"exclude_layers must be a tuple of layer names, got {value!r}"
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        ExtractionConfig(exclude_layers=value)


def test_planted_rank_is_recovered():
    rng = np.random.default_rng(87)
    models, _, _ = make_planted(rng, n_models=30, k=4, noise=1e-3)
    u = extract_universal(
        models, ExtractionConfig(policy=RankPolicy.cumulative_variance(0.99))
    )
    for layer in u.included_layers:
        model = u.layer_models[layer]
        assert model.ranks == (4,)
        assert len(model.spectra) == 1  # the stacking mode shares the feature mode's


def test_missing_layer_in_one_model():
    rng = np.random.default_rng(88)
    a = {"x": rng.standard_normal((2, 4)), "y": rng.standard_normal((2, 4)), "z": rng.standard_normal((2, 4))}
    b = {k: v.copy() for k, v in a.items()}
    del b["y"]
    with pytest.raises(InvalidArgumentError) as ei:
        extract_universal(as_models([a, b]), ExtractionConfig(exclude_layers=()))
    assert "m1" in str(ei.value)


def test_provenance_and_no_models():
    rng = np.random.default_rng(89)
    models, _, _ = make_planted(rng, n_models=3)
    u = extract_universal(models, ExtractionConfig())
    assert u.provenance == ["m0", "m1", "m2"]
    with pytest.raises(InvalidArgumentError):
        extract_universal([], ExtractionConfig())


# ----------------------------------------------------------------- scree report


def test_scree_hand_aggregate():
    m1 = {"a": np.array([[1.0, 0.0], [-1.0, 0.0]]), "b": np.array([[1.0, 0.0], [-1.0, 0.0]])}
    m2 = {"a": np.array([[1.0, 0.0], [-1.0, 0.0]]), "b": np.array([[0.0, 1.0], [0.0, -1.0]])}
    u = extract_universal(
        as_models([m1, m2]),
        ExtractionConfig(policy=RankPolicy.cumulative_variance(1.0), exclude_layers=()),
    )
    rep = scree_report(u)
    assert np.allclose(u.layer_models["a"].spectra[-1].ratios, [1.0, 0.0], atol=1e-12)
    assert np.allclose(u.layer_models["b"].spectra[-1].ratios, [0.5, 0.5], atol=1e-12)
    assert np.allclose(rep.aggregate_ratios, [0.75, 0.25], atol=1e-12)
    assert np.allclose(rep.aggregate_std, [0.25, 0.25], atol=1e-12)


def test_scree_aggregates_the_components_every_layer_stores():
    rng = np.random.default_rng(91)
    models, _, _ = make_planted(rng, n_models=40, k=4, noise=1e-2)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.cumulative_variance(0.99)))
    rep = scree_report(u)
    spectra = [model.spectra[-1] for model in u.layer_models.values()]
    stored = [spec.ratios.size for spec in spectra]
    assert rep.aggregate_ratios.size == min(stored) < 20  # the Gram route stores a prefix
    for spec in spectra:
        assert spec.tail > 0 and abs(np.sum(spec.ratios) + spec.tail_ratio - 1.0) < 1e-12
    assert abs(np.sum(rep.aggregate_ratios) + rep.aggregate_tail - 1.0) < 1e-12


def test_scree_single_layer_equals_aggregate():
    rng = np.random.default_rng(90)
    models = as_models([{"only": rng.standard_normal((3, 7))} for _ in range(6)])
    u = extract_universal(models, ExtractionConfig(exclude_layers=()))
    rep = scree_report(u)
    assert np.allclose(rep.aggregate_ratios, u.layer_models["only"].spectra[-1].ratios,
                       atol=1e-15)
    assert np.allclose(rep.aggregate_std, 0.0, atol=1e-15)


# --------------------------------------------------- project/reconstruct model


def test_contributor_roundtrip_and_passthrough():
    rng = np.random.default_rng(91)
    models, _, _ = make_planted(rng, n_models=25, k=4, noise=1e-3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(4)))
    w = models[7]
    coeffs = project_model(u, w)
    assert set(coeffs.coefficients) == set(u.included_layers)
    assert set(coeffs.passthrough) == set(u.excluded_layers)
    back = reconstruct_model(u, coeffs)
    for layer in u.included_layers:
        err = np.linalg.norm(back.layers[layer] - w.layers[layer]) / np.linalg.norm(
            w.layers[layer]
        )
        assert err < 5e-3
    for layer in u.excluded_layers:
        assert np.array_equal(back.layers[layer], w.layers[layer])


def test_passthrough_layers_are_carried_by_reference():
    rng = np.random.default_rng(105)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    w = models[1]
    coeffs = project_model(u, w)
    back = reconstruct_model(u, coeffs)
    assert u.excluded_layers == ["embed", "head"]
    for layer in u.excluded_layers:
        assert np.shares_memory(w.layers[layer], coeffs.passthrough[layer])
        assert np.shares_memory(coeffs.passthrough[layer], back.layers[layer])


def test_projection_idempotence():
    rng = np.random.default_rng(92)
    models, _, _ = make_planted(rng, n_models=20, k=4, noise=1e-2)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(4)))
    c1 = project_model(u, models[3])
    again = project_model(u, reconstruct_model(u, c1))
    for layer in u.included_layers:
        assert np.max(np.abs(again.coefficients[layer].coeffs - c1.coefficients[layer].coeffs)) < 1e-10


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_projection_merging_and_rebuilding_refuse_non_finite_input(value):
    rng = np.random.default_rng(106)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    bad = ModelWeights("bad", dict(models[1].layers, block0=np.full((6, 24), value)))
    with pytest.raises(InvalidArgumentError, match="member must be finite"):
        project_model(u, bad)
    with pytest.raises(InvalidArgumentError, match="member must be finite"):
        merge_models(u, [models[0], bad])
    c = project_model(u, models[1])
    c.coefficients["block1"].coeffs[0, 0] = value
    with pytest.raises(InvalidArgumentError, match="coefficients must be finite"):
        reconstruct_model(u, c)


def test_projection_refuses_a_non_finite_excluded_layer():
    rng = np.random.default_rng(108)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    bad = ModelWeights("bad", dict(models[1].layers, embed=np.full((6, 24), np.nan)))
    with pytest.raises(InvalidArgumentError, match="layer 'embed' of model 'bad' must be finite"):
        project_model(u, bad)


def test_merging_refuses_a_non_finite_excluded_layer():
    rng = np.random.default_rng(109)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    bad = ModelWeights("bad", dict(models[1].layers, head=np.full((6, 24), np.nan)))
    with pytest.raises(InvalidArgumentError, match="layer 'head' .* must be finite"):
        merge_models(u, [models[0], bad])


@pytest.mark.parametrize("layer, message", [
    ("head", r"layer 'head' of model 'merged\(x,y\)' must be finite, got nan"),
    ("block0", "member must be finite, got nan"),
], ids=["excluded", "included"])
def test_merging_opposite_infinities_is_refused_without_a_warning(layer, message):
    # +inf in one model and -inf in the other sum to nan: refused, and no
    # RuntimeWarning comes first (tier-1 turns one into an error)
    rng = np.random.default_rng(110)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    x, y = (ModelWeights(name, dict(m.layers, **{layer: np.full((6, 24), value)}))
            for name, m, value in (("x", models[0], np.inf), ("y", models[1], -np.inf)))
    with pytest.raises(InvalidArgumentError, match=message):
        merge_models(u, [x, y])


def test_project_missing_layer_errors():
    rng = np.random.default_rng(93)
    models, _, _ = make_planted(rng, n_models=10)
    u = extract_universal(models, ExtractionConfig())
    w = models[0]
    w2 = ModelWeights("partial", {k: v for k, v in w.layers.items() if k != "block0"}, dict(w.dtypes))
    with pytest.raises(InvalidArgumentError):
        project_model(u, w2)


def test_reconstruct_missing_layer_errors():
    rng = np.random.default_rng(93)
    models, _, _ = make_planted(rng, n_models=10)
    u = extract_universal(models, ExtractionConfig())
    c = project_model(u, models[0])
    del c.coefficients["block0"]
    with pytest.raises(InvalidArgumentError, match="block0"):
        reconstruct_model(u, c)


@pytest.mark.parametrize(
    "kind, layer",
    [("coefficients", "zzz"), ("coefficients", "embed"), ("passthrough", "block0"),
     ("passthrough", "zzz")],
    ids=["coef-outside-layer-order", "coef-for-excluded", "raw-for-included", "raw-outside"],
)
def test_reconstruct_rejects_entries_the_subspace_does_not_take(kind, layer):
    rng = np.random.default_rng(93)
    models, _, _ = make_planted(rng, n_models=10)
    u = extract_universal(models, ExtractionConfig())
    assert "embed" in u.excluded_layers and "block0" in u.included_layers
    c = project_model(u, models[0])
    stray = c.coefficients["block0"] if kind == "coefficients" else models[0].layers["block0"]
    getattr(c, kind)[layer] = stray
    entry = f"{'coef' if kind == 'coefficients' else 'raw'}/{layer}"
    with pytest.raises(InvalidArgumentError, match=f"extra '{entry}'"):
        reconstruct_model(u, c)


def test_project_and_merge_refuse_a_layer_the_subspace_does_not_name(tmp_path):
    rng = np.random.default_rng(94)
    models, _, _ = make_planted(rng, n_models=8, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    extra = ModelWeights("extra", {**models[1].layers, "zzz": np.ones((2, 3))})
    with pytest.raises(InvalidArgumentError, match="'zzz'"):
        project_model(u, extra)
    for group in ([models[0], extra, models[2]], write_all(tmp_path, [models[0], extra])):
        with pytest.raises(InvalidArgumentError, match="'zzz'"):
            merge_models(u, group)
    # a model that lacks an excluded layer is refused too: the round trip would drop it
    lacking = ModelWeights("lacking", {n: w for n, w in models[1].layers.items() if n != "head"})
    with pytest.raises(InvalidArgumentError, match="model 'lacking'.*: missing 'head'"):
        project_model(u, lacking)
    for group in ([models[0], lacking], [lacking, models[0]]):
        with pytest.raises(InvalidArgumentError, match="model 'lacking'.*: missing 'head'"):
            merge_models(u, group)


def test_reconstruct_rejects_a_coefficient_block_with_other_rows():
    rng = np.random.default_rng(93)
    models, _, _ = make_planted(rng, n_models=10)
    u = extract_universal(models, ExtractionConfig())
    c = project_model(u, models[0])
    c.coefficients["block0"].coeffs = c.coefficients["block0"].coeffs[:2]
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        reconstruct_model(u, c)


def test_order3_roundtrip():
    rng = np.random.default_rng(94)
    models, _, _ = make_planted(
        rng, n_models=12, k=2, noise=1e-4, shapes={"a": (3, 8), "b": (3, 8), "c": (3, 8)}
    )
    u = extract_universal(
        models, ExtractionConfig(order=3, policy=RankPolicy.cumulative_variance(0.999), exclude_layers=("a",))
    )
    back = reconstruct_model(u, project_model(u, models[5]))
    for layer in u.included_layers:
        w = models[5].layers[layer]
        assert back.layers[layer].shape == w.shape
        assert np.linalg.norm(back.layers[layer] - w) / np.linalg.norm(w) < 1e-2


# ------------------------------------------------------------------- merging


def test_merge_copies_returns_projection():
    rng = np.random.default_rng(95)
    models, _, _ = make_planted(rng, n_models=10, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    w = models[2]
    copies = [ModelWeights(f"c{i}", dict(w.layers), dict(w.dtypes)) for i in range(4)]
    merged = merge_models(u, copies)
    solo = reconstruct_model(u, project_model(u, w))
    for layer in u.included_layers:
        assert np.allclose(merged.layers[layer], solo.layers[layer], atol=1e-12)


def test_merge_equals_projection_of_mean_model():
    rng = np.random.default_rng(96)
    models, _, _ = make_planted(rng, n_models=12, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    pair = models[:2]
    merged = merge_models(u, pair)
    mean_model = ModelWeights(
        "mean",
        {k: (pair[0].layers[k] + pair[1].layers[k]) / 2 for k in pair[0].layers},
        dict(pair[0].dtypes),
    )
    projected_mean = reconstruct_model(u, project_model(u, mean_model))
    for layer in u.included_layers:
        assert np.max(np.abs(merged.layers[layer] - projected_mean.layers[layer])) < 1e-10


def test_merge_is_order_invariant_and_validates_weights():
    rng = np.random.default_rng(97)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    a = merge_models(u, models[:3])
    b = merge_models(u, list(reversed(models[:3])))
    for layer in u.included_layers:
        assert np.allclose(a.layers[layer], b.layers[layer], atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        merge_models(u, models[:3], weights=[0.5, 0.5])
    with pytest.raises(InvalidArgumentError):
        merge_models(u, models[:3], weights=[0.8, 0.3, -0.1])
    with pytest.raises(InvalidArgumentError):
        merge_models(u, models[:3], weights=[0.2, 0.2, 0.2])
    with pytest.raises(InvalidArgumentError):
        merge_models(u, models[:1])


@pytest.mark.parametrize("layer", ["block0", "head"])  # included, excluded
def test_merge_rejects_mismatched_layer_shapes(layer):
    rng = np.random.default_rng(98)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    assert layer in (u.included_layers if layer == "block0" else u.excluded_layers)
    odd = ModelWeights("odd", dict(models[1].layers), dict(models[1].dtypes))
    odd.layers[layer] = odd.layers[layer][:1]
    with pytest.raises(InvalidArgumentError, match=layer):
        merge_models(u, [models[0], odd])


def write_all(directory, models, dtype="f64"):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m in models:
        paths.append(directory / f"{m.model_id}.uws")
        save_weights(ModelWeights(m.model_id, m.layers, dict.fromkeys(m.layers, dtype)), paths[-1])
    return paths


def test_merge_from_paths_equals_the_stacked_mean(tmp_path):
    rng = np.random.default_rng(100)
    models, _, _ = make_planted(rng, n_models=12, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    group = models[:7]
    weights = rng.dirichlet(np.ones(7))
    got = merge_models(u, write_all(tmp_path / "f64", group), weights=weights)
    mean = ModelWeights("oracle", {
        name: np.tensordot(weights, stack_layer(group, name, order=3), axes=1)
        for name in group[0].layers
    })
    want = reconstruct_model(u, project_model(u, mean))
    assert list(got.layers) == list(want.layers) == list(group[0].layers)
    for name, arr in want.layers.items():
        assert np.linalg.norm(got.layers[name] - arr) <= 1e-12 * np.linalg.norm(arr)
    assert got.model_id == "merged(" + ",".join(m.model_id for m in group) + ")"
    held = merge_models(u, group, weights=weights)
    for name, arr in held.layers.items():
        assert np.array_equal(got.layers[name], arr)
    paths = write_all(tmp_path / "f32", group, dtype="f32")
    single = merge_models(u, paths, weights=weights)
    promoted = merge_models(u, [load_weights(p) for p in paths], weights=weights)
    for name, arr in promoted.layers.items():
        assert np.array_equal(single.layers[name], arr)


def test_merge_from_paths_refuses_a_model_that_lacks_an_excluded_layer(tmp_path):
    rng = np.random.default_rng(101)
    models, _, _ = make_planted(rng, n_models=8, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    lacking = ModelWeights("lacking", {n: w for n, w in models[2].layers.items() if n != "head"})
    with pytest.raises(InvalidArgumentError, match="model 'lacking'.*: missing 'head'"):
        merge_models(u, write_all(tmp_path, [models[0], models[1], lacking, models[3]]))


@pytest.mark.parametrize("layer", ["block0", "head"])  # included, excluded
def test_merge_from_paths_names_a_mismatched_layer(tmp_path, layer):
    rng = np.random.default_rng(102)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    odd = ModelWeights("odd", dict(models[1].layers))
    odd.layers[layer] = odd.layers[layer][:1]
    with pytest.raises(InvalidArgumentError, match=layer):
        merge_models(u, write_all(tmp_path, [models[0], odd, models[2]]))


def test_merge_checks_its_weights_before_reading_a_model(tmp_path):
    rng = np.random.default_rng(103)
    models, _, _ = make_planted(rng, n_models=6, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    absent = [tmp_path / "absent0.uws", tmp_path / "absent1.uws"]
    with pytest.raises(InvalidArgumentError, match="sum to 1"):
        merge_models(u, absent, weights=[0.5, 0.6])
    with pytest.raises(InvalidArgumentError, match="3 weights for 2 models"):
        merge_models(u, absent, weights=[0.2, 0.3, 0.5])


def test_merge_from_paths_memory_does_not_grow_with_the_ensemble(tmp_path):
    rng = np.random.default_rng(104)
    shapes = {name: (32, 256) for name in ("embed", "block0", "block1", "head")}
    models, _, _ = make_planted(rng, n_models=160, k=3, shapes=shapes)
    u = extract_universal(models[:40], ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    paths = write_all(tmp_path, models, dtype="f32")
    peaks = {}
    for t in (40, 160):
        tracemalloc.start()
        merge_models(u, paths[:t])
        peaks[t] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[160] <= 1.2 * peaks[40]


def test_order2_paths_take_no_unfolding_and_merge_projects_once(monkeypatch):
    import uws.ensemble

    rng = np.random.default_rng(99)
    models, _, _ = make_planted(rng, n_models=8, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3), order=2))
    rebuilt = reconstruct_model(u, project_model(u, models[0]))
    assert list(rebuilt.layers) == list(models[0].layers)
    projections = []

    def counting(*args, **kwargs):
        projections.append(args)
        return project_model(*args, **kwargs)

    monkeypatch.setattr(uws.ensemble, "project_model", counting)
    merge_models(u, models[:5])
    assert len(projections) == 1


# ------------------------------------------------------------- memory savings


def test_memory_savings_overhead_case():
    assert memory_savings(1, 1000, 1000, 1000) < 1.0


def test_memory_savings_worked_example():
    ratio = memory_savings(500, 131072, 262144, 512, mean_params=0)
    assert ratio == pytest.approx(65536000 / 518144, rel=1e-12)
    assert round(ratio, 1) == 126.5


def test_memory_savings_validation():
    with pytest.raises(InvalidArgumentError):
        memory_savings(0, 10, 10, 10)
    with pytest.raises(InvalidArgumentError):
        memory_savings(10, 0, 10, 10)
    with pytest.raises(InvalidArgumentError):
        memory_savings(10, 10, 0, 0, mean_params=0)


def test_memory_presets_hit_documented_bands():
    adapters = MEMORY_PRESETS["adapter-bank-19x"]
    assert 19.0 <= adapters.ratio() < 20.0
    vision = MEMORY_PRESETS["vision-backbone-100x"]
    assert vision.ratio() >= 100.0
    worked = MEMORY_PRESETS["worked-example-126x"]
    assert worked.ratio() == pytest.approx(65536000 / 518144, rel=1e-12)
    for preset in MEMORY_PRESETS.values():
        assert preset.description
        assert memory_savings(**preset.counts) == preset.ratio()


# ------------------------------------------------------------------ adaptation


def adapt_fixture(rng, n=60, noise=0.0):
    models, bases, _ = make_planted(rng, n_models=20, k=4, noise=1e-9)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(4)))
    layer = "block0"
    r, d = 6, 24
    target = models[4].layers[layer]
    x = rng.standard_normal((n, d))
    y = x @ target.T
    if noise:
        y = y + noise * rng.standard_normal(y.shape)
    return u, layer, x, y, target


def test_adapt_recovers_in_subspace_target_exactly():
    rng = np.random.default_rng(98)
    u, layer, x, y, target = adapt_fixture(rng)
    coeffs, report = adapt_coefficients(u, layer, x, y)
    assert report["residual_norm"] < 1e-6
    rec = reconstruct_slice(u.layer_models[layer], coeffs)
    assert np.linalg.norm(rec - target) / np.linalg.norm(target) < 1e-6


def test_adapt_gradient_matches_closed_form():
    rng = np.random.default_rng(99)
    u, layer, x, y, _ = adapt_fixture(rng)
    c_closed, rep_closed = adapt_coefficients(u, layer, x, y, method="closed_form")
    lr = 0.5 / rep_closed["normal_matrix_lmax"]
    c_grad, rep_grad = adapt_coefficients(
        u, layer, x, y, method="gradient", lr=lr, epochs=4000
    )
    assert np.max(np.abs(c_closed.coeffs - c_grad.coeffs)) < 1e-6
    losses = rep_grad["loss_curve"]
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def test_adapt_gradient_stable_near_step_bound():
    rng = np.random.default_rng(100)
    u, layer, x, y, _ = adapt_fixture(rng)
    _, rep = adapt_coefficients(u, layer, x, y)
    lr = 0.99 / rep["normal_matrix_lmax"]
    _, rep_g = adapt_coefficients(u, layer, x, y, method="gradient", lr=lr, epochs=500)
    losses = rep_g["loss_curve"]
    assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))


def serve_shaped_adapt_problem(rng, n=512, d=1024, k=16, r=64):
    """A layer of 64 x 1024 slabs with a rank-16 basis over 0.05 noise,
    and 512 samples of one member's response."""
    models, _, _ = make_planted(rng, n_models=20, k=k, noise=0.05, shapes={"blk0": (r, d)})
    config = ExtractionConfig(policy=RankPolicy.fixed_k(k), exclude_layers=())
    u = extract_universal(models, config)
    x = rng.standard_normal((n, d))
    return u, "blk0", x, x @ models[3].layers["blk0"].T


def gradient_loss_curves(monkeypatch, u, layer, x, y, epochs, ratio=np.inf):
    """The gradient fit's report, and its loss curve when every loss below
    ``ratio`` of the first is taken explicitly as ||Z C - R||^2 (the
    iterates do not depend on how their loss is taken)."""
    _, report = adapt_coefficients(u, layer, x, y, method="gradient", epochs=epochs)
    with monkeypatch.context() as patch:
        patch.setattr(ensemble_module, "EXPLICIT_LOSS_RATIO", ratio)
        _, other = adapt_coefficients(u, layer, x, y, method="gradient", epochs=epochs)
    return report, np.asarray(other["loss_curve"])


@pytest.mark.parametrize("case", ["noisy-fixture", "serve-shaped"])
def test_adapt_coefficient_space_loss_matches_the_explicit_loss(monkeypatch, case):
    rng = np.random.default_rng(104)
    if case == "noisy-fixture":
        problem, epochs = adapt_fixture(rng, noise=0.1)[:4], 4000
    else:
        problem, epochs = serve_shaped_adapt_problem(rng), 500
    report, explicit = gradient_loss_curves(monkeypatch, *problem, epochs)
    losses = np.asarray(report["loss_curve"])
    assert report["explicit_loss_epochs"] == 0  # every loss came from the identity
    assert losses.size == epochs + 1
    assert np.all(np.abs(losses - explicit) <= 1e-9 * explicit)
    assert np.all(np.diff(losses) <= 1e-12 * losses[0])


def test_adapt_noiseless_fit_takes_its_small_losses_explicitly(monkeypatch):
    rng = np.random.default_rng(99)
    problem = adapt_fixture(rng)[:4]
    report, explicit = gradient_loss_curves(monkeypatch, *problem, 4000)
    losses = np.asarray(report["loss_curve"])
    assert report["explicit_loss_epochs"] > 0
    assert np.all(np.abs(losses - explicit) <= 1e-9 * explicit)
    # without the fallback, cancellation swamps the losses near the optimum
    _, identity = gradient_loss_curves(monkeypatch, *problem, 4000, ratio=0.0)
    assert np.max(np.abs(identity - explicit) / explicit) > 1e-9


def test_adapt_rank_deficiency_and_ridge():
    rng = np.random.default_rng(101)
    u, layer, x, y, _ = adapt_fixture(rng)
    with pytest.raises(RankDeficiencyError) as ei:
        adapt_coefficients(u, layer, x[:2], y[:2])
    assert ei.value.suggested_ridge > 0
    coeffs, report = adapt_coefficients(
        u, layer, x[:2], y[:2], ridge=ei.value.suggested_ridge
    )
    assert np.all(np.isfinite(coeffs.coeffs))


@pytest.mark.parametrize("kwargs", [{"ridge": True}, {"method": "gradient", "lr": True}])
def test_adapt_rejects_bool_numbers(kwargs):
    rng = np.random.default_rng(103)
    u, layer, x, y, _ = adapt_fixture(rng)
    with pytest.raises(InvalidArgumentError):
        adapt_coefficients(u, layer, x, y, **kwargs)


def _order3_subspace(u, layer, x, y):
    models, _, _ = make_planted(np.random.default_rng(105), n_models=6)
    return extract_universal(models, ExtractionConfig(order=3)), layer, x, y


@pytest.mark.parametrize(
    "edit, kwargs, message",
    [
        (lambda u, layer, x, y: (u, "head", x, y), {}, "layer 'head' is not part of the subspace"),
        (_order3_subspace, {}, "needs a matrix-stacked (order-2) subspace"),
        (lambda u, layer, x, y: (u, layer, x, y), {"method": "newton"},
         "method must be one of ('closed_form', 'gradient'), got 'newton'"),
        (lambda u, layer, x, y: (u, layer, x[0], y), {}, "need paired 2-D data"),
        (lambda u, layer, x, y: (u, layer, x[:-1], y), {}, "need paired 2-D data"),
        (lambda u, layer, x, y: (u, layer, x[:, :-1], y), {},
         "inputs have width 23, layer expects 24"),
        (lambda u, layer, x, y: (u, layer, x, y[:, :-1]), {},
         "targets have width 5, layer expects 6"),
    ],
    ids=["excluded-layer", "order-3", "unknown-method", "1-d-inputs", "unpaired-rows",
         "input-width", "target-width"],
)
def test_adapt_refuses_what_it_cannot_fit(edit, kwargs, message):
    u, layer, x, y, _ = adapt_fixture(np.random.default_rng(105))
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        adapt_coefficients(*edit(u, layer, x, y), **kwargs)


def test_complex_weights_and_adapt_data_are_refused():
    rng = np.random.default_rng(104)
    u, layer, x, y, _ = adapt_fixture(rng)
    with pytest.raises(InvalidArgumentError, match="complex"):
        ModelWeights("m", {layer: np.ones((6, 24)) * 1j})
    for data in ((x * 1j, y), (x, y + 0j)):
        with pytest.raises(InvalidArgumentError, match="complex"):
            adapt_coefficients(u, layer, *data)


def test_adapt_reports_trainable_params():
    rng = np.random.default_rng(102)
    u, layer, x, y, _ = adapt_fixture(rng)
    _, report = adapt_coefficients(u, layer, x, y)
    assert report["basis_rank"] == 4
    assert report["trainable_params"] == 4
    assert report["full_params"] == 6 * 24


def test_adapt_reports_normal_matrix_conditioning():
    rng = np.random.default_rng(106)
    u, layer, x, y, _ = adapt_fixture(rng)
    z = x @ u.layer_models[layer].factors[-1]
    lam = np.linalg.eigvalsh(z.T @ z)
    _, report = adapt_coefficients(u, layer, x, y)
    assert report["normal_matrix_lmax"] == pytest.approx(lam[-1], rel=1e-12)
    assert report["normal_matrix_cond"] == pytest.approx(lam[-1] / lam[0], rel=1e-9)
    assert report["normal_matrix_cond"] >= 1.0


def test_coefficient_parameter_count():
    assert coefficient_parameter_count(16, 600) == 9600
    k_basis, layers = 16, 600
    assert coefficient_parameter_count(k_basis, layers) < 86_000_000 / 1000


# -------------------------------------------------------------- subspace files


@pytest.mark.parametrize("tau", [0.99, 1.0], ids=["tau-0.99", "tau-1"])
@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("order", [2, 3])
def test_subspace_file_roundtrip(tmp_path, order, centering, tau):
    rng = np.random.default_rng(103)
    models, _, _ = make_planted(rng, n_models=12, k=4, noise=1e-3)
    config = ExtractionConfig(
        policy=RankPolicy.cumulative_variance(tau), order=order, centering=centering
    )
    u = extract_universal(models, config)
    p, again = tmp_path / "space.uws", tmp_path / "again.uws"
    save_subspace(u, p)
    v = load_subspace(p)
    assert v.architecture_id == u.architecture_id
    assert v.included_layers == u.included_layers
    assert v.excluded_layers == u.excluded_layers
    assert v.provenance == u.provenance
    assert v.layer_shapes == u.layer_shapes
    assert v.policy == u.policy
    assert v.order == u.order == order
    assert v.centering == u.centering == centering
    # the persisted fields round-trip: mean, feature factor(s), spectra,
    # shapes
    for layer in u.included_layers:
        a, b = u.layer_models[layer], v.layer_models[layer]
        assert np.array_equal(np.asarray(a.mu), np.asarray(b.mu))
        assert len(a.factors) == len(b.factors) == order - 1
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)
        assert a.order == b.order and a.ranks == b.ranks
        assert len(b.spectra) == order - 1
        assert len(a.spectra) == len(b.spectra)  # extracted equals loaded
        for sa, sb in zip(a.spectra, b.spectra):
            assert np.array_equal(sa.singular_values, sb.singular_values)
            assert np.array_equal(sa.ratios, sb.ratios)
            assert sa.tail == sb.tail
            # only the Gram route stores a leading part and a tail
            assert (sb.tail > 0) == (order == 2 and tau < 1)
    # identical projections through the reloaded subspace
    c1 = project_model(u, models[2])
    c2 = project_model(v, models[2])
    for layer in u.included_layers:
        assert np.array_equal(c1.coefficients[layer].coeffs, c2.coefficients[layer].coeffs)
    r1, r2 = reconstruct_model(u, c1), reconstruct_model(v, c2)
    for layer in r1.layers:
        assert np.array_equal(r1.layers[layer], r2.layers[layer])
    # what was read is all that was written
    save_subspace(v, again)
    assert again.read_bytes() == p.read_bytes()


def rewrite_entry(path, name, edit):
    """Rewrite one entry of a container file in place, as ``edit(array)``."""
    doc = read_container(path)
    entries = [(n, edit(arr) if n == name else arr) for n, arr in doc.layers.items()]
    write_container(path, doc.model_id, entries, doc.meta)


def test_load_subspace_refuses_a_factor_that_is_not_orthonormal(tmp_path):
    rng = np.random.default_rng(105)
    models, _, _ = make_planted(rng, n_models=12, k=4)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(4)))
    p = tmp_path / "space.uws"
    save_subspace(u, p)
    # rounding-level drift loads: the tolerance is 1e-10
    rewrite_entry(p, "U/block0/2", lambda v: v * (1 + 1e-12))
    load_subspace(p)
    rewrite_entry(p, "U/block0/2", lambda v: v * 2)
    with pytest.raises(ManifestError, match="'U/block0/2' is not orthonormal"):
        load_subspace(p)


@pytest.mark.parametrize("order", [2, 3])
def test_coefficient_file_roundtrip(tmp_path, order):
    rng = np.random.default_rng(104)
    models, _, _ = make_planted(rng, n_models=10, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3), order=order))
    c = project_model(u, models[1])
    p = tmp_path / "coeffs.uws"
    save_coefficients(c, p)
    d = load_coefficients(p)
    assert d.model_id == c.model_id and d.dtypes == c.dtypes
    assert list(d.coefficients) == list(c.coefficients)
    assert list(d.passthrough) == list(c.passthrough)
    for layer, sc in c.coefficients.items():
        assert np.array_equal(d.coefficients[layer].coeffs, sc.coeffs)
    for layer, arr in c.passthrough.items():
        assert np.array_equal(d.passthrough[layer], arr)
    back_direct = reconstruct_model(u, c)
    back_loaded = reconstruct_model(u, d)
    assert back_direct.layers.keys() == back_loaded.layers.keys()
    for layer in back_direct.layers:
        assert np.array_equal(back_direct.layers[layer], back_loaded.layers[layer])


def test_coefficient_meta_holds_only_the_projected_layers_dtypes(tmp_path):
    rng = np.random.default_rng(105)
    models, _, _ = make_planted(rng, n_models=10, k=3)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(3)))
    c = project_model(u, ModelWeights(models[1].model_id, models[1].layers,
                                      {"embed": "f32", "block0": "f32", "head": "f64"}))
    assert c.dtypes == {"block0": "f32", "block1": "f64"}
    p = tmp_path / "coeffs.uws"
    save_coefficients(c, p)
    doc = read_container(p)
    assert doc.model_id == c.model_id
    assert doc.meta == {"kind": "coefficients", "dtypes": {"block0": "f32", "block1": "f64"}}
    # a passthrough layer's precision is its array's
    assert [(n, a.dtype) for n, a in doc.layers.items()] == [
        ("coef/block0", "<f8"), ("coef/block1", "<f8"), ("raw/embed", "<f4"), ("raw/head", "<f8"),
    ]
    back = load_coefficients(p)
    assert back.dtypes == c.dtypes
    for name, sc in c.coefficients.items():
        assert np.array_equal(back.coefficients[name].coeffs, sc.coeffs)
    assert np.array_equal(back.passthrough["embed"], c.passthrough["embed"])
    assert np.array_equal(back.passthrough["head"], c.passthrough["head"])


def test_a_coefficient_sets_dtypes_name_exactly_its_projected_layers():
    coefficients = {"a": SliceCoefficients(np.ones((2, 1))), "b": SliceCoefficients(np.ones((2, 1)))}
    raw = {"e": np.ones((1, 2), np.float32)}
    assert CoefficientSet("m", coefficients, raw).dtypes == {"a": "f64", "b": "f64"}
    assert CoefficientSet("m", coefficients, raw, {"b": "f32"}).dtypes == {"a": "f64", "b": "f32"}
    for dtypes, message in (({"e": "f32"}, "dtypes names ['e'], which are not projected layers"),
                            ({"a": "f16"}, "layer 'a': dtype must be f32 or f64, got 'f16'"),
                            (["a"], "dtypes must be a dict of precisions by layer name")):
        with pytest.raises(InvalidArgumentError, match="^" + re.escape(message)):
            CoefficientSet("m", coefficients, raw, dtypes)
