"""Streamed, layer-major extraction (``GramStream``) and the version-5
subspace file, which holds only each layer's mean, bases, spectra and
tails, and in its meta only what those entries cannot say."""

import copy
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import uws.ensemble as ensemble_module
import uws.hosvd as hosvd_module
from uws import cli
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    extract_universal,
    load_subspace,
    load_weights,
    save_subspace,
    save_weights,
    stack_layer,
)
from uws.ensemble.container import read_container, write_container
from uws.errors import DegenerateSpectrumError, InvalidArgumentError, ManifestError
from uws.hosvd import (
    GRAM_BLOCK_ROWS,
    GramStream,
    hosvd_truncated,
    project_slice,
    reconstruct,
    reconstruct_slice,
    secondary_subspace,
)
from uws.spectral import GRAM_PANEL_COLS, RankPolicy

from oracles import (
    assert_spectra_agree,
    full_storage_gram,
    planted_ensemble,
    record_square_solves,
)

SHAPES = {"inlet": (8, 40), "block0": (8, 40), "block1": (6, 32), "outlet": (8, 40)}
TAU = RankPolicy.cumulative_variance(0.99)


def planted_models(seed, n_models, shapes=SHAPES, k=4, noise=1e-3, offset=0.0):
    rng = np.random.default_rng(seed)
    dicts, _, _ = planted_ensemble(rng, n_models, shapes, k, noise=noise)
    return [
        ModelWeights(f"m{i:04d}", {name: w + offset for name, w in layers.items()})
        for i, layers in enumerate(dicts)
    ]


def write_models(directory, models):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m in models:
        paths.append(directory / f"{m.model_id}.uws")
        save_weights(m, paths[-1])
    return paths


def max_sine(a, b):
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2))


def assert_matches_stacked(u, models):
    for name in u.included_layers:
        got = u.layer_models[name]
        want = hosvd_truncated(
            stack_layer(models, name),
            u.config.policy,
            centering=u.config.centering,
            slab_extent=models[0].layers[name].shape[0],
        )
        assert got.factors[0] is None and got.core is None
        assert got.shape == want.shape and got.slab_extent == want.slab_extent
        assert got.ranks[1] == want.ranks[1]
        assert max_sine(got.factors[1], want.factors[1]) <= 1e-10
        for mode in (1, 2):
            assert_spectra_agree(got.variance_ledger[mode], want.variance_ledger[mode])
        mu_g, mu_w = np.asarray(got.mu), np.asarray(want.mu)
        assert np.shape(mu_g) == np.shape(mu_w)
        assert np.linalg.norm(mu_g - mu_w) <= 1e-12 * np.linalg.norm(mu_w)


class Routes:
    """Counts file reads (through the reader that ``load_weights`` and
    extraction share), streamed decompositions and stacked ones (each a
    call of ``exact_subspace``).

    Extraction from files reads the first model's manifest once, then
    each model once per layer pass: T * L + 1 reads for L included
    layers, and T more for each layer the Gram route's guard declines."""

    def __init__(self, monkeypatch):
        self.reads = self.streamed = self.stacked = 0
        real_load, real_exact = ensemble_module._read_payloads, ensemble_module.exact_subspace
        real_decompose = GramStream.decompose

        def load(*a, **kw):
            self.reads += 1
            return real_load(*a, **kw)

        def stacked(*a, **kw):
            self.stacked += 1
            return real_exact(*a, **kw)

        def streamed(*a, **kw):
            self.streamed += 1
            return real_decompose(*a, **kw)

        monkeypatch.setattr(ensemble_module, "_read_payloads", load)
        monkeypatch.setattr(ensemble_module, "exact_subspace", stacked)
        monkeypatch.setattr(GramStream, "decompose", streamed)

    def counts(self):
        return {"reads": self.reads, "streamed": self.streamed, "stacked": self.stacked}


# ------------------------------------------------------------ agreement


# 20 models stay inside one block; 128 fill two of block0's exactly; 300 split
# block1's 6-row slabs across block boundaries
@pytest.mark.parametrize("n_models", [20, 128, 300])
@pytest.mark.parametrize("centering", ["feature", "global"])
def test_streamed_extract_matches_the_stacked_decomposition(monkeypatch, n_models, centering):
    models = planted_models(500 + n_models, n_models)
    routes = Routes(monkeypatch)
    u = extract_universal(models, ExtractionConfig(policy=TAU, centering=centering))
    assert routes.counts() == {"reads": 0, "streamed": 2, "stacked": 0}
    assert u.provenance == [m.model_id for m in models]
    assert_matches_stacked(u, models)


def test_large_common_offset_streams_without_loss(monkeypatch):
    models = planted_models(77, 200, offset=1e4)
    routes = Routes(monkeypatch)
    u = extract_universal(models, ExtractionConfig(policy=TAU))
    assert routes.counts()["stacked"] == 0
    assert_matches_stacked(u, models)


def test_gram_stream_blocks_do_not_change_the_result():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3 * GRAM_BLOCK_ROWS + 17, 12)) @ rng.standard_normal((12, 12)) + 5.0
    by_rows, whole = GramStream(12), GramStream(12)
    for start in range(0, x.shape[0], 7):
        by_rows.add(x[start : start + 7])
    whole.add(x)
    a, b = by_rows.decompose(TAU), whole.decompose(TAU)
    xc = x - x.mean(axis=0)
    s = np.linalg.svd(xc, compute_uv=False)
    for model in (a, b):
        assert model.shape == x.shape
        spec = model.variance_ledger[2]
        n = spec.singular_values.size
        assert np.max(np.abs(spec.singular_values - s[:n])) <= 1e-12 * s[0]
        assert abs(spec.tail - np.sum(s[n:] ** 2)) <= 1e-12 * np.sum(s**2)
        assert np.allclose(model.mu, x.mean(axis=0, keepdims=True), rtol=0, atol=1e-12)
    assert max_sine(a.factors[1], b.factors[1]) <= 1e-12


def test_gram_stream_takes_float32_slabs_bit_for_bit():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2 * GRAM_BLOCK_ROWS + 40, 16)) @ rng.standard_normal((16, 16)) + 3.0
    x = x.astype(np.float32)
    single, double = GramStream(16), GramStream(16)
    for start in range(0, x.shape[0], 24):
        single.add(x[start : start + 24])
        double.add(x[start : start + 24].astype(np.float64))
    a, b = single.decompose(TAU), double.decompose(TAU)
    assert single.sumsq == double.sumsq
    for got, want in [
        (single.gram, double.gram),
        (a.mu, b.mu),
        (a.factors[1], b.factors[1]),
        (a.variance_ledger[2].singular_values, b.variance_ledger[2].singular_values),
    ]:
        assert np.array_equal(got, want)


def test_gram_stream_rejects_bad_slabs():
    stream = GramStream(4)
    with pytest.raises(InvalidArgumentError):
        stream.add(np.ones((3, 5)))
    with pytest.raises(InvalidArgumentError):
        stream.add(np.array([[1.0, np.nan, 0.0, 0.0]]))
    with pytest.raises(InvalidArgumentError):
        GramStream(4).decompose(TAU)
    with pytest.raises(InvalidArgumentError, match="complex"):
        stream.add(np.ones((2, 4)) * 1j)
    for cols in (-1, 0, 2.5, "3", True, None):
        with pytest.raises(InvalidArgumentError, match="positive int"):
            GramStream(cols)
    assert GramStream(np.int64(3)).cols == 3


def offset_stack(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * rng.uniform(0.5, 2.0, cols) + 3.0


def streamed(x, slab=13):
    stream = GramStream(x.shape[1])
    for start in range(0, x.shape[0], slab):
        stream.add(x[start : start + slab])
    return stream


# widths around the first two panel ends and off them; 2 blocks and 37
# rows end mid-block
WIDTHS = [1, GRAM_PANEL_COLS - 1, GRAM_PANEL_COLS + 1, 2 * GRAM_PANEL_COLS - 1,
          2 * GRAM_PANEL_COLS + 1, 600]


@pytest.mark.parametrize("cols", WIDTHS)
@pytest.mark.parametrize("rows", [GRAM_BLOCK_ROWS - 5, 2 * GRAM_BLOCK_ROWS + 37])
def test_streamed_gram_equals_the_stacked_product(cols, rows):
    x = offset_stack(cols + rows, max(rows, cols), cols)
    stream = streamed(x)
    stream.decompose(RankPolicy.fixed_k(1))
    xc = x - x.mean(axis=0)
    want = xc.T @ xc
    assert stream.rows == x.shape[0]
    assert np.linalg.norm(stream.gram - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(stream.mean - x.mean(axis=0)) <= 1e-12 * np.linalg.norm(x.mean(axis=0))


def test_gram_is_exactly_symmetric_after_every_decompose_and_add():
    x = offset_stack(8, 2 * GRAM_BLOCK_ROWS + 300, 600)
    head, rest = x[: GRAM_BLOCK_ROWS + 100], x[GRAM_BLOCK_ROWS + 100 :]
    stream, twin = streamed(head), streamed(head)
    twin.flush()  # the rows a decompose flushes, merged at the same point
    stream.decompose(TAU)
    once = stream.gram
    assert np.array_equal(once, once.T)
    assert np.array_equal(once, twin.gram)  # a decompose leaves the panels as they were
    stream.decompose(TAU, centering="global")  # works on a copy
    assert np.array_equal(stream.gram, once)
    # the accessor assembles a new array: writing to it changes nothing
    stream.gram[...] = 0.0
    assert np.array_equal(stream.gram, once)
    # later merges continue the twin's sums
    for s in (stream, twin):
        for start in range(0, rest.shape[0], 13):
            s.add(rest[start : start + 13])
        s.decompose(TAU)
    assert np.array_equal(stream.gram, stream.gram.T)
    assert np.array_equal(stream.gram, twin.gram)
    stream.decompose(TAU)
    assert np.array_equal(stream.gram, twin.gram)


@pytest.mark.parametrize("cols", WIDTHS)
@pytest.mark.parametrize("rows", [GRAM_BLOCK_ROWS - 5, 2 * GRAM_BLOCK_ROWS + 37])
def test_gram_panels_equal_a_full_storage_merge_bit_for_bit(cols, rows):
    x = offset_stack(cols + rows + 1, max(rows, cols), cols)
    stream = streamed(x)
    stream.flush()
    want, mean = full_storage_gram(x, GRAM_BLOCK_ROWS, GRAM_PANEL_COLS)
    assert np.array_equal(np.tril(stream.gram), np.tril(want))
    assert np.array_equal(stream.mean, mean)


def test_stream_after_a_full_eigh_continues_its_twins_sums_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(14)
    cols = 2 * GRAM_PANEL_COLS + 44
    x = rng.standard_normal((3 * GRAM_BLOCK_ROWS + 77, cols))  # flat: one full eigh
    head, rest = x[: GRAM_BLOCK_ROWS + 200], x[GRAM_BLOCK_ROWS + 200 :]
    policy = RankPolicy.cumulative_variance(0.95)
    stream, twin = streamed(head), streamed(head)
    twin.flush()
    solves = record_square_solves(monkeypatch)
    stream.decompose(policy)
    monkeypatch.undo()
    assert solves == [("eigh", cols)]
    assert np.array_equal(stream.gram, twin.gram)
    for s in (stream, twin):
        for start in range(0, rest.shape[0], 13):
            s.add(rest[start : start + 13])
    a, b = stream.decompose(policy), twin.decompose(policy)
    assert np.array_equal(stream.gram, twin.gram)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.factors[1], b.factors[1])
    assert np.array_equal(a.variance_ledger[2].singular_values, b.variance_ledger[2].singular_values)
    assert a.variance_ledger[2].tail == b.variance_ledger[2].tail


def test_global_centring_on_a_stream_matches_the_stacked_route():
    rng = np.random.default_rng(9)
    cols = 2 * GRAM_PANEL_COLS + 88
    basis = np.linalg.qr(rng.standard_normal((cols, 6)))[0]
    x = rng.standard_normal((2 * GRAM_BLOCK_ROWS + 37, 6)) @ basis.T * 10 + 3.0
    x += 0.01 * rng.standard_normal(x.shape) + rng.standard_normal(cols)
    got = streamed(x).decompose(TAU, centering="global")
    want = hosvd_truncated(x, TAU, centering="global")
    assert got.ranks[1] == want.ranks[1]
    assert max_sine(got.factors[1], want.factors[1]) <= 1e-10
    for mode in (1, 2):
        assert_spectra_agree(got.variance_ledger[mode], want.variance_ledger[mode])
    assert abs(got.mu - want.mu) <= 1e-12 * abs(want.mu)


def test_gram_stream_holds_the_gram_one_block_and_one_panel_product():
    cols = 1536
    x = offset_stack(10, GRAM_BLOCK_ROWS + 188, cols)
    slabs = [x[start : start + 64] for start in range(0, x.shape[0], 64)]
    tracemalloc.start()
    try:
        stream = GramStream(cols)
        for slab in slabs:
            stream.add(slab)
        stream.flush()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    square, row = cols * cols * 8, cols * 8
    panels = cols * (cols + GRAM_PANEL_COLS) // 2 * 8  # the Gram's lower row panels
    bound = panels + (GRAM_BLOCK_ROWS + 1) * row + GRAM_PANEL_COLS * row
    # a block as tall as the stack is wide, and a d x d product beside it
    full_product = square + (cols + 1) * row + square
    assert peak <= 1.1 * bound
    assert peak < full_product


# ------------------------------------------------------------ fallbacks


@pytest.mark.parametrize(
    "config,shapes",
    [
        (ExtractionConfig(policy=RankPolicy.cumulative_variance(1.0)), SHAPES),
        (ExtractionConfig(policy=RankPolicy.hard_threshold()), SHAPES),
        (ExtractionConfig(policy=TAU), {name: (2, 40) for name in SHAPES}),  # 24 x 40: wide
        (ExtractionConfig(policy=TAU, order=3), SHAPES),
    ],
    ids=["tau1", "hard_threshold", "wide", "order3"],
)
def test_exact_route_cases_read_once_and_stack(monkeypatch, tmp_path, config, shapes):
    models = planted_models(11, 12, shapes=shapes)
    paths = write_models(tmp_path / "models", models)
    routes = Routes(monkeypatch)
    calls = Counter()
    with monkeypatch.context() as m:
        for module, name in ((np.linalg, "svd"), (hosvd_module, "_core")):
            def counted(*a, _real=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)

            m.setattr(module, name, counted)
        u = extract_universal(paths, config)
    assert routes.counts() == {"reads": 25, "streamed": 0, "stacked": 2}
    # one thin SVD per non-stacking mode: of the stack itself for order 2,
    # of the mode-2 and mode-3 unfoldings for order 3; no U1 and no core
    assert calls == {"svd": 2 * (config.order - 1)}
    for name in u.included_layers:
        model = u.layer_models[name]
        assert model.factors[0] is None and model.core is None
        assert set(model.variance_ledger) == ({1, 2} if config.order == 2 else {2, 3})
        want = hosvd_truncated(
            stack_layer(models, name, order=config.order),
            config.policy,
            slab_extent=shapes[name][0] if config.order == 2 else 1,
        )
        assert np.array_equal(model.factors[1], want.factors[1])
        for mode, spec in model.variance_ledger.items():
            assert np.array_equal(spec.singular_values,
                                  want.variance_ledger[mode].singular_values)
            assert spec.retained == want.variance_ledger[mode].retained


def test_mixed_shapes_stream_and_stack_in_their_own_layer_passes(monkeypatch, tmp_path):
    shapes = dict(SHAPES, block1=(1, 32))  # block1 stacks to 12 x 32: wide
    models = planted_models(24, 12, shapes=shapes)
    paths = write_models(tmp_path / "models", models)
    routes = Routes(monkeypatch)
    u = extract_universal(paths, ExtractionConfig(policy=TAU))
    assert routes.counts() == {"reads": 25, "streamed": 1, "stacked": 1}
    assert_matches_stacked(u, models)


def test_guard_declined_layer_is_read_again_and_stacked(monkeypatch, tmp_path):
    models = planted_models(12, 30)
    paths = write_models(tmp_path / "models", models)
    routes = Routes(monkeypatch)
    monkeypatch.setattr(hosvd_module, "GRAM_MIN_RATIO", np.inf)  # every Gram route declines
    solves = Counter()
    for name in ("gram_leading", "thin_svd"):
        def counted(*a, _real=getattr(hosvd_module, name), _name=name, **kw):
            solves[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(hosvd_module, name, counted)
    u = extract_universal(paths, ExtractionConfig(policy=TAU))
    # each declined layer's pass is followed by one that reads every
    # model's slab of it again, and its stack goes straight to one SVD
    assert routes.counts() == {"reads": 121, "streamed": 2, "stacked": 2}
    assert solves == {"gram_leading": 2, "thin_svd": 2}
    assert_matches_stacked(u, models)


def test_streamed_extract_memory_does_not_grow_with_the_ensemble(tmp_path):
    shapes = {name: (16, 128) for name in ("inlet", "block0", "block1", "outlet")}
    peaks = {}
    for n_models in (40, 160):
        models = planted_models(13, n_models, shapes=shapes)
        paths = write_models(tmp_path / f"t{n_models}", models)
        tracemalloc.start()
        extract_universal(paths, ExtractionConfig(policy=TAU))
        peaks[n_models] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[160] <= 1.2 * peaks[40]


# an order-3 peak is mostly the decomposition's own work arrays, about
# seven stacks, so a second kept stack would add about 1/7 to it
@pytest.mark.parametrize("order, layers, bound", [(2, 4, 1.2), (3, 2, 1.1)],
                         ids=["streamed", "stacked"])
def test_extract_memory_does_not_grow_with_the_included_layers(tmp_path, order, layers, bound):
    # one layer's stream or stack is held at a time, whatever the layer count
    peaks = {}
    for count in (1, layers):
        shapes = {f"L{i}": (16, 128) for i in range(count)}
        paths = write_models(tmp_path / f"l{count}", planted_models(31, 40, shapes=shapes))
        config = ExtractionConfig(policy=TAU, order=order, exclude_layers=())
        tracemalloc.start()
        try:
            u = extract_universal(paths, config)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(u.included_layers) == count
    assert peaks[layers] <= bound * peaks[1]


@pytest.mark.parametrize("edit", ["model_id", "shape"])
def test_a_model_that_changes_between_layer_passes_is_a_data_error(
    monkeypatch, tmp_path, capsys, edit
):
    models = planted_models(32, 12)
    victim = models[5]
    changed = ModelWeights("other" if edit == "model_id" else victim.model_id,
                           dict(victim.layers))
    if edit == "shape":
        changed.layers["block1"] = changed.layers["block1"][:4]
    real_decompose = GramStream.decompose

    def decompose_then_rewrite(*a, **kw):
        # after the first layer's decomposition, before block1's pass
        save_weights(changed, tmp_path / "bad" / f"{victim.model_id}.uws")
        return real_decompose(*a, **kw)

    monkeypatch.setattr(GramStream, "decompose", decompose_then_rewrite)
    paths = write_models(tmp_path / "bad", models)
    with pytest.raises(ManifestError, match="changed between layer passes"):
        extract_universal(paths, ExtractionConfig(policy=TAU))
    write_models(tmp_path / "bad", models)
    code, err = _extract_code(tmp_path, [], capsys)
    assert code == 2 and "changed between layer passes" in err


BIG_EXCLUDED = {"inlet": (512, 512), "block0": (8, 16), "block1": (6, 16), "outlet": (512, 512)}


def float32_files(directory):
    """Six f32 weights files whose excluded layers are nearly all of each
    file; returns the paths and one file's size."""
    models = planted_models(25, 6, shapes=BIG_EXCLUDED)
    for m in models:
        m.dtypes = dict.fromkeys(m.layers, "f32")
    paths = write_models(directory, models)
    return paths, paths[0].stat().st_size


def extraction_peak(paths, order=2):
    tracemalloc.start()
    try:
        u = extract_universal(paths, ExtractionConfig(policy=TAU, order=order))
        return u, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_from_float32_files_converts_no_excluded_layer(tmp_path):
    # a float64 copy of either excluded layer would add the file's size
    # to the peak
    paths, size = float32_files(tmp_path / "models")
    u, peak = extraction_peak(paths)
    assert u.excluded_layers == ["inlet", "outlet"]
    assert peak <= 2.5 * size
    assert_matches_stacked(u, [load_weights(p) for p in paths])


def test_extraction_holds_one_weights_file_at_a_time(tmp_path):
    # the first model is dropped after its turn, like every other: the
    # peak is one file (1.27x its size), not the first file and the
    # current one (2.27x)
    paths, size = float32_files(tmp_path / "models")
    _, peak = extraction_peak(paths)
    assert peak <= 1.6 * size


def test_layers_kept_from_float64_files_do_not_pin_the_files(tmp_path):
    # order-3 stacks keep their layers from the read; float64 views of
    # those small layers would hold all six files (6.08x one file), and
    # copies of them hold one at a time (1.08x)
    paths = write_models(tmp_path / "models", planted_models(25, 6, shapes=BIG_EXCLUDED))
    u, peak = extraction_peak(paths, order=3)
    assert peak <= 2.0 * paths[0].stat().st_size
    want = extract_universal([load_weights(p) for p in paths], u.config)
    for name in u.included_layers:
        for g, w in zip(u.layer_models[name].factors[1:], want.layer_models[name].factors[1:]):
            assert np.array_equal(g, w)


def test_streamed_extract_holds_near_the_float_limit(monkeypatch, tmp_path, capsys):
    # the Gram of these stacks overflows (2**532) or underflows (2**-532,
    # 2**-560): the guard sends them to the SVD
    models = planted_models(26, 40)
    config = ExtractionConfig(policy=TAU)
    want = extract_universal(models, config)
    routes = Routes(monkeypatch)
    for exponent in (532, -532, -560):
        scaled = [
            ModelWeights(m.model_id, {n: np.ldexp(w, exponent) for n, w in m.layers.items()})
            for m in models
        ]
        routes.reads = routes.streamed = routes.stacked = 0
        got = extract_universal(scaled, config)
        assert routes.counts() == {"reads": 0, "streamed": 2, "stacked": 2}
        for name in want.included_layers:
            g, w = got.layer_models[name], want.layer_models[name]
            assert g.ranks == w.ranks
            assert max_sine(g.factors[1], w.factors[1]) <= 1e-10
        code, err = _extract_code(tmp_path / str(exponent), scaled, capsys)
        assert code == 0, err
        u = load_subspace(tmp_path / str(exponent) / "s.uws")
        for name in want.included_layers:
            assert max_sine(u.layer_models[name].factors[1],
                            want.layer_models[name].factors[1]) <= 1e-10


def test_a_declined_layer_is_read_again_without_the_up_front_layers(monkeypatch, tmp_path):
    # "wide" (6 x 8 rows of 64) is stacked from its layer pass; "tall"
    # (48 x 16) streams, and its 2**532 scale overflows the Gram, so the
    # guard declines it and it is read again: the second read must copy
    # only "tall", so that each slab is held once as float64
    shapes = {"inlet": (4, 64), "wide": (8, 64), "tall": (8, 16), "outlet": (4, 64)}
    models = planted_models(28, 6, shapes=shapes)
    for m in models:
        m.layers["tall"] = np.ldexp(m.layers["tall"], 532)
    paths = write_models(tmp_path / "models", models)
    copies = Counter()

    class Counting(ModelWeights):
        def __post_init__(self):
            copies.update(list(self.layers))
            super().__post_init__()

    monkeypatch.setattr(ensemble_module, "ModelWeights", Counting)
    routes = Routes(monkeypatch)
    u = extract_universal(paths, ExtractionConfig(policy=TAU))
    assert routes.counts() == {"reads": 19, "streamed": 1, "stacked": 2}
    assert copies == {"wide": 6, "tall": 6}
    for name in ("wide", "tall"):
        got = u.layer_models[name]
        want = hosvd_truncated(stack_layer(models, name), TAU, slab_extent=8)
        assert np.array_equal(got.mu, want.mu)
        assert np.array_equal(got.factors[1], want.factors[1])
        assert np.array_equal(got.variance_ledger[2].singular_values,
                              want.variance_ledger[2].singular_values)


# ------------------------------------------------------------ errors


def test_streamed_extract_errors_keep_their_class():
    models = planted_models(14, 10)
    config = ExtractionConfig(policy=TAU)
    gap = ModelWeights("gap", {n: w for n, w in models[3].layers.items() if n != "block1"})
    with pytest.raises(InvalidArgumentError, match="gap"):
        extract_universal(models[:3] + [gap], config)
    short = ModelWeights("short", dict(models[4].layers))
    short.layers["block0"] = short.layers["block0"][:3]
    with pytest.raises(InvalidArgumentError, match="short"):
        extract_universal(models[:4] + [short], config)
    nan = ModelWeights("nan", dict(models[5].layers))
    nan.layers["block0"] = np.full(SHAPES["block0"], np.nan)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        extract_universal(models[:4] + [nan], config)
    row = np.random.default_rng(15).standard_normal(40)
    same = [ModelWeights(f"s{i}", {n: np.tile(row, (8, 1)) for n in SHAPES}) for i in range(6)]
    with pytest.raises(DegenerateSpectrumError, match="block0"):
        extract_universal(same, config)
    zero = [ModelWeights(f"z{i}", {n: np.zeros(s) for n, s in SHAPES.items()}) for i in range(6)]
    with pytest.raises(DegenerateSpectrumError, match="zero"):
        extract_universal(zero, config)


def _extract_code(tmp_path, models, capsys):
    write_models(tmp_path / "bad", models)
    code = cli.main(["extract", "--models", str(tmp_path / "bad" / "*.uws"),
                     "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")])
    return code, capsys.readouterr().err


def test_streamed_extract_exit_codes(tmp_path, capsys):
    models = planted_models(16, 10)
    gap = ModelWeights("m0009", {n: w for n, w in models[9].layers.items() if n != "block0"})
    assert _extract_code(tmp_path / "a", models[:9] + [gap], capsys)[0] == 2
    odd = ModelWeights("m0009", dict(models[9].layers))
    odd.layers["block1"] = odd.layers["block1"][:2]
    assert _extract_code(tmp_path / "b", models[:9] + [odd], capsys)[0] == 2
    row = np.random.default_rng(17).standard_normal(40)
    same = [ModelWeights(f"s{i}", {n: np.tile(row, (8, 1)) for n in SHAPES}) for i in range(6)]
    code, err = _extract_code(tmp_path / "c", same, capsys)
    assert code == 3 and "variance" in err
    write_models(tmp_path / "d" / "bad", models)
    victim = tmp_path / "d" / "bad" / "m0004.uws"
    blob = bytearray(victim.read_bytes())
    blob[-8:] = np.array([np.nan]).tobytes()
    victim.write_bytes(bytes(blob))
    code = cli.main(["extract", "--models", str(tmp_path / "d" / "bad" / "*.uws"),
                     "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")])
    assert code == 2 and "non-finite" in capsys.readouterr().err


def test_streamed_extract_on_the_leading_vector_route_reruns_byte_identically(
    monkeypatch, tmp_path, capsys
):
    # 48 models of 32 x 512: 1536 stacked rows, more than one Gram block
    shapes = {"inlet": (4, 512), "block0": (32, 512), "outlet": (4, 512)}
    write_models(tmp_path / "m", planted_models(19, 48, shapes=shapes))
    solves = record_square_solves(monkeypatch)
    routes = Routes(monkeypatch)
    outputs = []
    for name in ("a", "b"):
        outputs.append(tmp_path / f"{name}.uws")
        code = cli.main(["extract", "--models", str(tmp_path / "m" / "*.uws"),
                         "--out", str(outputs[-1]), "--report", str(tmp_path / f"{name}.csv")])
        assert code == 0
    capsys.readouterr()
    assert routes.counts() == {"reads": 98, "streamed": 2, "stacked": 0}
    # Rayleigh-Ritz solves only: no 512 x 512 eigh, and no eigvalsh
    assert solves and all(name == "eigh" and order < 512 for name, order in solves)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


# ------------------------------------------------------------ models without U1


def test_streamed_model_projects_but_does_not_rebuild_its_stack():
    models = planted_models(18, 40)
    u = extract_universal(models, ExtractionConfig(policy=TAU))
    model = u.layer_models["block0"]
    with pytest.raises(InvalidArgumentError, match="stacking-mode factor"):
        reconstruct(model)
    stack = stack_layer(models, "block0")
    full = hosvd_truncated(stack, TAU, slab_extent=8)
    a, b = secondary_subspace(stack, model, 3), secondary_subspace(stack, full, 3)
    assert max_sine(a.factors[1], b.factors[1]) <= 1e-10
    slab = models[0].layers["block0"]
    assert np.allclose(
        reconstruct_slice(model, project_slice(model, slab)),
        reconstruct_slice(full, project_slice(full, slab)),
        rtol=0, atol=1e-10,
    )


def test_order3_secondary_needs_the_stacking_factor():
    models = planted_models(19, 12)
    u = extract_universal(models, ExtractionConfig(policy=TAU, order=3))
    with pytest.raises(InvalidArgumentError, match="stacking-mode factor"):
        secondary_subspace(stack_layer(models, "block0", order=3), u.layer_models["block0"], 1)


# ------------------------------------------------------------ file format


def test_subspace_meta_holds_only_what_the_entries_cannot_say(tmp_path):
    models = planted_models(22, 30)
    for order in (2, 3):
        u = extract_universal(models, ExtractionConfig(policy=TAU, order=order))
        save_subspace(u, tmp_path / "s.uws")
        doc = read_container(tmp_path / "s.uws")
        assert doc.model_id == u.architecture_id == "ensemble"
        assert list(doc.meta) == ["kind", "format_version", "provenance", "centering",
                                  "policy", "layer_order", "layers"]
        assert doc.meta["format_version"] == 5
        assert list(doc.meta["policy"]) == ["kind", "tau", "epsilon", "k", "noise_sigma"]
        assert list(doc.meta["layers"]) == ["block0", "block1"]
        assert doc.meta["layers"]["block0"] == {
            "stack_shape": [240, 40] if order == 2 else [30, 8, 40],
            "slab_extent": 8,
        }
        entries = sorted(rec.name for rec in doc.layers if "block0" in rec.name)
        modes = [f"{n}" for n in range(2, order + 1)]
        assert entries == (
            [f"U/block0/{n}" for n in modes]
            + [f"ledger/block0/sv/{n}" for n in modes]
            + [f"ledger/block0/tail/{n}" for n in modes]
            + ["mu/block0"]
        )


def test_subspace_file_is_near_its_mean_and_basis_bytes(tmp_path):
    shapes = {name: (16, 256) for name in ("inlet", "block0", "block1", "outlet")}
    models = planted_models(27, 20, shapes=shapes, k=16)
    u = extract_universal(models, ExtractionConfig(policy=TAU))
    assert [u.layer_models[n].ranks[1] for n in u.included_layers] == [16, 16]
    save_subspace(u, tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    bases = sum(rec.array.nbytes for rec in doc.layers if rec.name.startswith(("mu/", "U/")))
    # a spectrum row costs 1/k of a basis; the meta is the rest
    assert (tmp_path / "s.uws").stat().st_size <= 1.1 * bases


def test_unknown_format_version_is_a_data_error(tmp_path, capsys):
    models = planted_models(23, 30)
    paths = write_models(tmp_path / "models", models)
    save_subspace(extract_universal(paths, ExtractionConfig(policy=TAU)), tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    # only version 5 reads; a file without the key is no exception
    for version in (6, 4, 1, 0, "5", 5.0, True, None):
        meta = dict(doc.meta, format_version=version)
        if version is None:
            del meta["format_version"]
        write_container(tmp_path / "v.uws", doc.model_id,
                        [(r.name, r.array, r.dtype) for r in doc.layers], meta=meta)
        with pytest.raises(ManifestError, match=f"format_version {version!r} is not 5"):
            load_subspace(tmp_path / "v.uws")
        code = cli.main(["project", "--subspace", str(tmp_path / "v.uws"),
                         "--model", str(paths[0]), "--out", str(tmp_path / "c.uws")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "extract the subspace again" in err
    assert load_weights(paths[0]).model_id == "m0000"


@pytest.mark.parametrize(
    "order, edit, message",
    [
        # without the rule, a projected layer would silently pass through
        (2, lambda m: m["layers"].pop("block1"), "exactly the layers"),
        (2, lambda m: m["layers"].update(inlet=m["layers"]["block0"]), "exactly the layers"),
        (2, lambda m: m["layer_order"].remove("block1"), "exactly the layers"),
        (2, lambda m: m["layer_order"].append("block0"), "twice"),
        (2, lambda m: m["provenance"].pop(), "29 models"),
        (3, lambda m: m["provenance"].append("m9999"), "31 models"),
        (3, lambda m: m["layers"]["block0"].update(slab_extent=4), "4-row slabs"),
        (3, lambda m: m["layers"]["block1"].update(stack_shape=[30, 6]), "order-3"),
        (2, lambda m: m["layers"]["block0"].update(stack_shape=[240, 41]), "rows"),
        (3, lambda m: m["layers"]["block0"].update(stack_shape=[30, 8, 41]), "rows"),
        (2, lambda m: m.update(centering="global"), "reshape"),
        (2, lambda m: m.update(centering="none"), "centering"),
        (2, lambda m: m["policy"].update(tau=1.5), "tau"),
        (2, lambda m: m["policy"].update(kind="fixed_k"), "takes no tau"),
    ],
    ids=["layers-drop-one", "layers-add-one", "order-drops-one", "order-repeats-one",
         "provenance-short", "provenance-long", "slab-extent", "stack-shape-2d",
         "stack-shape-width", "stack-shape-width-3", "centering-flipped",
         "centering-unknown", "tau-out-of-range", "kind-with-a-foreign-parameter"],
)
def test_meta_that_contradicts_the_entries_is_a_data_error(tmp_path, capsys, order, edit, message):
    paths = write_models(tmp_path / "models", planted_models(29, 30))
    u = extract_universal(paths, ExtractionConfig(policy=TAU, order=order))
    save_subspace(u, tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    meta = copy.deepcopy(doc.meta)
    edit(meta)
    edited = tmp_path / "edited.uws"
    write_container(edited, doc.model_id, [(r.name, r.array, r.dtype) for r in doc.layers],
                    meta=meta)
    with pytest.raises(ManifestError, match=message):
        load_subspace(edited)
    capsys.readouterr()
    code = cli.main(["project", "--subspace", str(edited), "--model", str(paths[0]),
                     "--out", str(tmp_path / "c.uws")])
    assert code == 2 and capsys.readouterr().err.count("\n") == 1


def _with_spectrum(src, dst, edit):
    """Copy subspace file ``src`` to ``dst`` with ``edit`` applied to the
    stored singular values of layer block0."""
    doc = read_container(src)
    records = [
        (r.name, edit(np.array(r.array)) if r.name == "ledger/block0/sv/2" else r.array, r.dtype)
        for r in doc.layers
    ]
    write_container(dst, doc.model_id, records, meta=doc.meta)


@pytest.mark.parametrize(
    "edit",
    [
        lambda sv: np.zeros_like(sv),
        lambda sv: -sv,
        lambda sv: sv[:, ::-1],
        lambda sv: sv[:, :2],
    ],
    ids=["zeroed", "negated", "reversed", "cut-to-2"],
)
@pytest.mark.parametrize("command", ["project", "scree"])
def test_stored_spectra_are_checked_on_load(tmp_path, capsys, edit, command):
    models = planted_models(26, 30)
    paths = write_models(tmp_path / "models", models)
    save_subspace(extract_universal(paths, ExtractionConfig(policy=TAU)), tmp_path / "s.uws")
    edited = tmp_path / "edited.uws"
    _with_spectrum(tmp_path / "s.uws", edited, edit)
    argv = {
        "project": ["project", "--subspace", str(edited), "--model", str(paths[0]),
                    "--out", str(tmp_path / "c.uws")],
        "scree": ["scree", "--subspace", str(edited), "--out", str(tmp_path / "t.csv")],
    }[command]
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "'ledger/block0/sv/2'" in err
    with pytest.raises(ManifestError, match="ledger/block0/sv/2"):
        load_subspace(edited)


@pytest.mark.parametrize("tau", [0.99, 1.0], ids=["gram-route", "exact-route"])
def test_every_stored_spectrum_needs_a_tail_that_fits_it(tmp_path, capsys, tau):
    models = planted_models(26, 30)
    paths = write_models(tmp_path / "models", models)
    u = extract_universal(paths, ExtractionConfig(policy=RankPolicy.cumulative_variance(tau)))
    save_subspace(u, tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    edited = tmp_path / "edited.uws"

    def write_tail(tail):
        records = [(r.name, r.array, r.dtype) for r in doc.layers
                   if r.name != "ledger/block0/tail/2"]
        if tail is not None:
            records.append(("ledger/block0/tail/2", np.array([[tail]]), "f64"))
        write_container(edited, doc.model_id, records, meta=doc.meta)

    def scree_error():
        code = cli.main(["scree", "--subspace", str(edited), "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        return err

    # without its tail, a stored prefix would read as the whole spectrum;
    # a whole one needs its tail of 0 as well
    write_tail(None)
    assert "missing required entry 'ledger/block0/tail/2'" in scree_error()
    if tau == 1.0:  # the exact route stores every value and a tail of 0
        write_tail(0.0)
        spec = load_subspace(edited).layer_models["block0"].variance_ledger[2]
        assert np.array_equal(spec.ratios, u.layer_models["block0"].variance_ledger[2].ratios)
        # past the whole spectrum no energy is left
        write_tail(1e-3)
        assert "'ledger/block0/tail/2' must be 0 after the whole spectrum" in scree_error()
        return
    longer = tmp_path / "longer.uws"
    _with_spectrum(tmp_path / "s.uws", longer, lambda sv: np.c_[sv, np.zeros((1, 40))])
    with pytest.raises(ManifestError, match="more than its unfolding's 40"):
        load_subspace(longer)
    # the 40 - n components past the stored n are each at most s_n**2
    sv = u.layer_models["block0"].variance_ledger[2].singular_values
    most = (40 - sv.size) * sv[-1] ** 2
    write_tail(most)
    load_subspace(edited)
    write_tail(most * 1.01)
    assert "'ledger/block0/tail/2' holds more energy than the" in scree_error()
