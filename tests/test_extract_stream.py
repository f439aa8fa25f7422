"""Streamed, layer-major extraction (``GramStream``) and the version-6
subspace file, which holds only each layer's mean, bases, spectra and
tails, and in its meta only what those entries cannot say."""

import copy
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import uws.ensemble as ensemble_module
import uws.hosvd as hosvd_module
import uws.spectral as spectral_module
from uws import cli
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    UniversalSubspace,
    _routes,
    _Stack,
    extract_universal,
    load_subspace,
    load_weights,
    save_subspace,
    save_weights,
    stack_layer,
)
from uws.ensemble.container import read_container, write_container
from uws.errors import ContainerError, InvalidArgumentError, NumericalFailureError
from uws.hosvd import (
    GRAM_BLOCK_ROWS,
    GRAM_MIN_SQUARE,
    GramStream,
    exact_subspace,
    project_slice,
    reconstruct_slice,
)
from uws.spectral import GRAM_PANEL_COLS, RankPolicy

from oracles import (
    assert_spectra_agree,
    full_storage_gram,
    haar_columns,
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
        want = exact_subspace(stack_layer(models, name), u.policy, centering=u.centering)
        assert got.order == want.order and got.ranks == want.ranks
        assert max_sine(got.factors[-1], want.factors[-1]) <= 1e-10
        for g, w in zip(got.spectra, want.spectra, strict=True):
            assert_spectra_agree(g, w)
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
        real_load, real_exact = ensemble_module.read_container, ensemble_module.exact_subspace
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

        monkeypatch.setattr(ensemble_module, "read_container", load)
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
    by_rows, whole, split = GramStream(12), GramStream(12), GramStream(12)
    for start in range(0, x.shape[0], 7):
        by_rows.add(x[start : start + 7])
    whole.add(x)
    for part in np.split(x, [1, 600]):  # the 599 rows span the first merge
        split.add(part)
    for stream in (by_rows, whole, split):  # each row lands in the same block, shifted once
        stream.flush()
        assert np.array_equal(stream.gram, by_rows.gram)
        assert np.array_equal(stream.mean, by_rows.mean)
    a, b, c = by_rows.decompose(TAU), whole.decompose(TAU), split.decompose(TAU)
    xc = x - x.mean(axis=0)
    s = np.linalg.svd(xc, compute_uv=False)
    for model in (a, b, c):
        assert model.order == 2 and model.factors[0].shape[0] == x.shape[1]
        spec = model.spectra[-1]
        n = spec.singular_values.size
        assert np.max(np.abs(spec.singular_values - s[:n])) <= 1e-12 * s[0]
        assert abs(spec.tail - np.sum(s[n:] ** 2)) <= 1e-12 * np.sum(s**2)
        assert np.allclose(model.mu, x.mean(axis=0, keepdims=True), rtol=0, atol=1e-12)
    assert max(max_sine(a.factors[-1], m.factors[-1]) for m in (b, c)) <= 1e-12


def test_gram_stream_takes_float32_slabs_bit_for_bit():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2 * GRAM_BLOCK_ROWS + 40, 16)) @ rng.standard_normal((16, 16)) + 3.0
    x = x.astype(np.float32)
    single, double = GramStream(16), GramStream(16)
    for start in range(0, x.shape[0], 24):
        single.add(x[start : start + 24])
        double.add(x[start : start + 24].astype(np.float64))
    single.flush()
    double.flush()
    assert np.array_equal(single.gram, double.gram)
    # r and s, with G what ||X||**2 is read from, keep their bits too, and
    # tr G + n |mean|**2 is the input's own sum of squares
    assert np.array_equal(single.reference, double.reference)
    assert np.array_equal(single.total, double.total)
    square = np.trace(single.gram) + single.rows * single.mean @ single.mean
    assert square == pytest.approx(np.vdot(x, x.astype(np.float64)), rel=1e-12)
    a, b = single.decompose(TAU), double.decompose(TAU)
    for got, want in [
        (a.mu, b.mu),
        (a.factors[-1], b.factors[-1]),
        (a.spectra[-1].singular_values, b.spectra[-1].singular_values),
    ]:
        assert np.array_equal(got, want)


def test_gram_stream_rejects_bad_slabs():
    stream = GramStream(4)
    with pytest.raises(InvalidArgumentError):
        stream.add(np.ones((3, 5)))
    with pytest.raises(InvalidArgumentError):
        stream.add(np.array([[1.0, np.nan, 0.0, 0.0]]))
    assert GramStream(4).decompose(TAU) is None  # no rows: the exact route refuses them
    with pytest.raises(InvalidArgumentError, match="complex"):
        stream.add(np.ones((2, 4)) * 1j)
    for cols in (-1, 0, 2.5, "3", True, None):
        with pytest.raises(InvalidArgumentError, match="^cols must be "):
            GramStream(cols)
    assert GramStream(np.int64(3)).cols == 3


@pytest.mark.parametrize("then", ["add", "decompose", "gram"])
def test_a_decomposed_stream_takes_no_more_rows_and_no_second_decompose(then):
    x = np.random.default_rng(11).standard_normal((40, 6)) + 3.0
    stream = GramStream(6)
    stream.add(x)
    assert stream.decompose(TAU) is not None
    follow = {"add": lambda: stream.add(x[:3]), "decompose": lambda: stream.decompose(TAU),
              "gram": lambda: stream.gram}[then]
    with pytest.raises(InvalidArgumentError, match="^the stream was decomposed"):
        follow()


def test_a_global_centred_decompose_holds_one_gram():
    cols, rng = 1024, np.random.default_rng(12)
    basis = np.linalg.qr(rng.standard_normal((cols, 8)))[0]
    stream = GramStream(cols)
    for _ in range(18):  # 1152 rows of rank 8 plus noise: the block iteration serves them
        slab = (rng.standard_normal((64, 8)) * np.geomspace(10.0, 1.0, 8)) @ basis.T
        stream.add(slab + 0.01 * rng.standard_normal((64, cols)) + 3.0)
    stream.flush()
    tracemalloc.start()
    try:
        model = stream.decompose(RankPolicy.fixed_k(8), centering="global")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    panels = cols * (cols + GRAM_PANEL_COLS) // 2 * 8  # the Gram's lower row panels
    assert model.ranks == (8,)
    # centring and solving add the symmetric diagonal blocks and one panel's
    # outer product, w x d doubles each, 0.44 of the panels; a copy of G adds 1
    assert peak < 0.75 * panels


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
    stream.flush()
    gram, mean = stream.gram, stream.mean
    model = stream.decompose(RankPolicy.fixed_k(1))
    xc = x - x.mean(axis=0)
    want = xc.T @ xc
    assert stream.rows == x.shape[0]
    assert np.linalg.norm(gram - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(mean - x.mean(axis=0)) <= 1e-12 * np.linalg.norm(x.mean(axis=0))
    assert np.array_equal(model.mu, mean)


def test_gram_is_exactly_symmetric_and_is_the_one_the_solve_takes(monkeypatch):
    x = offset_stack(8, GRAM_BLOCK_ROWS + 100, 600)
    stream = streamed(x)
    stream.flush()
    once = stream.gram
    assert np.array_equal(once, once.T)
    # the accessor assembles a new array: writing to it changes nothing
    stream.gram[...] = 0.0
    assert np.array_equal(stream.gram, once)
    taken, real_leading = [], hosvd_module.gram_leading

    def leading(gram, policy):
        taken.append(gram.symmetric())
        return real_leading(gram, policy)

    monkeypatch.setattr(hosvd_module, "gram_leading", leading)
    stream.decompose(TAU)
    assert len(taken) == 1 and np.array_equal(taken[0], once)


@pytest.mark.parametrize("cols", WIDTHS)
@pytest.mark.parametrize("rows", [GRAM_BLOCK_ROWS - 5, 2 * GRAM_BLOCK_ROWS + 37])
def test_gram_panels_equal_a_full_storage_merge_bit_for_bit(cols, rows):
    x = offset_stack(cols + rows + 1, max(rows, cols), cols)
    stream = streamed(x)
    stream.flush()
    want, mean = full_storage_gram(x, GRAM_BLOCK_ROWS, GRAM_PANEL_COLS)
    assert np.array_equal(np.tril(stream.gram), np.tril(want))
    assert np.array_equal(stream.mean, mean)


def test_global_centring_on_a_stream_matches_the_stacked_route():
    rng = np.random.default_rng(9)
    cols = 2 * GRAM_PANEL_COLS + 88
    basis = np.linalg.qr(rng.standard_normal((cols, 6)))[0]
    x = rng.standard_normal((2 * GRAM_BLOCK_ROWS + 37, 6)) @ basis.T * 10 + 3.0
    x += 0.01 * rng.standard_normal(x.shape) + rng.standard_normal(cols)
    got = streamed(x).decompose(TAU, centering="global")
    want = exact_subspace(x.copy(), TAU, centering="global")
    assert got.ranks == want.ranks
    assert max_sine(got.factors[-1], want.factors[-1]) <= 1e-10
    for g, w in zip(got.spectra, want.spectra, strict=True):
        assert_spectra_agree(g, w)
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
    bound = panels + GRAM_BLOCK_ROWS * row + GRAM_PANEL_COLS * row
    # a block as tall as the stack is wide, and a d x d product beside it
    full_product = square + cols * row + square
    assert peak <= 1.01 * bound
    assert peak < full_product


# ------------------------------------------------------------ fallbacks


@pytest.mark.parametrize(
    "shape, config, kinds",
    [
        ((8, 40), ExtractionConfig(policy=RankPolicy.cumulative_variance(0.95)),
         [GramStream, _Stack]),
        ((8, 40), ExtractionConfig(policy=RankPolicy.fixed_k(4)), [GramStream, _Stack]),
        ((2, 40), ExtractionConfig(policy=TAU), [_Stack]),  # 24 x 40: wide
        ((8, 40), ExtractionConfig(policy=TAU, order=3), [_Stack]),
        ((8, 40), ExtractionConfig(policy=RankPolicy.cumulative_variance(1.0)), [_Stack]),
        ((8, 40), ExtractionConfig(policy=RankPolicy.hard_threshold()), [_Stack]),
    ],
    ids=["tall-tau", "tall-fixed-k", "wide", "order3", "tau1", "hard_threshold"],
)
def test_routes_list_the_streams_a_layer_tries_in_order(shape, config, kinds):
    # the route is chosen from the shapes and the config alone, with no read
    assert [type(make()) for make in _routes(shape, 12, config)] == kinds


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
        def counted(*a, _real=np.linalg.svd, **kw):
            calls["svd"] += 1
            return _real(*a, **kw)

        m.setattr(np.linalg, "svd", counted)
        u = extract_universal(paths, config)
    assert routes.counts() == {"reads": 25, "streamed": 0, "stacked": 2}
    # one thin SVD per non-stacking mode, of its fibres laid out as rows:
    # the stacked rows, and for order 3 also each member's columns
    assert calls == {"svd": 2 * (config.order - 1)}
    for name in u.included_layers:
        model = u.layer_models[name]
        assert len(model.spectra) == config.order - 1
        want = exact_subspace(
            stack_layer(models, name, order=config.order),
            config.policy,
            centering="feature",
        )
        for g, w in zip(model.factors, want.factors, strict=True):
            assert np.array_equal(g, w)
        for spec, w in zip(model.spectra, want.spectra, strict=True):
            assert np.array_equal(spec.singular_values, w.singular_values)


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
    solves = Counter()

    def declined(*a, **kw):  # every Gram route declines
        solves["gram_leading"] += 1

    def svd(*a, _real=np.linalg.svd, **kw):
        solves["svd"] += 1
        return _real(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(hosvd_module, "gram_leading", declined)
        m.setattr(np.linalg, "svd", svd)
        u = extract_universal(paths, ExtractionConfig(policy=TAU))
    # each declined layer's pass is followed by one that reads every
    # model's slab of it again, and its stack goes straight to one SVD
    assert routes.counts() == {"reads": 121, "streamed": 2, "stacked": 2}
    assert solves == {"gram_leading": 2, "svd": 2}
    assert_matches_stacked(u, models)


def _overflowing_gram():
    # 512 rows of a, then 4 of -128 a: the column mean is 0 and ||X||**2
    # rounds to the largest double, but the merge of the 4 rows, their
    # spread times sqrt(512 * 4 / 516), rounds past it in the Gram; the
    # stream reads ||X||**2 from that Gram as inf and declines before
    # centring, so the solve's own finiteness check is not reached
    x = np.zeros((516, 2))
    x[:512, 0] = 5.2170853813394446e151
    x[512:, 0] = -128 * x[0, 0]
    return x


def _flat_tiny_stack():
    # entries near 2**-470 that spread by 1e-6 of themselves: ||X||**2
    # clears GRAM_MIN_SQUARE, the centred Gram's trace does not
    rng = np.random.default_rng(1)
    spread = 1e-6 * rng.standard_normal((96, 40)) * np.geomspace(1.0, 0.01, 40)
    return np.ldexp(1.0 + spread, -470)


def _ky_fan_bounded():
    # 12 directions in 256 columns, their spectrum falling to 1e-6 of the
    # first: the energy the block leaves past the 9th bounds the 10th
    # below GRAM_MIN_RATIO * s_1 before any rank is certified
    rng = np.random.default_rng(66)
    a = haar_columns(300, 12, rng)
    a -= a.mean(axis=0)
    return a @ np.diag(np.geomspace(1.0, 1e-6, 12)) @ haar_columns(256, 12, rng).T


def _small_leading_value():
    # a 600 x 160 Gaussian stack scaled so that tr G is 3 * GRAM_MIN_SQUARE:
    # its spectrum is flat enough that s_1**2 is below the floor
    x = np.random.default_rng(5).standard_normal((600, 160))
    return x * np.sqrt(3 * GRAM_MIN_SQUARE / np.sum((x - x.mean(axis=0)) ** 2))


@pytest.mark.parametrize(
    "make, rows, policy, declines",
    [
        (_overflowing_gram, 43, TAU, ["||X||**2 out of range"]),
        (_flat_tiny_stack, 8, TAU, ["trace below GRAM_MIN_SQUARE"]),
        (_ky_fan_bounded, 12, RankPolicy.fixed_k(10), ["solve", "block bound"]),
        (_small_leading_value, 40, TAU, ["s_1**2 below GRAM_MIN_SQUARE"]),
    ],
    ids=["non-finite-gram", "trace-below-floor", "ky-fan-bound", "leading-value-below-floor"],
)
def test_each_decline_falls_back_to_the_exact_route_byte_identically(
    monkeypatch, tmp_path, make, rows, policy, declines
):
    x = make()
    assert GRAM_MIN_SQUARE <= np.vdot(x, x) < np.inf  # each stack's own ||X||**2 is in range
    models = [ModelWeights(f"m{i:03d}", {"w": x[i : i + rows]}) for i in range(0, len(x), rows)]
    seen = []  # the gate that declines, read where the stream reaches it
    real_decompose, real_has_variance = GramStream.decompose, hosvd_module._has_variance
    real_leading, real_block = hosvd_module.gram_leading, spectral_module._leading_block

    def decompose(stream, *a, **kw):
        with monkeypatch.context() as m:  # the exact route's own checks are not spied on
            m.setattr(hosvd_module, "_has_variance", has_variance)
            m.setattr(hosvd_module, "gram_leading", leading)
            got = real_decompose(stream, *a, **kw)
        if not seen:  # neither the variance check nor the solve was reached
            seen.append("||X||**2 out of range")
        return got

    def has_variance(centred_norm, norm):
        assert norm == pytest.approx(np.sqrt(np.vdot(x, x)), rel=1e-12)
        found = real_has_variance(centred_norm, norm)
        if not found:
            seen.append("no variance")
        return found

    def leading(gram, policy):
        seen.append("non-finite Gram" if not gram.all_finite()
                    else "trace below GRAM_MIN_SQUARE" if gram.trace() < GRAM_MIN_SQUARE
                    else "s_1**2 below GRAM_MIN_SQUARE"
                    if np.linalg.eigvalsh(gram.symmetric())[-1] < GRAM_MIN_SQUARE else "solve")
        return real_leading(gram, policy)

    def block(*a, **kw):
        try:
            return real_block(*a, **kw)
        except spectral_module._Declined:
            seen.append("block bound")
            raise

    monkeypatch.setattr(GramStream, "decompose", decompose)
    monkeypatch.setattr(spectral_module, "_leading_block", block)
    routes = Routes(monkeypatch)
    config = ExtractionConfig(policy=policy, exclude_layers=())
    u = extract_universal(models, config)
    assert seen == declines
    assert routes.counts() == {"reads": 0, "streamed": 1, "stacked": 1}
    exact = exact_subspace(x.copy(), policy, centering="feature")
    assert u.layer_models["w"].ranks == exact.ranks
    want = UniversalSubspace({"w": exact}, u.layer_shapes, u.provenance, policy,
                             config.architecture_id)
    save_subspace(u, tmp_path / "got.uws")
    save_subspace(want, tmp_path / "want.uws")
    assert (tmp_path / "got.uws").read_bytes() == (tmp_path / "want.uws").read_bytes()


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
    with pytest.raises(ContainerError, match="changed between layer passes"):
        extract_universal(paths, ExtractionConfig(policy=TAU))
    write_models(tmp_path / "bad", models)
    code, err = _extract_code(tmp_path, [], capsys)
    assert code == 2 and "changed between layer passes" in err


BIG_EXCLUDED = {"inlet": (512, 512), "block0": (8, 16), "block1": (6, 16), "outlet": (512, 512)}


def float32_files(directory):
    """Six f32 weights files whose excluded layers are nearly all of each
    file; returns the paths and one file's size."""
    models = [ModelWeights(m.model_id, m.layers, dict.fromkeys(m.layers, "f32"))
              for m in planted_models(25, 6, shapes=BIG_EXCLUDED)]
    paths = write_models(directory, models)
    return paths, paths[0].stat().st_size


def extraction_peak(models, order=2, policy=TAU, exclude_layers=None):
    tracemalloc.start()
    try:
        config = ExtractionConfig(policy=policy, order=order, exclude_layers=exclude_layers)
        u = extract_universal(models, config)
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
    want = extract_universal([load_weights(p) for p in paths],
                             ExtractionConfig(policy=u.policy, order=u.order))
    for name in u.included_layers:
        for g, w in zip(u.layer_models[name].factors, want.layer_models[name].factors):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("order, bound", [(2, 4.5), (3, 5.5)])
@pytest.mark.parametrize("policy", [RankPolicy.cumulative_variance(1.0),
                                    RankPolicy.hard_threshold()], ids=["tau1", "hard_threshold"])
def test_the_exact_route_holds_its_stack_once(order, bound, policy):
    # the stack, the SVD's copy of it and its left vectors come to 4.27x the
    # stack's bytes at order 2, 5.02x at order 3 (whose mode-2 fibres, each
    # member's columns, are one copy); a per-model copy, a concatenation or
    # a centred copy beside the stack would each add 1x
    models = planted_models(30, 60, shapes={"w": (16, 256)})
    _, peak = extraction_peak(models, order, policy, exclude_layers=())
    assert peak <= bound * 60 * 16 * 256 * 8


def test_a_declined_layers_gram_is_freed_before_its_stack_is_built():
    # the 2**532 scale overflows the Gram, so the layer is read again into
    # the exact route's stack: the stack, the SVD's copy of it and its two
    # 512 x 512 factors peak at 4.04x the stack's bytes, and the Gram's
    # panels, kept alive through the stack's decomposition, would add 0.63x
    models = planted_models(33, 8, shapes={"w": (64, 512)})
    for m in models:
        m.layers["w"] = np.ldexp(m.layers["w"], 532)
    u, peak = extraction_peak(models, exclude_layers=())
    assert u.layer_models["w"].spectra[0].tail == 0.0  # the exact route's
    assert peak <= 4.35 * 8 * 64 * 512 * 8


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("centering", ["feature", "global"])
def test_no_decomposition_changes_its_callers_arrays(monkeypatch, order, centering):
    # block1's 2**532 scale overflows the Gram: at order 2 the guard
    # declines it and its stack takes the exact route, as order 3's do
    models = planted_models(29, 12)
    for m in models:
        m.layers["block1"] = np.ldexp(m.layers["block1"], 532)
    before = copy.deepcopy(models)
    routes = Routes(monkeypatch)
    extract_universal(models, ExtractionConfig(policy=TAU, order=order, centering=centering))
    # block0 streams at order 2; there block1 alone is stacked, at order 3 both are
    streamed, stacked = {2: (2, 1), 3: (0, 2)}[order]
    assert routes.counts() == {"reads": 0, "streamed": streamed, "stacked": stacked}
    for m, kept in zip(models, before):
        assert m.layers.keys() == kept.layers.keys()
        for name, w in m.layers.items():
            assert w.tobytes() == kept.layers[name].tobytes()


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
            assert max_sine(g.factors[-1], w.factors[-1]) <= 1e-10
        code, err = _extract_code(tmp_path / str(exponent), scaled, capsys)
        assert code == 0, err
        u = load_subspace(tmp_path / str(exponent) / "s.uws")
        for name in want.included_layers:
            assert max_sine(u.layer_models[name].factors[-1],
                            want.layer_models[name].factors[-1]) <= 1e-10


# "wide" (6 x 8 rows of 64) is stacked from its layer pass; "tall" (48 x
# 16) streams, and its 2**532 scale overflows the Gram, so the guard
# declines it and it is read again: the second read must hold only
# "tall", and copy each of its slabs into the stack once, whether "tall"
# comes after "wide" or is the first included layer, whose first pass
# also read the excluded layers
@pytest.mark.parametrize("included, passes_want, held_want", [
    (("wide", "tall"),
     [("stacked", {"wide": 6}), ("streamed", {"tall": 6}), ("stacked", {"tall": 6})],
     [[]] + [["inlet", "outlet", "wide"]] * 6 + [["tall"]] * 12),
    (("tall", "wide"),
     [("streamed", {"tall": 6}), ("stacked", {"tall": 6}), ("stacked", {"wide": 6})],
     [[]] + [["inlet", "outlet", "tall"]] * 6 + [["tall"]] * 6 + [["wide"]] * 6),
], ids=["second-declined", "first-declined"])
def test_a_declined_layer_is_read_again_without_the_up_front_layers(
    monkeypatch, tmp_path, included, passes_want, held_want
):
    sizes = {"wide": (8, 64), "tall": (8, 16)}
    shapes = {"inlet": (4, 64), **{name: sizes[name] for name in included}, "outlet": (4, 64)}
    models = planted_models(28, 6, shapes=shapes)
    for m in models:
        m.layers["tall"] = np.ldexp(m.layers["tall"], 532)
    paths = write_models(tmp_path / "models", models)
    held, taken, passes = [], Counter(), []
    real_read = ensemble_module.read_container

    class Taken(dict):
        """A read's layers, counting the slabs a layer pass takes."""

        def __getitem__(self, name):
            taken[name] += 1
            return dict.__getitem__(self, name)

    def read(*a, **kw):
        doc = real_read(*a, **kw)
        held.append(sorted(doc.layers))
        return doc._replace(layers=Taken(doc.layers))

    monkeypatch.setattr(ensemble_module, "read_container", read)
    routes = Routes(monkeypatch)
    for owner, attr, route in [(ensemble_module, "exact_subspace", "stacked"),
                               (GramStream, "decompose", "streamed")]:
        def decompose(*a, _real=getattr(owner, attr), _route=route, **kw):
            passes.append((_route, dict(taken)))  # the slabs this pass took
            taken.clear()
            return _real(*a, **kw)

        monkeypatch.setattr(owner, attr, decompose)
    u = extract_universal(paths, ExtractionConfig(policy=TAU))
    assert routes.counts() == {"reads": 19, "streamed": 1, "stacked": 2}
    assert passes == passes_want
    assert held == held_want
    for name in ("wide", "tall"):
        got = u.layer_models[name]
        want = exact_subspace(stack_layer(models, name), TAU, centering="feature")
        assert np.array_equal(got.mu, want.mu)
        assert np.array_equal(got.factors[-1], want.factors[-1])
        assert np.array_equal(got.spectra[-1].singular_values,
                              want.spectra[-1].singular_values)


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
    with pytest.raises(InvalidArgumentError, match="slab must be finite"):
        extract_universal(models[:4] + [nan], config)
    row = np.random.default_rng(15).standard_normal(40)
    same = [ModelWeights(f"s{i}", {n: np.tile(row, (8, 1)) for n in SHAPES}) for i in range(6)]
    with pytest.raises(NumericalFailureError,
                       match="^layer 'block0': no variance left after feature centering$"):
        extract_universal(same, config)
    zero = [ModelWeights(f"z{i}", {n: np.zeros(s) for n, s in SHAPES.items()}) for i in range(6)]
    with pytest.raises(NumericalFailureError, match="^layer 'block0': tensor is identically zero$"):
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


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("fill, problem", [
    (0.0, "tensor is identically zero"), (0.75, "no variance left after {} centering"),
], ids=["zero", "constant"])
def test_a_degenerate_gram_eligible_layer_is_refused_by_the_exact_route(
    tmp_path, capsys, fill, problem, centering
):
    # w stacks to 80 x 6, tall: the Gram stream declines it, and the exact
    # route refuses it with its own message
    models = planted_models(18, 10, shapes={"inlet": (4, 6), "w": (8, 6), "outlet": (4, 6)})
    for m in models:
        m.layers["w"] = np.full((8, 6), fill)
    write_models(tmp_path / "m", models)
    code = cli.main(["extract", "--models", str(tmp_path / "m" / "*.uws"), "--center", centering,
                     "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"numerical failure: layer 'w': {problem.format(centering)}\n")


def test_a_gram_eigh_that_fails_leaves_the_layer_to_the_exact_route(monkeypatch):
    models = planted_models(20, 10, shapes={"inlet": (8, 40), "w": (8, 40), "outlet": (8, 40)},
                            k=8)
    policy = RankPolicy.fixed_k(5)
    want = exact_subspace(stack_layer(models, "w"), policy, centering="feature")

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    routes = Routes(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    got = extract_universal(models, ExtractionConfig(policy=policy)).layer_models["w"]
    assert routes.counts() == {"reads": 0, "streamed": 1, "stacked": 1}
    assert got.ranks == want.ranks == (5,)
    assert np.array_equal(got.mu, want.mu)
    assert np.array_equal(got.factors[0], want.factors[0])
    assert np.array_equal(got.spectra[0].singular_values, want.spectra[0].singular_values)


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


@pytest.mark.parametrize(
    "tau, taken", [(0.95, {"streamed": 2, "stacked": 1}), (1.0, {"streamed": 0, "stacked": 2})]
)
def test_order2_layers_keep_one_spectrum_and_one_rank_for_both_modes(
    monkeypatch, tmp_path, tau, taken
):
    # "tall" takes the Gram route at tau = 0.95 and the exact one at tau = 1;
    # the 2**532 scale of "huge" overflows its Gram, so the guard declines it
    shapes = {"inlet": (4, 32), "tall": (8, 16), "huge": (8, 16), "outlet": (4, 32)}
    models = planted_models(30, 12, shapes=shapes)
    for m in models:
        m.layers["huge"] = np.ldexp(m.layers["huge"], 532)
    routes = Routes(monkeypatch)
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.cumulative_variance(tau)))
    assert {k: routes.counts()[k] for k in taken} == taken
    save_subspace(u, tmp_path / "s.uws")
    for got in (u, load_subspace(tmp_path / "s.uws")):
        for name in ("tall", "huge"):
            model = got.layer_models[name]
            assert len(model.spectra) == len(model.ranks) == 1


# ------------------------------------------------------------ streamed models


def test_streamed_model_projects_as_the_exact_model():
    models = planted_models(18, 40)
    u = extract_universal(models, ExtractionConfig(policy=TAU))
    model = u.layer_models["block0"]
    full = exact_subspace(stack_layer(models, "block0"), TAU, centering="feature")
    slab = models[0].layers["block0"]
    assert np.allclose(
        reconstruct_slice(model, project_slice(model, slab)),
        reconstruct_slice(full, project_slice(full, slab)),
        rtol=0, atol=1e-10,
    )


# ------------------------------------------------------------ file format


def test_subspace_meta_holds_only_what_the_entries_cannot_say(tmp_path):
    models = planted_models(22, 30)
    for order in (2, 3):
        u = extract_universal(models, ExtractionConfig(policy=TAU, order=order))
        save_subspace(u, tmp_path / "s.uws")
        doc = read_container(tmp_path / "s.uws")
        assert doc.model_id == u.architecture_id == "ensemble"
        assert list(doc.meta) == ["kind", "format_version", "provenance", "centering",
                                  "policy", "layers"]
        # the order is stated once, by the U/L/n entries below
        assert (doc.meta["format_version"], load_subspace(tmp_path / "s.uws").order) == (7, order)
        assert list(doc.meta["policy"]) == ["kind", "tau", "epsilon", "k", "noise_sigma"]
        # every layer, excluded ones included, in order, with its shape
        assert list(doc.meta["layers"].items()) == [(n, list(s)) for n, s in SHAPES.items()]
        assert u.layer_shapes == load_subspace(tmp_path / "s.uws").layer_shapes == SHAPES
        entries = sorted(name for name in doc.layers if "block0" in name)
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
    assert [u.layer_models[n].ranks[-1] for n in u.included_layers] == [16, 16]
    save_subspace(u, tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    bases = sum(arr.nbytes for name, arr in doc.layers.items() if name.startswith(("mu/", "U/")))
    # a spectrum row costs 1/k of a basis; the meta is the rest
    assert (tmp_path / "s.uws").stat().st_size <= 1.1 * bases


def test_unknown_format_version_is_a_data_error(tmp_path, capsys):
    models = planted_models(23, 30)
    paths = write_models(tmp_path / "models", models)
    save_subspace(extract_universal(paths, ExtractionConfig(policy=TAU)), tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    # only version 7 reads; a file without the key is no exception
    for version in (6, 8, 5, 4, 1, 0, "7", 7.0, True, None):
        meta = dict(doc.meta, format_version=version)
        if version is None:
            del meta["format_version"]
        write_container(tmp_path / "v.uws", doc.model_id, doc.layers.items(), meta=meta)
        with pytest.raises(ContainerError, match=f"format_version {version!r} is not 7"):
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
        (2, lambda m: m["layers"].pop("block1"), "subspace container holds 'U/block1/2'"),
        (2, lambda m: m.update(layers={"zzz": [8, 40]}), "names no layer with a mean entry"),
        (2, lambda m: m.update(provenance=[]), "names no model"),
        (3, lambda m: m["layers"]["block0"].__setitem__(0, 4), "rows differ"),
        # the meta states no order, so it cannot contradict the U/L/n entries'
        (3, lambda m: m.update(order=2), "subspace meta holds 'order', which uws does not write"),
        (2, lambda m: m.update(order=3), "subspace meta holds 'order', which uws does not write"),
        (2, lambda m: m["layers"]["block0"].__setitem__(1, 41), "rows differ"),
        (3, lambda m: m["layers"]["block0"].__setitem__(1, 41), "rows differ"),
        (2, lambda m: m.update(centering="global"), "reshape"),
        (2, lambda m: m.update(centering="none"), "centering"),
        (2, lambda m: m["policy"].update(tau=1.5), "tau"),
        (2, lambda m: m["policy"].update(kind="fixed_k"), "takes no tau"),
    ],
    ids=["layers-drop-one", "layers-none-included", "provenance-empty", "slab-extent",
         "stack-shape-2d", "order-raised", "stack-shape-width", "stack-shape-width-3",
         "centering-flipped", "centering-unknown", "tau-out-of-range",
         "kind-with-a-foreign-parameter"],
)
def test_meta_that_contradicts_the_entries_is_a_data_error(tmp_path, capsys, order, edit, message):
    paths = write_models(tmp_path / "models", planted_models(29, 30))
    u = extract_universal(paths, ExtractionConfig(policy=TAU, order=order))
    save_subspace(u, tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    meta = copy.deepcopy(doc.meta)
    edit(meta)
    edited = tmp_path / "edited.uws"
    write_container(edited, doc.model_id, doc.layers.items(), meta=meta)
    with pytest.raises(ContainerError, match=message):
        load_subspace(edited)
    capsys.readouterr()
    code = cli.main(["project", "--subspace", str(edited), "--model", str(paths[0]),
                     "--out", str(tmp_path / "c.uws")])
    assert code == 2 and capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "edit, problem",
    [
        # a layer added to ``layers`` is one more excluded layer
        (lambda m: m["layers"].update(zzz=[2, 3]), "missing 'zzz'"),
        # T is stated once, so a shorter provenance contradicts nothing
        (lambda m: m["provenance"].pop(), None),
    ],
    ids=["layer-added", "provenance-short"],
)
def test_meta_layers_are_what_every_model_must_have(tmp_path, capsys, edit, problem):
    paths = write_models(tmp_path / "models", planted_models(29, 30))
    save_subspace(extract_universal(paths, ExtractionConfig(policy=TAU)), tmp_path / "s.uws")
    doc = read_container(tmp_path / "s.uws")
    meta = copy.deepcopy(doc.meta)
    edit(meta)
    edited = tmp_path / "edited.uws"
    write_container(edited, doc.model_id, doc.layers.items(), meta=meta)
    assert load_subspace(edited).layer_shapes == {n: tuple(s) for n, s in meta["layers"].items()}
    code = cli.main(["project", "--subspace", str(edited), "--model", str(paths[0]),
                     "--out", str(tmp_path / "c.uws")])
    err = capsys.readouterr().err
    if problem is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err.count("\n") == 1 and "model 'm0000'" in err and problem in err


def _with_spectrum(src, dst, edit):
    """Copy subspace file ``src`` to ``dst`` with ``edit`` applied to the
    stored singular values of layer block0."""
    doc = read_container(src)
    entries = [(n, edit(np.array(a)) if n == "ledger/block0/sv/2" else a)
               for n, a in doc.layers.items()]
    write_container(dst, doc.model_id, entries, meta=doc.meta)


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
    with pytest.raises(ContainerError, match="ledger/block0/sv/2"):
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
        entries = [(n, a) for n, a in doc.layers.items() if n != "ledger/block0/tail/2"]
        if tail is not None:
            entries.append(("ledger/block0/tail/2", np.array([[tail]])))
        write_container(edited, doc.model_id, entries, meta=doc.meta)

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
        spec = load_subspace(edited).layer_models["block0"].spectra[-1]
        assert np.array_equal(spec.ratios, u.layer_models["block0"].spectra[-1].ratios)
        # past the whole spectrum no energy is left
        write_tail(1e-3)
        assert "'ledger/block0/tail/2' must be 0 after the whole spectrum" in scree_error()
        return
    longer = tmp_path / "longer.uws"
    _with_spectrum(tmp_path / "s.uws", longer, lambda sv: np.c_[sv, np.zeros((1, 40))])
    with pytest.raises(ContainerError, match="more than its unfolding's 40"):
        load_subspace(longer)
    # the 40 - n components past the stored n are each at most s_n**2
    sv = u.layer_models["block0"].spectra[-1].singular_values
    most = (40 - sv.size) * sv[-1] ** 2
    write_tail(most)
    load_subspace(edited)
    write_tail(most * 1.01)
    assert "'ledger/block0/tail/2' holds more energy than the" in scree_error()
