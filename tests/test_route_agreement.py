"""Route agreement: a stack the Gram route may serve is either declined or
decomposed as the exact route decomposes it.

Each stack is streamed through :meth:`~uws.hosvd.GramStream.decompose`
and decomposed by :func:`~uws.hosvd.exact_subspace`, under both centrings
and every rank policy the Gram route takes: tall (600 x 160) and square
(160 x 160) stacks, cell by cell, and wide ones (120 x 160), which the
Gram route declines as not ``gram_eligible``.  Under any of these policies
the exact route keeps the leading columns and values of one thin SVD, so
one decomposition at tau = 1 (the numerical rank) gives each policy's
exact model, its rank chosen by the same ``select_rank``.  A cell is one stack,
centring and policy.  The Gram route may decline a cell only where the
deepest value the policy reads is below twice its accuracy floor
(``GRAM_MIN_RATIO * s_1``); a cell it serves must match the exact route:

- the same rank;
- a retained-subspace sine of at most 1e-10, plus 4 eps s_1**2 / gap
  where the gap s_r**2 - s_{r+1}**2 at the cut is so narrow that two
  backward-stable routes may differ by more (Davis and Kahan);
- each singular value s_i within 16 eps s_1**2 / s_i, the error that
  forming the Gram matrix leaves;
- ``tail`` plus the sum of s_i**2 equal to ||Xc||**2 to 1e-12 relative,
  as the exact spectrum's sum of squares is.

Two metamorphic rows hold each route to itself at the default policy:

- permuting the models (the 40-row slabs) keeps its rank, with a sine of
  at most 1e-12 plus the same 4 eps s_1**2 / gap;
- scaling the stack by 2**40 (feature centring) or 2**-40 (global) keeps
  its factors (the exact route's at tau = 1) bit for bit and scales its
  singular values exactly.

Each route's served default-policy model, saved in one subspace file
and loaded back, keeps its mean, factor, singular values, tail and rank
bit for bit; the loader's rank check passes on the Gram route's partial
spectra.

At 2**500, under both centrings, the solve divides the stream's G by the
power of two above its largest entry, as at every scale, and must give
the unscaled stream's rank and factors bit for bit and its values scaled
exactly; at 2**-500 it declines.
"""

import copy
import functools

import numpy as np
import pytest

from uws.ensemble import UniversalSubspace, load_subspace, save_subspace
from uws.hosvd import GramStream, SubspaceModel, exact_subspace, gram_eligible
from uws.spectral import (DEFAULT_POLICY, GRAM_MIN_RATIO, GRAM_MIN_SQUARE, LowerGram, RankPolicy,
                          select_rank)

from oracles import spectrum_families

ROWS, COLS, SLAB = 600, 160, 40  # 600 rows: the stream merges two blocks
EPS = np.finfo(np.float64).eps


def _singular_values():
    """Each stack's planted singular values, nonincreasing, one per column."""
    stacks = {name: np.sqrt(np.sort(lam)[::-1]) for name, lam in spectrum_families(COLS).items()}
    # rank 10, then components at 1e-9 * s_1 that only the exact route resolves
    stacks["rank10_tiny"] = np.r_[np.geomspace(1.0, 0.1, 10), 1e-9 * np.geomspace(1, 0.5, COLS - 10)]
    for factor in (0.5, 1.0, 2.0):  # a planted 7th value at factor x the floor
        stacks[f"floor_{factor}x"] = np.r_[
            1.0, 0.7, 0.5, 0.3, 0.2, 0.1, factor * GRAM_MIN_RATIO, np.zeros(COLS - 7)]
    stacks["offset_1e6"] = stacks["planted_gap"]
    return stacks


SINGULAR_VALUES = _singular_values()

@functools.cache
def planted_stack(name: str, rows: int = ROWS) -> np.ndarray:
    """A ``rows`` x COLS stack whose feature-centred singular values are the
    planted ones, the leading rows - 1 of them where that is fewer than
    COLS, with a random mean row (so the centrings differ) and, for
    ``offset_1e6``, 1e6 added to every entry.  Shared: not to be written."""
    rng = np.random.default_rng([29, list(SINGULAR_VALUES).index(name)])
    g = rng.standard_normal((rows, COLS))
    m = min(rows - 1, COLS)
    u = np.linalg.qr(g - g.mean(axis=0))[0][:, :m]  # orthogonal to the ones vector
    v = np.linalg.qr(rng.standard_normal((COLS, COLS)))[0][:, :m]
    x = (u * SINGULAR_VALUES[name][:m]) @ v.T + 1e-3 * rng.standard_normal(COLS)
    return x + 1e6 if name == "offset_1e6" else x


def streamed(x: np.ndarray) -> GramStream:
    """A Gram stream that has taken the rows of ``x`` one slab at a time;
    a stream is decomposed once, so a shared one is solved as a copy."""
    stream = GramStream(COLS)
    for start in range(0, len(x), SLAB):
        stream.add(x[start : start + SLAB])
    return stream


def deepest_model(x: np.ndarray, centering: str):
    """The exact route's model of ``x`` at tau = 1 (``x`` is left as it is)."""
    return exact_subspace(x.copy(), RankPolicy.cumulative_variance(1.0),
                          centering=centering)


@functools.cache
def original_routes(name: str, centering: str):
    """The planted stack's exact model at tau = 1 and its Gram stream, filled
    and not decomposed, shared by the tests."""
    x = planted_stack(name)
    return deepest_model(x, centering), streamed(x)


def policies(s: np.ndarray, rank: int) -> list:
    """Every policy kind the Gram route takes, at the depths that probe it:
    tau 0.5, 0.95, 0.999; fixed_k at 1, rank - 1, rank, rank + 1 and the
    first depth below the floor; eigen_floor at 1e-2 and 1e-4."""
    past = int(np.sum(s >= GRAM_MIN_RATIO * s[0])) + 1
    ks = sorted({1, max(rank - 1, 1), rank, rank + 1, past})
    return ([RankPolicy.cumulative_variance(tau) for tau in (0.5, 0.95, 0.999)]
            + [RankPolicy.fixed_k(k) for k in ks]
            + [RankPolicy.eigen_floor(epsilon) for epsilon in (1e-2, 1e-4)])


def max_sine(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2))


def cell_faults(got, deepest, policy, energy: float) -> list:
    """Why the streamed model ``got`` (None where declined) does not
    match the exact route's model under ``policy``, the leading columns
    of ``deepest``; empty if it does."""
    spectrum = deepest.spectra[0]
    s, r = spectrum.singular_values, select_rank(spectrum.ratios, policy)
    read = min(policy.k, s.size) if policy.kind == "fixed_k" else r
    if got is None:
        if s[read - 1] >= 2 * GRAM_MIN_RATIO * s[0]:
            return [f"declined, though s_{read} = {s[read - 1] / s[0]:.2e} s_1"]
        return []
    if got.ranks != (r,):
        return [f"rank {got.ranks[0]}, the exact route keeps {r}"]
    faults = []
    gap = s[r - 1] ** 2 - (s[r] ** 2 if r < s.size else 0.0)
    sine = max_sine(deepest.factors[0][:, :r], got.factors[0])
    if not sine <= 1e-10 + 4 * EPS * s[0] ** 2 / gap:
        faults.append(f"sine {sine:.1e} (gap {gap / s[0] ** 2:.1e} s_1**2)")
    spec = got.spectra[0]
    n = spec.singular_values.size
    error = np.abs(spec.singular_values - s[:n]) * s[:n] / (EPS * s[0] ** 2)
    if not np.max(error) <= 16:
        faults.append(f"s_i off by {np.max(error):.1f} eps s_1**2 / s_i")
    for route, total in (("stream", spec.tail + np.sum(spec.singular_values**2)),
                         ("exact", np.sum(s**2))):
        if not abs(total - energy) <= 1e-12 * energy:
            faults.append(f"{route} energy off by {abs(total - energy) / energy:.1e}")
    return faults


def assert_cells(x: np.ndarray, deepest, stream: GramStream, centering: str) -> None:
    """Every policy's cell of the stack ``x``, whose exact model at tau = 1
    is ``deepest`` and whose filled Gram stream is ``stream``."""
    xc = x - (x.mean(axis=0) if centering == "feature" else x.mean())
    energy = float(np.vdot(xc, xc))
    faults = []
    for policy in policies(deepest.spectra[0].singular_values, deepest.ranks[0]):
        got = copy.deepcopy(stream).decompose(policy, centering=centering)
        faults += [f"{policy.describe()}: {fault}"
                   for fault in cell_faults(got, deepest, policy, energy)]
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_the_gram_route_declines_or_matches_the_exact_route(name, centering):
    assert_cells(planted_stack(name), *original_routes(name, centering), centering)


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_a_square_stack_declines_or_matches_the_exact_route(name, centering):
    # COLS x COLS: feature centring leaves at most COLS - 1 values, so the
    # deepest fixed_k cells read a zero and decline
    x = planted_stack(name, COLS)
    assert_cells(x, deepest_model(x, centering), streamed(x), centering)


@pytest.mark.parametrize("centering", ["feature", "global"])
def test_a_wide_stack_is_declined_as_not_gram_eligible(centering):
    for name in SINGULAR_VALUES:
        x = planted_stack(name, COLS - 40)
        deepest = deepest_model(x, centering)
        for policy in policies(deepest.spectra[0].singular_values, deepest.ranks[0]):
            assert not gram_eligible(x.shape, policy), (name, policy)
            assert streamed(x).decompose(policy, centering=centering) is None


def default_models(deepest, stream, centering: str) -> dict:
    """Each route's model at the default policy: the exact route's, the
    leading columns of its deepest model with the whole spectrum, as
    :func:`exact_subspace` keeps it, and the Gram route's as decomposed
    (None where it declines)."""
    r = select_rank(deepest.spectra[0].ratios, DEFAULT_POLICY)
    exact = SubspaceModel(mu=deepest.mu, factors=(deepest.factors[0][:, :r],),
                          spectra=deepest.spectra)
    return {"exact": exact,
            "stream": copy.deepcopy(stream).decompose(DEFAULT_POLICY, centering=centering)}


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_permuting_the_models_keeps_each_routes_rank_and_subspace(name, centering):
    x = planted_stack(name)
    order = np.random.default_rng([29, list(SINGULAR_VALUES).index(name), 1]).permutation(
        ROWS // SLAB)
    moved = x.reshape(-1, SLAB, COLS)[order].reshape(ROWS, COLS)
    deepest, stream = original_routes(name, centering)
    s = deepest.spectra[0].singular_values
    before = default_models(deepest, stream, centering)
    after = default_models(deepest_model(moved, centering), streamed(moved), centering)
    faults = []
    for route, a in before.items():
        b = after[route]
        if a is None or b is None:
            if a is not b:
                faults.append(f"{route}: declined in one order only")
            continue
        (r,), (r_after,) = a.ranks, b.ranks
        if r_after != r:
            faults.append(f"{route}: rank {r} became {r_after}")
            continue
        gap = s[r - 1] ** 2 - (s[r] ** 2 if r < s.size else 0.0)
        sine = max_sine(a.factors[0], b.factors[0])
        if not sine <= 1e-12 + 4 * EPS * s[0] ** 2 / gap:
            faults.append(f"{route}: sine {sine:.1e} (gap {gap / s[0] ** 2:.1e} s_1**2)")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_each_routes_served_model_comes_back_from_a_subspace_file_bit_for_bit(
        tmp_path, name, centering):
    # the slabs as layer rows: the loader checks each spectrum against the
    # stack of ROWS // SLAB models, and each rank against the default policy
    served = {route: model for route, model
              in default_models(*original_routes(name, centering), centering).items()
              if model is not None}
    u = UniversalSubspace(served, {route: (SLAB, COLS) for route in served},
                          [f"model{i}" for i in range(ROWS // SLAB)], DEFAULT_POLICY, name)
    save_subspace(u, tmp_path / "routes.uws")
    back = load_subspace(tmp_path / "routes.uws")
    assert back.included_layers == list(served) and back.centering == centering
    for route, model in served.items():
        got = back.layer_models[route]
        assert got.ranks == model.ranks and np.array_equal(got.mu, model.mu)
        assert np.array_equal(got.factors[0], model.factors[0])
        assert np.array_equal(got.spectra[0].singular_values, model.spectra[0].singular_values)
        assert got.spectra[0].tail == model.spectra[0].tail


@pytest.mark.parametrize("centering, exponent", [("feature", 40), ("global", -40)])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_scaling_by_a_power_of_two_keeps_each_routes_factors_bit_for_bit(
        name, centering, exponent):
    x = planted_stack(name)
    deepest, stream = original_routes(name, centering)
    scaled = deepest_model(np.ldexp(x, exponent), centering)
    assert np.array_equal(scaled.factors[0], deepest.factors[0])
    assert np.array_equal(scaled.spectra[0].singular_values,
                          np.ldexp(deepest.spectra[0].singular_values, exponent))
    got = streamed(np.ldexp(x, exponent)).decompose(DEFAULT_POLICY, centering=centering)
    want = copy.deepcopy(stream).decompose(DEFAULT_POLICY, centering=centering)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got.factors[0], want.factors[0])
        assert np.array_equal(got.spectra[0].singular_values,
                              np.ldexp(want.spectra[0].singular_values, exponent))
        assert got.spectra[0].tail == np.ldexp(want.spectra[0].tail, 2 * exponent)


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("name", list(SINGULAR_VALUES))
def test_a_stream_at_2_to_the_500_is_solved_scaled_and_at_2_to_the_minus_500_declined(
        monkeypatch, name, centering):
    x = planted_stack(name)
    want = copy.deepcopy(original_routes(name, centering)[1]).decompose(
        DEFAULT_POLICY, centering=centering)
    scalings, real_ldexp = [], LowerGram.ldexp

    def ldexp(gram, e):
        scalings.append(e)
        real_ldexp(gram, e)

    monkeypatch.setattr(LowerGram, "ldexp", ldexp)
    big = streamed(np.ldexp(x, 500))
    got = big.decompose(DEFAULT_POLICY, centering=centering)
    if name == "offset_1e6":  # 1e6 * 2**500 squared overflows
        assert big.sumsq == np.inf and got is None
    else:
        assert len(scalings) == 1 and scalings[0] < -256  # G is scaled once, in place
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.factors[0], want.factors[0])
            assert np.array_equal(got.spectra[0].singular_values,
                                  np.ldexp(want.spectra[0].singular_values, 500))
            assert got.spectra[0].tail == np.ldexp(want.spectra[0].tail, 1000)
    tiny = streamed(np.ldexp(x, -500))
    tiny.flush()
    if name == "offset_1e6":  # the offset holds ||X||**2 up, but not tr G
        assert tiny.sumsq >= GRAM_MIN_SQUARE > np.trace(tiny.gram)
    else:
        assert tiny.sumsq < GRAM_MIN_SQUARE
    assert tiny.decompose(DEFAULT_POLICY, centering=centering) is None
