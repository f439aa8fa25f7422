import re

import numpy as np
import pytest

import uws.hosvd as hosvd_module
from uws.errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from uws.hosvd import (
    SliceCoefficients,
    SubspaceModel,
    center,
    hosvd_truncated,
    project_slice,
    reconstruct,
    reconstruct_slice,
    secondary_subspace,
)
from uws.spectral import RankPolicy, gram_leading
from uws.tensor import frobenius_norm

from oracles import (
    assert_spectra_agree,
    best_rank_k_error,
    covariance_principal_directions,
    haar_columns,
    lower_gram,
    record_square_solves,
    sign_canonical,
)


def relerr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def planted_stack(rng, n=60, d=10, k=3, noise=0.0):
    """Rows = constant mean row + combination of k basis directions."""
    q = haar_columns(d, k, rng)
    mean_row = rng.standard_normal(d)
    c = rng.standard_normal((n, k))
    x = np.outer(np.ones(n), mean_row) + c @ q.T
    if noise:
        x = x + noise * rng.standard_normal((n, d))
    return x, q


# --------------------------------------------------------------------- center


def test_center_constant_tensor():
    t = np.full((3, 4), 7.0)
    mu, xc = center(t, "global")
    assert float(mu) == 7.0
    assert np.all(xc == 0.0)
    mu, xc = center(t, "feature")
    assert np.all(mu == 7.0)
    assert np.all(xc == 0.0)


def test_center_global_hand_example():
    mu, xc = center(np.array([[1.0, 3.0]]), "global")
    assert float(mu) == 2.0
    assert np.array_equal(xc, np.array([[-1.0, 1.0]]))


def test_center_feature_hand_example():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    mu, xc = center(t, "feature")
    assert np.array_equal(mu, np.array([2.0, 3.0]))  # one stacked row
    assert np.array_equal(xc, np.array([[-1.0, -1.0], [1.0, 1.0]]))


def test_center_roundtrip():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 6, 4))
    for mode in ("global", "feature"):
        mu, xc = center(a, mode)
        assert np.allclose(xc + mu, a, rtol=0, atol=1e-14)


def test_center_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        center(np.array([[1.0, np.nan]]), "global")


@pytest.mark.parametrize("centering", ["none", "Feature", None])
def test_an_unknown_centering_is_refused_by_one_check(centering):
    x, _ = planted_stack(np.random.default_rng(6), n=20, d=5, k=2, noise=0.1)
    stream = hosvd_module.GramStream(5)
    stream.add(x)
    message = re.escape(f"centering must be one of ('feature', 'global'), got {centering!r}")
    for call in (
        lambda: center(x, centering),
        lambda: hosvd_truncated(x, centering=centering),
        lambda: stream.decompose(centering=centering),
    ):
        with pytest.raises(InvalidArgumentError, match=message):
            call()


@pytest.mark.parametrize(
    "order, count, message",
    [
        (2, 1, "need one policy per mode (2), got 1"),
        (2, 3, "need one policy per mode (2), got 3"),
        (3, 2, "need one policy per mode (3), got 2"),
        (2, None, "policies must be RankPolicy instances"),
    ],
)
def test_a_policy_list_holds_one_rank_policy_per_mode(order, count, message):
    x, _ = planted_stack(np.random.default_rng(7), n=24, d=5, k=2, noise=0.1)
    x = x if order == 2 else x.reshape(4, 6, 5)
    policies = [RankPolicy.fixed_k(2)] * count if count else [RankPolicy.fixed_k(2), "fixed_k"]
    calls = [lambda: hosvd_truncated(x, policies)]
    if order == 2:
        stream = hosvd_module.GramStream(5)
        stream.add(x)
        calls.append(lambda: stream.decompose(policies))
    for call in calls:
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            call()


def test_complex_stack_is_refused():
    x = np.random.default_rng(5).standard_normal((20, 5)) * (1 + 1j)
    with pytest.raises(InvalidArgumentError, match="complex"):
        hosvd_truncated(x)


ORDER_REFUSAL_ENTRY_POINTS = {
    "hosvd_truncated": hosvd_truncated,
    "center": center,
    "project_slice": lambda x: project_slice(
        hosvd_truncated(np.random.default_rng(6).standard_normal((8, 4))), x),
}


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("entry", list(ORDER_REFUSAL_ENTRY_POINTS))
def test_only_orders_2_and_3_are_accepted(entry, order):
    with pytest.raises(InvalidArgumentError, match="order must be 2 or 3"):
        ORDER_REFUSAL_ENTRY_POINTS[entry](np.ones((2,) * order))


# ------------------------------------------------------------ hosvd_truncated


def test_exact_rank_one_recovery():
    rng = np.random.default_rng(42)
    n, d = 30, 8
    a = rng.standard_normal(n)
    a -= a.mean()
    b = rng.standard_normal(d)
    x = np.outer(np.ones(n), rng.standard_normal(d)) + np.outer(a, b)
    model = hosvd_truncated(
        x, RankPolicy.cumulative_variance(0.9)
    )
    assert [f.shape[1] for f in model.factors] == [1, 1]
    assert relerr(reconstruct(model), x) < 1e-8


@pytest.mark.parametrize("shape", [(6, 9), (5, 4, 7)])
def test_full_fixed_k_reconstructs_exactly(shape):
    rng = np.random.default_rng(43)
    x = rng.standard_normal(shape)
    policies = [RankPolicy.fixed_k(s) for s in shape]
    model = hosvd_truncated(x, policies)
    assert relerr(reconstruct(model), x) < 1e-8


@pytest.mark.parametrize("shape", [(12, 7), (6, 5, 8)])
@pytest.mark.parametrize("centering", ["feature", "global"])
def test_tau_one_reconstructs_exactly(shape, centering):
    rng = np.random.default_rng(44)
    x = rng.standard_normal(shape)
    model = hosvd_truncated(
        x,
        RankPolicy.cumulative_variance(1.0),
        centering=centering,
    )
    assert relerr(reconstruct(model), x) < 1e-8
    for f in model.factors:
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-10


def test_factor_orthonormality_and_ledger():
    rng = np.random.default_rng(45)
    x = rng.standard_normal((10, 6, 4))
    model = hosvd_truncated(x, RankPolicy.cumulative_variance(0.8))
    assert set(model.variance_ledger) == {1, 2, 3}
    for mode, spec in model.variance_ledger.items():
        f = model.factors[mode - 1]
        assert f.shape[1] == spec.retained
        assert abs(spec.ratios.sum() - 1.0) < 1e-12
        assert np.all(np.diff(spec.ratios) <= 1e-15)
    assert model.core.shape == tuple(f.shape[1] for f in model.factors)


def test_eckart_young_order2_all_k():
    rng = np.random.default_rng(46)
    for _ in range(5):
        x = rng.standard_normal((14, 9))
        t = x
        mu, xc = center(t, "feature")
        xc = xc
        norm = np.linalg.norm(xc)
        for k in range(1, 10):
            model = hosvd_truncated(t, RankPolicy.fixed_k(k))
            err = np.linalg.norm(reconstruct(model) - x)
            want = best_rank_k_error(xc, k)
            assert abs(err - want) <= 1e-8 * norm


def test_pca_equivalence_on_stacks():
    rng = np.random.default_rng(47)
    for _ in range(5):
        x = rng.standard_normal((40, 7))
        model = hosvd_truncated(
            x, RankPolicy.cumulative_variance(1.0)
        )
        xc = x - x.mean(axis=0)
        pcs, _ = covariance_principal_directions(xc)
        got = sign_canonical(model.factors[1])
        want = sign_canonical(pcs[:, : got.shape[1]])
        assert np.max(np.abs(got - want)) < 1e-8


def test_reconstruction_error_nonincreasing_in_rank():
    rng = np.random.default_rng(48)
    x = rng.standard_normal((8, 7, 6))
    t = x
    for mode in range(3):
        errs = []
        for k in range(1, t.shape[mode] + 1):
            ks = [3, 3, 3]
            ks[mode] = k
            model = hosvd_truncated(t, [RankPolicy.fixed_k(v) for v in ks])
            errs.append(np.linalg.norm(reconstruct(model) - x))
        assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))


def test_degenerate_inputs():
    with pytest.raises(DegenerateSpectrumError):
        hosvd_truncated(np.zeros((4, 3)))
    # constant stack has no variance after feature centering
    with pytest.raises(DegenerateSpectrumError):
        hosvd_truncated(np.full((4, 3), 2.5), centering="feature")
    with pytest.raises(InvalidArgumentError):
        hosvd_truncated(np.array([[1.0, np.inf]]))


def test_stacks_near_the_float_limit_keep_their_variance():
    # norms and the Gram matrix of these stacks overflow, or underflow, if
    # squared unscaled
    rng = np.random.default_rng(51)
    x = 1e160 + 1e155 * rng.standard_normal((6, 4))
    model = hosvd_truncated(x, RankPolicy.cumulative_variance(1.0))
    assert model.ranks == (4, 4)
    x, q = planted_stack(rng, n=60, d=10, k=3, noise=1e-3)
    for policy in (RankPolicy.cumulative_variance(0.99), RankPolicy.cumulative_variance(1.0)):
        small = hosvd_truncated(x, policy)
        for exponent in (532, -532, -560):
            big = hosvd_truncated(np.ldexp(x, exponent), policy)
            assert big.ranks == small.ranks
            u, v = big.factors[1], small.factors[1]
            assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-10
            # the Gram route stores the leading ratios and the tail's share
            a, b = big.variance_ledger[2], small.variance_ledger[2]
            n = b.ratios.size
            assert np.allclose(a.ratios[:n], b.ratios, rtol=1e-10, atol=1e-14)
            assert np.allclose(np.sum(a.ratios[n:]) + a.tail_ratio, b.tail_ratio,
                               rtol=1e-10, atol=1e-14)


def test_single_slab_stack_is_permitted():
    rng = np.random.default_rng(49)
    x = rng.standard_normal((6, 9))  # one model's rows only
    model = hosvd_truncated(x, RankPolicy.cumulative_variance(1.0))
    assert relerr(reconstruct(model), x) < 1e-8


def test_determinism():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((9, 5, 4))
    m1 = hosvd_truncated(x, RankPolicy.cumulative_variance(0.9))
    m2 = hosvd_truncated(x, RankPolicy.cumulative_variance(0.9))
    for f1, f2 in zip(m1.factors, m2.factors):
        assert np.array_equal(f1, f2)
    assert np.array_equal(m1.core, m2.core)


# ----------------------------------------- order-2 single decomposition


def max_sine(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return float(np.linalg.norm(qb - qa @ (qa.T @ qb), 2))


def streamed(x, policies, **kwargs):
    """The :class:`~uws.hosvd.GramStream` result for the rows of ``x``,
    or None where its guard declines them."""
    stream = hosvd_module.GramStream(x.shape[1])
    stream.add(x)
    return stream.decompose(policies, **kwargs)


def count_decompositions(monkeypatch, fn, x, *args):
    """``fn(x, *args)`` with its ``svd`` calls counted, and its ``eigh``
    and ``eigvalsh`` calls on matrices as wide as the stack ``x``."""
    calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}
    with monkeypatch.context() as m:
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(a, *rest, _real=real, _name=name, **kw):
                if _name == "svd" or np.shape(a) == (x.shape[1], x.shape[1]):
                    calls[_name] += 1
                return _real(a, *rest, **kw)

            m.setattr(np.linalg, name, counted)
        out = fn(x, *args)
    return out, calls


def assert_stream_matches_exact(got: SubspaceModel, want: SubspaceModel):
    """A streamed model ``got`` agrees with the exact reference ``want``
    from :func:`hosvd_truncated` of the same stack: mean, ranks, feature
    factor and ledgers."""
    assert got.factors[0] is None and got.core is None
    assert np.max(np.abs(got.mu - want.mu)) <= 1e-12 * np.max(np.abs(want.mu))
    assert got.ranks[1:] == want.ranks[1:]
    assert max_sine(got.factors[1], want.factors[1]) <= 1e-10
    for mode, spec in want.variance_ledger.items():
        assert_spectra_agree(got.variance_ledger[mode], spec)


TALL_PLANTED = [(400, 32, 5, 0.05), (900, 64, 8, 0.01), (120, 120, 3, 0.1)]


@pytest.mark.parametrize("n,d,k,noise", TALL_PLANTED)
@pytest.mark.parametrize(
    "policies",
    [
        RankPolicy.fixed_k(4),
        RankPolicy.cumulative_variance(0.9),
        RankPolicy.eigen_floor(0.01),
        [RankPolicy.cumulative_variance(0.95), RankPolicy.fixed_k(2)],
    ],
    ids=["fixed_k", "tau", "floor", "mixed"],
)
def test_gram_route_matches_exact_route(n, d, k, noise, policies):
    rng = np.random.default_rng(n + d)
    x, _ = planted_stack(rng, n=n, d=d, k=k, noise=noise)
    got = streamed(x, policies, slab_extent=4)
    assert_stream_matches_exact(got, hosvd_truncated(x, policies, slab_extent=4))


@pytest.mark.parametrize("n,d,k,noise", TALL_PLANTED)
def test_secondary_gram_route_matches_exact_route(n, d, k, noise):
    rng = np.random.default_rng(n * d)
    x, _ = planted_stack(rng, n=n, d=d, k=k, noise=noise)
    model = hosvd_truncated(x, [RankPolicy.fixed_k(k + 1), RankPolicy.fixed_k(k)])
    second = secondary_subspace(x, model, 3)
    assert [s.first_component for s in second.variance_ledger.values()] == [k + 1, k]
    # the Gram route read as deep as the window ends finds the same window
    deep = streamed(x, RankPolicy.fixed_k(k + 4))
    assert max_sine(deep.factors[1][:, k : k + 3], second.factors[1]) <= 1e-10
    s, exact = deep.variance_ledger[2].singular_values, second.variance_ledger[2].singular_values
    assert np.max(np.abs(s - exact[: s.size])) <= 1e-12 * exact[0]


def test_tall_well_conditioned_stack_takes_one_eigh(monkeypatch):
    rng = np.random.default_rng(63)
    x, _ = planted_stack(rng, n=300, d=24, k=4, noise=0.05)
    policy = RankPolicy.cumulative_variance(0.9)
    model, calls = count_decompositions(monkeypatch, streamed, x, policy)
    assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0}
    assert model.ranks == (None, 4)
    assert_stream_matches_exact(model, hosvd_truncated(x, policy))


def test_reference_takes_one_svd_and_no_eigh_per_tall_stack(monkeypatch):
    rng = np.random.default_rng(70)
    stacks = [planted_stack(rng, n=n, d=d, k=k, noise=noise)[0] for n, d, k, noise in TALL_PLANTED]
    solves = record_square_solves(monkeypatch)  # eigh and eigvalsh of any order
    for x in stacks:
        for policy in (RankPolicy.cumulative_variance(0.9), RankPolicy.fixed_k(4)):
            model, calls = count_decompositions(monkeypatch, hosvd_truncated, x, policy)
            assert calls["svd"] == 1
            _, calls = count_decompositions(monkeypatch, secondary_subspace, x, model, 3)
            assert calls["svd"] == 1
    assert solves == []


def ill_conditioned_stack(rng, n=200, d=12):
    """Tall stack whose centered spectrum falls geometrically to 1e-6."""
    a = haar_columns(n, d, rng)
    a -= a.mean(axis=0)
    return a @ np.diag(np.geomspace(1.0, 1e-6, d)) @ haar_columns(d, d, rng).T


def test_guard_cases_take_exactly_one_svd(monkeypatch):
    rng = np.random.default_rng(64)
    tall = rng.standard_normal((60, 8))
    noisy, _ = planted_stack(rng, n=80, d=16, k=3, noise=0.05)
    cases = [
        # (stack, policies, d x d eigh calls before the stream declines, full
        # rank); at 12 columns the Gram route takes its spectrum from one
        # eigh, cheaper there than a block iteration, and the guard then
        # declines it
        (tall, RankPolicy.cumulative_variance(1.0), 0, True),
        (noisy, RankPolicy.hard_threshold(), 0, False),
        (rng.standard_normal((8, 30)), RankPolicy.fixed_k(3), 0, False),
        (ill_conditioned_stack(rng), RankPolicy.fixed_k(10), 1, False),
    ]
    for x, policies, eighs, full in cases:
        declined, calls = count_decompositions(monkeypatch, streamed, x, policies)
        assert declined is None
        assert calls == {"svd": 0, "eigh": eighs, "eigvalsh": 0}
        model, calls = count_decompositions(monkeypatch, hosvd_truncated, x, policies)
        assert calls == {"svd": 1, "eigh": 0, "eigvalsh": 0}
        for f in model.factors:
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-10
        rec = reconstruct(model)
        if full:
            assert relerr(rec, x) <= 1e-8
        else:
            xc = x - x.mean(axis=0)
            k = model.ranks[0]
            assert model.ranks == (k, k)
            err = np.linalg.norm(rec - x)
            assert abs(err - best_rank_k_error(xc, k)) <= 1e-8 * np.linalg.norm(xc)


def test_secondary_guard_on_deep_window_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(65)
    t = ill_conditioned_stack(rng)
    model = hosvd_truncated(t, RankPolicy.fixed_k(3))
    # read to the end of the window 3..5, the spectrum stays above
    # 1e-3 * s_1 and the Gram route serves it; to the end of 3..9 it
    # reaches below, and the same one eigh declines it
    for depth, declined in ((6, False), (10, True)):
        got, calls = count_decompositions(monkeypatch, streamed, t, RankPolicy.fixed_k(depth))
        assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0}
        assert (got is None) == declined
    # the secondary subspace takes one thin SVD for either window
    for k2 in (3, 7):
        second, calls = count_decompositions(monkeypatch, secondary_subspace, t, model, k2)
        assert calls == {"svd": 1, "eigh": 0, "eigvalsh": 0}
        for u1, u2 in zip(model.factors, second.factors):
            assert np.max(np.abs(u2.T @ u2 - np.eye(k2))) <= 1e-10
            assert np.max(np.abs(u1.T @ u2)) < 1e-8


def test_declined_gram_route_solves_for_no_eigenvector(monkeypatch):
    rng = np.random.default_rng(66)
    # the ill-conditioned stack, its 12 directions embedded in 256 columns:
    # the block iteration's first sweep captures them all, and the energy
    # left past the 9th, below GRAM_MIN_RATIO**2 * s_1**2, bounds the 10th
    # component below the guard's floor before any d x d solve
    x = ill_conditioned_stack(rng) @ haar_columns(256, 12, rng).T
    solves = record_square_solves(monkeypatch)
    assert streamed(x, RankPolicy.fixed_k(10)) is None
    assert all(order < x.shape[1] for _, order in solves)


def test_declined_narrow_gram_route_takes_one_full_eigh_and_no_eigvalsh(monkeypatch):
    rng = np.random.default_rng(66)
    # the same ill-conditioned stack in its own 12 columns: a block of
    # fixed_k(10) + LEADING_OVERSAMPLE columns is as wide as the Gram, so
    # one full eigh (where a values-only eigvalsh once ran) finds the 10th
    # component below the guard's floor
    x = ill_conditioned_stack(rng)
    solves = record_square_solves(monkeypatch)
    assert streamed(x, RankPolicy.fixed_k(10)) is None
    assert solves == [("eigh", 12)]


def test_gram_route_runs_no_eigvalsh_and_a_full_eigh_only_for_a_flat_spectrum(monkeypatch):
    rng = np.random.default_rng(69)
    x, _ = planted_stack(rng, n=2000, d=512, k=8, noise=0.01)
    for policy in (RankPolicy.cumulative_variance(0.95), RankPolicy.fixed_k(8)):
        solves = record_square_solves(monkeypatch)
        model = streamed(x, policy)
        monkeypatch.undo()
        assert model.ranks == (None, 8)
        assert solves and all(name == "eigh" and order < 512 for name, order in solves)
    # an isotropic 12800 x 1024 stack keeps 95% of its variance only about
    # 900 deep, which the Cauchy-Schwarz bound sees before any iteration
    stream = hosvd_module.GramStream(1024)
    for _ in range(200):
        stream.add(rng.standard_normal((64, 1024)))
    solves = record_square_solves(monkeypatch)
    model = stream.decompose(RankPolicy.cumulative_variance(0.95))
    assert solves == [("eigh", 1024)]
    assert 800 < model.ranks[1] < 1000


def test_rank_deficient_square_stack_stores_exact_zero_tails():
    rng = np.random.default_rng(67)
    x, _ = planted_stack(rng, n=120, d=120, k=3, noise=0.1)  # centred rank 119
    xc = x - x.mean(axis=0)
    exact = np.linalg.svd(xc, compute_uv=False)
    assert 0 < exact[-1] <= 1e-12 * exact[0]  # the exact SVD reads rounding there
    policy = RankPolicy.cumulative_variance(0.9)
    model = streamed(x, policy)
    assert_stream_matches_exact(model, hosvd_truncated(x, policy))
    spec = model.variance_ledger[2]
    s, n = spec.singular_values, spec.singular_values.size
    assert n == spec.retained < 119
    assert np.max(np.abs(s - exact[:n])) <= 1e-12 * s[0]
    assert abs(spec.tail - np.sum(exact[n:] ** 2)) <= 1e-12 * np.sum(exact**2)
    # read to the whole spectrum, the rounding-level component is an exact
    # 0 and so is the energy past it
    s, _, tail = gram_leading(lower_gram(xc), [RankPolicy.fixed_k(120)])
    assert s[-1] == 0.0 and s[-2] > 0 and tail == 0.0
    assert np.max(np.abs(s - exact)) <= 1e-12 * s[0]


def test_scaled_stacks_on_the_leading_vector_route_keep_ranks_and_basis(monkeypatch):
    rng = np.random.default_rng(68)
    x, _ = planted_stack(rng, n=800, d=384, k=4, noise=1e-3)
    policy = RankPolicy.cumulative_variance(0.99)
    solves = record_square_solves(monkeypatch)
    small = streamed(x, policy)
    assert solves and all(order < x.shape[1] for _, order in solves)  # no d x d solve
    monkeypatch.undo()
    assert_stream_matches_exact(small, hosvd_truncated(x, policy))
    # past 2**±256 the leading solve rescales the Gram matrix
    for exponent in (300, -300):
        big = streamed(np.ldexp(x, exponent), policy)
        assert big.ranks == small.ranks == (None, 4)
        assert max_sine(big.factors[1], small.factors[1]) <= 1e-10
    # at 2**±532 the squares leave the range the stream accepts, and the
    # exact reference serves the stack
    for exponent in (532, -532):
        assert streamed(np.ldexp(x, exponent), policy) is None
        exact = hosvd_truncated(np.ldexp(x, exponent), policy)
        assert exact.ranks == (4, 4)
        assert max_sine(exact.factors[1], small.factors[1]) <= 1e-10


# -------------------------------------------------- slice project/reconstruct


def make_planted_model(rng, n=40, d=10, k=3):
    x, q = planted_stack(rng, n=n, d=d, k=k)
    t = x
    model = hosvd_truncated(t, RankPolicy.cumulative_variance(0.999), slab_extent=4)
    return model, x, q


def test_project_slice_of_mu_is_zero():
    rng = np.random.default_rng(51)
    model, x, _ = make_planted_model(rng)
    mu_slab = np.broadcast_to(model.mu, (4, x.shape[1]))
    coeffs = project_slice(model, mu_slab)
    assert np.max(np.abs(coeffs.coeffs)) < 1e-12


def test_in_subspace_round_trip():
    rng = np.random.default_rng(52)
    model, x, q = make_planted_model(rng)
    slab = x[:4]  # rows of the stack itself lie in the subspace
    back = reconstruct_slice(model, project_slice(model, slab))
    assert relerr(back, slab) < 1e-8


def test_projection_pythagoras_and_residual_orthogonality():
    rng = np.random.default_rng(53)
    model, x, _ = make_planted_model(rng)
    slab = rng.standard_normal((4, x.shape[1]))
    t = slab
    coeffs = project_slice(model, t)
    back = reconstruct_slice(model, coeffs)
    centered = slab - np.asarray(model.mu)
    resid = slab - back
    lhs = np.linalg.norm(centered) ** 2
    rhs = np.linalg.norm(coeffs.coeffs) ** 2 + np.linalg.norm(resid) ** 2
    assert abs(lhs - rhs) <= 1e-8 * lhs
    # residual carries no component along any retained feature direction
    assert np.max(np.abs(resid @ model.factors[1])) < 1e-8


def test_projection_is_linear_when_mu_vanishes():
    rng = np.random.default_rng(54)
    x = rng.standard_normal((30, 8))
    x -= x.mean()  # global mean ~ 0
    model = hosvd_truncated(
        x, RankPolicy.fixed_k(4), centering="global", slab_extent=3
    )
    a, b = 1.7, -0.6
    y1 = rng.standard_normal((3, 8))
    y2 = rng.standard_normal((3, 8))
    p = lambda arr: project_slice(model, arr).coeffs
    combo = p(a * y1 + b * y2)
    split = a * p(y1) + b * p(y2)
    assert np.max(np.abs(combo - split)) < 1e-10


def test_project_slice_shape_mismatch():
    rng = np.random.default_rng(55)
    model, x, _ = make_planted_model(rng)
    with pytest.raises(InvalidArgumentError):
        project_slice(model, rng.standard_normal((4, x.shape[1] + 1)))


def test_reconstruct_slice_zero_coeffs_gives_mu():
    rng = np.random.default_rng(56)
    model, x, _ = make_planted_model(rng)
    k2 = model.factors[1].shape[1]
    out = reconstruct_slice(model, SliceCoefficients(coeffs=np.zeros((4, k2))))
    assert np.allclose(out, np.broadcast_to(model.mu, (4, x.shape[1])), atol=1e-14)


def test_order3_slice_round_trip():
    rng = np.random.default_rng(57)
    T, r, d = 12, 5, 9
    q = haar_columns(d, 3, rng)
    slabs = [rng.standard_normal((r, 3)) @ q.T for _ in range(T)]
    x = np.stack(slabs, axis=0)
    model = hosvd_truncated(x, RankPolicy.cumulative_variance(0.999))
    assert model.mu.shape == (r, d)  # the mean is one member
    slab = slabs[3]
    coeffs = project_slice(model, slab)
    assert coeffs.coeffs.shape == model.ranks[1:]  # k2 x k3: no stacking axis
    back = reconstruct_slice(model, coeffs)
    assert back.shape == (r, d)
    assert relerr(back, slab) < 1e-8
    with pytest.raises(InvalidArgumentError):  # a member has no stacking axis
        project_slice(model, slab[None])


def test_order3_contractions_match_einsum():
    # not planted, and every extent and rank distinct, so a transposed
    # factor or a reshape in the wrong order changes the result
    rng = np.random.default_rng(63)
    x = rng.standard_normal((7, 5, 9))
    model = hosvd_truncated(x, [RankPolicy.fixed_k(k) for k in (3, 2, 4)])
    assert model.ranks == (3, 2, 4)
    u1, u2, u3 = model.factors
    core = np.einsum("tjk,ta,jb,kc->abc", x - model.mu, u1, u2, u3)
    assert relerr(model.core, core) <= 1e-13
    stack = np.einsum("abc,ta,jb,kc->tjk", model.core, u1, u2, u3) + model.mu
    assert relerr(reconstruct(model), stack) <= 1e-13
    member = rng.standard_normal((5, 9))
    coeffs = project_slice(model, member)
    want = np.einsum("jk,jb,kc->bc", member - model.mu, u2, u3)
    assert relerr(coeffs.coeffs, want) <= 1e-13
    want = np.einsum("bc,jb,kc->jk", coeffs.coeffs, u2, u3) + model.mu
    assert relerr(reconstruct_slice(model, coeffs), want) <= 1e-13


# --------------------------------------------------------- secondary subspace


def test_secondary_orthogonal_to_primary_and_variance_split():
    rng = np.random.default_rng(58)
    x, _ = planted_stack(rng, n=50, d=12, k=4, noise=0.05)
    t = x
    model = hosvd_truncated(t, RankPolicy.fixed_k(4))
    # full remaining rank along the feature mode
    k2 = 12 - 4
    second = secondary_subspace(t, model, k2)
    for u1, u2 in zip(model.factors, second.factors):
        assert np.max(np.abs(u1.T @ u2)) < 1e-8
    primary_kept = model.variance_ledger[2].ratios[:4].sum()
    secondary_kept = second.variance_ledger[2].ratios[4 : 4 + k2].sum()
    assert abs(primary_kept + secondary_kept - 1.0) < 1e-8


def test_secondary_on_exactly_low_rank_input_is_degenerate():
    rng = np.random.default_rng(59)
    x, _ = planted_stack(rng, n=50, d=12, k=4, noise=0.0)
    t = x
    model = hosvd_truncated(t, RankPolicy.fixed_k(4))
    with pytest.raises(DegenerateSpectrumError):
        secondary_subspace(t, model, 2)


def test_secondary_k2_exceeding_remaining_rank():
    rng = np.random.default_rng(60)
    x, _ = planted_stack(rng, n=50, d=8, k=3, noise=0.05)
    t = x
    model = hosvd_truncated(t, RankPolicy.fixed_k(3))
    with pytest.raises(InvalidArgumentError):
        secondary_subspace(t, model, 6)


@pytest.mark.parametrize(
    "reshape, k2, message",
    [
        (lambda x: x, 0, "k2 must be >= 1, got 0"),
        (lambda x: x, -2, "k2 must be >= 1, got -2"),
        (lambda x: x.reshape(5, 10, 8), 1, "a secondary subspace needs an order-2 stack"),
        (lambda x: x[:40], 1,
         "tensor shape (40, 8) does not match the model's stack shape (50, 8)"),
        (lambda x: x, 6, "k2=6 exceeds the 5 directions remaining along mode 1"),
        (lambda x: x, 2.5, "k2 must be an integer, got 2.5"),
        (lambda x: x, True, "k2 must be an integer, got True"),
    ],
    ids=["k2-zero", "k2-negative", "order-3", "shape-mismatch", "k2-too-deep", "k2-fraction",
         "k2-bool"],
)
def test_secondary_refuses_what_it_cannot_take(reshape, k2, message):
    x, _ = planted_stack(np.random.default_rng(62), n=50, d=8, k=3, noise=0.05)
    model = hosvd_truncated(x, RankPolicy.fixed_k(3))
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        secondary_subspace(reshape(x), model, k2)


def test_secondary_reconstruction_is_worse_on_planted_signal():
    rng = np.random.default_rng(61)
    x, q = planted_stack(rng, n=60, d=16, k=4, noise=1e-3)
    t = x
    model = hosvd_truncated(t, RankPolicy.fixed_k(4), slab_extent=6)
    second = secondary_subspace(t, model, 4)
    slab = x[:6]
    st = slab
    err1 = relerr(reconstruct_slice(model, project_slice(model, st)), slab)
    err2 = relerr(reconstruct_slice(second, project_slice(second, st)), slab)
    assert err2 > 10 * err1


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_detects_tampered_factors():
    rng = np.random.default_rng(62)
    x = rng.standard_normal((8, 6))
    model = hosvd_truncated(x, RankPolicy.fixed_k(3))
    bad = SubspaceModel(
        mu=model.mu,
        factors=[model.factors[0], model.factors[1][:4]],
        core=model.core,
        variance_ledger=model.variance_ledger,
        centering=model.centering,
        shape=model.shape,
        slab_extent=model.slab_extent,
    )
    with pytest.raises(InternalConsistencyError):
        reconstruct(bad)


def test_reconstruct_zero_core_zero_mu():
    core = np.zeros((2, 2))
    model = SubspaceModel(
        mu=np.zeros((1, 4)),
        factors=[np.eye(3)[:, :2], np.eye(4)[:, :2]],
        core=core,
        variance_ledger={},
        centering="feature",
        shape=(3, 4),
        slab_extent=None,
    )
    assert np.all(reconstruct(model) == 0.0)
