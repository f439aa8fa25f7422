import re

import numpy as np
import pytest

import uws.hosvd as hosvd_module
from uws.errors import InvalidArgumentError, NumericalFailureError
from uws.hosvd import (
    SliceCoefficients,
    SubspaceModel,
    exact_subspace,
    project_slice,
    reconstruct_slice,
)
from uws.spectral import RankPolicy

from oracles import (
    assert_spectra_agree,
    best_rank_k_error,
    covariance_principal_directions,
    haar_columns,
    next_directions,
    record_square_solves,
    sign_canonical,
    subspace_distance,
    unfolding_svd,
)


def relerr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def exact(x, policy=RankPolicy.cumulative_variance(1.0), *, centering="feature"):
    """:func:`exact_subspace` of a copy of ``x``, which it would centre in place."""
    return exact_subspace(np.array(x, dtype=float), policy, centering=centering)


def rebuild(model: SubspaceModel, x: np.ndarray) -> np.ndarray:
    """Every member of the stack ``x`` (each stacked row at order 2)
    projected and rebuilt through ``model``."""
    members = x if model.order == 3 else x.reshape(-1, 1, x.shape[-1])
    back = [reconstruct_slice(model, project_slice(model, m)) for m in members]
    return np.stack(back).reshape(x.shape)


def planted_stack(rng, n=60, d=10, k=3, noise=0.0):
    """Rows = constant mean row + combination of k basis directions."""
    q = haar_columns(d, k, rng)
    mean_row = rng.standard_normal(d)
    c = rng.standard_normal((n, k))
    x = np.outer(np.ones(n), mean_row) + c @ q.T
    if noise:
        x = x + noise * rng.standard_normal((n, d))
    return x, q


# ------------------------------------------------------------------ centring


@pytest.mark.parametrize("centering, x, mu, xc", [
    ("global", [[1.0, 3.0]], 2.0, [[-1.0, 1.0]]),
    ("feature", [[1.0, 2.0], [3.0, 4.0]], [2.0, 3.0], [[-1.0, -1.0], [1.0, 1.0]]),
], ids=["global", "feature"])
def test_exact_subspace_centring_hand_examples(centering, x, mu, xc):
    stack = np.array(x)
    model = exact_subspace(stack, RankPolicy.fixed_k(1), centering=centering)
    assert np.array_equal(model.mu, mu)  # feature: one stacked row
    assert np.array_equal(stack, xc)


@pytest.mark.parametrize("shape", [(40, 6), (5, 8, 6)])
@pytest.mark.parametrize("centering", ["feature", "global"])
def test_exact_subspace_centres_the_stack_it_is_handed_in_place(shape, centering):
    x = np.random.default_rng(42).standard_normal(shape)
    policy = RankPolicy.fixed_k(3)
    stack = x.copy()  # exact_subspace takes the stack as its own
    got = exact_subspace(stack, policy, centering=centering)
    mu = x.mean() if centering == "global" else x.mean(axis=0)
    want = x - mu
    if centering == "global":  # a second pass takes out what the rounded mean left
        rest = want.mean()
        want -= rest
        mu += rest
    assert np.array_equal(stack, want) and np.array_equal(got.mu, mu)
    assert np.allclose(stack + got.mu, x, rtol=0, atol=1e-14)


@pytest.mark.parametrize("centering", ["none", "Feature", None])
def test_an_unknown_centering_is_refused_by_one_check(centering):
    x, _ = planted_stack(np.random.default_rng(6), n=20, d=5, k=2, noise=0.1)
    stream = hosvd_module.GramStream(5)
    stream.add(x)
    message = re.escape(f"centering must be one of ('feature', 'global'), got {centering!r}")
    for call in (
        lambda: exact(x, centering=centering),
        lambda: stream.decompose(centering=centering),
    ):
        with pytest.raises(InvalidArgumentError, match=message):
            call()


@pytest.mark.parametrize(
    "policy, kind",
    [
        ([RankPolicy.fixed_k(2)] * 1, "list"),
        ([RankPolicy.fixed_k(2)] * 2, "list"),
        ([RankPolicy.fixed_k(2)] * 3, "list"),
        ("fixed_k", "str"),
        (None, "NoneType"),
    ],
    ids=["list-of-1", "list-of-2", "list-of-3", "str", "none"],
)
def test_anything_but_one_rank_policy_is_refused(policy, kind):
    x, _ = planted_stack(np.random.default_rng(7), n=24, d=5, k=2, noise=0.1)
    stream = hosvd_module.GramStream(5)
    stream.add(x)
    message = f"policy must be a RankPolicy, got {kind}"
    for call in (
        lambda: exact(x, policy),
        lambda: exact(x.reshape(4, 6, 5), policy),
        lambda: stream.decompose(policy),
    ):
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            call()


def test_complex_stack_is_refused():
    x = np.random.default_rng(5).standard_normal((20, 5)) * (1 + 1j)
    with pytest.raises(InvalidArgumentError, match="complex"):
        exact_subspace(x, RankPolicy.fixed_k(2), centering="feature")


ORDER_REFUSAL_ENTRY_POINTS = {
    "exact_subspace": exact,
    "project_slice": lambda x: project_slice(
        exact(np.random.default_rng(6).standard_normal((8, 4))), x),
}


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("entry", list(ORDER_REFUSAL_ENTRY_POINTS))
def test_only_orders_2_and_3_are_accepted(entry, order):
    with pytest.raises(InvalidArgumentError, match="order must be 2 or 3"):
        ORDER_REFUSAL_ENTRY_POINTS[entry](np.ones((2,) * order))


# ------------------------------------------------------------- exact_subspace


def test_exact_rank_one_recovery():
    rng = np.random.default_rng(42)
    n, d = 30, 8
    a = rng.standard_normal(n)
    a -= a.mean()
    b = rng.standard_normal(d)
    x = np.outer(np.ones(n), rng.standard_normal(d)) + np.outer(a, b)
    model = exact(x, RankPolicy.cumulative_variance(0.9))
    assert model.ranks == (1,)
    assert relerr(rebuild(model, x), x) < 1e-8


@pytest.mark.parametrize("shape", [(6, 9), (5, 4, 7)])
def test_full_fixed_k_reconstructs_exactly(shape):
    rng = np.random.default_rng(43)
    x = rng.standard_normal(shape)
    model = exact(x, RankPolicy.fixed_k(max(shape)))
    assert relerr(rebuild(model, x), x) < 1e-8


@pytest.mark.parametrize("shape", [(12, 7), (6, 5, 8)])
@pytest.mark.parametrize("centering", ["feature", "global"])
def test_tau_one_reconstructs_exactly(shape, centering):
    rng = np.random.default_rng(44)
    x = rng.standard_normal(shape)
    model = exact(x, centering=centering)
    assert relerr(rebuild(model, x), x) < 1e-8
    for f in model.factors:
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-10


def test_factor_orthonormality_and_ledger():
    rng = np.random.default_rng(45)
    x = rng.standard_normal((10, 6, 4))
    model = exact(x, RankPolicy.cumulative_variance(0.8))
    assert len(model.spectra) == 2
    for f, spec in zip(model.factors, model.spectra, strict=True):
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12
        assert abs(spec.ratios.sum() - 1.0) < 1e-12
        assert np.all(np.diff(spec.ratios) <= 1e-15)


def test_eckart_young_order2_all_k():
    rng = np.random.default_rng(46)
    for _ in range(5):
        x = rng.standard_normal((14, 9))
        xc = x - x.mean(axis=0)
        norm = np.linalg.norm(xc)
        for k in range(1, 10):
            model = exact(x, RankPolicy.fixed_k(k))
            err = np.linalg.norm(rebuild(model, x) - x)
            want = best_rank_k_error(xc, k)
            assert abs(err - want) <= 1e-8 * norm


def test_pca_equivalence_on_stacks():
    rng = np.random.default_rng(47)
    for _ in range(5):
        x = rng.standard_normal((40, 7))
        model = exact(x)
        xc = x - x.mean(axis=0)
        pcs, _ = covariance_principal_directions(xc)
        got = sign_canonical(model.factors[-1])
        want = sign_canonical(pcs[:, : got.shape[1]])
        assert np.max(np.abs(got - want)) < 1e-8


def test_reconstruction_error_nonincreasing_in_rank():
    # fixed_k(k) keeps each mode's leading min(k, available) directions, so
    # each step widens every factor to a superset of the one before
    rng = np.random.default_rng(48)
    for x in (rng.standard_normal((8, 7, 6)), rng.standard_normal((9, 7))):
        errs = [
            np.linalg.norm(rebuild(exact(x, RankPolicy.fixed_k(k)), x) - x)
            for k in range(1, max(x.shape) + 1)
        ]
        assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))


def test_degenerate_inputs():
    with pytest.raises(NumericalFailureError, match="^tensor is identically zero$"):
        exact(np.zeros((4, 3)))
    # a constant stack has no variance after either centering
    for centering in ("feature", "global"):
        with pytest.raises(NumericalFailureError,
                           match=f"^no variance left after {centering} centering$"):
            exact(np.full((4, 3), 2.5), centering=centering)
    for value in (np.inf, np.nan):
        with pytest.raises(InvalidArgumentError):
            exact(np.array([[1.0, value]]))


@pytest.mark.parametrize("shape, words", [
    ((0, 3), "all extents must be >= 1, got (0, 3)"),
    ((3, 0), "all extents must be >= 1, got (3, 0)"),
    ((2, 0, 3), "all extents must be >= 1, got (2, 0, 3)"),
])
def test_exact_subspace_takes_only_a_nonempty_stack(shape, words):
    with pytest.raises(InvalidArgumentError, match=re.escape(words)):
        exact(np.ones(shape))


def test_exact_subspace_maps_a_lapack_failure(monkeypatch):
    def fail(*a, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    for x in (np.arange(12.0).reshape(4, 3) ** 2, np.arange(24.0).reshape(2, 3, 4) ** 2):
        with pytest.raises(NumericalFailureError, match=re.escape(
                "thin SVD did not converge (LAPACK)")):
            exact(x)


def test_exact_spectrum_and_factor_hand_example():
    # the centred rows have X.T @ X = diag(18, 8): values sqrt(18), sqrt(8)
    # and the identity as the factor, each column's largest entry positive
    x = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    model = exact(x, RankPolicy.fixed_k(2))
    assert np.allclose(model.spectra[0].singular_values, np.sqrt([18.0, 8.0]), atol=1e-12)
    assert np.array_equal(model.factors[0], np.eye(2))
    assert not model.spectra[0].singular_values.flags.writeable


def test_exact_spectrum_and_factor_on_many_random_shapes():
    # each mode lists min(rows, cols) values of its fibres, those of the
    # textbook unfolding, nonincreasing and nonnegative; its factor is
    # orthonormal and each column's largest-magnitude entry nonnegative
    rng = np.random.default_rng(22)
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 13, size=int(rng.integers(2, 4))))
        x = rng.standard_normal((int(rng.integers(2, 13)), *shape[1:]))
        model = exact(x, RankPolicy.fixed_k(max(x.shape)))
        xc = x - x.mean(axis=0)
        for mode, factor, spec in zip(range(2, x.ndim + 1), model.factors, model.spectra,
                                      strict=True):
            s = spec.singular_values
            want, _ = unfolding_svd(xc, mode)
            assert s.size == want.size == min(x.shape[mode - 1], x.size // x.shape[mode - 1])
            assert np.max(np.abs(s - want)) <= 1e-12 * s[0]
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            assert factor.shape[0] == x.shape[mode - 1]
            assert np.max(np.abs(factor.T @ factor - np.eye(factor.shape[1]))) < 1e-10
            assert np.array_equal(factor, sign_canonical(factor))


def test_the_hard_threshold_reads_the_tall_fibre_matrix_not_its_r_factor():
    # the exact route decomposes a tall stack's square R factor, whose
    # singular values are the stack's; the threshold for 0.5-noise on the
    # 4000 x 300 stack falls between the planted 16 and the noise, but
    # the square 300 x 300 shape would put it below every noise value
    rng = np.random.default_rng(71)
    x = rng.standard_normal((4000, 16)) @ rng.standard_normal((16, 300))
    x += 0.5 * rng.standard_normal(x.shape)
    model = exact(x, RankPolicy.hard_threshold(0.5))
    assert model.ranks == (16,)


@pytest.mark.parametrize("centering", ["feature", "global"])
def test_a_constant_stack_has_no_variance_on_either_route(centering):
    x = np.full((40, 3), 2.5)  # tall enough for the Gram route to take it
    policy = RankPolicy.cumulative_variance(0.9)
    # the exact route owns the refusal; the stream declines and leaves it to it
    message = f"no variance left after {centering} centering"
    with pytest.raises(NumericalFailureError, match=message):
        exact(x, policy, centering=centering)
    assert streamed(x, policy, centering=centering) is None


def test_stacks_near_the_float_limit_keep_their_variance():
    # norms and the Gram matrix of these stacks overflow, or underflow, if
    # squared unscaled
    rng = np.random.default_rng(51)
    x = 1e160 + 1e155 * rng.standard_normal((6, 4))
    model = exact(x)
    assert model.ranks == (4,)
    x, q = planted_stack(rng, n=60, d=10, k=3, noise=1e-3)
    for policy in (RankPolicy.cumulative_variance(0.99), RankPolicy.cumulative_variance(1.0)):
        small = exact(x, policy)
        for exponent in (532, -532, -560):
            big = exact(np.ldexp(x, exponent), policy)
            assert big.ranks == small.ranks
            u, v = big.factors[-1], small.factors[-1]
            assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-10
            # the Gram route stores the leading ratios and the tail's share
            a, b = big.spectra[-1], small.spectra[-1]
            n = b.ratios.size
            assert np.allclose(a.ratios[:n], b.ratios, rtol=1e-10, atol=1e-14)
            assert np.allclose(np.sum(a.ratios[n:]) + a.tail_ratio, b.tail_ratio,
                               rtol=1e-10, atol=1e-14)


def test_single_slab_stack_is_permitted():
    rng = np.random.default_rng(49)
    x = rng.standard_normal((6, 9))  # one model's rows only
    model = exact(x)
    assert relerr(rebuild(model, x), x) < 1e-8


def test_determinism():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((9, 5, 4))
    m1 = exact(x, RankPolicy.cumulative_variance(0.9))
    m2 = exact(x, RankPolicy.cumulative_variance(0.9))
    for f1, f2 in zip(m1.factors, m2.factors, strict=True):
        assert np.array_equal(f1, f2)
    for s1, s2 in zip(m1.spectra, m2.spectra, strict=True):
        assert np.array_equal(s1.singular_values, s2.singular_values)


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
    """A streamed model ``got`` agrees with ``want``, from
    :func:`exact_subspace` of the same stack: mean, ranks, feature factor
    and spectra."""
    assert np.max(np.abs(got.mu - want.mu)) <= 1e-12 * np.max(np.abs(want.mu))
    assert got.ranks == want.ranks
    assert max_sine(got.factors[-1], want.factors[-1]) <= 1e-10
    for g, w in zip(got.spectra, want.spectra, strict=True):
        assert_spectra_agree(g, w)


TALL_PLANTED = [(400, 32, 5, 0.05), (900, 64, 8, 0.01), (120, 120, 3, 0.1)]


@pytest.mark.parametrize("n,d,k,noise", TALL_PLANTED)
@pytest.mark.parametrize(
    "policy",
    [RankPolicy.fixed_k(4), RankPolicy.cumulative_variance(0.9), RankPolicy.eigen_floor(0.01)],
    ids=["fixed_k", "tau", "floor"],
)
def test_gram_route_matches_exact_route(n, d, k, noise, policy):
    rng = np.random.default_rng(n + d)
    x, _ = planted_stack(rng, n=n, d=d, k=k, noise=noise)
    got = streamed(x, policy)
    assert_stream_matches_exact(got, exact(x, policy))


@pytest.mark.parametrize("n,d,k,noise", TALL_PLANTED)
def test_gram_route_read_past_the_rank_finds_the_next_directions(n, d, k, noise):
    rng = np.random.default_rng(n * d)
    x, _ = planted_stack(rng, n=n, d=d, k=k, noise=noise)
    xc = x - x.mean(axis=0)
    # the Gram route read as deep as the window ends finds the window that
    # follows the planted k
    deep = streamed(x, RankPolicy.fixed_k(k + 3))
    assert max_sine(deep.factors[-1][:, k : k + 3], next_directions(xc, k, 3)) <= 1e-10
    s, want = deep.spectra[-1].singular_values, np.linalg.svd(xc, compute_uv=False)
    assert np.max(np.abs(s - want[: s.size])) <= 1e-12 * want[0]


def test_tall_well_conditioned_stack_takes_one_eigh(monkeypatch):
    rng = np.random.default_rng(63)
    x, _ = planted_stack(rng, n=300, d=24, k=4, noise=0.05)
    policy = RankPolicy.cumulative_variance(0.9)
    model, calls = count_decompositions(monkeypatch, streamed, x, policy)
    assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0}
    assert model.ranks == (4,)
    assert_stream_matches_exact(model, exact(x, policy))


def test_exact_route_takes_one_svd_per_order_2_stack_two_per_order_3_and_no_eigh(monkeypatch):
    rng = np.random.default_rng(70)
    stacks = [planted_stack(rng, n=n, d=d, k=k, noise=noise)[0] for n, d, k, noise in TALL_PLANTED]
    solves = record_square_solves(monkeypatch)  # eigh and eigvalsh of any order
    for x in stacks:
        for policy in (RankPolicy.cumulative_variance(0.9), RankPolicy.fixed_k(4)):
            for stack in (x, x.reshape(-1, 4, x.shape[1])):  # members of 4 rows
                _, calls = count_decompositions(monkeypatch, exact, stack, policy)
                assert calls["svd"] == stack.ndim - 1
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
        model, calls = count_decompositions(monkeypatch, exact, x, policies)
        assert calls == {"svd": 1, "eigh": 0, "eigvalsh": 0}
        f = model.factors[-1]
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-10
        rec = rebuild(model, x)
        if full:
            assert relerr(rec, x) <= 1e-8
        else:
            xc = x - x.mean(axis=0)
            (k,) = model.ranks
            err = np.linalg.norm(rec - x)
            assert abs(err - best_rank_k_error(xc, k)) <= 1e-8 * np.linalg.norm(xc)


def test_guard_on_a_deep_window_takes_one_eigh(monkeypatch):
    rng = np.random.default_rng(65)
    t = ill_conditioned_stack(rng)
    # read to the end of the window 3..5, the spectrum stays above
    # 1e-3 * s_1 and the Gram route serves it; to the end of 3..9 it
    # reaches below, and the same one eigh declines it
    for depth, declined in ((6, False), (10, True)):
        got, calls = count_decompositions(monkeypatch, streamed, t, RankPolicy.fixed_k(depth))
        assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0}
        assert (got is None) == declined


def test_declined_gram_route_solves_for_no_eigenvector(monkeypatch):
    rng = np.random.default_rng(66)
    # the ill-conditioned stack, 300 rows tall, its 12 directions embedded
    # in 256 columns: the block iteration's first sweep captures them all,
    # and the energy left past the 9th, below GRAM_MIN_RATIO**2 * s_1**2,
    # bounds the 10th component below the guard's floor before any d x d
    # solve
    x = ill_conditioned_stack(rng, n=300) @ haar_columns(256, 12, rng).T
    assert hosvd_module.gram_eligible(x.shape, RankPolicy.fixed_k(10))
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
        assert model.ranks == (8,)
        assert solves and all(name == "eigh" and order < 512 for name, order in solves)
    # an isotropic 12800 x 1024 stack keeps 95% of its variance only about
    # 900 deep, which the Cauchy-Schwarz bound sees before any iteration
    stream = hosvd_module.GramStream(1024)
    for _ in range(200):
        stream.add(rng.standard_normal((64, 1024)))
    solves = record_square_solves(monkeypatch)
    model = stream.decompose(RankPolicy.cumulative_variance(0.95))
    assert solves == [("eigh", 1024)]
    assert 800 < model.ranks[-1] < 1000


def test_rank_deficient_square_stack_streams_the_exact_tail():
    rng = np.random.default_rng(67)
    x, _ = planted_stack(rng, n=120, d=120, k=3, noise=0.1)  # centred rank 119
    svals = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    assert 0 < svals[-1] <= 1e-12 * svals[0]  # the exact SVD reads rounding there
    policy = RankPolicy.cumulative_variance(0.9)
    model = streamed(x, policy)
    assert_stream_matches_exact(model, exact(x, policy))
    spec = model.spectra[-1]
    s, n = spec.singular_values, spec.singular_values.size
    assert (n,) == model.ranks and n < 119
    assert np.max(np.abs(s - svals[:n])) <= 1e-12 * s[0]
    assert abs(spec.tail - np.sum(svals[n:] ** 2)) <= 1e-12 * np.sum(svals**2)


def test_fixed_k_past_the_gram_floor_is_declined_not_clamped():
    # rank 10 plus components near 1e-9 * s_1: the exact route counts them
    # as rank, while the Gram solve reads them as 0 (below d * eps * lambda_1)
    rng = np.random.default_rng(71)
    x, _ = planted_stack(rng, n=400, d=64, k=10)
    s1 = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)[0]
    x += 1e-9 * s1 / 20 * rng.standard_normal(x.shape)
    policy = RankPolicy.fixed_k(16)  # a block of 24 is over budget: one full eigh
    want = exact(x, policy)
    assert want.ranks == (16,)
    assert streamed(x, policy) is None
    # read no deeper than the rank, the route still serves it
    assert_stream_matches_exact(streamed(x, RankPolicy.fixed_k(10)),
                                exact(x, RankPolicy.fixed_k(10)))


def test_scaled_stacks_on_the_leading_vector_route_keep_ranks_and_basis(monkeypatch):
    rng = np.random.default_rng(68)
    x, _ = planted_stack(rng, n=800, d=384, k=4, noise=1e-3)
    policy = RankPolicy.cumulative_variance(0.99)
    solves = record_square_solves(monkeypatch)
    small = streamed(x, policy)
    assert solves and all(order < x.shape[1] for _, order in solves)  # no d x d solve
    monkeypatch.undo()
    assert_stream_matches_exact(small, exact(x, policy))
    # the leading solve divides G by the even power of two above its largest
    # entry at every scale, so a power-of-two scale changes no bit of it
    for exponent in (40, -40, 100, -100, 150, -150, 300, -300):
        big = streamed(np.ldexp(x, exponent), policy)
        assert big.ranks == small.ranks == (4,)
        assert np.array_equal(big.factors[-1], small.factors[-1])
        spectrum, want = big.spectra[-1], small.spectra[-1]
        assert np.array_equal(spectrum.singular_values,
                              np.ldexp(want.singular_values, exponent))
        assert spectrum.tail == np.ldexp(want.tail, 2 * exponent)
    # at 2**±532 the squares leave the range the stream accepts, and the
    # exact route serves the stack
    for exponent in (532, -532):
        assert streamed(np.ldexp(x, exponent), policy) is None
        model = exact(np.ldexp(x, exponent), policy)
        assert model.ranks == (4,)
        assert max_sine(model.factors[-1], small.factors[-1]) <= 1e-10


# -------------------------------------------------- slice project/reconstruct


def make_planted_model(rng, n=40, d=10, k=3):
    x, q = planted_stack(rng, n=n, d=d, k=k)
    model = exact(x, RankPolicy.cumulative_variance(0.999))
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
    assert np.max(np.abs(resid @ model.factors[-1])) < 1e-8


def test_projection_is_linear_when_mu_vanishes():
    rng = np.random.default_rng(54)
    x = rng.standard_normal((30, 8))
    x -= x.mean()  # global mean ~ 0
    model = exact(x, RankPolicy.fixed_k(4), centering="global")
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
    k2 = model.factors[-1].shape[1]
    out = reconstruct_slice(model, SliceCoefficients(coeffs=np.zeros((4, k2))))
    assert np.allclose(out, np.broadcast_to(model.mu, (4, x.shape[1])), atol=1e-14)


def test_order3_slice_round_trip():
    rng = np.random.default_rng(57)
    T, r, d = 12, 5, 9
    q = haar_columns(d, 3, rng)
    slabs = [rng.standard_normal((r, 3)) @ q.T for _ in range(T)]
    x = np.stack(slabs, axis=0)
    model = exact(x, RankPolicy.cumulative_variance(0.999))
    assert model.mu.shape == (r, d)  # the mean is one member
    slab = slabs[3]
    coeffs = project_slice(model, slab)
    assert coeffs.coeffs.shape == model.ranks  # k2 x k3: no stacking axis
    back = reconstruct_slice(model, coeffs)
    assert back.shape == (r, d)
    assert relerr(back, slab) < 1e-8
    with pytest.raises(InvalidArgumentError):  # a member has no stacking axis
        project_slice(model, slab[None])


def test_order3_contractions_match_einsum():
    # not planted, and every extent and rank distinct, so a transposed
    # factor or a reshape in the wrong order changes the result; a global
    # mean leaves the three members spanning three directions
    rng = np.random.default_rng(63)
    x = rng.standard_normal((3, 2, 4))
    model = exact(x, RankPolicy.fixed_k(4), centering="global")  # whole ranks
    assert model.ranks == (2, 4)
    u2, u3 = model.factors
    member = rng.standard_normal((2, 4))
    coeffs = project_slice(model, member)
    want = np.einsum("jk,jb,kc->bc", member - model.mu, u2, u3)
    assert relerr(coeffs.coeffs, want) <= 1e-13
    want = np.einsum("bc,jb,kc->jk", coeffs.coeffs, u2, u3) + model.mu
    assert relerr(reconstruct_slice(model, coeffs), want) <= 1e-13


def planted_order3(rng, t=14, r=6, d=11, weights=(10.0, 3.0, 1.0, 0.5), noise=1e-4):
    """A T x r x d stack: an offset of 5 plus sum_i w_i a_i o b_i o c_i with
    orthonormal a_i (orthogonal to the ones vector, so either centering
    leaves them), b_i and c_i, plus noise.  Every mode's spectrum is the
    weights, a gap of 2x or more at each cut, then the noise."""
    ones = np.ones((t, 1))
    a = np.linalg.qr(np.hstack([ones, rng.standard_normal((t, len(weights)))]))[0][:, 1:]
    b, c = haar_columns(r, len(weights), rng), haar_columns(d, len(weights), rng)
    x = np.einsum("i,ti,ji,ki->tjk", np.asarray(weights), a, b, c)
    return 5.0 + x + noise * rng.standard_normal((t, r, d))


@pytest.mark.parametrize("centering", ["feature", "global"])
@pytest.mark.parametrize("policy, rank", [(RankPolicy.cumulative_variance(0.95), 2),
                                          (RankPolicy.fixed_k(3), 3)], ids=["tau", "fixed_k"])
def test_order3_factors_are_the_leading_left_singular_vectors_of_the_unfoldings(
    centering, policy, rank
):
    x = planted_order3(np.random.default_rng(64))
    xc = x - (x.mean() if centering == "global" else x.mean(axis=0))
    extracted = exact(x, policy, centering=centering)
    for mode, factor, spectrum in zip((2, 3), extracted.factors, extracted.spectra, strict=True):
        s, u = unfolding_svd(xc, mode)
        assert factor.shape == (x.shape[mode - 1], rank)
        assert subspace_distance(u[:, :rank], factor) <= 1e-10
        assert np.max(np.abs(spectrum.singular_values - s)) <= 1e-12 * s[0]


@pytest.mark.parametrize("order", [2, 3])
def test_reconstruct_slice_refuses_coefficients_of_another_shape(order):
    x = planted_order3(np.random.default_rng(65))  # 14 x 6 x 11
    model = exact(x.reshape(-1, 11) if order == 2 else x, RankPolicy.fixed_k(3))
    # order 2 takes any rows of k2 columns; order 3 exactly k2 x k3
    refused = [(6, 4), (3,), (2, 6, 3)] if order == 2 else [(3, 4), (4, 3), (3,)]
    for shape in refused:
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"do not fit retained ranks {model.ranks}")):
            reconstruct_slice(model, SliceCoefficients(coeffs=np.zeros(shape)))


@pytest.mark.parametrize("order", [2, 3])
def test_a_member_is_checked_against_its_factors_rows(order):
    x = planted_order3(np.random.default_rng(66))  # 14 x 6 x 11
    model = exact(x.reshape(-1, 11) if order == 2 else x, RankPolicy.fixed_k(3))
    # order 2 takes a slab of any rows of d columns; order 3 exactly r x d
    fits = [(1, 11), (6, 11), (40, 11)] if order == 2 else [(6, 11)]
    for shape in fits:
        back = reconstruct_slice(model, project_slice(model, np.ones(shape)))
        assert back.shape == shape
    for shape in [(6, 10), (11, 6), (1, 6, 11)] + ([(5, 11)] if order == 3 else []):
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"does not fit the factor rows {(6, 11)[3 - order:]}")):
            project_slice(model, np.ones(shape))
