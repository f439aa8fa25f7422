import copy
import dataclasses
import json
import re

import numpy as np
import pytest

import uws.spectral as spectral_module
from uws import theory
from uws.ensemble import ExtractionConfig, ModelWeights, adapt_coefficients, extract_universal
from uws.errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    NumericalFailureError,
)
from uws.hosvd import exact_subspace
from uws.spectral import (
    _PARAMETER,
    NUMERICAL_RANK_RTOL,
    GRAM_PANEL_COLS,
    RankPolicy,
    column_signs,
    explained_variance,
    gram_leading,
    operator_norm,
    orthonormality_defect,
    select_rank,
)

from oracles import (lower_gram, lower_gram_of, record_square_solves, sign_canonical,
                     spectrum_families)

# ------------------------------------------------------------ column_signs


def test_column_signs_orient_largest_entry():
    a = np.array([[1.0, -3.0, 0.0, 2.0], [-2.0, 1.0, -0.5, -2.0]])
    signs = column_signs(a)
    assert np.array_equal(signs, [-1.0, -1.0, -1.0, 1.0])
    rng = np.random.default_rng(19)
    m = rng.standard_normal((9, 6))
    assert np.array_equal(m * column_signs(m), sign_canonical(m))


def test_gram_spectrum_matches_a_dense_svd_on_tall_input():
    rng = np.random.default_rng(20)
    q = np.linalg.qr(rng.standard_normal((80, 6)))[0]
    w = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    m = q @ np.diag([9.0, 5.0, 3.0, 1.0, 0.5, 0.1]) @ w.T
    s, v, tail = gram_leading(lower_gram(m), RankPolicy.fixed_k(6))
    _, want, vt = np.linalg.svd(m, full_matrices=False)
    assert np.max(np.abs(s - want)) < 1e-12 * s[0]
    assert np.all(np.diff(s) <= 0) and tail == 0.0
    assert orthonormality_defect(v) < 1e-12
    assert np.max(np.abs(v - sign_canonical(vt.T))) < 1e-10
    for policy in (RankPolicy.cumulative_variance(1.0), RankPolicy.hard_threshold()):
        with pytest.raises(InvalidArgumentError, match="leading end"):
            gram_leading(lower_gram(m), policy)


def planted_singular_stack(rng, rows, singular_values):
    """rows x d matrix with exactly the given singular values (up to
    rounding) and Haar-random singular vectors."""
    d = len(singular_values)
    u = np.linalg.qr(rng.standard_normal((rows, d)))[0]
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (u * np.asarray(singular_values)) @ v.T


def max_sine(a, b):
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2))


@pytest.mark.parametrize(
    "top",
    [[100.0, 80.0, 60.0, 50.0, 45.0, 40.0],
     # near-repeated: the leading three differ by 1e-9 relative
     [100.0, 100.0 * (1 - 1e-9), 100.0 * (1 - 2e-9), 50.0, 50.0 * (1 - 1e-9), 40.0]],
    ids=["distinct", "near_repeated"],
)
@pytest.mark.parametrize("n", [3, 6])
def test_gram_vectors_match_a_full_eigh_without_one(monkeypatch, top, n):
    rng = np.random.default_rng(23)
    d = 384
    m = planted_singular_stack(rng, 900, np.r_[top, np.geomspace(1.0, 0.1, d - 6)])
    lower = lower_gram(m)
    gram = lower.symmetric()
    solves = record_square_solves(monkeypatch)
    s, v, tail = gram_leading(lower, RankPolicy.fixed_k(n))
    # Rayleigh-Ritz solves only: no d x d solve
    assert solves and all(name == "eigh" and order < d for name, order in solves)
    monkeypatch.undo()
    w, full = np.linalg.eigh(gram)
    lam = w[::-1]
    assert max_sine(full[:, ::-1][:, :n], v) <= 1e-10
    assert np.max(np.abs(np.sqrt(lam[:n]) - s)) <= 1e-12 * s[0]
    assert np.max(np.abs(s - np.linalg.svd(m, compute_uv=False)[:n])) <= 1e-12 * s[0]
    assert abs(tail - np.sum(lam[n:])) <= 1e-12 * np.trace(gram)
    assert orthonormality_defect(v) <= 1e-12
    assert np.array_equal(v, v * column_signs(v))


def test_flat_spectrum_takes_one_full_eigh(monkeypatch):
    rng = np.random.default_rng(24)
    d = 384  # where a planted gap takes the block iteration (test above)
    m = planted_singular_stack(rng, 900, 1.0 + 1e-3 * rng.random(d))
    full = np.linalg.eigh(lower_gram(m).symmetric())[1][:, ::-1]
    # the Cauchy-Schwarz depth bound sends a tau policy straight to eigh;
    # a fixed rank gets there once the block iteration cannot certify it
    for policy, n in ((RankPolicy.cumulative_variance(0.95), None), (RankPolicy.fixed_k(4), 4)):
        gram = lower_gram(m)  # a solve owns the Gram it is handed
        solves = record_square_solves(monkeypatch)
        s, v, _ = gram_leading(gram, policy)
        monkeypatch.undo()
        assert [c for c in solves if c[1] == d] == [("eigh", d)]
        if n is None:
            assert solves == [("eigh", d)]
        want = full[:, : s.size]
        assert np.array_equal(v, want * column_signs(want))


def assert_upper_triangle_is_never_read(c, exponent, policies, rng):
    """``gram_leading`` returns the same bits for the Gram of ``c`` times
    ``2**exponent`` once the strict upper triangle of its square, and so
    of each panel's diagonal block, holds noise."""
    d = c.shape[1]
    for policy in policies:
        want = gram_leading(lower_gram(c, exponent), policy)
        square = lower_gram(c, exponent).square()
        square[np.triu_indices(d, 1)] = np.ldexp(rng.standard_normal(d * (d - 1) // 2), exponent)
        got = gram_leading(lower_gram_of(square), policy)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("spectrum", ["planted_gap", "flat"])  # block iteration, full eigh
@pytest.mark.parametrize("exponent", [0, 532])
def test_gram_leading_never_reads_the_strict_upper_triangle(spectrum, exponent):
    rng = np.random.default_rng(27)
    d = 384
    values = (np.r_[[100.0, 80, 60, 50, 45, 40], np.geomspace(1.0, 0.1, d - 6)]
              if spectrum == "planted_gap" else 1.0 + 1e-3 * rng.random(d))
    m = planted_singular_stack(rng, 900, values)
    assert_upper_triangle_is_never_read(
        m, exponent, (RankPolicy.cumulative_variance(0.95), RankPolicy.fixed_k(4)), rng)


@pytest.mark.parametrize("d", [1, GRAM_PANEL_COLS - 1, GRAM_PANEL_COLS + 1, 300])
def test_lower_gram_works_from_the_lower_triangle_alone(d):
    rng = np.random.default_rng(28)
    c = rng.standard_normal((d + 5, d))
    lower = lower_gram(c)
    g = lower.symmetric()
    assert np.array_equal(g, g.T)
    assert np.max(np.abs(g - c.T @ c)) <= 1e-12 * np.max(np.abs(g))
    # noise in the strict upper triangle of each panel's diagonal block,
    # which is not G's, changes nothing read from it
    square = lower.square()  # the panels, copied into one array and dropped
    assert np.array_equal(np.tril(square), np.tril(g))
    square[np.triu_indices(d, 1)] = rng.standard_normal(d * (d - 1) // 2)
    lower = lower_gram_of(square)
    assert np.array_equal(lower.symmetric(), g)
    q = rng.standard_normal((d, 3))
    assert np.max(np.abs(lower @ q - g @ q)) <= 1e-12 * np.max(np.abs(g @ q))
    assert np.array_equal(lower.diagonal(), np.diagonal(g))
    assert lower.trace() == float(np.sum(np.diagonal(g)))
    assert abs(lower.frobenius_sq() - np.vdot(g, g)) <= 1e-12 * np.vdot(g, g)
    v = rng.standard_normal(d)
    lower.add_outer(v, 3.0)  # in place
    assert np.array_equal(np.tril(lower.symmetric()), np.tril(g + 3.0 * np.multiply.outer(v, v)))
    scaled = lower_gram_of(square)
    scaled.ldexp(-3)  # in place
    assert np.array_equal(scaled.symmetric(), np.ldexp(g, -3))
    square[0, d - 1] = np.inf if d > 1 else square[0, 0]
    assert lower_gram_of(square).all_finite()
    square[d - 1, 0] = np.nan
    assert not lower_gram_of(square).all_finite()
    assert_upper_triangle_is_never_read(c, 0, [RankPolicy.fixed_k(min(d, 4))], rng)
    assert_upper_triangle_is_never_read(c, 532, [RankPolicy.cumulative_variance(0.95)], rng)


def test_a_lower_gram_product_after_add_gram_of_sees_the_added_rows():
    rng = np.random.default_rng(29)
    d = 2 * GRAM_PANEL_COLS + 9
    a, b = rng.standard_normal((d + 5, d)), rng.standard_normal((40, d))
    q = rng.standard_normal((d, 3))
    lower, fresh = lower_gram(a), lower_gram(a)
    before = lower.frobenius_sq()  # reads the symmetric diagonal blocks, as @ does
    lower.add_gram_of(b)
    fresh.add_gram_of(b)
    assert np.array_equal(lower @ q, fresh @ q)
    assert lower.frobenius_sq() == fresh.frobenius_sq() > before
    g = a.T @ a + b.T @ b
    assert np.max(np.abs(lower @ q - g @ q)) <= 1e-12 * np.max(np.abs(g @ q))
    assert abs(lower.frobenius_sq() - np.vdot(g, g)) <= 1e-12 * np.vdot(g, g)


def test_gram_spectrum_reads_rounding_level_eigenvalues_as_zero():
    rng = np.random.default_rng(25)
    m = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 40))  # rank 5
    # read to its rank, the spectrum leaves an exact 0 past it
    s, _, tail = gram_leading(lower_gram(m), RankPolicy.fixed_k(5))
    assert s.size == 5 and np.all(s > 0) and tail == 0.0
    assert np.max(np.abs(s - np.linalg.svd(m, compute_uv=False)[:5])) <= 1e-12 * s[0]


def test_a_certified_rank_is_served_and_a_depth_below_the_floor_declined(monkeypatch):
    # rank 3 in 256 columns: the first sweep of the block iteration spans
    # it and certifies rank 3, whose s_3 = 0.1 * s_1 is above the floor;
    # a certified depth's value is at least about 4.4e-6 * s_1**2, so the
    # floor never declines one
    rng = np.random.default_rng(26)
    gram = lower_gram(planted_singular_stack(rng, 400, [1.0, 0.5, 0.1] + [0.0] * 253))
    solves = record_square_solves(monkeypatch)
    s, _, tail = gram_leading(gram, RankPolicy.fixed_k(3))
    assert np.max(np.abs(s - [1.0, 0.5, 0.1])) <= 1e-12 and tail <= 1e-24
    # with s_3 = 1e-4 * s_1 the energy past the 2nd bounds the 3rd below
    # the floor (Ky Fan) before any rank is certified or any d x d solve
    gram = lower_gram(planted_singular_stack(rng, 400, [1.0, 0.5, 1e-4] + [0.0] * 253))
    assert gram_leading(gram, RankPolicy.fixed_k(3)) is None
    assert solves and all(order < 256 for _, order in solves)


@pytest.mark.parametrize("family", ["geometric", "power_law", "planted_gap", "cluster_at_cut",
                                    "rank_deficient", "flat"])
def test_leading_spectrum_matches_a_full_eigh(family):
    d = 384
    lam = np.sort(spectrum_families(d)[family])[::-1]
    vec = np.linalg.qr(np.random.default_rng(26).standard_normal((d, d)))[0]
    c = (vec * np.sqrt(lam)).T  # c.T @ c = vec diag(lam) vec.T
    # largest entry in [1/4, 1): the solve's power-of-two scaling leaves it
    # as it is, so where a cut splits a cluster, the eigh it falls back to
    # is the reference's own
    shift = -2 * ((int(np.frexp(np.max(lower_gram(c).diagonal()))[1]) + 1) // 2)
    gram = lower_gram(c, shift).symmetric()
    w, full = np.linalg.eigh(gram)
    w, full = w[::-1], full[:, ::-1]
    w = np.where(w < d * np.finfo(float).eps * w[0], 0.0, w)
    total = np.trace(gram)
    for policy in (RankPolicy.cumulative_variance(0.9), RankPolicy.cumulative_variance(0.99),
                   RankPolicy.eigen_floor(0.01), RankPolicy.fixed_k(4)):
        rank = select_rank(explained_variance(np.sqrt(w)), policy)
        for exponent in (0, 532, -532):
            s, v, tail = gram_leading(lower_gram(c, shift + exponent), policy)
            s, tail = np.ldexp(s, -exponent // 2), np.ldexp(tail, -exponent)
            n = s.size
            assert select_rank(explained_variance(s, tail), policy) == rank == n
            assert max_sine(full[:, :n], v) <= 1e-10
            assert np.max(np.abs(s - np.sqrt(w[:n]))) <= 1e-12 * s[0]
            assert abs(tail - np.sum(w[n:])) <= 1e-12 * total


# --------------------------------------------------------- explained_variance


def test_explained_variance_hand_values():
    assert np.allclose(explained_variance(np.array([1.0])), [1.0])
    # 16/25 and 9/25
    assert np.allclose(explained_variance(np.array([4.0, 3.0])), [0.64, 0.36], atol=1e-15)
    assert np.allclose(explained_variance(np.array([2.0] * 4)), [0.25] * 4, atol=1e-15)


def test_explained_variance_sums_to_one_and_nonincreasing():
    rng = np.random.default_rng(24)
    for _ in range(100):
        s = np.sort(np.abs(rng.standard_normal(12)))[::-1]
        r = explained_variance(s)
        assert abs(r.sum() - 1.0) < 1e-12
        assert np.all(np.diff(r) <= 1e-15)


def test_explained_variance_rejects_bad_input():
    with pytest.raises(DegenerateSpectrumError):
        explained_variance(np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        explained_variance(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(InvalidArgumentError):
        explained_variance(np.array([1.0, -0.5]))  # negative
    with pytest.raises(InvalidArgumentError, match="empty spectrum"):
        explained_variance(np.array([]))
    for tail in (np.inf, np.nan, -1.0):
        message = re.escape(f"tail must be finite and >= 0, got {tail!r}")
        with pytest.raises(InvalidArgumentError, match=message):
            explained_variance(np.array([1.0]), tail)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_explained_variance_refuses_an_increasing_spectrum_at_any_scale(scale):
    with pytest.raises(InvalidArgumentError, match="nonincreasing"):
        explained_variance(np.array([1.0, 5.0, 9.0]) * scale)
    # a step up within 1e-12 of the largest value is rounding
    assert np.allclose(explained_variance(np.array([1.0, 1.0 + 1e-13]) * scale), 0.5)


def test_explained_variance_holds_at_any_scale():
    # squaring 1e156 overflows, and squaring 2**-600 underflows to zero
    assert np.allclose(explained_variance(np.array([1e156, 1e155])), [100 / 101, 1 / 101],
                       rtol=1e-15, atol=0)
    s = np.sort(np.abs(np.random.default_rng(25).standard_normal(12)))[::-1]
    for scale in (2.0**532, 2.0**-600):
        assert np.array_equal(explained_variance(s * scale), explained_variance(s))


# ---------------------------------------------------------------- select_rank


def test_select_rank_cumulative_smallest_satisfying():
    ratios = np.array([0.5, 0.3, 0.2])
    assert select_rank(ratios, RankPolicy.cumulative_variance(0.5)) == 1
    # exact tie at the boundary keeps the smallest satisfying rank
    assert select_rank(ratios, RankPolicy.cumulative_variance(0.8)) == 2
    assert select_rank(ratios, RankPolicy.cumulative_variance(0.81)) == 3
    assert select_rank(np.array([1.0]), RankPolicy.cumulative_variance(0.3)) == 1


def test_select_rank_tau_one_is_numerical_rank():
    s = np.array([5.0, 1.0, 1e-16])
    ratios = explained_variance(s)
    assert select_rank(ratios, RankPolicy.cumulative_variance(1.0)) == 2


def test_select_rank_eigen_floor():
    ratios = np.array([0.6, 0.3, 0.09, 0.005, 0.005])
    assert select_rank(ratios, RankPolicy.eigen_floor(0.01)) == 3
    # nothing above the floor still keeps one component
    assert select_rank(np.array([1.0]), RankPolicy.eigen_floor(2.0)) == 1


def test_select_rank_fixed_k_clamps():
    ratios = np.array([0.7, 0.2, 0.1])
    assert select_rank(ratios, RankPolicy.fixed_k(2)) == 2
    assert select_rank(ratios, RankPolicy.fixed_k(9)) == 3
    # to the numerical rank, the count tau = 1 keeps, not to the ratio count
    assert select_rank(np.array([0.7, 0.3, 1e-32]), RankPolicy.fixed_k(3)) == 2
    # fixed_k(4) keeps what each mode has: an order-3 stack's 2 rows and 4
    # columns, and the two directions three feature-centred rows span, whose
    # third singular value is rounding
    rng = np.random.default_rng(63)
    for shape, ranks in [((3, 2, 4), (2, 4)), ((3, 4), (2,))]:
        model = exact_subspace(rng.standard_normal(shape), RankPolicy.fixed_k(4),
                               centering="feature")
        assert model.ranks == ranks
    s = model.spectra[-1].singular_values
    assert s.size == 3 and s[2] <= NUMERICAL_RANK_RTOL * s[0]


def test_select_rank_monotone_in_tau_and_floor():
    rng = np.random.default_rng(25)
    for _ in range(50):
        s = np.sort(np.abs(rng.standard_normal(10)))[::-1] + 1e-6
        ratios = explained_variance(s)
        taus = np.linspace(0.05, 1.0, 13)
        ranks = [select_rank(ratios, RankPolicy.cumulative_variance(t)) for t in taus]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        floors = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
        franks = [select_rank(ratios, RankPolicy.eigen_floor(e)) for e in floors]
        assert all(a >= b for a, b in zip(franks, franks[1:]))


def test_hard_threshold_pure_noise_clamps_to_one():
    # square i.i.d. standard-normal noise, known sigma: the closed-form
    # threshold (4/sqrt(3)) * sqrt(n) * sigma sits far above the noise edge
    # 2*sqrt(n), so no component survives and the rank clamps to 1.
    rng = np.random.default_rng(26)
    n = 100
    hits = 0
    trials = 200
    for _ in range(trials):
        m = rng.standard_normal((n, n))
        s = np.linalg.svd(m, compute_uv=False)
        ratios = explained_variance(s)
        r = select_rank(
            ratios,
            RankPolicy.hard_threshold(noise_sigma=1.0),
            singular_values=s,
            shape=(n, n),
        )
        hits += r == 1
    assert hits >= 0.95 * trials


def test_hard_threshold_keeps_planted_spikes():
    rng = np.random.default_rng(27)
    n = 100
    u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    m = rng.standard_normal((n, n)) + u @ np.diag([60.0, 40.0]) @ v.T
    s = np.linalg.svd(m, compute_uv=False)
    ratios = explained_variance(s)
    r = select_rank(
        ratios,
        RankPolicy.hard_threshold(noise_sigma=1.0),
        singular_values=s,
        shape=(n, n),
    )
    assert r == 2


def test_hard_threshold_unknown_sigma_on_noise():
    rng = np.random.default_rng(28)
    m = rng.standard_normal((100, 100))
    s = np.linalg.svd(m, compute_uv=False)
    ratios = explained_variance(s)
    r = select_rank(
        ratios, RankPolicy.hard_threshold(), singular_values=s, shape=(100, 100)
    )
    assert r == 1


def test_hard_threshold_requires_spectrum_and_shape():
    with pytest.raises(InvalidArgumentError):
        select_rank(np.array([1.0]), RankPolicy.hard_threshold())
    with pytest.raises(InvalidArgumentError, match="^empty ratio vector$"):
        select_rank([])


def test_policy_parameter_validation():
    with pytest.raises(InvalidArgumentError):
        RankPolicy.cumulative_variance(0.0)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.cumulative_variance(1.5)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.eigen_floor(-1e-3)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.fixed_k(0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="finite"):
            RankPolicy.eigen_floor(value)
        with pytest.raises(InvalidArgumentError, match="finite"):
            RankPolicy.hard_threshold(noise_sigma=value)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="bogus"), "unknown policy kind"),
        (dict(kind=["fixed_k"], k=3), "unknown policy kind"),
        (dict(kind="cumulative_variance"), "tau"),
        (dict(kind="cumulative_variance", tau="0.9"), "tau"),
        (dict(kind="cumulative_variance", tau=True), "tau"),
        (dict(kind="cumulative_variance", tau=float("nan")), "tau"),
        (dict(kind="cumulative_variance", tau=0.9, k=3), "takes no k"),
        (dict(kind="eigen_floor", epsilon=float("inf")), "finite"),
        (dict(kind="eigen_floor", epsilon=[0.1]), "finite"),
        (dict(kind="hard_threshold", noise_sigma=-1.0), "finite"),
        (dict(kind="hard_threshold", tau=0.5), "takes no tau"),
        (dict(kind="fixed_k", k=2.5), "k must be"),
        (dict(kind="fixed_k", k=0), "k must be"),
        (dict(kind="fixed_k", k=3, epsilon=0.1), "takes no epsilon"),
        (dict(kind="fixed_k", k=2.5), "k must be an integer >= 1, got 2.5"),
        (dict(kind="fixed_k", k=True), "k must be an integer >= 1, got True"),
        (dict(kind="fixed_k", k="3"), "k must be an integer >= 1, got '3'"),
        (dict(kind="eigen_floor", epsilon=False), "epsilon"),
        (dict(kind="hard_threshold", noise_sigma="1"), "noise_sigma"),
    ],
)
def test_policy_checks_itself_however_it_is_built(fields, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        RankPolicy(**fields)
    # the kind's classmethod, given the same parameter, runs the same checks
    kind = fields["kind"]
    own = _PARAMETER.get(kind) if isinstance(kind, str) else None
    if set(fields) == {"kind", own}:
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            getattr(RankPolicy, kind)(fields[own])


def test_policy_fields_round_trip_through_asdict():
    for policy in (RankPolicy.cumulative_variance(0.9), RankPolicy.eigen_floor(0.0),
                   RankPolicy.hard_threshold(), RankPolicy.hard_threshold(0.5),
                   RankPolicy.fixed_k(np.int64(4)), RankPolicy.eigen_floor(np.float64(0.5))):
        fields = dataclasses.asdict(policy)
        assert list(fields) == ["kind", "tau", "epsilon", "k", "noise_sigma"]
        assert RankPolicy(**fields) == policy
        assert json.loads(json.dumps(fields)) == fields  # numpy scalars stored as plain numbers



def test_a_policy_describes_itself_by_its_kind_and_one_parameter():
    policies = (RankPolicy.cumulative_variance(0.9), RankPolicy.cumulative_variance(1),
                RankPolicy.eigen_floor(np.float64(0.001)), RankPolicy.hard_threshold(),
                RankPolicy.hard_threshold(0.5), RankPolicy.fixed_k(np.int64(16)))
    assert [p.describe() for p in policies] == [
        "cumulative_variance(tau=0.9)", "cumulative_variance(tau=1.0)",
        "eigen_floor(epsilon=0.001)", "hard_threshold(noise_sigma=estimated)",
        "hard_threshold(noise_sigma=0.5)", "fixed_k(k=16)",
    ]


# -------------------------------------------------------------- operator_norm


def test_operator_norm_identity_and_diagonal():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-8)
    assert operator_norm(np.diag([3.0, 1.0, -2.0])) == pytest.approx(3.0, rel=1e-8)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((5, 5))) == 0.0


def test_operator_norm_matches_eigensolve_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        want = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert operator_norm(a) == pytest.approx(want, rel=1e-8)


def test_operator_norm_sign_indefinite_near_tie():
    # dominant eigenvalues of opposite sign and nearly equal magnitude
    a = np.diag([1.0, -1.0 + 1e-9, 0.3])
    assert operator_norm(a) == pytest.approx(1.0, rel=1e-8)


def test_operator_norm_dominates_rayleigh_quotients():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2
    nrm = operator_norm(a)
    for _ in range(20):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert abs(v @ a @ v) <= nrm * (1 + 1e-8)


def test_operator_norm_rejects_asymmetric():
    with pytest.raises(InvalidArgumentError):
        operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidArgumentError):
        operator_norm(np.zeros((2, 3)))


def test_operator_norm_rejects_asymmetric_input_near_the_float_limit():
    # a - a.T would overflow here; pytest turns that RuntimeWarning into an error
    with pytest.raises(InvalidArgumentError, match="not symmetric"):
        operator_norm(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))


def test_operator_norm_is_exact_at_extreme_scales():
    # A @ A under- or overflows at these scales; the norm must not square A
    rng = np.random.default_rng(31)
    for scale in (1e-150, 1.0, 1e150, 1e160):
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2 * scale
        want = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert operator_norm(a) == pytest.approx(want, rel=1e-12)


def test_operator_norm_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(InvalidArgumentError, match="^matrix must be finite, got"):
            operator_norm(a)


def test_stacked_operator_norm_equals_the_per_matrix_call():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((5, 6, 6))
    scales = np.array([1.0, 1e-150, 0.0, 1e150, -3.0])[:, None, None]
    stack = (a + np.swapaxes(a, 1, 2)) / 2 * scales  # the third is the zero matrix
    got = operator_norm(stack)
    assert got.shape == (5,) and got[2] == 0.0
    assert repr([float(x) for x in got]) == repr([operator_norm(m) for m in stack])
    assert isinstance(operator_norm(stack[0]), float)
    assert operator_norm(stack[None]).shape == (1, 5)
    stack[3, 0, 1] += 1e148  # one asymmetric matrix fails the whole stack, as it fails alone
    for bad in (stack, stack[3]):
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            operator_norm(bad)


def _adapt_subspace():
    rng = np.random.default_rng(31)
    models = [ModelWeights(f"m{i}", {"w": rng.standard_normal((6, 8))}) for i in range(5)]
    return extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(2),
                                                      exclude_layers=()))


LAPACK_CALLS = {
    "operator_norm": ("eigvalsh", lambda: operator_norm(np.eye(3)),
                      "symmetric eigensolve did not converge (LAPACK)"),
    "descending_eigh": ("eigh", lambda: theory._descending_eigh(np.eye(3), 1),
                        "eigendecomposition failed: no convergence"),
    "adapt_closed_form": ("solve", lambda: adapt_coefficients(
        _adapt_subspace(), "w", np.eye(8), np.ones((8, 6))),
        "normal equations failed to solve: no convergence"),
}


@pytest.mark.parametrize("call", list(LAPACK_CALLS), ids=list(LAPACK_CALLS))
def test_a_lapack_failure_is_a_numerical_failure(monkeypatch, call):
    name, run, message = LAPACK_CALLS[call]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(NumericalFailureError, match="^" + re.escape(message)):
        run()


def test_a_lapack_failure_of_the_gram_eigh_is_a_decline(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    # d = 4 is too narrow for the block iteration: the one eigh fails, and
    # the stack is left to the exact route
    assert gram_leading(lower_gram(np.eye(4)), RankPolicy.fixed_k(1)) is None


def test_a_lapack_failure_in_the_block_iteration_falls_back_to_one_eigh(monkeypatch):
    rng = np.random.default_rng(32)
    d = 384
    lower = lower_gram(planted_singular_stack(
        rng, 900, np.r_[[100.0, 80.0, 60.0], np.geomspace(1.0, 0.1, d - 3)]))
    policy = RankPolicy.fixed_k(3)
    block = gram_leading(copy.deepcopy(lower), policy)  # a solve owns the Gram it is handed
    monkeypatch.setattr(spectral_module, "_leading_block", lambda *args: None)
    one_eigh = gram_leading(copy.deepcopy(lower), policy)
    monkeypatch.undo()
    failed = []

    def fail(*args, **kwargs):
        failed.append(args[0].shape)
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "qr", fail)
    got = gram_leading(lower, policy)
    assert failed == [(d, 3 + spectral_module.LEADING_OVERSAMPLE)]  # the block's first QR
    assert np.array_equal(got[0], one_eigh[0]) and np.array_equal(got[1], one_eigh[1])
    assert got[2] == one_eigh[2]
    assert np.max(np.abs(got[0] - block[0])) <= 1e-12 * block[0][0]
