import numpy as np
import pytest

from uws.errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    NumericalFailureError,
)
from uws.spectral import (
    RankPolicy,
    ThinSvd,
    column_signs,
    explained_variance,
    gram_eigh,
    operator_norm,
    orthonormality_defect,
    select_rank,
    thin_svd,
)

from oracles import sign_canonical

# ------------------------------------------------------------------ thin_svd


def test_thin_svd_identity():
    f = thin_svd(np.eye(3))
    assert np.allclose(f.singular_values, [1.0, 1.0, 1.0], atol=1e-12)


def test_thin_svd_diagonal_case():
    f = thin_svd(np.diag([3.0, 2.0]))
    assert np.allclose(f.singular_values, [3.0, 2.0], atol=1e-12)
    assert np.allclose(f.u, np.eye(2), atol=1e-12)
    assert np.allclose(f.v, np.eye(2), atol=1e-12)


def test_thin_svd_matches_gram_eigensolve_oracle():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((5, 3))
    f = thin_svd(m)
    # independent route: eigenvalues of M^T M
    gram_eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    assert np.allclose(f.singular_values**2, gram_eigs, rtol=1e-10, atol=1e-10)


def test_thin_svd_invariants_on_many_random_shapes():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = rng.standard_normal((rows, cols))
        f = thin_svd(m)
        k = min(rows, cols)
        assert len(f.singular_values) == k
        assert np.all(np.diff(f.singular_values) <= 1e-12)
        assert np.all(f.singular_values >= 0)
        assert np.max(np.abs(f.u.T @ f.u - np.eye(k))) < 1e-10
        assert np.max(np.abs(f.v.T @ f.v - np.eye(k))) < 1e-10
        rec = f.u @ np.diag(f.singular_values) @ f.v.T
        assert np.linalg.norm(rec - m) <= 1e-8 * max(np.linalg.norm(m), 1e-30)


def test_thin_svd_sign_convention_is_deterministic():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = rng.standard_normal((8, 6))
        f = thin_svd(m)
        for j in range(f.u.shape[1]):
            col = f.u[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


def test_column_signs_orient_largest_entry():
    a = np.array([[1.0, -3.0, 0.0, 2.0], [-2.0, 1.0, -0.5, -2.0]])
    signs = column_signs(a)
    assert np.array_equal(signs, [-1.0, -1.0, -1.0, 1.0])
    rng = np.random.default_rng(19)
    m = rng.standard_normal((9, 6))
    assert np.array_equal(m * column_signs(m), sign_canonical(m))


def test_gram_eigh_matches_thin_svd_on_tall_input():
    rng = np.random.default_rng(20)
    q = np.linalg.qr(rng.standard_normal((80, 6)))[0]
    w = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    m = q @ np.diag([9.0, 5.0, 3.0, 1.0, 0.5, 0.1]) @ w.T
    s, v = gram_eigh(m)
    f = thin_svd(m)
    assert np.max(np.abs(s - f.singular_values)) < 1e-12 * s[0]
    assert np.all(np.diff(s) <= 0)
    assert orthonormality_defect(v) < 1e-12
    assert np.max(np.abs(v - f.v * column_signs(f.v))) < 1e-10
    with pytest.raises(InvalidArgumentError):
        gram_eigh(np.array([[1.0, np.nan]]))


def test_thin_svd_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidArgumentError):
        thin_svd(np.array([[np.inf, 0.0]]))


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


def test_policy_parameter_validation():
    with pytest.raises(InvalidArgumentError):
        RankPolicy.cumulative_variance(0.0)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.cumulative_variance(1.5)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.eigen_floor(-1e-3)
    with pytest.raises(InvalidArgumentError):
        RankPolicy.fixed_k(0)


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
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            operator_norm(a)


def test_operator_norm_maps_lapack_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalFailureError):
        operator_norm(np.eye(3))
