import math
import re
import warnings

import numpy as np
import pytest

from uws import theory
from uws.errors import InvalidArgumentError, NumericalFailureError
from uws.theory import (
    BoundParameters,
    DkStudy,
    SyntheticEnsembleConfig,
    _batch_size,
    _descending_eigh,
    _dk_pairs,
    _in_trial_order,
    _moment_matrix,
    _sine,
    _symmetrised,
    convergence_study,
    davis_kahan_check,
    davis_kahan_study,
    population_second_moment,
    rank_within,
    sample_ensemble,
    theorem1_bounds,
    within_task_term,
)
from uws import cli

from oracles import (
    convergence_cells_by_loop,
    davis_kahan_reports_by_loop,
    haar_columns,
    synthetic_tasks_by_loop,
)


def opnorm_oracle(m):
    """Independent route: symmetric operator norm via a dense eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvalsh((m + m.T) / 2.0))))


def cfg(**kw):
    base = dict(d=8, k=3, n_tasks=20, seed=11)
    base.update(kw)
    return SyntheticEnsembleConfig(**base)


# -------------------------------------------------------------------- sampling


def test_an_ensemble_holds_its_tasks_as_two_arrays_and_nothing_else():
    ens = sample_ensemble(cfg(eta=0.2))
    assert ens.f_star.shape == ens.f_hat.shape == (20, 8)
    assert not hasattr(ens, "tasks")


def test_zero_eta_hats_equal_stars_exactly():
    ens = sample_ensemble(cfg(eta=0.0))
    assert len(ens.f_hat) == 20
    assert np.array_equal(ens.f_hat, ens.f_star)


def test_sampling_is_deterministic():
    a = sample_ensemble(cfg(eta=0.1, seed=5))
    b = sample_ensemble(cfg(eta=0.1, seed=5))
    c = sample_ensemble(cfg(eta=0.1, seed=6))
    assert np.array_equal(a.f_star, b.f_star)
    assert np.array_equal(a.f_hat, b.f_hat)
    assert not np.array_equal(a.f_star, c.f_star)


def test_norm_bound_holds_for_every_sample():
    ens = sample_ensemble(cfg(n_tasks=300, b=1.5, seed=3))
    assert np.all(np.linalg.norm(ens.f_star, axis=1) <= 1.5 + 1e-12)


def test_constant_norm_mode_pins_the_norm():
    ens = sample_ensemble(cfg(norm_mode="constant", b=2.0, n_tasks=50))
    for star in ens.f_star:
        assert np.linalg.norm(star) == pytest.approx(2.0, rel=1e-12)


def test_perturbation_magnitudes_match_eta():
    etas = [0.0, 0.05, 0.2, 0.0, 0.5] * 4
    ens = sample_ensemble(cfg(eta=etas, seed=9))
    for star, hat, e in zip(ens.f_star, ens.f_hat, etas):
        assert np.linalg.norm(hat - star) == pytest.approx(e, abs=1e-12)
    assert np.allclose(ens.config.etas, etas)


def test_radial_perturbation_keeps_direction():
    ens = sample_ensemble(cfg(eta=0.3, perturbation="radial", seed=4))
    for star, hat in zip(ens.f_star, ens.f_hat):
        ns, nh = np.linalg.norm(star), np.linalg.norm(hat)
        assert nh == pytest.approx(ns + 0.3, abs=1e-10)
        cosine = float(star @ hat) / (ns * nh)
        assert cosine == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("norm_mode", ["gaussian", "constant"])
@pytest.mark.parametrize("perturbation", ["isotropic", "radial"])
@pytest.mark.parametrize("per_task_eta", [False, True])
def test_batched_draw_matches_per_task_reference(norm_mode, perturbation, per_task_eta):
    # spectra: default uniform, a length-k profile and a decaying length-d tail
    spectra = [None] if norm_mode == "constant" else [None, [3.0, 2.0, 1.0], np.linspace(3.0, 0.1, 8)]
    eta = list(np.linspace(0.0, 0.6, 20)) if per_task_eta else 0.25
    for spectrum in spectra:
        for seed in range(4):
            config = cfg(eta=eta, spectrum=spectrum, seed=seed, norm_mode=norm_mode,
                         perturbation=perturbation)
            ens = sample_ensemble(config)
            basis, stars, hats = synthetic_tasks_by_loop(config, np.random.default_rng(seed))
            assert np.array_equal(ens.basis, basis)
            for got, want in ((ens.f_star, np.stack(stars)), (ens.f_hat, np.stack(hats))):
                # the GEMM sums in another order than the per-task GEMV:
                # 4 ulp of each task vector's norm
                ulp = np.spacing(np.linalg.norm(want, axis=1))[:, None]
                assert np.all(np.abs(got - want) <= 4 * ulp)


class _ZeroRow:
    """Generator stand-in that zeroes row 1 of the task batch (the 2-D draw
    after the basis), forcing the short-vector redraw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        if np.ndim(g) == 2 and g.shape[0] > 1 and self.batches == 1:
            g[1] = 0.0
        self.batches += np.ndim(g) == 2
        return g


@pytest.mark.parametrize("norm_mode", ["gaussian", "constant"])
def test_zero_draw_is_redrawn_not_divided(norm_mode):
    ens = sample_ensemble(cfg(eta=0.2, norm_mode=norm_mode), rng=_ZeroRow(3))
    star, hat = ens.f_star[1], ens.f_hat[1]
    assert np.all(np.isfinite(star)) and np.all(np.isfinite(hat))
    assert np.linalg.norm(hat - star) == pytest.approx(0.2, abs=1e-12)
    if norm_mode == "constant":
        assert np.linalg.norm(star) == pytest.approx(ens.config.b, rel=1e-12)
    else:
        assert np.array_equal(star, np.zeros(8))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        cfg(k=9)  # k > d
    with pytest.raises(InvalidArgumentError):
        cfg(k=0)
    with pytest.raises(InvalidArgumentError):
        cfg(n_tasks=0)
    with pytest.raises(InvalidArgumentError):
        cfg(eta=-0.1)
    with pytest.raises(InvalidArgumentError):
        cfg(eta=[0.1, 0.2])  # wrong length
    with pytest.raises(InvalidArgumentError):
        cfg(spectrum=[1.0, 2.0, 3.0])  # increasing
    with pytest.raises(InvalidArgumentError):
        cfg(spectrum=[1.0, 0.5])  # wrong length
    with pytest.raises(InvalidArgumentError, match="finite sum"):
        cfg(spectrum=[1e308, 1e308, 1e308])  # each entry finite, the trace not
    with pytest.raises(InvalidArgumentError):
        cfg(norm_mode="constant", spectrum=[2.0, 1.0, 0.5])
    with pytest.raises(InvalidArgumentError):
        cfg(norm_mode="bizarre")
    with pytest.raises(InvalidArgumentError):
        cfg(perturbation="sideways")
    with pytest.raises(InvalidArgumentError):
        cfg(b=0.0)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        cfg(norm_mode="constant", b=1e200)  # b**2 is not a float


def test_a_config_resolves_its_facts_once():
    uniform = cfg(eta=0.2)
    assert np.array_equal(uniform.spectrum, np.ones(3))
    assert uniform.b == 3.0 * math.sqrt(3.0)
    assert uniform.eta == 0.2 and np.array_equal(uniform.etas, np.full(20, 0.2))
    assert np.array_equal(uniform.population_eigenvalues, np.ones(3)) and uniform.gamma == 1.0
    given = np.array([4.0, 2.0, 1.0] + [0.5] * 5)
    tail = cfg(spectrum=given, eta=[0.1] * 20, b=5.0)
    assert tail.spectrum is not given  # the config keeps its own copy
    assert np.array_equal(tail.spectrum, given) and tail.b == 5.0
    assert np.array_equal(tail.etas, np.full(20, 0.1))
    assert tail.population_eigenvalues is tail.spectrum and tail.gamma == 0.5
    constant = cfg(norm_mode="constant", b=3.0)
    assert np.array_equal(constant.population_eigenvalues, np.full(3, 3.0))
    assert constant.gamma == 3.0
    assert cfg(norm_mode="constant").b == math.sqrt(3.0)
    ens = sample_ensemble(constant)
    assert ens.config is constant
    assert not any(hasattr(ens, name) for name in ("spectrum", "b", "etas", "gamma"))


def test_a_within_task_report_is_returned_only_when_the_cap_holds(monkeypatch):
    rep = within_task_term([[1.0, 0.0]], [[1.3, 0.0]], b=1.0)
    assert not hasattr(rep, "holds")
    monkeypatch.setattr(theory, "operator_norm", lambda m: 1.0)
    with pytest.raises(NumericalFailureError, match="^within-task cap violated: measured "):
        within_task_term([[1.0, 0.0]], [[1.3, 0.0]], b=1.0)


def test_full_dimensional_isotropic_effective_rank():
    ens = sample_ensemble(
        SyntheticEnsembleConfig(d=6, k=6, n_tasks=10_000, seed=12)
    )
    learned = _moment_matrix(ens.f_hat)
    effective_rank = np.trace(learned) / opnorm_oracle(learned)
    assert effective_rank == pytest.approx(6.0, rel=0.05)


# --------------------------------------------------------------- second moment


def test_second_moment_hand_cases():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    single = _moment_matrix(e1[None])
    assert np.allclose(single, np.outer(e1, e1), atol=1e-15)
    assert np.trace(single) == pytest.approx(1.0, abs=1e-15)
    pair = _moment_matrix(np.stack([e1, e2]))
    assert np.allclose(pair, 0.5 * np.eye(2), atol=1e-15)
    assert opnorm_oracle(pair) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InvalidArgumentError, match="vectors must be finite"):
        _moment_matrix(np.array([[1.0, np.nan]]))


def test_trace_equals_mean_squared_norm():
    rng = np.random.default_rng(14)
    vecs = [rng.standard_normal(7) for _ in range(50)]
    op = _moment_matrix(np.stack(vecs))
    assert np.trace(op) == pytest.approx(
        float(np.mean([v @ v for v in vecs])), rel=1e-10
    )


def test_population_operator_is_exact_for_constant_mode():
    ens = sample_ensemble(cfg(norm_mode="constant", b=2.0, seed=21))
    phi = ens.basis[:, :3]
    expected = (4.0 / 3.0) * (phi @ phi.T)
    assert np.allclose(ens.population, expected, atol=1e-12)
    assert np.array_equal(ens.population, ens.population.T)


def test_sampled_operators_are_psd_with_bounded_deviation():
    rng = np.random.default_rng(15)
    for trial in range(50):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d + 1))
        ens = sample_ensemble(
            SyntheticEnsembleConfig(
                d=d,
                k=k,
                n_tasks=int(rng.integers(1, 30)),
                eta=float(rng.uniform(0.0, 0.4)),
            ),
            rng=np.random.default_rng([15, trial]),
        )
        emp = _moment_matrix(ens.f_star)
        assert np.min(np.linalg.eigvalsh(emp)) >= -1e-10
        dev = opnorm_oracle(emp - ens.population)
        assert dev <= 2.0 * ens.config.b**2 + 1e-8


# ------------------------------------------------------------------ projectors


def test_top_k_projector_on_diagonal_operator():
    s = population_second_moment(np.eye(3), np.array([3.0, 2.0, 1.0]))
    w, v2 = _descending_eigh(s, 2)
    assert np.array_equal(w, [3.0, 2.0, 1.0])
    assert np.allclose(v2 @ v2.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    v3 = _descending_eigh(s, 3)[1]
    assert np.allclose(v3 @ v3.T, np.eye(3), atol=1e-12)
    assert _descending_eigh(s)[1].shape == (3, 3)
    # the eigengap at k = d is lambda_d - 0
    assert [davis_kahan_check(s, s, k).gamma for k in (2, 3)] == [1.0, 1.0]


def test_projector_matches_dense_eigensolve():
    rng = np.random.default_rng(16)
    for trial in range(25):
        d = int(rng.integers(2, 12))
        q = haar_columns(d, d, rng)
        lam = np.sort(rng.uniform(0.1, 3.0, d))[::-1]
        s = population_second_moment(q, lam)
        k = int(rng.integers(1, d + 1))
        p = _descending_eigh(s, k)[1]
        # independent route: brute-force eigensolve, top-k columns
        w, v = np.linalg.eigh(s)
        top = v[:, np.argsort(w)[::-1][:k]]
        assert np.allclose(p @ p.T, top @ top.T, atol=1e-8)
        assert np.trace(p @ p.T) == pytest.approx(k, abs=1e-6)


def test_top_k_basis_is_the_reordered_eigh_columns_in_their_layout():
    # the sine distance rounds differently for C- and Fortran-ordered bases,
    # so the layout of v[:, order] is part of the result
    ens = sample_ensemble(SyntheticEnsembleConfig(d=64, k=4, n_tasks=50, eta=0.2, seed=33))
    learned = _symmetrised(_moment_matrix(ens.f_hat))
    w, v = np.linalg.eigh(learned)
    want = v[:, np.argsort(w)[::-1]][:, :4]
    got = _descending_eigh(learned, 4)[1]
    assert np.array_equal(got, want) and got.strides == want.strides
    planted = ens.basis[:, :4]
    sine = float(np.linalg.norm(planted - want @ (want.T @ planted), 2))
    assert repr(float(_sine(got, planted))) == repr(sine)


def test_subspace_distance_hand_values_and_dual_route():
    e1, e2 = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
    assert _sine(e1, e1) == 0.0
    assert _sine(e1, e2) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d))
        qa, qb = haar_columns(d, k, rng), haar_columns(d, k, rng)
        got = float(_sine(qa, qb))
        want = opnorm_oracle(qa @ qa.T - qb @ qb.T)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
        assert got <= 1.0 + 1e-12  # equal-rank projector distance cap


@pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-3, math.pi / 4, math.pi / 2])
def test_subspace_distance_closed_form_sine(theta):
    d = 5
    u = np.zeros((d, 1))
    u[0, 0] = 1.0
    v = np.zeros((d, 1))
    v[0, 0], v[1, 0] = math.cos(theta), math.sin(theta)
    assert abs(_sine(u, v) - math.sin(theta)) <= 1e-15
    assert abs(_sine(v, u) - math.sin(theta)) <= 1e-15


# ---------------------------------------------------------------------- bounds


def test_delta_splitting():
    p = BoundParameters(b=1.0, delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.01)
    assert p.delta_t == pytest.approx(0.5 / 200, rel=1e-15)
    assert p.delta_big_t == pytest.approx(0.25, rel=1e-15)


def test_theorem_bounds_hand_arithmetic():
    p = BoundParameters(
        b=1.0, delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.01, gamma_k=0.5
    )
    got = theorem1_bounds(p)
    hand_op = math.sqrt(math.log(2.0) / 100.0) + 0.21
    assert got.op_bound == pytest.approx(hand_op, rel=1e-12)
    assert got.subspace_bound == pytest.approx(4.0 * hand_op, rel=1e-12)
    assert got.within_task_floor == pytest.approx(0.21, rel=1e-12)
    # noise-free reduction: only the sampling term remains
    q = BoundParameters(b=2.0, delta=0.1, n_tasks=50, eta_bar=0.0, eta2_bar=0.0)
    r = theorem1_bounds(q)
    assert r.op_bound == pytest.approx(4.0 * math.sqrt(math.log(10.0) / 50.0), rel=1e-12)
    assert r.subspace_bound is None


def test_theorem_bounds_validation_and_monotonicity():
    with pytest.raises(InvalidArgumentError):
        BoundParameters(b=0.0, delta=0.5, n_tasks=10, eta_bar=0.0, eta2_bar=0.0)
    with pytest.raises(InvalidArgumentError):
        BoundParameters(b=1.0, delta=1.5, n_tasks=10, eta_bar=0.0, eta2_bar=0.0)
    with pytest.raises(InvalidArgumentError):
        BoundParameters(b=1.0, delta=0.5, n_tasks=0, eta_bar=0.0, eta2_bar=0.0)
    with pytest.raises(InvalidArgumentError):
        theorem1_bounds(
            BoundParameters(b=1.0, delta=0.5, n_tasks=10, eta_bar=0.0, eta2_bar=0.0, c2=0.1)
        )
    with pytest.raises(InvalidArgumentError):
        theorem1_bounds(
            BoundParameters(
                b=1.0, delta=0.5, n_tasks=10, eta_bar=0.0, eta2_bar=0.0, gamma_k=0.0
            )
        )
    def op(**kw):
        base = dict(b=1.0, delta=0.1, n_tasks=100, eta_bar=0.1, eta2_bar=0.01)
        base.update(kw)
        return theorem1_bounds(BoundParameters(**base)).op_bound

    assert op(n_tasks=1000) < op(n_tasks=100) < op(n_tasks=10)
    assert op(eta_bar=0.2) > op(eta_bar=0.1)
    assert op(b=2.0) > op(b=1.0)


@pytest.mark.parametrize("gamma_k", [math.inf, math.nan, 0.0, -1.0])
def test_bound_parameters_refuse_a_gap_that_is_not_finite_and_positive(gamma_k):
    with pytest.raises(InvalidArgumentError, match="gamma_k must be positive and finite"):
        BoundParameters(b=1.0, delta=0.5, n_tasks=10, eta_bar=0.0, eta2_bar=0.0,
                        gamma_k=gamma_k)


def test_theorem_bounds_reject_a_bound_that_is_not_finite():
    base = dict(delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.01)
    for kw in (dict(b=1e200),  # b**2 overflows
               dict(b=1e10, c1=1e300),  # the product overflows to inf
               dict(b=1.0, gamma_k=1e-320)):  # 2/gamma_k overflows
        with pytest.raises(InvalidArgumentError, match="not finite"):
            theorem1_bounds(BoundParameters(**base, **kw))


# ----------------------------------------------------------------- within-task


def test_within_task_radial_single_task_attains_cap():
    rep = within_task_term([[1.0, 0.0]], [[1.3, 0.0]], b=1.0)
    assert rep.measured == pytest.approx(0.69, abs=1e-10)
    assert rep.cap == pytest.approx(0.69, rel=1e-12)


def test_within_task_default_b_is_the_largest_task_norm():
    stars, hats = np.array([[0.6, 0.0], [0.0, 0.8]]), np.array([[0.6, 0.1], [0.1, 0.8]])
    rep = within_task_term(stars, hats)
    assert rep.b == 0.8
    assert rep == within_task_term(stars, hats, b=0.8)


def test_within_task_orthogonal_single_task_closed_form():
    eta = 0.3
    rep = within_task_term([[1.0, 0.0]], [[1.0, eta]], b=1.0)
    # difference matrix [[0, eta], [eta, eta^2]]: largest eigenvalue by hand
    hand = (eta**2 + math.sqrt(eta**4 + 4 * eta**2)) / 2.0
    assert rep.measured == pytest.approx(hand, abs=1e-10)
    assert rep.measured <= rep.cap + 1e-12
    assert rep.cap == pytest.approx(2 * eta + eta**2, rel=1e-12)


def test_within_task_zero_perturbation_and_validation():
    rep = within_task_term([[0.5, 0.5]], [[0.5, 0.5]], b=1.0)
    assert rep.measured == 0.0 and rep.cap == 0.0
    with pytest.raises(InvalidArgumentError, match="does not bound"):
        within_task_term([[2.0, 0.0]], [[2.0, 0.0]], b=1.0)
    with pytest.raises(InvalidArgumentError, match="at least one task"):
        within_task_term(np.zeros((0, 2)), np.zeros((0, 2)), b=1.0)
    for stars, hats in (([[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]),  # task counts differ
                        ([[0.5, 0.5]], [[0.5, 0.5, 0.0]]),  # f_hat longer than f_star
                        ([0.5, 0.5], [0.5, 0.5]),  # one task as a vector
                        ([[[0.5]]], [[[0.5]]])):  # 3-D
        with pytest.raises(InvalidArgumentError, match=r"\(n_tasks, d\) arrays of one shape"):
            within_task_term(stars, hats, b=1.0)


def test_within_task_cap_on_sampled_ensembles_and_additivity():
    rng = np.random.default_rng(18)
    for trial in range(50):
        ens = sample_ensemble(
            SyntheticEnsembleConfig(
                d=int(rng.integers(2, 10)),
                k=2,
                n_tasks=int(rng.integers(2, 25)),
                eta=float(rng.uniform(0.0, 0.5)),
            ),
            rng=np.random.default_rng([18, trial]),
        )
        rep = within_task_term(ens.f_star, ens.f_hat, b=ens.config.b)  # raises past the cap
        assert rep.measured <= rep.cap + 1e-8
    ens = sample_ensemble(cfg(eta=0.2, n_tasks=12, seed=19))
    b = ens.config.b
    whole = within_task_term(ens.f_star, ens.f_hat, b=b)
    a = within_task_term(ens.f_star[:5], ens.f_hat[:5], b=b)
    bb = within_task_term(ens.f_star[5:], ens.f_hat[5:], b=b)
    assert 12 * whole.cap == pytest.approx(5 * a.cap + 7 * bb.cap, rel=1e-12)


# ----------------------------------------------------------------- Davis-Kahan


def test_davis_kahan_identity_and_degenerate():
    s = population_second_moment(np.eye(3), np.array([2.0, 1.0, 0.0]))
    rep = davis_kahan_check(s, s, 1)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds
    flat = population_second_moment(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        davis_kahan_check(flat, flat, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: population_second_moment(np.eye(3), [1.0, 1.0]),
     "basis (3, 3) does not match spectrum of length 2"),
    (lambda: population_second_moment(np.ones((2, 2)), [1.0, 1.0]),
     "basis columns are not orthonormal (defect 2.00e+00)"),
    (lambda: davis_kahan_check(np.eye(3), np.eye(2), 1),
     "s_ref and s_pert must be d x d operators of one d, got shapes (3, 3) and (2, 2)"),
], ids=["population-mismatch", "population-not-orthonormal", "dk-two-d"])
def test_operators_that_do_not_fit_are_refused(call, message):
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message) + "$"):
        call()


def test_asymmetric_operator_near_the_float_limit_is_rejected_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            davis_kahan_check(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), np.eye(2), 1)


def test_davis_kahan_monte_carlo():
    rng = np.random.default_rng(20)
    base = np.diag([2.0, 1.0, 0.0])
    for trial in range(100):
        g = rng.standard_normal((3, 3))
        sym = (g + g.T) / 2.0
        sym /= opnorm_oracle(sym)
        pert = base + 0.1 * sym
        rep = davis_kahan_check(base, pert, 1)
        assert rep.holds
        assert rep.gamma == pytest.approx(1.0, abs=1e-12)


def test_davis_kahan_near_degenerate_still_holds():
    ref = np.diag([1.0, 1.0 - 1e-3, 0.5])
    pert = ref + 1e-6 * np.eye(3)
    rep = davis_kahan_check(ref, pert, 1)
    assert rep.gamma == pytest.approx(1e-3, rel=1e-9)
    assert rep.holds


# ----------------------------------------------------------------- convergence


def test_convergence_study_shrinks_with_more_tasks():
    report = convergence_study(
        d=16, k=2, t_grid=[20, 40, 80, 160], n_trials=12, eta=0.0, seed=23
    )
    assert report.op_error.shape == report.subspace_error.shape == (4 * 12,)
    assert report.slope is not None
    assert -0.8 <= report.slope <= -0.2
    means = [report.mean_op_error[t] for t in (20, 40, 80, 160)]
    assert means[0] > means[-1]
    bounds = [report.bounds[t].op_bound for t in (20, 40, 80, 160)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert np.all(report.op_error >= 0.0)
    assert np.all(report.subspace_error <= 2.0 + 1e-12)


def test_convergence_cells_are_four_arrays_in_cell_order():
    report = convergence_study(d=8, k=2, t_grid=[20, 10], n_trials=3, eta=0.1, seed=7)
    assert report.n_tasks.tolist() == [20, 20, 20, 10, 10, 10]
    assert report.trial.tolist() == [0, 1, 2, 0, 1, 2]
    assert report.op_error.dtype == report.subspace_error.dtype == np.float64
    assert list(report.bounds) == [20, 10]
    assert report.mean_op_error[10] == float(np.mean(report.op_error[3:]))


def test_each_convergence_bound_is_theorem1_at_its_t_and_the_csv_states_it_once(tmp_path):
    report = convergence_study(d=64, k=4, t_grid=[25, 200], n_trials=12, eta=0.2, seed=41)
    for t in (25, 200):
        assert report.bounds[t] == theorem1_bounds(BoundParameters(
            b=report.b, delta=0.05, n_tasks=t, eta_bar=float(np.full(t, 0.2).mean()),
            eta2_bar=float((np.full(t, 0.2)**2).mean()), gamma_k=1.0))
    out = tmp_path / "r.csv"
    assert cli.main(["theory", "converge", "--d", "64", "--k", "4", "--t-grid", "25,200",
                     "--trials", "12", "--eta", "0.2", "--seed", "41", "--out", str(out)]) == 0
    text = out.read_text()
    for t in (25, 200):
        for key, value in ((f"mean_op_bound[{t}]", report.bounds[t].op_bound),
                           (f"subspace_bound[{t}]", report.bounds[t].subspace_bound)):
            assert text.count(repr(value)) == 1
            assert f"# {key}: {value!r}\n" in text


def test_the_reports_floor_is_every_bounds_floor_bit_for_bit():
    # at T = 3, 20, 25 and 160 the mean of T copies of 0.2, or of their
    # squares, is not 0.2 (or 0.2 * 0.2) to the last bit
    report = convergence_study(d=8, k=2, t_grid=[3, 10, 20, 25, 160], n_trials=1, eta=0.2,
                               seed=1)
    assert report.within_task_floor == 2.0 * report.b * 0.2 + 0.2 * 0.2
    for bounds in report.bounds.values():
        assert bounds.within_task_floor == report.within_task_floor


def test_convergence_study_degenerate_grid():
    report = convergence_study(d=6, k=2, t_grid=[1], n_trials=3, eta=0.0, seed=1)
    assert report.slope is None
    assert report.op_error.shape == (3,)


def test_convergence_study_is_deterministic():
    a = convergence_study(d=8, k=2, t_grid=[10, 20], n_trials=4, eta=0.1, seed=7)
    b = convergence_study(d=8, k=2, t_grid=[10, 20], n_trials=4, eta=0.1, seed=7)
    for name in ("n_tasks", "trial", "op_error", "subspace_error"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.bounds == b.bounds


def test_convergence_plateau_exact_in_radial_constant_mode():
    report = convergence_study(
        d=10,
        k=1,
        t_grid=[10, 40, 160],
        n_trials=5,
        eta=0.3,
        seed=2,
        norm_mode="constant",
        perturbation="radial",
    )
    floor = report.within_task_floor
    assert floor == pytest.approx(2 * 0.3 + 0.09, rel=1e-12)
    for t in (10, 40, 160):
        assert report.mean_op_error[t] == pytest.approx(floor, rel=1e-6)
        assert report.mean_subspace_error[t] <= 1e-8


def test_convergence_grid_validation():
    with pytest.raises(InvalidArgumentError):
        convergence_study(d=6, k=2, t_grid=[], n_trials=3)
    with pytest.raises(InvalidArgumentError):
        convergence_study(d=6, k=2, t_grid=[10], n_trials=0)
    with pytest.raises(InvalidArgumentError):
        convergence_study(d=6, k=2, t_grid=[0], n_trials=3)
    with pytest.raises(InvalidArgumentError, match="seed"):
        convergence_study(d=6, k=2, t_grid=[10], n_trials=3, seed=-1)
    with pytest.raises(InvalidArgumentError,
                       match="^t_grid must not repeat a T, got 8 more than once$"):
        convergence_study(d=6, k=2, t_grid=[4, 8, 16, 8], n_trials=3)
    with pytest.raises(InvalidArgumentError, match="^convergence studies take a scalar eta$"):
        convergence_study(d=6, k=2, t_grid=[10], n_trials=3, eta=[0.1, 0.2])


def test_one_rule_says_k_may_not_exceed_d():
    words = "k must not exceed d = 4, got 5"
    for call in (lambda: SyntheticEnsembleConfig(d=4, k=5, n_tasks=3),
                 lambda: davis_kahan_study(4, 5, 0.1, 1),
                 lambda: davis_kahan_check(np.eye(4), np.eye(4), 5),
                 lambda: convergence_study(d=4, k=5, t_grid=[3], n_trials=1),
                 lambda: rank_within(5, 4)):
        with pytest.raises(InvalidArgumentError, match=f"^{words}$"):
            call()
    assert rank_within(np.int64(4), 4) == 4
    with pytest.raises(InvalidArgumentError, match="^--k must not exceed --d = 2, got 3$"):
        rank_within(3, 2, ("--k", "--d"))


# ------------------------------------------------------- batched trials


STUDY_CASES = {
    "gaussian-isotropic": dict(n_trials=13),
    "gaussian-radial": dict(perturbation="radial", n_trials=8),
    "constant-isotropic": dict(norm_mode="constant", n_trials=1),
    "constant-radial": dict(norm_mode="constant", perturbation="radial", n_trials=13),
    "length-d-spectrum": dict(spectrum=list(np.linspace(3.0, 0.1, 8)), n_trials=8),
}


@pytest.mark.parametrize("case", list(STUDY_CASES.values()), ids=list(STUDY_CASES))
def test_convergence_rows_equal_the_per_trial_loop_bit_for_bit(case):
    # T = 5 < d = 8 < T = 20; 13 trials fill one batch and part of another
    kwargs = dict(d=8, k=3, t_grid=[5, 20], eta=0.2, seed=29, **case)
    report = convergence_study(**kwargs)
    got = [getattr(report, name).tolist()
           for name in ("n_tasks", "trial", "op_error", "subspace_error")]
    n_tasks, trial, op_error, subspace_error, bounds = convergence_cells_by_loop(**kwargs)
    assert repr(got) == repr([n_tasks, trial, op_error, subspace_error])
    assert repr(report.bounds) == repr(bounds)


@pytest.mark.parametrize("d, k, trials", [(6, 2, 1), (8, 3, 8), (10, 10, 13)])
def test_davis_kahan_study_equals_the_per_trial_checks_bit_for_bit(d, k, trials):
    study = davis_kahan_study(d, k, 0.05, trials, seed=31)
    assert isinstance(study, DkStudy) and study.lhs.shape == (trials,)
    want = davis_kahan_reports_by_loop(d, k, 0.05, trials, 31)
    assert repr([(float(a), float(b)) for a, b in zip(study.lhs, study.rhs)]) == repr(
        [(w.lhs, w.rhs) for w in want])
    assert [bool(h) for h in study.holds] == [w.holds for w in want]


def test_a_batch_raises_the_error_its_first_failing_trial_raises_alone():
    # pair 1's bound overflows (gamma_k = 2**-1028); pair 2's gap is 0, which
    # a stage-by-stage batch would report first, as its check comes earlier
    ref = np.stack([np.diag([2.0, 1.0]), np.diag([2.0**-1028, 0.0]), np.zeros((2, 2))])
    pert = ref + np.stack([[[0.0, 0.1], [0.1, 0.0]], np.diag([0.0, 1.0]), 0.1 * np.eye(2)])
    errors = []
    for r, p in zip(ref, pert):
        try:
            davis_kahan_check(r, p, 1)
        except InvalidArgumentError as exc:
            errors.append(str(exc))
    assert len(errors) == 2 and "not finite" in errors[0] and "vacuous" in errors[1]
    with pytest.raises(InvalidArgumentError) as batch:
        _in_trial_order(lambda i: _dk_pairs(ref[i], pert[i], 1), 3)
    assert str(batch.value) == errors[0]


def test_a_failing_convergence_trial_raises_what_the_per_trial_loop_raises():
    # radial eta / |f_star| overflows, so every f_hat is non-finite
    kwargs = dict(d=6, k=1, t_grid=[4], n_trials=3, eta=1e307, b=1e-3, seed=3,
                  norm_mode="constant", perturbation="radial")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidArgumentError) as want:
            convergence_cells_by_loop(**kwargs)
        with pytest.raises(InvalidArgumentError) as got:
            convergence_study(**kwargs)
    assert str(got.value) == str(want.value) == "vectors must be finite, got -inf at index (0, 0)"


def test_batches_hold_at_most_a_mebibyte_of_stacks():
    assert [_batch_size(d) for d in (8, 64, 128, 181, 182, 10**7)] == [8, 8, 4, 2, 1, 1]


def test_davis_kahan_study_validates_its_arguments():
    for args in ((4, 5, 0.1, 3), (4, 2, 0.0, 3), (4, 2, 0.1, 0), (0, 1, 0.1, 3),
                 (4, 2, 0.1, 3, -1)):
        with pytest.raises(InvalidArgumentError):
            davis_kahan_study(*args)
