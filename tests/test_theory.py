import math

import numpy as np
import pytest

from uws.errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from uws.theory import (
    BoundParameters,
    SyntheticEnsembleConfig,
    TaskVector,
    convergence_study,
    davis_kahan_check,
    eta_from_complexity,
    excess_risk_report,
    optimal_projection_risk,
    population_second_moment,
    projection_risk,
    sample_ensemble,
    second_moment,
    subspace_distance,
    theorem1_bounds,
    top_k_projector,
    within_task_term,
)

from oracles import haar_columns, synthetic_tasks_by_loop


def opnorm_oracle(m):
    """Independent route: symmetric operator norm via a dense eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvalsh((m + m.T) / 2.0))))


def second_moment_from_matrix(m):
    from uws.theory import SecondMomentOperator

    return SecondMomentOperator(matrix=np.asarray(m, dtype=np.float64), kind="population")


def cfg(**kw):
    base = dict(d=8, k=3, n_tasks=20, seed=11)
    base.update(kw)
    return SyntheticEnsembleConfig(**base)


# -------------------------------------------------------------------- sampling


def test_zero_eta_hats_equal_stars_exactly():
    ens = sample_ensemble(cfg(eta=0.0))
    assert len(ens.tasks) == 20
    for t in ens.tasks:
        assert np.array_equal(t.f_hat, t.f_star)


def test_sampling_is_deterministic():
    a = sample_ensemble(cfg(eta=0.1, seed=5))
    b = sample_ensemble(cfg(eta=0.1, seed=5))
    c = sample_ensemble(cfg(eta=0.1, seed=6))
    for x, y in zip(a.tasks, b.tasks):
        assert np.array_equal(x.f_star, y.f_star)
        assert np.array_equal(x.f_hat, y.f_hat)
    assert any(
        not np.array_equal(x.f_star, y.f_star) for x, y in zip(a.tasks, c.tasks)
    )


def test_norm_bound_holds_for_every_sample():
    ens = sample_ensemble(cfg(n_tasks=300, b=1.5, seed=3))
    for t in ens.tasks:
        assert np.linalg.norm(t.f_star) <= 1.5 + 1e-12


def test_constant_norm_mode_pins_the_norm():
    ens = sample_ensemble(cfg(norm_mode="constant", b=2.0, n_tasks=50))
    for t in ens.tasks:
        assert np.linalg.norm(t.f_star) == pytest.approx(2.0, rel=1e-12)


def test_perturbation_magnitudes_match_eta():
    etas = [0.0, 0.05, 0.2, 0.0, 0.5] * 4
    ens = sample_ensemble(cfg(eta=etas, seed=9))
    for t, e in zip(ens.tasks, etas):
        assert np.linalg.norm(t.f_hat - t.f_star) == pytest.approx(e, abs=1e-12)
    assert np.allclose(ens.etas, etas)


def test_radial_perturbation_keeps_direction():
    ens = sample_ensemble(cfg(eta=0.3, perturbation="radial", seed=4))
    for t in ens.tasks:
        ns, nh = np.linalg.norm(t.f_star), np.linalg.norm(t.f_hat)
        assert nh == pytest.approx(ns + 0.3, abs=1e-10)
        cosine = float(t.f_star @ t.f_hat) / (ns * nh)
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
            assert all(isinstance(t, TaskVector) for t in ens.tasks)
            for got, want in ((np.stack([t.f_star for t in ens.tasks]), np.stack(stars)),
                              (np.stack([t.f_hat for t in ens.tasks]), np.stack(hats))):
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
    star, hat = ens.tasks[1].f_star, ens.tasks[1].f_hat
    assert np.all(np.isfinite(star)) and np.all(np.isfinite(hat))
    assert np.linalg.norm(hat - star) == pytest.approx(0.2, abs=1e-12)
    if norm_mode == "constant":
        assert np.linalg.norm(star) == pytest.approx(ens.b, rel=1e-12)
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
    with pytest.raises(InvalidArgumentError):
        cfg(norm_mode="constant", spectrum=[2.0, 1.0, 0.5])
    with pytest.raises(InvalidArgumentError):
        cfg(norm_mode="bizarre")
    with pytest.raises(InvalidArgumentError):
        cfg(perturbation="sideways")
    with pytest.raises(InvalidArgumentError):
        cfg(b=0.0)


def test_full_dimensional_isotropic_effective_rank():
    ens = sample_ensemble(
        SyntheticEnsembleConfig(d=6, k=6, n_tasks=10_000, seed=12)
    )
    learned = second_moment([t.f_hat for t in ens.tasks], "learned_empirical")
    assert learned.effective_rank() == pytest.approx(6.0, rel=0.05)


# --------------------------------------------------------------- second moment


def test_second_moment_hand_cases():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    single = second_moment([e1], "true_empirical")
    assert np.allclose(single.matrix, np.outer(e1, e1), atol=1e-15)
    assert single.trace() == pytest.approx(1.0, abs=1e-15)
    pair = second_moment([e1, e2], "learned_empirical")
    assert np.allclose(pair.matrix, 0.5 * np.eye(2), atol=1e-15)
    assert opnorm_oracle(pair.matrix) == pytest.approx(0.5, abs=1e-12)
    assert pair.kind == "learned_empirical"
    with pytest.raises(InvalidArgumentError):
        second_moment([], "true_empirical")
    with pytest.raises(InvalidArgumentError):
        second_moment([e1], "some_other_kind")


def test_trace_equals_mean_squared_norm():
    rng = np.random.default_rng(14)
    vecs = [rng.standard_normal(7) for _ in range(50)]
    op = second_moment(vecs, "true_empirical")
    assert op.trace() == pytest.approx(
        float(np.mean([v @ v for v in vecs])), rel=1e-10
    )


def test_population_operator_is_exact_for_constant_mode():
    ens = sample_ensemble(cfg(norm_mode="constant", b=2.0, seed=21))
    phi = ens.basis[:, :3]
    expected = (4.0 / 3.0) * (phi @ phi.T)
    assert np.allclose(ens.population.matrix, expected, atol=1e-12)
    assert ens.population.kind == "population"
    p = ens.planted_projector
    assert np.allclose(p.matrix, p.matrix.T, atol=1e-12)
    assert np.allclose(p.matrix @ p.matrix, p.matrix, atol=1e-10)
    assert np.trace(p.matrix) == pytest.approx(3.0, abs=1e-8)


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
                seed=[15, trial],
            )
        )
        emp = second_moment([t.f_star for t in ens.tasks], "true_empirical")
        assert np.min(np.linalg.eigvalsh(emp.matrix)) >= -1e-10
        dev = opnorm_oracle(emp.matrix - ens.population.matrix)
        assert dev <= 2.0 * ens.b**2 + 1e-8


# ------------------------------------------------------------------ projectors


def test_top_k_projector_on_diagonal_operator():
    s = population_second_moment(np.eye(3), np.array([3.0, 2.0, 1.0]))
    p2, gap2 = top_k_projector(s, 2)
    assert np.allclose(p2.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert gap2 == pytest.approx(1.0, abs=1e-12)
    assert not p2.degenerate_gap
    p3, gap3 = top_k_projector(s, 3)
    assert np.allclose(p3.matrix, np.eye(3), atol=1e-12)
    assert gap3 == pytest.approx(1.0, abs=1e-12)  # lambda_d - 0
    tied = population_second_moment(np.eye(3), np.array([2.0, 2.0, 1.0]))
    p1, gap1 = top_k_projector(tied, 1)
    assert p1.degenerate_gap
    assert gap1 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        top_k_projector(s, 4)
    with pytest.raises(InvalidArgumentError):
        top_k_projector(s, 0)


def test_projector_matches_dense_eigensolve():
    rng = np.random.default_rng(16)
    for trial in range(25):
        d = int(rng.integers(2, 12))
        q = haar_columns(d, d, rng)
        lam = np.sort(rng.uniform(0.1, 3.0, d))[::-1]
        s = population_second_moment(q, lam)
        k = int(rng.integers(1, d + 1))
        p, _ = top_k_projector(s, k)
        # independent route: brute-force eigensolve, top-k columns
        w, v = np.linalg.eigh(s.matrix)
        top = v[:, np.argsort(w)[::-1][:k]]
        assert np.allclose(p.matrix, top @ top.T, atol=1e-8)
        assert np.trace(p.matrix) == pytest.approx(k, abs=1e-6)


def test_subspace_distance_hand_values_and_dual_route():
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    e2 = np.zeros((3, 3))
    e2[1, 1] = 1.0
    s = population_second_moment(np.eye(3), np.array([3.0, 2.0, 1.0]))
    p, _ = top_k_projector(s, 1)
    assert subspace_distance(p, p) == pytest.approx(0.0, abs=1e-12)
    pa, _ = top_k_projector(population_second_moment(np.eye(3), np.array([3.0, 0.0, 0.0])), 1)
    pb, _ = top_k_projector(
        population_second_moment(np.eye(3)[:, [1, 0, 2]], np.array([3.0, 0.0, 0.0])), 1
    )
    assert np.allclose(pa.matrix, e1, atol=1e-12) and np.allclose(pb.matrix, e2, atol=1e-12)
    assert subspace_distance(pa, pb) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d))
        qa, qb = haar_columns(d, k, rng), haar_columns(d, k, rng)
        sa = population_second_moment(qa, np.ones(k))
        sb = population_second_moment(qb, np.ones(k))
        p_a, _ = top_k_projector(sa, k)
        p_b, _ = top_k_projector(sb, k)
        got = subspace_distance(p_a, p_b)
        want = opnorm_oracle(p_a.matrix - p_b.matrix)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
        assert got <= 1.0 + 1e-12  # equal-rank projector distance cap


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


def test_theorem_bounds_reject_a_bound_that_is_not_finite():
    base = dict(delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.01)
    for kw in (dict(b=1e200),  # b**2 overflows
               dict(b=1e10, c1=1e300),  # the product overflows to inf
               dict(b=1.0, gamma_k=1e-320)):  # 2/gamma_k overflows
        with pytest.raises(InvalidArgumentError, match="not finite"):
            theorem1_bounds(BoundParameters(**base, **kw))


def test_eta_from_complexity_hand():
    got = eta_from_complexity(0.1, 50, 0.01)
    assert got == pytest.approx(0.1 + math.sqrt(math.log(100.0) / 100.0), rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        eta_from_complexity(-0.1, 50, 0.01)
    with pytest.raises(InvalidArgumentError):
        eta_from_complexity(0.1, 0, 0.01)
    with pytest.raises(InvalidArgumentError):
        eta_from_complexity(0.1, 50, 1.5)


# ----------------------------------------------------------------- within-task


class FakeTask:
    def __init__(self, f_star, f_hat):
        self.f_star = np.asarray(f_star, dtype=np.float64)
        self.f_hat = np.asarray(f_hat, dtype=np.float64)


def test_within_task_radial_single_task_attains_cap():
    rep = within_task_term([FakeTask([1.0, 0.0], [1.3, 0.0])], b=1.0)
    assert rep.measured == pytest.approx(0.69, abs=1e-10)
    assert rep.cap == pytest.approx(0.69, rel=1e-12)
    assert rep.holds


def test_within_task_orthogonal_single_task_closed_form():
    eta = 0.3
    rep = within_task_term([FakeTask([1.0, 0.0], [1.0, eta])], b=1.0)
    # difference matrix [[0, eta], [eta, eta^2]]: largest eigenvalue by hand
    hand = (eta**2 + math.sqrt(eta**4 + 4 * eta**2)) / 2.0
    assert rep.measured == pytest.approx(hand, abs=1e-10)
    assert rep.measured <= rep.cap + 1e-12
    assert rep.cap == pytest.approx(2 * eta + eta**2, rel=1e-12)


def test_within_task_zero_perturbation_and_validation():
    rep = within_task_term([FakeTask([0.5, 0.5], [0.5, 0.5])], b=1.0)
    assert rep.measured == 0.0 and rep.cap == 0.0 and rep.holds
    with pytest.raises(InvalidArgumentError):
        within_task_term([FakeTask([2.0, 0.0], [2.0, 0.0])], b=1.0)
    with pytest.raises(InvalidArgumentError):
        within_task_term([], b=1.0)


def test_within_task_cap_on_sampled_ensembles_and_additivity():
    rng = np.random.default_rng(18)
    for trial in range(50):
        ens = sample_ensemble(
            SyntheticEnsembleConfig(
                d=int(rng.integers(2, 10)),
                k=2,
                n_tasks=int(rng.integers(2, 25)),
                eta=float(rng.uniform(0.0, 0.5)),
                seed=[18, trial],
            )
        )
        rep = within_task_term(ens.tasks, b=ens.b)
        assert rep.holds
    ens = sample_ensemble(cfg(eta=0.2, n_tasks=12, seed=19))
    first, second = ens.tasks[:5], ens.tasks[5:]
    whole = within_task_term(ens.tasks, b=ens.b)
    a = within_task_term(first, b=ens.b)
    bb = within_task_term(second, b=ens.b)
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


def test_davis_kahan_monte_carlo():
    rng = np.random.default_rng(20)
    base = np.diag([2.0, 1.0, 0.0])
    for trial in range(100):
        g = rng.standard_normal((3, 3))
        sym = (g + g.T) / 2.0
        sym /= opnorm_oracle(sym)
        pert = base + 0.1 * sym
        rep = davis_kahan_check(
            second_moment_from_matrix(base), second_moment_from_matrix(pert), 1
        )
        assert rep.holds
        assert rep.gamma == pytest.approx(1.0, abs=1e-12)


def test_davis_kahan_near_degenerate_still_holds():
    ref = second_moment_from_matrix(np.diag([1.0, 1.0 - 1e-3, 0.5]))
    pert = second_moment_from_matrix(np.diag([1.0, 1.0 - 1e-3, 0.5]) + 1e-6 * np.eye(3))
    rep = davis_kahan_check(ref, pert, 1)
    assert rep.gamma == pytest.approx(1e-3, rel=1e-9)
    assert rep.holds


# ------------------------------------------------------------- projection risk


def test_projection_risk_hand_values():
    assert optimal_projection_risk(np.array([1.0, 0.5, 0.25]), 2) == pytest.approx(0.25, rel=1e-12)
    assert optimal_projection_risk(np.array([1.0, 0.5, 0.25]), 3) == 0.0
    with pytest.raises(InvalidArgumentError):
        optimal_projection_risk(np.array([0.5, 1.0]), 1)
    s = population_second_moment(np.eye(3), np.array([3.0, 2.0, 1.0]))
    p1, _ = top_k_projector(s, 1)
    assert projection_risk(s, p1) == pytest.approx(3.0, rel=1e-10)
    p_bad, _ = top_k_projector(population_second_moment(np.eye(3)[:, [2, 1, 0]], np.array([1.0, 0.0, 0.0])), 1)
    rep = excess_risk_report(s, p_bad, 1)
    assert rep.risk == pytest.approx(5.0, rel=1e-10)
    assert rep.optimal_risk == pytest.approx(3.0, rel=1e-10)
    assert rep.excess == pytest.approx(2.0, rel=1e-10)
    assert rep.holds and rep.excess <= rep.bound + 1e-8


def test_excess_risk_monte_carlo():
    rng = np.random.default_rng(22)
    for trial in range(60):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d))
        q = haar_columns(d, d, rng)
        lam = np.sort(rng.uniform(0.0, 2.0, d))[::-1]
        s = population_second_moment(q, lam)
        p_rand, _ = top_k_projector(
            population_second_moment(haar_columns(d, d, rng), np.arange(d, 0, -1.0)), k
        )
        rep = excess_risk_report(s, p_rand, k)
        assert rep.holds


# ----------------------------------------------------------------- convergence


def test_convergence_study_shrinks_with_more_tasks():
    report = convergence_study(
        d=16, k=2, t_grid=[20, 40, 80, 160], n_trials=12, eta=0.0, seed=23
    )
    assert len(report.rows) == 4 * 12
    assert report.slope_defined
    assert -0.8 <= report.slope <= -0.2
    means = [report.mean_op_error[t] for t in (20, 40, 80, 160)]
    assert means[0] > means[-1]
    bounds = [report.mean_op_bound[t] for t in (20, 40, 80, 160)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    for row in report.rows:
        assert row.op_error >= 0.0
        assert row.subspace_error <= 2.0 + 1e-12


def test_convergence_study_degenerate_grid():
    report = convergence_study(d=6, k=2, t_grid=[1], n_trials=3, eta=0.0, seed=1)
    assert not report.slope_defined
    assert report.slope is None
    assert len(report.rows) == 3


def test_convergence_study_is_deterministic():
    a = convergence_study(d=8, k=2, t_grid=[10, 20], n_trials=4, eta=0.1, seed=7)
    b = convergence_study(d=8, k=2, t_grid=[10, 20], n_trials=4, eta=0.1, seed=7)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.n_tasks, ra.trial) == (rb.n_tasks, rb.trial)
        assert ra.op_error == rb.op_error
        assert ra.subspace_error == rb.subspace_error


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
