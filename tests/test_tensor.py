import numpy as np
import pytest

from types import SimpleNamespace

from uws import theory
from uws.ensemble import merge_models
from uws.errors import InvalidArgumentError
from uws.spectral import RankPolicy, gram_leading, operator_norm, thin_svd
from uws.tensor import as_tensor, frobenius_norm, mode_product, unfold

from oracles import haar_orthogonal, unfold_by_enumeration


def rand_tensor(rng, shape):
    return rng.standard_normal(shape)


# ----------------------------------------------------------------- as_tensor


def test_constructor_validates_shape_and_length():
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.zeros((2, 0)))
    with pytest.raises(InvalidArgumentError):
        as_tensor([[0.0, 0.0, 0.0], [0.0, 0.0]])  # 5 values for a 2 x 3 tensor
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.zeros((1,) * 9))  # order cap is 8


def test_complex_input_is_refused_not_cut_to_its_real_part():
    for x in (np.ones((3, 2)) + 1j, [[1.0, 2j]], np.zeros(4, dtype=np.complex64)):
        with pytest.raises(InvalidArgumentError, match="complex"):
            as_tensor(x)


# -------------------------------------------------------------------- unfold


def test_unfold_vector_is_row():
    v = np.arange(5, dtype=float)
    m = unfold(v, 1)
    assert m.shape == (5, 1)
    assert np.array_equal(m[:, 0], v)


def test_unfold_222_hand_layout():
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    assert np.array_equal(unfold(t, 1), np.array([[1, 3, 2, 4], [5, 7, 6, 8]], dtype=float))
    assert np.array_equal(unfold(t, 2), np.array([[1, 5, 2, 6], [3, 7, 4, 8]], dtype=float))
    assert np.array_equal(unfold(t, 3), np.array([[1, 5, 3, 7], [2, 6, 4, 8]], dtype=float))


@pytest.mark.parametrize(
    "shape", [(4,), (3, 5), (2, 3, 4), (2, 1, 3, 2), (2, 2, 2, 2, 2)]
)
def test_unfold_matches_enumeration_oracle(shape):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(shape)
    t = a
    for mode in range(1, len(shape) + 1):
        assert np.array_equal(unfold(t, mode), unfold_by_enumeration(a, mode))


def test_unfold_mode_out_of_range():
    t = np.zeros((2, 2))
    for mode in (0, 3, -1):
        with pytest.raises(InvalidArgumentError):
            unfold(t, mode)


# -------------------------------------------------------------- mode_product


def test_mode_product_identity_is_exact():
    rng = np.random.default_rng(3)
    t = rand_tensor(rng, (3, 4, 2))
    for mode in (1, 2, 3):
        p = mode_product(t, np.eye(t.shape[mode - 1]), mode)
        assert np.array_equal(p, t)


def test_mode_product_order2_is_matrix_multiplication():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5))
    t = x
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((6, 5))
    assert np.allclose(mode_product(t, a, 1), a @ x, rtol=1e-13, atol=0)
    assert np.allclose(mode_product(t, b, 2), x @ b.T, rtol=1e-13, atol=0)


def test_distinct_mode_products_commute():
    rng = np.random.default_rng(5)
    t = rand_tensor(rng, (3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 4))
    left = mode_product(mode_product(t, a, 1), b, 2)
    right = mode_product(mode_product(t, b, 2), a, 1)
    assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(left)


def test_mode_product_shape_change_and_mismatch():
    rng = np.random.default_rng(6)
    t = rand_tensor(rng, (3, 4))
    out = mode_product(t, np.zeros((7, 4)), 2)
    assert out.shape == (3, 7)
    with pytest.raises(InvalidArgumentError):
        mode_product(t, np.zeros((7, 5)), 2)


# ------------------------------------------------------------ frobenius_norm


def test_frobenius_examples():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.array([3.0, 4.0])) == 5.0


def test_frobenius_matches_summation_oracle():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 2))
    total = 0.0
    for idx in np.ndindex(*a.shape):
        total += a[idx] ** 2
    assert frobenius_norm(a) == pytest.approx(np.sqrt(total), rel=1e-14)


def test_norm_preserved_by_orthogonal_mode_products():
    rng = np.random.default_rng(9)
    t = rand_tensor(rng, (4, 5, 3))
    out = t
    for mode in (1, 2, 3):
        q = haar_orthogonal(t.shape[mode - 1], rng)
        out = mode_product(out, q, mode)
    assert frobenius_norm(out) == pytest.approx(frobenius_norm(t), rel=1e-10)


_CONFIG = dict(d=3, k=1, n_tasks=2)
COMPLEX_ENTRY_POINTS = {
    "thin_svd": lambda: thin_svd(np.ones((3, 2)) * (1 + 1j)),
    "gram_leading": lambda: gram_leading(1j * np.eye(3), [RankPolicy.fixed_k(1)]),
    "operator_norm": lambda: operator_norm(1j * np.eye(3)),
    "operator_norm_stack": lambda: operator_norm(np.stack([np.eye(3), 1j * np.eye(3)])),
    "config_eta": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, eta=0.1j),
    "config_eta_list": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, eta=[0.1, 0.1j]),
    "config_spectrum": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, spectrum=[1j]),
    "operator": lambda: theory.SecondMomentOperator(matrix=1j * np.eye(2), kind="population"),
    "second_moment": lambda: theory.second_moment([1j * np.ones(2)], "true_empirical"),
    "population_basis": lambda: theory.population_second_moment(1j * np.eye(2), [1.0, 1.0]),
    "population_spectrum": lambda: theory.population_second_moment(np.eye(2), [1j, 1.0]),
    "within_task": lambda: theory.within_task_term(
        [SimpleNamespace(f_star=1j * np.ones(2), f_hat=np.ones(2))]),
    "davis_kahan_check": lambda: theory.davis_kahan_check(1j * np.eye(2), np.eye(2), 1),
    "convergence_eta": lambda: theory.convergence_study(3, 1, [2], 1, eta=0.1j),
    "convergence_spectrum": lambda: theory.convergence_study(3, 1, [2], 1, spectrum=[1j]),
    "merge_weights": lambda: merge_models(None, ["a.uws", "b.uws"], weights=[0.5j, 0.5]),
}


@pytest.mark.parametrize("call", list(COMPLEX_ENTRY_POINTS.values()),
                         ids=list(COMPLEX_ENTRY_POINTS))
def test_complex_input_is_refused_at_every_entry_point(call):
    with pytest.raises(InvalidArgumentError, match="complex"):
        call()
