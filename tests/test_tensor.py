import re

import numpy as np
import pytest


from uws import spectral, theory
from uws.ensemble import merge_models
from uws.errors import InvalidArgumentError
from uws.spectral import operator_norm, thin_svd
from uws.tensor import as_tensor, frobenius_norm, symmetric_operator

from oracles import haar_orthogonal


def rand_tensor(rng, shape):
    return rng.standard_normal(shape)


# ----------------------------------------------------------------- as_tensor


def test_constructor_validates_shape_and_length():
    refused = [
        np.zeros((2, 0)),  # an empty extent
        [[0.0, 0.0, 0.0], [0.0, 0.0]],  # 5 values for a 2 x 3 tensor
        np.zeros(3),  # order 1: only orders 2 and 3 are stacks
        np.zeros((2, 2, 2, 2)),  # order 4
    ]
    for x in refused:
        with pytest.raises(InvalidArgumentError):
            as_tensor(x)
    for shape in ((1, 1), (2, 3, 4)):
        assert as_tensor(np.zeros(shape)).shape == shape


def test_complex_input_is_refused_not_cut_to_its_real_part():
    for x in (np.ones((3, 2)) + 1j, [[1.0, 2j]], np.zeros(4, dtype=np.complex64)):
        with pytest.raises(InvalidArgumentError, match="complex"):
            as_tensor(x)


# ------------------------------------------------------------ frobenius_norm


def test_frobenius_examples():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_matches_summation_oracle():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 2))
    total = 0.0
    for idx in np.ndindex(*a.shape):
        total += a[idx] ** 2
    assert frobenius_norm(a) == pytest.approx(np.sqrt(total), rel=1e-14)


def test_norm_preserved_by_orthogonal_mode_products():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (4, 5))
    q1, q2 = haar_orthogonal(4, rng), haar_orthogonal(5, rng)
    assert frobenius_norm(q1 @ x @ q2.T) == pytest.approx(frobenius_norm(x), rel=1e-10)
    t = rand_tensor(rng, (4, 5, 3))
    q1, q2, q3 = (haar_orthogonal(n, rng) for n in t.shape)
    # mode 1 on the 4 x 15 reshape, then modes 2 and 3 on each 5 x 3 matrix
    out = (q1 @ t.reshape(4, -1)).reshape(t.shape)
    out = q2 @ out @ q3.T
    assert frobenius_norm(out) == pytest.approx(frobenius_norm(t), rel=1e-10)


_CONFIG = dict(d=3, k=1, n_tasks=2)
COMPLEX_ENTRY_POINTS = {
    "thin_svd": lambda: thin_svd(np.ones((3, 2)) * (1 + 1j)),
    "operator_norm": lambda: operator_norm(1j * np.eye(3)),
    "operator_norm_stack": lambda: operator_norm(np.stack([np.eye(3), 1j * np.eye(3)])),
    "config_eta": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, eta=0.1j),
    "config_eta_list": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, eta=[0.1, 0.1j]),
    "config_spectrum": lambda: theory.SyntheticEnsembleConfig(**_CONFIG, spectrum=[1j]),
    "population_basis": lambda: theory.population_second_moment(1j * np.eye(2), [1.0, 1.0]),
    "population_spectrum": lambda: theory.population_second_moment(np.eye(2), [1j, 1.0]),
    "within_task": lambda: theory.within_task_term(1j * np.ones((1, 2)), np.ones((1, 2))),
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


# -------------------------------------------------------- symmetric_operator


@pytest.mark.parametrize("a, message", [
    (np.zeros((2, 3)), "ops must be square, got shape (2, 3)"),
    (np.zeros(3), "ops must be square, got shape (3,)"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "ops must be finite, got inf at index (0, 1)"),
    (np.array([[1.0, 2e-10], [0.0, 1.0]]), "ops is not symmetric within 1e-10"),
    (np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), "ops is not symmetric within 1e-10"),
    (np.stack([np.eye(2), [[1.0, 0.0], [np.nan, 1.0]]]),
     "ops[1] must be finite, got nan at index (1, 0)"),
    (np.stack([[np.eye(2)] * 2, [np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]]),
     "ops[1, 1] is not symmetric"),
])
def test_one_rule_refuses_what_is_not_a_symmetric_operator(a, message):
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message)):
        symmetric_operator(a, "ops")


def test_a_symmetric_operator_is_returned_as_given_within_its_tolerance():
    for scale in (1.0, 1e-300, 1e300):
        a = np.array([[1.0, 1.0], [1.0 + 0.9e-10, 1.0]]) * scale  # relative to max(1, max |a_ij|)
        assert symmetric_operator(a) is a
    stack = np.zeros((3, 0, 0))
    assert symmetric_operator(stack) is stack
    assert symmetric_operator([[1, 2], [2, 1]]).dtype == np.float64


def test_every_caller_asks_the_one_rule_and_the_study_asks_once_per_batch(monkeypatch):
    calls = []

    def counted(a, name="matrix"):
        calls.append((a.shape, name))
        return symmetric_operator(a, name)

    for module in (spectral, theory):
        monkeypatch.setattr(module, "symmetric_operator", counted)
    for call in (lambda: spectral.operator_norm(np.eye(3)),
                 lambda: theory._symmetrised(np.eye(3)),
                 lambda: theory.davis_kahan_check(np.diag([2.0, 1.0]), np.eye(2), 1)):
        calls.clear()
        call()
        assert calls
    calls.clear()
    theory.davis_kahan_study(6, 2, 0.05, 20, seed=1)  # batches of 8, 8 and 4
    assert [c for c in calls if c[1] == "operators"] == [
        ((2, 8, 6, 6), "operators"), ((2, 8, 6, 6), "operators"), ((2, 4, 6, 6), "operators")]
