"""One rule for a number, at every public scalar and array argument.

A number is an int or a float, numpy's included; a bool, a string, any
other object, a value that is not finite or lies out of range, and None
where None means nothing, are refused with InvalidArgumentError naming
the argument.  An accepted numpy scalar is kept as a plain float or int.
An array argument is refused, naming it, for a dtype that is not an int
or float one and for an entry that is not finite.  Every int or float
parameter of the package's exported callables has a row in ``CASES`` or
a stated reason in ``NOT_ARGUMENTS`` to have none.
"""

import inspect
import math

import numpy as np
import pytest

import uws
from uws import theory
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    adapt_coefficients,
    coefficient_parameter_count,
    extract_universal,
    memory_savings,
    merge_weights,
    project_model,
    stack_layer,
)
from uws.ensemble.container import write_container
from uws.errors import InvalidArgumentError
from uws.hosvd import (GramStream, SliceCoefficients, exact_subspace, project_slice,
                       reconstruct_slice)
from uws.spectral import RankPolicy, explained_variance, operator_norm, select_rank


def _adapt_problem():
    rng = np.random.default_rng(3)
    models = [ModelWeights(f"m{i}", {"w": rng.standard_normal((6, 8)),
                                     "e": rng.standard_normal((1, 2))}) for i in range(5)]
    u = extract_universal(models, ExtractionConfig(policy=RankPolicy.fixed_k(2),
                                                   exclude_layers=("e",)))
    return models, u, rng.standard_normal((20, 8)), rng.standard_normal((20, 6))


MODELS, U, X, Y = _adapt_problem()
TASKS = np.array([[1.0, 0.0]]), np.array([[1.0, 0.5]])  # f_star, f_hat
CONFIG = dict(d=4, k=2, n_tasks=3)
BOUND = dict(b=1.0, delta=0.5, n_tasks=10, eta_bar=0.25, eta2_bar=0.0625, gamma_k=0.5,
             c1=1.0, c2=1.0)
STUDY = dict(d=3, k=1, t_grid=[2], n_trials=1)
DK = dict(d=4, k=2, perturb=0.5, trials=1, seed=0)
OPERATORS = np.diag([3.0, 2.0, 1.0]), np.diag([3.0, 2.0, 1.1])  # s_ref, s_pert
COUNTS = dict(t=10, per_model_params=100, basis_params=50, coeff_params_per_model=5,
              mean_params=0)
PARAMETER_COUNT = dict(basis_rank=3, layer_count=2)


def _config(name):
    return (lambda v: theory.SyntheticEnsembleConfig(**{**CONFIG, name: v}),
            lambda c: getattr(c, name))


def _bound(name):
    return lambda v: theory.BoundParameters(**{**BOUND, name: v}), lambda p: getattr(p, name)


def _study(name):
    return (lambda v: theory.convergence_study(**{**STUDY, name: v}),
            (lambda r: r.b) if name == "b" else None)


def _dk(name):
    return lambda v: theory.davis_kahan_study(**{**DK, name: v}), None


def _counts(name):
    return lambda v: memory_savings(**{**COUNTS, name: v}), None


def _parameter_count(name):
    return lambda v: coefficient_parameter_count(**{**PARAMETER_COUNT, name: v}), None


def _adapt(name, method):
    return (lambda v: adapt_coefficients(U, "w", X, Y, method=method, **{name: v}),
            lambda r: r[1][name])


# (argument, the call and what keeps it, a valid value, whether None means something)
CASES = {
    "RankPolicy.tau": ("tau", (RankPolicy.cumulative_variance, lambda p: p.tau), 0.5, False),
    "RankPolicy.epsilon": ("epsilon", (RankPolicy.eigen_floor, lambda p: p.epsilon), 0.25, False),
    "RankPolicy.noise_sigma": ("noise_sigma", (RankPolicy.hard_threshold,
                                               lambda p: p.noise_sigma), 0.5, True),
    "RankPolicy.k": ("k", (RankPolicy.fixed_k, lambda p: p.k), 3, False),
    **{f"SyntheticEnsembleConfig.{n}": (n, _config(n), v, n == "b")
       for n, v in (("d", 4), ("k", 2), ("n_tasks", 3), ("b", 2.0), ("eta", 0.5),
                    ("seed", 3))},
    **{f"BoundParameters.{n}": (n, _bound(n), v, n == "gamma_k")
       for n, v in (("b", 2.0), ("delta", 0.25), ("n_tasks", 7), ("eta_bar", 0.5),
                    ("eta2_bar", 0.125), ("gamma_k", 0.75), ("c1", 2.0), ("c2", 4.0))},
    "within_task_term.b": ("b", (lambda v: theory.within_task_term(*TASKS, b=v),
                                 lambda r: r.b), 2.0, True),
    **{f"davis_kahan_study.{n}": (n, _dk(n), v, False)
       for n, v in (("d", 5), ("k", 1), ("perturb", 0.25), ("trials", 2), ("seed", 3))},
    "davis_kahan_check.k": ("k", (lambda v: theory.davis_kahan_check(*OPERATORS, v), None),
                            1, False),
    **{f"convergence_study.{n}": (n, _study(n), v, n == "b")
       for n, v in (("d", 3), ("k", 1), ("eta", 0.5), ("b", 4.0), ("delta", 0.25),
                    ("c1", 2.0), ("c2", 2.0), ("n_trials", 2), ("seed", 3))},
    "adapt_coefficients.ridge": ("ridge", _adapt("ridge", "closed_form"), 0.5, False),
    "adapt_coefficients.lr": ("lr", _adapt("lr", "gradient"), 2.0**-10, True),
    "adapt_coefficients.epochs": ("epochs", _adapt("epochs", "gradient"), 3, False),
    **{f"memory_savings.{n}": (n, _counts(n), v, False) for n, v in COUNTS.items()},
    **{f"coefficient_parameter_count.{n}": (n, _parameter_count(n), v, False)
       for n, v in PARAMETER_COUNT.items()},
    "GramStream.cols": ("cols", (GramStream, lambda s: s.cols), 4, False),
    "ExtractionConfig.order": ("order", (lambda v: ExtractionConfig(order=v),
                                         lambda c: c.order), 3, False),
    "stack_layer.order": ("order", (lambda v: stack_layer(MODELS, "w", v), None), 3, False),
    "merge_weights.t": ("t", (lambda v: merge_weights(None, v), None), 3, False),
    "explained_variance.tail": ("tail", (lambda v: explained_variance(np.array([1.0]), v),
                                         None), 0.5, False),
}

#: Scalar parameters of the package's callables that take no CASES row,
#: each with the reason.
NOT_ARGUMENTS = {
    "ScreeReport.aggregate_tail": "a result record that scree_report fills",
    "ConvergenceReport.b": "a result record that convergence_study fills",
}
_NUMBER_ANNOTATIONS = {"int", "float", "int | None", "float | None"}


def _scalar_parameters():
    """``callable.parameter`` for each parameter of a callable in
    ``uws.__all__`` annotated as an int or a float (or either or None), or
    whose default is a number that is not a bool."""
    found = set()
    for name in uws.__all__:
        obj = getattr(uws, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for p in inspect.signature(obj).parameters.values():
            ann = p.annotation
            ann = ann if isinstance(ann, str) else getattr(ann, "__name__", str(ann))
            number = isinstance(p.default, (int, float)) and not isinstance(p.default, bool)
            if ann in _NUMBER_ANNOTATIONS or number:
                found.add(f"{name}.{p.name}")
    return found


def test_every_public_scalar_argument_has_a_row_or_a_reason():
    found = _scalar_parameters()
    assert sorted(found - CASES.keys() - NOT_ARGUMENTS.keys()) == []
    assert sorted(NOT_ARGUMENTS.keys() - found) == []
    assert all(isinstance(why, str) and why for why in NOT_ARGUMENTS.values())


REFUSED = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
           "True": True, "'0.5'": "0.5", "object": object(), "None": None}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{value}") for case in CASES for value in REFUSED
    if not (value == "None" and CASES[case][3])
])
def test_a_scalar_argument_refuses_what_is_not_a_number_in_range(case, value):
    name, (call, _), _, _ = CASES[case]
    with pytest.raises(InvalidArgumentError) as refusal:
        call(REFUSED[value])
    assert str(refusal.value).startswith(f"{name} "), str(refusal.value)


@pytest.mark.parametrize("case", list(CASES))
def test_a_numpy_scalar_argument_is_kept_as_a_plain_number(case):
    name, (call, kept), valid, _ = CASES[case]
    plain = type(valid)
    result = call(np.float32(valid) if plain is float else np.int64(valid))
    if kept is not None:
        assert type(kept(result)) is plain and kept(result) == valid


def test_bounds_of_numpy_scalars_are_plain_floats_equal_to_those_of_python_numbers():
    want = theory.theorem1_bounds(theory.BoundParameters(**BOUND))
    got = theory.theorem1_bounds(theory.BoundParameters(
        **{n: np.int64(v) if n == "n_tasks" else np.float32(v) for n, v in BOUND.items()}))
    assert got == want
    assert all(type(getattr(got, f)) is float for f in ("sampling_term", "within_task_floor",
                                                        "op_bound", "subspace_bound"))


ARRAYS = {"bool": np.array([True, False]), "str": np.array(["0.5", "0.5"]),
          "object": np.array([0.5, None], dtype=object),
          "nan": np.array([np.nan, 0.5]), "inf": np.array([np.inf, 0.5])}
NOT_FINITE = ("nan", "inf")
ARRAY_ARGUMENTS = {
    "ModelWeights layer": ("layer 'w'", lambda a: ModelWeights("m", {"w": a.reshape(1, -1)})),
    "merge_weights": ("weights", lambda a: merge_weights(a, 2)),
    "per-task eta": ("eta", lambda a: theory.SyntheticEnsembleConfig(d=4, k=2, n_tasks=2,
                                                                     eta=a)),
    "spectrum": ("spectrum", lambda a: theory.SyntheticEnsembleConfig(d=4, k=2, n_tasks=2,
                                                                      spectrum=a)),
    "adapt_coefficients x": ("x", lambda a: adapt_coefficients(U, "w", a.reshape(1, -1), Y[:1])),
    "explained_variance": ("singular_values", explained_variance),
    "select_rank": ("ratios", select_rank),
    "reconstruct_slice": ("coefficients", lambda a: reconstruct_slice(
        U.layer_models["w"], SliceCoefficients(np.resize(a, (6, 2))))),
    "operator_norm": ("matrix", lambda a: operator_norm(np.diag(a))),
    "exact_subspace": ("x", lambda a: exact_subspace(np.resize(a, (2, 2)), RankPolicy.fixed_k(1),
                                                     centering="feature")),
    "population_second_moment": ("spectrum", lambda a: theory.population_second_moment(
        np.eye(2), a)),
    "within_task_term": ("f_star", lambda a: theory.within_task_term(a[None], np.zeros((1, 2)))),
    "davis_kahan_check": ("s_ref", lambda a: theory.davis_kahan_check(np.diag(a), np.eye(2), 1)),
    "project_slice": ("member", lambda a: project_slice(U.layer_models["w"], np.resize(a, (6, 8)))),
    "project_model excluded layer": ("layer 'e'", lambda a: project_model(
        U, ModelWeights("m", {"w": X[:6], "e": a.reshape(1, -1)}))),
    # every refusal comes before the file is opened, so no directory is needed
    "write_container": ("layer 'w'", lambda a: write_container(
        "no-such-directory/w.uws", "m", [("w", a.reshape(1, -1))])),
}


# a weights layer is checked finite where it is read or projected, not when it is built
@pytest.mark.parametrize("argument, dtype", [
    pytest.param(argument, dtype, id=f"{argument}-{dtype}")
    for argument in ARRAY_ARGUMENTS for dtype in ARRAYS
    if not (dtype in NOT_FINITE and argument == "ModelWeights layer")
])
def test_an_array_argument_refuses_entries_that_are_not_numbers(argument, dtype):
    what, call = ARRAY_ARGUMENTS[argument]
    words = "does not form a real tensor: its dtype is" if dtype not in NOT_FINITE else (
        f".*must be finite.*, got {dtype} at index")
    with pytest.raises(InvalidArgumentError, match=f"^{what} {words}"):
        call(ARRAYS[dtype])
