"""The package's export list: every name it promises must resolve."""

import uws
import uws.ensemble.container as container


def test_every_exported_name_resolves():
    missing = [name for name in uws.__all__ if not hasattr(uws, name)]
    assert missing == []
    assert len(set(uws.__all__)) == len(uws.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from uws import *", namespace)
    assert set(uws.__all__) <= set(namespace)


def test_the_batched_davis_kahan_study_is_exported():
    assert "davis_kahan_study" in uws.__all__


def test_the_theory_lab_exports_what_it_runs_and_nothing_retired():
    lab = {"BoundParameters", "theorem1_bounds", "within_task_term", "davis_kahan_check",
           "davis_kahan_study", "SyntheticEnsembleConfig", "sample_ensemble",
           "convergence_study", "ConvergenceReport"}
    assert lab <= set(uws.__all__)
    assert all(hasattr(uws.theory, name) for name in ("DkStudy", "DkReport", "TheoremBounds"))
    retired = {"top_k_projector", "subspace_distance", "second_moment", "Projector",
               "SecondMomentOperator", "TaskVector", "ConvergenceRow"}
    assert not retired & set(uws.__all__)
    assert not [name for name in retired if hasattr(uws, name) or hasattr(uws.theory, name)]
    assert not hasattr(uws.theory.SyntheticEnsemble, "tasks")
    fields = uws.theory.ConvergenceReport.__dataclass_fields__
    assert not {"rows", "mean_op_bound", "slope_defined", "t_grid", "n_trials"} & set(fields)


def test_a_container_read_has_one_record_and_nothing_retired():
    assert container.ContainerDocument._fields == ("model_id", "layers", "dtypes", "meta",
                                                   "shapes")
    retired = {"LayerRecord", "_Payloads", "_read_payloads", "_AllBut"}
    assert not [name for name in retired
                if hasattr(uws.ensemble, name) or hasattr(container, name)]
