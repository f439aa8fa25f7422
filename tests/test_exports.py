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
    # each fact of a drawn ensemble is its config's, resolved once
    drawn = uws.theory.SyntheticEnsemble.__dataclass_fields__
    assert not {"spectrum", "b", "etas", "gamma"} & set(drawn)
    assert not [name for name in ("resolved_spectrum", "resolved_b", "resolved_etas",
                                  "population_spectrum")
                if hasattr(uws.theory.SyntheticEnsembleConfig, name)]
    assert "holds" not in uws.theory.WithinTaskReport.__dataclass_fields__


def test_a_container_read_has_one_record_and_nothing_retired():
    assert container.ContainerDocument._fields == ("model_id", "layers", "meta", "shapes")
    retired = {"LayerRecord", "_Payloads", "_read_payloads", "_AllBut", "build_container"}
    assert not [name for name in retired
                if hasattr(uws.ensemble, name) or hasattr(container, name)]


def test_the_decompositions_are_what_the_pipeline_runs_and_nothing_retired():
    import uws.hosvd as hosvd

    retired = {"hosvd_truncated", "reconstruct", "secondary_subspace", "center", "Stacking"}
    assert not retired & set(uws.__all__)
    assert not [name for name in retired if hasattr(uws, name) or hasattr(hosvd, name)]
    assert not {"stacking", "centering"} & set(hosvd.SubspaceModel.__dataclass_fields__)
    assert "first_component" not in hosvd.ModeSpectrum.__dataclass_fields__


def test_records_keep_only_what_they_cannot_derive():
    import uws.ensemble as ensemble
    import uws.hosvd as hosvd
    import uws.theory as theory

    retired = {hosvd.ModeSpectrum: {"retained"}, ensemble.ScreeReport: {"per_layer"},
               theory.ConvergenceReport: {"config"}}
    assert not [(cls, name) for cls, names in retired.items() for name in names
                if name in cls.__dataclass_fields__ or hasattr(cls, name)]
    # derived from what the record keeps, not kept beside it
    derived = {hosvd.ModeSpectrum: {"tail_ratio"},
               theory.ConvergenceReport: {"mean_op_error", "mean_subspace_error", "slope"},
               theory.DkReport: {"holds"}, theory.DkStudy: {"holds"}}
    assert not [(cls, name) for cls, names in derived.items() for name in names
                if name in cls.__dataclass_fields__ or not hasattr(cls, name)]


def test_a_layer_model_is_its_file_entries_and_a_subspace_states_each_fact_once():
    import uws.ensemble as ensemble
    import uws.hosvd as hosvd

    # a layer model is its mu/, U/ and ledger/ entries; the meta's facts are the subspace's
    assert tuple(hosvd.SubspaceModel.__dataclass_fields__) == ("mu", "factors", "spectra")
    assert tuple(ensemble.UniversalSubspace.__dataclass_fields__) == (
        "layer_models", "layer_shapes", "provenance", "policy", "architecture_id")
    retired = {hosvd.SubspaceModel: {"shape", "slab_extent"},
               ensemble.UniversalSubspace: {"config"}}
    assert not [(cls, name) for cls, names in retired.items() for name in names
                if name in cls.__dataclass_fields__ or hasattr(cls, name)]
    assert not hasattr(hosvd, "_slab_extent")
    derived = {hosvd.SubspaceModel: {"order", "ranks"},
               ensemble.UniversalSubspace: {"order", "centering", "excluded_layers"}}
    assert not [(cls, name) for cls, names in derived.items() for name in names
                if name in cls.__dataclass_fields__ or not hasattr(cls, name)]


def test_the_exact_route_takes_its_own_svd_and_the_wrapper_is_retired():
    import uws.hosvd as hosvd
    import uws.spectral as spectral

    retired = {"thin_svd", "ThinSvd", "_checked_matrix"}
    assert not retired & set(uws.__all__)
    assert not [name for name in retired
                if any(hasattr(m, name) for m in (uws, spectral, hosvd))]


def test_records_that_hold_arrays_compare_by_identity():
    import copy

    import numpy as np

    import uws.ensemble as ensemble
    import uws.theory as theory
    from uws.spectral import RankPolicy

    rng = np.random.default_rng(5)
    models = [ensemble.ModelWeights(f"m{i}", {n: rng.standard_normal((3, 8)) for n in "abcd"})
              for i in range(4)]
    u = ensemble.extract_universal(models, ensemble.ExtractionConfig(policy=RankPolicy.fixed_k(2)))
    model = u.layer_models["b"]
    config = theory.SyntheticEnsembleConfig(d=4, k=2, n_tasks=3)
    records = [
        models[0], ensemble.project_model(u, models[0]), ensemble.scree_report(u), u,
        model, model.spectra[0], ensemble.project_model(u, models[0]).coefficients["b"],
        config, theory.sample_ensemble(config), theory.davis_kahan_study(4, 2, 0.1, 2),
        theory.convergence_study(4, 2, [2, 4], 2),
    ]
    for record in records:  # a field-wise == of arrays would raise on the copy
        assert (record == record) is True
        assert (record == copy.deepcopy(record)) is False


def test_the_gram_route_serves_or_declines_and_keeps_one_scale_path():
    import uws.hosvd as hosvd
    import uws.spectral as spectral

    # the exact route owns every refusal; the Gram solve always scales G
    assert not hasattr(spectral, "_PLAIN_EXPONENT")
    assert not hasattr(hosvd, "_require_variance")
    assert not hasattr(hosvd.GramStream(3), "nonzero")
