"""End-to-end tests for the command-line front end.

Everything goes through ``uws.cli.main(argv)`` in-process: exit codes,
stdout/stderr routing, file outputs, and byte-identical rerun behavior.
"""

import copy

import numpy as np
import pytest

from uws import cli
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    load_coefficients,
    load_subspace,
    load_weights,
    save_weights,
)
from uws.ensemble.container import build_container, read_container
from uws.spectral import RankPolicy

from oracles import planted_ensemble


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture_models(tmp_path, n_models=4, k=3, seed=5, noise=1e-9):
    rng = np.random.default_rng(seed)
    shapes = {"embed": (6, 24), "block0": (6, 24), "block1": (5, 20), "head": (6, 24)}
    layer_dicts, _, _ = planted_ensemble(rng, n_models, shapes, k, noise=noise)
    paths = []
    for i, layers in enumerate(layer_dicts):
        w = ModelWeights(model_id=f"m{i}", layers=dict(layers))
        p = tmp_path / f"model_{i:02d}.uws"
        save_weights(w, p)
        paths.append(p)
    return str(tmp_path / "model_*.uws"), paths


# ------------------------------------------------------------------ plumbing


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert err.strip()


def test_help_exits_cleanly(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    for name in ("extract", "scree", "project", "reconstruct", "merge",
                 "adapt", "memcalc", "theory"):
        assert name in out


@pytest.mark.parametrize("sub", [
    ["extract"], ["scree"], ["project"], ["reconstruct"], ["merge"],
    ["adapt"], ["memcalc"], ["theory", "converge"], ["theory", "bounds"],
    ["theory", "dk-check"],
])
def test_every_subcommand_has_help(sub, capsys):
    code, out, _ = run(sub + ["--help"], capsys)
    assert code == 0
    assert "--" in out


def test_unknown_flag_names_the_flag(capsys):
    argv = [
        "memcalc", "--t", "500", "--per-model", "131072",
        "--basis", "262144", "--coeffs", "512", "--bogus", "3",
    ]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "--bogus" in err


# ------------------------------------------------------------------- extract


def test_extract_writes_subspace_and_scree(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    out = tmp_path / "space.uws"
    report = tmp_path / "scree.csv"
    code, stdout, _ = run(
        ["extract", "--models", pattern, "--out", str(out),
         "--report", str(report), "--tau", "0.99"],
        capsys,
    )
    assert code == 0
    u = load_subspace(out)
    assert set(u.included_layers) == {"block0", "block1"}
    text = report.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("#")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "component_index,layer,sigma,ratio,cumulative"
    assert any("tau" in ln for ln in lines if ln.startswith("#"))
    assert "aggregate" in text
    assert "block0" in stdout and "block1" in stdout


def test_extract_rerun_is_byte_identical(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    first = tmp_path / "a.uws"
    second = tmp_path / "b.uws"
    for out in (first, second):
        code, _, _ = run(
            ["extract", "--models", pattern, "--out", str(out),
             "--report", str(out.with_suffix(".csv")), "--tau", "0.95"],
            capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()


def test_extract_prints_layer_health(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    outputs = []
    for name in ("a", "b"):
        code, stdout, _ = run(
            ["extract", "--models", pattern, "--out", str(tmp_path / f"{name}.uws"),
             "--report", str(tmp_path / f"{name}.csv"), "--tau", "0.95"],
            capsys,
        )
        assert code == 0
        outputs.append([ln for ln in stdout.splitlines() if ": rank " in ln])
    assert outputs[0] == outputs[1]
    u = load_subspace(tmp_path / "a.uws")
    assert len(outputs[0]) == len(u.included_layers) == 2
    for line, name in zip(outputs[0], u.included_layers):
        spec = u.layer_models[name].variance_ledger[2]
        prefix = f"  {name}: rank {spec.retained} of {spec.singular_values.size}, "
        assert line.startswith(prefix)
        energy = float(line.split("retained energy ")[1].split(",")[0])
        assert abs(energy - spec.ratios[: spec.retained].sum()) < 1e-6
        assert 0.95 <= energy <= 1.0
        defect = float(line.split("orthonormality defect ")[1])
        assert 0.0 <= defect < 1e-10


def test_extract_with_no_matching_models_is_a_data_error(tmp_path, capsys):
    code, _, err = run(
        ["extract", "--models", str(tmp_path / "none_*.uws"),
         "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 2
    assert "model" in err.lower()


def test_extract_on_bad_magic_names_offset_zero(tmp_path, capsys):
    bad = tmp_path / "model_bad.uws"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    code, _, err = run(
        ["extract", "--models", str(tmp_path / "model_*.uws"),
         "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 2
    assert "offset 0" in err


def test_extract_policy_flags_are_mutually_exclusive(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    code, _, err = run(
        ["extract", "--models", pattern, "--out", str(tmp_path / "s.uws"),
         "--report", str(tmp_path / "r.csv"), "--tau", "0.9", "--fixed-k", "4"],
        capsys,
    )
    assert code == 1


def test_extract_fixed_k_and_exclusions(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    out = tmp_path / "s.uws"
    code, _, _ = run(
        ["extract", "--models", pattern, "--out", str(out),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3",
         "--exclude-layers", "embed,head,block1"],
        capsys,
    )
    assert code == 0
    u = load_subspace(out)
    assert u.included_layers == ["block0"]
    ledger = u.layer_models["block0"].variance_ledger
    assert all(spec.retained == min(3, spec.singular_values.size)
               for spec in ledger.values())


def test_extract_identical_models_is_a_numerical_failure(tmp_path, capsys):
    rng = np.random.default_rng(0)
    layers = {"a": rng.normal(size=(1, 6)), "b": rng.normal(size=(1, 6)),
              "c": rng.normal(size=(1, 6))}
    for i in range(3):
        save_weights(ModelWeights(model_id=f"m{i}", layers=dict(layers)),
                     tmp_path / f"model_{i}.uws")
    code, _, err = run(
        ["extract", "--models", str(tmp_path / "model_*.uws"),
         "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 3
    assert "variance" in err.lower() or "degenerate" in err.lower()


# --------------------------------------------------------------------- scree


def test_scree_matches_extract_report(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    out = tmp_path / "s.uws"
    report = tmp_path / "r.csv"
    run(["extract", "--models", pattern, "--out", str(out),
         "--report", str(report), "--tau", "0.99"], capsys)
    scree = tmp_path / "scree2.csv"
    code, _, _ = run(["scree", "--subspace", str(out), "--out", str(scree)], capsys)
    assert code == 0
    data_rows = [ln for ln in report.read_text().splitlines() if not ln.startswith("#")]
    scree_rows = [ln for ln in scree.read_text().splitlines() if not ln.startswith("#")]
    assert data_rows == scree_rows


def test_scree_display_cap_limits_stdout_not_file(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path, noise=0.05)
    out = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(out),
         "--report", str(tmp_path / "r.csv"), "--tau", "1.0"], capsys)
    scree = tmp_path / "scree.csv"
    code, stdout, _ = run(
        ["scree", "--subspace", str(out), "--out", str(scree), "--top", "2"],
        capsys,
    )
    assert code == 0
    shown = [ln for ln in stdout.splitlines() if ln.split(",")[1:2] == ["block0"]]
    per_layer_written = [ln for ln in scree.read_text().splitlines()
                         if ln.split(",")[1:2] == ["block0"]]
    assert len(shown) <= 2
    assert len(per_layer_written) > 2


def test_scree_text_format(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    out = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(out),
         "--report", str(tmp_path / "r.csv")], capsys)
    scree = tmp_path / "scree.txt"
    code, _, _ = run(
        ["scree", "--subspace", str(out), "--out", str(scree), "--format", "text"],
        capsys,
    )
    assert code == 0
    text = scree.read_text()
    assert "layer:" in text and "ratio" in text
    assert "," not in text.splitlines()[-1] or "aggregate" in text


# ------------------------------------------------------- project/reconstruct


def test_project_reconstruct_round_trip(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path, noise=1e-9)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)
    coeffs = tmp_path / "c.uws"
    code, _, _ = run(
        ["project", "--subspace", str(space), "--model", str(paths[0]),
         "--out", str(coeffs)],
        capsys,
    )
    assert code == 0
    rebuilt = tmp_path / "rebuilt.uws"
    code, _, _ = run(
        ["reconstruct", "--subspace", str(space), "--coeffs", str(coeffs),
         "--out", str(rebuilt)],
        capsys,
    )
    assert code == 0
    original = load_weights(paths[0])
    restored = load_weights(rebuilt)
    assert set(restored.layers) == set(original.layers)
    for name in ("block0", "block1"):
        rel = (np.linalg.norm(restored.layers[name] - original.layers[name])
               / np.linalg.norm(original.layers[name]))
        assert rel <= 1e-2
    for name in ("embed", "head"):
        np.testing.assert_array_equal(restored.layers[name], original.layers[name])


def test_project_missing_layer_is_a_data_error(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    partial = load_weights(paths[0])
    del partial.layers["block0"]
    del partial.dtypes["block0"]
    crippled = tmp_path / "crippled.uws"
    save_weights(partial, crippled)
    code, _, err = run(
        ["project", "--subspace", str(space), "--model", str(crippled),
         "--out", str(tmp_path / "c.uws")],
        capsys,
    )
    assert code == 2
    assert "block0" in err


def _single_field_edits(meta, path=()):
    """Every copy of ``meta`` with one key, at any depth, deleted or set
    to "x", [1] or -1."""
    node = meta
    for k in path:
        node = node[k]
    for key, value in node.items():
        for edit in ("delete", "x", [1], -1):
            edited = copy.deepcopy(meta)
            target = edited
            for k in path:
                target = target[k]
            if edit == "delete":
                del target[key]
            else:
                target[key] = edit
            yield edited
        if isinstance(value, dict):
            yield from _single_field_edits(meta, path + (key,))


@pytest.mark.parametrize("kind", ["subspace", "coefficients"])
def test_meta_field_edits_never_end_in_a_traceback(kind, tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path)
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    run(["project", "--subspace", str(space), "--model", str(paths[0]),
         "--out", str(coeffs)], capsys)
    source = space if kind == "subspace" else coeffs
    doc = read_container(source)
    records = [(rec.name, rec.array, rec.dtype) for rec in doc.layers]
    edited = tmp_path / "edited.uws"
    if kind == "subspace":
        argv = ["project", "--subspace", str(edited), "--model", str(paths[0]),
                "--out", str(tmp_path / "out.uws")]
    else:
        argv = ["reconstruct", "--subspace", str(space), "--coeffs", str(edited),
                "--out", str(tmp_path / "out.uws")]
    codes = []
    for meta in _single_field_edits(doc.meta):
        edited.write_bytes(build_container(doc.model_id, records, meta))
        codes.append(run(argv, capsys)[0])
    assert len(codes) == {"subspace": 144, "coefficients": 44}[kind]
    assert set(codes) <= {0, 2, 3}


# --------------------------------------------------------------------- merge


def test_merge_writes_average_model(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path, noise=1e-9)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)
    merged = tmp_path / "merged.uws"
    code, stdout, _ = run(
        ["merge", "--subspace", str(space), "--models", pattern,
         "--out", str(merged)],
        capsys,
    )
    assert code == 0
    assert "averag" in stdout.lower()
    u = load_subspace(space)
    models = [load_weights(p) for p in paths]
    from uws.ensemble import merge_models
    expected = merge_models(u, models)
    got = load_weights(merged)
    for name, arr in expected.layers.items():
        np.testing.assert_allclose(got.layers[name], arr, rtol=0, atol=1e-12)


def test_merge_weights_must_be_convex(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    code, _, err = run(
        ["merge", "--subspace", str(space), "--models", pattern,
         "--weights", "0.5,0.5", "--out", str(tmp_path / "m.uws")],
        capsys,
    )
    assert code == 1  # four models, two weights
    code, _, err = run(
        ["merge", "--subspace", str(space), "--models", pattern,
         "--weights", "0.5,0.5,0.5,0.5", "--out", str(tmp_path / "m.uws")],
        capsys,
    )
    assert code == 1  # does not sum to one
    code, _, err = run(
        ["merge", "--subspace", str(space), "--models", pattern,
         "--weights", "0.25,0.25,0.25,abc", "--out", str(tmp_path / "m.uws")],
        capsys,
    )
    assert code == 1


# --------------------------------------------------------------------- adapt


def make_adapt_problem(tmp_path, capsys, seed=7):
    pattern, paths = write_fixture_models(tmp_path, noise=1e-9, seed=seed)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)
    u = load_subspace(space)
    target = load_weights(paths[0]).layers["block0"]
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(60, target.shape[1]))
    y = x @ target.T
    xfile, yfile = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xfile, x, delimiter=",")
    np.savetxt(yfile, y, delimiter=",")
    return space, xfile, yfile


def test_adapt_closed_form_recovers_in_span_target(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    coeffs = tmp_path / "fit.uws"
    report = tmp_path / "fit.csv"
    code, stdout, _ = run(
        ["adapt", "--subspace", str(space), "--layer", "block0",
         "--x", str(xfile), "--y", str(yfile),
         "--out", str(coeffs), "--report", str(report)],
        capsys,
    )
    assert code == 0
    text = report.read_text()
    lines = text.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "component_index,layer,sigma,ratio,cumulative"
    assert any("residual" in ln for ln in lines if ln.startswith("#"))
    assert any("trainable_params: 3" in ln for ln in lines if ln.startswith("#"))
    assert "residual" in stdout
    c = load_coefficients(coeffs)
    assert "block0" in c.coefficients
    assert np.all(np.isfinite(c.coefficients["block0"].coeffs))


def test_adapt_gd_agrees_with_closed_form(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    got = {}
    for method, name in (("closed-form", "cf"), ("gd", "gd")):
        out = tmp_path / f"{name}.uws"
        argv = ["adapt", "--subspace", str(space), "--layer", "block0",
                "--x", str(xfile), "--y", str(yfile), "--method", method,
                "--out", str(out), "--report", str(tmp_path / f"{name}.csv")]
        if method == "gd":
            argv += ["--epochs", "6000"]
        code, _, _ = run(argv, capsys)
        assert code == 0
        got[name] = load_coefficients(out).coefficients["block0"].coeffs
    np.testing.assert_allclose(got["gd"], got["cf"], rtol=0, atol=1e-6)


def test_adapt_rank_deficient_design_is_a_numerical_failure(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    x = np.loadtxt(xfile, delimiter=",")
    y = np.loadtxt(yfile, delimiter=",")
    np.savetxt(xfile, np.vstack([x[:1]] * 5), delimiter=",")
    np.savetxt(yfile, np.vstack([y[:1]] * 5), delimiter=",")
    code, _, err = run(
        ["adapt", "--subspace", str(space), "--layer", "block0",
         "--x", str(xfile), "--y", str(yfile),
         "--out", str(tmp_path / "c.uws"), "--report", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 3
    assert "ridge" in err.lower()


def test_adapt_unreadable_csv_is_a_data_error(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    xfile.write_text("not,numbers\nat,all\n")
    code, _, _ = run(
        ["adapt", "--subspace", str(space), "--layer", "block0",
         "--x", str(xfile), "--y", str(yfile),
         "--out", str(tmp_path / "c.uws"), "--report", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 2


# ------------------------------------------------------------------- memcalc


def test_memcalc_reproduces_worked_example(capsys):
    code, out, _ = run(
        ["memcalc", "--t", "500", "--per-model", "131072",
         "--basis", "262144", "--coeffs", "512"],
        capsys,
    )
    assert code == 0
    assert "126.5" in out
    assert "effective ratio" in out or "ratio" in out


def test_memcalc_lists_documented_presets(capsys):
    code, out, _ = run(
        ["memcalc", "--t", "500", "--per-model", "131072",
         "--basis", "262144", "--coeffs", "512"],
        capsys,
    )
    assert code == 0
    assert "adapter-bank-19x" in out
    assert "vision-backbone-100x" in out
    assert "worked-example-126x" in out


def test_memcalc_rejects_nonpositive_counts(capsys):
    code, _, err = run(
        ["memcalc", "--t", "0", "--per-model", "10", "--basis", "5",
         "--coeffs", "1"],
        capsys,
    )
    assert code == 1


# -------------------------------------------------------------------- theory


def test_theory_bounds_prints_the_two_levels(capsys):
    code, out, _ = run(
        ["theory", "bounds", "--b", "1.0", "--delta", "0.5", "--t", "100",
         "--eta-bar", "0.1", "--eta2-bar", "0.02", "--gamma-k", "0.5"],
        capsys,
    )
    assert code == 0
    from uws.theory import BoundParameters, theorem1_bounds
    expected = theorem1_bounds(BoundParameters(
        b=1.0, delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.02, gamma_k=0.5))
    assert repr(expected.op_bound) in out
    assert repr(expected.subspace_bound) in out
    assert "op_bound" in out and "subspace_bound" in out


def test_theory_bounds_without_gamma_skips_subspace_level(capsys):
    code, out, _ = run(
        ["theory", "bounds", "--b", "2.0", "--delta", "0.1", "--t", "50",
         "--eta-bar", "0.0", "--eta2-bar", "0.0"],
        capsys,
    )
    assert code == 0
    assert "op_bound" in out
    assert "subspace_bound: undefined" in out


def test_theory_bounds_rejects_nonpositive_gamma(capsys):
    code, _, err = run(
        ["theory", "bounds", "--b", "1.0", "--delta", "0.5", "--t", "10",
         "--eta-bar", "0.0", "--eta2-bar", "0.0", "--gamma-k", "0.0"],
        capsys,
    )
    assert code == 1
    assert "gamma" in err.lower()


def test_theory_converge_writes_deterministic_report(tmp_path, capsys):
    argv = ["theory", "converge", "--d", "8", "--k", "2",
            "--t-grid", "5,10", "--trials", "2", "--eta", "0.1",
            "--delta", "0.05", "--seed", "7"]
    first = tmp_path / "report_a.csv"
    second = tmp_path / "report_b.csv"
    for out in (first, second):
        code, stdout, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert "slope" in stdout
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0].startswith("#")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "T,trial,op_error,subspace_error,op_bound,subspace_bound"
    data = [ln for ln in lines if not ln.startswith("#") and ln != header]
    assert len(data) == 4  # two grid points x two trials
    assert any("slope" in ln for ln in lines if ln.startswith("#"))


def test_theory_converge_text_format(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, _, _ = run(
        ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4",
         "--trials", "2", "--seed", "3", "--out", str(out), "--format", "text"],
        capsys,
    )
    assert code == 0
    text = out.read_text()
    assert "slope: undefined" in text
    assert "op_error" in text


def test_theory_converge_rejects_bad_grid(tmp_path, capsys):
    code, _, err = run(
        ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "0,5",
         "--trials", "2", "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 1


def test_theory_dk_check_reports_zero_violations(capsys):
    code, out, _ = run(
        ["theory", "dk-check", "--d", "10", "--k", "3", "--perturb", "0.01",
         "--trials", "25", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert "trials: 25" in out
    assert "violations: 0" in out


def test_theory_dk_check_survives_a_huge_perturbation(capsys):
    code, out, _ = run(
        ["theory", "dk-check", "--d", "4", "--k", "2", "--perturb", "1e300",
         "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert "violations: 0" in out.splitlines()


def test_theory_converge_prints_its_cell_count(tmp_path, capsys):
    argv = ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4,8,16",
            "--trials", "2", "--seed", "5", "--out", str(tmp_path / "r.csv")]
    code, first, _ = run(argv, capsys)
    assert code == 0
    assert "cells: 6" in first.splitlines()
    assert run(argv, capsys)[1] == first


@pytest.mark.parametrize("argv", [
    ["theory", "bounds", "--b", "1e200", "--delta", "0.5", "--t", "100",
     "--eta-bar", "0.1", "--eta2-bar", "0.01"],
    ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4,8",
     "--trials", "1", "--b", "1e200", "--out", "{out}"],
    ["theory", "dk-check", "--d", "4", "--k", "2", "--perturb", "1e308", "--trials", "3"],
    ["theory", "dk-check", "--d", "4", "--k", "2", "--perturb", "1.7e308", "--trials", "3"],
])
def test_theory_bound_overflow_is_a_data_error(argv, tmp_path, capsys):
    argv = [a.replace("{out}", str(tmp_path / "r.csv")) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "not finite" in err


def test_output_into_missing_directory_is_a_data_error(tmp_path, capsys):
    code, _, _ = run(
        ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4",
         "--trials", "1", "--out", str(tmp_path / "no_such_dir" / "r.csv")],
        capsys,
    )
    assert code == 2
