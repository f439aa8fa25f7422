"""End-to-end tests for the command-line front end.

Everything goes through ``uws.cli.main(argv)`` in-process: exit codes,
stdout/stderr routing, file outputs, and byte-identical rerun behavior.
"""

import copy
import json
import os
import re
import stat
import struct
import warnings

import numpy as np
import pytest

from uws import cli, theory
from uws.ensemble import (
    ExtractionConfig,
    ModelWeights,
    load_coefficients,
    load_subspace,
    load_weights,
    save_weights,
)
from uws.ensemble.container import (
    atomic_write_bytes,
    build_container,
    read_container,
    write_container,
)
from uws.errors import ManifestError, PayloadMismatchError
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


def test_written_files_take_their_mode_from_the_umask(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    old = os.umask(0o027)
    try:
        write_container(tmp_path / "c.uws", "m", [("w", np.eye(2), "f64")])
        atomic_write_bytes(tmp_path / "b.bin", b"uws")
        code, _, err = run(["extract", "--models", pattern, "--out", str(tmp_path / "s.uws"),
                            "--report", str(tmp_path / "r.csv")], capsys)
    finally:
        os.umask(old)
    assert code == 0, err
    for name in ("c.uws", "b.bin", "s.uws", "r.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640, name


def assert_extract_reruns_byte_identically(tmp_path, capsys, flags):
    pattern, _ = write_fixture_models(tmp_path)
    first = tmp_path / "a.uws"
    second = tmp_path / "b.uws"
    stdouts = []
    for out in (first, second):
        code, stdout, _ = run(
            ["extract", "--models", pattern, "--out", str(out),
             "--report", str(out.with_suffix(".csv")), *flags],
            capsys,
        )
        assert code == 0
        stdouts.append(stdout.replace(str(out.with_suffix("")), "OUT"))
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()
    assert stdouts[0] == stdouts[1]


def test_extract_rerun_is_byte_identical(tmp_path, capsys):
    assert_extract_reruns_byte_identically(tmp_path, capsys, ["--tau", "0.95"])


@pytest.mark.parametrize(
    "flags", [["--order", "3"], ["--tau", "1"], ["--hard-threshold"]],
    ids=["order3", "tau1", "hard_threshold"],
)
def test_extract_rerun_is_byte_identical_on_the_exact_route(tmp_path, capsys, flags):
    # each layer's stack is decomposed by exact_subspace, not streamed
    assert_extract_reruns_byte_identically(tmp_path, capsys, flags)


def test_extract_refuses_an_excluded_layer_the_models_lack(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    code, out, err = run(["extract", "--models", pattern, "--out", str(tmp_path / "s.uws"),
                          "--report", str(tmp_path / "r.csv"), "--exclude-layers", "nope"], capsys)
    assert (code, out) == (2, "")
    assert err == "data error: excluded layers not present in the ensemble: nope\n"
    assert not (tmp_path / "s.uws").exists()


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
        spec = u.layer_models[name].spectra[-1]
        # N counts every component of the stack, stored or not
        prefix = f"  {name}: rank {spec.retained} of {min(u.layer_models[name].shape)}, "
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


def test_extract_into_a_missing_directory_names_the_destination(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    out = tmp_path / "missing" / "s.uws"
    code, stdout, err = run(
        ["extract", "--models", pattern, "--out", str(out), "--report", str(tmp_path / "r.csv")],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not (tmp_path / "missing").exists()


def test_project_into_a_missing_directory_names_the_destination(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    out = tmp_path / "missing" / "c.uws"
    code, stdout, err = run(
        ["project", "--subspace", str(space), "--model", str(paths[0]), "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not (tmp_path / "missing").exists()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command computed before checking its outputs")


@pytest.mark.parametrize("missing", ["out", "report"])
def test_extract_checks_its_output_directories_before_it_reads_a_model(
    tmp_path, capsys, monkeypatch, missing
):
    pattern, _ = write_fixture_models(tmp_path)
    monkeypatch.setattr(cli, "extract_universal", _must_not_run)
    paths = {"out": tmp_path / "s.uws", "report": tmp_path / "r.csv"}
    paths[missing] = tmp_path / "missing" / paths[missing].name
    code, stdout, err = run(
        ["extract", "--models", pattern, "--out", str(paths["out"]),
         "--report", str(paths["report"])],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == f"data error: [Errno 2] No such file or directory: {str(paths[missing])!r}\n"


def test_theory_converge_checks_its_output_directory_before_it_samples(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(theory, "convergence_study", _must_not_run)
    out = tmp_path / "missing" / "r.csv"
    code, stdout, err = run(
        ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4", "--trials", "1",
         "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_extract_policy_flags_are_mutually_exclusive(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    code, _, err = run(
        ["extract", "--models", pattern, "--out", str(tmp_path / "s.uws"),
         "--report", str(tmp_path / "r.csv"), "--tau", "0.9", "--fixed-k", "4"],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("flag", ["--eigen-floor", "--tau"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_extract_non_finite_policy_value_is_a_usage_error(tmp_path, capsys, flag, value):
    pattern, _ = write_fixture_models(tmp_path)
    code, _, err = run(
        ["extract", "--models", pattern, "--out", str(tmp_path / "s.uws"),
         "--report", str(tmp_path / "r.csv"), flag, value],
        capsys,
    )
    assert code == 1 and "must" in err
    assert not (tmp_path / "s.uws").exists()


@pytest.mark.parametrize("flags, words", [
    (["--tau", "2"], "--tau must lie in (0, 1], got 2.0"),
    (["--eigen-floor=-1"], "--eigen-floor must be finite and >= 0, got -1.0"),
    (["--arch-id", ""], "--arch-id must be a non-empty string, got ''"),
], ids=["tau", "eigen-floor", "arch-id"])
def test_extract_checks_its_flags_before_it_looks_for_models(tmp_path, capsys, flags, words):
    # a usage error is found from the command line alone, even where no model matches
    code, out, err = run(["extract", "--models", str(tmp_path / "nomatch*"),
                          "--out", str(tmp_path / "s.uws"), "--report", str(tmp_path / "r.csv"),
                          *flags], capsys)
    assert (code, out, err) == (1, "", f"error: {words}\n")


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
    spectra = u.layer_models["block0"].spectra
    assert all(spec.retained == min(3, spec.singular_values.size) for spec in spectra)


def test_extract_fixed_k_past_the_stack_keeps_its_numerical_rank(tmp_path, capsys):
    # a wide 8 x 16 stack of four 2 x 16 slabs: feature centring leaves
    # rank 7, and --fixed-k 8 keeps those 7, not the rounding-level 8th
    rng = np.random.default_rng(8)
    for i in range(4):
        save_weights(ModelWeights(f"m{i}", {"w": rng.standard_normal((2, 16))}),
                     tmp_path / f"model_{i}.uws")
    out = tmp_path / "s.uws"
    code, stdout, err = run(
        ["extract", "--models", str(tmp_path / "model_*.uws"), "--out", str(out),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "8", "--exclude-layers", ""],
        capsys,
    )
    assert code == 0, err
    assert "  w: rank 7 of 8, " in stdout
    model = load_subspace(out).layer_models["w"]
    assert model.ranks == (7,) and model.spectra[-1].retained == 7


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


def test_scree_of_a_subspace_file_matches_its_report(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path, noise=1e-3)

    def rows(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    for tau in ("0.95", "1.0"):
        out, report = tmp_path / f"s{tau}.uws", tmp_path / f"r{tau}.csv"
        run(["extract", "--models", pattern, "--out", str(out),
             "--report", str(report), "--tau", tau], capsys)
        tails = [ln for ln in rows(report) if ln.startswith("tail,")]
        if tau == "0.95":
            # the Gram route stores each layer's leading components and a tail row
            # holds the rest; ratios still sum to 1
            assert [ln.split(",")[1] for ln in tails] == ["block0", "block1", "aggregate"]
            assert all(abs(float(ln.split(",")[-1]) - 1.0) < 1e-12 for ln in tails)
        else:
            # the exact route stores the whole spectrum and a tail of 0;
            # block1 has 20 components to block0's 24, so the aggregate's
            # tail holds block0's last 4
            assert [ln.split(",")[1] for ln in tails] == ["aggregate"]
        scree = tmp_path / f"scree{tau}.csv"
        code, _, _ = run(["scree", "--subspace", str(out), "--out", str(scree)], capsys)
        assert code == 0 and rows(scree) == rows(report)


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


def _order3_pipeline(tmp_path, pattern, first, center, capsys):
    """extract --order 3, scree, project model ``first``, reconstruct and
    merge into ``tmp_path``; returns every stdout and output file."""
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    steps = [
        ["extract", "--models", pattern, "--out", str(space), "--report",
         str(tmp_path / "r.csv"), "--order", "3", "--center", center, "--tau", "0.999"],
        ["scree", "--subspace", str(space), "--out", str(tmp_path / "t.csv")],
        ["project", "--subspace", str(space), "--model", first, "--out", str(coeffs)],
        ["reconstruct", "--subspace", str(space), "--coeffs", str(coeffs),
         "--out", str(tmp_path / "rebuilt.uws")],
        ["merge", "--subspace", str(space), "--models", pattern,
         "--out", str(tmp_path / "merged.uws")],
    ]
    outputs = []
    for argv in steps:
        code, out, err = run(argv, capsys)
        assert code == 0, err
        outputs.append(out)
    names = ["s.uws", "r.csv", "t.csv", "c.uws", "rebuilt.uws", "merged.uws"]
    return outputs + [(tmp_path / n).read_bytes() for n in names]


@pytest.mark.parametrize("center", ["feature", "global"])
def test_order3_pipeline_rebuilds_within_the_planted_bound(tmp_path, capsys, center):
    pattern, paths = write_fixture_models(tmp_path, n_models=8, noise=1e-9)
    first = _order3_pipeline(tmp_path, pattern, str(paths[0]), center, capsys)
    assert _order3_pipeline(tmp_path, pattern, str(paths[0]), center, capsys) == first
    u = load_subspace(tmp_path / "s.uws")
    assert u.config.order == 3 and u.included_layers == ["block0", "block1"]
    coeffs = load_coefficients(tmp_path / "c.uws")
    for name in u.included_layers:  # k2 x k3, no stacking axis
        assert coeffs.coefficients[name].coeffs.shape == u.layer_models[name].ranks
    models = [load_weights(p) for p in paths]
    mean = {n: sum(m.layers[n] for m in models) / len(models) for n in models[0].layers}
    for out, want in (("rebuilt.uws", models[0].layers), ("merged.uws", mean)):
        got = load_weights(tmp_path / out).layers
        assert list(got) == list(want)
        for name in u.included_layers:  # planted noise is 1e-9 of each layer
            assert np.linalg.norm(got[name] - want[name]) <= 1e-8 * np.linalg.norm(want[name])
        for name in u.excluded_layers:
            if out == "rebuilt.uws":
                assert np.array_equal(got[name], want[name])
            else:
                assert np.allclose(got[name], want[name], rtol=1e-14, atol=0)


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


def test_reconstruct_refuses_coefficients_without_an_included_layer(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path)
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    run(["project", "--subspace", str(space), "--model", str(paths[0]),
         "--out", str(coeffs)], capsys)
    doc = read_container(coeffs)
    records = [(name, arr, doc.dtypes[name]) for name, arr in doc.layers.items()
               if name != "coef/block1"]
    coeffs.write_bytes(build_container(doc.model_id, records, doc.meta))
    code, _, err = run(["reconstruct", "--subspace", str(space), "--coeffs", str(coeffs),
                        "--out", str(tmp_path / "back.uws")], capsys)
    assert code == 2 and "'block1'" in err
    assert not (tmp_path / "back.uws").exists()


@pytest.mark.parametrize(
    "edit",
    [
        # block0 keeps 2 of its 6 rows: it would rebuild as a 2 x 24 layer
        lambda entries: entries.update({"coef/block0": entries["coef/block0"][:2]}),
        # a layer the subspace does not know, and raw weights for a projected one
        lambda entries: entries.update({"coef/zzz": entries["coef/block0"]}),
        lambda entries: entries.update({"raw/block0": np.zeros((6, 24))}),
    ],
    ids=["rows-cut", "coef-outside-layer-order", "raw-for-included-layer"],
)
def test_reconstruct_refuses_coefficient_entries_that_do_not_fit(tmp_path, capsys, edit):
    pattern, paths = write_fixture_models(tmp_path)
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)
    run(["project", "--subspace", str(space), "--model", str(paths[0]),
         "--out", str(coeffs)], capsys)
    doc = read_container(coeffs)
    entries = dict(doc.layers)
    edit(entries)
    coeffs.write_bytes(build_container(
        doc.model_id, [(name, array, "f64") for name, array in entries.items()], doc.meta))
    code, _, err = run(["reconstruct", "--subspace", str(space), "--coeffs", str(coeffs),
                        "--out", str(tmp_path / "back.uws")], capsys)
    assert code == 2 and err.count("\n") == 1
    assert not (tmp_path / "back.uws").exists()


def write_f32_serve_fixture(tmp_path, capsys):
    """12 models of four 6 x 24 float32 layers, their --fixed-k 3 subspace
    (embed and head excluded) and model 0's coefficient file."""
    rng = np.random.default_rng(11)
    shapes = dict.fromkeys(["embed", "block0", "block1", "head"], (6, 24))
    layer_dicts, _, _ = planted_ensemble(rng, 12, shapes, 3, noise=1e-3)
    for i, layers in enumerate(layer_dicts):
        save_weights(ModelWeights(f"m{i}", dict(layers), dict.fromkeys(layers, "f32")),
                     tmp_path / f"model_{i:02d}.uws")
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    assert run(["extract", "--models", str(tmp_path / "model_*.uws"), "--out", str(space),
                "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)[0] == 0
    assert run(["project", "--subspace", str(space), "--model",
                str(tmp_path / "model_00.uws"), "--out", str(coeffs)], capsys)[0] == 0
    return space, coeffs


def rewrite_entry(path, name, edit):
    """Rewrite one entry of a container file in place, as ``edit(array)``."""
    doc = read_container(path)
    records = [(n, edit(arr) if n == name else arr, doc.dtypes[n])
               for n, arr in doc.layers.items()]
    path.write_bytes(build_container(doc.model_id, records, doc.meta))


def test_reconstruct_refuses_a_layer_beyond_the_float32_range(tmp_path, capsys):
    space, coeffs = write_f32_serve_fixture(tmp_path, capsys)
    rewrite_entry(coeffs, "coef/block0", lambda c: c * 1e40)
    before = sorted(tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast to f32 must not warn
        code, _, err = run(["reconstruct", "--subspace", str(space), "--coeffs", str(coeffs),
                            "--out", str(tmp_path / "back.uws")], capsys)
    assert code == 2 and err.count("\n") == 1
    assert "'block0'" in err and "f32" in err
    assert sorted(tmp_path.iterdir()) == before  # no output, no temp file


def test_a_manifest_whose_offsets_leave_a_gap_is_a_data_error(tmp_path, capsys):
    space, _ = write_f32_serve_fixture(tmp_path, capsys)
    model = tmp_path / "model_00.uws"
    blob = model.read_bytes()
    (length,) = struct.unpack("<Q", blob[4:12])
    manifest = json.loads(blob[12 : 12 + length])
    first = manifest["layers"][0]["nbytes"]
    for rec in manifest["layers"][1:]:
        rec["offset"] += 8  # eight unclaimed bytes after the first entry
    head = json.dumps(manifest).encode()
    payload = blob[12 + length :]
    model.write_bytes(b"UWS1" + struct.pack("<Q", len(head)) + head
                      + payload[:first] + bytes(8) + payload[first:])
    with pytest.raises(PayloadMismatchError, match="must be contiguous"):
        read_container(model)
    code, out, err = run(["project", "--subspace", str(space), "--model", str(model),
                          "--out", str(tmp_path / "c.uws")], capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert "must be contiguous" in err


def test_project_and_merge_refuse_a_layer_the_subspace_does_not_name(tmp_path, capsys):
    space, _ = write_f32_serve_fixture(tmp_path, capsys)
    mix = tmp_path / "mix"
    mix.mkdir()
    for i in (2, 3):
        model = load_weights(tmp_path / f"model_{i:02d}.uws")
        if i == 3:
            model.layers["zzz"] = np.ones((2, 3))
        save_weights(model, mix / f"model_{i:02d}.uws")
    code, _, err = run(["project", "--subspace", str(space), "--model",
                        str(mix / "model_03.uws"), "--out", str(tmp_path / "c2.uws")], capsys)
    assert code == 2 and "'zzz'" in err
    code, _, err = run(["merge", "--subspace", str(space), "--models", str(mix / "*.uws"),
                        "--out", str(tmp_path / "m.uws")], capsys)
    assert code == 2 and "'zzz'" in err
    assert not (tmp_path / "c2.uws").exists() and not (tmp_path / "m.uws").exists()


def _with_layers(model, model_id, **changes):
    """A copy of ``model`` named ``model_id``, each layer in ``changes``
    replaced by its value, or dropped where that is None."""
    layers = {**model.layers, **changes}
    return ModelWeights(model_id, {n: w for n, w in layers.items() if w is not None})


def test_every_reader_refuses_what_lacks_an_excluded_layer_naming_model_and_layer(
    tmp_path, capsys
):
    pattern, paths = write_fixture_models(tmp_path)
    space, coeffs, out = tmp_path / "s.uws", tmp_path / "c.uws", str(tmp_path / "out.uws")
    assert run(["extract", "--models", pattern, "--out", str(space),
                "--report", str(tmp_path / "r.csv")], capsys)[0] == 0
    assert "head" in load_subspace(space).excluded_layers
    assert run(["project", "--subspace", str(space), "--model", str(paths[0]),
                "--out", str(coeffs)], capsys)[0] == 0
    for edit, problem in (
        (lambda entries: entries.pop("raw/head"), "missing 'raw/head'"),
        (lambda entries: entries.update({"raw/head": (entries["raw/head"][0][:-1], "f64")}),
         "'raw/head' of shape (5, 24), not (6, 24)"),
    ):
        write_edited(coeffs, tmp_path / "c2.uws", lambda entries, meta: edit(entries))
        code, _, err = run(["reconstruct", "--subspace", str(space), "--coeffs",
                            str(tmp_path / "c2.uws"), "--out", out], capsys)
        assert code == 2 and "coefficients 'm0'" in err and problem in err, err
    first = load_weights(paths[0])
    for odd, problem in (
        (_with_layers(first, "odd", head=None), "missing 'head'"),
        (_with_layers(first, "odd", zzz=np.ones((2, 3))), "extra 'zzz'"),
        (_with_layers(first, "odd", head=np.ones((2, 24))),
         "'head' of shape (2, 24), not (6, 24)"),
    ):
        save_weights(odd, tmp_path / "model_02.uws")  # stands in for model m2
        for argv in (
            ["extract", "--models", pattern, "--out", out, "--report", str(tmp_path / "r2.csv")],
            ["merge", "--subspace", str(space), "--models", pattern, "--out", out],
            ["project", "--subspace", str(space), "--model", str(tmp_path / "model_02.uws"),
             "--out", out],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2 and "model 'odd'" in err and problem in err, (argv[0], err)
    assert not os.path.exists(out)


def test_subspace_and_coefficient_files_are_not_weights(tmp_path, capsys):
    pattern, paths = write_fixture_models(tmp_path)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), "--fixed-k", "3"], capsys)
    (tmp_path / "cc").mkdir()
    (tmp_path / "ss").mkdir()
    for i in (0, 1):
        code, _, _ = run(["project", "--subspace", str(space), "--model", str(paths[i]),
                          "--out", str(tmp_path / "cc" / f"c{i}.uws")], capsys)
        assert code == 0
        (tmp_path / "ss" / f"s{i}.uws").write_bytes(space.read_bytes())
    for kind, folder in (("coefficients", "cc"), ("subspace", "ss")):
        files = sorted((tmp_path / folder).iterdir())
        with pytest.raises(ManifestError, match=f"'{kind}' container, not weights"):
            load_weights(files[0])
        for argv in (
            ["extract", "--models", str(tmp_path / folder / "*.uws"), "--out",
             str(tmp_path / "x.uws"), "--report", str(tmp_path / "x.csv")],
            ["project", "--subspace", str(space), "--model", str(files[0]),
             "--out", str(tmp_path / "x.uws")],
            ["merge", "--subspace", str(space), "--models", str(tmp_path / folder / "*.uws"),
             "--out", str(tmp_path / "x.uws")],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2 and f"'{kind}' container, not weights" in err, (argv, err)
            assert not (tmp_path / "x.uws").exists()
    # a weights file may carry meta of its own, as long as it names no kind
    write_container(tmp_path / "tagged.uws", "m0", [("w", np.ones((2, 3)), "f64")],
                    meta={"tag": 7})
    assert load_weights(tmp_path / "tagged.uws").layers["w"].shape == (2, 3)


def test_project_refuses_a_subspace_whose_basis_is_not_orthonormal(tmp_path, capsys):
    space, _ = write_f32_serve_fixture(tmp_path, capsys)
    rewrite_entry(space, "U/block0/2", lambda u: u * 2)
    code, _, err = run(["project", "--subspace", str(space), "--model",
                        str(tmp_path / "model_01.uws"), "--out", str(tmp_path / "c2.uws")], capsys)
    assert code == 2 and "'U/block0/2' is not orthonormal" in err


@pytest.mark.parametrize("flags", [
    (), ("--tau", "1"), ("--hard-threshold",), ("--fixed-k", "3"), ("--order", "3"),
    ("--eigen-floor", "0.01"), ("--center", "global"),
], ids=["default", "tau1", "hard-threshold", "fixed-k", "order3", "eigen-floor", "global"])
def test_a_factor_narrower_than_its_policy_keeps_exits_2_from_every_reader(
    tmp_path, capsys, flags
):
    space, _, readers = write_reader_fixture(tmp_path, capsys, flags)
    write_edited(space, tmp_path / "edited.uws", lambda entries, meta: None)
    assert run(readers["scree"], capsys)[0] == 0  # every file uws writes passes
    width = load_subspace(space).layer_models["block0"].factors[0].shape[1]  # U/block0/2
    assert width > 1
    write_edited(space, tmp_path / "edited.uws", lambda entries, meta: entries.update(
        {"U/block0/2": (entries["U/block0/2"][0][:, :-1], "f64")}))
    message = f"entry 'U/block0/2' is {width - 1} wide, but "
    for name, argv in readers.items():
        code, _, err = run(argv, capsys)
        assert code == 2 and err.count("\n") == 1 and message in err, (name, err)


def _single_field_edits(meta, path=()):
    """Every copy of ``meta`` with one key, at any depth, deleted or set
    to "x", [1] or -1, or with a key "unknown" added to one of its
    objects, with the key's path and the edit."""

    def edited(key, edit):
        out = copy.deepcopy(meta)
        target = out
        for k in path:
            target = target[k]
        if edit == "delete":
            del target[key]
        else:
            target[key] = edit
        return out

    node = meta
    for k in path:
        node = node[k]
    for key, value in node.items():
        for edit in ("delete", "x", [1], -1):
            yield "/".join(path + (key,)), edit, edited(key, edit)
        if isinstance(value, dict):
            yield from _single_field_edits(meta, path + (key,))
    yield "/".join(path + ("unknown",)), "add", edited("unknown", 1)


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
    records = [(name, arr, doc.dtypes[name]) for name, arr in doc.layers.items()]
    edited = tmp_path / "edited.uws"
    if kind == "subspace":
        argv = ["project", "--subspace", str(edited), "--model", str(paths[0]),
                "--out", str(tmp_path / "out.uws")]
    else:
        argv = ["reconstruct", "--subspace", str(space), "--coeffs", str(edited),
                "--out", str(tmp_path / "out.uws")]
    codes, passed = [], []
    for field, edit, meta in _single_field_edits(doc.meta):
        edited.write_bytes(build_container(doc.model_id, records, meta))
        codes.append(run(argv, capsys)[0])
        if codes[-1] == 0:
            passed.append((field, edit))
    # subspace meta: 16 keys in 3 objects; coefficient meta: 4 keys in 2
    assert len(codes) == {"subspace": 67, "coefficients": 18}[kind]
    assert set(codes) <= {0, 2, 3}
    if kind == "subspace":
        # a policy field missing from the meta is None, which the fixture's
        # cumulative_variance policy holds in those three
        assert passed == [
            (f"policy/{field}", "delete") for field in ("epsilon", "k", "noise_sigma")
        ]
    else:
        # a projected layer that ``dtypes`` does not name is f64, the
        # precision these fixture models were written at
        assert passed == [
            (field, "delete") for field in ("dtypes", "dtypes/block0", "dtypes/block1")
        ]


# ------------------------------------------------- what uws does not write


def write_reader_fixture(tmp_path, capsys, flags=()):
    """Extract ``s.uws`` (with the extract ``flags``) and project one model
    into ``c.uws``; return both paths and, by subcommand, the argv of every
    reader of a subspace file, reading it from ``edited.uws``."""
    pattern, paths = write_fixture_models(tmp_path, noise=1e-3)
    space, coeffs = tmp_path / "s.uws", tmp_path / "c.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv"), *flags], capsys)
    run(["project", "--subspace", str(space), "--model", str(paths[0]),
         "--out", str(coeffs)], capsys)
    x = np.random.default_rng(3).normal(size=(30, 24))
    np.savetxt(tmp_path / "x.csv", x, delimiter=",")
    np.savetxt(tmp_path / "y.csv", x[:, :6], delimiter=",")
    edited, out = str(tmp_path / "edited.uws"), str(tmp_path / "out.uws")
    readers = {
        "scree": ["scree", "--subspace", edited, "--out", str(tmp_path / "t.csv")],
        "project": ["project", "--subspace", edited, "--model", str(paths[0]), "--out", out],
        "reconstruct": ["reconstruct", "--subspace", edited, "--coeffs", str(coeffs),
                        "--out", out],
        "merge": ["merge", "--subspace", edited, "--models", pattern, "--out", out],
        "adapt": ["adapt", "--subspace", edited, "--layer", "block0",
                  "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out", out, "--report", str(tmp_path / "fit.csv")],
    }
    return space, coeffs, readers


def write_edited(source, edited, edit):
    """Copy container ``source`` to ``edited`` with ``edit(entries, meta)``
    applied to its entries (name -> (array, dtype)) and its meta."""
    doc = read_container(source)
    entries = {name: (arr, doc.dtypes[name]) for name, arr in doc.layers.items()}
    meta = copy.deepcopy(doc.meta)
    edit(entries, meta)
    write_container(edited, doc.model_id, [(n, a, d) for n, (a, d) in entries.items()], meta=meta)


def _copy_entry(name, source):
    return lambda entries, meta: entries.update({name: entries[source]})


_OLD_VERSION = "format_version {!r} is not 6: extract the subspace again"


@pytest.mark.parametrize(
    "edit, message",
    [
        *[(lambda e, m, v=v: m.update(format_version=v), _OLD_VERSION.format(v))
          for v in (1, 2, 3, 4, 5, "6", 6.0)],
        (lambda e, m: m.pop("format_version"), _OLD_VERSION.format(None)),
        (lambda e, m: e.pop("ledger/block0/tail/2"),
         "missing required entry 'ledger/block0/tail/2'"),
        (_copy_entry("core/block0", "mu/block0"), "'core/block0'"),
        (_copy_entry("U/block0/1", "U/block0/2"), "'U/block0/1'"),
        (_copy_entry("ledger/block0/ratio/2", "ledger/block0/sv/2"), "'ledger/block0/ratio/2'"),
        (_copy_entry("x/block0", "mu/block0"), "'x/block0'"),
        # the layout of version 5: the layer order, and per layer a dict
        (lambda e, m: m.update(layer_order=list(m["layers"])),
         "subspace meta holds 'layer_order'"),
        (lambda e, m: m["layers"].update(block0={"stack_shape": [24, 24], "slab_extent": 6}),
         "meta 'layers' must map each layer to its [rows, cols]"),
    ],
    ids=["version-1", "version-2", "version-3", "version-4", "version-5", "version-str",
         "version-float",
         "version-missing", "tail-missing", "core", "stacking-factor", "ratio-row",
         "unknown-entry", "meta-key", "layer-meta-key"],
)
def test_a_subspace_file_outside_version_5_exits_2_from_every_reader(
    tmp_path, capsys, edit, message
):
    space, _, readers = write_reader_fixture(tmp_path, capsys)
    write_edited(space, tmp_path / "edited.uws", lambda entries, meta: None)
    for name, argv in readers.items():
        assert run(argv, capsys)[0] == 0, name  # the unedited file reads
    write_edited(space, tmp_path / "edited.uws", edit)
    for name, argv in readers.items():
        code, _, err = run(argv, capsys)
        assert code == 2 and err.count("\n") == 1 and message in err, (name, err)
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_subspace(tmp_path / "edited.uws")


def test_a_tiny_increasing_spectrum_exits_2_from_scree(tmp_path, capsys):
    space, _, readers = write_reader_fixture(tmp_path, capsys)

    def reverse_and_shrink(entries, meta):
        # the spectrum scaled by 1e-220 (its tail energy by 1e-440) and reversed
        sv, dtype = entries["ledger/block0/sv/2"]
        entries["ledger/block0/sv/2"] = (np.flip(sv) * 1e-220, dtype)
        tail, dtype = entries["ledger/block0/tail/2"]
        entries["ledger/block0/tail/2"] = (tail * 1e-220 * 1e-220, dtype)

    write_edited(space, tmp_path / "edited.uws", reverse_and_shrink)
    code, _, err = run(readers["scree"], capsys)
    assert code == 2 and err.count("\n") == 1 and "must be nonincreasing" in err, err


def _parent_layout(entries, meta):
    """The meta coefficient files had before it kept only ``dtypes``."""
    meta.update(model_id="m0", passthrough=["embed", "head"],
                coef_shapes={n[5:]: list(a.shape) for n, (a, _) in entries.items()
                             if n.startswith("coef/")})
    meta["dtypes"].update(embed="f64", head="f64")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_copy_entry("x/block0", "coef/block0"), "coefficient container holds 'x/block0'"),
        (_copy_entry("coef", "coef/block0"), "coefficient container holds 'coef'"),
        (_parent_layout, "coefficient meta holds 'coef_shapes', 'model_id', 'passthrough'"),
        (lambda e, m: m["dtypes"].update(head="f64"), "coefficient meta dtypes holds 'head'"),
    ],
    ids=["unknown-entry", "bare-prefix", "parent-layout", "dtypes-of-a-raw-layer"],
)
def test_a_coefficient_file_with_what_uws_does_not_write_exits_2(tmp_path, capsys, edit, message):
    space, coeffs, _ = write_reader_fixture(tmp_path, capsys)
    edited = tmp_path / "edited.uws"
    argv = ["reconstruct", "--subspace", str(space), "--coeffs", str(edited),
            "--out", str(tmp_path / "out.uws")]
    write_edited(coeffs, edited, lambda entries, meta: None)
    assert run(argv, capsys)[0] == 0
    write_edited(coeffs, edited, edit)
    code, _, err = run(argv, capsys)
    assert code == 2 and err.count("\n") == 1 and message in err, err
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_coefficients(edited)


# ------------------------------------------------------- entry-level fuzz

_OTHER_PREFIX = {"coef/": "raw/", "raw/": "coef/", "mu/": "U/", "U/": "mu/"}


def _entry_edits(name, arr):
    """Each one-entry edit of entry ``name``, holding ``arr``, as (edit,
    function of the entries): delete it, copy it under the other prefix
    (an entry of its kind is in ``_OTHER_PREFIX``), cut its last row or
    column (a cut that would leave it empty is skipped: no container holds
    an empty matrix) and scale it by 3."""
    yield "delete", lambda e: e.pop(name)
    prefix = next((p for p in _OTHER_PREFIX if name.startswith(p)), None)
    if prefix is not None:
        other = _OTHER_PREFIX[prefix] + name[len(prefix):]
        yield "copy", lambda e: e.update({other: e[name]})
    if arr.shape[0] > 1:
        yield "row", lambda e: e.update({name: (e[name][0][:-1], e[name][1])})
    if arr.shape[1] > 1:
        yield "column", lambda e: e.update({name: (e[name][0][:, :-1], e[name][1])})
    yield "scale", lambda e: e.update({name: (e[name][0] * 3, e[name][1])})


@pytest.mark.parametrize("kind", ["subspace", "coefficients", "weights"])
def test_entry_edits_exit_0_only_where_pinned_and_never_end_in_a_traceback(
    kind, tmp_path, capsys
):
    space, coeffs, readers = write_reader_fixture(tmp_path, capsys)
    edited, model = tmp_path / "edited.uws", tmp_path / "model_00.uws"
    out = str(tmp_path / "out.uws")
    if kind == "coefficients":
        source = coeffs
        readers = {"reconstruct": ["reconstruct", "--subspace", str(space), "--coeffs",
                                   str(edited), "--out", out]}
    elif kind == "weights":
        # model 0 is edited in place: it is one of the models extract and
        # merge read, and the one project reads
        source, edited = tmp_path / "original.uws", model
        source.write_bytes(model.read_bytes())
        pattern = str(tmp_path / "model_*.uws")
        readers = {
            "extract": ["extract", "--models", pattern, "--out", out,
                        "--report", str(tmp_path / "r2.csv")],
            "project": ["project", "--subspace", str(space), "--model", str(model),
                        "--out", out],
            "merge": ["merge", "--subspace", str(space), "--models", pattern, "--out", out],
        }
    else:
        source = space
    runs = 0
    for name, arr in read_container(source).layers.items():
        for edit, change in _entry_edits(name, arr):
            write_edited(source, edited, lambda entries, meta: change(entries))
            for reader, argv in readers.items():
                code, _, err = run(argv, capsys)
                case = (name, edit, reader, err)
                assert code in (0, 2) and err.count("\n") == code // 2, case
                # only a scaled entry may exit 0: every value stays finite and
                # every shape fits, so the file says something else, but
                # nothing in it disagrees with itself
                assert code == 2 or edit == "scale", case
                runs += 1
    # subspace: 8 entries, 4 of them mu/ or U/; coefficients: 4 entries of
    # 6 x 24 or 5 x 20; weights: the same 4 layers, read by 3 subcommands
    assert runs == {"subspace": 140, "coefficients": 20, "weights": 48}[kind]


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


@pytest.mark.parametrize("weights, total", [("1e308,1e308,1,1", "inf"),
                                            ("0.5,0.5,0.5,0.5", "2.0")])
def test_merge_weight_sum_refusal_is_one_plain_line(tmp_path, capsys, weights, total):
    pattern, _ = write_fixture_models(tmp_path)
    space = tmp_path / "s.uws"
    run(["extract", "--models", pattern, "--out", str(space),
         "--report", str(tmp_path / "r.csv")], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a warning would print to stderr
        code, out, err = run(["merge", "--subspace", str(space), "--models", pattern,
                              "--weights", weights, "--out", str(tmp_path / "m.uws")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --weights: merge weights must sum to 1, got {total}\n"
    assert not (tmp_path / "m.uws").exists()


def test_a_dash_weight_list_given_with_equals_reaches_the_weights_check(tmp_path, capsys):
    pattern, _ = write_fixture_models(tmp_path)
    code, out, err = run(["merge", "--subspace", str(tmp_path / "s.uws"), "--models", pattern,
                          "--weights=-1,1,1,1", "--out", str(tmp_path / "m.uws")], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --weights: weights must be finite and >= 0, got -1.0 at index 0\n"


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


def test_adapt_report_carries_the_condition_number(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    reports = []
    for name in ("a", "b"):
        reports.append(tmp_path / f"{name}.csv")
        code, _, _ = run(
            ["adapt", "--subspace", str(space), "--layer", "block0",
             "--x", str(xfile), "--y", str(yfile),
             "--out", str(tmp_path / f"{name}.uws"), "--report", str(reports[-1])],
            capsys,
        )
        assert code == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    keys = [ln[2:].split(": ")[0] for ln in reports[0].read_text().splitlines()
            if ln.startswith("# ")]
    assert keys[keys.index("normal_matrix_lmax") + 1] == "normal_matrix_cond"
    header = dict(ln[2:].split(": ", 1) for ln in reports[0].read_text().splitlines()
                  if ln.startswith("# "))
    assert 1.0 <= float(header["normal_matrix_cond"]) < float("inf")


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


@pytest.mark.parametrize("lr", ["1e308", "1e3"])
def test_adapt_gd_that_diverges_is_a_one_line_numerical_failure(tmp_path, capsys, lr):
    # 1e308 overflows the first step; 1e3, far past the stable bound, grows to
    # inf within the epochs.  RuntimeWarnings are errors here.
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    code, out, err = run(["adapt", "--subspace", str(space), "--layer", "block0",
                          "--x", str(xfile), "--y", str(yfile), "--method", "gd", "--lr", lr,
                          "--out", str(tmp_path / "c.uws"), "--report", str(tmp_path / "f.csv")],
                         capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"numerical failure: gradient descent diverged at lr = {float(lr)!r} "
                          "(stable below ") and err.count("\n") == 1
    assert not (tmp_path / "c.uws").exists()


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


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_adapt_empty_csv_is_a_one_line_data_error(tmp_path, capsys, flag):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    empty = {"--x": xfile, "--y": yfile}[flag]
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warning of a file with no data included
        code, out, err = run(
            ["adapt", "--subspace", str(space), "--layer", "block0",
             "--x", str(xfile), "--y", str(yfile),
             "--out", str(tmp_path / "c.uws"), "--report", str(tmp_path / "f.csv")],
            capsys,
        )
    assert (code, out) == (2, "")
    assert err == f"data error: {flag} {empty} holds no data\n"


def test_adapt_non_finite_data_is_a_data_error(tmp_path, capsys):
    space, xfile, yfile = make_adapt_problem(tmp_path, capsys)
    x = np.loadtxt(xfile, delimiter=",")
    x[3, 1] = np.nan
    np.savetxt(xfile, x, delimiter=",")
    code, _, err = run(
        ["adapt", "--subspace", str(space), "--layer", "block0",
         "--x", str(xfile), "--y", str(yfile),
         "--out", str(tmp_path / "c.uws"), "--report", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 2
    assert err == "data error: x must be finite, got nan at index (3, 1)\n"


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
    # an infinite gap would print a subspace bound of 0.0, claiming the two
    # subspaces coincide; like every other non-finite numeric flag, it and
    # nan are usage errors
    for gamma in ("0.0", "-1", "nan", "inf"):
        code, out, err = run(
            ["theory", "bounds", "--b", "1.0", "--delta", "0.5", "--t", "10",
             "--eta-bar", "0.0", "--eta2-bar", "0.0", "--gamma-k", gamma],
            capsys,
        )
        assert (code, out) == (1, ""), gamma
        assert "--gamma-k" in err and err.count("\n") == 1


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
    assert header == "T,trial,op_error,subspace_error"
    data = [ln for ln in lines if not ln.startswith("#") and ln != header]
    assert len(data) == 4  # two grid points x two trials
    assert any("slope" in ln for ln in lines if ln.startswith("#"))


def test_the_converge_header_holds_what_the_benchmark_reads(tmp_path, capsys):
    # the header read as perfbench's theory-lab check reads it: "# key: value" lines
    t_grid = (4, 8, 16)
    out = tmp_path / "converge.csv"
    code, _, _ = run(["theory", "converge", "--d", "8", "--k", "2", "--t-grid",
                      ",".join(map(str, t_grid)), "--trials", "3", "--eta", "0.2",
                      "--seed", "41", "--out", str(out)], capsys)
    assert code == 0
    header = {}
    for line in out.read_text().splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            header[key] = value
    float(header["slope"])
    for t in t_grid:
        float(header[f"mean_op_error[{t}]"])
        bounds = theory.theorem1_bounds(theory.BoundParameters(
            b=float(header["b"]), delta=0.05, n_tasks=t, eta_bar=float(np.full(t, 0.2).mean()),
            eta2_bar=float((np.full(t, 0.2) ** 2).mean()), gamma_k=1.0))
        assert float(header[f"mean_op_bound[{t}]"]) == bounds.op_bound
        assert float(header[f"subspace_bound[{t}]"]) == bounds.subspace_bound


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


@pytest.mark.parametrize("argv", [
    ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4", "--trials", "2",
     "--out", "{out}"],
    ["theory", "dk-check", "--d", "4", "--k", "2", "--perturb", "0.1", "--trials", "2"],
])
def test_theory_negative_seed_is_a_usage_error(argv, tmp_path, capsys):
    argv = [a.replace("{out}", str(tmp_path / "r.csv")) for a in argv]
    code, out, err = run(argv + ["--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["theory", "bounds", "--b", "1.0", "--delta", "1", "--t", "10",
      "--eta-bar", "0.0", "--eta2-bar", "0.0"], "--delta"),
    (["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4", "--trials", "2",
      "--delta", "0", "--out", "{out}"], "--delta"),
    (["theory", "converge", "--d", "6", "--k", "7", "--t-grid", "4", "--trials", "2",
      "--out", "{out}"], "--k must not exceed --d ="),
    (["theory", "dk-check", "--d", "4", "--k", "5", "--perturb", "0.1", "--trials", "2"],
     "--k must not exceed --d ="),
], ids=["bounds-delta-1", "converge-delta-0", "converge-k-past-d", "dk-check-k-past-d"])
def test_theory_flags_out_of_range_are_usage_errors(argv, flag, tmp_path, capsys):
    argv = [a.replace("{out}", str(tmp_path / "r.csv")) for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


_CONVERGE = ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4", "--trials", "2"]


@pytest.mark.parametrize("flag, value, words", [
    ("--eta", "-1", "--eta must be finite and >= 0, got -1.0"),
    ("--t-grid", "1,a",
     "uws theory converge: argument --t-grid: expected comma-separated integers, got '1,a'"),
    ("--t-grid", "4,8,16,8", "--t-grid must not repeat a T, got 8 more than once"),
], ids=["eta", "t-grid", "t-grid-repeat"])
def test_theory_converge_refuses_a_bad_eta_or_grid_in_one_line(flag, value, words, tmp_path,
                                                               capsys):
    code, out, err = run(_CONVERGE + [flag, value, "--out", str(tmp_path / "r.csv")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {words}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["merge", "--subspace", "s.uws", "--models", "m*.uws", "--weights", "-1,1,1,1",
      "--out", "{out}"], "--weights"),
    (_CONVERGE + ["--eta", "-1e-3", "--out", "{out}"], "--eta"),
], ids=["merge-weights", "converge-eta"])
def test_a_flag_value_that_starts_with_a_dash_is_told_how_to_pass(argv, flag, tmp_path, capsys):
    # argparse reads -1,1,1,1 and -1e-3 as flags, not as negative numbers
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and f"argument {flag}: expected one argument" in err
    assert f"as {flag}=VALUE" in err


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


def test_out_of_memory_is_a_one_line_data_error(capsys):
    # two 10**7 x 10**7 float64 stacks: refused at allocation, nothing touched
    code, out, err = run(
        ["theory", "dk-check", "--d", "10000000", "--k", "1", "--perturb", "0.1",
         "--trials", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("data error: not enough memory")


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


def test_theory_converge_eta_overflow_is_a_one_line_data_error(tmp_path, capsys):
    # eta**2 and the moment products overflow; RuntimeWarnings are errors here
    code, out, err = run(
        ["theory", "converge", "--d", "4", "--k", "2", "--t-grid", "3", "--trials", "1",
         "--eta", "1e300", "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "data error: operator matrix must be finite, got inf at index (0, 0)\n"


def test_theory_converge_radial_eta_overflow_is_a_one_line_data_error(tmp_path, capsys):
    # eta / ||f_star|| = 1e310 overflows on the radial branch; RuntimeWarnings are errors here
    code, out, err = run(
        ["theory", "converge", "--d", "6", "--k", "1", "--t-grid", "4", "--trials", "3",
         "--eta", "1e307", "--b", "1e-3", "--norm-mode", "constant",
         "--perturbation", "radial", "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "data error: vectors must be finite, got inf at index (0, 0)\n"


@pytest.mark.parametrize("perturbation", ["isotropic", "radial"])
def test_theory_converge_rescales_a_task_vector_whose_norm_overflows(
    perturbation, tmp_path, capsys
):
    # every f_star's norm overflows before it is rescaled onto the radius-b
    # ball; RuntimeWarnings are errors here
    report = tmp_path / "o.csv"
    code, _, err = run(["theory", "converge", "--d", "4", "--k", "2", "--t-grid", "2",
                        "--trials", "1", "--spectrum", "8e307,8e307", "--b", "1",
                        "--perturbation", perturbation, "--out", str(report)], capsys)
    assert (code, err) == (0, "")
    # rescaled, not zeroed, the task vectors span the planted subspace
    row = next(ln for ln in report.read_text().splitlines() if ln.startswith("2,0,"))
    assert float(row.split(",")[3]) < 1e-12


def test_theory_converge_refuses_a_spectrum_whose_sum_overflows(tmp_path, capsys):
    code, out, err = run(
        ["theory", "converge", "--d", "4", "--k", "2", "--t-grid", "2", "--trials", "1",
         "--spectrum", "1e308,1e308", "--b", "1", "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "data error: spectrum must have a finite sum\n"


def test_output_into_missing_directory_is_a_data_error(tmp_path, capsys):
    code, _, _ = run(
        ["theory", "converge", "--d", "6", "--k", "2", "--t-grid", "4",
         "--trials", "1", "--out", str(tmp_path / "no_such_dir" / "r.csv")],
        capsys,
    )
    assert code == 2
