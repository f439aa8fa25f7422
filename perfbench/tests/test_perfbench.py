"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import NoTrace, Sizes, Tally  # noqa: E402

TINY = Sizes(family=gen.Family(rows=16, cols=128, rank=4), ensemble=12, seen=10, pool=6,
             batch=3, adapt_samples=48, adapt_epochs=20, t_grid=(25, 50), trials=4, dk_trials=5)


def test_generator_is_a_function_of_the_seed(tmp_path):
    fam = TINY.family
    bases = gen.planted_bases(7, fam)
    for name, basis in bases.items():
        np.testing.assert_allclose(basis.T @ basis, np.eye(fam.rank), atol=1e-12)
        np.testing.assert_array_equal(basis, gen.planted_bases(7, fam)[name])
    a = gen.write_models(tmp_path / "a", 7, fam, bases, gen.HELD_OUT, 3)
    b = gen.write_models(tmp_path / "b", 7, fam, bases, gen.HELD_OUT, 3)
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    other = gen.model_layers(8, fam, gen.planted_bases(8, fam), gen.HELD_OUT, 0)
    seen = gen.model_layers(7, fam, bases, gen.SEEN, 0)
    held = gen.model_layers(7, fam, bases, gen.HELD_OUT, 0)
    assert not np.array_equal(other["blk0"], held["blk0"])
    assert not np.array_equal(seen["blk0"], held["blk0"])
    np.testing.assert_array_equal(gen.adapt_inputs(7, fam, 10), gen.adapt_inputs(7, fam, 10))


def _bindings():
    import uws.tensor

    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "uws" or name.startswith("uws.")):
            out.update({(name, k): v for k, v in vars(module).items()})
    out["DenseTensor.__init__"] = uws.tensor.DenseTensor.__dict__["__init__"]
    out.update({("numpy.linalg", k): getattr(np.linalg, k) for k in spans.LINALG})
    return out


def test_recorder_restores_every_binding(monkeypatch):
    import uws.ensemble
    import uws.hosvd
    import uws.theory

    before = _bindings()
    monkeypatch.setattr(spans, "FUNCTIONS",
                        spans.FUNCTIONS + [("theory", "uws.theory", "removed_later", "theory.gone")])
    rec = spans.Recorder()
    with rec.installed():
        assert uws.theory.operator_norm is not before[("uws.theory", "operator_norm")]
        assert uws.cli.operator_norm is uws.theory.operator_norm
        assert uws.ensemble.hosvd_truncated is uws.hosvd.hosvd_truncated
        assert uws.hosvd.hosvd_truncated is not before[("uws.hosvd", "hosvd_truncated")]
        uws.theory.operator_norm(np.eye(3))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = rec.summary()
    assert summary["spectral.operator_norm.calls"] == 1
    assert summary["linalg.qr.calls"] >= 1
    assert "theory.gone.calls" not in summary


def test_recorder_self_time_excludes_children():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(100000))
    s = rec.summary()
    assert s["outer.self_s"] == pytest.approx(s["outer.s"] - s["inner.s"])
    assert rec.count_within("inner", "outer") == 1


@pytest.fixture
def serve(tmp_path):
    wl = workloads.ServeRoundtrip(tmp_path, 3, TINY)
    wl.prepare()
    wl.setup()
    wl.after_setup()
    return wl


def test_serve_pass_is_correct_and_traced(serve):
    tally = Tally()
    serve.run_pass(tally, NoTrace())
    # 6 round trips, 2 merges and 2 adaptations (one closed-form, one gradient)
    assert (tally.attempted, tally.failed) == (10, 0), tally.reasons
    rec = spans.Recorder()
    with rec.installed():
        serve.run_pass(tally, rec)
    assert tally.failed == 0, tally.reasons
    assert rec.count_within("ensemble.project_model", "ensemble.merge_models") == 2 * TINY.batch
    assert rec.summary()["bench.roundtrip.calls"] == TINY.pool


def test_corrupted_reconstruction_is_counted_as_failed(serve, monkeypatch):
    real = workloads.ens.reconstruct_model

    def perturbed(u, coeffs):
        model = real(u, coeffs)
        model.layers["blk0"] = model.layers["blk0"] + 0.1
        return model

    monkeypatch.setattr(workloads.ens, "reconstruct_model", perturbed)
    tally = Tally()
    serve.run_pass(tally, NoTrace())
    assert tally.attempted == 10
    assert tally.failed >= TINY.pool


def test_corrupted_adaptation_is_counted_as_failed(serve, monkeypatch):
    real = workloads.ens.adapt_coefficients

    def off(*args, **kwargs):
        coeffs, report = real(*args, **kwargs)
        coeffs.coeffs = coeffs.coeffs * 1.001
        if "loss_curve" in report:
            report["loss_curve"] = report["loss_curve"][::-1]
        return coeffs, report

    monkeypatch.setattr(workloads.ens, "adapt_coefficients", off)
    tally = Tally()
    serve.run_pass(tally, NoTrace())
    assert tally.failed == 2


def test_extract_check_uses_the_planted_basis(tmp_path):
    wl = workloads.ExtractLarge(tmp_path, 5, TINY)
    wl.prepare()
    tally = Tally()
    wl.run_pass(tally, NoTrace())
    assert (tally.attempted, tally.failed) == (1, 0), tally.reasons
    wl.bases = gen.planted_bases(6, TINY.family)  # another family's basis
    assert not wl.check()


def test_theory_pass_and_its_checks(tmp_path):
    wl = workloads.TheoryLab(tmp_path, 0, TINY)
    wl.prepare()
    tally = Tally()
    wl.run_pass(tally, NoTrace())
    assert tally.attempted == 2
    assert wl.check_dk("trials: 5\nviolations: 0\n")
    assert not wl.check_dk("trials: 5\nviolations: 1\n")
