"""The three workloads: inputs, set-up, one timed pass and its checks.

A workload object is built with a scratch directory, the workload seed
and the sizes.  ``prepare`` writes the inputs (in the parent process,
outside every measurement), ``setup`` is what ``setup_s`` measures, and
``run_pass`` performs one pass of the timed phase, returning the time
spent inside ``uws`` calls.  Every operation is checked right after it
is timed; a raise or a failed check counts in the tally as failed.

Why these three:

* ``extract-large``: 200 models of four 64x1024 layers, ``uws extract``
  with the default tau=0.95 policy.  Two full SVDs per decomposed
  12800x1024 stack dominate; memory is O(T*r*d) and container traffic is
  200 reads to one write.
* ``serve-roundtrip``: no decomposition in the timed phase.  Held-out
  models are projected, stored as coefficients, rebuilt and stored again
  (two reads and two writes each), merged in batches of 25 and fitted by
  coefficient-only adaptation: container I/O, tensor copies and small
  GEMMs.
* ``theory-lab``: ``uws theory converge`` and ``dk-check``; no container
  I/O and no HOSVD, so it is the no-change control for the other two,
  and they are the control for it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
# Module attributes are looked up at call time, so a traced pass sees the
# recorder's wrappers.
from uws import cli
from uws import ensemble as ens


@dataclass(frozen=True)
class Sizes:
    family: gen.Family = field(default_factory=gen.Family)
    ensemble: int = 200
    seen: int = 50
    pool: int = 200
    batch: int = 25
    adapt_samples: int = 512
    adapt_epochs: int = 500
    theory_d: int = 64
    theory_k: int = 4
    t_grid: tuple = (25, 50, 100, 200, 400)
    trials: int = 50
    dk_trials: int = 200


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(what)


class NoTrace:
    """Stands in for a :class:`spans.Recorder` in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


def run_cli(argv):
    """``uws.cli.main(argv)`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def feature_basis(u, layer):
    """The feature-mode factor (cols x k) of one layer of a subspace."""
    return np.asarray(u.layer_models[layer].factors[-1])


def layer_mean(u, layer, shape):
    return np.broadcast_to(np.asarray(u.layer_models[layer].mu, dtype=np.float64), shape)


TAILS = (99.9, 99.0, 95.0, 90.0)


def timing_rows(name, seconds):
    """``(metric, value, unit, samples)`` rows for a list of durations: the
    median and the highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    if n == 0:
        return []
    rows = [(f"{name}_p50_ms", 1000.0 * float(np.median(seconds)), "ms", n)]
    for p in TAILS:
        if n * (100.0 - p) / 100.0 >= 10:
            rows.append((f"{name}_p{p:g}_ms", 1000.0 * float(np.percentile(seconds, p)), "ms", n))
            break
    return rows


def discard(*paths):
    """Remove outputs once checked.  Operations write fresh file names and
    never replace a file: on ext4, renaming over an existing file starts
    writing the new one to disk at once, which would tie the timing to
    the disk rather than to uws."""
    for path in paths:
        Path(path).unlink(missing_ok=True)


def _failure(what: str) -> str:
    """Reason text for an operation that raised; the traceback goes to stderr."""
    traceback.print_exc(file=sys.stderr)
    return f"{what} raised {sys.exc_info()[1]!r}"


class Workload:
    name = ""

    def __init__(self, work, seed: int, sizes: Sizes = Sizes()):
        self.work = Path(work)
        self.seed = seed
        self.sizes = sizes
        self.timings = {}  # operation -> list of seconds

    @functools.cached_property
    def bases(self):
        return gen.planted_bases(self.seed, self.sizes.family)

    def _time(self, what, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.timings.setdefault(what, []).append(elapsed)
        return result, elapsed

    def prepare(self):
        """Write the workload's input files."""

    def setup(self):
        """The work a user pays before the first operation."""

    def after_setup(self):
        """Untimed preparation of the oracles the checks need."""

    def reload(self):
        """Set-up steps that a traced pass records as well (none here)."""

    def output_bytes(self) -> int:
        """Size of the file a user keeps from one operation."""
        raise NotImplementedError

    def subspace_path(self):
        """The subspace file this workload writes, if any."""
        return None

    def details(self) -> list:
        """Workload-specific ``(metric, value, unit, samples)`` rows."""
        return []


class ExtractLarge(Workload):
    name = "extract-large"

    def prepare(self):
        s = self.sizes
        gen.write_models(self.work / "ensemble", self.seed, s.family, self.bases, gen.ENSEMBLE, s.ensemble)

    def subspace_path(self):
        return self.work / "subspace.uws"

    def run_pass(self, tally: Tally, rec) -> float:
        argv = ["extract", "--models", str(self.work / "ensemble" / "*.uws"),
                "--out", str(self.subspace_path()), "--report", str(self.work / "scree.csv")]
        discard(self.subspace_path(), self.work / "scree.csv")
        with rec.span("bench.extract"):
            try:
                (rc, _), elapsed = self._time("extract", run_cli, argv)
            except Exception:
                tally.record(False, _failure("extract"))
                return 0.0
        with rec.paused():
            tally.record(rc == 0 and self.check(), f"extract exit {rc} or wrong subspace")
        return elapsed

    def check(self) -> bool:
        """Two decomposed layers, rank 16 each, spanning the planted basis."""
        u = ens.load_subspace(self.subspace_path())
        fam = self.sizes.family
        if list(u.included_layers) != list(gen.LAYERS[1:-1]):
            return False
        bound = fam.angle_bound(self.sizes.ensemble * fam.rows)
        for layer in u.included_layers:
            basis = feature_basis(u, layer)
            if basis.shape != (fam.cols, fam.rank):
                return False
            if not gen.max_principal_sine(basis, self.bases[layer]) < bound:
                return False
        return True

    def output_bytes(self) -> int:
        return os.path.getsize(self.subspace_path())

    def details(self):
        return [("subspace_bytes", self.output_bytes(), "B", 1)]


class ServeRoundtrip(Workload):
    name = "serve-roundtrip"

    def prepare(self):
        s = self.sizes
        gen.write_models(self.work / "seen", self.seed, s.family, self.bases, gen.SEEN, s.seen)
        gen.write_models(self.work / "pool", self.seed, s.family, self.bases, gen.HELD_OUT, s.pool)

    def subspace_path(self):
        return self.work / "seen-subspace.uws"

    def setup(self):
        argv = ["extract", "--models", str(self.work / "seen" / "*.uws"),
                "--fixed-k", str(self.sizes.family.rank),
                "--out", str(self.subspace_path()), "--report", str(self.work / "seen-scree.csv")]
        rc, _ = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up extract exited {rc}")
        self.u = ens.load_subspace(self.subspace_path())

    def after_setup(self):
        s = self.sizes
        self.pool = sorted((self.work / "pool").glob("*.uws"))
        self.x = gen.adapt_inputs(self.seed, s.family, s.adapt_samples)
        self.bound = s.family.residual_bound()
        self.adapts = 0
        self.roundtrips = 0
        self.coef_bytes = 0

    def reload(self):
        """Load the subspace again, so the traced pass records the load."""
        self.u = ens.load_subspace(self.subspace_path())

    def roundtrip(self, path, coef, out):
        w = ens.load_weights(path)
        ens.save_coefficients(ens.project_model(self.u, w), coef)
        rebuilt = ens.reconstruct_model(self.u, ens.load_coefficients(coef))
        ens.save_weights(rebuilt, out)
        return w, rebuilt

    def check_roundtrip(self, w, rebuilt) -> bool:
        """Included layers keep all but the noise; excluded ones are exact."""
        if list(rebuilt.layers) != list(w.layers):
            return False
        for name, original in w.layers.items():
            if name in self.u.included_layers:
                centred = original - layer_mean(self.u, name, original.shape)
                ratio = np.linalg.norm(original - rebuilt.layers[name]) / np.linalg.norm(centred)
                if not ratio < self.bound:
                    return False
            elif not np.array_equal(original, rebuilt.layers[name]):
                return False
        return True

    def merge(self, models, out):
        merged = ens.merge_models(self.u, models)
        ens.save_weights(merged, out)
        return merged

    def check_merge(self, models, merged) -> bool:
        """Equal to the reconstruction of the projected uniform mean."""
        mean = ens.ModelWeights(
            model_id="mean",
            layers={n: sum(m.layers[n] for m in models) / len(models) for n in models[0].layers},
        )
        oracle = ens.reconstruct_model(self.u, ens.project_model(self.u, mean))
        for name, expected in oracle.layers.items():
            got = merged.layers.get(name)
            if got is None or not np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected):
                return False
        return True

    def adapt(self, y, method):
        kwargs = {"epochs": self.sizes.adapt_epochs} if method == "gradient" else {}
        return ens.adapt_coefficients(self.u, "blk0", self.x, y, method=method, **kwargs)

    def check_adapt(self, y, method, coeffs, report) -> bool:
        """Closed form against a least-squares oracle in coefficient space;
        gradient descent must never raise the loss (beyond rounding)."""
        if method == "gradient":
            losses = np.asarray(report["loss_curve"])
            return len(losses) == self.sizes.adapt_epochs + 1 and bool(
                np.all(np.diff(losses) <= 1e-12 * losses[0]))
        basis = feature_basis(self.u, "blk0")
        target = y - self.x @ layer_mean(self.u, "blk0", (y.shape[1], basis.shape[0])).T
        expected = np.linalg.lstsq(self.x @ basis, target, rcond=None)[0].T
        got = np.asarray(coeffs.coeffs)
        return got.shape == expected.shape and bool(
            np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected))

    def run_pass(self, tally: Tally, rec) -> float:
        busy = 0.0
        batch = []
        for path in self.pool:
            self.roundtrips += 1
            coef = self.work / f"coef-{self.roundtrips}.uws"
            out = self.work / f"rebuilt-{self.roundtrips}.uws"
            with rec.span("bench.roundtrip"):
                try:
                    (w, rebuilt), elapsed = self._time("roundtrip", self.roundtrip, path, coef, out)
                except Exception:
                    tally.record(False, _failure(f"round trip of {path.name}"))
                    continue
            busy += elapsed
            with rec.paused():
                tally.record(self.check_roundtrip(w, rebuilt), f"round trip of {path.name}")
            self.coef_bytes = os.path.getsize(coef)
            discard(coef, out)
            batch.append(w)
            if len(batch) == self.sizes.batch:
                busy += self._merge_and_adapt(batch, tally, rec)
                batch = []
        return busy

    def _merge_and_adapt(self, batch, tally, rec) -> float:
        busy = 0.0
        out = self.work / f"merged-{self.roundtrips}.uws"
        with rec.span("bench.merge"):
            try:
                merged, elapsed = self._time("merge", self.merge, batch, out)
                busy += elapsed
            except Exception:
                merged = None
                tally.record(False, _failure("merge"))
        if merged is not None:
            with rec.paused():
                tally.record(self.check_merge(batch, merged), "merge")
        discard(out)
        method = ("closed_form", "gradient")[self.adapts % 2]
        self.adapts += 1
        y = self.x @ batch[-1].layers["blk0"].T
        with rec.span("bench.adapt"):
            try:
                (coeffs, report), elapsed = self._time(f"adapt_{method}", self.adapt, y, method)
                busy += elapsed
            except Exception:
                tally.record(False, _failure(f"adapt ({method})"))
                return busy
        with rec.paused():
            tally.record(self.check_adapt(y, method, coeffs, report), f"adapt ({method})")
        return busy

    def output_bytes(self) -> int:
        return self.coef_bytes

    def details(self):
        t = self.timings
        roundtrips = t.get("roundtrip", [])
        adapts = t.get("adapt_closed_form", []) + t.get("adapt_gradient", [])
        busy = sum(map(sum, t.values()))
        return [
            ("models_per_s", len(roundtrips) / busy if busy else 0.0, "1/s", len(roundtrips)),
            *timing_rows("roundtrip", roundtrips),
            *timing_rows("merge", t.get("merge", []))[:1],
            *timing_rows("adapt", adapts)[:1],
            ("coef_bytes_per_model", self.output_bytes(), "B", 1),
        ]


class TheoryLab(Workload):
    name = "theory-lab"

    def converge_argv(self):
        s = self.sizes
        return ["theory", "converge", "--d", str(s.theory_d), "--k", str(s.theory_k),
                "--t-grid", ",".join(map(str, s.t_grid)), "--trials", str(s.trials),
                "--eta", "0.2", "--seed", str(self.seed), "--out", str(self.work / "converge.csv")]

    def dk_argv(self):
        s = self.sizes
        return ["theory", "dk-check", "--d", str(s.theory_d), "--k", str(s.theory_k),
                "--perturb", "0.05", "--trials", str(s.dk_trials), "--seed", str(self.seed)]

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tally: Tally, rec) -> float:
        busy = 0.0
        for what, argv, check in (("converge", self.converge_argv(), self.check_converge),
                                  ("dk", self.dk_argv(), self.check_dk)):
            with rec.span(f"bench.{what}"):
                try:
                    (rc, out), elapsed = self._time(what, run_cli, argv)
                except Exception:
                    tally.record(False, _failure(f"theory {what}"))
                    continue
            busy += elapsed
            with rec.paused():
                tally.record(rc == 0 and check(out), f"theory {what} (exit {rc})")
        return busy

    def check_converge(self, out) -> bool:
        """Root-T slope, and the mean operator error under its bound at every T."""
        header = {}
        for line in (self.work / "converge.csv").read_text().splitlines():
            if line.startswith("# ") and ": " in line:
                key, value = line[2:].split(": ", 1)
                header[key] = value
        try:
            slope = float(header["slope"])
            pairs = [(float(header[f"mean_op_error[{t}]"]), float(header[f"mean_op_bound[{t}]"]))
                     for t in self.sizes.t_grid]
        except (KeyError, ValueError):
            return False
        return -0.6 <= slope <= -0.4 and all(err <= bound for err, bound in pairs)

    def check_dk(self, out) -> bool:
        return "violations: 0" in out.splitlines()

    def output_bytes(self) -> int:
        return os.path.getsize(self.work / "converge.csv")

    def details(self):
        s, t = self.sizes, self.timings
        cells = len(s.t_grid) * s.trials
        converge, dk = t.get("converge", []), t.get("dk", [])
        return [
            ("cells_per_s", cells * len(converge) / sum(converge) if converge else 0.0, "1/s", len(converge)),
            ("dk_trials_per_s", s.dk_trials * len(dk) / sum(dk) if dk else 0.0, "1/s", len(dk)),
        ]


WORKLOADS = {w.name: w for w in (ExtractLarge, ServeRoundtrip, TheoryLab)}
