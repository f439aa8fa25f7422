"""Span recorder that instruments ``uws`` from outside.

The recorder replaces every binding of each listed function across the
loaded ``uws.*`` modules with a wrapper that records a span (name, start,
end, parent), plus ``DenseTensor.__init__`` and the ``numpy.linalg``
entry points the library calls.  Spans stay in memory until the run
ends; :meth:`Recorder.uninstall` puts every original binding back.  A
function that no longer exists is skipped, and its metrics read 0.

No file under ``src/`` is touched: the program runs unmodified, only
the names it looks up are rebound while a traced pass runs.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# (layer, defining module, function name, span name)
FUNCTIONS = [
    ("cli", "uws.cli", "main", "cli.main"),
    ("ensemble", "uws.ensemble", "load_weights", "ensemble.load_weights"),
    ("ensemble", "uws.ensemble", "save_weights", "ensemble.save_weights"),
    ("ensemble", "uws.ensemble", "stack_layer", "ensemble.stack_layer"),
    ("ensemble", "uws.ensemble", "extract_universal", "ensemble.extract_universal"),
    ("ensemble", "uws.ensemble", "save_subspace", "ensemble.save_subspace"),
    ("ensemble", "uws.ensemble", "load_subspace", "ensemble.load_subspace"),
    ("ensemble", "uws.ensemble", "project_model", "ensemble.project_model"),
    ("ensemble", "uws.ensemble", "reconstruct_model", "ensemble.reconstruct_model"),
    ("ensemble", "uws.ensemble", "save_coefficients", "ensemble.save_coefficients"),
    ("ensemble", "uws.ensemble", "load_coefficients", "ensemble.load_coefficients"),
    ("ensemble", "uws.ensemble", "merge_models", "ensemble.merge_models"),
    ("ensemble", "uws.ensemble", "adapt_coefficients", "ensemble.adapt_coefficients"),
    ("container", "uws.ensemble.container", "read_container", "container.read"),
    ("container", "uws.ensemble.container", "write_container", "container.write"),
    ("hosvd", "uws.hosvd", "hosvd_truncated", "hosvd.hosvd_truncated"),
    ("hosvd", "uws.hosvd", "center", "hosvd.center"),
    ("hosvd", "uws.hosvd", "project_slice", "hosvd.project_slice"),
    ("hosvd", "uws.hosvd", "reconstruct_slice", "hosvd.reconstruct_slice"),
    ("spectral", "uws.spectral", "thin_svd", "spectral.thin_svd"),
    ("spectral", "uws.spectral", "select_rank", "spectral.select_rank"),
    ("spectral", "uws.spectral", "operator_norm", "spectral.operator_norm"),
    ("tensor", "uws.tensor", "unfold", "tensor.unfold"),
    ("tensor", "uws.tensor", "mode_product", "tensor.mode_product"),
    ("theory", "uws.theory", "sample_ensemble", "theory.sample_ensemble"),
    ("theory", "uws.theory", "second_moment", "theory.second_moment"),
    ("theory", "uws.theory", "top_k_projector", "theory.top_k_projector"),
    ("theory", "uws.theory", "subspace_distance", "theory.subspace_distance"),
    ("theory", "uws.theory", "davis_kahan_check", "theory.davis_kahan_check"),
    ("theory", "uws.theory", "convergence_study", "theory.convergence_study"),
]
LINALG = ["svd", "eigh", "eigvalsh", "qr", "solve"]
PEAK_SAMPLES = 5  # reads whose tracemalloc peak is measured
LAYERS = ["cli", "ensemble", "container", "hosvd", "spectral", "tensor", "theory", "linalg"]


def _nbytes(obj) -> int:
    """Bytes of an ndarray, or of the payload of a tensor-like object."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    data = getattr(obj, "data", None)
    return int(getattr(data, "nbytes", 0))


def _svd_flops(args, kwargs, result) -> float:
    """Computed: 6*m*n^2 + 20*n^3 (m >= n), the thin R-SVD count of
    Golub and Van Loan, from the input shape."""
    m, n = np.shape(args[0])
    m, n = max(m, n), min(m, n)
    return 6.0 * m * n * n + 20.0 * n**3


def _path_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _epochs(args, kwargs, result) -> int:
    return int(result[1].get("epochs", 0))


def _tensor_bytes(args, kwargs, result) -> int:
    # computed: the constructor stores a float64 copy of prod(shape) values
    return 8 * math.prod(int(s) for s in args[1])


# extra per-span quantities, summed into "<span>.<key>"
HOOKS = {
    "spectral.thin_svd": ("flops", _svd_flops),
    "tensor.unfold": ("bytes", lambda a, k, r: _nbytes(r)),
    "ensemble.stack_layer": ("bytes", lambda a, k, r: _nbytes(r)),
    "container.read": ("bytes", _path_bytes),
    "container.write": ("bytes", _path_bytes),
    "ensemble.adapt_coefficients": ("epochs", _epochs),
    "tensor.DenseTensor": ("copy_bytes", _tensor_bytes),
}


class Recorder:
    """Spans of one traced section, kept in memory.

    Each span is ``[name, start, end, parent_index]``.  Spans opened by
    the benchmark itself (``bench.*``) give the program's spans a common
    parent per operation.
    """

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.read_peak_ratios = []
        self.active = True
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -------------------------------------------------------------- spans

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark around one of its operations."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, layer):
        hook = HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            # tracemalloc slows every allocation, so only a few reads pay for it
            measure_peak = name == "container.read" and len(rec.read_peak_ratios) < PEAK_SAMPLES
            if measure_peak:
                tracemalloc.start()
            index = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.errors[layer] += 1
                raise
            finally:
                rec._close(index)
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if measure_peak:
                rec.read_peak_ratios.append(peak / max(1, os.path.getsize(args[0])))
            if hook is not None:
                key = f"{name}.{hook[0]}"
                rec.totals[key] = rec.totals.get(key, 0) + hook[1](args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every binding of the listed functions in loaded uws modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uws" or n.startswith("uws."))]
        for layer, module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, name, layer)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        tensor = sys.modules.get("uws.tensor")
        cls = getattr(tensor, "DenseTensor", None)
        if cls is not None and "__init__" in cls.__dict__:
            self._patch(cls, "__init__", self._wrap(cls.__init__, "tensor.DenseTensor", "tensor"))
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"linalg.{attr}", "linalg"))

    def uninstall(self):
        """Put back every binding :meth:`install` replaced, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ----------------------------------------------------------- metrics

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its direct children cover), plus hook totals."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - covered)
        out.update(self.totals)
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count
        if self.read_peak_ratios:
            out["container.read.peak_ratio"] = statistics.median(self.read_peak_ratios)
        return out

    def count_within(self, name, ancestor) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count
