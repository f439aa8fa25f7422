"""One measured run of a workload, in a fresh Python process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``--t0`` is the parent's ``time.monotonic()`` just before the
spawn (the clock is system-wide), so ``setup_s`` runs from process start
to the start of the timed phase.  With ``--probe`` the process stops
after set-up.  The result is written as JSON to ``--out``.
"""

import argparse
import ctypes
import json
import resource
import statistics
import time
from pathlib import Path


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def subspace_used_frac(path) -> float:
    """Computed: bytes of ``mu/*`` and feature-mode ``U/*`` entries over
    the subspace file's size, from the container manifest."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        manifest = json.loads(fh.read(int.from_bytes(head[4:12], "little")))
        size = fh.seek(0, 2)
    order = (manifest.get("meta") or {}).get("order", 2)
    used = sum(rec["nbytes"] for rec in manifest["layers"]
               if rec["name"].startswith("mu/")
               or (rec["name"].startswith("U/") and rec["name"].endswith(f"/{order}")))
    return used / size


def traced_metrics(wl, tally, untraced_wall):
    """One more pass with every layer wrapped.  The raw spans go to
    ``.bench_traces/<workload>-<seed>.json``; per-layer metrics are
    computed from them."""
    import spans

    rec = spans.Recorder()
    with rec.installed():
        wl.reload()
        wall = wl.run_pass(tally, rec)
    traces = Path(".bench_traces")
    traces.mkdir(exist_ok=True)
    with open(traces / f"{wl.name}-{wl.seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": rec.spans}, fh)
    out = rec.summary()
    merges = out.get("ensemble.merge_models.calls", 0)
    roundtrips = out.get("bench.roundtrip.calls", 0)
    out["tensor.DenseTensor.constructs"] = out.get("tensor.DenseTensor.calls", 0)
    out["ensemble.merge_models.projections"] = (
        rec.count_within("ensemble.project_model", "ensemble.merge_models") / merges if merges else 0)
    out["tensor.DenseTensor.constructs_per_roundtrip"] = (
        rec.count_within("tensor.DenseTensor", "bench.roundtrip") / roundtrips if roundtrips else 0)
    out["linalg.svd.wall_frac"] = out.get("linalg.svd.s", 0.0) / wall if wall else 0.0
    out["trace.overhead_frac"] = wall / untraced_wall - 1.0
    if wl.subspace_path() is not None:
        out["container.subspace_used_frac"] = subspace_used_frac(wl.subspace_path())
    return out


def measure(wl, seconds, traced):
    from workloads import NoTrace, Tally

    wl.after_setup()
    tally = Tally()
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(wl.run_pass(tally, NoTrace()))
    result = {
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": wl.output_bytes(),
        "details": wl.details(),
    }
    if traced:
        result["per_layer"] = traced_metrics(wl, tally, statistics.median(walls))
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads  # imports uws

    wl = workloads.WORKLOADS[args.workload](args.work, args.seed)
    wl.setup()
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.probe:
        result.update(measure(wl, args.seconds, args.trace))
        result["blas_threads"] = blas_threads()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
