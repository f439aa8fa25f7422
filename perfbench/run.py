"""Benchmark of the uws library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``uws`` from ``src/``.
The parent process writes the seeded inputs under ``.bench_work/``, then
starts one fresh child process per set-up probe and one for the measured
run, one at a time, and removes the inputs when done.  Each child is a
single Python process; numpy's BLAS keeps its default thread count.

Standard output holds a readable table of every metric with its unit and
sample count, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
(from one extra traced pass) with ``--trace 1``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-up probes per run, on top of the measured child; serve's set-up
# decomposes 50 models, so it gets fewer
PROBES = {"extract-large": 4, "serve-roundtrip": 2, "theory-lab": 4}
DEADLINE_S = 170.0


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description="uws benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def src_lines(root) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Runner:
    def __init__(self, root, work, args, deadline):
        self.root, self.work, self.args, self.deadline = root, work, args, deadline
        self.count = 0

    def child(self, probe: bool) -> dict:
        """Run ``child.py`` to completion and return its result."""
        self.count += 1
        out = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", repr(self.args.seconds), "--work", str(self.work), "--out", str(out)]
        if probe:
            cmd.append("--probe")
        elif self.args.trace:
            cmd.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        timeout = max(1.0, self.deadline - time.monotonic())
        cmd += ["--t0", repr(time.monotonic())]
        # child output is diagnostics only; keep this process's stdout for results
        subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr, timeout=timeout, check=True)
        return json.loads(out.read_text())


def table(rows):
    for name, value, unit, samples in rows:
        print(f"{name:<44} {value:>16.6g} {unit:<6} n={samples}")


def main(argv=None) -> int:
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "uws" / "__init__.py").is_file():
        print(f"error: {root} has no src/uws; run from the root of a uws checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import numpy
    import workloads

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workloads.WORKLOADS[args.workload](work, args.seed).prepare()
        os.sync()  # flush the inputs now rather than during the timed phase
        runner = Runner(root, work, args, started + DEADLINE_S)
        setups = [runner.child(probe=True)["setup_s"] for _ in range(PROBES[args.workload])]
        result = runner.child(probe=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "output_bytes": result["output_bytes"],
    }
    print(f"# uws benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: nproc={len(os.sched_getaffinity(0))} blas_threads={result['blas_threads']} "
          f"numpy={numpy.__version__} blas={blas_version()!r} "
          f"python={platform.python_version()} src_lines={src_lines(root)}")
    samples = {"setup_s": len(setups), "wall_s": len(result["walls"])}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table([(n, v, units[n], samples.get(n, 1)) for n, v in values.items()])
    table([("failed_frac", failed / attempted, "ratio", attempted)])
    table(result["details"])
    if args.trace:
        values = {m["name"]: result["per_layer"].get(m["name"], 0) for m in spec["per_layer"]}
        table([(n, v, units[n], 1) for n, v in values.items()])
    for reason in result["reasons"]:
        print(f"# failed: {reason}")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
