"""One measuring process of the benchmark; run.py starts it.

Usage: python3 perfbench/measure.py --workload NAME --seed N --seconds S
           --trace 0|1 --workers W [--setup-only]

Prints one JSON line.  With --setup-only it only times set-up: importing
slamplan and building the workload's inputs.  Otherwise it runs the
workload's operations and checks each output:

- trace 0 runs whole passes over the input pool until S seconds have gone,
  one pass at least, and reports the end-to-end figures;
- trace 1 runs the first ``trace_ops`` pool entries untraced and then
  traced, and reports the per-layer metrics, the spans and the tracing
  overhead (traced minus untraced time of the same operations).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine_notes(workers: int) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    from slamplan import kernels

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    threads = None  # what numpy's OpenBLAS reports, when it can be asked
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_numpy": threads,
        "workers": workers,
        "slamplan_backend": kernels.BACKEND,
    }


def peak_rss_mb(workers: int) -> float:
    """This process's peak plus ``workers`` times the largest child peak: an
    upper bound on the sum while pool workers run beside it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


class Runner:
    """Runs, times and checks operations; remembers each input's digest."""

    def __init__(self, workload):
        from slamplan.errors import SlamplanError
        from workloads import Checked

        self.workload = workload
        self.error_type = SlamplanError
        self.checked = Checked
        self.ops = []
        self.digests = {}
        self.quality = {}

    def do(self, k: int, workers: int, phase: str) -> None:
        t0 = time.perf_counter()
        try:
            out = self.workload.run(k, workers)
        except self.error_type as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if out is None:
            checked = self.checked("", [error])
        else:
            checked = self.workload.check(k, out)
            first = self.digests.setdefault(k, checked.digest)
            if checked.digest != first:
                checked.problems.append("output differs from the first run of this input")
            self.quality.setdefault(k, checked.quality)
        self.ops.append({"input": k, "phase": phase, "seconds": seconds,
                         "units": self.workload.units, "digest": checked.digest,
                         "quality": checked.quality, "problems": checked.problems})

    def phase_seconds(self, phase: str) -> float:
        return sum(op["seconds"] for op in self.ops if op["phase"] == phase)

    def digest(self) -> str:
        joined = "".join(self.digests[k] for k in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()

    def mean_quality(self, key: str) -> float:
        values = [q[key] for q in self.quality.values() if key in q]
        return statistics.fmean(values) if values else 0.0


def run_untraced(runner, seconds: float, workers: int) -> dict:
    pool = runner.workload.pool_size
    start = time.perf_counter()
    k = 0
    while k < pool or time.perf_counter() - start < seconds:
        runner.do(k % pool, workers, "measure")
        k += 1
    per_unit = [op["seconds"] / op["units"] for op in runner.ops]
    ok = sum(not op["problems"] for op in runner.ops)
    return {
        "op_s": statistics.median(per_unit),
        "peak_rss_mb": peak_rss_mb(workers),
        "distance_m": runner.mean_quality("distance_m"),
        "dopt_per_m": runner.mean_quality("dopt_per_m"),
        "success_rate": ok / len(runner.ops),
    }


def run_traced(runner, workers: int):
    import layers
    from spans import Tracer
    from workloads import score_drift

    wl = runner.workload
    picks = range(wl.trace_ops)
    for k in picks:
        runner.do(k, workers, "untraced")
    reference = "untraced"
    if workers > 1:  # traced runs are serial: compare with serial untraced runs
        reference = "untraced-serial"
        for k in picks:
            runner.do(k, 1, reference)
    tracer = Tracer()
    greedy_runs = layers.install(tracer)
    try:
        for k in picks:
            tracer.op = k
            runner.do(k, 1, "traced")
    finally:
        tracer.uninstall()
    drift = max((score_drift(apg, res) for apg, res in greedy_runs), default=0.0)
    ops = len(picks)
    out = layers.metrics(tracer, ops, drift)
    untraced = runner.phase_seconds(reference)
    overhead = runner.phase_seconds("traced") - untraced
    out["trace.overhead_s"] = overhead / ops
    out["trace.overhead_ratio"] = overhead / untraced
    out["bench.workers"] = workers if out["bench.compare_strategies.s"] else 0
    parallel = runner.phase_seconds("untraced")
    missions = tracer.durations()["mission.run_mission"][0]
    out["bench.parallel_efficiency"] = (
        missions / (workers * parallel) if out["bench.workers"] else 0.0)
    out["sim.ape_rmse_m"] = runner.mean_quality("ape_rmse_m")
    return out, tracer.records()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload)
    result = {"setup_s": setup_s, "machine": machine_notes(args.workers)}
    if args.trace:
        result["metrics"], result["spans"] = run_traced(runner, args.workers)
    else:
        result["metrics"] = run_untraced(runner, args.seconds, args.workers)
    result.update(
        attempted=len(runner.ops),
        failed=sum(bool(op["problems"]) for op in runner.ops),
        digest=runner.digest(),
        inputs=sorted(runner.digests),
        ops=runner.ops,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
