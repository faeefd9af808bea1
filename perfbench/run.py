"""Layered pipeline benchmark for slamplan.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-grid20 --seed 1 --seconds 20 --trace 0

Workloads: plan-grid20, mission-grid12, compare-env1 (see README.md).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  The full record
(machine notes, every operation, output digest and, when traced, the
spans) goes to perfbench/out/.

This process only orchestrates: it caps BLAS threads so that busy
processes times BLAS threads stays within the core count, times set-up in
several fresh processes, and runs the workload in one more fresh process,
so peak memory is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan-grid20", "mission-grid12", "compare-env1")
SETUP_SAMPLES = 3  # fresh processes timing set-up; the measuring one is the last
DEADLINE_S = 170.0


def child(args, workers, env, deadline, *flags):
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workers", str(workers), *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next process")
    # A new process group, so a timeout also ends the pool workers the child started.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "slamplan" / "__init__.py").is_file():
        print(f"error: no slamplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    workers = nproc if args.workload == "compare-env1" else 1
    env = dict(os.environ)
    threads = str(max(1, nproc // workers))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = child(args, workers, env, deadline, "--setup-only")
                setups.append(probe["setup_s"])
        result = child(args, workers, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = result["failed"]
    summary = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, summary=summary), indent=1) + "\n")
    problems = [p for op in result["ops"] for p in op["problems"]]
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{failed} failed, digest {result['digest'][:16]}, record {record}",
          file=sys.stderr)
    for line in problems[:5]:
        print(f"  problem: {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
