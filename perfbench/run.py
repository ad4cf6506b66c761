#!/usr/bin/env python3
"""qteleport benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload image-full --seed 1 --seconds 25 --trace 0

Run from the root of a qteleport checkout; the program is used from its
sources in `src/`. The run makes its inputs from `--seed`, measures for about
`--seconds` seconds, checks every output, prints each metric by name with its
unit and sample count, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `attempted` and `failed`
count bits, so their ratio is the error rate. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, and the spans go to `.bench_build/perfbench/traces/`.
A layer the workload does not exercise reports 0. The exit code is 0 only
when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from procs import child_env, start_fabric, stop
from workloads import WORKLOADS, make_bits, make_image

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_TRIALS = 5
RUN_DEADLINE_S = 170.0


def measure_setup(kind: str, seed: int) -> list[float]:
    """Process start until the program can take its first input: the
    interpreter and package import, plus for netdemo a fabric process start
    until its listening line. Input generation is excluded."""
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    samples = []
    for _ in range(SETUP_TRIALS):
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, worker, "--probe", kind],
                                stdout=subprocess.PIPE, text=True, env=child_env(ROOT), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.wait(30)
        finally:
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if kind == "netdemo":
            t = time.perf_counter()
            fabric, _ = start_fabric(ROOT, seed)
            elapsed += time.perf_counter() - t
            stop(fabric)
        samples.append(elapsed)
    return samples


def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache"):
                cpu[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "network": "netdemo traffic crosses loopback (127.0.0.1), not a real link",
    }


def run_worker(args, run_dir: str, deadline: float) -> dict:
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    cmd = [sys.executable, worker, "--workload", args.workload, "--root", ROOT,
           "--run-dir", run_dir, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=child_env(ROOT), cwd=ROOT)
    try:
        proc.wait(max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failures": ["workload did not finish in time"]}
    finally:
        stop(proc)
    path = os.path.join(run_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"failures": [f"workload process exited with {proc.returncode}"]}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qteleport", "__init__.py")):
        print("perfbench: no qteleport sources in src/; run from a qteleport checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    spec = WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if spec["kind"] == "image":
            with open(os.path.join(run_dir, "input.ppm"), "wb") as fh:
                fh.write(make_image(args.seed))
        else:
            with open(os.path.join(run_dir, "bits.txt"), "w", encoding="ascii") as fh:
                fh.write("".join(map(str, make_bits(args.seed, spec["bits"]))))
        env = environment(args.seed)
        setup = [] if args.trace else measure_setup(spec["kind"], args.seed)
        result = run_worker(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = dict(result.get("metrics", {}))
    samples = dict(result.get("samples", {}))
    if setup:
        measured["setup_s"] = statistics.median(setup)
        samples["setup_s"] = len(setup)
    failures = result.get("failures", [])
    attempted = max(1, result.get("attempted", 0))
    failed = result.get("failed", 0) if "attempted" in result else attempted
    correct = not failures and failed == 0

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    metrics = {}
    for m in declared:
        # A layer the workload does not exercise reports 0.
        value = float(measured.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        count = samples.get(m["name"])
        note = f"  ({count} samples)" if count else ""
        print(f"  {m['name']:<40} {value:>16.6g} {m['unit']}{note}")
    reps = samples.get("repetitions_s")
    if reps:
        print(f"  {'repetitions_s':<40} " + " ".join(f"{r:.3f}" for r in reps))
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio  ({attempted} bits attempted)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
