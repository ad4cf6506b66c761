#!/usr/bin/env python3
"""Compare two qteleport checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_ab.py PARENT CHANGE --workloads image-full image-sampled \\
        --seeds 31-40 --seconds 8 --out BENCH_1.json

For each seed and workload it runs `perfbench/run.py` once in each checkout,
unchanged and from that checkout's root, alternating which side goes first
(the parent on even pair numbers). It writes JSON with each side's `env`
line and `src/` digest, every run's metrics, and per workload and metric
each side's median and quartiles and how many pairs each side won; ties
count for neither.
Which way is better comes from BENCHMARK.json in the parent checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """"31-40" or "3,5,8" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_digest(checkout: str) -> str:
    """SHA-256 over the files under the checkout's `src/`: in sorted order of
    their paths relative to it, each path, its byte count, then its bytes.
    Names the code a side ran where its `env` line cannot, as for a copy
    without `.git`. Bytecode caches and egg-info, which running or
    installing a side writes, are left out."""
    root = os.path.join(checkout, "src")
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info")]
        paths += [os.path.relpath(os.path.join(dirpath, f), root) for f in filenames]
    digest = hashlib.sha256()
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # run.py points its children at the checkout's own src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    run = {"exit_code": out.returncode, "env": None, "correct": False,
           "attempted": 0, "failed": 0, "metrics": {}}
    for line in lines:
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
    if lines and lines[-1].startswith("{"):
        last = json.loads(lines[-1])
        run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
                   metrics={k: v["value"] for k, v in last["metrics"].items()})
    else:
        run["stderr"] = out.stderr[-2000:]
    return run


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else float("nan")
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else float("nan"),
            "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["correct"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = {k: v for k, v in pairs.items() if len(v) == 2}
        names = sorted({m for p in pairs.values() for side in p.values() for m in side})
        rows = {}
        for name in names:
            sign = 1 if better.get(name, "lower") == "higher" else -1
            values = {side: [p[side][name] for p in pairs.values() if name in p[side]]
                      for side in SIDES}
            wins = {side: 0 for side in SIDES}
            for p in pairs.values():
                if name in p["parent"] and name in p["change"]:
                    diff = sign * (p["change"][name] - p["parent"][name])
                    if diff > 0:
                        wins["change"] += 1
                    elif diff < 0:
                        wins["parent"] += 1
            parent, change = spread(values["parent"]), spread(values["change"])
            rows[name] = {
                "better": better.get(name, "lower"),
                "parent": parent,
                "change": change,
                "wins": wins,
                "pairs": len(pairs),
                "median_gap_exceeds_parent_iqr":
                    abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            }
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "31-40" or "3,5,8"')
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    runs, envs = [], {}
    for pair, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workloads:
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                envs.setdefault(side, run.pop("env"))
                run.update(workload=workload, seed=seed, pair=pair, side=side, position=position)
                runs.append(run)
                print(f"pair {pair} seed {seed} {workload} {side}: correct={run['correct']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in sorted(run["metrics"].items())),
                      file=sys.stderr, flush=True)

    result = {
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "env": envs,
        "src_sha256": {side: src_digest(path) for side, path in checkouts.items()},
        "workloads": args.workloads,
        "seeds": parse_seeds(args.seeds),
        "runs": runs,
        "summary": summarize(runs, better),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
