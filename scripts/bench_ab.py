#!/usr/bin/env python3
"""Compare two qteleport trees on the benchmark, in alternating pairs.

    python3 scripts/bench_ab.py HEAD~1 HEAD --workloads image-full image-sampled \\
        --seeds 31-40 --seconds 8 --out BENCH_1.json

PARENT and CHANGE are each a git revision of the repository in the current
directory, or the path of a checkout, which may be dirty. Both are built
the same way. A revision is packed by `git archive`; a checkout's files
(`git ls-files`, untracked ones included and ignored ones not) are packed
as they are on disk. Each pair extracts both packs afresh into two sibling
directories, `slot0` and `slot1`, whose paths differ in one character:
pair k puts the parent in `slot{k % 2}` and the change in the other, and
runs the parent first on even k, so neither a side's path nor its turn
favours it.

For each seed and workload it runs `perfbench/run.py` once in each slot,
unchanged and from the slot's root. It writes JSON with how each side was
staged, each side's `env` line and `src/` digest, every run's metrics and
slot, and per workload and metric each side's median and quartiles and how
many pairs each side won; ties count for neither.
Which way is better comes from BENCHMARK.json in the parent tree.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

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


def schedule(pair: int) -> tuple[dict[str, str], tuple[str, str]]:
    """The slot each side sits in for pair `pair`, and the order they run in."""
    flip = pair % 2
    slots = {"parent": f"slot{flip}", "change": f"slot{1 - flip}"}
    return slots, SIDES[::-1] if flip else SIDES


def _git(cwd: str, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def pack(spec: str) -> tuple[bytes, dict]:
    """`spec`'s files as a tar archive, and how they were found: a directory
    is a checkout, taken as it is on disk; anything else is a revision of
    the repository in the current directory."""
    if os.path.isdir(spec):
        listed = _git(spec, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            for name in sorted({os.fsdecode(n) for n in listed.split(b"\0") if n}):
                path = os.path.join(spec, name)
                if os.path.lexists(path):  # a tracked file may be deleted on disk
                    tar.add(path, arcname=name, recursive=False)
        return buf.getvalue(), {"staged_from": "checkout", "path": os.path.abspath(spec)}
    commit = _git(".", "rev-parse", "--verify", spec + "^{commit}").decode().strip()
    archive = _git(".", "archive", "--format=tar", commit)
    return archive, {"staged_from": "revision", "revision": spec, "commit": commit}


def stage(archive: bytes, slot: str) -> None:
    """Make `slot` hold exactly the files of a tar archive."""
    shutil.rmtree(slot, ignore_errors=True)
    os.makedirs(slot)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(slot, filter="data")


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
    parser.add_argument("parent", help="revision or checkout of the parent")
    parser.add_argument("change", help="revision or checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "31-40" or "3,5,8"')
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    packs = {side: pack(spec) for side, spec in zip(SIDES, (args.parent, args.change))}
    root = tempfile.mkdtemp(prefix="bench_ab_")
    runs, envs, digests, better = [], {}, {}, {}
    try:
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            slots, order = schedule(pair)
            paths = {side: os.path.join(root, slots[side]) for side in SIDES}
            for side in SIDES:
                stage(packs[side][0], paths[side])
            if pair == 0:
                digests = {side: src_digest(paths[side]) for side in SIDES}
                with open(os.path.join(paths["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
                    declared = json.load(fh)
                better = {m["name"]: m["better"]
                          for m in declared["end_to_end"] + declared["per_layer"]}
            for workload in args.workloads:
                for position, side in enumerate(order):
                    run = run_once(paths[side], workload, seed, args.seconds, args.trace)
                    envs.setdefault(side, run.pop("env"))
                    run.update(workload=workload, seed=seed, pair=pair, side=side,
                               slot=slots[side], position=position)
                    runs.append(run)
                    print(f"pair {pair} seed {seed} {workload} {side} in {slots[side]}: "
                          f"correct={run['correct']} "
                          + " ".join(f"{k}={v:.6g}" for k, v in sorted(run["metrics"].items())),
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result = {
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "sources": {side: packs[side][1] for side in SIDES},
        "env": envs,
        "src_sha256": digests,
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
