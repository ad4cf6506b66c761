"""Runs one workload in a process of its own, so its peak RSS belongs to
this workload alone. Started by run.py with PYTHONPATH pointing at the
checkout's `src`; writes its result as JSON to `<run dir>/result.json`.

`--probe image|netdemo` only imports what that workload needs, prints
`ready` and exits: run.py times it as the set-up cost.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from workloads import WORKLOADS


def _import_program(kind: str) -> None:
    if kind == "image":
        from qteleport.pipeline import teleport_image  # noqa: F401
    else:
        from qteleport.netdemo import run_alice, run_bob  # noqa: F401


class Tally:
    """Bits attempted and failed; every bit of a failed run counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, bits: int, failures: list[str]) -> None:
        self.attempted += bits
        if failures:
            self.failed += bits
            self.failures.extend(failures)


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _keep_going(started: float, durations: list[float], seconds: float, minimum: int = 1) -> bool:
    """Start another closed-loop repetition only if it should end in time,
    after at least `minimum` repetitions."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def _peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# -- image workloads ---------------------------------------------------------


def _image_rep(spec, run_dir, seed, sent_ppm, expected_bits, tally, tracer=None):
    from contextlib import nullcontext

    from checks import check_image
    from qteleport.pipeline import PipelineConfig, teleport_image

    config = PipelineConfig(
        input_path=os.path.join(run_dir, "input.ppm"),
        output_path=os.path.join(run_dir, "output.ppm"),
        protocol=spec["protocol"],
        noise_a=spec["noise_a"],
        seed=seed,
        sample=spec["sample"],
        threads=1,
    )
    with tracer.span("pipeline.teleport_image") if tracer else nullcontext():
        t = time.perf_counter()
        report = teleport_image(config)
        seconds = time.perf_counter() - t
    with open(config.output_path, "rb") as fh:
        received = fh.read()
    tally.add(
        report.bits_teleported,
        check_image(sent_ppm, received, report.to_dict(), spec["protocol"], expected_bits),
    )
    return report, seconds


def run_image(spec, args, tally) -> tuple[dict, dict]:
    with open(os.path.join(args.run_dir, "input.ppm"), "rb") as fh:
        sent_ppm = fh.read()
    from qteleport.imaging import load_raster

    img = load_raster(sent_ppm)
    expected_bits = spec["sample"] or img.total_bits()
    rep = lambda tracer=None: _image_rep(  # noqa: E731
        spec, args.run_dir, args.seed, sent_ppm, expected_bits, tally, tracer
    )
    if not args.trace:
        started, walls = time.perf_counter(), []
        # At least three calls, so the median never rests on the first,
        # cold call (8-15% slower than the rest).
        while _keep_going(started, walls, args.seconds, minimum=3):
            walls.append(rep()[1])
        rates = [expected_bits / w for w in walls]
        walls_ms = [w * 1e3 for w in walls]
        metrics = {
            "bits_per_s": statistics.median(rates),
            "peak_rss_mib": _peak_rss_mib(with_children=False),
            # Every bit of a call is delivered when the call returns.
            "bit_latency_p50_ms": statistics.median(walls_ms),
        }
        samples = {"bits_per_s": len(walls), "peak_rss_mib": 1,
                   "bit_latency_p50_ms": len(walls), "repetitions_s": walls}
        return metrics, samples
    return _trace_image(spec, args, img, rep), {}


def _trace_image(spec, args, img, rep) -> dict:
    import random
    import tracemalloc

    from qteleport import pipeline
    from qteleport.imaging import address_of
    from qteleport.seeding import derive_seed
    from tracing import Tracer

    # The tracemalloc call goes first: it also warms the process up, so
    # the untraced and traced calls that follow compare like with like.
    tracemalloc.start()
    try:
        rep()
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, untraced_s = rep()
    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    traced_names = {
        "load_raster": "imaging.load_raster",
        "bit_array": "imaging.bit_array",
        "image_from_bits": "imaging.image_from_bits",
        "write_raster": "imaging.write_raster",
        "sample_bits": "pipeline.sample_bits",
        "coincidence_count": "pipeline.coincidence_count",
    }
    with tracer.patched(pipeline, traced_names):
        report, traced_s = rep(tracer)
    if spec["sample"]:
        # The n address_of calls sample_bits makes, replayed on their own.
        total = img.total_bits()
        indices = random.Random(derive_seed(args.seed, "sample")).sample(range(total), spec["sample"])
        with tracer.span("imaging.address_of"):
            for i in indices:
                address_of(i, img.width, img.height)
    _write_trace(tracer, args)

    totals = tracer.totals()
    out = {f"pipeline.{k}_s": v for k, v in report.stage_seconds.items()}
    out["pipeline.wall_s"] = report.wall_time
    for name in ("pipeline.sample_bits", "pipeline.coincidence_count", "imaging.load_raster",
                 "imaging.bit_array", "imaging.image_from_bits", "imaging.write_raster",
                 "imaging.address_of"):
        out[name + "_s"] = totals.get(name, (0, 0.0, 0.0))[1]
    out["pipeline.py_alloc_peak_mib"] = alloc_peak / 2**20
    out["pipeline.pairs_processed"] = report.pairs_processed
    out["pipeline.classical_bits_total"] = report.coincidence.classical_bits_total
    out["pipeline.teleport_share"] = report.stage_seconds["teleport"] / report.wall_time
    out["pipeline.decompose_score_share"] = (
        report.stage_seconds["decompose"] + report.stage_seconds["score"]
    ) / report.wall_time
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


# -- netdemo workloads -------------------------------------------------------


def _session(args, spec, bits, tally, tracer=None, while_up=None):
    """One session on a fabric process of its own, so every session is
    session 0 under the run's seed and none inherits another's state.

    `while_up(session, addr)` runs after a correct session, before the
    fabric stops; it returns (value, failures). Returns (session, value)
    with session None when a check failed.
    """
    from checks import check_netdemo
    from netsession import run_session
    from procs import start_fabric, stop

    fabric, addr = start_fabric(args.root, args.seed)
    value = None
    try:
        session = run_session(addr, spec["protocol"], bits, tracer)
        failures = list(session.errors)
        if session.alice is None or session.bob is None:
            failures.append("session did not complete")
        else:
            failures += check_netdemo(
                spec["protocol"], bits, session.bob.bits,
                session.alice.transcript, session.bob.transcript,
            )
        if not failures and while_up is not None:
            value, more = while_up(session, addr)
            failures += more
    finally:
        stop(fabric)
    tally.add(len(bits), failures)
    return (None if failures else session), value


def run_netdemo(spec, args, tally) -> tuple[dict, dict]:
    # Alice, Bob and the fabric processes (which inherit this) share one CPU.
    # A session is a strict ping-pong, so nothing in it runs in parallel; on
    # one CPU each hand-off wakes its peer on a busy core, not an idle one,
    # and idle-CPU wake-up latency on a shared VM drifts by 2-4x over minutes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(args.run_dir, "bits.txt"), encoding="ascii") as fh:
        bits = [int(c) for c in fh.read().strip()]
    if args.trace:
        return _trace_netdemo(spec, args, bits[: spec["trace_bits"]], tally), {}
    started, reps, durations, gaps = time.perf_counter(), [], [], []
    while _keep_going(started, reps, args.seconds):
        t = time.perf_counter()
        session, _ = _session(args, spec, bits, tally)
        reps.append(time.perf_counter() - t)  # fabric start and stop included
        if session is None:
            break
        durations.append(session.seconds)
        gaps += session.ack_gaps_ms()
    metrics = {
        "bits_per_s": len(bits) / statistics.median(durations) if durations else 0.0,
        "bit_latency_p50_ms": _percentile(gaps, 50) if gaps else 0.0,
        # The session's fabric processes are the waited-for children.
        "peak_rss_mib": _peak_rss_mib(with_children=True),
    }
    samples = {"bits_per_s": len(durations), "peak_rss_mib": 1,
               "bit_latency_p50_ms": len(gaps), "repetitions_s": durations}
    return metrics, samples


def _trace_netdemo(spec, args, bits, tally) -> dict:
    import layers
    import netsession
    from tracing import Tracer

    def replays(session, addr):
        schedule = netsession.fabric_schedule(session)
        handle_times, mismatches = netsession.replay_handle(schedule, args.seed)
        rtt_times, errors = netsession.replay_rtt(schedule, addr)
        failures = []
        if mismatches:
            failures.append(f"in-process replay: {mismatches} replies differ from the session")
        if errors:
            failures.append(f"loopback replay: {errors} ERROR replies")
        return (schedule, handle_times, rtt_times), failures

    untraced, replayed = _session(args, spec, bits, tally, while_up=replays)
    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    with netsession.traced_clients(tracer):
        traced, _ = _session(args, spec, bits, tally, tracer)
    if untraced is None or traced is None:
        return {}
    _write_trace(tracer, args)

    schedule, handle_times, rtt_times = replayed
    out = netsession.client_counts(untraced)
    out.update(netsession.tap_medians(untraced))
    out["clients.bit_latency_p99_ms"] = _percentile(untraced.ack_gaps_ms(), 99)
    for mtype in ("ALLOC_QUBIT", "ALLOC_EPR", "APPLY", "MEASURE", "RESET"):
        for label, times in (("handle_us", handle_times), ("rtt_us", rtt_times)):
            if mtype in times:
                out[f"fabric.{label}.{mtype}"] = statistics.median(times[mtype]) * 1e6
    messages = [m for _, request, reply in schedule for m in (request, reply)]
    messages += netsession.peer_messages(untraced)
    out.update(layers.framing(messages))
    out.update(layers.core_and_protocols(args.seed))
    out["trace.overhead_ratio"] = traced.seconds / untraced.seconds
    return out


def _write_trace(tracer, args) -> None:
    trace_dir = os.path.join(args.root, ".bench_build", "perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", choices=("image", "netdemo"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--root")
    parser.add_argument("--run-dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.probe:
        _import_program(args.probe)
        print("ready", flush=True)
        return 0

    spec = WORKLOADS[args.workload]
    tally = Tally()
    runner = run_image if spec["kind"] == "image" else run_netdemo
    metrics, samples = runner(spec, args, tally)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "metrics": metrics,
        "samples": samples,
    }
    with open(os.path.join(args.run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
