"""End-to-end image teleportation: decompose an RGB image into bits, push
every bit (or a sampled subset) through a teleportation protocol as a basis
state, reassemble the received bits, and score the result with a
coincidence counter.

Bits are consumed two at a time, mirroring a two-lane transmitter: each
qubit of a pair rides its own fresh 3-qubit register and is read out as a
bit. An odd tail is padded with a zero ancilla that is teleported (and
costs its classical bits) but is excluded from scoring.

Bits stay in numpy arrays from decomposition to scoring. The sequence is cut
into ranges of RANGE_PAIRS pairs, each with its own PCG64 stream seeded from
(master seed, range start), so output is independent of thread count.
"""
from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import SQRT2_INV, PureQubit
from .imaging import (
    BITS_PER_PIXEL,
    RasterImage,
    bit_array,
    image_from_bits,
    load_raster,
    write_raster,
)
from .protocols import (
    NoisyEprParams,
    balanced_epr,
    teleport_bit,
    teleport_simplified,
    teleport_standard,
)
from .sdc import sdc_roundtrip
from .seeding import derive_seed

PROTOCOLS = ("standard", "simplified")
RANGE_PAIRS = 2048  # worker range size, in pairs
OUTCOME_KEYS = ("00", "01", "10", "11")
PLANE_COUNT = 8


@dataclass
class PipelineConfig:
    input_path: str
    output_path: str | None = None
    report_path: str | None = None
    protocol: str = "standard"
    noise_a: float | None = None
    seed: int = 0
    sample: int | None = None  # None teleports every bit
    threads: int = 1

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.noise_a is not None and not 0.0 < self.noise_a <= 1.0:
            raise ValueError(f"noise amplitude {self.noise_a} outside (0, 1]")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def epr_amplitudes(self) -> tuple[float, float]:
        if self.noise_a is None:
            return SQRT2_INV, SQRT2_INV
        p = NoisyEprParams.from_a(self.noise_a)
        return float(p.a.real), float(p.b.real)

    def to_dict(self) -> dict:
        return {
            "input_path": self.input_path,
            "output_path": self.output_path,
            "report_path": self.report_path,
            "protocol": self.protocol,
            "noise_a": self.noise_a,
            "seed": self.seed,
            "sample": self.sample,
            "threads": self.threads,
        }


@dataclass
class CoincidenceReport:
    total_bits: int
    matched: int
    coincidence: float
    per_plane: dict[str, float | None]  # keys "R7".."B0"; None = no data
    per_outcome_histogram: dict[str, int]
    classical_bits_total: int

    def to_dict(self) -> dict:
        return {
            "total_bits": self.total_bits,
            "matched": self.matched,
            "coincidence": self.coincidence,
            "per_plane": self.per_plane,
            "per_outcome_histogram": self.per_outcome_histogram,
            "classical_bits_total": self.classical_bits_total,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoincidenceReport":
        return cls(
            total_bits=d["total_bits"],
            matched=d["matched"],
            coincidence=d["coincidence"],
            per_plane=dict(d["per_plane"]),
            per_outcome_histogram=dict(d["per_outcome_histogram"]),
            classical_bits_total=d["classical_bits_total"],
        )


@dataclass
class TeleportReport:
    config: dict
    coincidence: CoincidenceReport
    bits_teleported: int
    pairs_processed: int
    wall_time: float
    stage_seconds: dict[str, float]
    throughput_bits_per_sec: float
    engine_version: str = __version__
    schema: int = 3
    rng: str = "pcg64"  # the bit generator behind every pipeline stream

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "engine_version": self.engine_version,
            "rng": self.rng,
            "config": self.config,
            "coincidence": self.coincidence.to_dict(),
            "bits_teleported": self.bits_teleported,
            "pairs_processed": self.pairs_processed,
            "wall_time": self.wall_time,
            "stage_seconds": self.stage_seconds,
            "throughput_bits_per_sec": self.throughput_bits_per_sec,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TeleportReport":
        if d.get("schema") != cls.schema:
            raise ValueError(f"report schema {d.get('schema')!r}; this version reads {cls.schema}")
        return cls(
            config=dict(d["config"]),
            coincidence=CoincidenceReport.from_dict(d["coincidence"]),
            bits_teleported=d["bits_teleported"],
            pairs_processed=d["pairs_processed"],
            wall_time=d["wall_time"],
            stage_seconds=dict(d["stage_seconds"]),
            throughput_bits_per_sec=d["throughput_bits_per_sec"],
            engine_version=d["engine_version"],
            schema=d["schema"],
            rng=d["rng"],
        )

    @classmethod
    def from_json(cls, text: str) -> "TeleportReport":
        return cls.from_dict(json.loads(text))


TIMING_KEYS = ("wall_time", "stage_seconds", "throughput_bits_per_sec")
# Results are independent of worker count and of where artifacts land, so
# those config entries stay out of the comparison too.
_INCIDENTAL_CONFIG_KEYS = ("threads", "report_path", "output_path")


def reports_equivalent(a: TeleportReport, b: TeleportReport) -> bool:
    """Same experiment, same results: ignores timing, worker count, and
    artifact destinations."""
    da, db = a.to_dict(), b.to_dict()
    for k in TIMING_KEYS:
        da.pop(k, None)
        db.pop(k, None)
    for k in _INCIDENTAL_CONFIG_KEYS:
        da["config"].pop(k, None)
        db["config"].pop(k, None)
    return da == db


def plane_key(channel: int, plane: int) -> str:
    return f"{'RGB'[channel]}{plane}"


def sample_bits(img: RasterImage, n: int, seed: int) -> np.ndarray:
    """Uniform sample of n bits without replacement: their positions in the
    canonical enumeration, as an int64 array in draw order."""
    total = img.total_bits()
    if not 0 < n <= total:
        raise ValueError(f"sample size {n} outside 1..{total}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "sample")))
    return rng.choice(total, n, replace=False).astype(np.int64, copy=False)


def coincidence_count(
    sent_bits: np.ndarray,
    received_bits: np.ndarray,
    width: int,
    height: int,
    indices: np.ndarray | None = None,
    histogram: dict[str, int] | None = None,
    classical_bits: int = 0,
) -> CoincidenceReport:
    """Exact match counting with a per-plane breakdown.

    Without `indices` the bits are the whole image in canonical order;
    otherwise `indices[i]` is the canonical position of bit i. Planes that
    received no bits report None and stay out of the aggregate denominator
    (which only ever counts scored bits).
    """
    if sent_bits.size != received_bits.size:
        raise ValueError(
            f"length mismatch: {sent_bits.size} sent vs {received_bits.size} received"
        )
    per_plane_bits = width * height
    matches = sent_bits == received_bits
    if indices is None:
        # One row per plane: no per-bit plane keys on the full-image path.
        plane_hit = matches.reshape(BITS_PER_PIXEL, per_plane_bits).sum(axis=1)
        plane_total = np.full(BITS_PER_PIXEL, per_plane_bits)
    else:
        if indices.size != sent_bits.size:
            raise ValueError(f"{indices.size} indices for {sent_bits.size} bits")
        plane_of = indices // per_plane_bits
        plane_total = np.bincount(plane_of, minlength=BITS_PER_PIXEL)
        plane_hit = np.bincount(plane_of[matches], minlength=BITS_PER_PIXEL)
    per_plane: dict[str, float | None] = {}
    for channel in range(3):
        for pos, plane in enumerate(range(7, -1, -1)):
            row = channel * PLANE_COUNT + pos
            tot = int(plane_total[row])
            per_plane[plane_key(channel, plane)] = int(plane_hit[row]) / tot if tot else None
    total = int(sent_bits.size)
    matched = int(matches.sum())
    return CoincidenceReport(
        total_bits=total,
        matched=matched,
        coincidence=(matched / total) if total else 1.0,
        per_plane=per_plane,
        per_outcome_histogram=dict(histogram or {k: 0 for k in OUTCOME_KEYS}),
        classical_bits_total=classical_bits,
    )


def _run_range(bits: np.ndarray, protocol: str, a: float, b: float, seed: int):
    """Teleport one range of basis-state payloads; returns (received bits,
    4-bin outcome histogram, classical bits sent).

    Takes three uniform draws per bit from a PCG64 `Generator` seeded with
    `seed`, in the order `teleport_bit` consumes them: the two measurements
    of Alice's wires (for the simplified protocol, the two resets), then
    Bob's readout. Row i of the draw array holds bit i's three draws, which
    are the values three scalar `Generator.random()` calls return. The Born
    probabilities are those of a basis-state payload, so the outcomes equal
    `teleport_bit`'s draw for draw.
    """
    u = np.random.Generator(np.random.PCG64(seed)).random((bits.size, 3))
    received = (u[:, 2] < bits).astype(np.uint8)
    if protocol != "standard":
        return received, np.zeros(4, dtype=np.int64), 0
    a2, b2 = a * a, b * b
    norm = a2 + b2
    m0 = (u[:, 0] < norm / 2.0).astype(np.int64)
    m1 = (u[:, 1] < np.where(bits, a2, b2) / norm).astype(np.int64)
    hist = np.bincount((m1 << 1) | m0, minlength=4)
    return received, hist, 2 * bits.size


def _teleport_bit_sequence(
    bits: np.ndarray, config: PipelineConfig
) -> tuple[np.ndarray, dict[str, int], int, int]:
    """Teleport a flat bit sequence pairwise; returns (received, histogram,
    classical_bits, pairs). Each range writes its own slice of one
    preallocated output array."""
    a, b = config.epr_amplitudes()
    n = bits.size
    if n % 2:
        bits = np.append(bits, np.uint8(0))  # the ancilla; never scored
    pairs = bits.size // 2
    received = np.empty(bits.size, dtype=np.uint8)

    def job(start_pair: int):
        lo, hi = 2 * start_pair, 2 * (start_pair + RANGE_PAIRS)
        seed = derive_seed(config.seed, "teleport", start_pair)
        got, hist, classical = _run_range(bits[lo:hi], config.protocol, a, b, seed)
        received[lo:hi] = got
        return hist, classical

    starts = range(0, pairs, RANGE_PAIRS)
    if config.threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(job, starts))
    else:
        results = [job(s) for s in starts]

    hist = sum(h for h, _ in results)
    histogram = {key: int(count) for key, count in zip(OUTCOME_KEYS, hist)}
    classical = sum(c for _, c in results)
    return received[:n], histogram, classical, pairs


def teleport_image(config: PipelineConfig) -> TeleportReport:
    """Run the full pipeline and write the output image and report."""
    config.validate()
    t_start = time.perf_counter()
    stages: dict[str, float] = {}

    t = time.perf_counter()
    img = load_raster(config.input_path)
    stages["load"] = time.perf_counter() - t

    t = time.perf_counter()
    all_bits = bit_array(img)
    w, h = img.width, img.height
    if config.sample is None:
        indices = None  # whole image in canonical order
        sent_bits = all_bits
    else:
        indices = sample_bits(img, config.sample, config.seed)
        sent_bits = all_bits[indices]
    stages["decompose"] = time.perf_counter() - t

    t = time.perf_counter()
    received_bits, histogram, classical, pairs = _teleport_bit_sequence(sent_bits, config)
    stages["teleport"] = time.perf_counter() - t

    t = time.perf_counter()
    if indices is None:
        out_bits = received_bits
    else:
        out_bits = all_bits.copy()
        out_bits[indices] = received_bits
    out_img = image_from_bits(out_bits, w, h)
    if config.output_path:
        with open(config.output_path, "wb") as fh:
            fh.write(write_raster(out_img))
    stages["reconstruct"] = time.perf_counter() - t

    t = time.perf_counter()
    coincidence = coincidence_count(
        sent_bits, received_bits, w, h, indices, histogram, classical
    )
    stages["score"] = time.perf_counter() - t

    wall = time.perf_counter() - t_start
    teleport_s = stages["teleport"]
    n_teleported = int(sent_bits.size)
    report = TeleportReport(
        config=config.to_dict(),
        coincidence=coincidence,
        bits_teleported=n_teleported,
        pairs_processed=pairs,
        wall_time=wall,
        stage_seconds=stages,
        throughput_bits_per_sec=(n_teleported / teleport_s) if teleport_s > 0 else float("inf"),
    )
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report


def run_partial_demos(which: str, seed: int = 0) -> dict:
    """Stand-alone verdicts for each subsystem before the full pipeline.

    `which` is one of "sdc", "standard", "simplified". Returns
    {"cases": {name: bool}, "passed": bool}.
    """
    rng = random.Random(derive_seed(seed, "demo", which))
    cases: dict[str, bool] = {}
    if which == "sdc":
        for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cases[f"pair_{pair[0]}{pair[1]}"] = sdc_roundtrip(pair) == pair
    elif which == "standard":
        psi = PureQubit(0.6, 0.8)
        ok = True
        for fo in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = teleport_standard(psi, balanced_epr(), forced_outcome=fo)
            ok = ok and abs(out.fidelity_vs_input - 1.0) < 1e-12
        cases["generic_qubit"] = ok
        for bit in (0, 1):
            hits = [teleport_bit(bit, "standard", balanced_epr(), rng).received == bit for _ in range(50)]
            cases[f"basis_{bit}"] = all(hits)
    elif which == "simplified":
        psi = PureQubit(0.6, 0.8)
        out = teleport_simplified(psi, balanced_epr(), rng)
        cases["generic_qubit"] = (
            abs(out.fidelity_vs_input - 1.0) < 1e-12 and out.classical_bits_sent == 0
        )
        for bit in (0, 1):
            hits = [teleport_bit(bit, "simplified", balanced_epr(), rng).received == bit for _ in range(50)]
            cases[f"basis_{bit}"] = all(hits)
    else:
        raise ValueError(f"unknown demo {which!r}")
    return {"which": which, "cases": cases, "passed": all(cases.values())}
