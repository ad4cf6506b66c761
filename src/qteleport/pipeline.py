"""End-to-end image teleportation: decompose an RGB image into bits, push
every bit (or a sampled subset) through a teleportation protocol as a basis
state, reassemble the received bits, and score the result with a
coincidence counter.

Bits are consumed two at a time, mirroring a two-lane transmitter: each
qubit of a pair rides its own fresh 3-qubit register and is read out as a
bit. An odd tail is padded with a zero ancilla that is teleported (and
costs its classical bits) but is excluded from scoring.

Every payload is a computational basis state, so Bob's corrected readout
equals the sent bit in both protocols and nothing per bit is drawn. The one
random observable is the standard protocol's 4-bin (m1, m0) histogram,
drawn per run from the closed-form outcome table on one PCG64 stream. Bits
stay in numpy arrays from decomposition to scoring.
"""
from __future__ import annotations

import json
import random
import time
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
    threads: int = 1  # accepted and echoed; has no effect

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
# `threads` has no effect and artifact destinations do not change results,
# so those config entries stay out of the comparison too.
_INCIDENTAL_CONFIG_KEYS = ("threads", "report_path", "output_path")


def reports_equivalent(a: TeleportReport, b: TeleportReport) -> bool:
    """Same experiment, same results: ignores timing, `threads`, and
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
    canonical enumeration, as an ascending int64 array.

    Positions are marked in one byte per bit, never listed over the whole
    population. Each round draws as many positions as are still missing,
    with replacement, and recounts the marks, so it cannot overshoot; since
    the stopping rule looks only at counts, every n-subset is equally
    likely. Above half the population the complement is marked instead,
    which keeps the rounds near log2(n)."""
    total = img.total_bits()
    if not 0 < n <= total:
        raise ValueError(f"sample size {n} outside 1..{total}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "sample")))
    complement = n > total // 2
    want = total - n if complement else n
    marks = np.zeros(total, dtype=bool)
    have = 0
    while have < want:
        marks[rng.integers(0, total, want - have)] = True
        have = int(np.count_nonzero(marks))
    if complement:
        np.logical_not(marks, out=marks)
    return np.flatnonzero(marks).astype(np.int64, copy=False)


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
    otherwise `indices[i]` is the canonical position of bit i, strictly
    increasing. Either way each plane is one contiguous segment of the bits.
    Planes that received no bits report None and stay out of the aggregate
    denominator (which only ever counts scored bits).
    """
    if sent_bits.size != received_bits.size:
        raise ValueError(
            f"length mismatch: {sent_bits.size} sent vs {received_bits.size} received"
        )
    edges = np.arange(BITS_PER_PIXEL + 1) * (width * height)  # plane boundaries
    if indices is None:
        if sent_bits.size != edges[-1]:
            raise ValueError(f"{sent_bits.size} bits for a {width}x{height} image")
    else:
        if indices.size != sent_bits.size:
            raise ValueError(f"{indices.size} indices for {sent_bits.size} bits")
        if indices.size and (indices[0] < 0 or indices[-1] >= edges[-1]):
            raise ValueError(f"indices outside 0..{edges[-1] - 1}")
        if np.any(indices[1:] <= indices[:-1]):
            raise ValueError("indices must be strictly increasing")
        edges = np.searchsorted(indices, edges)
    matches = sent_bits == received_bits
    plane_total = np.diff(edges)
    plane_hit = [np.count_nonzero(matches[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    per_plane: dict[str, float | None] = {}
    for channel in range(3):
        for pos, plane in enumerate(range(7, -1, -1)):
            row = channel * PLANE_COUNT + pos
            tot = int(plane_total[row])
            per_plane[plane_key(channel, plane)] = int(plane_hit[row]) / tot if tot else None
    total = int(sent_bits.size)
    matched = int(sum(plane_hit))
    return CoincidenceReport(
        total_bits=total,
        matched=matched,
        coincidence=(matched / total) if total else 1.0,
        per_plane=per_plane,
        per_outcome_histogram=dict(histogram or {k: 0 for k in OUTCOME_KEYS}),
        classical_bits_total=classical_bits,
    )


def _outcome_table(a: float, b: float) -> np.ndarray:
    """P((m1, m0) | bit) of the standard protocol on the pair a|00> + b|11>:
    row `bit`, columns in OUTCOME_KEYS order. Given the bit, m0 and m1 are
    independent: m0 ~ Bernoulli(norm/2), m1 ~ Bernoulli(b^2/norm or a^2/norm)."""
    norm = a * a + b * b
    p_m0 = norm / 2.0
    p_m1 = np.array([[b * b], [a * a]]) / norm  # P(m1 = 1 | bit)
    return np.hstack(
        [(1 - p_m1) * (1 - p_m0), (1 - p_m1) * p_m0, p_m1 * (1 - p_m0), p_m1 * p_m0]
    )


def _teleport_bit_sequence(
    bits: np.ndarray, config: PipelineConfig, stages: dict[str, float] | None = None
) -> tuple[np.ndarray, dict[str, int], int, int]:
    """Teleport a flat bit sequence pairwise; returns (received, histogram,
    classical_bits, pairs). A basis-state payload arrives as sent, so the
    received bits are a copy; the standard histogram is drawn per run as one
    multinomial over the 0-bits, then one over the 1-bits. `stages`, when
    given, gets the copy and count as "teleport_kernel" and the draws as
    "teleport_draw" (0 for the simplified protocol, which draws nothing)."""
    t = time.perf_counter()
    received = bits.copy()
    padded = bits.size + bits.size % 2  # the ancilla is a 0
    n1 = int(np.count_nonzero(bits))
    kernel_s = time.perf_counter() - t

    hist, draw_s = np.zeros(len(OUTCOME_KEYS), dtype=np.int64), 0.0
    if config.protocol == "standard":
        t = time.perf_counter()
        table = _outcome_table(*config.epr_amplitudes())
        rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "teleport")))
        hist = rng.multinomial(padded - n1, table[0]) + rng.multinomial(n1, table[1])
        draw_s = time.perf_counter() - t

    if stages is not None:
        stages.update(teleport_draw=draw_s, teleport_kernel=kernel_s)
    histogram = {key: int(count) for key, count in zip(OUTCOME_KEYS, hist)}
    classical = 2 * padded if config.protocol == "standard" else 0
    return received, histogram, classical, padded // 2


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
    received_bits, histogram, classical, pairs = _teleport_bit_sequence(sent_bits, config, stages)
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
