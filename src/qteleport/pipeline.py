"""End-to-end image teleportation: push every bit of an RGB image (or a
sampled subset) through a teleportation protocol as a basis state, write the
received image, and score it with a coincidence counter.

Bits are consumed two at a time, mirroring a two-lane transmitter: each
qubit of a pair rides its own fresh 3-qubit register and is read out as a
bit. An odd tail is padded with a zero ancilla that is teleported (and
costs its classical bits) but is excluded from scoring.

Every payload is a computational basis state, so Bob's corrected readout
equals the sent bit in both protocols and nothing per bit is drawn. The one
random observable is the standard protocol's 4-bin (m1, m0) histogram,
drawn per run from the closed-form outcome table on one PCG64 stream; it
needs only the number of 1-bits sent. The image stays in pixels, one copy
of it: the file is read into them, and they are what is sent and what is
written. A whole run counts its 1-bits with one popcount
(`imaging.count_ones`), since every plane is scored whole and nothing
flips. A sampled run splits the bits into 96 cells (plane, sent bit, kept
or flipped) with one `imaging.plane_ones` pass (`_image_cells`) and draws
the sample's counts in those cells, never positions (`sample_bits`).
"""
from __future__ import annotations

import copy
import json
import random
import time
from dataclasses import asdict, dataclass, fields
from typing import get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import SQRT2_INV, PureQubit
from .imaging import PLANE_NAMES, RasterImage, count_ones, load_raster, plane_ones, write_raster

# Not called here: the benchmark's traced run (perfbench/worker.py) patches
# these two by name on this module, so they stay importable from it.
from .imaging import bit_array, image_from_bits  # noqa: F401
from .protocols import (
    PROTOCOLS,
    NoisyEprParams,
    balanced_epr,
    teleport_bit,
    teleport_simplified,
    teleport_standard,
)
from .sdc import sdc_roundtrip
from .seeding import derive_seed

OUTCOME_KEYS = ("00", "01", "10", "11")


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
        if self.noise_a is not None:
            NoisyEprParams.from_a(self.noise_a)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.sample is not None and self.sample < 1:
            raise ValueError(f"sample must be None or >= 1, got {self.sample}")

    def epr_amplitudes(self) -> tuple[float, float]:
        if self.noise_a is None:
            return SQRT2_INV, SQRT2_INV
        p = NoisyEprParams.from_a(self.noise_a)
        return float(p.a.real), float(p.b.real)

    def to_dict(self) -> dict:
        # Not `asdict`, which costs 20x more: a run calls this while timed.
        return dict(vars(self))


class _Record:
    """A dataclass whose fields are its JSON keys, in both directions."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        """Reads exactly the declared fields, each copied so that nothing is
        shared with `d`: a missing field is refused, any other key ignored.
        A field annotated as a dict must be a JSON object, and one annotated
        as a record is read by that record's `from_dict`."""
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__}: not a JSON object, got {type(d).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ValueError(f"{cls.__name__}: missing field(s) {', '.join(missing)}")
        hints = get_type_hints(cls)
        values = {}
        for f in fields(cls):
            hint, value = hints[f.name], d[f.name]
            if isinstance(hint, type) and issubclass(hint, _Record):
                value = hint.from_dict(value)
            elif (get_origin(hint) or hint) is dict and not isinstance(value, dict):
                raise ValueError(
                    f"{cls.__name__}.{f.name}: not a JSON object, got {type(value).__name__}"
                )
            else:
                value = copy.deepcopy(value)
            values[f.name] = value
        return cls(**values)


@dataclass
class CoincidenceReport(_Record):
    total_bits: int
    matched: int
    coincidence: float
    per_plane: dict[str, float | None]  # keys "R7".."B0"; None = no data
    per_outcome_histogram: dict[str, int]
    classical_bits_total: int


@dataclass
class TeleportReport(_Record):
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TeleportReport":
        if isinstance(d, dict) and d.get("schema") != cls.schema:
            raise ValueError(f"report schema {d.get('schema')!r}; this version reads {cls.schema}")
        return super().from_dict(d)

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


def _image_cells(img: RasterImage) -> np.ndarray:
    """Every bit of `img` in 96 cells, as a (24, 4) int64 array: row k is
    plane PLANE_NAMES[k], columns (sent 0 kept, sent 0 flipped, sent 1 kept,
    sent 1 flipped). Every sent bit arrives as sent, so the flipped columns
    are 0; they stay because `sample_bits` draws over all 96 cells."""
    ones = plane_ones(img.pixels)
    zeros = np.zeros_like(ones)
    return np.stack([img.width * img.height - ones, zeros, ones, zeros], axis=1)


def _checked_counts(counts, columns: int) -> np.ndarray:
    counts = np.asarray(counts)
    shape = (len(PLANE_NAMES), columns)
    if counts.shape != shape or counts.dtype.kind not in "iu" or np.any(counts < 0):
        raise ValueError(f"expected a non-negative {shape} integer array")
    return counts


def sample_bits(cells: np.ndarray, n: int, seed: int) -> np.ndarray:
    """The cells (`_image_cells`) of a uniform sample of n bits
    without replacement: their counts follow the multivariate hypergeometric
    law over the cell sizes and are drawn from it on the stream
    `derive_seed(seed, "sample")`, with nothing sized by n or by the image.
    numpy's "marginals" method limits the image to fewer than 10**9 bits."""
    cells = _checked_counts(cells, 4)
    total = int(cells.sum())
    if total >= 10**9:
        raise ValueError(f"cannot sample 10**9 bits or more (about 41.6M pixels), got {total}")
    if not 0 < n <= total:
        raise ValueError(f"sample size {n} outside 1..{total}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "sample")))
    return rng.multivariate_hypergeometric(cells.ravel(), n, method="marginals").reshape(-1, 4)


def coincidence_count(
    planes: np.ndarray, histogram: dict[str, int] | None = None, classical_bits: int = 0
) -> CoincidenceReport:
    """Exact match counting with a per-plane breakdown, from the scored
    bits' (24, 2) per-plane (kept, flipped) counts: every plane whole and
    nothing flipped for a whole image, `sample_bits`' cells summed over the
    sent bit for a sample. Planes that received no bits report None and stay
    out of the aggregate denominator (which only ever counts scored bits).
    """
    planes = _checked_counts(planes, 2)
    plane_total = planes.sum(axis=1)
    flipped = planes[:, 1]
    per_plane: dict[str, float | None] = {
        name: int(tot - bad) / int(tot) if tot else None
        for name, bad, tot in zip(PLANE_NAMES, flipped, plane_total)
    }
    total = int(plane_total.sum())
    matched = total - int(flipped.sum())
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


def _teleport_bits(
    n: int, n1: int, config: PipelineConfig, stages: dict[str, float] | None = None
) -> tuple[dict[str, int], int, int]:
    """Teleport n bits, n1 of them 1-bits, pairwise; returns (histogram,
    classical_bits, pairs). An odd n is padded with a 0-bit ancilla. A
    basis-state payload arrives as sent, so only the standard histogram is
    drawn, per run: one multinomial over the 0-bits, then one over the
    1-bits. `stages`, when given, gets the draws as "teleport_draw" (0 for
    the simplified protocol, which draws nothing)."""
    padded = n + n % 2
    hist, draw_s = np.zeros(len(OUTCOME_KEYS), dtype=np.int64), 0.0
    if config.protocol == "standard":
        t = time.perf_counter()
        table = _outcome_table(*config.epr_amplitudes())
        rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "teleport")))
        hist = rng.multinomial(padded - n1, table[0]) + rng.multinomial(n1, table[1])
        draw_s = time.perf_counter() - t

    if stages is not None:
        stages["teleport_draw"] = draw_s
    histogram = {key: int(count) for key, count in zip(OUTCOME_KEYS, hist)}
    classical = 2 * padded if config.protocol == "standard" else 0
    return histogram, classical, padded // 2


def _scored_bits(
    img: RasterImage, config: PipelineConfig, stages: dict[str, float]
) -> tuple[np.ndarray, int]:
    """The scored bits' (24, 2) per-plane (kept, flipped) counts and how
    many of them are 1-bits. A whole run scores every plane whole, so it
    needs only the total of 1-bits (`count_ones`); a sampled run needs the
    per-plane split of the cells it draws from (`_image_cells`). Times the
    count as "teleport_kernel" and the draw as "decompose"."""
    t = time.perf_counter()
    if config.sample is None:
        n1 = count_ones(img.pixels)
        stages["teleport_kernel"] = time.perf_counter() - t
        stages["decompose"] = 0.0
        return np.tile([img.width * img.height, 0], (len(PLANE_NAMES), 1)), n1
    cells = _image_cells(img)
    stages["teleport_kernel"] = time.perf_counter() - t

    t = time.perf_counter()
    cells = sample_bits(cells, config.sample, config.seed)
    stages["decompose"] = time.perf_counter() - t
    kept_flipped = cells.reshape(len(PLANE_NAMES), 2, 2).sum(axis=1)  # summed over the sent bit
    return kept_flipped, int(cells[:, 2:].sum())


def teleport_image(config: PipelineConfig) -> TeleportReport:
    """Run the full pipeline and write the output image and report."""
    config.validate()
    t_start = time.perf_counter()
    stages: dict[str, float] = {}

    t = time.perf_counter()
    img = load_raster(config.input_path)
    stages["load"] = time.perf_counter() - t

    planes, n1 = _scored_bits(img, config, stages)
    n = int(planes.sum())
    histogram, classical, pairs = _teleport_bits(n, n1, config, stages)
    stages["teleport"] = stages["teleport_kernel"] + stages["teleport_draw"]

    t = time.perf_counter()
    if config.output_path:
        with open(config.output_path, "wb") as fh:
            write_raster(img, fh)
    stages["reconstruct"] = time.perf_counter() - t

    t = time.perf_counter()
    coincidence = coincidence_count(planes, histogram, classical)
    stages["score"] = time.perf_counter() - t

    wall = time.perf_counter() - t_start
    teleport_s = stages["teleport"]
    report = TeleportReport(
        config=config.to_dict(),
        coincidence=coincidence,
        bits_teleported=n,
        pairs_processed=pairs,
        wall_time=wall,
        stage_seconds=stages,
        throughput_bits_per_sec=(n / teleport_s) if teleport_s > 0 else float("inf"),
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
    elif which == "simplified":
        psi = PureQubit(0.6, 0.8)
        out = teleport_simplified(psi, balanced_epr(), rng)
        cases["generic_qubit"] = (
            abs(out.fidelity_vs_input - 1.0) < 1e-12 and out.classical_bits_sent == 0
        )
    else:
        raise ValueError(f"unknown demo {which!r}")
    if which != "sdc":
        for bit in (0, 1):
            hits = [teleport_bit(bit, which, balanced_epr(), rng).received == bit for _ in range(50)]
            cases[f"basis_{bit}"] = all(hits)
    return {"which": which, "cases": cases, "passed": all(cases.values())}
