"""Pipeline tests: sampling, scoring, full-image runs, determinism, CLI."""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qteleport import pipeline
from qteleport.cli import main as cli_main
from qteleport.core import GATE_H, StateVector, apply_1q, apply_cnot, tensor
from qteleport.imaging import (
    RasterImage,
    bit_array,
    load_raster,
    plane_ones,
    write_raster,
)
from qteleport.pipeline import (
    OUTCOME_KEYS,
    PipelineConfig,
    TeleportReport,
    _teleport_bits,
    coincidence_count,
    reports_equivalent,
    run_partial_demos,
    sample_bits,
    teleport_image,
)
from qteleport.protocols import (
    NoisyEprParams,
    balanced_epr,
    noisy_epr,
    standard_correction,
    teleport_bit,
)
from qteleport.seeding import derive_seed


def make_config(ppm, tmp_path, **kw):
    defaults = dict(
        input_path=str(ppm),
        output_path=str(tmp_path / "out.ppm"),
        report_path=str(tmp_path / "report.json"),
        seed=2024,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


# ---------------------------------------------------------------- sampling


def _cells_of(img):
    return pipeline._image_cells(img)


def _cells(sizes):
    """A cells array holding `sizes` at the given flat cell indices, 0 elsewhere."""
    cells = np.zeros((24, 4), dtype=np.int64)
    for index, size in sizes.items():
        cells.reshape(-1)[index] = size
    return cells


def _full_hd_cells():
    """A 1920x1080 image's cells, no flips: a 0/1 split that varies by plane."""
    per_plane = 1920 * 1080
    ones = per_plane * np.arange(1, 25) // 25
    return np.stack([per_plane - ones, 0 * ones, ones, 0 * ones], axis=1)


def test_sample_bits_determinism(image_16):
    cells = _cells_of(image_16)
    a = sample_bits(cells, 100, seed=5)
    b = sample_bits(cells, 100, seed=5)
    assert a.dtype == np.int64 and a.shape == (24, 4)
    assert np.array_equal(a, b)
    assert a.sum() == 100 and np.all((0 <= a) & (a <= cells))
    assert not np.array_equal(a, sample_bits(cells, 100, seed=6))


def test_sample_bits_full_population_is_permutation(image_16):
    """The whole population comes back as the cells, unchanged."""
    cells = _cells_of(image_16)
    picks = sample_bits(cells, int(cells.sum()), seed=5)
    assert picks.dtype == np.int64
    assert np.array_equal(picks, cells)


@pytest.mark.parametrize("size", ["one", "half", "half+1"])
def test_sample_bits_edge_sizes(image_16, size):
    cells = _cells_of(image_16)
    total = image_16.total_bits()
    n = {"one": 1, "half": total // 2, "half+1": total // 2 + 1}[size]
    picks = sample_bits(cells, n, seed=12)
    assert picks.sum() == n and picks.dtype == np.int64
    assert np.all((0 <= picks) & (picks <= cells))


# p = 0.001 upper quantiles of chi-squared (standard tables).
_CHI2_14DF_P001 = 36.12
_CHI2_5DF_P001 = 20.52

# Six cells of one bit each, in different planes and columns.
_SIX_SINGLE_BITS = {0: 1, 5: 1, 18: 1, 47: 1, 70: 1, 95: 1}


@pytest.mark.parametrize("n", [2, 4])
def test_sample_bits_is_uniform_over_subsets(n):
    """Every n-subset of 6 one-bit cells is equally likely: all 15 appear
    over 15 000 seeds, and their counts pass a chi-squared test at p = 0.001."""
    cells = _cells(_SIX_SINGLE_BITS)
    counts = {}
    for seed in range(15_000):
        key = tuple(np.flatnonzero(sample_bits(cells, n, seed)).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    assert {len(key) for key in counts} == {n}
    expected = 15_000 / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < _CHI2_14DF_P001, counts


def test_sample_bits_follows_the_hypergeometric_pmf():
    """Cells of 1, 2 and 3 bits, 3 drawn: the 6 possible count vectors
    appear over 15 000 seeds with the multivariate hypergeometric pmf
    C(1, k1) C(2, k2) C(3, k3) / C(6, 3), at p = 0.001."""
    from math import comb

    sizes = {7: 1, 33: 2, 90: 3}
    cells = _cells(sizes)
    counts = {}
    for seed in range(15_000):
        drawn = sample_bits(cells, 3, seed).reshape(-1)
        assert drawn.sum() == 3 and np.count_nonzero(drawn[[7, 33, 90]]) == np.count_nonzero(drawn)
        key = tuple(drawn[[7, 33, 90]].tolist())
        counts[key] = counts.get(key, 0) + 1
    outcomes = [(a, b, 3 - a - b) for a in range(2) for b in range(3) if 0 <= 3 - a - b <= 3]
    assert len(outcomes) == 6 and set(counts) <= set(outcomes)
    pmf = {k: comb(1, k[0]) * comb(2, k[1]) * comb(3, k[2]) / comb(6, 3) for k in outcomes}
    assert sum(pmf.values()) == pytest.approx(1.0)
    chi2 = sum((counts.get(k, 0) - 15_000 * p) ** 2 / (15_000 * p) for k, p in pmf.items())
    assert chi2 < _CHI2_5DF_P001, counts


def test_sample_bits_full_scale_geometry():
    """On a full-HD image's cells the counts stay inside their cells: none
    lands in a flipped column, which holds no bits here."""
    cells = _full_hd_cells()
    assert cells.sum() == 1920 * 1080 * 24
    picks = sample_bits(cells, 100, seed=9)
    assert picks.shape == (24, 4) and picks.sum() == 100
    assert np.all((0 <= picks) & (picks <= cells))
    assert not picks[:, 1::2].any()


def test_sample_bits_keeps_no_population_sized_index_array():
    """A 1M-bit sample of a full-HD image (49.8M bits) allocates nothing
    sized by the sample or the image."""
    import tracemalloc

    cells = _full_hd_cells()
    sample_bits(cells, 10, seed=3)  # lazy imports are not the sampler's memory
    tracemalloc.start()
    try:
        picks = sample_bits(cells, 1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert picks.sum() == 1_000_000
    assert peak < 64 * 2**10, f"peak {peak / 2**10:.1f} KiB"


def test_sample_bits_rejects_oversized_request(image_16):
    cells = _cells_of(image_16)
    for n in (image_16.total_bits() + 1, 0, -1):
        with pytest.raises(ValueError):
            sample_bits(cells, n, seed=0)


@pytest.mark.parametrize(
    "cells",
    [np.ones((23, 4), dtype=np.int64), np.ones((24, 3), dtype=np.int64),
     np.ones(96, dtype=np.int64), np.ones((24, 4)), -np.ones((24, 4), dtype=np.int64)],
    ids=["short", "narrow", "flat", "float", "negative"],
)
def test_sample_bits_rejects_malformed_cells(cells):
    with pytest.raises(ValueError):
        sample_bits(cells, 1, seed=0)


def test_sample_bits_refuses_images_of_a_billion_bits():
    """numpy's marginals method needs fewer than 10**9 bits in all; one bit
    fewer still samples."""
    with pytest.raises(ValueError, match=r"10\*\*9 bits"):
        sample_bits(_cells({0: 10**9 - 24, 95: 24}), 1000, seed=0)
    picks = sample_bits(_cells({0: 10**9 - 25, 95: 24}), 1000, seed=0)
    assert picks.sum() == 1000


# ----------------------------------------------------------------- scoring


def _r7_planes(kept=0, flipped=0):
    """Per-plane (kept, flipped) counts with bits only in plane R7 (row 0)."""
    planes = np.zeros((24, 2), dtype=np.int64)
    planes[0] = kept, flipped
    return planes


def test_coincidence_identical_streams():
    rep = coincidence_count(_r7_planes(kept=100))
    assert rep.coincidence == 1.0 and rep.matched == 100


def test_coincidence_single_flip():
    rep = coincidence_count(_r7_planes(kept=99, flipped=1))
    assert rep.coincidence == pytest.approx(0.99)
    assert rep.per_plane["R7"] == pytest.approx(0.99)


def test_coincidence_unsampled_planes_report_no_data():
    rep = coincidence_count(_r7_planes(kept=10))
    assert rep.per_plane["R7"] == 1.0
    assert rep.per_plane["G3"] is None
    assert rep.total_bits == 10


def test_coincidence_rejects_length_mismatch():
    """The plane counter takes only (h, w, 3) pixels, and the scorer only a
    (24, 2) per-plane array: not a sampler's (24, 4) cells either."""
    with pytest.raises(ValueError):
        plane_ones(np.zeros((100, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        coincidence_count(_r7_planes(kept=1)[:23])
    with pytest.raises(ValueError):
        coincidence_count(_r7_planes(kept=1).reshape(-1))
    with pytest.raises(ValueError):
        coincidence_count(_cells({0: 1}))
    with pytest.raises(ValueError):
        coincidence_count(_r7_planes(kept=1, flipped=-1))


def _hand_count(stream, received_bits, hist, classical_bits):
    """Coincidence report counted bit by bit over (address, bit) pairs."""
    plane_total, plane_hit = {}, {}
    for (addr, bit), got in zip(stream, received_bits):
        key = f"{'RGB'[addr.channel]}{addr.plane}"
        plane_total[key] = plane_total.get(key, 0) + 1
        plane_hit[key] = plane_hit.get(key, 0) + int(bit == got)
    keys = [f"{c}{p}" for c in "RGB" for p in range(7, -1, -1)]
    matched = sum(plane_hit.values())
    return {
        "total_bits": len(stream),
        "matched": matched,
        "coincidence": matched / len(stream),
        "per_plane": {
            k: plane_hit[k] / plane_total[k] if k in plane_total else None for k in keys
        },
        "per_outcome_histogram": hist,
        "classical_bits_total": classical_bits,
    }


def test_array_scorer_matches_hand_count_over_bit_stream(image_16):
    from qteleport.imaging import bit_stream

    stream = list(bit_stream(image_16))
    sent_bits = bit_array(image_16)
    assert sent_bits.tolist() == [bit for _, bit in stream]
    rng = np.random.default_rng(17)
    received_bits = sent_bits.copy()
    flips = rng.choice(sent_bits.size, size=37, replace=False)
    received_bits[flips] ^= 1
    hist = {"00": 1, "01": 2, "10": 3, "11": 4}
    per_plane = image_16.width * image_16.height

    def planes_at(picks):
        """Per-plane (kept, flipped) counts of the bits at `picks`, counted
        from their positions."""
        cell = picks // per_plane * 2 + (sent_bits ^ received_bits)[picks]
        return np.bincount(cell, minlength=48).reshape(24, 2)

    everything = np.arange(sent_bits.size)
    full = coincidence_count(planes_at(everything), hist, classical_bits=20)
    assert full.to_dict() == _hand_count(stream, received_bits, hist, 20)
    # The sampler's cells: planes by sent bit and kept or flipped, nothing flipped.
    kept = np.bincount(everything // per_plane * 4 + 2 * sent_bits, minlength=96)
    assert np.array_equal(pipeline._image_cells(image_16), kept.reshape(24, 4))

    picks = np.sort(rng.choice(sent_bits.size, size=500, replace=False))
    sampled = coincidence_count(planes_at(picks), hist, 20)
    want = _hand_count([stream[i] for i in picks], received_bits[picks], hist, 20)
    assert sampled.to_dict() == want


# -------------------------------------------------------------- full runs


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("noise_a", [None, 0.8])
def test_full_image_is_reconstructed_exactly(ppm_16, tmp_path, protocol, noise_a):
    config = make_config(ppm_16, tmp_path, protocol=protocol, noise_a=noise_a)
    report = teleport_image(config)
    assert report.coincidence.coincidence == 1.0
    assert ppm_16.read_bytes() == (tmp_path / "out.ppm").read_bytes()
    expected_classical = 2 * report.bits_teleported if protocol == "standard" else 0
    assert report.coincidence.classical_bits_total == expected_classical
    assert report.pairs_processed * 2 == report.bits_teleported


def test_sampled_run_touches_only_sampled_bits(ppm_16, tmp_path, image_16):
    config = make_config(ppm_16, tmp_path, sample=100)
    report = teleport_image(config)
    assert report.bits_teleported == 100
    assert report.pairs_processed == 50
    out = load_raster(tmp_path / "out.ppm")
    assert np.array_equal(out.pixels, image_16.pixels)


def test_outcome_histogram_is_uniform_at_scale(ppm_16, tmp_path):
    config = make_config(ppm_16, tmp_path, protocol="standard")
    report = teleport_image(config)
    n = report.bits_teleported
    assert n >= 10_000 * 0.6  # 16*16*24 = 6144; widen via two runs below
    hist = report.coincidence.per_outcome_histogram
    total = sum(hist.values())
    assert total == n
    sigma = (n * 0.25 * 0.75) ** 0.5
    for key, count in hist.items():
        assert abs(count - n / 4) <= 4 * sigma, (key, count)


def test_outcome_histogram_over_10k_bits(ppm_64, tmp_path):
    config = make_config(ppm_64, tmp_path, protocol="standard")
    report = teleport_image(config)
    n = report.bits_teleported
    assert n >= 10_000
    sigma = (n * 0.25 * 0.75) ** 0.5
    for key, count in report.coincidence.per_outcome_histogram.items():
        assert abs(count - n / 4) <= 4 * sigma, (key, count)


def test_determinism_same_seed_same_report(ppm_16, tmp_path):
    cfg_a = make_config(ppm_16, tmp_path, protocol="standard", seed=99)
    rep_a = teleport_image(cfg_a)
    out_a = (tmp_path / "out.ppm").read_bytes()
    cfg_b = make_config(ppm_16, tmp_path, protocol="standard", seed=99)
    rep_b = teleport_image(cfg_b)
    out_b = (tmp_path / "out.ppm").read_bytes()
    assert reports_equivalent(rep_a, rep_b)
    assert out_a == out_b


def test_teleport_sub_stages_are_reported(ppm_64, tmp_path):
    stages = teleport_image(make_config(ppm_64, tmp_path, threads=1)).stage_seconds
    assert {"teleport_draw", "teleport_kernel"} <= stages.keys()
    assert stages["teleport_draw"] + stages["teleport_kernel"] <= stages["teleport"]


def _fresh_interpreter(probe: str) -> str:
    """What `probe` prints when run by a new interpreter on this package."""
    import qteleport

    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_pipeline_leaves_numpy_random_unloaded():
    """Importing `numpy.random` adds about 10 ms to the ~200 ms import of the
    pipeline. The pipeline looks `np.random` up only when it draws, so the
    benchmark's set-up time never pays for it."""
    probe = "import sys, qteleport.pipeline; print('numpy.random' in sys.modules)"
    assert _fresh_interpreter(probe) == "False"


def test_the_cli_loads_the_image_pipeline_only_for_image_commands():
    """`serve-fabric`, `alice` and `bob` processes never import the image
    pipeline: the CLI imports it inside the commands that use it."""
    probe = (
        "import sys, qteleport.cli; qteleport.cli.build_parser(); "
        "print(sorted({'qteleport.pipeline', 'qteleport.imaging'} & set(sys.modules)))"
    )
    assert _fresh_interpreter(probe) == "[]"


_GUARD_W, _GUARD_H = 160, 120
_GUARD_BITS = _GUARD_W * _GUARD_H * 24


@pytest.mark.parametrize(
    "sample, bound", [(None, 1.0), (_GUARD_BITS // 7, 3.0)], ids=["whole", "seventh"]
)
def test_run_memory_stays_below_bytes_per_bit(tmp_path, sample, bound):
    """A run's traced peak, in bytes per bit of the image: neither a
    whole-image run nor a sampled one holds anything of one byte per bit.
    Nor does it hold a second copy of the image: the peak is the loaded
    pixels and a counter's working buffers, which are never larger than
    the image, to within a few small objects (16 KiB)."""
    import tracemalloc

    rng = np.random.default_rng(120)
    img = RasterImage(rng.integers(0, 256, size=(_GUARD_H, _GUARD_W, 3), dtype=np.uint8))
    ppm = tmp_path / "guard.ppm"
    with open(ppm, "wb") as fh:
        write_raster(img, fh)
    config = make_config(ppm, tmp_path, sample=sample)
    teleport_image(config)  # lazy imports are not the run's memory
    tracemalloc.start()
    try:
        teleport_image(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * _GUARD_BITS, f"peak {peak / _GUARD_BITS:.2f} bytes per bit"
    assert peak <= 2 * img.pixels.nbytes + 16 * 2**10, f"peak {peak / img.pixels.nbytes:.2f} images"


def test_full_hd_sampled_run_peaks_no_higher_than_whole_run(tmp_path):
    """A 1M-bit sample of a full-HD image allocates nothing sized by the
    sample or the image beyond what a whole run of it holds: its peak is the
    whole run's to within a few small objects (16 KiB), where 1M int64
    positions alone would take 8 MB."""
    import tracemalloc

    rng = np.random.default_rng(1080)
    img = RasterImage(rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8))
    ppm = tmp_path / "full_hd.ppm"
    with open(ppm, "wb") as fh:
        write_raster(img, fh)
    peaks = {}
    for sample in (None, 1_000_000):
        config = make_config(ppm, tmp_path, protocol="simplified", sample=sample)
        teleport_image(config)  # lazy imports are not the run's memory
        tracemalloc.start()
        try:
            teleport_image(config)
            peaks[sample] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] <= peaks[None] + 16 * 2**10, peaks


def test_full_hd_runs_hold_one_image_and_a_working_block(tmp_path):
    """At full HD neither a whole run nor a 1M-bit sampled run allocates
    anything sized by the image but the loaded pixels: the file's bytes are
    read into them and the output is written from them. Each counter's
    working buffers take at most 256 KiB; the bound leaves 256 KiB more for
    small objects."""
    import tracemalloc

    rng = np.random.default_rng(1081)
    img = RasterImage(rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8))
    ppm = tmp_path / "full_hd.ppm"
    with open(ppm, "wb") as fh:
        write_raster(img, fh)
    for protocol, sample in (("standard", None), ("simplified", None), ("simplified", 1_000_000)):
        config = make_config(ppm, tmp_path, protocol=protocol, sample=sample)
        teleport_image(config)  # lazy imports are not the run's memory
        tracemalloc.start()
        try:
            teleport_image(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        over = peak - img.pixels.nbytes
        assert over <= 512 * 2**10, f"{protocol} sample={sample}: {over / 2**10:.0f} KiB over the image"


def test_worker_count_does_not_change_results(ppm_64, tmp_path):
    rep_1 = teleport_image(make_config(ppm_64, tmp_path, threads=1, seed=31))
    rep_4 = teleport_image(make_config(ppm_64, tmp_path, threads=4, seed=31))
    assert reports_equivalent(rep_1, rep_4)


def _engine_pair(noise_a):
    return balanced_epr() if noise_a is None else noisy_epr(NoisyEprParams.from_a(noise_a))


def _reference_sequence(bits, protocol, noise_a, seed):
    """`teleport_bit` bit by bit on one stream: the statevector engine's
    received bits, histogram and classical-bit count for the sequence."""
    epr = _engine_pair(noise_a)
    work = [int(b) for b in bits] + [0] * (len(bits) % 2)
    received, hist, classical = [], dict.fromkeys(OUTCOME_KEYS, 0), 0
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "teleport")))
    for bit in work:
        res = teleport_bit(bit, protocol, epr, rng)
        received.append(res.received)
        if res.disambiguation is not None:
            b1, b2 = res.disambiguation
            hist[OUTCOME_KEYS[(b1 << 1) | b2]] += 1
            classical += 2
    return received[: len(bits)], hist, classical


_ODD_SAMPLE_CASES = [(a, p) for a in (None, 0.8) for p in ("standard", "simplified")]


@pytest.mark.parametrize(
    "noise_a, protocol", _ODD_SAMPLE_CASES, ids=[f"odd_sample-{a}-{p}" for a, p in _ODD_SAMPLE_CASES]
)
def test_pipeline_matches_teleport_bit_draw_for_draw(protocol, noise_a, ppm_16, image_16, tmp_path):
    """On an odd-length sample the output image's bits at the sampled
    positions, the classical bits and the pairs equal the engine's, the
    padded ancilla included. The standard histogram is drawn per run, not
    per bit, so only the simplified one (all zeros) is compared here; the
    table and chi-squared tests pin the other."""
    config = make_config(ppm_16, tmp_path, protocol=protocol, noise_a=noise_a, seed=11, sample=4097)
    report = teleport_image(config)
    # A run draws counts, not positions: any 4097 positions stand for it.
    rng = np.random.default_rng(config.seed)
    picks = np.sort(rng.choice(image_16.total_bits(), 4097, replace=False))
    bits = bit_array(image_16)[picks]
    want_received, want_hist, want_classical = _reference_sequence(
        bits, protocol, noise_a, config.seed
    )
    assert bit_array(load_raster(tmp_path / "out.ppm"))[picks].tolist() == want_received
    if protocol == "simplified":
        assert report.coincidence.per_outcome_histogram == want_hist
    assert report.coincidence.classical_bits_total == want_classical
    assert report.pairs_processed == (bits.size + 1) // 2


_NOISE_A = st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True))


def _unit(branch: np.ndarray) -> np.ndarray:
    """A nonzero branch scaled to norm 1. It is first scaled by the power of
    two that brings its largest amplitude near 1, which is exact, so the
    squares of a tiny branch neither underflow nor leave the norm further
    from 1 than the engine allows."""
    exp = np.frexp(np.max(np.abs(branch)))[1]
    scaled = np.ldexp(branch.real, -exp) + 1j * np.ldexp(branch.imag, -exp)
    return scaled / np.linalg.norm(scaled)


def _bob_reads_one(branch: np.ndarray) -> float:
    """P(Bob's qubit, the last of three, reads 1) in a nonzero branch."""
    amps = _unit(branch).reshape(4, 2)
    return float(np.sum(np.abs(amps[:, 1]) ** 2) / np.sum(np.abs(amps) ** 2))


def _standard_branches(bit, epr):
    """Engine branch norms of the standard protocol, in OUTCOME_KEYS order,
    with Bob's readout probability after the correction on each branch.
    The circuit is `_standard_circuit`'s: tensor, CNOT and H on [|bit>, pair],
    then m0 on q0 and m1 on q1."""
    psi = StateVector([1.0 - bit, bit])
    amps = np.asarray(apply_1q(apply_cnot(tensor(psi, epr), 0, 1), GATE_H, 0).amps).reshape(2, 2, 2)
    norms, readouts = [], []
    for key in OUTCOME_KEYS:
        m1, m0 = int(key[0]), int(key[1])
        branch = np.zeros_like(amps)
        branch[m0, m1] = amps[m0, m1]
        norms.append(float(np.sum(np.abs(branch) ** 2)))
        if np.any(branch):
            post = StateVector(_unit(branch).reshape(-1))
            readouts.append(_bob_reads_one(np.asarray(standard_correction(post, m1, m0).amps)))
    return np.array(norms), readouts


def _simplified_readouts(bit, epr):
    """Bob's readout probability on every reset branch of the simplified
    circuit: tensor, CNOT and H on [pair, |bit>], then q0 and q1 measured."""
    psi = StateVector([1.0 - bit, bit])
    amps = np.asarray(apply_1q(apply_cnot(tensor(epr, psi), 0, 1), GATE_H, 0).amps).reshape(2, 2, 2)
    readouts = []
    for r0 in (0, 1):
        for r1 in (0, 1):
            branch = np.zeros_like(amps)
            branch[r0, r1] = amps[r0, r1]
            if np.any(branch):
                readouts.append(_bob_reads_one(branch))
    return readouts


@settings(max_examples=60, deadline=None)
@given(noise_a=_NOISE_A)
@example(noise_a=None)
@example(noise_a=1.0)
@example(noise_a=3.814640664431252e-158)  # branch norms are subnormal
@example(noise_a=1e-170)  # branch norms underflow to 0
def test_engine_branches_deliver_the_sent_bit(noise_a):
    """A basis-state payload arrives exactly: on every branch of either
    protocol Bob's corrected readout is 1 with probability exactly `bit`, so
    the pipeline's received bits are a copy of the sent ones."""
    epr = _engine_pair(noise_a)
    for bit in (0, 1):
        norms, standard = _standard_branches(bit, epr)
        assert norms.sum() == pytest.approx(1.0, abs=1e-12)
        assert standard and all(p == bit for p in standard)
        simplified = _simplified_readouts(bit, epr)
        assert simplified and all(p == bit for p in simplified)


@settings(max_examples=60, deadline=None)
@given(noise_a=_NOISE_A)
@example(noise_a=None)
@example(noise_a=0.8)
@example(noise_a=1.0)
def test_outcome_table_equals_engine_branch_norms(noise_a):
    """The pipeline's closed-form P((m1, m0) | bit) is the engine's Born rule."""
    config = PipelineConfig(input_path="unused.ppm", noise_a=noise_a)
    table = pipeline._outcome_table(*config.epr_amplitudes())
    epr = _engine_pair(noise_a)
    for bit in (0, 1):
        assert np.max(np.abs(table[bit] - _standard_branches(bit, epr)[0])) < 1e-12


# The p = 0.001 upper quantile of chi-squared with 3 degrees of freedom.
_CHI2_3DF_P001 = 16.27


@pytest.mark.parametrize("noise_a", [None, 0.8])
def test_pooled_histograms_follow_the_outcome_table(noise_a, tmp_path):
    """Standard histograms pooled over 2000 seeds pass a chi-squared test at
    p = 0.001 against the engine's branch norms, weighted by the counts of
    0- and 1-bits. The sequence is odd, so its zero ancilla counts as a
    0-bit; at A = 0.8 the two rows differ, so swapped rows would fail."""
    bits = (np.arange(1001) % 10 < 3).astype(np.uint8)
    n1 = int(np.count_nonzero(bits))
    assert n1 == 301
    n0 = bits.size + 1 - n1
    epr = _engine_pair(noise_a)
    expected = n0 * _standard_branches(0, epr)[0] + n1 * _standard_branches(1, epr)[0]
    config = make_config("unused.ppm", tmp_path, protocol="standard", noise_a=noise_a)
    pooled = np.zeros(len(OUTCOME_KEYS))
    seeds = 2000
    for seed in range(seeds):
        config.seed = seed
        hist = _teleport_bits(bits.size, n1, config)[0]
        assert sum(hist.values()) == n0 + n1
        pooled += [hist[key] for key in OUTCOME_KEYS]
    expected *= seeds
    chi2 = float(np.sum((pooled - expected) ** 2 / expected))
    assert chi2 < _CHI2_3DF_P001, (pooled, expected)


def test_simplified_protocol_draws_nothing(ppm_16, tmp_path, monkeypatch):
    """No stream is even built for a whole-image simplified run."""

    def no_stream(*args, **kwargs):
        raise AssertionError("the simplified protocol drew")

    monkeypatch.setattr(np.random, "PCG64", no_stream)
    report = teleport_image(make_config(ppm_16, tmp_path, protocol="simplified"))
    assert report.coincidence.coincidence == 1.0
    assert set(report.coincidence.per_outcome_histogram.values()) == {0}
    assert report.stage_seconds["teleport_draw"] == 0.0


@pytest.mark.parametrize(
    "fixture, sample, seed, golden",
    [
        ("ppm_64", None, 31, {"00": 24623, "01": 24803, "10": 24333, "11": 24545}),
        # Moved in v0.10.0: a sampled run draws its cell counts from the
        # multivariate hypergeometric law, so its n1 changed (v0.9.0: 252,
        # 263, 257, 228).
        ("ppm_16", 1000, 777, {"00": 249, "01": 262, "10": 260, "11": 229}),
    ],
    ids=["ppm_64-full-seed31", "ppm_16-sample1000-seed777"],
)
def test_golden_histograms(fixture, sample, seed, golden, request, tmp_path):
    """Pins the histogram stream: a value changes with the seed derivation
    `derive_seed(seed, "teleport")`, the outcome table, or the order of the
    two multinomial draws (the 0-bits first, then the 1-bits)."""
    ppm = request.getfixturevalue(fixture)
    config = make_config(ppm, tmp_path, protocol="standard", noise_a=0.8, seed=seed, sample=sample)
    report = teleport_image(config)
    assert report.coincidence.per_outcome_histogram == golden
    assert report.coincidence.coincidence == 1.0


def test_odd_sample_pads_unscored_ancilla(ppm_16, tmp_path):
    report = teleport_image(make_config(ppm_16, tmp_path, sample=7))
    assert report.bits_teleported == 7
    assert report.pairs_processed == 4
    assert report.coincidence.total_bits == 7
    scored = [v for v in report.coincidence.per_plane.values() if v is not None]
    assert 1 <= len(scored) <= 7 and set(scored) == {1.0}
    # the padded ancilla still costs a teleport on the wire
    assert report.coincidence.classical_bits_total == 2 * 8


@pytest.mark.parametrize("sample", [None, 100])
def test_benchmark_traced_names_are_called_through_the_module(ppm_16, tmp_path, monkeypatch, sample):
    """The benchmark's traced run swaps these module attributes for timing
    wrappers, so they must exist and `teleport_image` must look them up."""
    for name in ("load_raster", "bit_array", "image_from_bits", "write_raster",
                 "sample_bits", "coincidence_count"):
        assert callable(getattr(pipeline, name)), name
    calls = {"sample_bits": 0, "coincidence_count": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    report = teleport_image(make_config(ppm_16, tmp_path, sample=sample))
    assert report.coincidence.coincidence == 1.0
    assert calls == {"sample_bits": 0 if sample is None else 1, "coincidence_count": 1}


def _traced_worker_run(workload, tmp_path, monkeypatch) -> dict:
    """The benchmark's traced worker for `workload` on this source tree, at
    seed 3 for one second; returns its per-layer metrics after checking
    that every output passed."""
    import qteleport

    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    bench = os.path.join(os.path.dirname(src), "perfbench")
    monkeypatch.syspath_prepend(bench)
    import workloads

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "input.ppm").write_bytes(workloads.make_image(3))
    argv = [
        sys.executable, os.path.join(bench, "worker.py"), "--workload", workload,
        "--root", str(tmp_path), "--run-dir", str(run_dir), "--seed", "3",
        "--seconds", "1", "--trace", "1",
    ]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads((run_dir / "result.json").read_text())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    return result["metrics"]


def test_benchmark_traced_image_full_run_checks_out(tmp_path, monkeypatch):
    """Every output passes its checks and the scorer's span is timed."""
    metrics = _traced_worker_run("image-full", tmp_path, monkeypatch)
    assert metrics["pipeline.coincidence_count_s"] > 0


def test_benchmark_traced_image_sampled_run_checks_out(tmp_path, monkeypatch):
    """The sampled run still calls the patched `sample_bits`."""
    metrics = _traced_worker_run("image-sampled", tmp_path, monkeypatch)
    assert metrics["pipeline.coincidence_count_s"] > 0
    assert metrics["pipeline.sample_bits_s"] > 0


def test_invalid_configs_are_rejected(ppm_16, tmp_path):
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, protocol="warp"))
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, noise_a=1.5))
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, threads=0))


@pytest.mark.parametrize("sample", [0, -5])
def test_bad_sample_is_rejected_before_loading(ppm_16, tmp_path, monkeypatch, sample):
    def no_load(*args, **kwargs):
        raise AssertionError("the image was loaded")

    monkeypatch.setattr(pipeline, "load_raster", no_load)
    with pytest.raises(ValueError, match="sample"):
        teleport_image(make_config(ppm_16, tmp_path, sample=sample))


# ---------------------------------------------------------------- reports


def test_report_json_round_trip(ppm_16, tmp_path):
    report = teleport_image(make_config(ppm_16, tmp_path, sample=64))
    loaded = TeleportReport.from_json((tmp_path / "report.json").read_text())
    assert loaded.to_dict() == report.to_dict()
    assert loaded.schema == 3
    assert loaded.rng == "pcg64"
    assert json.loads((tmp_path / "report.json").read_text())["rng"] == "pcg64"
    assert not reports_equivalent(loaded, dataclasses.replace(loaded, rng="mt19937"))
    assert loaded.config == report.config  # the comparison edits copies only
    assert "executor" not in loaded.config
    assert loaded.engine_version


@pytest.mark.parametrize(
    "protocol, sample, digest",
    [
        ("standard", None, "acce230bbef9db353b639e4383d319488ad780c99c5d9de639a4888af9cf6593"),
        ("standard", 101, "f4eb7522aedd98fd86f4fa71cc8ddb33fe984ba97323a68337cb9da23376a932"),
        ("simplified", None, "663242f31173d19e523fccd786f545685001913778288296ac2ca1ae31d4bf73"),
        ("simplified", 101, "424ad7e8914527711e693ca92c85579602c1fb83429561534d0529d99186e364"),
    ],
)
def test_report_json_is_pinned(ppm_16, tmp_path, protocol, sample, digest):
    """The report file's bytes, with the run-dependent fields pinned: the
    timing fields, `engine_version` and the config's file paths. A digest
    moves when a key, a value, the key order or the JSON layout changes."""
    report = teleport_image(
        make_config(ppm_16, tmp_path, protocol=protocol, noise_a=0.8, sample=sample)
    )
    assert (tmp_path / "report.json").read_text() == report.to_json()
    pinned = dataclasses.replace(
        report,
        wall_time=0.0,
        stage_seconds=dict.fromkeys(report.stage_seconds, 0.0),
        throughput_bits_per_sec=0.0,
        engine_version="pinned",
        config={**report.config, "input_path": "in.ppm", "output_path": "out.ppm",
                "report_path": "report.json"},
    )
    assert hashlib.sha256(pinned.to_json().encode()).hexdigest() == digest


def _report_dict(ppm, tmp_path) -> dict:
    teleport_image(make_config(ppm, tmp_path, sample=64))
    return json.loads((tmp_path / "report.json").read_text())


def test_from_dict_refuses_a_missing_field(ppm_16, tmp_path):
    d = _report_dict(ppm_16, tmp_path)
    del d["rng"]
    with pytest.raises(ValueError, match="rng"):
        TeleportReport.from_dict(d)
    d = _report_dict(ppm_16, tmp_path)
    del d["coincidence"]["matched"]
    with pytest.raises(ValueError, match="matched"):
        TeleportReport.from_dict(d)


def test_from_dict_ignores_extra_keys(ppm_16, tmp_path):
    d = _report_dict(ppm_16, tmp_path)
    plain = TeleportReport.from_dict(d)
    d["comment"] = "added by hand"
    d["coincidence"]["note"] = 1
    assert TeleportReport.from_dict(d) == plain


@pytest.mark.parametrize("doc", [[], "report", 3, None])
def test_from_dict_refuses_a_non_object(doc, ppm_16, tmp_path):
    with pytest.raises(ValueError, match="not a JSON object"):
        TeleportReport.from_dict(doc)
    d = _report_dict(ppm_16, tmp_path)
    d["coincidence"] = doc
    with pytest.raises(ValueError, match="not a JSON object"):
        TeleportReport.from_dict(d)


def test_loaded_report_shares_no_dict_with_its_input(ppm_16, tmp_path):
    d = _report_dict(ppm_16, tmp_path)
    before = json.dumps(d, sort_keys=True)
    report = TeleportReport.from_dict(d)
    report.config["seed"] = -1
    report.stage_seconds["load"] = -1.0
    report.coincidence.per_plane["R7"] = -1.0
    report.coincidence.per_outcome_histogram["00"] = -1
    assert json.dumps(d, sort_keys=True) == before


def test_reports_differ_when_payload_differs(ppm_16, tmp_path):
    rep_a = teleport_image(make_config(ppm_16, tmp_path, seed=1))
    rep_b = teleport_image(make_config(ppm_16, tmp_path, seed=2))
    assert not reports_equivalent(rep_a, rep_b)  # config echo includes the seed


# ------------------------------------------------------------------ demos


@pytest.mark.parametrize("which", ["sdc", "standard", "simplified"])
def test_partial_demos_pass(which):
    verdict = run_partial_demos(which, seed=11)
    assert verdict["passed"], verdict
    assert all(verdict["cases"].values())


def test_partial_demos_reject_unknown():
    with pytest.raises(ValueError):
        run_partial_demos("bogus", seed=0)


# -------------------------------------------------------------------- CLI


def test_cli_teleport_image_and_report_diff(ppm_16, tmp_path, capsys):
    out = tmp_path / "cli_out.ppm"
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    base = [
        "teleport-image", "--in", str(ppm_16), "--out", str(out),
        "--protocol", "simplified", "--seed", "5",
    ]
    assert cli_main(base + ["--report", str(rep_a)]) == 0
    assert cli_main(base + ["--report", str(rep_b)]) == 0
    assert cli_main(["report-diff", str(rep_a), str(rep_b)]) == 0
    assert json.loads(rep_a.read_text())["schema"] == 3

    other = tmp_path / "c.json"
    assert cli_main(base[:-2] + ["--seed", "6", "--report", str(other)]) == 0
    assert cli_main(["report-diff", str(rep_a), str(other)]) == 1
    older = tmp_path / "schema2.json"  # another schema is refused, not compared
    older.write_text(json.dumps({**json.loads(rep_a.read_text()), "schema": 2}))
    assert cli_main(["report-diff", str(rep_a), str(older)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "damage",
    ["drop rng", "a list", "config", "stage_seconds", "coincidence", "per_plane",
     "per_outcome_histogram"],
)
def test_cli_report_diff_refuses_a_malformed_report(ppm_16, tmp_path, capsys, damage):
    """A report that cannot be read is an error (2), not "reports differ" (1).
    A field name as `damage` sets that field, of the report or of its
    coincidence report, to a JSON list."""
    good = tmp_path / "good.json"
    assert cli_main(["teleport-image", "--in", str(ppm_16), "--report", str(good)]) == 0
    d = json.loads(good.read_text())
    if damage == "drop rng":
        del d["rng"]
    elif damage == "a list":
        d = [d]
    elif damage in d:
        d[damage] = []
    else:
        d["coincidence"][damage] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert cli_main(["report-diff", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_reads_the_image_from_stdin(ppm_16, tmp_path):
    """`cat img.ppm | qteleport teleport-image --in /dev/stdin` writes the
    image back byte for byte: the reader does not need to seek."""
    import qteleport

    out = tmp_path / "back.ppm"
    argv = [sys.executable, "-m", "qteleport.cli", "teleport-image",
            "--in", "/dev/stdin", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qteleport.__file__))}
    run = subprocess.run(argv, input=ppm_16.read_bytes(), capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == ppm_16.read_bytes()


def test_cli_demo_and_bitplanes(ppm_16, tmp_path, capsys):
    assert cli_main(["demo", "sdc", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out
    plane_dir = tmp_path / "planes"
    assert cli_main(["bitplanes", "--in", str(ppm_16), "--out", str(plane_dir)]) == 0
    assert len(list(plane_dir.glob("plane_*.pbm"))) == 24
    capsys.readouterr()


def test_cli_sample_argument(ppm_16, tmp_path, capsys):
    argv = [
        "teleport-image", "--in", str(ppm_16), "--sample", "100", "--seed", "1",
        "--report", str(tmp_path / "r.json"),
    ]
    assert cli_main(argv) == 0
    report = TeleportReport.from_json((tmp_path / "r.json").read_text())
    assert report.bits_teleported == 100
    argv[4] = "all"
    assert cli_main(argv) == 0
    report = TeleportReport.from_json((tmp_path / "r.json").read_text())
    assert report.bits_teleported == 16 * 16 * 24
    capsys.readouterr()


def test_cli_rejects_missing_input(tmp_path, capsys):
    rc = cli_main(["teleport-image", "--in", str(tmp_path / "nope.ppm")])
    assert rc == 2
    capsys.readouterr()
