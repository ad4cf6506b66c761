"""Pipeline tests: sampling, scoring, full-image runs, determinism, CLI."""
import dataclasses
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
from qteleport.imaging import RasterImage, bit_array, image_from_bits, load_raster, write_raster
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


class _Population:
    """Stands in for an image where only the bit count matters."""

    def __init__(self, total):
        self.total = total

    def total_bits(self):
        return self.total


def test_sample_bits_determinism(image_16):
    a = sample_bits(image_16, 100, seed=5)
    b = sample_bits(image_16, 100, seed=5)
    assert a.dtype == np.int64
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)  # ascending, hence distinct
    assert 0 <= a[0] and a[-1] < image_16.total_bits()
    assert not np.array_equal(a, sample_bits(image_16, 100, seed=6))


def test_sample_bits_full_population_is_permutation(image_16):
    """The whole population comes back as the identity: canonical order."""
    total = image_16.total_bits()
    picks = sample_bits(image_16, total, seed=5)
    assert picks.dtype == np.int64
    assert np.array_equal(picks, np.arange(total))


@pytest.mark.parametrize("size", ["one", "half", "half+1"])
def test_sample_bits_edge_sizes(image_16, size):
    """Up to total // 2 the sample itself is marked, above it the complement."""
    total = image_16.total_bits()
    n = {"one": 1, "half": total // 2, "half+1": total // 2 + 1}[size]
    picks = sample_bits(image_16, n, seed=12)
    assert picks.size == n and picks.dtype == np.int64
    assert np.all(np.diff(picks) > 0)
    assert 0 <= picks[0] and picks[-1] < total


# The p = 0.001 upper quantile of chi-squared with 14 degrees of freedom.
_CHI2_14DF_P001 = 36.12


@pytest.mark.parametrize("n", [2, 4])  # 4 of 6 takes the complement path
def test_sample_bits_is_uniform_over_subsets(n):
    """Every n-subset of 6 positions is equally likely: all 15 appear over
    15 000 seeds, and their counts pass a chi-squared test at p = 0.001."""
    population = _Population(6)
    counts = {}
    for seed in range(15_000):
        key = tuple(sample_bits(population, n, seed).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    expected = 15_000 / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < _CHI2_14DF_P001, counts


def test_sample_bits_full_scale_geometry():
    height, width = 1080, 1920
    big = RasterImage(np.zeros((height, width, 3), dtype=np.uint8))
    picks = sample_bits(big, 100, seed=9)
    assert picks.shape == (100,)
    # bit_array's layout is (channel, plane 7..0, row, col).
    plane, pixel = np.divmod(picks, width * height)
    row, col = np.divmod(pixel, width)
    assert np.all(plane < 3 * 8)
    assert np.all((0 <= row) & (row < height) & (0 <= col) & (col < width))


def test_sample_bits_keeps_no_population_sized_index_array():
    """A 1M-bit sample of a full-HD image (49.8M bits) stays within a
    one-byte-per-bit budget: no int64 array over the whole population."""
    import tracemalloc

    big = RasterImage(np.zeros((1080, 1920, 3), dtype=np.uint8))
    tracemalloc.start()
    try:
        picks = sample_bits(big, 1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert picks.size == 1_000_000
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_sample_bits_rejects_oversized_request(image_16):
    with pytest.raises(ValueError):
        sample_bits(image_16, image_16.total_bits() + 1, seed=0)


# ----------------------------------------------------------------- scoring

# A 100x1 image: canonical positions 0..99 are plane R7, row 0, column i,
# which is bit 7 of the red sample of pixel i.
W, H = 100, 1


def _red_msb(bits):
    """A 100x1 image whose plane R7 holds `bits`; every other bit is 0."""
    px = np.zeros((H, W, 3), dtype=np.uint8)
    px[0, :, 0] = np.asarray(bits, dtype=np.uint8) << 7
    return px


def test_coincidence_identical_streams():
    sent = _red_msb(np.arange(100) % 2)
    rep = coincidence_count(sent, sent.copy(), indices=np.arange(100))
    assert rep.coincidence == 1.0 and rep.matched == 100


def test_coincidence_single_flip():
    sent = _red_msb(np.zeros(100))
    received = sent.copy()
    received[0, 7, 0] ^= 0x80
    rep = coincidence_count(sent, received, indices=np.arange(100))
    assert rep.coincidence == pytest.approx(0.99)
    assert rep.per_plane["R7"] == pytest.approx(0.99)


def test_coincidence_unsampled_planes_report_no_data():
    sent = _red_msb(np.ones(100))
    rep = coincidence_count(sent, sent, indices=np.arange(10))
    assert rep.per_plane["R7"] == 1.0
    assert rep.per_plane["G3"] is None
    assert rep.total_bits == 10


def test_coincidence_rejects_length_mismatch():
    """Sent and received must be (h, w, 3) pixel arrays of one shape."""
    sent = _red_msb(np.zeros(100))
    with pytest.raises(ValueError):
        coincidence_count(sent, sent[:, :99], indices=np.arange(1))
    with pytest.raises(ValueError):
        coincidence_count(sent, np.zeros((0, 0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        coincidence_count(sent, sent[:, :99])  # a whole image of the other shape
    with pytest.raises(ValueError):
        coincidence_count(sent.reshape(W, 3), sent.reshape(W, 3))


@pytest.mark.parametrize(
    "indices", [[3, 1], [2, 2], [0, 5, 4], [-1, 0], [0, W * H * 24]],
    ids=["descending", "repeated", "descending-tail", "negative", "past-the-end"],
)
def test_coincidence_rejects_bad_indices(indices):
    """Positions must be strictly increasing and inside the image."""
    sent = _red_msb(np.zeros(100))
    with pytest.raises(ValueError):
        coincidence_count(sent, sent, indices=np.array(indices, dtype=np.int64))


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
    received = image_from_bits(received_bits, image_16.width, image_16.height).pixels
    hist = {"00": 1, "01": 2, "10": 3, "11": 4}

    full = coincidence_count(image_16.pixels, received, None, hist, classical_bits=20)
    assert full.to_dict() == _hand_count(stream, received_bits, hist, 20)

    picks = sample_bits(image_16, 500, seed=8)
    sampled = coincidence_count(image_16.pixels, received, picks, hist, 20)
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


def test_importing_the_pipeline_leaves_numpy_random_unloaded():
    """Importing `numpy.random` adds about 10 ms to the ~200 ms import of the
    pipeline. The pipeline looks `np.random` up only when it draws, so the
    benchmark's set-up time never pays for it."""
    import qteleport

    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, qteleport.pipeline; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_GUARD_W, _GUARD_H = 160, 120
_GUARD_BITS = _GUARD_W * _GUARD_H * 24


@pytest.mark.parametrize(
    "sample, bound", [(None, 1.0), (_GUARD_BITS // 7, 3.0)], ids=["whole", "seventh"]
)
def test_run_memory_stays_below_bytes_per_bit(tmp_path, sample, bound):
    """A run's traced peak, in bytes per bit of the image: a whole-image
    run holds nothing of one byte per bit; a sampled run holds only the
    sampler's marks and its int64 positions."""
    import tracemalloc

    rng = np.random.default_rng(120)
    img = RasterImage(rng.integers(0, 256, size=(_GUARD_H, _GUARD_W, 3), dtype=np.uint8))
    ppm = tmp_path / "guard.ppm"
    ppm.write_bytes(write_raster(img))
    config = make_config(ppm, tmp_path, sample=sample)
    teleport_image(config)  # lazy imports are not the run's memory
    tracemalloc.start()
    try:
        teleport_image(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * _GUARD_BITS, f"peak {peak / _GUARD_BITS:.2f} bytes per bit"


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
    picks = sample_bits(image_16, 4097, config.seed)
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
    amps = apply_1q(apply_cnot(tensor(psi, epr), 0, 1), GATE_H, 0).amps.reshape(2, 2, 2)
    norms, readouts = [], []
    for key in OUTCOME_KEYS:
        m1, m0 = int(key[0]), int(key[1])
        branch = np.zeros_like(amps)
        branch[m0, m1] = amps[m0, m1]
        norms.append(float(np.sum(np.abs(branch) ** 2)))
        if np.any(branch):
            post = StateVector(_unit(branch).reshape(-1))
            readouts.append(_bob_reads_one(standard_correction(post, m1, m0, qubit=2).amps))
    return np.array(norms), readouts


def _simplified_readouts(bit, epr):
    """Bob's readout probability on every reset branch of the simplified
    circuit: tensor, CNOT and H on [pair, |bit>], then q0 and q1 measured."""
    psi = StateVector([1.0 - bit, bit])
    amps = apply_1q(apply_cnot(tensor(epr, psi), 0, 1), GATE_H, 0).amps.reshape(2, 2, 2)
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
        ("ppm_16", 1000, 777, {"00": 252, "01": 263, "10": 257, "11": 228}),
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


def test_benchmark_traced_image_full_run_checks_out(tmp_path, monkeypatch):
    """The benchmark's traced image-full worker runs on this source tree:
    every output passes its checks and the scorer's span is timed."""
    import qteleport

    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    bench = os.path.join(os.path.dirname(src), "perfbench")
    monkeypatch.syspath_prepend(bench)
    import workloads

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "input.ppm").write_bytes(workloads.make_image(3))
    argv = [
        sys.executable, os.path.join(bench, "worker.py"), "--workload", "image-full",
        "--root", str(tmp_path), "--run-dir", str(run_dir), "--seed", "3",
        "--seconds", "1", "--trace", "1",
    ]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads((run_dir / "result.json").read_text())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["metrics"]["pipeline.coincidence_count_s"] > 0


def test_invalid_configs_are_rejected(ppm_16, tmp_path):
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, protocol="warp"))
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, noise_a=1.5))
    with pytest.raises(ValueError):
        teleport_image(make_config(ppm_16, tmp_path, threads=0))


# ---------------------------------------------------------------- reports


def test_report_json_round_trip(ppm_16, tmp_path):
    report = teleport_image(make_config(ppm_16, tmp_path, sample=64))
    loaded = TeleportReport.from_json((tmp_path / "report.json").read_text())
    assert loaded.to_dict() == report.to_dict()
    assert loaded.schema == 3
    assert loaded.rng == "pcg64"
    assert json.loads((tmp_path / "report.json").read_text())["rng"] == "pcg64"
    assert not reports_equivalent(loaded, dataclasses.replace(loaded, rng="mt19937"))
    assert "executor" not in loaded.config
    assert loaded.engine_version


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
