"""Pipeline tests: sampling, scoring, full-image runs, determinism, CLI."""
import dataclasses
import json

import numpy as np
import pytest

from qteleport import pipeline
from qteleport.cli import main as cli_main
from qteleport.imaging import address_of, bit_array, load_raster
from qteleport.pipeline import (
    OUTCOME_KEYS,
    RANGE_PAIRS,
    PipelineConfig,
    TeleportReport,
    _teleport_bit_sequence,
    coincidence_count,
    reports_equivalent,
    run_partial_demos,
    sample_bits,
    teleport_image,
)
from qteleport.protocols import NoisyEprParams, balanced_epr, noisy_epr, teleport_bit
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


def test_sample_bits_determinism(image_16):
    a = sample_bits(image_16, 100, seed=5)
    b = sample_bits(image_16, 100, seed=5)
    assert a.dtype == np.int64
    assert np.array_equal(a, b)
    assert np.unique(a).size == 100


def test_sample_bits_full_population_is_permutation(image_16):
    total = image_16.total_bits()
    picks = sample_bits(image_16, total, seed=5)
    assert np.array_equal(np.sort(picks), np.arange(total))


def test_sample_bits_full_scale_geometry():
    from qteleport.imaging import RasterImage

    big = RasterImage(np.zeros((1080, 1920, 3), dtype=np.uint8))
    picks = sample_bits(big, 100, seed=9)
    assert picks.shape == (100,)
    addrs = [address_of(int(i), 1920, 1080) for i in picks]
    assert all(0 <= a.row < 1080 and 0 <= a.col < 1920 for a in addrs)


def test_sample_bits_rejects_oversized_request(image_16):
    with pytest.raises(ValueError):
        sample_bits(image_16, image_16.total_bits() + 1, seed=0)


# ----------------------------------------------------------------- scoring

# A 100x1 image: canonical positions 0..99 are plane R7, row 0, column i.
W, H = 100, 1


def test_coincidence_identical_streams():
    sent = np.arange(100, dtype=np.uint8) % 2
    rep = coincidence_count(sent, sent, W, H, indices=np.arange(100))
    assert rep.coincidence == 1.0 and rep.matched == 100


def test_coincidence_single_flip():
    sent = np.zeros(100, dtype=np.uint8)
    received = sent.copy()
    received[7] = 1
    rep = coincidence_count(sent, received, W, H, indices=np.arange(100))
    assert rep.coincidence == pytest.approx(0.99)
    assert rep.per_plane["R7"] == pytest.approx(0.99)


def test_coincidence_unsampled_planes_report_no_data():
    sent = np.ones(10, dtype=np.uint8)
    rep = coincidence_count(sent, sent, W, H, indices=np.arange(10))
    assert rep.per_plane["R7"] == 1.0
    assert rep.per_plane["G3"] is None
    assert rep.total_bits == 10


def test_coincidence_rejects_length_mismatch():
    sent = np.zeros(1, dtype=np.uint8)
    with pytest.raises(ValueError):
        coincidence_count(sent, np.zeros(0, dtype=np.uint8), W, H, indices=np.arange(1))
    with pytest.raises(ValueError):
        coincidence_count(sent, sent, W, H, indices=np.arange(2))


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
    w, h = image_16.width, image_16.height

    full = coincidence_count(sent_bits, received_bits, w, h, None, hist, classical_bits=20)
    assert full.to_dict() == _hand_count(stream, received_bits, hist, 20)

    picks = sample_bits(image_16, 500, seed=8)
    sampled = coincidence_count(sent_bits[picks], received_bits[picks], w, h, picks, hist, 20)
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


def test_worker_count_does_not_change_results(ppm_64, tmp_path):
    rep_1 = teleport_image(make_config(ppm_64, tmp_path, threads=1, seed=31))
    rep_4 = teleport_image(make_config(ppm_64, tmp_path, threads=4, seed=31))
    assert reports_equivalent(rep_1, rep_4)


def _reference_sequence(bits, protocol, noise_a, seed):
    """`teleport_bit` over each range's own stream, split as the pipeline
    splits the sequence; the reference the pipeline must equal draw for draw."""
    epr = balanced_epr() if noise_a is None else noisy_epr(NoisyEprParams.from_a(noise_a))
    work = [int(b) for b in bits] + [0] * (len(bits) % 2)
    received, hist, classical = [], dict.fromkeys(OUTCOME_KEYS, 0), 0
    for lo in range(0, len(work), 2 * RANGE_PAIRS):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "teleport", lo // 2)))
        for bit in work[lo : lo + 2 * RANGE_PAIRS]:
            res = teleport_bit(bit, protocol, epr, rng)
            received.append(res.received)
            if res.disambiguation is not None:
                b1, b2 = res.disambiguation
                hist[OUTCOME_KEYS[(b1 << 1) | b2]] += 1
                classical += 2
    return received[: len(bits)], hist, classical


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("noise_a", [None, 0.8])
@pytest.mark.parametrize("source", ["ppm_64", "odd_sample"])
def test_pipeline_matches_teleport_bit_draw_for_draw(
    source, protocol, noise_a, image_16, image_64, tmp_path
):
    if source == "ppm_64":
        bits = bit_array(image_64)  # 24 ranges
    else:
        bits = bit_array(image_16)[sample_bits(image_16, 4097, seed=3)]  # 2 ranges
    config = make_config("unused.ppm", tmp_path, protocol=protocol, noise_a=noise_a, seed=11)
    received, hist, classical, pairs = _teleport_bit_sequence(bits, config)
    want_received, want_hist, want_classical = _reference_sequence(
        bits, protocol, noise_a, config.seed
    )
    assert received.tolist() == want_received
    assert hist == want_hist
    assert classical == want_classical
    assert pairs == (bits.size + 1) // 2


@pytest.mark.parametrize(
    "fixture, sample, seed, golden",
    [
        ("ppm_64", None, 31, {"00": 24558, "01": 24551, "10": 24734, "11": 24461}),
        ("ppm_16", 1000, 777, {"00": 252, "01": 258, "10": 238, "11": 252}),
    ],
    ids=["ppm_64-full-seed31", "ppm_16-sample1000-seed777"],
)
def test_golden_histograms(fixture, sample, seed, golden, request, tmp_path):
    """Pins the random streams: any change to seeding, range splitting or
    draw order shows up here. Both values are also what `_reference_sequence`
    gives, `teleport_bit` over each range's own PCG64 stream."""
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
