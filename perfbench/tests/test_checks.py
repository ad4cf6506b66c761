"""The output checks must fail on corrupted copies of good outputs."""
import copy

import numpy as np
import pytest
from qteleport.netdemo import FabricServer
from qteleport.pipeline import PipelineConfig, teleport_image

from checks import check_image, check_netdemo
from netsession import run_session
from workloads import make_bits, ppm_bytes

BITS = 6 * 8 * 24


@pytest.fixture(scope="module")
def image_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("image")
    pixels = np.random.default_rng(3).integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
    sent = ppm_bytes(pixels)
    src, out = tmp / "in.ppm", tmp / "out.ppm"
    src.write_bytes(sent)
    report = teleport_image(PipelineConfig(str(src), str(out), protocol="standard", noise_a=0.8, seed=5))
    return sent, out.read_bytes(), report.to_dict()


def test_image_check_passes_on_real_output(image_run):
    sent, received, report = image_run
    assert check_image(sent, received, report, "standard", BITS) == []


def test_image_check_fails_on_one_flipped_output_bit(image_run):
    sent, received, report = image_run
    corrupted = bytearray(received)
    corrupted[-1] ^= 0x01
    failures = check_image(sent, bytes(corrupted), report, "standard", BITS)
    assert any("byte-identical" in f for f in failures)


def test_image_check_fails_on_wrong_classical_count(image_run):
    sent, received, report = image_run
    report = copy.deepcopy(report)
    report["coincidence"]["classical_bits_total"] = 0
    assert check_image(sent, received, report, "standard", BITS)
    assert check_image(sent, received, image_run[2], "simplified", BITS)


@pytest.fixture(scope="module")
def standard_session():
    server = FabricServer(master_seed=11).start()
    try:
        host, port = server.address
        bits = make_bits(11, 12)
        return bits, run_session(f"{host}:{port}", "standard", bits)
    finally:
        server.shutdown()


def test_netdemo_check_passes_on_real_session(standard_session):
    bits, s = standard_session
    assert s.errors == []
    assert check_netdemo("standard", bits, s.bob.bits, s.alice.transcript, s.bob.transcript) == []


def test_netdemo_check_fails_without_one_classical_message(standard_session):
    bits, s = standard_session
    transcript = list(s.alice.transcript)
    first = next(i for i, e in enumerate(transcript) if e.get("msg", {}).get("type") == "CLASSICAL")
    del transcript[first]
    failures = check_netdemo("standard", bits, s.bob.bits, transcript, s.bob.transcript)
    assert any("alice transcript carries" in f for f in failures)


def test_netdemo_check_fails_on_one_flipped_bit(standard_session):
    bits, s = standard_session
    received = list(s.bob.bits)
    received[0] ^= 1
    assert check_netdemo("standard", bits, received, s.alice.transcript, s.bob.transcript)
