"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are pinned here and nowhere else; expected values come from the
closed-form oracle and hand ket expansions, not from the code under test.
"""
import json
import math
import random
import socket
import threading
import time

import numpy as np
import pytest

from qteleport.core import PureQubit, ket_from_bloch
from qteleport.imaging import load_raster, write_raster
from qteleport.netdemo import FabricServer, run_alice, run_bob, transcript_audit
from qteleport.pipeline import PipelineConfig, reports_equivalent, teleport_image
from qteleport.protocols import (
    NoisyEprParams,
    balanced_epr,
    noisy_epr,
    standard_noisy_fidelity_oracle,
    teleport_bit,
    teleport_simplified,
    teleport_standard,
)
from qteleport.sdc import sdc_roundtrip
from qteleport.seeding import derive_seed

S = 1 / math.sqrt(2)
OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def ket(n, entries):
    amps = np.zeros(1 << n, dtype=complex)
    for idx, amp in entries.items():
        amps[idx] = amp
    return amps


def test_criterion_1_sdc_sweep():
    t0 = time.perf_counter()
    ok = all(sdc_roundtrip(p) == p for p in OUTCOMES)
    rng = random.Random(100)
    pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(100)]
    coincidences = sum(sdc_roundtrip(p) == p for p in pairs)
    ok = ok and coincidences == 100
    elapsed = time.perf_counter() - t0
    verdict(1, f"SDC sweep (100/100 coincidences, {elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_2_standard_noiseless():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    ok = True
    for _ in range(200):
        psi = ket_from_bloch(math.acos(2 * rng.random() - 1), rng.random() * 2 * math.pi)
        for fo in OUTCOMES:
            out = teleport_standard(psi, balanced_epr(), forced_outcome=fo)
            ok = ok and abs(out.fidelity_vs_input - 1.0) <= 1e-12
    counts = {o: 0 for o in OUTCOMES}
    psi = PureQubit(0.6, 0.8)
    sample_rng = random.Random(27182)
    for _ in range(10_000):
        out = teleport_standard(psi, balanced_epr(), sample_rng)
        counts[(out.b1, out.b2)] += 1
    ok = ok and all(2300 <= c <= 2700 for c in counts.values())
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        f"standard noiseless (800 forced runs + 10k sampled, {elapsed:.1f}s)",
        ok and elapsed < 10.0,
    )


def test_criterion_3_intermediate_state_fixtures():
    a, b = 0.6, 0.8
    out = teleport_standard(PureQubit(a, b), balanced_epr(), forced_outcome=(0, 0))
    trace = dict(out.trace)
    expected = {
        "psi0": ket(3, {0: a * S, 3: a * S, 4: b * S, 7: b * S}),
        "psi1": ket(3, {0: a * S, 3: a * S, 6: b * S, 5: b * S}),
        "psi2": ket(3, {0: a / 2, 4: a / 2, 3: a / 2, 7: a / 2,
                        2: b / 2, 6: -b / 2, 1: b / 2, 5: -b / 2}),
    }
    ok = all(np.max(np.abs(trace[k].amps - v)) <= 1e-12 for k, v in expected.items())
    simp = teleport_simplified(PureQubit(a, b), balanced_epr(), random.Random(0))
    ok = ok and np.max(np.abs(simp.psi0.amps - ket(3, {0: a * S, 1: b * S, 6: a * S, 7: b * S}))) <= 1e-12
    ok = ok and np.max(np.abs(simp.psi1.amps - ket(3, {0: a * S, 1: b * S, 4: a * S, 5: b * S}))) <= 1e-12
    verdict(3, "intermediate-state fixtures at (0.6, 0.8)", ok)


def test_criterion_4_noisy_standard_matches_oracle():
    rng = random.Random(55)
    ok = True
    for a in (0.6, 0.7, 0.8, 0.9):
        params = NoisyEprParams.from_a(a)
        pair = noisy_epr(params)
        for _ in range(50):
            theta = math.acos(2 * rng.random() - 1)
            psi = PureQubit(math.cos(theta / 2), math.sin(theta / 2))
            for fo in OUTCOMES:
                sim = teleport_standard(psi, pair, forced_outcome=fo).fidelity_vs_input
                ok = ok and abs(sim - standard_noisy_fidelity_oracle(psi, params, fo)) <= 1e-10
    spot = standard_noisy_fidelity_oracle(PureQubit(0.6, 0.8), NoisyEprParams.from_a(0.8), (0, 0))
    sim_spot = teleport_standard(
        PureQubit(0.6, 0.8), noisy_epr(NoisyEprParams.from_a(0.8)), forced_outcome=(0, 0)
    ).fidelity_vs_input
    ok = ok and abs(spot - 0.98) <= 1e-12 and abs(sim_spot - 0.98) <= 1e-10
    verdict(4, "noisy standard branch fidelities vs closed-form oracle", ok)


def test_criterion_5_noisy_simplified_perfect_recovery():
    rng = random.Random(66)
    ok = True
    for a in (0.6, 0.8, 0.95):
        pair = noisy_epr(NoisyEprParams.from_a(a))
        for _ in range(40):
            psi = ket_from_bloch(math.acos(2 * rng.random() - 1), rng.random() * 2 * math.pi)
            out = teleport_simplified(psi, pair, rng)
            ok = ok and abs(out.fidelity_vs_input - 1.0) <= 1e-12
            ok = ok and out.classical_bits_sent == 0
    verdict(5, "noisy simplified recovery (fidelity 1, zero classical bits)", ok)


@pytest.mark.parametrize("size_fixture", ["ppm_16", "ppm_64"])
def test_criterion_6_image_pipeline(size_fixture, request, tmp_path):
    ppm = request.getfixturevalue(size_fixture)
    original = ppm.read_bytes()
    ok = True
    worst = 0.0
    for protocol in ("standard", "simplified"):
        for noise_a in (None, 0.8):
            out_path = tmp_path / f"out_{protocol}_{noise_a}.ppm"
            t0 = time.perf_counter()
            report = teleport_image(
                PipelineConfig(
                    input_path=str(ppm),
                    output_path=str(out_path),
                    protocol=protocol,
                    noise_a=noise_a,
                    seed=4096,
                )
            )
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            ok = ok and report.coincidence.coincidence == 1.0
            ok = ok and out_path.read_bytes() == original
            ok = ok and elapsed < 30.0
            expected_classical = 2 * report.bits_teleported if protocol == "standard" else 0
            ok = ok and report.coincidence.classical_bits_total == expected_classical
    verdict(6, f"image pipeline {size_fixture[-2:]}x{size_fixture[-2:]} (worst run {worst:.2f}s)", ok)


def test_criterion_7_bitplane_codec(image_16):
    from qteleport.imaging import RasterImage, assemble_bitplanes, slice_bitplanes

    samples = np.arange(256, dtype=np.uint8).reshape(16, 16)
    exhaustive = RasterImage(np.stack([samples] * 3, axis=2))
    ok = all(
        np.array_equal(assemble_bitplanes(slice_bitplanes(exhaustive, c)), samples)
        for c in range(3)
    )
    rng = np.random.default_rng(7001)
    for _ in range(100):
        img = RasterImage(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
        for c in range(3):
            ok = ok and np.array_equal(
                assemble_bitplanes(slice_bitplanes(img, c)), img.pixels[:, :, c]
            )
    blob = write_raster(image_16)
    ok = ok and write_raster(load_raster(blob)) == blob
    verdict(7, "bitplane codec (exhaustive + property + PPM round trip)", ok)


def test_criterion_8_networked_demo():
    t0 = time.perf_counter()
    master = 13579
    server = FabricServer(master_seed=master).start()
    try:
        rng = random.Random(8)
        bits = [rng.randint(0, 1) for _ in range(100)]
        ok = True
        for protocol, expected_classical in (("standard", 200), ("simplified", 0)):
            holder = {}
            with socket.create_server(("127.0.0.1", 0)) as listen:
                bob_addr = listen.getsockname()

                def bob_side(sock=listen, proto=protocol):
                    holder["bob"] = run_bob(sock, server.address, proto)

                thread = threading.Thread(target=bob_side)
                thread.start()
                alice = run_alice(server.address, bob_addr, protocol, bits)
                thread.join(timeout=60)
            bob = holder["bob"]
            ok = ok and bob.bits == bits
            ok = ok and transcript_audit(alice.transcript)["classical_bits"] == expected_classical
            ok = ok and transcript_audit(bob.transcript)["classical_bits"] == expected_classical
            ok = ok and transcript_audit(alice.transcript)["violations"] == 0
            session_rng = random.Random(derive_seed(master, "session", alice.session))
            reference = [teleport_bit(b, protocol, balanced_epr(), session_rng).received for b in bits]
            ok = ok and bob.bits == reference
    finally:
        server.shutdown()
    elapsed = time.perf_counter() - t0
    verdict(8, f"networked demo (200 vs 0 classical bits, {elapsed:.1f}s)", ok and elapsed < 30.0)


def test_criterion_9_determinism(ppm_16, tmp_path):
    reports = []
    outputs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"det_{tag}.ppm"
        rep_path = tmp_path / f"det_{tag}.json"
        report = teleport_image(
            PipelineConfig(
                input_path=str(ppm_16),
                output_path=str(out_path),
                report_path=str(rep_path),
                protocol="standard",
                noise_a=0.8,
                seed=777,
                sample=1000,
            )
        )
        reports.append(report)
        outputs.append(out_path.read_bytes())
    ok = reports_equivalent(reports[0], reports[1]) and outputs[0] == outputs[1]
    d0 = json.loads((tmp_path / "det_a.json").read_text())
    d1 = json.loads((tmp_path / "det_b.json").read_text())
    for d in (d0, d1):
        d.pop("wall_time"), d.pop("stage_seconds"), d.pop("throughput_bits_per_sec")
        d["config"].pop("output_path"), d["config"].pop("report_path")
    ok = ok and d0 == d1
    verdict(9, "determinism (identical reports and output bytes)", ok)
