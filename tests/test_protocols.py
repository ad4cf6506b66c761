"""Protocol tests.

Intermediate-state fixtures are written out as hand tensor-algebra ket
expansions for payload (alpha, beta) = (0.6, 0.8), with amplitudes placed
index by index. The noisy-branch fidelity oracle is closed form and never
touches the simulator.
"""
import math
import random

import numpy as np
import pytest

from qteleport.core import PureQubit, ket_from_bloch, make_cbs
from qteleport.protocols import (
    BellLabel,
    NoisyEprParams,
    balanced_epr,
    bell_state,
    export_trace,
    noisy_epr,
    standard_correction,
    standard_noisy_fidelity_oracle,
    teleport_bit,
    teleport_simplified,
    teleport_standard,
)

S = 1 / math.sqrt(2)
ALPHA, BETA = 0.6, 0.8
OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def ket(n, entries):
    amps = np.zeros(1 << n, dtype=complex)
    for idx, amp in entries.items():
        amps[idx] = amp
    return amps


def random_bloch(rng):
    return ket_from_bloch(math.acos(2 * rng.random() - 1), rng.random() * 2 * math.pi)


# ------------------------------------------------------------ Bell states


def test_bell_state_amplitudes():
    assert np.allclose(bell_state(BellLabel.PHI_PLUS).amps, [S, 0, 0, S], atol=1e-15)
    assert np.allclose(bell_state(BellLabel.PSI_MINUS).amps, [0, S, -S, 0], atol=1e-15)


def test_bell_states_are_orthonormal():
    labels = list(BellLabel)
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            ip = np.vdot(bell_state(la).amps, bell_state(lb).amps)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


# ------------------------------------------------------- noisy pair setup


def test_noisy_epr_degenerate_product_state():
    assert np.array_equal(noisy_epr(NoisyEprParams(1.0, 0.0)).amps, [1, 0, 0, 0])


def test_noisy_epr_balanced_reduces_to_bell():
    p = NoisyEprParams(S, S)
    assert np.allclose(noisy_epr(p).amps, bell_state(BellLabel.PHI_PLUS).amps, atol=1e-15)


def test_noisy_epr_real_positive_completion():
    p = NoisyEprParams.from_a(0.8)
    assert abs(p.b - 0.6) < 1e-12
    assert np.allclose(noisy_epr(p).amps, ket(2, {0: 0.8, 3: p.b}), atol=1e-15)


def test_noisy_epr_rejects_norm_violation():
    with pytest.raises(ValueError):
        NoisyEprParams(0.9, 0.6)
    with pytest.raises(ValueError):
        NoisyEprParams.from_a(1.5)


# ---------------------------------------------- standard protocol fixtures


def test_standard_snapshots_match_hand_expansion():
    psi = PureQubit(ALPHA, BETA)
    out = teleport_standard(psi, balanced_epr(), forced_outcome=(0, 0))
    trace = dict(out.trace)
    psi0 = ket(3, {0: ALPHA * S, 3: ALPHA * S, 4: BETA * S, 7: BETA * S})
    psi1 = ket(3, {0: ALPHA * S, 3: ALPHA * S, 6: BETA * S, 5: BETA * S})
    psi2 = ket(
        3,
        {
            0: ALPHA / 2, 4: ALPHA / 2, 3: ALPHA / 2, 7: ALPHA / 2,
            2: BETA / 2, 6: -BETA / 2, 1: BETA / 2, 5: -BETA / 2,
        },
    )
    assert np.max(np.abs(trace["psi0"].amps - psi0)) < 1e-12
    assert np.max(np.abs(trace["psi1"].amps - psi1)) < 1e-12
    assert np.max(np.abs(trace["psi2"].amps - psi2)) < 1e-12


def test_standard_noisy_snapshots_match_hand_expansion():
    a, b = 0.8, 0.6
    psi = PureQubit(ALPHA, BETA)
    out = teleport_standard(psi, noisy_epr(NoisyEprParams(a, b)), forced_outcome=(0, 0))
    trace = dict(out.trace)
    psi0 = ket(3, {0: ALPHA * a, 3: ALPHA * b, 4: BETA * a, 7: BETA * b})
    psi1 = ket(3, {0: ALPHA * a, 3: ALPHA * b, 6: BETA * a, 5: BETA * b})
    psi2 = ket(
        3,
        {
            0: a * ALPHA * S, 4: a * ALPHA * S, 2: a * BETA * S, 6: -a * BETA * S,
            3: b * ALPHA * S, 7: b * ALPHA * S, 1: b * BETA * S, 5: -b * BETA * S,
        },
    )
    assert np.max(np.abs(trace["psi0"].amps - psi0)) < 1e-12
    assert np.max(np.abs(trace["psi1"].amps - psi1)) < 1e-12
    assert np.max(np.abs(trace["psi2"].amps - psi2)) < 1e-12


def test_standard_all_branches_recover_payload_exactly():
    psi = PureQubit(ALPHA, BETA)
    for fo in OUTCOMES:
        out = teleport_standard(psi, balanced_epr(), forced_outcome=fo)
        assert (out.b1, out.b2) == fo
        assert abs(out.fidelity_vs_input - 1.0) < 1e-12
        assert out.classical_bits_sent == 2
        assert np.allclose(out.bob_final.mat, psi.projector(), atol=1e-12)


def test_standard_outcome_00_needs_no_correction():
    psi = PureQubit(ALPHA, BETA)
    out = teleport_standard(psi, balanced_epr(), forced_outcome=(0, 0))
    assert np.allclose(out.bob_pre_correction.mat, psi.projector(), atol=1e-12)


def test_standard_cbs_payloads_for_every_branch():
    for bit in (0, 1):
        psi = PureQubit(1 - bit, bit)
        for fo in OUTCOMES:
            out = teleport_standard(psi, balanced_epr(), forced_outcome=fo)
            assert abs(out.fidelity_vs_input - 1.0) < 1e-12


def test_standard_random_bloch_sweep():
    rng = random.Random(2718)
    for _ in range(200):
        psi = random_bloch(rng)
        for fo in OUTCOMES:
            out = teleport_standard(psi, balanced_epr(), forced_outcome=fo)
            assert abs(out.fidelity_vs_input - 1.0) < 1e-12


def test_standard_outcome_uniformity():
    psi = PureQubit(ALPHA, BETA)
    rng = random.Random(777)
    counts = {o: 0 for o in OUTCOMES}
    for _ in range(10_000):
        out = teleport_standard(psi, balanced_epr(), rng)
        counts[(out.b1, out.b2)] += 1
    for o, c in counts.items():
        assert 2300 <= c <= 2700, f"outcome {o} count {c}"


def test_standard_destroys_payload_on_sender_side():
    # After the projective measurements, the first two wires are classical.
    from qteleport.core import reduced_density

    psi = PureQubit(ALPHA, BETA)
    rng = random.Random(41)
    for _ in range(10):
        out = teleport_standard(psi, balanced_epr(), rng)
        post = dict(out.trace)["post-measure"]
        for q in (0, 1):
            rho = np.asarray(reduced_density(post, q).mat)
            assert abs(rho[0, 1]) < 1e-12 and abs(rho[1, 0]) < 1e-12


def test_standard_rejects_bad_pair_arity():
    with pytest.raises(ValueError):
        teleport_standard(PureQubit(1, 0), make_cbs([0, 0, 0]), random.Random(0))


def test_forced_zero_probability_branch_errors():
    # Fully unentangled resource, payload |1>: the (0,0) branch is empty.
    with pytest.raises(ValueError):
        teleport_standard(PureQubit(0, 1), noisy_epr(NoisyEprParams(1.0, 0.0)), forced_outcome=(0, 0))


# ------------------------------------------------------------- correction


def test_correction_identity_branch():
    psi = PureQubit(ALPHA, BETA).as_state()
    assert np.array_equal(standard_correction(psi, 0, 0).amps, psi.amps)


def test_correction_z_twice_is_identity():
    psi = PureQubit(ALPHA, BETA).as_state()
    once = standard_correction(psi, 0, 1)
    twice = standard_correction(once, 0, 1)
    assert np.max(np.abs(np.asarray(twice.amps) - psi.amps)) < 1e-15


def test_correction_inverts_each_collapsed_branch():
    # Hand-collapsed branch states for (alpha, beta) = (0.6, 0.8).
    branches = {
        (0, 0): PureQubit(ALPHA, BETA),
        (1, 0): PureQubit(BETA, ALPHA),          # X-flipped
        (0, 1): PureQubit(ALPHA, -BETA),         # Z-flipped
        (1, 1): PureQubit(-BETA, ALPHA),         # XZ-flipped
    }
    target = PureQubit(ALPHA, BETA).projector()
    for (b1, b2), pre in branches.items():
        fixed = np.asarray(standard_correction(pre.as_state(), b1, b2).amps)
        assert np.allclose(np.outer(fixed, fixed.conj()), target, atol=1e-12), (b1, b2)


# ---------------------------------------------------- simplified protocol


def test_simplified_snapshots_match_hand_expansion():
    psi = PureQubit(ALPHA, BETA)
    out = teleport_simplified(psi, balanced_epr(), random.Random(5))
    psi0 = ket(3, {0: ALPHA * S, 1: BETA * S, 6: ALPHA * S, 7: BETA * S})
    psi1 = ket(3, {0: ALPHA * S, 1: BETA * S, 4: ALPHA * S, 5: BETA * S})
    assert np.max(np.abs(out.psi0.amps - psi0)) < 1e-12
    assert np.max(np.abs(out.psi1.amps - psi1)) < 1e-12
    # psi1 factorizes with the payload intact on the last wire
    assert np.allclose(out.post_reset.amps, ket(3, {0: ALPHA, 1: BETA}), atol=1e-12)
    assert abs(out.fidelity_vs_input - 1.0) < 1e-12
    assert out.classical_bits_sent == 0


def test_simplified_basis_payloads():
    for bit in (0, 1):
        psi = PureQubit(1 - bit, bit)
        out = teleport_simplified(psi, balanced_epr(), random.Random(bit))
        expected = np.zeros((2, 2))
        expected[bit, bit] = 1
        assert np.allclose(out.bob_final.mat, expected, atol=1e-12)


@pytest.mark.parametrize("a", [0.6, 0.8, 0.95])
def test_simplified_noisy_recovery_is_exact(a):
    p = NoisyEprParams.from_a(a)
    psi = PureQubit(ALPHA, BETA)
    for seed in range(6):
        out = teleport_simplified(psi, noisy_epr(p), random.Random(seed))
        assert abs(out.fidelity_vs_input - 1.0) < 1e-12
        assert out.classical_bits_sent == 0
    # pre-reset factor structure: (A|00> + B|10>) (x) payload
    out = teleport_simplified(psi, noisy_epr(p), random.Random(0))
    psi1 = ket(3, {0: p.a * ALPHA, 1: p.a * BETA, 4: p.b * ALPHA, 5: p.b * BETA})
    assert np.max(np.abs(out.psi1.amps - psi1)) < 1e-12


def test_simplified_random_bloch_sweep():
    rng = random.Random(1414)
    for a in (None, 0.6, 0.8, 0.95):
        pair = balanced_epr() if a is None else noisy_epr(NoisyEprParams.from_a(a))
        for _ in range(50):
            psi = random_bloch(rng)
            out = teleport_simplified(psi, pair, rng)
            assert abs(out.fidelity_vs_input - 1.0) < 1e-12


# ------------------------------------------------------ noisy-branch oracle


def test_oracle_balanced_pair_is_perfect():
    psi = PureQubit(ALPHA, BETA)
    p = NoisyEprParams(S, S)
    for fo in OUTCOMES:
        assert abs(standard_noisy_fidelity_oracle(psi, p, fo) - 1.0) < 1e-12


def test_oracle_cbs_payloads_are_noise_immune():
    for a in (0.6, 0.7, 0.8, 0.9):
        p = NoisyEprParams.from_a(a)
        for fo in OUTCOMES:
            assert abs(standard_noisy_fidelity_oracle(PureQubit(1, 0), p, fo) - 1.0) < 1e-12


def test_oracle_spot_value():
    f = standard_noisy_fidelity_oracle(PureQubit(0.6, 0.8), NoisyEprParams.from_a(0.8), (0, 0))
    assert abs(f - 0.98) < 1e-12


def test_oracle_zero_norm_branch_errors():
    with pytest.raises(ValueError):
        standard_noisy_fidelity_oracle(PureQubit(0, 1), NoisyEprParams(1.0, 0.0), (0, 0))


def test_simulated_noisy_branches_match_oracle():
    rng = random.Random(31337)
    for a in (0.6, 0.7, 0.8, 0.9):
        p = NoisyEprParams.from_a(a)
        pair = noisy_epr(p)
        for _ in range(50):
            theta = math.acos(2 * rng.random() - 1)
            psi = PureQubit(math.cos(theta / 2), math.sin(theta / 2))  # real payload
            for fo in OUTCOMES:
                sim = teleport_standard(psi, pair, forced_outcome=fo)
                ora = standard_noisy_fidelity_oracle(psi, p, fo)
                assert abs(sim.fidelity_vs_input - ora) < 1e-10
                if abs(psi.alpha) > 1e-9 and abs(psi.beta) > 1e-9:
                    assert sim.fidelity_vs_input < 1.0


# ---------------------------------------------------------- bit transport


def test_teleport_bit_round_trips_for_both_protocols():
    rng = random.Random(8)
    for protocol in ("standard", "simplified"):
        for bit in (0, 1):
            for _ in range(25):
                res = teleport_bit(bit, protocol, balanced_epr(), rng)
                assert res.received == bit
                if protocol == "standard":
                    assert res.disambiguation is not None
                else:
                    assert res.disambiguation is None


class _CountingRandom:
    """A RandomSource that counts its draws."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self._rng.random()


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("noise_a", [None, 0.8])
def test_teleport_bit_takes_exactly_three_draws_per_bit(protocol, noise_a):
    pair = balanced_epr() if noise_a is None else noisy_epr(NoisyEprParams.from_a(noise_a))
    rng = _CountingRandom(12)
    bits = [0, 1, 1, 0, 1, 0, 0, 1]
    for i, bit in enumerate(bits):
        teleport_bit(bit, protocol, pair, rng)
        assert rng.calls == 3 * (i + 1)


def test_teleport_bit_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        teleport_bit(0, "warp", balanced_epr(), random.Random(0))


def test_export_trace_contains_named_dumps():
    out = teleport_standard(PureQubit(ALPHA, BETA), balanced_epr(), forced_outcome=(0, 0))
    text = export_trace(out.trace)
    for name in ("psi0", "psi1", "psi2", "post-measure", "post-correction"):
        assert f"# {name}\n" in text
    assert text.count("\n") == 5 * 9  # five 3-qubit snapshots, 8 lines + header
