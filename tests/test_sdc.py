"""Superdense-coding interface tests. Expected encoder outputs are frozen
4-vectors checked entry for entry."""
import itertools
import math
import random

import numpy as np
import pytest

from qteleport.core import GATE_X, GATE_Z, StateVector, apply_1q, make_cbs
from qteleport.protocols import BellLabel, bell_state
from qteleport.sdc import bell_to_cbs, cl2qu, cl2qu_encode, is_cbs, qu2cl, sdc_roundtrip

S = 1 / math.sqrt(2)

ENCODED = {
    (0, 0): [S, 0, 0, S],
    (0, 1): [0, S, S, 0],
    (1, 0): [S, 0, 0, -S],
    (1, 1): [0, S, -S, 0],
}


@pytest.mark.parametrize("pair", sorted(ENCODED))
def test_encoder_outputs(pair):
    assert np.allclose(cl2qu_encode(pair).amps, ENCODED[pair], atol=1e-15)


def test_encoded_states_are_the_bell_basis():
    labels = {
        (0, 0): BellLabel.PHI_PLUS,
        (1, 0): BellLabel.PHI_MINUS,
        (0, 1): BellLabel.PSI_PLUS,
        (1, 1): BellLabel.PSI_MINUS,
    }
    for pair, label in labels.items():
        overlap = abs(np.vdot(cl2qu_encode(pair).amps, bell_state(label).amps))
        assert abs(overlap - 1.0) < 1e-12
    states = [cl2qu_encode(p).amps for p in sorted(ENCODED)]
    for i, j in itertools.combinations(range(4), 2):
        assert abs(np.vdot(states[i], states[j])) < 1e-12


@pytest.mark.parametrize(
    "pair,expected_bits",
    [((0, 0), [0, 0]), ((1, 0), [1, 0]), ((0, 1), [0, 1]), ((1, 1), [1, 1])],
)
def test_decoder_lands_on_basis_state(pair, expected_bits):
    reg = bell_to_cbs(cl2qu_encode(pair))
    assert is_cbs(reg)
    assert qu2cl(reg) == expected_bits


def test_decoder_rejects_garbage():
    with pytest.raises(ValueError):
        bell_to_cbs(StateVector([1, 0, 0, 0]))  # product state, not an encoded pair


def test_roundtrip_all_pairs_exact():
    for pair in sorted(ENCODED):
        assert sdc_roundtrip(pair) == pair


def test_roundtrip_random_pairs():
    rng = random.Random(1001)
    hits = sum(
        sdc_roundtrip(p) == p
        for p in ((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(100))
    )
    assert hits == 100


def test_gate_order_only_flips_global_sign():
    swapped = apply_1q(apply_1q(bell_state(BellLabel.PHI_PLUS), GATE_Z, 0), GATE_X, 0)
    assert np.allclose(swapped.amps, -np.asarray(ENCODED[(1, 1)]), atol=1e-15)
    assert qu2cl(bell_to_cbs(swapped)) == [1, 1]


def test_cl2qu_single_bit_uses_zero_ancilla():
    assert np.allclose(cl2qu([0]).amps, [1, 0], atol=1e-12)
    assert np.allclose(cl2qu([1]).amps, [0, 1], atol=1e-12)


def test_cl2qu_builds_matching_register():
    reg = cl2qu([1, 0, 1])
    assert reg.n == 3
    assert qu2cl(reg) == [1, 0, 1]


def test_cl2qu_full_pixel_word():
    """All 24 bits of a pixel word, pairwise as the paper's SDC carries them."""
    bits = [int(c) for c in format(0xA5C3F0, "024b")]
    regs = [cl2qu(bits[i : i + 2]) for i in range(0, 24, 2)]
    assert [reg.n for reg in regs] == [2] * 12
    assert [b for reg in regs for b in qu2cl(reg)] == bits


def test_cl2qu_rejects_out_of_range_lengths():
    with pytest.raises(ValueError):
        cl2qu([])
    with pytest.raises(ValueError):
        cl2qu([0] * 25)


def test_qu2cl_reads_basis_registers():
    assert qu2cl(make_cbs([0])) == [0]
    assert qu2cl(make_cbs([1, 1])) == [1, 1]


def test_qu2cl_rejects_superposition():
    with pytest.raises(ValueError):
        qu2cl(StateVector([S, S]))


def test_interfaces_invert_exhaustively_up_to_8_qubits():
    for n in range(1, 9):
        for value in range(1 << n):
            bits = [(value >> (n - 1 - k)) & 1 for k in range(n)]
            assert qu2cl(cl2qu(bits)) == bits
