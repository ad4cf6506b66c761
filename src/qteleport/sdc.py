"""Superdense-coding interfaces between classical bits and basis states.

The encoder half (Cl2Qu) maps a bit pair onto one of the four Bell states
by conditionally applying X then Z to qubit 0 of a shared balanced pair.
The decoder half runs CNOT(0->1) and H(0), landing on the basis state
|b1 b2>, which a z-measurement reads out exactly. Chaining the halves gives
a deterministic bits -> register -> bits path for any register of basis
states. The image pipeline does not run its bits through this chain: it
embeds each bit directly as a basis state and teleports that. The chain is
exercised by the `sdc` partial demo (`pipeline.run_partial_demos`).
"""
from __future__ import annotations

import numpy as np

from .core import (
    GATE_H,
    GATE_X,
    GATE_Z,
    StateVector,
    apply_1q,
    apply_cnot,
    tensor,
)
from .protocols import BellLabel, bell_state

# A register counts as a basis state when its dominant amplitude carries all
# the weight up to this slack; anything worse is a pipeline logic bug.
CBS_TOL = 1e-9

BitPair = tuple[int, int]


def _check_pair(pair: BitPair) -> BitPair:
    b1, b2 = pair
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError(f"bit pair {pair!r} must contain only 0/1")
    return b1, b2


def cl2qu_encode(pair: BitPair) -> StateVector:
    """Encode (b1, b2): from the balanced pair, X on qubit 0 if b2, then Z if b1."""
    b1, b2 = _check_pair(pair)
    state = bell_state(BellLabel.PHI_PLUS)
    if b2:
        state = apply_1q(state, GATE_X, 0)
    if b1:
        state = apply_1q(state, GATE_Z, 0)
    return state


def bell_to_cbs(encoded: StateVector) -> StateVector:
    """Decode an encoded pair to the basis state |b1 b2>."""
    if encoded.n != 2:
        raise ValueError("encoded register must hold exactly 2 qubits")
    state = apply_cnot(encoded, 0, 1)
    state = apply_1q(state, GATE_H, 0)
    if np.max(np.abs(state.amps)) < 1.0 - CBS_TOL:
        raise ValueError("input is not a valid encoded pair state")
    return state


def is_cbs(state: StateVector) -> bool:
    return bool(np.max(np.abs(state.amps)) >= 1.0 - CBS_TOL)


def qu2cl(reg: StateVector) -> list[int]:
    """Deterministic single-shot readout of a basis-state register."""
    amps = np.abs(reg.amps)
    idx = int(np.argmax(amps))
    if amps[idx] < 1.0 - CBS_TOL:
        raise ValueError("register is not a CBS: superposition detected")
    return [(idx >> (reg.n - 1 - k)) & 1 for k in range(reg.n)]


def cl2qu(bits) -> StateVector:
    """Fused encoder+decoder: a bit string becomes the matching register.

    Bits are consumed pairwise; an odd tail is completed with a zero
    ancilla whose qubit is dropped from the result.
    """
    bits = list(bits)
    if not 1 <= len(bits) <= 24:
        raise ValueError(f"bit string length {len(bits)} outside 1..24")
    reg: StateVector | None = None
    for i in range(0, len(bits), 2):
        chunk = bits[i : i + 2]
        padded = len(chunk) == 1
        if padded:
            chunk = [chunk[0], 0]
        pair_reg = bell_to_cbs(cl2qu_encode((chunk[0], chunk[1])))
        if padded:
            pair_reg = _drop_ancilla(pair_reg)
        reg = pair_reg if reg is None else tensor(reg, pair_reg)
    assert reg is not None
    return reg


def _drop_ancilla(pair_reg: StateVector) -> StateVector:
    """Strip the trailing zero ancilla from a 2-qubit basis register."""
    t = pair_reg.amps.reshape(2, 2)
    if np.max(np.abs(t[:, 1])) > CBS_TOL:
        raise ValueError("ancilla qubit is not |0>")
    return StateVector(t[:, 0].copy(), copy=False)


def sdc_roundtrip(pair: BitPair) -> BitPair:
    """Encode, traverse the (identity) channel, decode, and read out."""
    b1, b2 = _check_pair(pair)
    bits = qu2cl(bell_to_cbs(cl2qu_encode((b1, b2))))
    return bits[0], bits[1]


__all__ = [
    "BitPair",
    "CBS_TOL",
    "bell_to_cbs",
    "cl2qu",
    "cl2qu_encode",
    "is_cbs",
    "qu2cl",
    "sdc_roundtrip",
]
