"""Bell pairs, amplitude-imbalanced (noisy) EPR pairs, and the two
teleportation protocols.

Standard protocol register: [q0 = payload, q1 = Alice's pair half,
q2 = Bob's pair half]; circuit CNOT(q0->q1), H(q0), measure q0 and q1,
then a conditional Z/X correction on q2 driven by the two transmitted
disambiguation bits.

Simplified protocol register: [q0, q1 = pair, q2 = payload]; circuit
CNOT(q0->q1), H(q0), then strict resets of q0 and q1. No classical bits
travel and Bob applies nothing.

Disambiguation-bit naming: b1 is the measurement of q1 and drives the X
correction; b2 is the measurement of q0 and drives the Z correction. The
mapping is pinned by the correctness property (corrected state equals the
payload for every outcome) and exercised branch-by-branch in the tests.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    CORRUPT_NORM,
    GATE_H,
    GATE_X,
    GATE_Z,
    SQRT2_INV,
    DensityMatrix2,
    PureQubit,
    RandomSource,
    StateVector,
    apply_1q,
    apply_cnot,
    fidelity,
    make_cbs,
    measure_qubit,
    project_qubit,
    reduced_density,
    reset_qubit,
    tensor,
)

PROTOCOLS = ("standard", "simplified")


class BellLabel(enum.Enum):
    """The four Bell basis states, keyed by their (b1, b2) bit labels."""

    PHI_PLUS = (0, 0)
    PHI_MINUS = (1, 0)
    PSI_PLUS = (0, 1)
    PSI_MINUS = (1, 1)


_BELL_AMPS = {
    BellLabel.PHI_PLUS: (SQRT2_INV, 0.0, 0.0, SQRT2_INV),
    BellLabel.PHI_MINUS: (SQRT2_INV, 0.0, 0.0, -SQRT2_INV),
    BellLabel.PSI_PLUS: (0.0, SQRT2_INV, SQRT2_INV, 0.0),
    BellLabel.PSI_MINUS: (0.0, SQRT2_INV, -SQRT2_INV, 0.0),
}


def bell_state(label: BellLabel) -> StateVector:
    """One of the four maximally entangled two-qubit states."""
    return StateVector(_BELL_AMPS[label])


@dataclass(frozen=True)
class NoisyEprParams:
    """Amplitudes of an imbalanced pair A|00> + B|11> with |A|^2+|B|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        s = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(s - 1.0) <= CORRUPT_NORM:  # NaN fails this test
            raise ValueError(f"|A|^2 + |B|^2 = {s}, expected 1")

    @classmethod
    def from_a(cls, a: float) -> "NoisyEprParams":
        """Real-positive completion B = sqrt(1 - A^2) for A in (0, 1]."""
        if not 0.0 < a <= 1.0:
            raise ValueError(f"A = {a} outside (0, 1]")
        return cls(a, math.sqrt(max(0.0, 1.0 - a * a)))


def noisy_epr(params: NoisyEprParams) -> StateVector:
    """The pair A|00> + B|11>."""
    return StateVector([params.a, 0.0, 0.0, params.b])


def balanced_epr() -> StateVector:
    """The default resource pair (|00> + |11>)/sqrt(2)."""
    return bell_state(BellLabel.PHI_PLUS)


@dataclass
class TeleportOutcome:
    """Result of one standard-protocol run, with every intermediate state."""

    b1: int
    b2: int
    bob_pre_correction: DensityMatrix2
    bob_final: DensityMatrix2
    fidelity_vs_input: float
    trace: list[tuple[str, StateVector]]
    classical_bits_sent: int = 2


@dataclass
class SimplifiedTrace:
    """Result of one simplified-protocol run."""

    psi0: StateVector
    psi1: StateVector
    post_hadamard: StateVector
    post_reset: StateVector
    bob_final: DensityMatrix2
    fidelity_vs_input: float
    classical_bits_sent: int = 0


def _require_pair(epr: StateVector) -> None:
    if epr.n != 2:
        raise ValueError(f"resource pair must be a 2-qubit state, got {epr.n} qubits")


def standard_correction(bob: StateVector, b1: int, b2: int) -> StateVector:
    """Bob's conditional recovery on the last qubit of the register: Z if
    b2, then X if b1."""
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError("disambiguation bits must be 0 or 1")
    q = bob.n - 1
    out = bob
    if b2:
        out = apply_1q(out, GATE_Z, q)
    if b1:
        out = apply_1q(out, GATE_X, q)
    return out


def _standard_circuit(psi, epr, rng, forced_outcome=None):
    """The standard circuit on [payload, pair] through Bob's correction.
    Returns its five snapshots and (b1, b2); the two measurements draw two
    variates unless `forced_outcome` picks the branch."""
    psi0 = tensor(psi, epr)
    psi1 = apply_cnot(psi0, 0, 1)
    psi2 = apply_1q(psi1, GATE_H, 0)
    if forced_outcome is not None:
        b1, b2 = forced_outcome
        post = project_qubit(project_qubit(psi2, 0, b2), 1, b1)
    else:
        if rng is None:
            raise ValueError("either rng or forced_outcome is required")
        m0, post = measure_qubit(psi2, 0, rng)
        m1, post = measure_qubit(post, 1, rng)
        b1, b2 = m1, m0
    corrected = standard_correction(post, b1, b2)
    return (psi0, psi1, psi2, post, corrected), (b1, b2)


def _simplified_circuit(psi, epr, rng):
    """The simplified circuit on [pair, payload]. Returns the snapshots
    (psi0, psi1, post-H, post-reset); the two resets draw two variates."""
    psi0 = tensor(epr, psi)
    psi1 = apply_cnot(psi0, 0, 1)
    post_h = apply_1q(psi1, GATE_H, 0)
    post_reset = reset_qubit(reset_qubit(post_h, 0, rng), 1, rng)
    return psi0, psi1, post_h, post_reset


def teleport_standard(
    psi: PureQubit,
    epr: StateVector,
    rng: RandomSource | None = None,
    forced_outcome: tuple[int, int] | None = None,
) -> TeleportOutcome:
    """Run the standard protocol once.

    Measurement results are sampled from `rng` unless `forced_outcome`
    injects a specific (b1, b2) branch, which the tests use to enumerate
    all four corrections.
    """
    _require_pair(epr)
    states, (b1, b2) = _standard_circuit(psi.as_state(), epr, rng, forced_outcome)
    post, corrected = states[3:]
    bob_final = reduced_density(corrected, 2)
    return TeleportOutcome(
        b1=b1,
        b2=b2,
        bob_pre_correction=reduced_density(post, 2),
        bob_final=bob_final,
        fidelity_vs_input=fidelity(psi, bob_final),
        trace=list(zip(("psi0", "psi1", "psi2", "post-measure", "post-correction"), states)),
    )


def teleport_simplified(psi: PureQubit, epr: StateVector, rng: RandomSource) -> SimplifiedTrace:
    """Run the simplified protocol once. Sends zero classical bits."""
    _require_pair(epr)
    psi0, psi1, post_h, post_reset = _simplified_circuit(psi.as_state(), epr, rng)
    bob_final = reduced_density(post_reset, 2)
    return SimplifiedTrace(
        psi0=psi0,
        psi1=psi1,
        post_hadamard=post_h,
        post_reset=post_reset,
        bob_final=bob_final,
        fidelity_vs_input=fidelity(psi, bob_final),
    )


def standard_noisy_fidelity_oracle(
    psi: PureQubit, params: NoisyEprParams, outcome: tuple[int, int]
) -> float:
    """Closed-form branch fidelity of the corrected standard protocol.

    Independent of the simulator: evaluated directly from the collapsed
    branch amplitudes for real alpha, beta, A, B. The fidelity depends only
    on b1 (the X-driving bit); the Z correction cancels the branch sign.
    """
    for name, v in (("alpha", psi.alpha), ("beta", psi.beta), ("A", params.a), ("B", params.b)):
        if abs(complex(v).imag) > 1e-12:
            raise ValueError(f"oracle requires real {name}")
    alpha, beta = complex(psi.alpha).real, complex(psi.beta).real
    a, b = complex(params.a).real, complex(params.b).real
    b1, b2 = outcome
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError("outcome bits must be 0 or 1")
    if b1 == 0:
        num = a * alpha**2 + b * beta**2
        den = a**2 * alpha**2 + b**2 * beta**2
    else:
        num = b * alpha**2 + a * beta**2
        den = b**2 * alpha**2 + a**2 * beta**2
    if den < 1e-18:
        raise ValueError(f"outcome {outcome} is a zero-norm branch for this input")
    return num**2 / den


@dataclass
class TeleportedBit:
    """One payload bit pushed through a protocol and read out by Bob."""

    sent: int
    received: int
    disambiguation: tuple[int, int] | None  # None for the simplified protocol


def teleport_bit(bit: int, protocol: str, epr: StateVector, rng: RandomSource) -> TeleportedBit:
    """Teleport a single classical bit embedded as the basis state |bit>.

    Runs the same circuit as `teleport_standard` / `teleport_simplified`,
    without their density matrices and fidelities, then reads out Bob's
    qubit. This is the per-bit reference the networked demo replays
    command-for-command: it consumes exactly three rng draws (two Alice
    measurements, or two resets, plus the readout).
    """
    psi = make_cbs([bit])
    _require_pair(epr)
    if protocol == "standard":
        states, disambiguation = _standard_circuit(psi, epr, rng)
    elif protocol == "simplified":
        states, disambiguation = _simplified_circuit(psi, epr, rng), None
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    received, _ = measure_qubit(states[-1], 2, rng)
    return TeleportedBit(bit, received, disambiguation)


def export_trace(snapshots: list[tuple[str, StateVector]]) -> str:
    """Concatenated debug dumps of named snapshots, for golden-file tests."""
    from .core import dump_state

    parts = []
    for name, sv in snapshots:
        parts.append(f"# {name}\n{dump_state(sv)}")
    return "".join(parts)
