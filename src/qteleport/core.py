"""Dense statevector engine for small qubit registers.

Index convention: qubit 0 is the most significant index bit, so the basis
ket |q0 q1 ... q_{n-1}> sits at index sum(q_k * 2**(n-1-k)). Every module
in this package relies on that layout. States are values: operations return
new states and never mutate their inputs.

A state is checked once, where it enters the engine: the public
constructors (`StateVector`, `DensityMatrix2`, `PureQubit`, `Gate1Q`) and
`make_cbs` reject malformed input. Ops (`tensor`, `apply_1q`, `apply_cnot`,
`project_qubit` and the measurements built on it, `reduced_density`)
return their results unchecked, because they cannot make an invalid state
out of valid ones: gates are checked unitary when built, CNOT permutes
amplitudes, the Kronecker product of unit vectors is a unit vector, and a
collapse renormalizes and refuses a zero-norm branch. Ops still check their
qubit indices and `tensor` its qubit limit. `measure_qubit` guards against
a corrupt norm, the one way a caller who mutates `.amps` in place can reach
an op.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

MAX_QUBITS = 24
NORM_TOL = 1e-12
# Norm this far below 1 signals a logic bug upstream, not rounding drift.
CORRUPT_NORM = 1e-9

SQRT2_INV = 1.0 / math.sqrt(2.0)


class RandomSource(Protocol):
    """Anything with .random() -> float in [0, 1). random.Random and
    numpy Generators both qualify."""

    def random(self) -> float: ...


class StateVector:
    """Normalized complex amplitude vector over n qubits (1 <= n <= 24)."""

    __slots__ = ("n", "amps")

    def __init__(self, amps: Sequence[complex] | np.ndarray):
        a = np.array(amps, dtype=complex).reshape(-1)
        n = int(a.size).bit_length() - 1
        if n < 1 or a.size != (1 << n):
            raise ValueError(f"amplitude count {a.size} is not a power of two >= 2")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("non-finite amplitude")
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > CORRUPT_NORM:
            raise ValueError(f"state norm {nrm} is not 1")
        self.n = n
        self.amps = a

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateVector(n={self.n}, amps={self.amps!r})"


def _state(amps: np.ndarray, n: int) -> StateVector:
    """An op's result over n qubits, taken as is (see the module docstring)."""
    state = StateVector.__new__(StateVector)
    state.n = n
    state.amps = amps
    return state


@dataclass(frozen=True)
class PureQubit:
    """Single-qubit pure state alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        s = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(s - 1.0) <= CORRUPT_NORM:  # NaN fails this test
            raise ValueError(f"|alpha|^2 + |beta|^2 = {s}, expected 1")

    def as_state(self) -> StateVector:
        return StateVector([self.alpha, self.beta])

    def projector(self) -> np.ndarray:
        v = np.array([self.alpha, self.beta], dtype=complex)
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class Gate1Q:
    """Named single-qubit gate with its 2x2 unitary."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("gate matrix must be 2x2")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"gate {self.name} has a non-finite entry")
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > NORM_TOL:
            raise ValueError(f"gate {self.name} is not unitary")
        object.__setattr__(self, "matrix", m)


GATE_I = Gate1Q("I", np.eye(2, dtype=complex))
GATE_H = Gate1Q("H", np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV)
GATE_X = Gate1Q("X", np.array([[0, 1], [1, 0]], dtype=complex))
GATE_Z = Gate1Q("Z", np.array([[1, 0], [0, -1]], dtype=complex))
GATES = {g.name: g for g in (GATE_I, GATE_H, GATE_X, GATE_Z)}


class DensityMatrix2:
    """2x2 reduced density matrix: Hermitian, unit trace, PSD."""

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        m = np.array(mat, dtype=complex).reshape(2, 2)
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > CORRUPT_NORM:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < -CORRUPT_NORM:
            raise ValueError("density matrix has a negative eigenvalue")
        self.mat = m

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DensityMatrix2({self.mat!r})"


def _check_qubit(qubit: int, n: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")


def make_cbs(bits: Iterable[int]) -> StateVector:
    """Computational basis state |b0 b1 ...> for a bit sequence."""
    bits = list(bits)
    if not bits:
        raise ValueError("empty bit sequence")
    if len(bits) > MAX_QUBITS:
        raise ValueError(f"{len(bits)} qubits exceeds the {MAX_QUBITS}-qubit limit")
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit value {b!r} is not 0 or 1")
        idx = (idx << 1) | b
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[idx] = 1.0
    return _state(amps, len(bits))


def ket_from_bloch(theta: float, phi: float) -> PureQubit:
    """Qubit at Bloch angles: cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    The unobservable global phase is never represented.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta {theta} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi {phi} outside [0, 2*pi)")
    return PureQubit(math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product a (x) b; a's qubits become the leading ones."""
    if a.n + b.n > MAX_QUBITS:
        raise ValueError(f"{a.n}+{b.n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    return _state(np.kron(a.amps, b.amps), a.n + b.n)


def apply_1q(state: StateVector, gate: Gate1Q, qubit: int) -> StateVector:
    """Apply a single-qubit gate to the given qubit."""
    _check_qubit(qubit, state.n)
    m = gate.matrix
    t = state.amps.reshape(1 << qubit, 2, -1)
    out = np.empty_like(t)
    a0, a1 = t[:, 0, :], t[:, 1, :]
    out[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    out[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1
    return _state(out.reshape(-1), state.n)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on every component whose control bit is 1."""
    n = state.n
    _check_qubit(control, n)
    _check_qubit(target, n)
    if control == target:
        raise ValueError("control and target must differ")
    t = state.amps.reshape([2] * n).copy()
    i0 = [slice(None)] * n
    i1 = [slice(None)] * n
    i0[control] = i1[control] = 1
    i0[target], i1[target] = 0, 1
    lo, hi = t[tuple(i0)].copy(), t[tuple(i1)].copy()
    t[tuple(i0)], t[tuple(i1)] = hi, lo
    return _state(t.reshape(-1), n)


def project_qubit(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Collapse one qubit onto the z-basis `outcome` and renormalize.
    Raises on a branch of zero norm."""
    _check_qubit(qubit, state.n)
    if outcome not in (0, 1):
        raise ValueError(f"outcome {outcome!r} is not 0 or 1")
    t = state.amps.reshape(1 << qubit, 2, -1).copy()
    t[:, 1 - outcome, :] = 0.0
    flat = t.reshape(-1)
    nrm = np.linalg.norm(flat)
    if nrm < CORRUPT_NORM:
        raise ValueError(f"outcome {outcome} on qubit {qubit} has zero probability")
    flat /= nrm
    return _state(flat, state.n)


def measure_qubit(state: StateVector, qubit: int, rng: RandomSource) -> tuple[int, StateVector]:
    """Projective z-measurement of one qubit.

    Draws exactly one uniform variate; the outcome is 1 iff it falls below
    the Born probability of |1>. Returns the renormalized collapsed state.
    """
    _check_qubit(qubit, state.n)
    amps = state.amps
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if math.sqrt(nrm2) < CORRUPT_NORM:
        raise ValueError("state norm below 1e-9: corrupt input")
    p1 = float(np.sum(np.abs(amps.reshape(1 << qubit, 2, -1)[:, 1, :]) ** 2)) / nrm2
    outcome = 1 if rng.random() < p1 else 0
    return outcome, project_qubit(state, qubit, outcome)


def reset_qubit(state: StateVector, qubit: int, rng: RandomSource) -> StateVector:
    """Strict reset: measure, then flip to |0> if the outcome was 1."""
    outcome, collapsed = measure_qubit(state, qubit, rng)
    if outcome == 1:
        collapsed = apply_1q(collapsed, GATE_X, qubit)
    return collapsed


def reduced_density(state: StateVector, qubit: int) -> DensityMatrix2:
    """Partial trace onto one qubit."""
    _check_qubit(qubit, state.n)
    t = state.amps.reshape(1 << qubit, 2, -1)
    rho = DensityMatrix2.__new__(DensityMatrix2)
    rho.mat = np.einsum("iaj,ibj->ab", t, t.conj())
    return rho


def fidelity(target: PureQubit, rho: DensityMatrix2) -> float:
    """<psi| rho |psi>, clamped to [0, 1] against rounding."""
    v = np.array([target.alpha, target.beta], dtype=complex)
    f = float(np.real(v.conj() @ rho.mat @ v))
    return min(1.0, max(0.0, f))


def dump_state(state: StateVector) -> str:
    """Debug dump: one line per index, `index<TAB>ket-bits<TAB>re<TAB>im`."""
    n = state.n
    lines = []
    for i, amp in enumerate(state.amps):
        bits = format(i, f"0{n}b")
        lines.append(f"{i}\t{bits}\t{amp.real:.17g}\t{amp.imag:.17g}")
    return "\n".join(lines) + "\n"

