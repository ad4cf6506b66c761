"""Dense statevector engine for small qubit registers, in plain Python.

Index convention: qubit 0 is the most significant index bit, so the basis
ket |q0 q1 ... q_{n-1}> sits at index sum(q_k * 2**(n-1-k)). Every module
in this package relies on that layout. A state's `amps` is a flat list of
Python complex numbers; a 2x2 matrix (`Gate1Q.matrix`, `DensityMatrix2.mat`,
`PureQubit.projector()`) is a tuple of two row tuples. States are values:
operations return new states and never mutate their inputs.

A state is checked once, where it enters the engine: the public
constructors (`StateVector`, `DensityMatrix2`, `PureQubit`, `Gate1Q`) and
`make_cbs` reject malformed input. Ops (`tensor`, `apply_1q`, `apply_cnot`,
`project_qubit` and the measurements built on it, `drop_qubit`,
`reduced_density`) return their results unchecked, because they cannot make
an invalid state out of valid ones: gates are checked unitary when built,
CNOT permutes amplitudes, the Kronecker product of unit vectors is a unit
vector, a collapse renormalizes and refuses a zero-norm branch, and
`drop_qubit` refuses a qubit whose other half holds an amplitude above
`CORRUPT_NORM`, which leaves the kept half of a unit state within
2**(n-1) * 1e-18 of unit norm. Ops still check their qubit indices and
`tensor` its qubit limit. `measure_qubit` guards against a corrupt norm,
the one way a caller who mutates `.amps` in place can reach an op.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

MAX_QUBITS = 10  # no program path holds more than 3
NORM_TOL = 1e-12
# Norm this far below 1 signals a logic bug upstream, not rounding drift.
CORRUPT_NORM = 1e-9

SQRT2_INV = 1.0 / math.sqrt(2.0)

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


class RandomSource(Protocol):
    """Anything with .random() -> float in [0, 1). random.Random and
    numpy Generators both qualify."""

    def random(self) -> float: ...


def _norm(amps: Iterable[complex]) -> float:
    """Euclidean norm, safe from overflow. A list, unlike an iterator,
    unpacks into an exact-size tuple that CPython's tuple free list reuses."""
    return math.hypot(*[abs(z) for z in amps])


def _matrix2(rows, what: str) -> Matrix2:
    """A 2x2 matrix of finite complex entries, as a tuple of row tuples."""
    m = tuple(tuple(complex(z) for z in row) for row in rows)
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError(f"{what} must be 2x2")
    if not all(math.isfinite(x) for row in m for z in row for x in (z.real, z.imag)):
        raise ValueError(f"{what} has a non-finite entry")
    return m


class StateVector:
    """Normalized complex amplitude vector over n qubits (1 <= n <= 10)."""

    __slots__ = ("n", "amps")

    def __init__(self, amps: Sequence[complex]):
        a = [complex(z) for z in amps]
        n = len(a).bit_length() - 1
        if n < 1 or len(a) != (1 << n):
            raise ValueError(f"amplitude count {len(a)} is not a power of two >= 2")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in a):
            raise ValueError("non-finite amplitude")
        nrm = _norm(a)
        if abs(nrm - 1.0) > CORRUPT_NORM:
            raise ValueError(f"state norm {nrm} is not 1")
        self.n = n
        self.amps = a

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateVector(n={self.n}, amps={self.amps!r})"


def _state(amps: list[complex], n: int) -> StateVector:
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

    def projector(self) -> Matrix2:
        v = (complex(self.alpha), complex(self.beta))
        return tuple(tuple(x * y.conjugate() for y in v) for x in v)


@dataclass(frozen=True)
class Gate1Q:
    """Named single-qubit gate with its 2x2 unitary."""

    name: str
    matrix: Matrix2

    def __post_init__(self):
        m = _matrix2(self.matrix, f"gate {self.name} matrix")
        (a, b), (c, d) = m
        # m m^dagger - I has these two diagonal entries, and `off` and its conjugate.
        diagonal = (abs(a) ** 2 + abs(b) ** 2 - 1.0, abs(c) ** 2 + abs(d) ** 2 - 1.0)
        off = a * c.conjugate() + b * d.conjugate()
        if max(*map(abs, diagonal), abs(off)) > NORM_TOL:
            raise ValueError(f"gate {self.name} is not unitary")
        object.__setattr__(self, "matrix", m)


GATE_I = Gate1Q("I", ((1, 0), (0, 1)))
GATE_H = Gate1Q("H", ((SQRT2_INV, SQRT2_INV), (SQRT2_INV, -SQRT2_INV)))
GATE_X = Gate1Q("X", ((0, 1), (1, 0)))
GATE_Z = Gate1Q("Z", ((1, 0), (0, -1)))
GATES = {g.name: g for g in (GATE_I, GATE_H, GATE_X, GATE_Z)}


class DensityMatrix2:
    """2x2 reduced density matrix: Hermitian, unit trace, PSD."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = _matrix2(mat, "density matrix")
        (a, b), (c, d) = m
        if max(2.0 * abs(a.imag), 2.0 * abs(d.imag), abs(b - c.conjugate())) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs((a + d).real - 1.0) > CORRUPT_NORM:
            raise ValueError("density matrix trace is not 1")
        # The smaller eigenvalue of [[a, c*], [c, d]], from the lower triangle.
        smaller = (a.real + d.real) / 2.0 - math.hypot((a.real - d.real) / 2.0, abs(c))
        if smaller < -CORRUPT_NORM:
            raise ValueError("density matrix has a negative eigenvalue")
        self.mat = m

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DensityMatrix2({self.mat!r})"


def _bit(state: StateVector, qubit: int) -> int:
    """The index bit that holds `qubit`."""
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit index {qubit} out of range for {state.n} qubits")
    return 1 << (state.n - 1 - qubit)


def _split(state: StateVector, qubit: int) -> tuple[list[complex], list[complex]]:
    """The amplitudes where `qubit` is 0 and where it is 1, each in index
    order, so the k-th of each differ only in that qubit."""
    bit = _bit(state, qubit)
    halves: tuple[list[complex], list[complex]] = ([], [])
    for i, z in enumerate(state.amps):
        halves[1 if i & bit else 0].append(z)
    return halves


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
    amps = [0j] * (1 << len(bits))
    amps[idx] = 1 + 0j
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
    return _state([x * y for x in a.amps for y in b.amps], a.n + b.n)


def apply_1q(state: StateVector, gate: Gate1Q, qubit: int) -> StateVector:
    """Apply a single-qubit gate to the given qubit."""
    bit = _bit(state, qubit)
    (m00, m01), (m10, m11) = gate.matrix
    a = state.amps
    out = [
        m10 * a[i ^ bit] + m11 * z if i & bit else m00 * z + m01 * a[i ^ bit]
        for i, z in enumerate(a)
    ]
    return _state(out, state.n)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on every component whose control bit is 1."""
    c, t = _bit(state, control), _bit(state, target)
    if c == t:
        raise ValueError("control and target must differ")
    a = state.amps
    return _state([a[i ^ t] if i & c else a[i] for i in range(len(a))], state.n)


def project_qubit(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Collapse one qubit onto the z-basis `outcome` and renormalize.
    Raises on a branch of zero norm."""
    bit = _bit(state, qubit)
    if outcome not in (0, 1):
        raise ValueError(f"outcome {outcome!r} is not 0 or 1")
    kept = bit if outcome else 0
    nrm = _norm(z for i, z in enumerate(state.amps) if i & bit == kept)
    if nrm < CORRUPT_NORM:
        raise ValueError(f"outcome {outcome} on qubit {qubit} has zero probability")
    out = [z / nrm if i & bit == kept else 0j for i, z in enumerate(state.amps)]
    return _state(out, state.n)


def measure_qubit(state: StateVector, qubit: int, rng: RandomSource) -> tuple[int, StateVector]:
    """Projective z-measurement of one qubit.

    Draws exactly one uniform variate; the outcome is 1 iff it falls below
    the Born probability of |1>. Returns the renormalized collapsed state.
    """
    nrm = _norm(state.amps)
    if nrm < CORRUPT_NORM:
        raise ValueError("state norm below 1e-9: corrupt input")
    p1 = (_norm(_split(state, qubit)[1]) / nrm) ** 2
    outcome = 1 if rng.random() < p1 else 0
    return outcome, project_qubit(state, qubit, outcome)


def reset_qubit(state: StateVector, qubit: int, rng: RandomSource) -> StateVector:
    """Strict reset: measure, then flip to |0> if the outcome was 1."""
    outcome, collapsed = measure_qubit(state, qubit, rng)
    if outcome == 1:
        collapsed = apply_1q(collapsed, GATE_X, qubit)
    return collapsed


def drop_qubit(state: StateVector, qubit: int, value: int) -> StateVector:
    """The register left when `qubit`, which must be in the basis state
    |value>, is removed."""
    if state.n < 2:
        raise ValueError("dropping the only qubit leaves no register")
    halves = _split(state, qubit)
    if value not in (0, 1):
        raise ValueError(f"value {value!r} is not 0 or 1")
    if any(abs(z) > CORRUPT_NORM for z in halves[1 - value]):
        raise ValueError(f"qubit {qubit} is not |{value}>")
    return _state(halves[value], state.n - 1)


def reduced_density(state: StateVector, qubit: int) -> DensityMatrix2:
    """Partial trace onto one qubit."""
    halves = _split(state, qubit)
    rho = DensityMatrix2.__new__(DensityMatrix2)
    rho.mat = tuple(
        tuple(sum(x * y.conjugate() for x, y in zip(halves[r], halves[c])) for c in (0, 1))
        for r in (0, 1)
    )
    return rho


def fidelity(target: PureQubit, rho: DensityMatrix2) -> float:
    """<psi| rho |psi>, clamped to [0, 1] against rounding."""
    v = (complex(target.alpha), complex(target.beta))
    f = sum(v[r].conjugate() * rho.mat[r][c] * v[c] for r in (0, 1) for c in (0, 1)).real
    return min(1.0, max(0.0, f))


def dump_state(state: StateVector) -> str:
    """Debug dump: one line per index, `index<TAB>ket-bits<TAB>re<TAB>im`."""
    n = state.n
    lines = []
    for i, amp in enumerate(state.amps):
        bits = format(i, f"0{n}b")
        lines.append(f"{i}\t{bits}\t{amp.real:.17g}\t{amp.imag:.17g}")
    return "\n".join(lines) + "\n"
