"""Statevector simulation of quantum teleportation, superdense-coding
interfaces, and a complete digital-image teleportation pipeline."""

__version__ = "0.16.0"

from .core import (  # noqa: F401
    GATE_H,
    GATE_I,
    GATE_X,
    GATE_Z,
    DensityMatrix2,
    Gate1Q,
    PureQubit,
    StateVector,
    apply_1q,
    apply_cnot,
    dump_state,
    fidelity,
    ket_from_bloch,
    make_cbs,
    measure_qubit,
    project_qubit,
    reduced_density,
    reset_qubit,
    tensor,
)
