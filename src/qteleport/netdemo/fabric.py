"""Entanglement-fabric broker: owns each session's joint statevector and
enforces locality (a client may only drive qubits it owns).

Sessions keep at most one in-flight 3-qubit register: a measured or reset
qubit collapses to a basis state, is recorded, and its axis is dropped, so
arbitrarily many payload qubits stream through one session.

For simplified-protocol sessions the pair-internal CNOT is not local to
either party, so the fabric applies it itself while embedding the payload
(entanglement distribution with embedding); ownership is assigned only
afterwards, which keeps the locality audit meaningful.

Per-qubit commands arrive one per request or as the ops of a BATCH, which
runs them in order under the session lock and stops at the first error.
In a batch op, a `qubit` or `qubits` value `"$k.field"` stands for `field`
of the reply to op k of the same batch.
"""
from __future__ import annotations

import os
import random
import re
import socketserver
import threading

import numpy as np

from ..core import (
    GATES,
    StateVector,
    apply_1q,
    apply_cnot,
    measure_qubit,
    reduced_density,
    tensor,
)
from ..protocols import NoisyEprParams, balanced_epr, noisy_epr
from ..seeding import derive_seed
from .framing import recv_msg, send_msg

ENV_SEED = "QTELEPORT_SEED"


class FabricError(Exception):
    """Raised by session handlers; reported to the client as an error reply."""


class Session:
    """One protocol session: joint state, ownership ledger, seeded rng."""

    def __init__(self, session_id: int, protocol: str, noise_a: float | None, seed: int):
        if protocol not in ("standard", "simplified"):
            raise FabricError(f"unknown protocol {protocol!r}")
        if noise_a is not None and not 0.0 < noise_a <= 1.0:
            raise FabricError(f"noise amplitude {noise_a} outside (0, 1]")
        self.session_id = session_id
        self.protocol = protocol
        self.noise_a = noise_a
        self.rng = random.Random(seed)
        self.state: StateVector | None = None
        self.handles: list[int] = []  # live handles in axis order
        self.owner: dict[int, str] = {}
        self.retired: dict[int, int] = {}
        self.pending_pair: tuple[int, int] | None = None
        self._next_handle = 0
        self.lock = threading.Lock()

    # -- register plumbing -------------------------------------------------

    def _new_handle(self) -> int:
        h = self._next_handle
        self._next_handle += 1
        return h

    def _extend(self, piece: StateVector, count: int) -> list[int]:
        self.state = piece if self.state is None else tensor(self.state, piece)
        new = [self._new_handle() for _ in range(count)]
        self.handles.extend(new)
        return new

    def _axis(self, handle: int) -> int:
        try:
            return self.handles.index(handle)
        except ValueError:
            raise FabricError(f"unknown or retired qubit {handle}") from None

    def _retire(self, handle: int, value: int) -> None:
        axis = self._axis(handle)
        assert self.state is not None
        n = self.state.n
        if n == 1:
            self.state = None
        else:
            t = self.state.amps.reshape([2] * n)
            self.state = StateVector(np.take(t, value, axis=axis).reshape(-1), copy=True)
        self.handles.remove(handle)
        self.retired[handle] = value  # the owner entry stays: re-reads are local too

    def _check_owner(self, role: str, handles) -> None:
        for h in handles:
            if self.owner.get(h) != role:
                raise FabricError(
                    f"locality violation: {role} does not own qubit {h}"
                )

    # -- commands ----------------------------------------------------------

    def epr_state(self) -> StateVector:
        if self.noise_a is None:
            return balanced_epr()
        return noisy_epr(NoisyEprParams.from_a(self.noise_a))

    def alloc_epr(self, role: str) -> dict:
        q0, q1 = self._extend(self.epr_state(), 2)
        if self.protocol == "simplified":
            # Both halves end up on Alice's side; she blocks them by reset.
            self.owner[q0] = "alice"
            self.owner[q1] = "alice"
            self.pending_pair = (q0, q1)
        else:
            self.owner[q0] = "alice"
            self.owner[q1] = "bob"
        return {"type": "EPR", "q_alice": q0, "q_bob": q1}

    def alloc_qubit(self, role: str, alpha: complex, beta: complex) -> dict:
        if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-9:  # NaN fails too
            raise FabricError("payload amplitudes are not normalized")
        (q,) = self._extend(StateVector([alpha, beta]), 1)
        if self.protocol == "simplified":
            if self.pending_pair is None:
                raise FabricError("no pair awaiting embedding")
            p0, p1 = self.pending_pair
            assert self.state is not None
            self.state = apply_cnot(self.state, self._axis(p0), self._axis(p1))
            self.pending_pair = None
            self.owner[q] = "bob"  # delivery slot
        else:
            self.owner[q] = role
        return {"type": "QUBIT", "q": q}

    def apply_gate(self, role: str, gate: str, qubits) -> dict:
        if self.state is None:
            raise FabricError("no live qubits")
        self._check_owner(role, qubits)
        if gate == "CNOT":
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise FabricError("CNOT takes two distinct qubits")
            self.state = apply_cnot(self.state, self._axis(qubits[0]), self._axis(qubits[1]))
        elif isinstance(gate, str) and gate in GATES and gate != "I":
            if len(qubits) != 1:
                raise FabricError(f"{gate} takes exactly one qubit")
            self.state = apply_1q(self.state, GATES[gate], self._axis(qubits[0]))
        else:
            raise FabricError(f"unknown gate {gate!r}")
        return {"type": "OK"}

    def measure(self, role: str, handle: int) -> dict:
        self._check_owner(role, [handle])
        if handle in self.retired:
            # Re-reading a collapsed qubit is deterministic.
            return {"type": "RESULT", "bit": self.retired[handle]}
        assert self.state is not None
        bit, self.state = measure_qubit(self.state, self._axis(handle), self.rng)
        self._retire(handle, bit)
        return {"type": "RESULT", "bit": bit}

    def reset(self, role: str, handle: int) -> dict:
        self._check_owner(role, [handle])
        if handle in self.retired:
            raise FabricError(f"qubit {handle} already retired")
        assert self.state is not None
        bit, self.state = measure_qubit(self.state, self._axis(handle), self.rng)
        # measure-then-flip; the retired record is |0> either way
        self._retire(handle, bit)
        self.retired[handle] = 0
        return {"type": "OK"}

    def read_rho(self, handle: int) -> dict:
        if handle in self.retired:
            bit = self.retired[handle]
            rho = np.zeros((2, 2), dtype=complex)
            rho[bit, bit] = 1.0
        else:
            assert self.state is not None
            rho = reduced_density(self.state, self._axis(handle)).mat
        flat = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        return {"type": "RHO", "rho": flat}


SESSION_COMMANDS = ("ALLOC_EPR", "ALLOC_QUBIT", "APPLY", "MEASURE", "RESET", "READ_RHO")

# "$k.field": `field` of the reply to op k of the same batch.
_REFERENCE = re.compile(r"\$(\d+)\.(\w+)")


def _batch_op(op, replies: list[dict]) -> dict:
    """Validate one batch op and resolve its `$k.field` references."""
    if not isinstance(op, dict):
        raise FabricError(f"batch op {op!r} is not an object")
    if "session" in op:
        raise FabricError("batch ops take their session from the BATCH")
    if "qubit" in op:
        op = dict(op, qubit=_resolve(op["qubit"], replies))
    if isinstance(op.get("qubits"), list):
        op = dict(op, qubits=[_resolve(q, replies) for q in op["qubits"]])
    return op


def _resolve(value, replies: list[dict]):
    if not (isinstance(value, str) and value.startswith("$")):
        return value
    match = _REFERENCE.fullmatch(value)
    if match is None:
        raise FabricError(f"malformed reference {value!r}")
    k, name = int(match[1]), match[2]
    if k >= len(replies):
        raise FabricError(f"reference {value!r} to an op that has not run")
    if name not in replies[k]:
        raise FabricError(f"reference {value!r}: reply {k} has no {name!r}")
    return replies[k][name]


def _as_handle(value) -> int:
    if type(value) is not int:  # bool is an int subclass, and no handle
        raise FabricError(f"qubit handle {value!r} is not an integer")
    return value


def _amplitude(msg: dict, name: str) -> complex:
    parts = (msg.get(f"{name}_re", 0.0), msg.get(f"{name}_im", 0.0))
    if any(type(x) not in (int, float) for x in parts):
        raise FabricError(f"{name} amplitude is not numeric")
    return complex(*parts)


def _run_batch(session: Session, role: str, ops) -> dict:
    """Run per-qubit commands in order under one session lock, stopping at
    the first error."""
    if not isinstance(ops, list) or not ops:
        raise FabricError("BATCH needs a non-empty list of ops")
    replies: list[dict] = []
    with session.lock:
        for op in ops:
            try:
                replies.append(_run(session, role, _batch_op(op, replies)))
            except FabricError as exc:
                replies.append({"type": "ERROR", "error": f"op {len(replies)}: {exc}"})
                break
    return {"type": "BATCH", "replies": replies}


def _run(session: Session, role: str, msg: dict) -> dict:
    """Dispatch one per-qubit command; the caller holds `session.lock`."""
    mtype = msg.get("type")
    if mtype == "ALLOC_EPR":
        return session.alloc_epr(role)
    if mtype == "ALLOC_QUBIT":
        return session.alloc_qubit(role, _amplitude(msg, "alpha"), _amplitude(msg, "beta"))
    if mtype == "APPLY":
        qubits = msg.get("qubits", [])
        if not isinstance(qubits, list):
            raise FabricError("APPLY qubits must be a list")
        return session.apply_gate(role, msg.get("gate"), [_as_handle(q) for q in qubits])
    if mtype == "MEASURE":
        return session.measure(role, _as_handle(msg.get("qubit")))
    if mtype == "RESET":
        return session.reset(role, _as_handle(msg.get("qubit")))
    if mtype == "READ_RHO":
        return session.read_rho(_as_handle(msg.get("qubit")))
    raise FabricError(f"unknown message type {mtype!r}")


class Fabric:
    """Session registry plus the request dispatcher."""

    def __init__(self, master_seed: int | None = None):
        if master_seed is None:
            env = os.environ.get(ENV_SEED)
            master_seed = int(env) if env else int.from_bytes(os.urandom(8), "big") >> 2
        self.master_seed = master_seed
        self.sessions: dict[int, Session] = {}
        self._next_session = 0
        self._lock = threading.Lock()

    def new_session(self, protocol: str, noise_a: float | None) -> Session:
        with self._lock:
            sid = self._next_session
            self._next_session += 1
        session = Session(sid, protocol, noise_a, derive_seed(self.master_seed, "session", sid))
        with self._lock:
            self.sessions[sid] = session
        return session

    def _session(self, msg: dict) -> Session:
        sid = msg.get("session")
        with self._lock:
            session = self.sessions.get(sid)
        if session is None:
            raise FabricError(f"unknown session {sid!r}")
        return session

    def handle(self, msg: dict, conn: dict) -> dict:
        """Process one request; always returns exactly one reply object."""
        try:
            mtype = msg.get("type")
            if mtype == "HELLO":
                role = msg.get("role")
                if role not in ("alice", "bob"):
                    raise FabricError(f"unknown role {role!r}")
                conn["role"] = role
                return {"type": "WELCOME"}
            if mtype == "BYE":
                conn["done"] = True
                return {"type": "BYE"}
            role = conn.get("role")
            if role is None:
                raise FabricError("HELLO required before other commands")
            if mtype == "NEW_SESSION":
                session = self.new_session(msg.get("protocol"), msg.get("noise_A"))
                return {"type": "SESSION", "session": session.session_id}
            if mtype == "BATCH":
                return _run_batch(self._session(msg), role, msg.get("ops"))
            if mtype not in SESSION_COMMANDS:
                raise FabricError(f"unknown message type {mtype!r}")
            session = self._session(msg)
            with session.lock:
                return _run(session, role, msg)
        except FabricError as exc:
            return {"type": "ERROR", "error": str(exc)}
        except Exception as exc:  # keep the connection alive on bad input
            return {"type": "ERROR", "error": f"internal: {exc}"}


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        conn: dict = {}
        fabric: Fabric = self.server.fabric  # type: ignore[attr-defined]
        while not conn.get("done"):
            try:
                msg = recv_msg(self.request)
            except Exception:
                break
            if msg is None:
                break
            send_msg(self.request, fabric.handle(msg, conn))


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class FabricServer:
    """TCP front end; `start()` serves on a background thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, master_seed: int | None = None):
        self.fabric = Fabric(master_seed)
        self._server = _Server((host, port), _Handler)
        self._server.fabric = self.fabric  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "FabricServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()

