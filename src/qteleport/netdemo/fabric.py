"""Entanglement-fabric broker: owns each session's joint statevector and
enforces locality (a client may only drive qubits it owns).

A role is bound per session, not taken on the client's word: the connection
that creates a session, or first acts in it as a role, holds that role
there, and no other connection may act as it in that session. A session
lives until the last connection bound to it leaves, by BYE, by disconnect
or by sending nothing for IDLE_TIMEOUT seconds; then it is freed.

The fabric holds no circuit. It allocates pairs and payload qubits, gives
each the owner its session's protocol names in `OWNERS`, and runs the
gates, measurements and resets those owners send; the per-bit circuits
live in the clients.

A session holds at most one bit's 3-qubit register: a measured or reset
qubit collapses to a basis state and its axis is dropped, so arbitrarily
many payload qubits stream through one session. A retired qubit keeps its
owner, so another party touching it is still a locality violation.

Per-qubit commands run only as the ops of a BATCH, in order under the
session lock, stopping at the first error. In a batch op, a `qubit` or
`qubits` value `"$k.field"` stands for `field` of the reply to op k of the
same batch.
"""
from __future__ import annotations

import math
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
MAX_LIVE_QUBITS = 3  # one bit's register
# Seconds a connection may send nothing, even mid-frame, before it is
# dropped; matches the clients' IO_TIMEOUT.
IDLE_TIMEOUT = 60.0

# Owners of what a session allocates: the pair halves (q_alice, q_bob), then
# the payload. In the simplified protocol Alice holds both pair halves and
# blocks them by reset; the payload is Bob's delivery qubit.
OWNERS = {
    "standard": (("alice", "bob"), "alice"),
    "simplified": (("alice", "alice"), "bob"),
}


class FabricError(Exception):
    """Raised by session handlers; reported to the client as an error reply."""


class Session:
    """One protocol session: joint state, ownership ledger, seeded rng."""

    def __init__(self, session_id: int, protocol: str, noise_a: float | None, seed: int):
        if type(protocol) is not str or protocol not in OWNERS:
            raise FabricError(f"unknown protocol {protocol!r}")
        if noise_a is not None and (
            type(noise_a) not in (int, float) or not 0.0 < noise_a <= 1.0
        ):
            raise FabricError(f"noise amplitude {noise_a!r} is not a number in (0, 1]")
        self.session_id = session_id
        self.pair_owners, self.payload_owner = OWNERS[protocol]
        # States are values, so every ALLOC_EPR can tensor in this one pair.
        self.pair = balanced_epr() if noise_a is None else noisy_epr(NoisyEprParams.from_a(noise_a))
        self.rng = random.Random(seed)
        self.state: StateVector | None = None
        self.handles: list[int] = []  # live handles in axis order
        self.owner: dict[int, str] = {}  # retired handles keep their entry
        self.parties: dict[str, dict] = {}  # role -> the connection holding it
        self.ended = False  # the last party left; nobody may bind again
        self._next_handle = 0
        self.lock = threading.Lock()

    def bind(self, role: str, conn: dict) -> None:
        """Let `conn` act as `role` here, binding the role to it if no
        connection holds it yet. A connection holds one role per session."""
        with self.lock:
            if self.ended:
                raise FabricError(f"unknown session {self.session_id!r}")
            holder = self.parties.get(role)
            if holder is None and not any(c is conn for c in self.parties.values()):
                self.parties[role] = holder = conn
                conn.setdefault("sessions", []).append(self)
            if holder is not conn:
                raise FabricError(
                    f"locality violation: this connection may not act as {role} "
                    f"in session {self.session_id}"
                )

    def unbind(self, conn: dict) -> bool:
        """Release `conn`'s role here. Returns True when no party is left,
        which ends the session."""
        with self.lock:
            self.parties = {r: c for r, c in self.parties.items() if c is not conn}
            self.ended = not self.parties
            return self.ended

    # -- register plumbing -------------------------------------------------

    def _extend(self, piece: StateVector, owners) -> list[int]:
        if len(self.handles) + len(owners) > MAX_LIVE_QUBITS:
            raise FabricError(f"a session holds at most {MAX_LIVE_QUBITS} live qubits")
        self.state = piece if self.state is None else tensor(self.state, piece)
        new = list(range(self._next_handle, self._next_handle + len(owners)))
        self._next_handle += len(owners)
        self.handles.extend(new)
        self.owner.update(zip(new, owners))
        return new

    def _axis(self, handle: int) -> int:
        try:
            return self.handles.index(handle)
        except ValueError:
            raise FabricError(f"unknown or retired qubit {handle}") from None

    def _check_owner(self, role: str, handles) -> None:
        for h in handles:
            if self.owner.get(h) != role:
                raise FabricError(
                    f"locality violation: {role} does not own qubit {h}"
                )

    # -- commands ----------------------------------------------------------

    def alloc_epr(self) -> dict:
        q0, q1 = self._extend(self.pair, self.pair_owners)
        return {"type": "EPR", "q_alice": q0, "q_bob": q1}

    def alloc_qubit(self, alpha: complex, beta: complex) -> dict:
        norm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)  # never overflows
        if not abs(norm * norm - 1.0) <= 1e-9:  # NaN fails too
            raise FabricError("payload amplitudes are not normalized")
        (q,) = self._extend(StateVector([alpha, beta]), [self.payload_owner])
        return {"type": "QUBIT", "q": q}

    def apply_gate(self, role: str, gate: str, qubits) -> dict:
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

    def measure(self, role: str, handle: int) -> int:
        """Measure a qubit and drop its axis; a reset is the same draw, since
        the flip to |0> would only touch the axis that is dropped."""
        self._check_owner(role, [handle])
        axis = self._axis(handle)
        bit, collapsed = measure_qubit(self.state, axis, self.rng)
        if collapsed.n == 1:
            self.state = None
        else:
            t = collapsed.amps.reshape([2] * collapsed.n)
            self.state = StateVector(np.take(t, bit, axis=axis))
        self.handles.remove(handle)
        return bit

    def read_rho(self, role: str, handle: int) -> dict:
        self._check_owner(role, [handle])
        rho = reduced_density(self.state, self._axis(handle)).mat
        flat = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        return {"type": "RHO", "rho": flat}


# "$k.field": `field` of the reply to op k of the same batch.
_REFERENCE = re.compile(r"\$(\d+)\.(\w+)")


def _qubit_handle(value, replies: list[dict]) -> int:
    """The qubit handle `value` names: an integer, or a `$k.field` reference
    into the replies of the ops that ran before it."""
    if isinstance(value, str) and value.startswith("$"):
        match = _REFERENCE.fullmatch(value)
        if match is None:
            raise FabricError(f"malformed reference {value!r}")
        k, name = int(match[1]), match[2]
        if k >= len(replies):
            raise FabricError(f"reference {value!r} to an op that has not run")
        if name not in replies[k]:
            raise FabricError(f"reference {value!r}: reply {k} has no {name!r}")
        value = replies[k][name]
    if type(value) is not int:  # bool is an int subclass, and no handle
        raise FabricError(f"qubit handle {value!r} is not an integer")
    return value


def _amplitude(msg: dict, name: str) -> complex:
    parts = (msg.get(f"{name}_re", 0.0), msg.get(f"{name}_im", 0.0))
    if any(type(x) not in (int, float) for x in parts):
        raise FabricError(f"{name} amplitude is not numeric")
    try:
        return complex(*parts)
    except OverflowError:  # JSON integers have no size limit
        raise FabricError(f"{name} amplitude is out of range") from None


def _run_batch(session: Session, role: str, ops) -> dict:
    """Run per-qubit commands in order under one session lock, stopping at
    the first error."""
    if not isinstance(ops, list) or not ops:
        raise FabricError("BATCH needs a non-empty list of ops")
    replies: list[dict] = []
    with session.lock:
        for op in ops:
            try:
                replies.append(_run(session, role, op, replies))
            except FabricError as exc:
                replies.append({"type": "ERROR", "error": f"op {len(replies)}: {exc}"})
                break
    return {"type": "BATCH", "replies": replies}


def _run(session: Session, role: str, msg, replies: list[dict]) -> dict:
    """Dispatch one batch op after the `replies` of the ops before it; the
    caller holds `session.lock`."""
    if not isinstance(msg, dict):
        raise FabricError(f"batch op {msg!r} is not an object")
    if "session" in msg:
        raise FabricError("batch ops take their session from the BATCH")
    mtype = msg.get("type")
    if mtype == "ALLOC_EPR":
        return session.alloc_epr()
    if mtype == "ALLOC_QUBIT":
        return session.alloc_qubit(_amplitude(msg, "alpha"), _amplitude(msg, "beta"))
    if mtype == "APPLY":
        qubits = msg.get("qubits", [])
        if not isinstance(qubits, list):
            raise FabricError("APPLY qubits must be a list")
        handles = [_qubit_handle(q, replies) for q in qubits]
        return session.apply_gate(role, msg.get("gate"), handles)
    if mtype == "MEASURE":
        bit = session.measure(role, _qubit_handle(msg.get("qubit"), replies))
        return {"type": "RESULT", "bit": bit}
    if mtype == "RESET":
        session.measure(role, _qubit_handle(msg.get("qubit"), replies))
        return {"type": "OK"}
    if mtype == "READ_RHO":
        return session.read_rho(role, _qubit_handle(msg.get("qubit"), replies))
    raise FabricError(f"unknown op type {mtype!r}")


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

    def new_session(self, protocol: str, noise_a: float | None, role: str, conn: dict) -> Session:
        """Create a session whose `role` is held by `conn`, its creator."""
        with self._lock:
            sid = self._next_session
            session = Session(sid, protocol, noise_a, derive_seed(self.master_seed, "session", sid))
            session.bind(role, conn)
            self.sessions[sid] = session
            self._next_session += 1  # only once the session is valid
        return session

    def leave(self, conn: dict) -> None:
        """Unbind a departing connection and free every session it was the
        last party of. Session ids are never reused, so neither are seeds."""
        for session in conn.pop("sessions", ()):
            if session.unbind(conn):
                with self._lock:
                    del self.sessions[session.session_id]

    def _session(self, msg: dict) -> Session:
        sid = msg.get("session")
        if type(sid) is not int:
            raise FabricError(f"session {sid!r} is not an integer")
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
                self.leave(conn)
                return {"type": "BYE"}
            role = conn.get("role")
            if role is None:
                raise FabricError("HELLO required before other commands")
            if mtype == "NEW_SESSION":
                session = self.new_session(msg.get("protocol"), msg.get("noise_A"), role, conn)
                return {"type": "SESSION", "session": session.session_id}
            if mtype == "BATCH":
                session = self._session(msg)
                session.bind(role, conn)
                return _run_batch(session, role, msg.get("ops"))
            raise FabricError(f"unknown message type {mtype!r}")
        except FabricError as exc:
            return {"type": "ERROR", "error": str(exc)}
        except Exception as exc:  # keep the connection alive on bad input
            return {"type": "ERROR", "error": f"internal: {exc}"}


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        conn: dict = {}
        fabric: Fabric = self.server.fabric  # type: ignore[attr-defined]
        self.request.settimeout(IDLE_TIMEOUT)
        try:
            while not conn.get("done"):
                try:
                    msg = recv_msg(self.request)
                except Exception:  # includes the idle timeout
                    break
                if msg is None:
                    break
                send_msg(self.request, fabric.handle(msg, conn))
        finally:
            fabric.leave(conn)


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

