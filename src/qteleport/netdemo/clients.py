"""Alice and Bob protocol clients.

Alice drives the fabric through the same per-bit circuits as the in-process
protocols and signals Bob over a direct peer link. That link carries
control-plane coordination (session info, per-qubit READY, ACK) plus, for
the standard protocol only, one CLASSICAL message with the two
disambiguation payload bits per teleported qubit. The fabric never sees
classical traffic; the audit counts CLASSICAL payloads alone, which is
exactly where the two protocols differ.

The clients hold the circuits and the fabric holds none: it runs the ops
they send, including the pair CNOT that Alice applies herself in the
simplified protocol. Each party sends the fabric one BATCH per bit. Alice's
batch keeps the command order of `protocols.teleport_bit`, and Bob's
follows it, so a fabric seeded like an in-process run reproduces its bits
draw for draw.

Transcripts hold `TranscriptEntry` records, which keep each message as the
JSON body that crossed the wire, plus plain-dict `event` entries for aborts.
"""
from __future__ import annotations

import socket
from collections.abc import Mapping
from dataclasses import dataclass, field

from .framing import decode_body, recv_body, send_msg

# Not called here: the benchmark's traced session (perfbench/netsession.py)
# patches this by name on this module, so it stays importable from it.
from .framing import recv_msg  # noqa: F401

IO_TIMEOUT = 60.0


class SessionAborted(RuntimeError):
    """Connection loss or peer failure; carries the partial transcript."""

    def __init__(self, message: str, transcript: list):
        super().__init__(message)
        self.transcript = transcript


def parse_addr(addr) -> tuple[str, int]:
    """A (host, port) tuple as is, or "HOST:PORT" split at its last colon;
    an empty host is 127.0.0.1."""
    if isinstance(addr, tuple):
        return addr
    host, _, port = str(addr).rpartition(":")
    return (host or "127.0.0.1", int(port))


class TranscriptEntry(Mapping):
    """One recorded message, read like `{"link", "dir", "msg"}`.

    Only the message's encoded JSON body is kept: `e["msg"]` decodes it on
    every access and caches nothing, so a transcript stays about as large as
    its wire bytes. `in`, `len` and iteration never decode.
    """

    __slots__ = ("_link", "_dir", "_body")
    _KEYS = ("link", "dir", "msg")

    def __init__(self, link: str, direction: str, body: bytes):
        self._link = link
        self._dir = direction
        self._body = body

    def __getitem__(self, key):
        if key == "msg":
            return decode_body(self._body)
        if key == "link":
            return self._link
        if key == "dir":
            return self._dir
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        return key in self._KEYS

    def __iter__(self):
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)

    def __repr__(self) -> str:
        return f"TranscriptEntry({self._link!r}, {self._dir!r}, {self._body!r})"


class _Link:
    """Socket wrapper that records every message into a transcript."""

    def __init__(self, sock: socket.socket, name: str, transcript: list):
        sock.settimeout(IO_TIMEOUT)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Alice's READY and CLASSICAL are two small writes; under Nagle the
            # second waits for the peer's delayed ACK of the first, ~40 ms
            # (RFC 896, RFC 1122 4.2.3.2).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.name = name
        self.transcript = transcript

    def send(self, msg: dict) -> None:
        try:
            body = send_msg(self.sock, msg)
        except OSError as exc:
            self.transcript.append({"event": "aborted", "link": self.name, "reason": str(exc)})
            raise SessionAborted(f"{self.name} link lost: {exc}", self.transcript) from exc
        self.transcript.append(TranscriptEntry(self.name, "send", body))

    def recv(self) -> dict:
        try:
            body = recv_body(self.sock)
        except OSError as exc:
            self.transcript.append({"event": "aborted", "link": self.name, "reason": str(exc)})
            raise SessionAborted(f"{self.name} link lost: {exc}", self.transcript) from exc
        if body is None:
            self.transcript.append({"event": "aborted", "link": self.name, "reason": "closed"})
            raise SessionAborted(f"{self.name} link closed early", self.transcript)
        msg = decode_body(body)
        self.transcript.append(TranscriptEntry(self.name, "recv", body))
        return msg

    def request(self, msg: dict) -> dict:
        self.send(msg)
        reply = self.recv()
        if reply.get("type") == "ERROR":
            raise SessionAborted(f"fabric error: {reply.get('error')}", self.transcript)
        return reply

    def batch(self, session: int, ops: list[dict]) -> list[dict]:
        """Run `ops` in one BATCH request; returns one reply per op."""
        replies = self.request({"type": "BATCH", "session": session, "ops": ops})["replies"]
        if replies[-1].get("type") == "ERROR":
            raise SessionAborted(f"fabric error: {replies[-1].get('error')}", self.transcript)
        return replies

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class ClientResult:
    role: str
    session: int
    bits: list[int]
    transcript: list = field(default_factory=list)


def _alice_ops(protocol: str, bit: int) -> list[dict]:
    """Alice's fabric commands for one bit, in `teleport_bit` order: allocate
    the register, CNOT(0->1), H(0), then measure (standard) or reset
    (simplified) qubits 0 and 1."""
    payload = {
        "type": "ALLOC_QUBIT",
        "alpha_re": 1.0 - bit,
        "alpha_im": 0.0,
        "beta_re": float(bit),
        "beta_im": 0.0,
    }
    if protocol == "standard":
        # register [payload, pair]: qubit 1 is Alice's pair half
        alloc = [payload, {"type": "ALLOC_EPR"}]
        q0, q1, collapse = "$0.q", "$1.q_alice", "MEASURE"
    else:
        # register [pair, payload]: qubits 0 and 1 are both Alice's pair halves
        alloc = [{"type": "ALLOC_EPR"}, payload]
        q0, q1, collapse = "$0.q_alice", "$0.q_bob", "RESET"
    return alloc + [
        {"type": "APPLY", "gate": "CNOT", "qubits": [q0, q1]},
        {"type": "APPLY", "gate": "H", "qubits": [q0]},
        {"type": collapse, "qubit": q0},
        {"type": collapse, "qubit": q1},
    ]


def run_alice(fabric_addr, bob_addr, protocol: str, bits, noise_a: float | None = None) -> ClientResult:
    """Teleport a bit sequence; returns the transcript and the sent bits."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    transcript: list = []
    fabric = _Link(socket.create_connection(parse_addr(fabric_addr)), "fabric", transcript)
    peer = _Link(socket.create_connection(parse_addr(bob_addr)), "peer", transcript)
    try:
        fabric.request({"type": "HELLO", "role": "alice"})
        reply = fabric.request(
            {"type": "NEW_SESSION", "protocol": protocol, "noise_A": noise_a}
        )
        session = reply["session"]
        peer.send(
            {"type": "SESSION_INFO", "session": session, "protocol": protocol, "count": len(bits)}
        )
        ops = {b: _alice_ops(protocol, b) for b in (0, 1)}
        for i, bit in enumerate(bits):
            replies = fabric.batch(session, ops[bit])
            if protocol == "standard":
                m0, m1 = replies[4]["bit"], replies[5]["bit"]
                peer.send({"type": "READY", "index": i, "qubit": replies[1]["q_bob"]})
                peer.send({"type": "CLASSICAL", "b1": m1, "b2": m0})
            else:
                peer.send({"type": "READY", "index": i, "qubit": replies[1]["q"]})
            ack = peer.recv()
            if ack.get("type") != "ACK" or ack.get("index") != i:
                raise SessionAborted(f"bad ack for qubit {i}: {ack}", transcript)
        peer.send({"type": "DONE"})
        fabric.request({"type": "BYE"})
        return ClientResult("alice", session, bits, transcript)
    finally:
        fabric.close()
        peer.close()


def run_bob(listener: socket.socket, fabric_addr, protocol: str) -> ClientResult:
    """Receive one session of teleported bits from the first Alice to
    connect to `listener`, a listening socket that stays open: the caller
    binds it, so it knows the port before Bob runs, and closes it."""
    transcript: list = []
    listener.settimeout(IO_TIMEOUT)
    conn, _ = listener.accept()
    peer = _Link(conn, "peer", transcript)
    fabric = _Link(socket.create_connection(parse_addr(fabric_addr)), "fabric", transcript)
    try:
        info = peer.recv()
        if info.get("type") != "SESSION_INFO":
            raise SessionAborted(f"expected SESSION_INFO, got {info}", transcript)
        if info.get("protocol") != protocol:
            raise SessionAborted(
                f"protocol mismatch: peer runs {info.get('protocol')!r}, we run {protocol!r}",
                transcript,
            )
        session = info["session"]
        count = info["count"]
        fabric.request({"type": "HELLO", "role": "bob"})
        received: list[int] = []
        for i in range(count):
            ready = peer.recv()
            if ready.get("type") != "READY" or ready.get("index") != i:
                raise SessionAborted(f"expected READY {i}, got {ready}", transcript)
            qubit = ready["qubit"]
            ops = []
            if protocol == "standard":
                classical = peer.recv()
                if classical.get("type") != "CLASSICAL":
                    raise SessionAborted(f"expected CLASSICAL, got {classical}", transcript)
                if classical["b2"]:
                    ops.append({"type": "APPLY", "gate": "Z", "qubits": [qubit]})
                if classical["b1"]:
                    ops.append({"type": "APPLY", "gate": "X", "qubits": [qubit]})
            ops.append({"type": "MEASURE", "qubit": qubit})
            bit = fabric.batch(session, ops)[-1]["bit"]
            received.append(bit)
            peer.send({"type": "ACK", "index": i})
        done = peer.recv()
        if done.get("type") != "DONE":
            raise SessionAborted(f"expected DONE, got {done}", transcript)
        fabric.request({"type": "BYE"})
        return ClientResult("bob", session, received, transcript)
    finally:
        fabric.close()
        peer.close()
