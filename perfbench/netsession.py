"""Loopback netdemo sessions driven through `run_alice` and `run_bob`.

The only view into the clients is the listening socket handed to
`run_bob`: its accepted connection timestamps every frame Bob receives from
Alice and every ACK he sends back. Everything else comes from the
transcripts the clients return.
"""
from __future__ import annotations

import socket
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from qteleport.netdemo import FrameDecoder, encode_frame, recv_msg, run_alice, run_bob, send_msg
from qteleport.netdemo import clients as clients_module
from qteleport.netdemo import transcript_audit
from qteleport.netdemo.clients import ClientResult

BOB_JOIN_TIMEOUT = 90.0


class _TapConn(socket.socket):
    """Bob's end of the peer link. Bob sends only ACK frames on it, so one
    clock read per send timestamps each ACK."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent_at: list[float] = []
        self.received: list[tuple[float, bytes]] = []

    def sendall(self, data, *flags):
        self.sent_at.append(time.perf_counter())
        return super().sendall(data, *flags)

    def recv(self, bufsize, *flags):
        data = super().recv(bufsize, *flags)
        self.received.append((time.perf_counter(), data))
        return data


class TapListener(socket.socket):
    """Loopback listening socket whose accepted connection is a tap."""

    def __init__(self):
        super().__init__(socket.AF_INET, socket.SOCK_STREAM)
        self.bind(("127.0.0.1", 0))
        self.listen(1)
        self.conn: _TapConn | None = None

    @property
    def address(self) -> str:
        host, port = self.getsockname()[:2]
        return f"{host}:{port}"

    def accept(self):
        fd, addr = self._accept()
        conn = _TapConn(self.family, self.type, self.proto, fileno=fd)
        if socket.getdefaulttimeout() is None and self.gettimeout():
            conn.setblocking(True)
        self.conn = conn
        return conn, addr


@dataclass
class Session:
    sent: list[int]
    started: float
    alice: ClientResult | None = None
    bob: ClientResult | None = None
    errors: list[str] = field(default_factory=list)
    ready_at: list[float] = field(default_factory=list)
    classical_at: list[float] = field(default_factory=list)
    ack_at: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """From `run_alice` entry to Bob's last ACK."""
        return self.ack_at[-1] - self.started

    def ack_gaps_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.ack_at, self.ack_at[1:])]


def run_session(fabric_addr: str, protocol: str, bits: list[int], tracer=None) -> Session:
    """One session: Bob on a thread, Alice on the calling thread."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    listener = TapListener()
    box: dict = {}

    def bob_main():
        try:
            with span("clients.run_bob"):
                box["bob"] = run_bob(listener, fabric_addr, protocol)
        except Exception as exc:  # reported as a failed check
            box["error"] = f"bob: {exc!r}"

    bob = threading.Thread(target=bob_main, name="bob", daemon=True)
    bob.start()
    session = Session(list(bits), time.perf_counter())
    try:
        with span("clients.run_alice"):
            session.alice = run_alice(fabric_addr, listener.address, protocol, bits)
    except Exception as exc:  # reported as a failed check
        session.errors.append(f"alice: {exc!r}")
        if listener.conn is not None:
            listener.conn.close()
    bob.join(BOB_JOIN_TIMEOUT)
    listener.close()
    if bob.is_alive():
        session.errors.append("bob did not finish")
    session.bob = box.get("bob")
    if "error" in box:
        session.errors.append(box["error"])
    if listener.conn is not None:
        _read_tap(session, listener.conn)
    if len(session.ack_at) != len(bits):
        session.errors.append(f"{len(session.ack_at)} ACKs for {len(bits)} bits")
    return session


def _read_tap(session: Session, conn: _TapConn) -> None:
    decoder = FrameDecoder()
    for t, chunk in conn.received:
        for msg in decoder.feed(chunk):
            if msg["type"] == "READY":
                session.ready_at.append(t)
            elif msg["type"] == "CLASSICAL":
                session.classical_at.append(t)
    session.ack_at = list(conn.sent_at)


def traced_clients(tracer):
    """Spans around every framed message the clients send or receive."""
    return tracer.patched(
        clients_module, {"send_msg": "framing.send_msg", "recv_msg": "framing.recv_msg"}
    )


def tap_medians(session: Session) -> dict[str, float]:
    """Medians, in ms, of the turns seen on Bob's end of the peer link."""
    ready, ack = session.ready_at, session.ack_at
    out = {
        "clients.alice_turn_ms": statistics.median(
            (ready[i] - ack[i - 1]) * 1e3 for i in range(1, len(ack))
        ),
        "clients.bob_turn_ms": statistics.median((a - r) * 1e3 for r, a in zip(ready, ack)),
    }
    if session.classical_at:
        out["clients.ready_to_classical_ms"] = statistics.median(
            (c - r) * 1e3 for r, c in zip(ready, session.classical_at)
        )
    return out


def _messages(transcript: list, link: str, direction: str | None = None) -> list[dict]:
    return [
        e["msg"] for e in transcript
        if e.get("link") == link and "msg" in e and direction in (None, e["dir"])
    ]


def peer_messages(session: Session) -> list[dict]:
    """Every peer-link message once. Each shows up in both transcripts, so
    Alice's side alone lists them all."""
    return _messages(session.alice.transcript, "peer")


def client_counts(session: Session) -> dict[str, float]:
    """Exact per-bit counts from both transcripts."""
    n = len(session.sent)
    alice, bob = session.alice.transcript, session.bob.transcript
    requests = len(_messages(alice, "fabric", "send")) + len(_messages(bob, "fabric", "send"))
    peer = peer_messages(session)
    wire = peer + _messages(alice, "fabric") + _messages(bob, "fabric")
    return {
        "clients.fabric_requests_per_bit": requests / n,
        "clients.peer_messages_per_bit": len(peer) / n,
        "clients.wire_bytes_per_bit": sum(len(encode_frame(m)) for m in wire) / n,
        "clients.classical_bits_per_bit": transcript_audit(alice)["classical_bits"] / n,
    }


def _fabric_groups(transcript: list, opens: str | None, closes: str) -> tuple[list, list]:
    """Split a client's fabric (request, reply) pairs into per-bit groups.

    A group ends at the peer message `closes` Alice or Bob sends, and also at
    the peer message `opens` Bob receives. Returns (groups, tail); the tail
    holds the requests after the last group, such as BYE.
    """
    groups, current, pending = [], [], None
    for e in transcript:
        if "msg" not in e:
            continue
        msg = e["msg"]
        if e["link"] == "fabric":
            if e["dir"] == "send":
                pending = msg
            else:
                current.append((pending, msg))
        elif msg["type"] == opens and e["dir"] == "recv":
            groups.append(current)
            current = []
        elif msg["type"] == closes and e["dir"] == "send":
            groups.append(current)
            current = []
    return groups, current


def fabric_schedule(session: Session) -> list[tuple[str, dict, dict]]:
    """The session's fabric requests in an order the fabric could have
    served them: Alice's requests for bit i, then Bob's for bit i.

    Returns (role, request, recorded reply) triples.
    """
    alice_groups, alice_tail = _fabric_groups(session.alice.transcript, None, "READY")
    bob_groups, bob_tail = _fabric_groups(session.bob.transcript, "READY", "ACK")
    # Bob's groups alternate: before READY i (head or empty), READY i..ACK i.
    bob_head, bob_bits = bob_groups[0], bob_groups[1::2]
    schedule = []
    for i, group in enumerate(alice_groups):
        schedule += [("alice", q, r) for q, r in group]
        if i == 0:
            schedule += [("bob", q, r) for q, r in bob_head]
        schedule += [("bob", q, r) for q, r in bob_bits[i]]
    schedule += [("alice", q, r) for q, r in alice_tail]
    schedule += [("bob", q, r) for q, r in bob_tail]
    return schedule


def replay_handle(schedule, master_seed: int) -> tuple[dict[str, list[float]], int]:
    """Play the schedule into `Fabric.handle` in process.

    Returns per-type call times in seconds and the number of replies that
    differ from the recorded ones (0 when the replay reproduces the session).
    """
    from qteleport.netdemo.fabric import Fabric

    fabric = Fabric(master_seed)
    conns: dict[str, dict] = {"alice": {}, "bob": {}}
    times: dict[str, list[float]] = {}
    mismatches = 0
    for role, msg, recorded in schedule:
        t = time.perf_counter()
        reply = fabric.handle(msg, conns[role])
        times.setdefault(msg["type"], []).append(time.perf_counter() - t)
        mismatches += reply != recorded
    return times, mismatches


def replay_rtt(schedule, fabric_addr: str) -> tuple[dict[str, list[float]], int]:
    """Play the schedule over loopback into a running fabric, one connection
    per role, in a fresh session. Returns per-type round-trip times in
    seconds and the number of ERROR replies."""
    host, _, port = fabric_addr.rpartition(":")
    socks = {role: socket.create_connection((host, int(port))) for role in ("alice", "bob")}
    times: dict[str, list[float]] = {}
    errors = 0
    session = None
    try:
        for role, msg, _ in schedule:
            if "session" in msg:
                msg = dict(msg, session=session)
            t = time.perf_counter()
            send_msg(socks[role], msg)
            reply = recv_msg(socks[role])
            times.setdefault(msg["type"], []).append(time.perf_counter() - t)
            if reply is None or reply.get("type") == "ERROR":
                errors += 1
            elif msg["type"] == "NEW_SESSION":
                session = reply["session"]
    finally:
        for sock in socks.values():
            sock.close()
    return times, errors
