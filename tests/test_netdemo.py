"""Networked demo tests: framing robustness, fabric locality, loopback
sessions, classical-bit accounting, and wire/in-process equivalence."""
import hashlib
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.core import PureQubit, StateVector
from qteleport.netdemo import (
    FabricServer,
    FrameDecoder,
    encode_frame,
    run_alice,
    run_bob,
    transcript_audit,
)
from qteleport.netdemo import clients
from qteleport.netdemo.clients import SessionAborted, TranscriptEntry, _alice_ops, _Link
from qteleport.netdemo import fabric as fabric_module
from qteleport.netdemo.fabric import Fabric
from qteleport.netdemo.framing import FramingError, encode_body, recv_msg, send_msg
from qteleport.protocols import balanced_epr, teleport_bit
from qteleport.seeding import derive_seed

MASTER_SEED = 987654321


@pytest.fixture()
def fabric_server():
    server = FabricServer(master_seed=MASTER_SEED).start()
    yield server
    server.shutdown()


def run_session(fabric_addr, protocol, bits, noise_a=None):
    result = {}
    # run_bob closes only the sockets it opens; the listener is ours.
    with socket.create_server(("127.0.0.1", 0)) as listen:
        bob_addr = listen.getsockname()

        def bob_side():
            result["bob"] = run_bob(listen, fabric_addr, protocol)

        thread = threading.Thread(target=bob_side)
        thread.start()
        result["alice"] = run_alice(fabric_addr, bob_addr, protocol, bits, noise_a=noise_a)
        thread.join(timeout=60)
    assert "bob" in result, "bob never finished"
    return result["alice"], result["bob"]


# ---------------------------------------------------------------- framing


def test_frame_encode_decode_roundtrip():
    msg = {"type": "HELLO", "role": "alice", "n": 3}
    frame = encode_frame(msg)
    assert frame[:4] == struct.pack(">I", len(frame) - 4)
    decoder = FrameDecoder()
    assert decoder.feed(frame) == [msg]


def test_frame_requires_type_field():
    with pytest.raises(FramingError):
        encode_frame({"role": "alice"})


@settings(max_examples=60, deadline=None)
@given(
    msgs=st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "payload"]), st.integers(0, 9), max_size=3
        ).map(lambda d: {"type": "T", **d}),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_frames_reassemble_from_any_chunking(msgs, seed):
    blob = b"".join(encode_frame(m) for m in msgs)
    rng = random.Random(seed)
    decoder = FrameDecoder()
    out = []
    pos = 0
    while pos < len(blob):
        step = rng.randint(1, 7)
        out.extend(decoder.feed(blob[pos : pos + step]))
        pos += step
    assert out == msgs


def test_recv_msg_across_socket_chunks():
    a, b = socket.socketpair()
    msg = {"type": "PING", "x": list(range(50))}
    frame = encode_frame(msg)

    def drip():
        for i in range(0, len(frame), 3):
            a.sendall(frame[i : i + 3])
        a.close()

    t = threading.Thread(target=drip)
    t.start()
    assert recv_msg(b) == msg
    assert recv_msg(b) is None  # orderly EOF
    t.join()
    b.close()


# ----------------------------------------------------------------- fabric


def _hello(fabric, role):
    conn = {}
    assert fabric.handle({"type": "HELLO", "role": role}, conn) == {"type": "WELCOME"}
    return conn


def _alice_session(fabric, protocol):
    conn = _hello(fabric, "alice")
    return conn, fabric.handle({"type": "NEW_SESSION", "protocol": protocol}, conn)["session"]


def _op(fabric, conn, sid, op):
    """Send one per-qubit command as a one-op BATCH; returns its reply."""
    reply = fabric.handle({"type": "BATCH", "session": sid, "ops": [op]}, conn)
    assert reply["type"] == "BATCH" and len(reply["replies"]) == 1, reply
    return reply["replies"][0]


def _is_locality_error(reply):
    return reply["type"] == "ERROR" and "locality" in reply["error"]


def test_session_bootstrap_creates_balanced_pair():
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    reply = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    assert reply["type"] == "EPR"
    session = fabric.sessions[sid]
    assert np.allclose(session.state.amps, balanced_epr().amps, atol=1e-15)
    assert session.owner == {reply["q_alice"]: "alice", reply["q_bob"]: "bob"}


def test_locality_violation_is_rejected_but_connection_survives():
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    pair = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    # q_bob belongs to bob: alice touching it, or a CNOT spanning owners, must fail
    cnot = {"type": "APPLY", "gate": "CNOT", "qubits": [pair["q_alice"], pair["q_bob"]]}
    assert _is_locality_error(_op(fabric, alice, sid, cnot))
    assert _is_locality_error(_op(fabric, alice, sid, {"type": "MEASURE", "qubit": pair["q_bob"]}))
    # connection still serves valid requests
    ok = _op(fabric, alice, sid, {"type": "MEASURE", "qubit": pair["q_alice"]})
    assert ok["type"] == "RESULT"


def test_retired_qubit_keeps_its_owner_and_is_not_reread():
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    bob = _hello(fabric, "bob")
    q_psi = _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 0.0, "beta_re": 1.0})["q"]
    assert _op(fabric, alice, sid, {"type": "MEASURE", "qubit": q_psi}) == {"type": "RESULT", "bit": 1}
    for op_type in ("MEASURE", "RESET", "READ_RHO", "APPLY"):
        op = {"type": op_type, "qubit": q_psi, "gate": "X", "qubits": [q_psi]}
        # Bob must learn Alice's outcomes from CLASSICAL, never from the fabric.
        assert _is_locality_error(_op(fabric, bob, sid, op))
        # The fabric keeps no outcomes, so the owner cannot re-read one either.
        err = _op(fabric, alice, sid, op)
        assert err["type"] == "ERROR" and "retired" in err["error"]


@pytest.mark.parametrize(
    "request_",
    [
        {"type": "MEASURE", "qubit": [0]},
        {"type": "APPLY", "gate": ["H"], "qubits": [0]},
        {"type": "APPLY", "gate": "CNOT", "qubits": [0, 0]},
        {"type": "APPLY", "gate": "H", "qubits": 0},
        {"type": "ALLOC_QUBIT", "alpha_re": "1", "beta_re": 0.0},
        {"type": "ALLOC_QUBIT", "alpha_re": float("nan"), "beta_re": 0.0},
        {"type": "ALLOC_QUBIT", "alpha_re": 10**400, "beta_re": 0.0},
        {"type": "ALLOC_QUBIT", "alpha_re": 1e200, "beta_re": 0.0},
    ],
)
def test_malformed_commands_are_rejected_not_internal_errors(request_):
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    err = _op(fabric, alice, sid, request_)
    assert err["type"] == "ERROR" and err["error"].startswith("op 0: ")


def test_session_holds_one_bits_register():
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    pair = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 1.0})
    err = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    assert err["type"] == "ERROR" and "live qubits" in err["error"]
    assert len(fabric.sessions[sid].handles) == 3
    _op(fabric, alice, sid, {"type": "MEASURE", "qubit": pair["q_alice"]})
    assert _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 1.0})["type"] == "QUBIT"


@pytest.mark.parametrize("op_type", ["ALLOC_EPR", "ALLOC_QUBIT", "APPLY", "MEASURE", "RESET", "READ_RHO"])
def test_bare_per_qubit_command_is_an_error(op_type):
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    command = {"type": op_type, "session": sid, "alpha_re": 1.0, "gate": "H", "qubits": [0], "qubit": 0}
    err = fabric.handle(command, alice)
    assert err["type"] == "ERROR" and "unknown message type" in err["error"]
    assert fabric.sessions[sid].handles == [0, 1]  # nothing ran


@pytest.mark.parametrize(
    "frame",
    [
        {"type": "NEW_SESSION", "protocol": "standard", "noise_A": "x"},
        {"type": "NEW_SESSION", "protocol": "standard", "noise_A": [1]},
        {"type": "NEW_SESSION", "protocol": "standard", "noise_A": True},
        {"type": "NEW_SESSION", "protocol": ["standard"]},
        {"type": "BATCH", "session": [0], "ops": [{"type": "ALLOC_EPR"}]},
        {"type": "BATCH", "session": {}, "ops": [{"type": "ALLOC_EPR"}]},
        {"type": "BATCH", "session": False, "ops": [{"type": "ALLOC_EPR"}]},
    ],
)
def test_malformed_frames_are_rejected_not_internal_errors(frame):
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    err = fabric.handle(frame, alice)
    assert err["type"] == "ERROR" and not err["error"].startswith("internal")
    assert list(fabric.sessions) == [sid] and fabric.sessions[sid].handles == []


# Any JSON value a frame could carry.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _field(*valid):
    return st.one_of(st.sampled_from(valid), _JSON)


_HANDLE = st.one_of(st.integers(-1, 4), st.sampled_from(["$0.q", "$0.q_alice", "$1.q_bob"]), _JSON)
_OPS = st.lists(
    st.one_of(
        st.sampled_from(_alice_ops("standard", 1) + _alice_ops("simplified", 0)),
        st.fixed_dictionaries(
            {"type": _field("ALLOC_EPR", "ALLOC_QUBIT", "APPLY", "MEASURE", "RESET", "READ_RHO")},
            optional={
                "qubit": _HANDLE,
                "qubits": st.one_of(st.lists(_HANDLE, max_size=3), _JSON),
                "gate": _field("H", "X", "Z", "CNOT"),
                "alpha_re": _field(0.0, 1.0),
                "beta_im": _field(0.0, 1.0),
            },
        ),
        _JSON,
    ),
    max_size=8,
)
_FRAMES = st.fixed_dictionaries(
    {"type": _field("HELLO", "NEW_SESSION", "BATCH", "BYE")},
    optional={
        "role": _field("alice", "bob"),
        "protocol": _field("standard", "simplified"),
        "noise_A": _field(None, 0.8, 1),
        "session": st.one_of(st.integers(-1, 2), _JSON),
        "ops": st.one_of(_OPS, _JSON),
    },
)


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(st.tuples(st.sampled_from(["alice", "new"]), _FRAMES), min_size=1, max_size=8))
def test_fuzzed_frames_never_get_internal_errors(frames):
    fabric = Fabric(master_seed=5)
    alice, _ = _alice_session(fabric, "standard")  # a connection already in a session
    conns = {"alice": alice, "new": {}}
    for conn, frame in frames:
        reply = fabric.handle(frame, conns[conn])
        encode_body(reply)  # every reply frames
        if reply["type"] == "ERROR":
            assert not reply["error"].startswith("internal"), (frame, reply)


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("bit", [0, 1])
def test_batch_replies_match_single_commands(protocol, bit):
    """One BATCH of a bit's ops equals the same ops sent as one-op batches,
    with their `$k.field` references resolved by hand."""
    batched, single = Fabric(master_seed=9), Fabric(master_seed=9)
    conn_b, sid_b = _alice_session(batched, protocol)
    conn_s, sid_s = _alice_session(single, protocol)
    ops = _alice_ops(protocol, bit)
    reply = batched.handle({"type": "BATCH", "session": sid_b, "ops": ops}, conn_b)
    assert reply["type"] == "BATCH" and len(reply["replies"]) == len(ops)
    expected = []

    def resolve(ref):
        k, _, name = ref[1:].partition(".")
        return expected[int(k)][name]

    for op in ops:
        op = dict(op)
        if "qubit" in op:
            op["qubit"] = resolve(op["qubit"])
        if "qubits" in op:
            op["qubits"] = [resolve(q) for q in op["qubits"]]
        expected.append(_op(single, conn_s, sid_s, op))
    assert reply["replies"] == expected
    assert "ERROR" not in [r["type"] for r in expected]
    b, s = batched.sessions[sid_b], single.sessions[sid_s]
    assert b.handles == s.handles and np.array_equal(b.state.amps, s.state.amps)
    assert b.rng.getstate() == s.rng.getstate()


def test_batch_stops_at_first_error_and_checks_locality_per_op():
    fabric = Fabric(master_seed=2)
    alice, sid = _alice_session(fabric, "standard")
    ops = [
        {"type": "ALLOC_EPR"},
        {"type": "MEASURE", "qubit": "$0.q_bob"},
        {"type": "MEASURE", "qubit": "$0.q_alice"},
    ]
    reply = fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, alice)
    assert [r["type"] for r in reply["replies"]] == ["EPR", "ERROR"]
    assert "locality" in reply["replies"][1]["error"]
    assert fabric.sessions[sid].handles == [0, 1]  # op 2 never ran
    audit = transcript_audit([{"link": "fabric", "dir": "recv", "msg": reply}])
    assert audit["violations"] == 1


_BAD_REFERENCES = st.one_of(
    st.integers(1000, 10**30).map(lambda k: f"${k}.q"),
    st.sampled_from(["$", "$0", "$0.", "$x.q", "$-1.q", "$0.q.r", "$ 0.q", "$0.q\n",
                     "$1e2.q", "$0.missing", "$0.type", "0.q", "q"]),
)


@st.composite
def _bad_batches(draw):
    """A BATCH whose op `pos` is bad, after `pos` good ops of a real bit."""
    protocol = draw(st.sampled_from(["standard", "simplified"]))
    good = _alice_ops(protocol, draw(st.integers(0, 1)))
    pos = draw(st.integers(0, len(good) - 1))
    forward = st.integers(pos, pos + 5).map(lambda k: f"${k}.q_alice")
    reference = st.one_of(forward, _BAD_REFERENCES)
    bad = draw(st.one_of(
        st.builds(lambda ops: {"type": "BATCH", "ops": ops}, st.just(good)),
        st.builds(lambda r: {"type": "MEASURE", "qubit": r}, reference),
        st.builds(lambda r: {"type": "APPLY", "gate": "H", "qubits": [r]}, reference),
        st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=2)),
        st.builds(lambda op, sid: dict(op, session=sid), st.sampled_from(good), st.integers(-1, 3)),
    ))
    ops = good[:pos] + [bad] + good[pos:]
    return protocol, pos, ops


@settings(max_examples=200, deadline=None)
@given(case=_bad_batches())
def test_fuzzed_batches_get_exactly_one_error(case):
    protocol, pos, ops = case
    fabric = Fabric(master_seed=4)
    alice, sid = _alice_session(fabric, protocol)
    reply = fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, alice)
    assert reply["type"] == "BATCH"
    replies = reply["replies"]
    assert len(replies) == pos + 1
    assert [r["type"] == "ERROR" for r in replies] == [False] * pos + [True]
    assert not replies[-1]["error"].startswith("internal")
    assert replies[-1]["error"].startswith(f"op {pos}: ")


@pytest.mark.parametrize("ops", [None, [], {"type": "ALLOC_EPR"}, "ALLOC_EPR"])
def test_batch_without_an_op_list_is_one_error(ops):
    fabric = Fabric(master_seed=4)
    alice, sid = _alice_session(fabric, "standard")
    reply = fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, alice)
    assert reply["type"] == "ERROR" and not reply["error"].startswith("internal")


def test_unknown_message_type_yields_error_reply():
    fabric = Fabric(master_seed=1)
    conn = {}
    fabric.handle({"type": "HELLO", "role": "alice"}, conn)
    err = fabric.handle({"type": "FROBNICATE"}, conn)
    assert err["type"] == "ERROR" and "unknown message type" in err["error"]
    assert fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, conn)["type"] == "SESSION"


def test_read_rho_after_completed_standard_teleport():
    fabric = Fabric(master_seed=7)
    alice, sid = _alice_session(fabric, "standard")
    bob = _hello(fabric, "bob")
    psi = PureQubit(0.6, 0.8)
    payload = {"type": "ALLOC_QUBIT", "alpha_re": 0.6, "alpha_im": 0.0, "beta_re": 0.8, "beta_im": 0.0}
    ops = [payload] + _alice_ops("standard", 0)[1:]
    replies = fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, alice)["replies"]
    q_bob, m0, m1 = replies[1]["q_bob"], replies[4]["bit"], replies[5]["bit"]
    ops = [{"type": "APPLY", "gate": g, "qubits": [q_bob]} for g, m in (("Z", m0), ("X", m1)) if m]
    ops.append({"type": "READ_RHO", "qubit": q_bob})
    rho = fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, bob)["replies"][-1]["rho"]
    got = np.array([complex(re, im) for re, im in rho]).reshape(2, 2)
    assert np.max(np.abs(got - psi.projector())) < 1e-9


def test_read_rho_is_owner_checked_like_measure():
    fabric = Fabric(master_seed=7)
    alice, sid = _alice_session(fabric, "standard")
    bob = _hello(fabric, "bob")
    transcript = []

    def bob_reads(q):
        msg = {"type": "BATCH", "session": sid, "ops": [{"type": "READ_RHO", "qubit": q}]}
        reply = fabric.handle(msg, bob)
        transcript.append({"link": "fabric", "dir": "recv", "msg": reply})
        return reply["replies"][0]

    q_psi = _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 0.6, "beta_re": 0.8})["q"]
    pair = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    alices = (q_psi, pair["q_alice"])
    assert all(_is_locality_error(bob_reads(q)) for q in alices)  # live
    for q in alices:
        _op(fabric, alice, sid, {"type": "MEASURE", "qubit": q})
    assert all(_is_locality_error(bob_reads(q)) for q in alices)  # retired
    assert transcript_audit(transcript)["violations"] == 4
    assert bob_reads(pair["q_bob"])["type"] == "RHO"
    assert transcript_audit(transcript)["violations"] == 4


def test_roles_are_bound_per_session_not_declared():
    """A second connection that says HELLO alice can neither drive nor read
    another connection's live qubit, and the session draws nothing for it.
    One connection holds one role per session."""
    fabric = Fabric(master_seed=7)
    alice, sid = _alice_session(fabric, "standard")
    q_psi = _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 0.6, "beta_re": 0.8})["q"]
    pair = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    session = fabric.sessions[sid]
    before = session.rng.getstate()
    intruder = _hello(fabric, "alice")
    transcript = []
    for op in ({"type": "MEASURE", "qubit": q_psi}, {"type": "READ_RHO", "qubit": q_psi}):
        reply = fabric.handle({"type": "BATCH", "session": sid, "ops": [op]}, intruder)
        transcript.append({"link": "fabric", "dir": "recv", "msg": reply})
        assert _is_locality_error(reply), reply
    assert transcript_audit(transcript)["violations"] == 2
    assert session.rng.getstate() == before and len(session.handles) == 3
    # Alice cannot turn into Bob; the first Bob holds his role, a second cannot.
    fabric.handle({"type": "HELLO", "role": "bob"}, alice)
    read_bob = {"type": "READ_RHO", "qubit": pair["q_bob"]}
    assert _is_locality_error(fabric.handle({"type": "BATCH", "session": sid, "ops": [read_bob]}, alice))
    assert _op(fabric, _hello(fabric, "bob"), sid, read_bob)["type"] == "RHO"
    second_bob = fabric.handle({"type": "BATCH", "session": sid, "ops": [read_bob]}, _hello(fabric, "bob"))
    assert _is_locality_error(second_bob)
    # The intruder holds Alice's role in a session of its own.
    sid_2 = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, intruder)["session"]
    assert _op(fabric, intruder, sid_2, {"type": "ALLOC_EPR"})["type"] == "EPR"


def test_simplified_ownership_gives_pair_to_alice_payload_to_bob():
    fabric = Fabric(master_seed=3)
    alice, sid = _alice_session(fabric, "simplified")
    bob = _hello(fabric, "bob")
    pair = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})
    q = _op(fabric, alice, sid, {"type": "ALLOC_QUBIT", "alpha_re": 0.0, "beta_re": 1.0})["q"]
    session = fabric.sessions[sid]
    assert session.owner == {pair["q_alice"]: "alice", pair["q_bob"]: "alice", q: "bob"}
    # Allocation applies no gate: the pair CNOT is Alice's own op.
    assert np.array_equal(session.state.amps, np.kron(balanced_epr().amps, [0, 1]))
    halves = [pair["q_alice"], pair["q_bob"]]
    ops = [{"type": "APPLY", "gate": "X", "qubits": [h]} for h in halves]
    ops.append({"type": "APPLY", "gate": "CNOT", "qubits": halves})
    assert all(_is_locality_error(_op(fabric, bob, sid, op)) for op in ops)
    assert _op(fabric, alice, sid, ops[-1]) == {"type": "OK"}


def test_sessions_are_freed_when_their_last_party_leaves():
    fabric = Fabric(master_seed=6)
    alice, sid = _alice_session(fabric, "standard")
    bob = _hello(fabric, "bob")
    q = _op(fabric, alice, sid, {"type": "ALLOC_EPR"})["q_bob"]
    assert _op(fabric, bob, sid, {"type": "READ_RHO", "qubit": q})["type"] == "RHO"
    assert fabric.handle({"type": "BYE"}, alice) == {"type": "BYE"}
    assert list(fabric.sessions) == [sid]  # bob is still bound
    fabric.leave(bob)  # a disconnect
    assert fabric.sessions == {}
    err = fabric.handle({"type": "BATCH", "session": sid, "ops": [{"type": "ALLOC_EPR"}]}, bob)
    assert err["type"] == "ERROR" and "unknown session" in err["error"]
    # Ids are never reused, so a later session gets a fresh seed.
    assert _alice_session(fabric, "standard")[1] == sid + 1


def test_ten_thousand_sessions_leave_nothing_behind():
    import tracemalloc

    fabric = Fabric(master_seed=6)

    def cycles(count):
        for _ in range(count):
            conn, _ = _alice_session(fabric, "simplified")
            fabric.handle({"type": "BYE"}, conn)

    cycles(10)  # lazy imports and caches are not the fabric's memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cycles(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fabric.sessions) == 0
    assert grown < 64 * 1024


def test_stalled_connection_is_dropped_and_its_session_freed(monkeypatch):
    monkeypatch.setattr(fabric_module, "IDLE_TIMEOUT", 0.2)
    server = FabricServer(master_seed=MASTER_SEED).start()
    try:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            send_msg(sock, {"type": "HELLO", "role": "alice"})
            assert recv_msg(sock) == {"type": "WELCOME"}
            send_msg(sock, {"type": "NEW_SESSION", "protocol": "standard"})
            sid = recv_msg(sock)["session"]
            assert list(server.fabric.sessions) == [sid]
            sock.sendall(encode_frame({"type": "BYE"})[:2])  # half a header, then silence
            assert sock.recv(1) == b""  # closed, within the 2 s client timeout
        assert server.fabric.sessions == {}
    finally:
        server.shutdown()


def test_hello_required_before_commands():
    fabric = Fabric(master_seed=1)
    err = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, {})
    assert err["type"] == "ERROR"


def test_env_seed_controls_fabric(monkeypatch):
    monkeypatch.setenv("QTELEPORT_SEED", "424242")
    assert Fabric().master_seed == 424242
    monkeypatch.delenv("QTELEPORT_SEED")
    explicit = Fabric(master_seed=5)
    assert explicit.master_seed == 5


# ------------------------------------------------------------- end to end


@pytest.mark.parametrize("protocol,expected_classical", [("standard", 200), ("simplified", 0)])
def test_hundred_bit_session_classical_budget(fabric_server, protocol, expected_classical):
    rng = random.Random(15)
    bits = [rng.randint(0, 1) for _ in range(100)]
    alice, bob = run_session(fabric_server.address, protocol, bits)
    assert bob.bits == bits
    alice_audit = transcript_audit(alice.transcript)
    bob_audit = transcript_audit(bob.transcript)
    assert alice_audit["classical_bits"] == expected_classical
    assert bob_audit["classical_bits"] == expected_classical
    assert alice_audit["violations"] == 0 and bob_audit["violations"] == 0


def test_standard_two_bits_transcript_shape(fabric_server):
    alice, bob = run_session(fabric_server.address, "standard", [0, 1])
    sent_classical = [
        e for e in alice.transcript
        if e.get("msg", {}).get("type") == "CLASSICAL" and e["dir"] == "send"
    ]
    assert len(sent_classical) == 2
    assert bob.bits == [0, 1]


def test_simplified_sends_zero_classical_messages(fabric_server):
    alice, bob = run_session(fabric_server.address, "simplified", [1, 0])
    assert bob.bits == [1, 0]
    assert not [e for e in alice.transcript if e.get("msg", {}).get("type") == "CLASSICAL"]


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
def test_states_are_checked_only_where_they_enter(monkeypatch, protocol):
    """The public constructor checks a state once, where it enters the
    engine; ops return their results unchecked. `teleport_bit` builds no
    checked state, and a fabric bit checks only its wire payload and the
    two registers left after dropping a collapsed qubit's axis."""
    rng = random.Random(11)
    bits = [rng.getrandbits(1) for _ in range(40)]
    pair = balanced_epr()
    fabric = Fabric(master_seed=11)
    alice, sid = _alice_session(fabric, protocol)
    bob = _hello(fabric, "bob")
    checked = []
    real_init = StateVector.__init__

    def counting_init(self, *args, **kwargs):
        checked.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "__init__", counting_init)
    for bit in bits:
        teleport_bit(bit, protocol, pair, rng)
    assert len(checked) == 0

    def batch(conn, ops):
        return fabric.handle({"type": "BATCH", "session": sid, "ops": ops}, conn)["replies"]

    for bit in bits:
        replies = batch(alice, _alice_ops(protocol, bit))
        if protocol == "standard":
            q, m0, m1 = replies[1]["q_bob"], replies[4]["bit"], replies[5]["bit"]
            ops = [{"type": "APPLY", "gate": g, "qubits": [q]} for g, m in (("Z", m0), ("X", m1)) if m]
        else:
            q, ops = replies[1]["q"], []
        ops.append({"type": "MEASURE", "qubit": q})
        assert batch(bob, ops)[-1] == {"type": "RESULT", "bit": bit}
    assert len(checked) <= 3 * len(bits)


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("noise_a", [None, 0.8])
def test_wire_matches_in_process_bit_for_bit(monkeypatch, fabric_server, protocol, noise_a):
    fabric = fabric_server.fabric
    created = []
    real_new_session = fabric.new_session

    def recording_new_session(*args):
        created.append(real_new_session(*args))
        return created[-1]

    monkeypatch.setattr(fabric, "new_session", recording_new_session)
    rng = random.Random(4242)
    bits = [rng.randint(0, 1) for _ in range(60)]
    alice, bob = run_session(fabric_server.address, protocol, bits, noise_a=noise_a)
    [session] = created
    assert session.session_id == alice.session
    assert alice.session not in fabric.sessions  # both parties said BYE
    session_rng = random.Random(derive_seed(MASTER_SEED, "session", alice.session))
    if noise_a is None:
        pair = balanced_epr()
    else:
        from qteleport.protocols import NoisyEprParams, noisy_epr

        pair = noisy_epr(NoisyEprParams.from_a(noise_a))
    reference = [teleport_bit(b, protocol, pair, session_rng) for b in bits]
    assert bob.bits == [r.received for r in reference]
    # Per-bit payloads give Bob's bits regardless of draw order; the
    # disambiguation bits pin Alice's measurement draws too.
    sent_classical = [
        (e["msg"]["b1"], e["msg"]["b2"]) for e in alice.transcript
        if "msg" in e and e["dir"] == "send" and e["msg"]["type"] == "CLASSICAL"
    ]
    assert sent_classical == [r.disambiguation for r in reference if r.disambiguation is not None]
    assert len(sent_classical) == (len(bits) if protocol == "standard" else 0)
    # Bob's bits alone cannot pin a simplified session's draws: the fabric
    # must have drawn exactly what the reference drew, in the same order.
    assert session.rng.getstate() == session_rng.getstate()


# SHA-256 of the transcripts in the test below; it moves only when the wire
# protocol does: message types, fields, order or the fabric's draws.
_WIRE_DIGEST = "61c723772dd228c206e446be8f0af60c90fe2cffaf75d4d14cc336a0e234900a"


def test_wire_transcript_is_pinned():
    """64 bits through a fresh fabric for each protocol and pair: Alice's
    transcript, then Bob's, of every session hash to one digest."""
    rng = random.Random(5)
    bits = [rng.getrandbits(1) for _ in range(64)]
    digest = hashlib.sha256()
    for protocol in ("standard", "simplified"):
        for noise_a in (None, 0.8):
            server = FabricServer(master_seed=MASTER_SEED).start()
            try:
                alice, bob = run_session(server.address, protocol, bits, noise_a=noise_a)
            finally:
                server.shutdown()
            for e in [*alice.transcript, *bob.transcript]:
                digest.update(f"{e['link']}|{e['dir']}|".encode() + encode_body(e["msg"]) + b"\n")
    assert digest.hexdigest() == _WIRE_DIGEST


def test_sampled_fixture_bits_over_loopback_match_pipeline(fabric_server, image_16, ppm_16, tmp_path):
    from qteleport.imaging import bit_array
    from qteleport.pipeline import PipelineConfig, teleport_image

    # The pipeline samples counts, not positions: any 100 positions stand for it.
    picks = np.sort(np.random.default_rng(21).choice(image_16.total_bits(), 100, replace=False))
    bits = bit_array(image_16)[picks].tolist()
    for protocol, expected_classical in (("standard", 200), ("simplified", 0)):
        alice, bob = run_session(fabric_server.address, protocol, bits)
        assert bob.bits == bits
        assert transcript_audit(alice.transcript)["classical_bits"] == expected_classical
        report = teleport_image(
            PipelineConfig(
                input_path=str(ppm_16),
                output_path=str(tmp_path / "out.ppm"),
                protocol=protocol,
                seed=21,
                sample=100,
            )
        )
        assert report.coincidence.coincidence == 1.0
        assert report.coincidence.classical_bits_total == expected_classical


def test_audit_empty_transcript_and_malformed_entries():
    assert transcript_audit([]) == {"classical_bits": 0, "messages": 0, "violations": 0}
    with pytest.raises(ValueError):
        transcript_audit([{"nonsense": 1}])
    with pytest.raises(ValueError):
        transcript_audit("not a list")


def test_audit_accepts_records_and_reloaded_dicts():
    msgs = [
        ("peer", "send", {"type": "CLASSICAL", "b1": 1, "b2": 0}),
        ("fabric", "recv", {"type": "ERROR", "error": "locality violation: bob"}),
    ]
    records = [TranscriptEntry(link, d, encode_body(m)) for link, d, m in msgs]
    records.append({"event": "aborted", "link": "peer", "reason": "closed"})
    reloaded = json.loads(json.dumps([dict(e) for e in records]))
    assert reloaded[0] == {"link": "peer", "dir": "send", "msg": msgs[0][2]}
    expected = {"classical_bits": 2, "messages": 3, "violations": 1}
    assert transcript_audit(records) == transcript_audit(reloaded) == expected


def test_transcript_entry_decodes_only_msg_and_caches_nothing(monkeypatch):
    msg = {"type": "READY", "index": 3, "qubit": 7}
    entry = TranscriptEntry("peer", "send", encode_body(msg))
    decodes = []
    real = clients.decode_body
    monkeypatch.setattr(clients, "decode_body", lambda body: decodes.append(body) or real(body))
    assert "msg" in entry and "event" not in entry and len(entry) == 3
    assert list(entry) == ["link", "dir", "msg"]
    assert (entry["link"], entry["dir"], entry.get("event")) == ("peer", "send", None)
    assert decodes == []
    assert entry["msg"] == msg and entry.get("msg") == msg
    assert len(decodes) == 2
    with pytest.raises(AttributeError):
        entry.cache = msg  # slotted: no room for a decoded copy


def test_links_set_tcp_nodelay():
    listen = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listen.getsockname())
    server, _ = listen.accept()
    try:
        for sock in (client, server):
            assert not sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            _Link(sock, "peer", [])
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        for sock in (client, server, listen):
            sock.close()


def test_protocol_mismatch_aborts(fabric_server):
    failure = {}
    with socket.create_server(("127.0.0.1", 0)) as listen:
        bob_addr = listen.getsockname()

        def bob_side():
            try:
                run_bob(listen, fabric_server.address, "simplified")
            except SessionAborted as exc:
                failure["err"] = exc

        thread = threading.Thread(target=bob_side)
        thread.start()
        with pytest.raises(SessionAborted):
            run_alice(fabric_server.address, bob_addr, "standard", [0, 1])
        thread.join(timeout=30)
    assert "protocol mismatch" in str(failure["err"])


def test_connection_loss_flags_partial_transcript(fabric_server):
    with socket.create_server(("127.0.0.1", 0)) as listen:
        bob_addr = listen.getsockname()

        def rude_bob():
            conn, _ = listen.accept()
            recv_msg(conn)  # read SESSION_INFO, then vanish mid-session
            conn.close()

        thread = threading.Thread(target=rude_bob)
        thread.start()
        with pytest.raises(SessionAborted) as excinfo:
            run_alice(fabric_server.address, bob_addr, "standard", [1, 1, 1])
        thread.join(timeout=30)
    assert any("aborted" in str(e.get("event", "")) for e in excinfo.value.transcript)


def test_thirty_two_concurrent_sessions(fabric_server):
    rng = random.Random(77)
    payloads = [[rng.randint(0, 1) for _ in range(8)] for _ in range(32)]
    results = [None] * 32
    errors = []

    def one(i):
        try:
            protocol = "standard" if i % 2 == 0 else "simplified"
            _, bob = run_session(fabric_server.address, protocol, payloads[i])
            results[i] = bob.bits
        except Exception as exc:  # surfaced after join
            errors.append((i, exc))

    threads = [threading.Thread(target=one, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert results == payloads


def test_cli_netdemo_over_loopback(fabric_server, tmp_path, capsys):
    from qteleport.cli import main as cli_main

    bits_file = tmp_path / "bits.txt"
    bits_file.write_text("1011 0010\n")
    host, port = fabric_server.address
    fabric = f"{host}:{port}"
    bob_sock = socket.create_server(("127.0.0.1", 0))
    bob_port = bob_sock.getsockname()[1]
    bob_transcript = tmp_path / "bob.json"
    alice_transcript = tmp_path / "alice.json"

    rc_holder = {}

    def bob_side():
        from qteleport.netdemo.clients import run_bob as rb

        result = rb(bob_sock, fabric, "standard")
        rc_holder["bits"] = result.bits
        with open(bob_transcript, "w") as fh:
            json.dump({"entries": [dict(e) for e in result.transcript]}, fh)

    thread = threading.Thread(target=bob_side)
    thread.start()
    with bob_sock:
        rc = cli_main([
            "alice", "--fabric", fabric, "--bob", f"127.0.0.1:{bob_port}",
            "--protocol", "standard", "--bits-from", str(bits_file),
            "--transcript", str(alice_transcript),
        ])
        thread.join(timeout=60)
    assert rc == 0
    assert rc_holder["bits"] == [1, 0, 1, 1, 0, 0, 1, 0]
    entries = json.loads(alice_transcript.read_text())["entries"]
    assert transcript_audit(entries)["classical_bits"] == 16
    capsys.readouterr()


def test_link_records_the_body_that_arrived():
    """A received message is recorded as the bytes on the wire, not as a
    re-encoding of the decoded message."""
    a, b = socket.socketpair()
    try:
        body = b'{ "type": "ACK",  "index": 0 }'
        a.sendall(struct.pack(">I", len(body)) + body)
        transcript = []
        assert _Link(b, "peer", transcript).recv() == {"type": "ACK", "index": 0}
        assert repr(transcript[0]) == repr(TranscriptEntry("peer", "recv", body))
    finally:
        a.close()
        b.close()


def _run_netdemo_script(tmp_path, *args):
    """Run scripts/run_netdemo.py in a process group of its own, with its
    temporary files under tmp_path. Returns (returncode, stdout, stderr,
    whether any process of the group outlived the script)."""
    import qteleport

    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "run_netdemo.py")
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, script, *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            outlived = False
        else:
            outlived = True
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return proc.returncode, out, err, outlived


@pytest.mark.parametrize("protocol, classical", [("standard", 20), ("simplified", 0)])
def test_run_netdemo_script(tmp_path, protocol, classical):
    """The three-process demo over its default 10 bits: both audits count 2
    classical bits per qubit for standard and 0 for simplified, and neither
    server outlives the script."""
    rc, out, err, outlived = _run_netdemo_script(tmp_path, "--protocol", protocol)
    assert rc == 0, err
    assert not outlived
    assert "bob received: 1011001110" in out
    for side in ("alice", "bob"):
        assert f"{side} audit: {{'classical_bits': {classical}, " in out
        assert "'violations': 0}" in out


def test_run_netdemo_script_stops_bob_when_alice_fails(tmp_path):
    """Alice refuses a bit file with no 0/1 in it; the script still stops
    the Bob that waits for her, instead of leaving him in accept()."""
    rc, out, err, outlived = _run_netdemo_script(tmp_path, "--bits", "xyz")
    assert rc != 0
    assert "no 0/1 characters" in err
    assert not outlived
