"""Networked demo tests: framing robustness, fabric locality, loopback
sessions, classical-bit accounting, and wire/in-process equivalence."""
import json
import random
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.core import PureQubit
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
from qteleport.netdemo.fabric import Fabric
from qteleport.netdemo.framing import FramingError, encode_body, recv_msg
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


def test_session_bootstrap_creates_balanced_pair():
    fabric = Fabric(master_seed=1)
    conn = {}
    assert fabric.handle({"type": "HELLO", "role": "alice"}, conn) == {"type": "WELCOME"}
    sid = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, conn)["session"]
    reply = fabric.handle({"type": "ALLOC_EPR", "session": sid}, conn)
    assert reply["type"] == "EPR"
    state = fabric.sessions[sid].state
    assert np.allclose(state.amps, balanced_epr().amps, atol=1e-15)


def test_locality_violation_is_rejected_but_connection_survives():
    fabric = Fabric(master_seed=1)
    conn = {}
    fabric.handle({"type": "HELLO", "role": "alice"}, conn)
    sid = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, conn)["session"]
    pair = fabric.handle({"type": "ALLOC_EPR", "session": sid}, conn)
    # q_bob belongs to bob: alice touching it, or a CNOT spanning owners, must fail
    err = fabric.handle(
        {"type": "APPLY", "session": sid, "gate": "CNOT",
         "qubits": [pair["q_alice"], pair["q_bob"]]},
        conn,
    )
    assert err["type"] == "ERROR" and "locality" in err["error"]
    err = fabric.handle({"type": "MEASURE", "session": sid, "qubit": pair["q_bob"]}, conn)
    assert err["type"] == "ERROR" and "locality" in err["error"]
    # connection still serves valid requests
    ok = fabric.handle({"type": "MEASURE", "session": sid, "qubit": pair["q_alice"]}, conn)
    assert ok["type"] == "RESULT"


def test_retired_qubit_is_read_only_by_its_owner():
    fabric = Fabric(master_seed=1)
    alice, bob = {}, {}
    fabric.handle({"type": "HELLO", "role": "alice"}, alice)
    fabric.handle({"type": "HELLO", "role": "bob"}, bob)
    sid = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, alice)["session"]
    q_psi = fabric.handle(
        {"type": "ALLOC_QUBIT", "session": sid, "alpha_re": 0.0, "beta_re": 1.0}, alice
    )["q"]
    m0 = fabric.handle({"type": "MEASURE", "session": sid, "qubit": q_psi}, alice)
    # Bob must learn Alice's outcomes from CLASSICAL, never from the fabric.
    err = fabric.handle({"type": "MEASURE", "session": sid, "qubit": q_psi}, bob)
    assert err["type"] == "ERROR" and "locality" in err["error"]
    assert fabric.handle({"type": "MEASURE", "session": sid, "qubit": q_psi}, alice) == m0


@pytest.mark.parametrize(
    "request_",
    [
        {"type": "MEASURE", "qubit": [0]},
        {"type": "APPLY", "gate": ["H"], "qubits": [0]},
        {"type": "APPLY", "gate": "CNOT", "qubits": [0, 0]},
        {"type": "APPLY", "gate": "H", "qubits": 0},
        {"type": "ALLOC_QUBIT", "alpha_re": "1", "beta_re": 0.0},
        {"type": "ALLOC_QUBIT", "alpha_re": float("nan"), "beta_re": 0.0},
    ],
)
def test_malformed_commands_are_rejected_not_internal_errors(request_):
    fabric = Fabric(master_seed=1)
    alice, sid = _alice_session(fabric, "standard")
    fabric.handle({"type": "ALLOC_EPR", "session": sid}, alice)
    err = fabric.handle(dict(request_, session=sid), alice)
    assert err["type"] == "ERROR" and not err["error"].startswith("internal")


def _alice_session(fabric, protocol):
    conn = {}
    fabric.handle({"type": "HELLO", "role": "alice"}, conn)
    return conn, fabric.handle({"type": "NEW_SESSION", "protocol": protocol}, conn)["session"]


@pytest.mark.parametrize("protocol", ["standard", "simplified"])
@pytest.mark.parametrize("bit", [0, 1])
def test_batch_replies_match_single_commands(protocol, bit):
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
        op = dict(op, session=sid_s)
        if "qubit" in op:
            op["qubit"] = resolve(op["qubit"])
        if "qubits" in op:
            op["qubits"] = [resolve(q) for q in op["qubits"]]
        expected.append(single.handle(op, conn_s))
    assert reply["replies"] == expected
    assert batched.sessions[sid_b].retired == single.sessions[sid_s].retired


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
    assert fabric.sessions[sid].retired == {}
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
    alice, bob = {}, {}
    fabric.handle({"type": "HELLO", "role": "alice"}, alice)
    fabric.handle({"type": "HELLO", "role": "bob"}, bob)
    sid = fabric.handle({"type": "NEW_SESSION", "protocol": "standard"}, alice)["session"]
    psi = PureQubit(0.6, 0.8)
    q_psi = fabric.handle(
        {"type": "ALLOC_QUBIT", "session": sid, "alpha_re": 0.6, "alpha_im": 0.0,
         "beta_re": 0.8, "beta_im": 0.0},
        alice,
    )["q"]
    pair = fabric.handle({"type": "ALLOC_EPR", "session": sid}, alice)
    fabric.handle({"type": "APPLY", "session": sid, "gate": "CNOT",
                   "qubits": [q_psi, pair["q_alice"]]}, alice)
    fabric.handle({"type": "APPLY", "session": sid, "gate": "H", "qubits": [q_psi]}, alice)
    m0 = fabric.handle({"type": "MEASURE", "session": sid, "qubit": q_psi}, alice)["bit"]
    m1 = fabric.handle({"type": "MEASURE", "session": sid, "qubit": pair["q_alice"]}, alice)["bit"]
    if m0:
        fabric.handle({"type": "APPLY", "session": sid, "gate": "Z",
                       "qubits": [pair["q_bob"]]}, bob)
    if m1:
        fabric.handle({"type": "APPLY", "session": sid, "gate": "X",
                       "qubits": [pair["q_bob"]]}, bob)
    rho = fabric.handle({"type": "READ_RHO", "session": sid, "qubit": pair["q_bob"]}, bob)["rho"]
    got = np.array([complex(re, im) for re, im in rho]).reshape(2, 2)
    assert np.max(np.abs(got - psi.projector())) < 1e-9


def test_simplified_embedding_assigns_pair_to_alice_payload_to_bob():
    fabric = Fabric(master_seed=3)
    conn = {}
    fabric.handle({"type": "HELLO", "role": "alice"}, conn)
    sid = fabric.handle({"type": "NEW_SESSION", "protocol": "simplified"}, conn)["session"]
    pair = fabric.handle({"type": "ALLOC_EPR", "session": sid}, conn)
    q = fabric.handle(
        {"type": "ALLOC_QUBIT", "session": sid, "alpha_re": 1.0, "alpha_im": 0.0,
         "beta_re": 0.0, "beta_im": 0.0},
        conn,
    )["q"]
    session = fabric.sessions[sid]
    assert session.owner[pair["q_alice"]] == "alice"
    assert session.owner[pair["q_bob"]] == "alice"
    assert session.owner[q] == "bob"


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
@pytest.mark.parametrize("noise_a", [None, 0.8])
def test_wire_matches_in_process_bit_for_bit(fabric_server, protocol, noise_a):
    rng = random.Random(4242)
    bits = [rng.randint(0, 1) for _ in range(60)]
    alice, bob = run_session(fabric_server.address, protocol, bits, noise_a=noise_a)
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


def test_sampled_fixture_bits_over_loopback_match_pipeline(fabric_server, image_16, ppm_16, tmp_path):
    from qteleport.imaging import bit_array
    from qteleport.pipeline import PipelineConfig, sample_bits, teleport_image

    picks = sample_bits(image_16, 100, seed=21)
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
