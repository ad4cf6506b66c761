"""Counts from the transcripts repeat exactly for one seed, and the
recorded fabric traffic replays reply for reply."""
import os

import pytest

from netsession import client_counts, fabric_schedule, replay_handle, run_session, tap_medians
from procs import start_fabric, stop
from workloads import make_bits

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 7


def one_session(protocol, n):
    fabric, addr = start_fabric(ROOT, SEED)
    try:
        session = run_session(addr, protocol, make_bits(SEED, n))
    finally:
        stop(fabric)
    assert session.errors == []
    return session


@pytest.mark.parametrize("protocol, n", [("standard", 24), ("simplified", 200)])
def test_client_counts_repeat_exactly(protocol, n):
    first, second = one_session(protocol, n), one_session(protocol, n)
    assert client_counts(first) == client_counts(second)
    counts = client_counts(first)
    assert counts["clients.classical_bits_per_bit"] == (2.0 if protocol == "standard" else 0.0)
    assert ("clients.ready_to_classical_ms" in tap_medians(first)) == (protocol == "standard")
    times, mismatches = replay_handle(fabric_schedule(first), SEED)
    assert mismatches == 0
    assert sum(len(v) for v in times.values()) == round(counts["clients.fabric_requests_per_bit"] * n)
