"""Output checks. Each returns a list of failure descriptions; empty means
the output is correct. Every bit of a run whose check fails counts as
failed."""
from __future__ import annotations

from qteleport.netdemo import transcript_audit


def check_image(
    sent_ppm: bytes,
    received_ppm: bytes,
    report: dict,
    protocol: str,
    expected_bits: int,
) -> list[str]:
    """Checks one `teleport_image` run against its input and its report."""
    failures = []
    if received_ppm != sent_ppm:
        failures.append("reconstructed image is not byte-identical to the input")
    c = report["coincidence"]
    if report["bits_teleported"] != expected_bits:
        failures.append(f"bits_teleported {report['bits_teleported']} != {expected_bits}")
    if c["total_bits"] != expected_bits or c["matched"] != expected_bits:
        failures.append(f"scored {c['matched']}/{c['total_bits']} bits, expected {expected_bits}")
    if c["coincidence"] != 1.0:
        failures.append(f"coincidence {c['coincidence']} != 1.0")
    pairs = (expected_bits + 1) // 2
    if report["pairs_processed"] != pairs:
        failures.append(f"pairs_processed {report['pairs_processed']} != {pairs}")
    # Two classical bits per teleported qubit, the padded ancilla included.
    qubits = 2 * pairs
    want_classical = 2 * qubits if protocol == "standard" else 0
    if c["classical_bits_total"] != want_classical:
        failures.append(f"classical_bits_total {c['classical_bits_total']} != {want_classical}")
    want_hist = qubits if protocol == "standard" else 0
    hist_total = sum(c["per_outcome_histogram"].values())
    if hist_total != want_hist:
        failures.append(f"histogram total {hist_total} != {want_hist}")
    return failures


def check_netdemo(
    protocol: str,
    sent: list[int],
    bob_bits: list[int],
    alice_transcript: list,
    bob_transcript: list,
) -> list[str]:
    """Checks one loopback session: delivery, classical cost and locality."""
    failures = []
    if list(bob_bits) != list(sent):
        wrong = sum(a != b for a, b in zip(sent, bob_bits)) + abs(len(sent) - len(bob_bits))
        failures.append(f"bob received {wrong} wrong or missing bits of {len(sent)}")
    want_classical = 2 * len(sent) if protocol == "standard" else 0
    for side, transcript in (("alice", alice_transcript), ("bob", bob_transcript)):
        try:
            audit = transcript_audit(transcript)
        except ValueError as exc:
            failures.append(f"{side} transcript does not audit: {exc}")
            continue
        if audit["classical_bits"] != want_classical:
            failures.append(
                f"{side} transcript carries {audit['classical_bits']} classical bits, "
                f"expected {want_classical}"
            )
        if audit["violations"]:
            failures.append(f"{side} transcript has {audit['violations']} locality violations")
    return failures
