"""Transcript auditing: count classical payload bits and locality
violations after a session. A CLASSICAL message carries exactly two payload
bits; everything else on either link is control plane or quantum-side
command traffic and costs nothing against the classical-channel budget."""
from __future__ import annotations

from collections.abc import Mapping


def transcript_audit(transcript) -> dict:
    """Summarize a client transcript.

    Entries are mappings: the clients' records, or dicts reloaded from a
    JSON transcript file. A locality ERROR counts as a violation whether
    it is a reply of its own or one of the replies in a BATCH reply.

    Returns {"classical_bits": n, "messages": m, "violations": v}.
    Raises ValueError on malformed entries.
    """
    if transcript is None or not isinstance(transcript, list):
        raise ValueError("transcript must be a list of entries")
    classical_bits = 0
    messages = 0
    violations = 0
    for entry in transcript:
        if not isinstance(entry, Mapping):
            raise ValueError(f"malformed transcript entry: {entry!r}")
        if "event" in entry:
            messages += 1
            continue
        msg = entry.get("msg")
        if not isinstance(msg, dict) or "type" not in msg or entry.get("dir") not in ("send", "recv"):
            raise ValueError(f"malformed transcript entry: {entry!r}")
        messages += 1
        mtype = msg["type"]
        if mtype == "CLASSICAL":
            if msg.get("b1") not in (0, 1) or msg.get("b2") not in (0, 1):
                raise ValueError(f"malformed CLASSICAL payload: {msg!r}")
            classical_bits += 2
        elif mtype == "BATCH" and "replies" in msg:
            replies = msg["replies"]
            if not isinstance(replies, list) or not all(isinstance(r, dict) for r in replies):
                raise ValueError(f"malformed BATCH reply: {msg!r}")
            violations += sum(map(_is_locality_error, replies))
        elif _is_locality_error(msg):
            violations += 1
    return {"classical_bits": classical_bits, "messages": messages, "violations": violations}


def _is_locality_error(msg: dict) -> bool:
    return msg.get("type") == "ERROR" and "locality" in str(msg.get("error", ""))
