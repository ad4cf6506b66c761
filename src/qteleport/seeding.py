"""Stable seed derivation for independent random streams.

Workers, sessions, and samplers each get a stream keyed by the master seed
plus a label, so results never depend on scheduling or worker count.
"""
from __future__ import annotations

import hashlib


def derive_seed(master: int, *parts) -> int:
    """63-bit seed derived from the master seed and a label tuple."""
    key = ":".join([str(int(master))] + [str(p) for p in parts]).encode("ascii")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
