"""Stable seed derivation for independent random streams.

Workers, sessions, and samplers each get a stream keyed by the master seed
plus a label, so results never depend on scheduling or worker count.
"""
from __future__ import annotations

import hashlib
import random

import numpy as np


def derive_seed(master: int, *parts) -> int:
    """63-bit seed derived from the master seed and a label tuple."""
    key = ":".join([str(int(master))] + [str(p) for p in parts]).encode("ascii")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next n `rng.random()` values as a float64 array, in one call.

    `getrandbits(64 * n)` packs 2n successive 32-bit Mersenne Twister outputs
    little-endian, so each 64-bit word holds one double's pair: the first
    output in its low half. `random()` builds the double as
    `((first >> 5) * 2**26 + (second >> 6)) * 2**-53`; rebuilding it here
    gives the same values and leaves `rng` where n scalar calls leave it.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
    mantissa = ((words & 0xFFFFFFFF) >> 5) * 67108864 + (words >> 38)
    return mantissa * (1.0 / 9007199254740992.0)
