"""Workload definitions and seed-derived inputs.

This module imports nothing from qteleport, so run.py can make
inputs and time set-up before any package import happens.
"""
from __future__ import annotations

import random

import numpy as np

IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480

# Closed loop everywhere: one caller, the next input goes only after the
# previous result has returned.
WORKLOADS = {
    "image-full": {
        "kind": "image",
        "protocol": "standard",
        "noise_a": 0.8,
        "sample": None,
    },
    "image-sampled": {
        "kind": "image",
        "protocol": "simplified",
        "noise_a": None,
        "sample": 1_000_000,
    },
    "netdemo-standard": {
        "kind": "netdemo",
        "protocol": "standard",
        # Bits per loopback session. The standard session stalls ~43 ms per
        # bit, so its session is sized to fit one run; in a traced run the
        # untraced and traced sessions are half that each.
        "bits": 400,
        "trace_bits": 200,
    },
    "netdemo-simplified": {
        "kind": "netdemo",
        "protocol": "simplified",
        "bits": 1000,
        "trace_bits": 1000,
    },
}


def ppm_bytes(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6, maxval 255) for an (h, w, 3) uint8 array."""
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def make_image(seed: int) -> bytes:
    """A uniformly random RGB image, so every bitplane is half ones."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(IMAGE_HEIGHT, IMAGE_WIDTH, 3), dtype=np.uint8)
    return ppm_bytes(pixels)


def make_bits(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]
