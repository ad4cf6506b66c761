"""Raster I/O and bitplane algebra for 8-bit RGB images.

Interchange formats are binary PPM (P6, maxval 255) for images and binary
PBM (P4) for bitplanes, where a 1 bit renders black. Plane 7 is the MSB,
plane 0 the LSB. The canonical bit enumeration used everywhere downstream
is: channel R,G,B outermost, then plane 7 down to 0, then row-major pixels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

CHANNEL_NAMES = ("R", "G", "B")
PLANES_PER_CHANNEL = 8
BITS_PER_PIXEL = 24
# The planes in canonical order, "R7" .. "B0": row k of `plane_ones`.
PLANE_NAMES = tuple(f"{c}{p}" for c in CHANNEL_NAMES for p in range(7, -1, -1))


@dataclass
class RasterImage:
    """8-bit, 3-channel raster; pixels shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) pixel array, got shape {p.shape}")
        if p.dtype != np.uint8:
            raise ValueError(f"expected uint8 samples, got {p.dtype}")
        self.pixels = p

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def total_bits(self) -> int:
        return self.width * self.height * BITS_PER_PIXEL


@dataclass
class Bitplane:
    """One bit position of one channel across the whole image."""

    channel: int  # 0=R, 1=G, 2=B
    plane_index: int  # 7=MSB .. 0=LSB
    bits: np.ndarray  # (height, width) of {0,1}

    def __post_init__(self):
        if not 0 <= self.channel <= 2:
            raise ValueError(f"channel {self.channel} outside 0..2")
        if not 0 <= self.plane_index <= 7:
            raise ValueError(f"plane index {self.plane_index} outside 0..7")
        b = np.asarray(self.bits, dtype=np.uint8)
        if b.ndim != 2:
            raise ValueError("bitplane must be a 2-D array")
        if b.max(initial=0) > 1:
            raise ValueError("bitplane values must be 0 or 1")
        self.bits = b


class BitAddress(NamedTuple):
    row: int
    col: int
    channel: int
    plane: int


class PnmError(ValueError):
    """Malformed or unsupported PNM payload."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PnmError("truncated header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_raster(source) -> RasterImage:
    """Parse a binary PPM (P6) image. Header comments are skipped."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()

    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise PnmError(f"unsupported format {magic!r}, expected P6")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise PnmError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"maxval {maxval} unsupported, expected 255")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height * 3]
    if len(payload) != width * height * 3:
        raise PnmError("truncated pixel payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()
    return RasterImage(pixels)


def write_raster(img: RasterImage) -> bytes:
    """Emit canonical binary PPM bytes (no comments)."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def slice_bitplanes(img: RasterImage, channel: int) -> list[Bitplane]:
    """All 8 planes of one channel; element k carries plane_index k."""
    if not 0 <= channel <= 2:
        raise ValueError(f"channel {channel} outside 0..2")
    samples = img.pixels[:, :, channel]
    return [
        Bitplane(channel, k, (samples >> k) & 1)
        for k in range(PLANES_PER_CHANNEL)
    ]


def assemble_bitplanes(planes) -> np.ndarray:
    """Exact inverse of slice_bitplanes: 8 planes back into channel samples."""
    planes = list(planes)
    if len(planes) != PLANES_PER_CHANNEL:
        raise ValueError(f"expected 8 planes, got {len(planes)}")
    seen = set()
    shape = planes[0].bits.shape
    out = np.zeros(shape, dtype=np.uint16)
    for p in planes:
        if p.bits.shape != shape:
            raise ValueError("bitplane dimensions disagree")
        if p.plane_index in seen:
            raise ValueError(f"plane index {p.plane_index} appears twice")
        seen.add(p.plane_index)
        out += p.bits.astype(np.uint16) << p.plane_index
    return out.astype(np.uint8)


def write_bitplane(plane: Bitplane) -> bytes:
    """Emit binary PBM bytes; a 1 bit is black."""
    h, w = plane.bits.shape
    header = f"P4\n{w} {h}\n".encode("ascii")
    packed = np.packbits(plane.bits, axis=1)
    return header + packed.tobytes()


def bit_stream(img: RasterImage) -> Iterator[tuple[BitAddress, int]]:
    """Every bit of the image in canonical order, with its address."""
    pixels = img.pixels
    h, w = pixels.shape[0], pixels.shape[1]
    for channel in range(3):
        samples = pixels[:, :, channel]
        for plane in range(7, -1, -1):
            bits = (samples >> plane) & 1
            for row in range(h):
                br = bits[row]
                for col in range(w):
                    yield BitAddress(row, col, channel, plane), int(br[col])


def bit_array(img: RasterImage) -> np.ndarray:
    """Flat uint8 array of all bits in canonical order (vectorized)."""
    channels = np.ascontiguousarray(img.pixels.transpose(2, 0, 1))
    planes = np.empty((3, PLANES_PER_CHANNEL) + channels.shape[1:], dtype=np.uint8)
    for pos in range(PLANES_PER_CHANNEL):  # (channel, plane 7..0, row, col)
        out = planes[:, pos]
        np.right_shift(channels, 7 - pos, out=out)
        np.bitwise_and(out, 1, out=out)
    return planes.reshape(-1)


def image_from_bits(bits: np.ndarray, width: int, height: int) -> RasterImage:
    """Rebuild an image from a canonical-order flat bit array."""
    expected = width * height * BITS_PER_PIXEL
    if bits.size != expected:
        raise ValueError(f"expected {expected} bits, got {bits.size}")
    planes = np.asarray(bits, dtype=np.uint8).reshape(3, 8, height, width)  # planes 7..0
    channels = planes[:, 0] << 7
    for pos in range(1, 8):
        channels |= planes[:, pos] << (7 - pos)
    return RasterImage(channels.transpose(1, 2, 0).copy())


def plane_ones(
    pixels: np.ndarray, indices: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per plane, rows in PLANE_NAMES order: (1-bits, bits) over every bit
    of the (h, w, 3) `pixels`, or over the canonical positions `indices`,
    which must be strictly increasing and inside the image.

    Each plane is one contiguous segment of the canonical enumeration, so
    its positions are a slice of `indices` (edges from `np.searchsorted`)
    and their pixel offsets are the positions less the plane's start. The
    bits are read straight from the samples: nothing holds a byte per bit."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) pixels, got shape {pixels.shape}")
    per_plane = pixels.shape[0] * pixels.shape[1]
    edges = np.arange(BITS_PER_PIXEL + 1) * per_plane
    if indices is not None:
        if indices.size and (indices[0] < 0 or indices[-1] >= edges[-1]):
            raise ValueError(f"indices outside 0..{edges[-1] - 1}")
        if np.any(indices[1:] <= indices[:-1]):
            raise ValueError("indices must be strictly increasing")
        edges = np.searchsorted(indices, edges)
    channels = np.ascontiguousarray(pixels.transpose(2, 0, 1)).reshape(3, per_plane)
    ones = np.empty(BITS_PER_PIXEL, dtype=np.int64)
    for row in range(BITS_PER_PIXEL):
        channel, pos = divmod(row, PLANES_PER_CHANNEL)
        samples = channels[channel]
        if indices is not None:
            samples = samples[indices[edges[row] : edges[row + 1]] - row * per_plane]
        ones[row] = np.count_nonzero(samples & (0x80 >> pos))
    return ones, np.diff(edges)


def address_of(index: int, width: int, height: int) -> BitAddress:
    """The address at a position of the canonical enumeration."""
    per_plane = width * height
    channel, rem = divmod(index, PLANES_PER_CHANNEL * per_plane)
    plane_pos, rem = divmod(rem, per_plane)
    row, col = divmod(rem, width)
    return BitAddress(row, col, channel, 7 - plane_pos)
