"""Raster I/O and bitplane algebra for 8-bit RGB images.

Interchange formats are binary PPM (P6, maxval 255) for images and binary
PBM (P4) for bitplanes, where a 1 bit renders black. Plane 7 is the MSB,
plane 0 the LSB. The canonical bit enumeration used everywhere downstream
is: channel R,G,B outermost, then plane 7 down to 0, then row-major pixels.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

CHANNEL_NAMES = ("R", "G", "B")
PLANES_PER_CHANNEL = 8
BITS_PER_PIXEL = 24
# The planes in canonical order, "R7" .. "B0": row k of `plane_ones`.
PLANE_NAMES = tuple(f"{c}{p}" for c in CHANNEL_NAMES for p in range(7, -1, -1))
# Bytes of working buffer a counter holds, whatever the image: `count_ones`
# counts _BLOCK words at a time, `plane_ones` splits _BLOCK // 2 pixels into
# two _BLOCK // 2-byte buffers. Small enough to stay in cache, large enough
# that the per-block Python steps cost little.
_BLOCK = 1 << 18
# The PPM reader's first read; a header longer than this is read on.
_HEAD_READ = 256


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


def _next_token(data: bytes, pos: int) -> tuple[bytes | None, int]:
    """The header token at or after `pos`, past whitespace and comments, and
    the position of the whitespace byte that ends it; None when `data` ends
    before that byte."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                return None, n
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if pos >= n:
        return None, n
    return data[start:pos], pos


def _parse_header(data: bytes) -> tuple[int, int, int] | None:
    """(width, height, payload offset) of the P6 header that starts `data`,
    or None when `data` ends inside it. A malformed header raises PnmError
    as soon as the bad field is read."""
    magic, pos = _next_token(data, 0)
    if magic is None:
        return None
    if magic != b"P6":
        raise PnmError(f"unsupported format {magic!r}, expected P6")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if tok is None:
            return None
        if not tok.isdigit():
            raise PnmError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"maxval {maxval} unsupported, expected 255")
    return width, height, pos + 1  # single whitespace byte after maxval


def load_raster(source) -> RasterImage:
    """Parse a binary PPM (P6) image from bytes or a path. Header comments
    are skipped. The payload is read straight into the pixel array: a short
    first read for the header (read on while a comment runs past it), then
    the rest in place, so nothing else holds a copy of it. The source's
    length is checked against the header's size before the array exists."""
    if isinstance(source, (bytes, bytearray)):
        fh = io.BytesIO(source)
    else:
        fh = open(source, "rb", buffering=0)
    with fh:
        head = fh.read(_HEAD_READ)
        while (header := _parse_header(head)) is None:
            more = fh.read(max(len(head), _HEAD_READ))
            if not more:
                raise PnmError("truncated header")
            head += more
        width, height, pos = header
        size = width * height * 3
        if fh.seek(0, io.SEEK_END) - pos < size:
            raise PnmError("truncated pixel payload")
        fh.seek(len(head))
        pixels = np.empty((height, width, 3), dtype=np.uint8)
        flat = memoryview(pixels).cast("B")
        filled = min(len(head) - pos, size)
        flat[:filled] = head[pos : pos + size]
        while filled < size:  # a file that shrinks while it is read
            got = fh.readinto(flat[filled:])
            if not got:
                raise PnmError("truncated pixel payload")
            filled += got
    return RasterImage(pixels)


def write_raster(img: RasterImage, fh) -> None:
    """Write canonical binary PPM (no comments) to the binary file object
    `fh`: the header, then the pixel buffer itself, with no copy of it."""
    fh.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
    fh.write(memoryview(np.ascontiguousarray(img.pixels)).cast("B"))


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


def count_ones(pixels: np.ndarray) -> int:
    """The 1-bits of every byte of the uint8 `pixels`, in total: one
    unmasked popcount (`np.bitwise_count`) over the buffer viewed as 64-bit
    words, _BLOCK words at a time into one reused count buffer, plus the
    size % 8 bytes past the last word. It reads each byte once; use
    `plane_ones` when the per-plane split is needed."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 samples, got {pixels.dtype}")
    flat = np.ascontiguousarray(pixels).reshape(-1)
    body = flat.size - flat.size % 8
    words = flat[:body].view(np.uint64)
    total = int(np.bitwise_count(flat[body:]).sum())
    counts = np.empty(min(_BLOCK, words.size), dtype=np.uint8)
    for start in range(0, words.size, _BLOCK):
        block = words[start : start + _BLOCK]
        out = counts[: block.size]
        np.bitwise_count(block, out=out)
        total += int(out.sum())
    return total


def plane_ones(pixels: np.ndarray) -> np.ndarray:
    """The 1-bits of each plane of the (h, w, 3) `pixels`, rows in
    PLANE_NAMES order. It works over blocks of at most _BLOCK // 2 pixels:
    one channel of a block is copied into one reused buffer, and each of
    its eight planes is masked into another and counted, so it holds
    neither a byte per bit nor a copy of the image. A whole image's
    total alone is `count_ones`, which is faster."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) pixels, got shape {pixels.shape}")
    flat = pixels.reshape(-1, 3)
    ones = np.zeros(BITS_PER_PIXEL, dtype=np.int64)
    samples = np.empty(min(_BLOCK // 2, flat.shape[0]), dtype=np.uint8)
    masked = np.empty_like(samples)
    for start in range(0, flat.shape[0], samples.size or 1):
        block = flat[start : start + samples.size]
        chan, mask = samples[: block.shape[0]], masked[: block.shape[0]]
        for channel in range(3):
            np.copyto(chan, block[:, channel])
            for pos in range(PLANES_PER_CHANNEL):  # plane 7..0
                np.bitwise_and(chan, 0x80 >> pos, out=mask)
                ones[channel * PLANES_PER_CHANNEL + pos] += np.count_nonzero(mask)
    return ones


def address_of(index: int, width: int, height: int) -> BitAddress:
    """The address at a position of the canonical enumeration."""
    per_plane = width * height
    channel, rem = divmod(index, PLANES_PER_CHANNEL * per_plane)
    plane_pos, rem = divmod(rem, per_plane)
    row, col = divmod(rem, width)
    return BitAddress(row, col, channel, 7 - plane_pos)
