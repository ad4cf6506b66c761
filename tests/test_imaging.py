"""Codec tests: PPM/PBM round trips, bitplane algebra, canonical bit order."""
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qteleport import imaging
from qteleport.imaging import (
    BitAddress,
    Bitplane,
    PnmError,
    RasterImage,
    address_of,
    assemble_bitplanes,
    bit_array,
    bit_stream,
    count_ones,
    image_from_bits,
    load_raster,
    plane_ones,
    slice_bitplanes,
    write_bitplane,
    write_raster,
)

FIXTURE_2X2 = bytes(
    [255, 0, 0, 0, 255, 0,
     0, 0, 255, 200, 1, 127]
)


def fixture_image() -> RasterImage:
    return RasterImage(np.frombuffer(FIXTURE_2X2, dtype=np.uint8).reshape(2, 2, 3).copy())


def ppm_bytes(img: RasterImage) -> bytes:
    buf = io.BytesIO()
    write_raster(img, buf)
    return buf.getvalue()


# ------------------------------------------------------------------- PPM


def test_load_single_red_pixel():
    img = load_raster(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    assert img.width == img.height == 1
    assert img.pixels[0, 0].tolist() == [255, 0, 0]


def test_load_known_fixture_samples():
    data = b"P6\n2 2\n255\n" + FIXTURE_2X2
    img = load_raster(data)
    assert img.pixels.reshape(-1).tolist() == list(FIXTURE_2X2)


def test_load_skips_header_comments():
    data = b"P6\n# shot on a potato\n2 2\n# direct positive\n255\n" + FIXTURE_2X2
    img = load_raster(data)
    assert img.pixels.reshape(-1).tolist() == list(FIXTURE_2X2)
    # comments are normalized away on re-emission
    assert ppm_bytes(img) == b"P6\n2 2\n255\n" + FIXTURE_2X2


def test_load_rejects_p5():
    with pytest.raises(PnmError):
        load_raster(b"P5\n1 1\n255\n\x00")


def test_load_rejects_wrong_maxval():
    with pytest.raises(PnmError):
        load_raster(b"P6\n1 1\n65535\n" + bytes(6))


def test_load_rejects_truncated_payload():
    with pytest.raises(PnmError):
        load_raster(b"P6\n2 2\n255\n" + FIXTURE_2X2[:-1])


def test_ppm_round_trip_bytes_identical(image_16):
    blob = ppm_bytes(image_16)
    assert ppm_bytes(load_raster(blob)) == blob


def test_load_from_path(tmp_path, image_16):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + FIXTURE_2X2)
    assert load_raster(path).pixels.reshape(-1).tolist() == list(FIXTURE_2X2)
    blob = ppm_bytes(image_16)
    path.write_bytes(blob)
    loaded = load_raster(path)
    assert np.array_equal(loaded.pixels, load_raster(blob).pixels)
    assert loaded.pixels.flags.writeable and loaded.pixels.flags.owndata


def test_load_from_path_reads_any_header_length(tmp_path):
    """A comment longer than the reader's first read (10 KiB here) still
    loads, from a path as from bytes."""
    comment = b"# " + b"x" * (10 * 2**10) + b"\n"
    data = b"P6\n" + comment + b"2 2\n" + comment + b"255\n" + FIXTURE_2X2
    path = tmp_path / "long_header.ppm"
    path.write_bytes(data)
    loaded = load_raster(path)
    assert loaded.pixels.reshape(-1).tolist() == list(FIXTURE_2X2)
    assert np.array_equal(loaded.pixels, load_raster(data).pixels)
    assert loaded.pixels.flags.writeable and loaded.pixels.flags.owndata


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P6\n2 2\n255\n" + FIXTURE_2X2[:-1], "truncated pixel payload"),
        (b"P6\n2 2\n255\n", "truncated pixel payload"),
        (b"P6\n2 2\n255", "truncated header"),
        (b"P6\n2 2\n# no end", "truncated header"),
        # Checked against the source's length before any array is sized.
        (b"P6\n1000000 1000000\n255\n" + bytes(8), "truncated pixel payload"),
    ],
    ids=["payload-short", "payload-missing", "maxval-unended", "comment-unended", "huge-claim"],
)
def test_load_from_path_rejects_truncated_files(tmp_path, data, message):
    path = tmp_path / "short.ppm"
    path.write_bytes(data)
    with pytest.raises(PnmError, match=message):
        load_raster(path)
    with pytest.raises(PnmError, match=message):
        load_raster(data)


def test_ppm_io_copies_the_pixels_once(tmp_path):
    """Reading a file holds the pixel array and a short header read, never
    the file's bytes; writing to a file copies no pixels at all. A trailing
    byte after the payload is ignored, and a bytearray loads too."""
    import tracemalloc

    img = _every_byte_image(width=160, height=120)
    size = img.pixels.size
    blob = ppm_bytes(img)
    path = tmp_path / "big.ppm"
    path.write_bytes(blob + b"\n")
    out = tmp_path / "out.ppm"
    tracemalloc.start()
    try:
        loaded = load_raster(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(out, "wb") as fh:
            write_raster(loaded, fh)
        write_peak = tracemalloc.get_traced_memory()[1] - loaded.pixels.nbytes
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == blob
    assert loaded.pixels.flags.writeable and loaded.pixels.flags.owndata
    # The file objects, their buffers and the header are the few KiB left.
    assert read_peak < size + 16 * 2**10, (read_peak, size)
    assert write_peak < 16 * 2**10, (write_peak, size)
    assert np.array_equal(load_raster(bytearray(blob)).pixels, img.pixels)


# -------------------------------------------------------------- bitplanes


def test_slice_all_ones_and_lsb_only():
    img = RasterImage(np.full((1, 1, 3), 255, dtype=np.uint8))
    assert all(p.bits[0, 0] == 1 for p in slice_bitplanes(img, 0))
    img = RasterImage(np.full((1, 1, 3), 1, dtype=np.uint8))
    planes = slice_bitplanes(img, 1)
    assert [p.bits[0, 0] for p in planes] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_slice_sample_200():
    img = RasterImage(np.full((1, 1, 3), 200, dtype=np.uint8))
    got = {p.plane_index: int(p.bits[0, 0]) for p in slice_bitplanes(img, 2)}
    assert got == {7: 1, 6: 1, 5: 0, 4: 0, 3: 1, 2: 0, 1: 0, 0: 0}  # 200 = 11001000b


def test_assemble_all_ones_gives_255():
    planes = [Bitplane(0, k, np.ones((2, 3), dtype=np.uint8)) for k in range(8)]
    assert np.array_equal(assemble_bitplanes(planes), np.full((2, 3), 255, dtype=np.uint8))


def test_slice_assemble_identity_over_all_sample_values():
    samples = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = RasterImage(np.stack([samples] * 3, axis=2))
    for channel in range(3):
        rebuilt = assemble_bitplanes(slice_bitplanes(img, channel))
        assert np.array_equal(rebuilt, samples)


def test_assemble_rejects_duplicate_plane():
    planes = [Bitplane(0, k, np.zeros((1, 1), dtype=np.uint8)) for k in range(8)]
    planes[3] = Bitplane(0, 2, np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        assemble_bitplanes(planes)


def test_fixture_round_trip_through_planes():
    img = fixture_image()
    for channel in range(3):
        rebuilt = assemble_bitplanes(slice_bitplanes(img, channel))
        assert np.array_equal(rebuilt, img.pixels[:, :, channel])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_slice_assemble_identity_random_images(seed):
    rng = np.random.default_rng(seed)
    img = RasterImage(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    for channel in range(3):
        assert np.array_equal(
            assemble_bitplanes(slice_bitplanes(img, channel)), img.pixels[:, :, channel]
        )


# -------------------------------------------------------------------- PBM


def test_pbm_all_black():
    plane = Bitplane(0, 7, np.ones((2, 8), dtype=np.uint8))
    assert write_bitplane(plane) == b"P4\n8 2\n" + bytes([0xFF, 0xFF])


def test_pbm_rows_are_padded_per_row():
    bits = np.zeros((2, 3), dtype=np.uint8)
    bits[0, 0] = 1  # MSB-first packing: 0b10000000
    plane = Bitplane(1, 0, bits)
    assert write_bitplane(plane) == b"P4\n3 2\n" + bytes([0x80, 0x00])


def test_pbm_golden_fixture_msb_plane():
    img = fixture_image()
    plane = slice_bitplanes(img, 0)[7]  # red MSB: samples 255,0,0,200 -> bits 1,0,0,1
    assert np.array_equal(plane.bits, [[1, 0], [0, 1]])
    assert write_bitplane(plane) == b"P4\n2 2\n" + bytes([0x80, 0x40])


# ---------------------------------------------------------- bit streaming


def test_bit_stream_counts():
    assert sum(1 for _ in bit_stream(fixture_image())) == 2 * 2 * 24
    big = RasterImage(np.zeros((1080, 1920, 3), dtype=np.uint8))
    assert big.total_bits() == 49_766_400


def test_bit_stream_first_bit_is_red_msb_origin():
    addr, bit = next(bit_stream(fixture_image()))
    assert addr == BitAddress(row=0, col=0, channel=0, plane=7)
    assert bit == 1  # red sample 255


def test_bit_stream_is_a_bijection():
    img = fixture_image()
    seen = {}
    for addr, bit in bit_stream(img):
        assert addr not in seen
        seen[addr] = bit
    assert len(seen) == img.total_bits()
    rebuilt = np.zeros_like(img.pixels)
    for addr, bit in seen.items():
        rebuilt[addr.row, addr.col, addr.channel] |= bit << addr.plane
    assert np.array_equal(rebuilt, img.pixels)


def test_bit_array_matches_bit_stream(image_16):
    flat = bit_array(image_16)
    for i, (addr, bit) in enumerate(bit_stream(image_16)):
        assert address_of(i, image_16.width, image_16.height) == addr
        assert int(flat[i]) == bit
        if i > 2000:  # spot check is plenty beyond the first planes
            break


def test_image_from_bits_inverts_bit_array(image_16):
    rebuilt = image_from_bits(bit_array(image_16), image_16.width, image_16.height)
    assert np.array_equal(rebuilt.pixels, image_16.pixels)


def _every_byte_image(width: int, height: int) -> RasterImage:
    """Each channel holds every value 0-255 at least once, in its own order."""
    assert width * height >= 256
    rng = np.random.default_rng(2025)
    values = np.arange(width * height) % 256
    channels = [rng.permutation(values) for _ in range(3)]
    return RasterImage(np.stack(channels, axis=-1).astype(np.uint8).reshape(height, width, 3))


def test_image_from_bits_inverts_bit_array_non_square_every_byte():
    import tracemalloc

    img = _every_byte_image(width=48, height=20)
    for channel in range(3):
        assert np.unique(img.pixels[:, :, channel]).size == 256
    bits = bit_array(img)
    tracemalloc.start()
    try:
        rebuilt = image_from_bits(bits, img.width, img.height)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebuilt.pixels.shape == (20, 48, 3)
    assert np.array_equal(rebuilt.pixels, img.pixels)
    # The uint8 channel array, one shifted plane and the pixel copy take
    # 9 bytes a pixel; the bits alone take 24.
    assert peak < bits.size, (peak, bits.size)


def test_bit_array_copies_the_pixels_once():
    """One channel-major copy of the pixels (3 bytes a pixel) plus the 24
    bytes a pixel of output: no reshape or dtype copy of the planes. The
    image is large enough that tracemalloc's few KiB of bookkeeping stay
    well inside the margin."""
    import tracemalloc

    img = _every_byte_image(width=160, height=120)
    tracemalloc.start()
    try:
        bits = bit_array(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.dtype == np.uint8 and bits.flags.c_contiguous
    shifts = np.arange(7, -1, -1)[None, :, None, None]
    want = (img.pixels.transpose(2, 0, 1)[:, None] >> shifts) & 1
    assert np.array_equal(bits, want.reshape(-1))
    assert peak < 1.25 * bits.size, (peak, bits.size)


@st.composite
def _random_images(draw):
    """A random image, 1xN and Nx1 included."""
    n = draw(st.integers(1, 12))
    w, h = draw(st.sampled_from([(n, 1), (1, n), (n, draw(st.integers(2, 12)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return RasterImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def _odd_image(min_bytes: int) -> RasterImage:
    """A random image of an odd pixel count holding at least `min_bytes`
    bytes, so 3 * w * h % 8 != 0."""
    width = 1201
    height = min_bytes // (3 * width) + 1
    height += 1 - height % 2
    rng = np.random.default_rng(min_bytes)
    return RasterImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


# More than two blocks of both counters, the last one ragged: count_ones
# takes 8 * _BLOCK bytes a block and plane_ones _BLOCK // 2 pixels.
_SEVERAL_BLOCKS = _odd_image(2 * 8 * imaging._BLOCK + 8 * 1000)


@settings(max_examples=80, deadline=None)
@given(img=_random_images())
@example(img=RasterImage(np.full((1, 1, 3), 255, dtype=np.uint8)))
@example(img=_odd_image(8 * imaging._BLOCK - 100))  # just under one count_ones block
@example(img=_SEVERAL_BLOCKS)
@example(img=RasterImage(_SEVERAL_BLOCKS.pixels[::-1, ::2]))  # not contiguous
def test_plane_ones_matches_bit_array(img):
    """Both counters agree with the byte-per-bit reference: `plane_ones`
    per plane, `count_ones` in total, over one block, several with a ragged
    last one, and tail bytes past the last 8-byte word."""
    per_plane = img.width * img.height
    bits = bit_array(img)
    ones = plane_ones(img.pixels)
    assert ones.dtype == np.int64
    assert ones.tolist() == bits.reshape(24, per_plane).sum(axis=1).tolist()
    total = count_ones(img.pixels)
    assert type(total) is int
    assert total == int(ones.sum()) == int(bits.sum(dtype=np.int64))


def test_raster_image_validates_shape_and_dtype():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4, 3), dtype=np.uint16))
