"""Codec tests: PPM/PBM round trips, bitplane algebra, canonical bit order."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.imaging import (
    BitAddress,
    Bitplane,
    PnmError,
    RasterImage,
    address_of,
    assemble_bitplanes,
    bit_array,
    bit_stream,
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
    assert write_raster(img) == b"P6\n2 2\n255\n" + FIXTURE_2X2


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
    blob = write_raster(image_16)
    assert write_raster(load_raster(blob)) == blob


def test_load_from_path(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + FIXTURE_2X2)
    assert load_raster(path).pixels.reshape(-1).tolist() == list(FIXTURE_2X2)


def test_ppm_io_copies_the_pixels_once(tmp_path):
    """Reading holds the file's bytes and the pixel array, with no payload
    slice between them; writing copies the pixels into its output once. A
    trailing byte after the payload is ignored, and a bytearray loads too."""
    import tracemalloc

    img = _every_byte_image(width=160, height=120)
    size = img.pixels.size
    blob = write_raster(img)
    path = tmp_path / "big.ppm"
    path.write_bytes(blob + b"\n")
    tracemalloc.start()
    try:
        loaded = load_raster(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        written = write_raster(loaded)
        write_peak = tracemalloc.get_traced_memory()[1] - loaded.pixels.nbytes
    finally:
        tracemalloc.stop()
    assert written == blob
    assert loaded.pixels.flags.writeable and loaded.pixels.flags.owndata
    assert read_peak < 2.25 * size, (read_peak, size)
    assert write_peak < 1.25 * size, (write_peak, size)
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


@settings(max_examples=80, deadline=None)
@given(img=_random_images())
def test_plane_ones_matches_bit_array(img):
    per_plane = img.width * img.height
    ones = plane_ones(img.pixels)
    assert ones.dtype == np.int64
    assert ones.tolist() == bit_array(img).reshape(24, per_plane).sum(axis=1).tolist()


def test_raster_image_validates_shape_and_dtype():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4, 3), dtype=np.uint16))
