import numpy as np
import pytest

from qteleport.imaging import RasterImage, write_raster


def _random_image(width: int, height: int, seed: int) -> RasterImage:
    rng = np.random.default_rng(seed)
    return RasterImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


@pytest.fixture(scope="session")
def image_16() -> RasterImage:
    return _random_image(16, 16, seed=1601)


@pytest.fixture(scope="session")
def image_64() -> RasterImage:
    return _random_image(64, 64, seed=6401)


@pytest.fixture()
def ppm_16(tmp_path, image_16):
    path = tmp_path / "fixture_16.ppm"
    with open(path, "wb") as fh:
        write_raster(image_16, fh)
    return path


@pytest.fixture()
def ppm_64(tmp_path, image_64):
    path = tmp_path / "fixture_64.ppm"
    with open(path, "wb") as fh:
        write_raster(image_64, fh)
    return path
