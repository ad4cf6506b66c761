#!/usr/bin/env python3
"""Generate a deterministic random RGB fixture image as binary PPM."""
import argparse

import numpy as np

from qteleport.imaging import RasterImage, write_raster


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="output .ppm path")
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--seed", type=int, default=6401)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    img = RasterImage(rng.integers(0, 256, size=(args.height, args.width, 3), dtype=np.uint8))
    with open(args.out, "wb") as fh:
        write_raster(img, fh)
    print(f"wrote {args.width}x{args.height} fixture to {args.out}")


if __name__ == "__main__":
    main()
