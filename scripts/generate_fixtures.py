#!/usr/bin/env python3
"""Generate the synthetic vegetation-index fixture: a 60x60 ASC raster with
two planted cloud blocks plus the matching quality raster (0 = clear,
2 = cloud).  Deterministic for a given simulator.  The committed files in
tests/data/ were made by an earlier simulator (a dense Cholesky factor) and
are kept as data: a rerun writes a different field.
"""

import math
import pathlib

import numpy as np

from robustvario.ascio import AscHeader, save_asc
from robustvario.grid import Grid
from robustvario.numerics import RngStream
from robustvario.simfield import FieldSpec, simulate_field
from robustvario.variomodel import AnisoModel

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"

BASE_LEVEL = 0.82      # clean vegetation-index plateau
FIELD_SCALE = 0.012    # spatial variation amplitude
CLOUD_LEVEL = 0.30     # depressed index under cloud
CLOUD_SPREAD = 0.04

# (x0, y0, width, height), 1-based lower-left corners
CLOUD_BLOCKS = [(50, 18, 9, 7), (12, 52, 8, 5)]


def build():
    model = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)
    field = simulate_field(FieldSpec(model, 60, 60), RngStream(20240601, 0))
    values = BASE_LEVEL + FIELD_SCALE * field.values
    quality = np.zeros((60, 60))
    gen = RngStream(20240601, 1).generator()
    for x0, y0, w, h in CLOUD_BLOCKS:
        block = CLOUD_LEVEL + CLOUD_SPREAD * gen.standard_normal((h, w))
        values[y0 - 1:y0 - 1 + h, x0 - 1:x0 - 1 + w] = block
        quality[y0 - 1:y0 - 1 + h, x0 - 1:x0 - 1 + w] = 2.0
    return Grid(values), Grid(quality)


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    grid, quality = build()
    header = AscHeader(ncols=60, nrows=60, xllcorner=0.0, yllcorner=0.0, cellsize=30.0)
    save_asc(OUT_DIR / "ndvi_synthetic.asc", grid, header)
    save_asc(OUT_DIR / "ndvi_quality.asc", quality, header)
    print(f"wrote fixtures to {OUT_DIR}")


if __name__ == "__main__":
    main()
