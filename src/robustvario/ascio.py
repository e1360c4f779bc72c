"""Plain-text input and output: ESRI ASCII grids, quality masking, robust
standardization, and the CSV tables that every command writes.

The ASC layout is six header lines (ncols, nrows, xllcorner, yllcorner,
cellsize, NODATA_value) followed by nrows data rows, northernmost first;
loading reverses the rows so that grid row y increases northward, and maps
nodata cells to the mask.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import AscFormatError, InputError, NumericalError
from .grid import Grid

__all__ = ["AscHeader", "load_asc", "save_asc", "apply_quality_mask", "standardize", "write_csv"]

MAD_CONSISTENCY = 1.4826  # standard-normal consistency of the MAD

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class AscHeader:
    ncols: int
    nrows: int
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    cellsize: float = 1.0
    nodata_value: float = -9999.0


def load_asc(path) -> tuple[Grid, AscHeader]:
    """Read an ESRI ASCII grid into a Grid (nodata cells masked) and the
    header it was read with."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    for i, key in enumerate(_HEADER_KEYS):
        if i >= len(lines):
            raise AscFormatError(f"{path}: missing header line {i + 1} ({key})")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise AscFormatError(
                f"{path}: line {i + 1}: expected '{key} <value>', got {lines[i]!r}"
            )
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise AscFormatError(
                f"{path}: line {i + 1}: cannot parse {parts[1]!r} as a number"
            ) from None
    for key in ("ncols", "nrows"):
        if not header[key].is_integer() or header[key] < 1:
            raise AscFormatError(f"{path}: {key} must be a positive integer, got {header[key]}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    nodata = header["nodata_value"]

    cells = []
    for lineno, line in enumerate(lines[len(_HEADER_KEYS):], start=len(_HEADER_KEYS) + 1):
        for col, token in enumerate(line.split(), start=1):
            try:
                cells.append(float(token))
            except ValueError:
                raise AscFormatError(
                    f"{path}: line {lineno}, field {col}: cannot parse {token!r}"
                ) from None
    if len(cells) != ncols * nrows:
        raise AscFormatError(
            f"{path}: expected {ncols * nrows} cells, found {len(cells)}"
        )
    north_first = np.asarray(cells, dtype=float).reshape(nrows, ncols)
    values = north_first[::-1].copy()  # row 0 becomes the southernmost row
    mask = values == nodata
    values[mask] = np.nan
    return Grid(values, mask), AscHeader(
        ncols, nrows, header["xllcorner"], header["yllcorner"], header["cellsize"], nodata
    )


def save_asc(path, g: Grid, header: AscHeader | None = None):
    """Write a Grid as an ESRI ASCII grid (masked cells become nodata)."""
    h = header or AscHeader(ncols=g.nx, nrows=g.ny)
    if (h.ncols, h.nrows) != (g.nx, g.ny):
        raise ValueError("header dimensions do not match the grid")
    with open(path, "w") as fh:
        fh.write(f"ncols {h.ncols}\n")
        fh.write(f"nrows {h.nrows}\n")
        fh.write(f"xllcorner {h.xllcorner:.17g}\n")
        fh.write(f"yllcorner {h.yllcorner:.17g}\n")
        fh.write(f"cellsize {h.cellsize:.17g}\n")
        fh.write(f"NODATA_value {h.nodata_value:.17g}\n")
        # northernmost file row first
        np.savetxt(fh, np.where(g.mask, h.nodata_value, g.values)[::-1], fmt="%.17g")


def write_csv(path, names, rows) -> None:
    """Write a CSV table with the header ``names`` and one line per row of
    values, floats as ``.17g`` (they read back to the same bits) and other
    values by ``str``; to stdout when ``path`` is None."""
    lines = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
             for row in (names, *rows))
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def apply_quality_mask(g: Grid, quality: Grid, clear_codes) -> Grid:
    """Mask every cell whose quality code is not in ``clear_codes``;
    already-masked cells stay masked."""
    if (quality.nx, quality.ny) != (g.nx, g.ny):
        raise InputError(
            f"quality raster is {quality.nx}x{quality.ny}, grid is {g.nx}x{g.ny}"
        )
    clear = np.isin(quality.values, list(clear_codes))
    out = g.copy()
    out.mask |= ~clear
    return out


def standardize(g: Grid) -> tuple[Grid, float]:
    """Divide observed cells by the consistency-scaled MAD.

    Returns the standardized grid and the scale used (1.4826 times the raw
    median absolute deviation from the median), so estimates can be
    back-transformed by multiplying with scale^2.
    """
    observed = g.observed_values()
    if observed.size < 2:
        raise NumericalError("standardization needs at least 2 observed cells")
    med = np.median(observed)
    raw_mad = np.median(np.abs(observed - med))
    if raw_mad <= 0.0:
        raise NumericalError("zero spread: MAD of the observed cells is 0")
    scale = MAD_CONSISTENCY * raw_mad
    out = g.copy()
    out.values = out.values / scale
    return out, float(scale)
