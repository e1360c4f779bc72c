"""Raster data model and extraction of the multivariate lag vectors.

The grid is rectangular with coordinates s = (x, y), x = 1..nx eastward and
y = 1..ny northward.  Estimation happens along one of four directions, each
with its own lag-vector generator:

    EW    h_l = (l, 0)      SN    h_l = (0, l)
    SWNE  h_l = (l, l)      SENW  h_l = (l, -l)

Two vector constructions feed the multivariate fits: "org" vectors stack the
raw observations (Z(s), Z(s+h_1), ..., Z(s+h_max)), and "diff" vectors stack
the pairwise differences (Z(s)-Z(s+h_1), ..., Z(s)-Z(s+h_max)).  Any vector
touching a masked cell is dropped.

One rule bounds every extraction: the base cells s of a lag offset (dx, dy)
are those for which s and s + (dx, dy) both lie in the grid.  Joint vectors
use the offset h_max times the generator, the pairwise difference sets of
:func:`lag_differences` the single lag; a grid with no such cell raises
``EmptySampleError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, InputError

__all__ = [
    "Grid",
    "Direction",
    "LagSet",
    "VectorSample",
    "extract_org_vectors",
    "extract_diff_vectors",
    "lag_differences",
]


class Direction(enum.Enum):
    EW = "ew"
    SN = "sn"
    SWNE = "swne"
    SENW = "senw"

    @property
    def generator(self) -> tuple[int, int]:
        """Unit lag step (gx, gy); lag l is l times this."""
        return _GENERATORS[self]

    @classmethod
    def parse(cls, name: str) -> "Direction":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise InputError(
                f"unknown direction {name!r}; expected one of ew, sn, swne, senw"
            ) from None


_GENERATORS = {
    Direction.EW: (1, 0),
    Direction.SN: (0, 1),
    Direction.SWNE: (1, 1),
    Direction.SENW: (1, -1),
}


@dataclass
class Grid:
    """Rectangular raster of observations with a missing-value mask.

    ``values`` and ``mask`` are (ny, nx) arrays indexed [y-1, x-1]; row 0 is
    the southernmost row.  ``mask`` is True where the cell is missing.
    Unmasked cells must be finite (``InputError`` otherwise); masked cells
    may hold anything, NaN included.
    """

    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"grid values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.mask is None:
            self.mask = np.zeros(self.values.shape, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError(
                    f"mask shape {self.mask.shape} != values shape {self.values.shape}"
                )
        bad = ~(np.isfinite(self.values) | self.mask)
        if bad.any():
            y, x = np.argwhere(bad)[0]
            raise InputError(
                f"{int(bad.sum())} unmasked cell(s) are not finite, first at x={x + 1}, "
                f"y={y + 1}: {float(self.values[y, x])}"
            )

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.size

    def observed_values(self) -> np.ndarray:
        return self.values[~self.mask]

    def copy(self) -> "Grid":
        return Grid(self.values.copy(), self.mask.copy())


@dataclass(frozen=True)
class LagSet:
    """Direction plus the lag vectors h_1..h_{h_max} estimated jointly."""

    direction: Direction
    h_max: int

    def __post_init__(self):
        if self.h_max < 1:
            raise InputError(f"h_max must be >= 1, got {self.h_max}")

    @property
    def lag_vectors(self) -> tuple[tuple[int, int], ...]:
        """h_l = l * generator for l = 1..h_max."""
        gx, gy = self.direction.generator
        return tuple((l * gx, l * gy) for l in range(1, self.h_max + 1))


@dataclass
class VectorSample:
    """Rows of lag vectors, one per base location, all fully observed."""

    rows: np.ndarray
    origin_coords: np.ndarray

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        self.origin_coords = np.asarray(self.origin_coords, dtype=int)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def _window(g: Grid, dx: int, dy: int) -> tuple[int, int, int, int]:
    """Index bounds (y0, y1, x0, x1) of the base cells s for which s and
    s + (dx, dy), dx >= 0, both lie inside the grid (0-based, half-open)."""
    x0, x1 = 0, g.nx - dx
    y0 = max(0, -dy)
    y1 = g.ny - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        raise EmptySampleError(f"grid {g.nx}x{g.ny} too small for lag ({dx}, {dy})")
    return y0, y1, x0, x1


def _component_stack(g: Grid, lags: LagSet) -> tuple[np.ndarray, np.ndarray]:
    """Rows (Z(s), Z(s+h_1), ..., Z(s+h_max)) and 1-based coordinates of the
    fully observed base cells s, in scan order."""
    gx, gy = lags.direction.generator
    y0, y1, x0, x1 = _window(g, lags.h_max * gx, lags.h_max * gy)
    h, w = y1 - y0, x1 - x0
    comps = []
    bad = np.zeros((h, w), dtype=bool)
    for l in range(lags.h_max + 1):
        ys, xs = y0 + l * gy, x0 + l * gx
        comps.append(g.values[ys:ys + h, xs:xs + w].ravel())
        bad |= g.mask[ys:ys + h, xs:xs + w]
    keep = ~bad.ravel()
    if not keep.any():
        raise EmptySampleError("no fully observed lag vectors in the grid")
    rows = np.stack(comps, axis=1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    coords = np.stack([xx.ravel() + 1, yy.ravel() + 1], axis=1)
    return rows[keep], coords[keep]


def extract_org_vectors(g: Grid, lags: LagSet) -> VectorSample:
    """Vectors (Z(s), Z(s+h_1), ..., Z(s+h_max)), dimension h_max + 1.

    Base locations are scanned y = 1..ny outer and x = 1..nx inner, so the
    row order is deterministic.  On a fully observed grid the row count is
    ny*(nx-h_max) for EW, nx*(ny-h_max) for SN and (nx-h_max)*(ny-h_max)
    for the diagonals.
    """
    return VectorSample(*_component_stack(g, lags))


def extract_diff_vectors(g: Grid, lags: LagSet) -> VectorSample:
    """Vectors (Z(s)-Z(s+h_1), ..., Z(s)-Z(s+h_max)), dimension h_max."""
    rows, coords = _component_stack(g, lags)
    return VectorSample(rows[:, :1] - rows[:, 1:], coords)


def lag_differences(g: Grid, lag: tuple[int, int]) -> np.ndarray:
    """All observed differences Z(s) - Z(s+h) at one exact lag h = (dx, dy).

    Feeds the pairwise estimators (Matheron, Genton), which treat each lag
    separately and therefore keep pairs that joint extraction would drop.
    """
    dx, dy = int(lag[0]), int(lag[1])
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy  # sign of h is immaterial for difference sets
    y0, y1, x0, x1 = _window(g, dx, dy)
    base, shifted = np.s_[y0:y1, x0:x1], np.s_[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    ok = ~(g.mask[base] | g.mask[shifted])
    diffs = (g.values[base] - g.values[shifted])[ok]
    if diffs.size == 0:
        raise EmptySampleError(f"no observed pairs at lag ({dx}, {dy})")
    return diffs
