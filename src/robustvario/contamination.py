"""Outlier injectors: one spatially aggregated block, or isolated outliers
at random positions.

Both draw the contaminated cells' replacement values independently from
N(mu0, sigma0^2).  The number of contaminated cells is always ceil(eps * n).
The block is built "as quadratic as possible" around a uniformly drawn
center and translated minimally inward when it would leave the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .numerics import RngStream

__all__ = ["ContaminationSpec", "contaminate_block", "contaminate_isolated", "contaminate"]


@dataclass(frozen=True)
class ContaminationSpec:
    kind: str  # "block" or "isolated"
    epsilon: float
    mu0: float = 0.0
    sigma0: float = 1.0
    mode: str = "substitutive"

    def __post_init__(self):
        if self.kind not in ("block", "isolated"):
            raise ValueError(f"kind must be 'block' or 'isolated', got {self.kind!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.mode not in ("substitutive", "additive"):
            raise ValueError(f"mode must be 'substitutive' or 'additive', got {self.mode!r}")

    def n_cells(self, n: int) -> int:
        return math.ceil(self.epsilon * n)


def _block_cells(nx: int, ny: int, center: tuple[int, int], m: int) -> list[tuple[int, int]]:
    """Cells of an m-cell block, as square as possible, centered near
    ``center`` = (x0, y0), translated minimally to stay inside the grid.

    The block fills a w x r rectangle (w = ceil(sqrt(m)) columns,
    r = ceil(m/w) rows) row-major, dropping trailing cells of the last row,
    and anchors the center at in-block position (ceil(w/2), ceil(r/2)).
    """
    w = math.ceil(math.sqrt(m))
    r = math.ceil(m / w)
    ax, ay = math.ceil(w / 2), math.ceil(r / 2)
    x_left = center[0] - (ax - 1)
    y_bottom = center[1] - (ay - 1)
    x_left = min(max(x_left, 1), nx - w + 1)
    y_bottom = min(max(y_bottom, 1), ny - r + 1)
    cells = []
    for j in range(r):
        for i in range(w):
            if len(cells) == m:
                break
            cells.append((x_left + i, y_bottom + j))
    return cells


def contaminate_block(
    g: Grid, spec: ContaminationSpec, rng: RngStream
) -> tuple[Grid, set[tuple[int, int]]]:
    """Plant a single contiguous outlier block; returns (grid, cell set)."""
    if spec.kind != "block":
        raise ValueError("spec.kind must be 'block'")
    gen = rng.generator()
    n = g.n_cells
    m = spec.n_cells(n)
    if m == 0:
        return g.copy(), set()
    if m > n:
        raise ValueError(f"cannot contaminate {m} of {n} cells")
    center_flat = int(gen.integers(n))
    center = (center_flat % g.nx + 1, center_flat // g.nx + 1)
    cells = _block_cells(g.nx, g.ny, center, m)
    return _apply(g, cells, spec, gen), set(cells)


def contaminate_isolated(
    g: Grid, spec: ContaminationSpec, rng: RngStream
) -> tuple[Grid, set[tuple[int, int]]]:
    """Contaminate ceil(eps*n) distinct cells drawn uniformly without
    replacement; returns (grid, cell set)."""
    if spec.kind != "isolated":
        raise ValueError("spec.kind must be 'isolated'")
    gen = rng.generator()
    n = g.n_cells
    m = spec.n_cells(n)
    if m == 0:
        return g.copy(), set()
    flat = gen.choice(n, size=m, replace=False)
    cells = [(int(f) % g.nx + 1, int(f) // g.nx + 1) for f in flat]
    return _apply(g, cells, spec, gen), set(cells)


def contaminate(
    g: Grid, spec: ContaminationSpec, rng: RngStream
) -> tuple[Grid, set[tuple[int, int]]]:
    if spec.kind == "block":
        return contaminate_block(g, spec, rng)
    return contaminate_isolated(g, spec, rng)


def _apply(g: Grid, cells, spec: ContaminationSpec, gen: np.random.Generator) -> Grid:
    out = g.copy()
    draws = spec.mu0 + spec.sigma0 * gen.standard_normal(len(cells))
    for (x, y), w in zip(cells, draws):
        if spec.mode == "substitutive":
            out.values[y - 1, x - 1] = w
        else:
            out.values[y - 1, x - 1] += w
    return out
