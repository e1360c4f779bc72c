"""Outlier injection: :func:`contaminate` plants either one spatially
aggregated block or isolated outliers at random positions, as the
:class:`ContaminationSpec` ``kind`` says.

Both kinds draw the contaminated cells' replacement values (or, in
additive mode, the added values) independently from N(mu0, sigma0^2), after
drawing the positions from the same generator.  The number of contaminated
cells is always m = ceil(eps * n), and the m cells are distinct and inside
the grid.  The block is built "as quadratic as possible" around a uniformly
drawn center (widened on grids too thin for a square) and translated
minimally inward when it would leave the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .numerics import RngStream

__all__ = ["ContaminationSpec", "contaminate"]


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

    The block fills a w x r rectangle (w = min(nx, max(ceil(sqrt(m)),
    ceil(m/ny))) columns, r = ceil(m/w) rows) row-major, dropping trailing
    cells of the last row, and anchors the center at in-block position
    (ceil(w/2), ceil(r/2)).  On a square grid w = ceil(sqrt(m)); a grid too
    thin for that gets a wider block, so the rectangle always fits.
    """
    w = min(nx, max(math.ceil(math.sqrt(m)), math.ceil(m / ny)))
    r = math.ceil(m / w)
    ax, ay = math.ceil(w / 2), math.ceil(r / 2)
    x_left = center[0] - (ax - 1)
    y_bottom = center[1] - (ay - 1)
    x_left = min(max(x_left, 1), nx - w + 1)
    y_bottom = min(max(y_bottom, 1), ny - r + 1)
    return [(x_left + i % w, y_bottom + i // w) for i in range(m)]


def contaminate(
    g: Grid, spec: ContaminationSpec, rng: RngStream
) -> tuple[Grid, set[tuple[int, int]]]:
    """Contaminate ceil(eps*n) distinct cells of a copy of ``g``, as one
    block or as isolated cells drawn uniformly without replacement;
    returns (grid, cell set)."""
    gen = rng.generator()
    n = g.n_cells
    m = spec.n_cells(n)
    if m == 0:
        return g.copy(), set()
    if spec.kind == "block":
        center_flat = int(gen.integers(n))
        center = (center_flat % g.nx + 1, center_flat // g.nx + 1)
        cells = _block_cells(g.nx, g.ny, center, m)
    else:
        flat = gen.choice(n, size=m, replace=False)
        cells = [(int(f) % g.nx + 1, int(f) // g.nx + 1) for f in flat]
    out = g.copy()
    draws = spec.mu0 + spec.sigma0 * gen.standard_normal(m)
    x, y = np.array(cells).T
    if spec.mode == "substitutive":
        out.values[y - 1, x - 1] = draws
    else:
        out.values[y - 1, x - 1] += draws
    return out, set(cells)
