"""Exact simulation of weakly stationary Gaussian random fields on small
regular grids, through a dense Cholesky factorization of the model
covariance over all grid locations.

The factor for a given spec can be computed once and reused read-only across
Monte-Carlo replications; each replication then costs one matrix-vector
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPositiveDefiniteError
from .grid import Grid
from .numerics import RngStream
from .variomodel import AnisoModel, covariance_matrix

__all__ = ["FieldSpec", "field_cholesky", "simulate_field"]

MAX_CELLS = 10_000  # dense covariance guard


@dataclass(frozen=True)
class FieldSpec:
    model: AnisoModel
    nx: int
    ny: int
    mean: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InputError("grid dimensions must be >= 1")
        if self.nx * self.ny > MAX_CELLS:
            raise InputError(
                f"grid of {self.nx * self.ny} cells exceeds the dense limit {MAX_CELLS}"
            )

    def coords(self) -> np.ndarray:
        """All (x, y) locations in y-outer, x-inner scan order."""
        yy, xx = np.mgrid[1:self.ny + 1, 1:self.nx + 1]
        return np.stack([xx.ravel(), yy.ravel()], axis=1)


def field_cholesky(spec: FieldSpec) -> np.ndarray:
    """Lower Cholesky factor of the location covariance matrix.

    Spherical covariance matrices on grids are positive semidefinite, but
    rounding can produce tiny negative pivots; jitter starting at
    1e-10 * beta/2 is added to the diagonal, escalating tenfold up to
    1e-6 * beta/2 before giving up.
    """
    cov = covariance_matrix(spec.model, spec.coords())
    variance = 0.5 * spec.model.sill
    jitter = 1e-10 * variance
    while True:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-6 * variance:
                raise NotPositiveDefiniteError(
                    "model covariance is not positive semidefinite even after jittering"
                ) from None


def simulate_field(spec: FieldSpec, rng: RngStream, factor: np.ndarray = None) -> Grid:
    """One realization of the field as a fully observed Grid.

    ``factor`` may carry a precomputed :func:`field_cholesky` result so that
    replication loops do not refactorize.
    """
    if factor is None:
        factor = field_cholesky(spec)
    z = rng.generator().standard_normal(spec.nx * spec.ny)
    values = spec.mean + factor @ z
    return Grid(values.reshape(spec.ny, spec.nx))
