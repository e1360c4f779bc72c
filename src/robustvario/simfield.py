"""Exact simulation of weakly stationary Gaussian random fields on regular
grids by circulant embedding (Wood & Chan 1994; Dietrich & Newsam 1997).

Over an nx x ny grid the covariance matrix is block-Toeplitz in the lags
-(n-1)..(n-1) per axis.  It embeds in a block-circulant matrix on a torus
of at least (2nx-1) x (2ny-1) cells, whose eigenvalues are one 2-D FFT of
the covariance at the torus lags.  The torus size is odd: its signed lags
then cover those lags exactly, and there is no Nyquist line, on which an
anisotropic covariance would make the circulant asymmetric.  The real part of one FFT of complex
white noise scaled by the square roots of the eigenvalues, cut to the grid,
has exactly the model covariance.  numpy's FFT does not call BLAS, so a
field depends only on its spec and its random stream.  The eigenvalues of
the last spec are cached, so a study computes them once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPositiveDefiniteError
from .grid import Grid
from .numerics import RngStream
from .variomodel import AnisoModel, aniso_variogram

__all__ = ["FieldSpec", "simulate_field"]

MAX_TORUS_CELLS = 2**24  # embedding size guard
_NEG_TOL = 1e-10  # eigenvalues above -_NEG_TOL * largest count as rounding


@dataclass(frozen=True)
class FieldSpec:
    model: AnisoModel
    nx: int
    ny: int
    mean: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InputError("grid dimensions must be >= 1")
        cells = (2 * self.nx - 1) * (2 * self.ny - 1)
        if cells > MAX_TORUS_CELLS:
            raise InputError(
                f"grid of {self.nx}x{self.ny} needs a torus of {cells} cells, "
                f"above the limit {MAX_TORUS_CELLS}"
            )


def _torus_lags(m: int) -> np.ndarray:
    """Signed lags 0, 1, ..., (m-1)/2, -(m-1)/2, ..., -1 of an odd torus axis."""
    j = np.arange(m)
    return np.where(j <= m // 2, j, j - m)


@functools.lru_cache(maxsize=1)
def _torus_eigenvalues(spec: FieldSpec) -> np.ndarray:
    """Eigenvalues of the first nonnegative definite embedding, as a
    read-only (my, mx) array, cached for the last spec.

    The torus starts at (2nx-1) x (2ny-1) and grows by about a quarter per
    axis (at least 2 cells, so it stays odd) while its smallest eigenvalue
    is below -_NEG_TOL times the largest; eigenvalues within that band are
    clipped to 0.  A model whose range is long against the grid needs a
    torus of about twice the range per axis, which the geometric growth
    reaches in few steps.
    """
    mx, my = 2 * spec.nx - 1, 2 * spec.ny - 1
    while mx * my <= MAX_TORUS_CELLS:
        lags = np.stack(np.meshgrid(_torus_lags(mx), _torus_lags(my)), axis=-1)
        cov = 0.5 * (spec.model.sill - aniso_variogram(spec.model, lags))
        eig = np.fft.fft2(cov).real
        if eig.min() >= -_NEG_TOL * eig.max():
            eig = np.maximum(eig, 0.0)
            eig.setflags(write=False)
            return eig
        mx, my = mx + 2 * (mx // 8 + 1), my + 2 * (my // 8 + 1)
    raise NotPositiveDefiniteError(
        f"no circulant embedding of at most {MAX_TORUS_CELLS} cells is nonnegative definite"
    )


def simulate_field(spec: FieldSpec, rng: RngStream) -> Grid:
    """One realization of the field as a fully observed Grid."""
    eig = _torus_eigenvalues(spec)
    z = rng.generator().standard_normal((2,) + eig.shape)
    w = np.fft.fft2(np.sqrt(eig / eig.size) * (z[0] + 1j * z[1]))
    return Grid(spec.mean + w.real[: spec.ny, : spec.nx])
