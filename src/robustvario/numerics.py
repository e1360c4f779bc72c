"""Low-level numerics: chi-square CDF and quantile, small dense Cholesky,
batched Mahalanobis distances, and reproducible random-number streams.

The chi-square CDF/quantile pair backs the MCD consistency factors and the
reweighting cutoff; both are thin wrappers of scipy's regularized
incomplete gamma function and its inverse, with domain checks.  The
Cholesky routine wraps scipy's for the small matrices (dim up to ~20) that
arise in the multivariate variogram fits, adding a symmetry check and a
scale-relative pivot floor; large covariance factorizations for field
simulation live in :mod:`robustvario.simfield`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.special import gammainc, gammaincinv

from .errors import NotPositiveDefiniteError

__all__ = [
    "chisq_cdf",
    "chisq_quantile",
    "cholesky_factor",
    "mahalanobis_sq_many",
    "RngStream",
]


def _check_df(df: float):
    if df <= 0.0 or not math.isfinite(df):
        raise ValueError(f"degrees of freedom must be positive, got {df}")


def chisq_cdf(x: float, df: float) -> float:
    """Distribution function of the chi-square law with ``df`` degrees of
    freedom, evaluated through the regularized lower incomplete gamma."""
    _check_df(df)
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"chi-square CDF argument must be >= 0, got {x}")
    return float(gammainc(0.5 * df, 0.5 * x))


def chisq_quantile(p: float, df: float) -> float:
    """Inverse of :func:`chisq_cdf` in its first argument."""
    _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    return 2.0 * float(gammaincinv(0.5 * df, p))


def _as_sym_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    return a


def cholesky_factor(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a for symmetric positive definite a.

    A pivot L_jj^2 is rejected when it falls at or below
    1e-12 * trace(a)/dim, a scale-relative threshold that avoids spurious
    failures on well-conditioned small matrices.
    """
    a = _as_sym_matrix(a)
    tol = 1e-12 * float(np.trace(a)) / a.shape[0]
    try:
        lower = cholesky(a, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from None
    pivots = np.diag(lower) ** 2
    bad = np.flatnonzero(pivots <= tol)
    if bad.size:
        j = bad[0]
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at column {j} is at or below tolerance {tol:.3e}"
        )
    return lower


def mahalanobis_sq_many(rows, mu, sigma) -> np.ndarray:
    """Squared Mahalanobis distances (x - mu)' sigma^{-1} (x - mu) of every
    row x of ``rows``, through triangular solves against the Cholesky factor
    (no inverse)."""
    rows = np.asarray(rows, dtype=float)
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = _as_sym_matrix(sigma)
    if rows.ndim != 2 or rows.shape[1] != mu.shape[0] or sigma.shape[0] != mu.shape[0]:
        raise ValueError(
            f"dimension mismatch: rows {rows.shape}, mu {mu.shape}, sigma {sigma.shape}"
        )
    lower = cholesky_factor(sigma)
    y = solve_triangular(lower, (rows - mu).T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", y, y)


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one reproducible random substream.

    Identical pairs always reproduce the same draws; distinct stream ids give
    statistically independent sequences, so Monte-Carlo replications can be
    distributed across workers without coordination.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= int(self.stream_id) < 2**64:
            raise ValueError("stream_id must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, int(self.stream_id) + int(offset))
