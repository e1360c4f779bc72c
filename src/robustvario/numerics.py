"""Low-level numerics: chi-square CDF and quantile, and reproducible
random-number streams.

The chi-square CDF/quantile pair backs the MCD consistency factors and the
reweighting cutoff; both are thin wrappers of scipy's regularized
incomplete gamma function and its inverse, with domain checks.  Squared
Mahalanobis distances live with the MCD code (:mod:`robustvario.mcd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv

from .errors import InputError

__all__ = [
    "chisq_cdf",
    "chisq_quantile",
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
            raise InputError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 0 <= int(self.stream_id) < 2**64:
            raise InputError(f"stream_id must lie in [0, 2**64), got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, int(self.stream_id) + int(offset))
