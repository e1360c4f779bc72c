"""The Qn robust scale estimator of pairwise absolute differences.

Qn is the k-th smallest of the N(N-1)/2 pairwise distances |x_i - x_j|,
k = C(floor(N/2)+1, 2) (:func:`qn_raw`).  :func:`qn` scales it by the
Gaussian consistency constant ``GAUSSIAN_CONSISTENCY`` = 2.2219 and then by
the finite-sample factor d_N (tabulated for N <= 9, then N/(N+1.4) for odd
and N/(N+3.8) for even N); both are always applied.  The pairwise
enumeration with partial selection is exact and fast enough for the sample
sizes arising here (N up to a few thousand), and doubles as its own oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import SampleTooSmallError

__all__ = ["qn_raw", "qn", "qn_finite_sample_factor"]

GAUSSIAN_CONSISTENCY = 2.2219

_SMALL_N_FACTORS = {2: 0.399, 3: 0.994, 4: 0.512, 5: 0.844, 6: 0.611, 7: 0.857, 8: 0.669, 9: 0.872}


def qn_finite_sample_factor(n: int) -> float:
    """Small-sample unbiasedness factor d_N for Gaussian data."""
    if n <= 9:
        return _SMALL_N_FACTORS.get(n, 1.0)
    return n / (n + 1.4) if n % 2 else n / (n + 3.8)


def qn_raw(sample) -> float:
    """Uncorrected Qn: order statistic of the pairwise absolute differences."""
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise SampleTooSmallError(f"Qn needs at least 2 observations, got {n}")
    h = n // 2 + 1
    k = h * (h - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    diffs = np.abs(x[iu] - x[ju])
    return float(np.partition(diffs, k - 1)[k - 1])


def qn(sample) -> float:
    """Qn scale estimate: (qn_raw * GAUSSIAN_CONSISTENCY) * d_N."""
    x = np.asarray(sample, dtype=float).ravel()
    return qn_raw(x) * GAUSSIAN_CONSISTENCY * qn_finite_sample_factor(x.size)
