"""The Qn robust scale estimator of pairwise absolute differences.

Qn is the k-th smallest of the N(N-1)/2 pairwise distances |x_i - x_j|,
k = C(floor(N/2)+1, 2) (:func:`qn_raw`).  :func:`qn` scales it by the
Gaussian consistency constant ``GAUSSIAN_CONSISTENCY`` = 2.2219 and then by
the finite-sample factor d_N (tabulated for N <= 9, then N/(N+1.4) for odd
and N/(N+3.8) for even N); both are always applied.

The k-th difference is selected from the sorted sample without building
the pairs, by per-row candidate bands and weighted-median pivots after
Croux & Rousseeuw (1992) and Johnson & Mizoguchi (1978), in O(N log^2 N)
time and O(N) memory: each of the O(log N) pivot rounds sorts the band
middles and counts each row's differences below the pivot by one
``searchsorted``, checked by the exact comparison and bisected where the
check fails.  The result is the same float that enumerating and
partitioning every |x_i - x_j| gives (see :func:`qn_raw`).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SampleTooSmallError

__all__ = ["qn_raw", "qn", "qn_finite_sample_factor"]

GAUSSIAN_CONSISTENCY = 2.2219

_SMALL_N_FACTORS = {2: 0.399, 3: 0.994, 4: 0.512, 5: 0.844, 6: 0.611, 7: 0.857, 8: 0.669, 9: 0.872}

# Selection gathers and partitions the surviving candidates once at most
# max(_GATHER_PER_ROW * n, _GATHER_MIN) remain.  Any values give the same
# bits; they trade pivot rounds for gather memory.  Going from 4 to 16 per
# row takes the tracemalloc peak at n = 100k from 15.9 to 38.1 MB and saves
# 15-40% of the time (n = 200: 0.22 -> 0.13 ms; n = 10k: 14.7 -> 10.8 ms;
# n = 100k: 211 -> 177 ms; Gaussian samples, process time, 2-vCPU shared
# host, numpy 2.4.6).  The fixed floor of 2^14 candidates (256 kB of
# differences) spares small samples their pivot rounds: every sample with
# n <= 181 is gathered at once, and a call at n = 200 drops from about 0.77
# to 0.19 ms.
_GATHER_PER_ROW = 4
_GATHER_MIN = 2**14


def qn_finite_sample_factor(n: int) -> float:
    """Small-sample unbiasedness factor d_N for Gaussian data."""
    if n <= 9:
        return _SMALL_N_FACTORS.get(n, 1.0)
    return n / (n + 1.4) if n % 2 else n / (n + 3.8)


def qn_raw(sample) -> float:
    """Uncorrected Qn: the k-th smallest pairwise absolute difference,
    k = C(floor(N/2)+1, 2).  The sample must be finite.

    ``_kth_difference`` selects the k-th from the sorted sample.  It is
    exact: IEEE subtraction is sign-symmetric, so the sorted differences
    x_(j) - x_(i), j > i, are the same floats as the |x_i - x_j|, and the
    selection compares exactly those computed differences with its pivots.
    A difference beyond the largest float rounds to +inf and ranks last, so
    a sample whose range overflows still has its Qn, which is inf only when
    the k-th difference itself overflows.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise SampleTooSmallError(f"Qn needs at least 2 observations, got {n}")
    if not np.isfinite(x).all():
        raise InputError("Qn sample must be finite")
    h = n // 2 + 1
    k = h * (h - 1) // 2
    with np.errstate(over="ignore"):
        return _kth_difference(np.sort(x), k)


def _kth_difference(s: np.ndarray, k: int) -> float:
    """k-th smallest of s[j] - s[i] over j > i, for ascending s.

    Row i of the difference matrix is non-decreasing in j, because rounding
    is monotone.  Each row keeps a band [left, right) of candidate columns;
    ``below`` counts the pairs ranked before every band.  Each round picks
    the band-width-weighted median of the band middles as pivot t, which
    drops at least a quarter of the candidates, and counts per row the
    differences <= t and < t (``_row_cut``).  When t is the k-th value it is
    returned; otherwise the bands keep only the side that holds the k-th.
    Once few candidates remain they are gathered and partitioned.
    """
    n = s.size
    left = np.arange(1, n + 1)
    right = np.full(n, n)
    below = 0
    while True:
        rows = np.flatnonzero(left < right)
        lo, hi = left[rows], right[rows]
        width = hi - lo
        remaining = int(width.sum())
        if remaining <= max(_GATHER_PER_ROW * n, _GATHER_MIN):
            break
        base = s[rows]
        middles = s[(lo + hi - 1) // 2] - base
        order = np.argsort(middles)
        t = middles[order[np.searchsorted(np.cumsum(width[order]), remaining / 2)]]
        le = _row_cut(s, base, lo, hi, t, np.less_equal)
        n_le = below + int((le - lo).sum())
        if n_le < k:
            below = n_le
            left[rows] = le
            continue
        lt = _row_cut(s, base, lo, le, t, np.less)
        n_lt = below + int((lt - lo).sum())
        if n_lt < k:
            return abs(float(t))
        right[rows] = lt
    cols = np.arange(remaining) - np.repeat(np.cumsum(width) - width - lo, width)
    diffs = s[cols] - np.repeat(s[rows], width)
    # abs: differences of a mixed -0.0 and 0.0 may come out as -0.0
    return abs(float(np.partition(diffs, k - below - 1)[k - below - 1]))


def _row_cut(s, base, lo, hi, t, keep) -> np.ndarray:
    """Per row, the first column j in [lo, hi) with not keep(s[j] - base, t),
    or hi; ``keep`` is <= or <, and holds on a prefix of each row.

    One ``searchsorted`` of base + t guesses every cut, clipped to [lo, hi].
    A guess is the cut when ``keep`` holds at the column before it (or it is
    lo) and fails at its own (or it is hi), since ``keep`` holds on a prefix.
    Rounding of base + t against s[j] - base can misplace a guess, so the
    rows whose guess fails that check are bisected (``_bisect_cut``).
    """
    side = "right" if keep(0.0, 0.0) else "left"  # <= keeps s[j] = base + t, < does not
    cut = np.clip(np.searchsorted(s, base + t, side=side), lo, hi)
    ok = (cut == lo) | keep(s[cut - 1] - base, t)
    ok &= (cut == hi) | ~keep(s[np.minimum(cut, s.size - 1)] - base, t)
    miss = np.flatnonzero(~ok)
    if miss.size:
        cut[miss] = _bisect_cut(s, base[miss], lo[miss], hi[miss], t, keep)
    return cut


def _bisect_cut(s, base, lo, hi, t, keep) -> np.ndarray:
    """``_row_cut`` by bisection of every row."""
    last = s.size - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        open_ = lo < hi
        take = open_ & keep(s[np.minimum(mid, last)] - base, t)
        lo = np.where(take, mid + 1, lo)
        hi = np.where(open_ & ~take, mid, hi)
    return lo


def qn(sample) -> float:
    """Qn scale estimate: (qn_raw * GAUSSIAN_CONSISTENCY) * d_N."""
    x = np.asarray(sample, dtype=float).ravel()
    return qn_raw(x) * GAUSSIAN_CONSISTENCY * qn_finite_sample_factor(x.size)
