"""The Qn robust scale estimator of pairwise absolute differences.

Qn is the k-th smallest of the N(N-1)/2 pairwise distances |x_i - x_j|,
k = C(floor(N/2)+1, 2) (:func:`qn_raw`).  :func:`qn` scales it by the
Gaussian consistency constant ``GAUSSIAN_CONSISTENCY`` = 2.2219 and then by
the finite-sample factor d_N (tabulated for N <= 9, then N/(N+1.4) for odd
and N/(N+3.8) for even N); both are always applied.

The k-th difference is selected from the sorted sample without building the
pairs, in O(N) memory.  Row i of the differences s[j] - s[i], j > i, is
non-decreasing in j, so each row keeps a band of candidate columns, and the
differences <= t (or < t) of a pivot t are a prefix of every band, counted
for all rows by one ``searchsorted`` that is checked by the exact
comparison and bisected where the check fails (``_row_cut``, after Johnson
& Mizoguchi 1978).  Each round takes two pivots from a sorted sample of S =
2048 candidates spread evenly over the bands in flat (row, column) order
(``_STRATA``), as Floyd & Rivest (1975) do: with q the k-th's rank as a
fraction of the remaining candidates, a low pivot at sample rank q S - h
and a high one at q S + h, h = 3 sqrt(S q (1 - q)) + 2.  The k-th lies
between them in nearly every round, so a round makes two cuts and keeps
about 2h / S (6-7%) of its candidates: a Gaussian sample of N = 3,300 takes
three rounds and six cuts, where the weighted-median rounds of Croux &
Rousseeuw (1992) made about 14.  A round that removes less than half its
candidates is followed by one such weighted-median round, on the
band-width-weighted median of the band middles, which removes at least a
quarter; so any sample takes O(log N) rounds of O(N log N) each, O(N log^2
N) time.  Once few candidates remain they are gathered and partitioned.
Every pivot is a computed difference and every count exact, so whichever
pivots a round takes, the result is the same float that enumerating and
partitioning every |x_i - x_j| gives (see :func:`qn_raw`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, SampleTooSmallError

__all__ = ["qn_raw", "qn", "qn_finite_sample_factor"]

GAUSSIAN_CONSISTENCY = 2.2219

_SMALL_N_FACTORS = {2: 0.399, 3: 0.994, 4: 0.512, 5: 0.844, 6: 0.611, 7: 0.857, 8: 0.669, 9: 0.872}

# Selection gathers and partitions the surviving candidates once at most
# max(_GATHER_PER_ROW * n, _GATHER_MIN) remain.  Any values give the same
# bits; they trade pivot rounds for gather memory.  A sampled round keeps
# about 6% of its candidates, so a gather holds far fewer than that bound on
# most samples, but one whose last round stops just above it holds the bound.
# Going from 4 to 16 per row saves 5-10% of the time (n = 10k: 3.5 -> 3.1
# ms; n = 100k: 54 -> 52 ms) and leaves the tracemalloc peak of a Gaussian
# sample at n = 100k at 10.6 MB; under the weighted-median rounds, which
# keep about half their candidates, it rose from 16.9 to 38.5 MB (Gaussian
# samples, process time, 2-vCPU shared host, numpy 2.4.6).  The fixed floor
# of 2^14 candidates (256 kB of differences) spares small samples their
# pivot rounds: every sample with n <= 181 is gathered at once, and a call
# at n = 200 drops from about 0.23 to 0.13 ms.
_GATHER_PER_ROW = 4
_GATHER_MIN = 2**14
_SAMPLE = 2048  # candidates sampled per round for its two pivots
# the sample's flat positions in units of remaining / _SAMPLE: one in each
# stratum [i, i + 1), offset by the fractional part of i times the golden
# ratio.  Offsets at the middle of each stratum alias with the row lengths:
# at n = 3,300 they put the k-th difference's sample rank 3 standard
# deviations high, at the high pivot's margin, and the high pivot fell below
# the k-th in two of four Gaussian samples.
_STRATA = np.arange(_SAMPLE) + np.arange(_SAMPLE) * (math.sqrt(5) - 1) / 2 % 1.0


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
    ``below`` counts the pairs ranked before every band.  A round takes a low
    and a high pivot from a sample of the candidates (``_sampled_pivots``),
    aimed just below and just above the k-th, and narrows the bands by each
    in turn (``_split``); a round that removes less than half its candidates
    is followed by one round on the band-width-weighted median of the band
    middles, which removes at least a quarter.  A pivot that is the k-th
    value is returned.  Once few candidates remain they are gathered and
    partitioned.
    """
    n = s.size
    left = np.arange(1, n + 1)
    right = np.full(n, n)
    below = 0
    median_round = False
    while True:
        rows = np.flatnonzero(left < right)
        lo, hi = left[rows], right[rows]
        width = hi - lo
        remaining = int(width.sum())
        if remaining <= max(_GATHER_PER_ROW * n, _GATHER_MIN):
            break
        base = s[rows]
        if median_round:
            pivots = [(_weighted_median(s, base, lo, hi), True)]
        else:
            q = (k - below) / remaining
            pivots = zip(_sampled_pivots(s, base, lo, width, q), (True, False))
        for t, low in pivots:
            narrowed = _split(s, base, lo, hi, below, k, t, low)
            if narrowed is None:
                return abs(float(t))
            lo, hi, below = narrowed
        left[rows], right[rows] = lo, hi
        median_round = not median_round and 2 * int((hi - lo).sum()) > remaining
    cols = np.arange(remaining) - np.repeat(np.cumsum(width) - width - lo, width)
    diffs = s[cols] - np.repeat(s[rows], width)
    # abs: differences of a mixed -0.0 and 0.0 may come out as -0.0
    return abs(float(np.partition(diffs, k - below - 1)[k - below - 1]))


def _sampled_pivots(s, base, lo, width, q) -> tuple:
    """Low and high pivots for a k-th candidate at fraction q of the
    remaining ones: the sorted differences of S = ``_SAMPLE`` candidates,
    one in each of S equal strata of the flat (row, column) band order
    (``_STRATA``), located by one ``searchsorted`` on the cumulative band
    widths, at sample ranks q S - h and q S + h, h = 3 sqrt(S q (1 - q)) +
    2: three binomial standard deviations of the k-th's sample rank and two
    more."""
    ends = np.cumsum(width)
    flat = (_STRATA * (int(ends[-1]) / _SAMPLE)).astype(np.intp)
    row = np.searchsorted(ends, flat, side="right")
    sample = np.sort(s[lo[row] + flat - (ends[row] - width[row])] - base[row])
    h = 3 * math.sqrt(_SAMPLE * q * (1 - q)) + 2
    return sample[max(int(q * _SAMPLE - h), 0)], sample[min(int(q * _SAMPLE + h), _SAMPLE - 1)]


def _weighted_median(s, base, lo, hi) -> float:
    """The band-width-weighted median of the band middles: at least half of
    each band lies on either side of its middle, so at least a quarter of
    the candidates lies on either side of this pivot."""
    width = hi - lo
    middles = s[(lo + hi - 1) // 2] - base
    order = np.argsort(middles)
    return middles[order[np.searchsorted(np.cumsum(width[order]), width.sum() / 2)]]


def _split(s, base, lo, hi, below, k, t, low):
    """The bands [lo, hi) narrowed to the side of pivot t that holds the
    k-th difference, as (lo, hi, below), or None when t is the k-th value.

    A low pivot, expected below the k-th, counts the differences <= t first
    (``_row_cut``), a high one those < t; the other count runs only when the
    first finds the k-th on the unexpected side, within the first's cuts.
    """
    if low:
        le = _row_cut(s, base, lo, hi, t, np.less_equal)
        n_le = below + int((le - lo).sum())
        if n_le < k:
            return le, hi, n_le
        lt = _row_cut(s, base, lo, le, t, np.less)
        return None if below + int((lt - lo).sum()) < k else (lo, lt, below)
    lt = _row_cut(s, base, lo, hi, t, np.less)
    if below + int((lt - lo).sum()) >= k:
        return lo, lt, below
    le = _row_cut(s, base, lt, hi, t, np.less_equal)
    n_le = below + int((le - lo).sum())
    return None if n_le >= k else (le, hi, n_le)


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
