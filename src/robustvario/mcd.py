"""Raw and reweighted Minimum Covariance Determinant estimation.

The raw MCD of p-dimensional rows x_1..x_n with subset size k is the mean
and (consistency-scaled) sample covariance of the k rows whose covariance
determinant is minimal.  ``fast_mcd`` finds it by the randomized
concentration search of Rousseeuw & Van Driessen (1999): many (p+1)-row
seeds, two C-steps each, then full C-step iteration of the ``N_BEST_KEPT``
best candidates.  The seeds are ``McdConfig.n_initial_subsets`` (a fixed
500) random (p+1)-subsets, a singular one redrawn up to a budget of 100
draws per seed; seeds that stay singular are dropped, and
``SingularDataError`` is raised when none is left.  A C-step re-ranks all
rows by squared Mahalanobis distance under the current fit, keeps the k
closest and refits; the determinant never increases.  The survivors iterate
until their support is a fixed point, their log-determinant changes by at
most ``CSTEP_TOL`` (relative) or ``MAX_CSTEPS`` steps have run.  Small
samples skip the search: when C(n, k) is at most ``_ENUM_MAX`` (3000, where
enumeration and search took about the same time on the study's shapes),
every k-subset is fitted and the exact MCD returned, as robustbase's
``covMcd`` does; that fit draws nothing from the stream.  Every raw fit is scaled by its
Fisher-consistency factor.

The C-step kernel inverts each candidate scatter once and gets all squared
distances from one matmul.  A candidate whose scatter has a 1-norm
condition number above ``_COND_MAX``, or whose k-th distance has another
row within the rounding band ``_RANK_TOL`` * cond of it, gets its
distances from an LU solve instead (``_sq_distances``), so the kept rows
are the ones the solve ranks closest.  The k closest rows are picked by
``np.partition`` with ties at the k-th distance going to the lowest row
indices, the set a stable argsort keeps.  Candidates run in chunks of at
most ``_CHUNK_BYTES`` of (chunk, n, p) float64 data, so memory does not
grow with the number of candidates.

Reweighting keeps rows whose squared robust distance, from the same LU
solve, is at most the chi-square cutoff chi2_{p, REWEIGHT_DELTA} and
refits with its own consistency factor; a singular raw fit, or a raw
scatter without a positive finite determinant, raises
``NotPositiveDefiniteError``.  :class:`McdConfig` holds only what callers
choose: the subset fraction.  Sample rows must be finite.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    SampleTooSmallError,
    SingularDataError,
)
from .numerics import RngStream, chisq_cdf, chisq_quantile

__all__ = [
    "McdConfig",
    "McdFit",
    "mcd_consistency_factor",
    "fast_mcd",
    "reweight_mcd",
]

_LOGDET_SLACK = 1e-7  # fp tolerance for the C-step monotonicity check
MAX_CSTEPS = 100
N_BEST_KEPT = 10  # candidates iterated to convergence after the first two C-steps
CSTEP_TOL = 1e-12
REWEIGHT_DELTA = 0.975
_CHUNK_BYTES = 8 << 20  # float64 budget of one C-step chunk's (chunk, n, p) block
_COND_MAX = 1e8  # 1-norm condition number above which distances use an LU solve
_RANK_TOL = 64 * np.finfo(float).eps  # near-tie band at the k-th distance, per unit of cond
_ENUM_MAX = 3000  # C(n, k) up to which fast_mcd enumerates every k-subset (measured crossover)


@dataclass(frozen=True)
class McdConfig:
    """Subset fraction and seeding of the MCD search.

    The subset size k is floor((n+p+1)/2), the maximal-breakdown choice;
    setting ``alpha`` instead derives k = floor(alpha*n), clamped to the
    admissible range floor((n+p+1)/2) <= k <= n.  The search concentrates
    ``n_initial_subsets`` random (p+1)-seeds, a class constant.
    """

    alpha: float | None = None
    n_initial_subsets: ClassVar[int] = 500

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")

    def subset_size(self, n: int, p: int) -> int:
        """k for an n x p sample with n > p, so that k_min <= n."""
        k_min = (n + p + 1) // 2
        if self.alpha is None:
            return k_min
        return max(k_min, min(n, int(math.floor(self.alpha * n))))


@dataclass
class McdFit:
    """Robust location/scatter fit with its support subset."""

    mu: np.ndarray
    sigma: np.ndarray
    support: tuple[int, ...]
    log_det: float
    weights: np.ndarray | None = None
    singular: bool = False


def mcd_consistency_factor(alpha: float, p: int) -> float:
    """Fisher-consistency factor alpha / F_{chi2_{p+2}}(chi2_{p, alpha}) for
    Gaussian data; 1 at alpha = 1 and increasing as alpha shrinks."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if alpha == 1.0:
        return 1.0
    return alpha / chisq_cdf(chisq_quantile(alpha, p), p + 2)


def _rows(data) -> np.ndarray:
    rows = getattr(data, "rows", data)
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D sample, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InputError("sample rows must be finite")
    return rows


def _subset_logdet(x_sub: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    mu = x_sub.mean(axis=0)
    dev = x_sub - mu
    sigma = dev.T @ dev / (x_sub.shape[0] - 1)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0 or not np.isfinite(logdet):
        logdet = -np.inf
    return mu, sigma, float(logdet)


def _finalize(k, n, p, mu, sigma, support, logdet) -> McdFit:
    singular = not np.isfinite(logdet)
    if singular:
        warnings.warn("MCD support subset has singular covariance", RuntimeWarning)
    c = mcd_consistency_factor(k / n, p)
    return McdFit(
        mu=mu,
        sigma=c * sigma,
        support=tuple(int(i) for i in support),
        log_det=float(logdet),
        singular=singular,
    )


def _batch_fit(x: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean/covariance/logdet of many row subsets at once; supports is (m, k)."""
    subs = x[supports]
    mus = subs.mean(axis=1)
    dev = subs - mus[:, None, :]
    sigmas = np.einsum("mkp,mkq->mpq", dev, dev) / (supports.shape[1] - 1)
    signs, logdets = np.linalg.slogdet(sigmas)
    logdets = np.where((signs > 0) & np.isfinite(logdets), logdets, -np.inf)
    return mus, sigmas, logdets


def _sq_distances(x: np.ndarray, mus: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of every row of x under each fit,
    (x - mu)' sigma^{-1} (x - mu) by an LU solve against sigma; (m, n)."""
    delta_t = np.swapaxes(x[None, :, :] - mus[:, None, :], 1, 2)
    return np.einsum("mpn,mpn->mn", delta_t, np.linalg.solve(sigmas, delta_t))


def _closest_rows(x: np.ndarray, k: int, mus: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Sorted indices of the k rows of x closest to each fit in squared
    Mahalanobis distance; (m, k).

    Each scatter is inverted once and the distances come from one matmul.
    Where that ranking is not certain to match an LU solve's, the candidate's
    distances come from ``np.linalg.solve`` instead: when the 1-norm
    condition number exceeds ``_COND_MAX``, or when another row lies within
    ``_RANK_TOL`` * cond (relative) of the k-th distance, as the p+1 rows of
    a seed always do, their distances being equal in exact arithmetic.
    """
    inv = np.linalg.inv(sigmas)
    cond = np.abs(sigmas).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    exact = ~(cond <= _COND_MAX)
    d2 = np.empty((len(mus), len(x)))
    kth = np.empty((len(mus), 1))
    fast = np.flatnonzero(~exact)
    if fast.size:
        delta = x[None, :, :] - mus[fast][:, None, :]
        d2_fast = np.einsum("mnp,mnp->mn", delta @ inv[fast], delta)
        kth_fast = np.partition(d2_fast, k - 1, axis=1)[:, k - 1 : k]
        near = np.abs(d2_fast - kth_fast) <= _RANK_TOL * cond[fast, None] * np.abs(kth_fast)
        exact[fast] = near.sum(axis=1) > 1
        d2[fast], kth[fast] = d2_fast, kth_fast
    if exact.any():
        d2[exact] = _sq_distances(x, mus[exact], sigmas[exact])
        kth[exact] = np.partition(d2[exact], k - 1, axis=1)[:, k - 1 : k]
    return _k_smallest(d2, k, kth)


def _k_smallest(d2: np.ndarray, k: int, kth: np.ndarray) -> np.ndarray:
    """Sorted column indices of the k smallest entries of each row of d2,
    given each row's k-th smallest value (``np.partition``'s) as the (m, 1)
    column ``kth``.

    Ties at the k-th value go to the lowest indices and NaNs rank last, so
    the result is the set a stable argsort keeps.
    """
    below = d2 < kth
    tie = d2 == kth
    nan_kth = np.isnan(kth)
    if nan_kth.any():
        nan = np.isnan(d2)
        below |= nan_kth & ~nan
        tie |= nan_kth & nan
    need = k - below.sum(axis=1, keepdims=True)
    keep = below | (tie & (np.cumsum(tie, axis=1) <= need))
    return np.nonzero(keep)[1].reshape(-1, k)


def _batch_cstep(
    x: np.ndarray,
    k: int,
    supports: np.ndarray,
    mus: np.ndarray,
    sigmas: np.ndarray,
    logdets: np.ndarray,
    check_monotone: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One C-step for every nonsingular candidate; singular ones pass through
    with their support and fit unchanged (they are terminal).  Returns
    (supports, mus, sigmas, logdets) of the refitted candidates.

    Candidates run in chunks whose (chunk, n, p) float64 block fits
    ``_CHUNK_BYTES``, so memory stays bounded for any number of candidates.
    The new support is the k closest rows (``_closest_rows``), ties broken
    by the lower row index: the support an LU solve and a stable argsort
    give.

    Monotonicity (the determinant never increases) holds once the incoming
    fit is itself a k-subset fit; the first step after a (p+1)-seed is
    exempt.
    """
    m = len(logdets)
    alive = np.isfinite(logdets)
    idx = np.flatnonzero(alive)
    supports2 = np.empty((m, k), dtype=np.intp)
    if idx.size < m:
        # seeds are nonsingular, so a terminal candidate has had a C-step
        # and its support is k wide too
        supports2[~alive] = supports[~alive]
    mus2, sigmas2, logdets2 = mus.copy(), sigmas.copy(), np.full(m, -np.inf)
    chunk = max(1, _CHUNK_BYTES // (8 * x.size))
    for lo in range(0, idx.size, chunk):
        sel = idx[lo : lo + chunk]
        supports2[sel] = _closest_rows(x, k, mus[sel], sigmas[sel])
        mus2[sel], sigmas2[sel], logdets2[sel] = _batch_fit(x, supports2[sel])
    if check_monotone and not np.all(
        logdets2[alive] <= logdets[alive] + _LOGDET_SLACK * np.maximum(1.0, np.abs(logdets[alive]))
    ):
        raise NumericalError("C-step increased the covariance determinant")
    return supports2, mus2, sigmas2, logdets2


def _sample_subsets(n: int, size: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` sorted index subsets of the given size, drawn uniformly
    without replacement via random sort keys."""
    keys = gen.random((count, n))
    picked = np.argpartition(keys, size - 1, axis=1)[:, :size]
    return np.sort(picked, axis=1)


def _draw_seeds(x: np.ndarray, cfg: McdConfig, rng: RngStream) -> np.ndarray:
    """Seed subsets of size p+1 with a nonsingular fit.

    ``cfg.n_initial_subsets`` random (p+1)-subsets are drawn and singular
    ones redrawn within a budget of 100 draws per seed.  Seeds still
    singular are dropped; raises ``SingularDataError`` when every seed is
    singular.
    """
    n, p = x.shape
    gen = rng.generator()
    m = cfg.n_initial_subsets
    seeds = _sample_subsets(n, p + 1, m, gen)
    _, _, logdets = _batch_fit(x, seeds)
    attempts = m
    budget = 100 * m
    bad = np.flatnonzero(~np.isfinite(logdets))
    while bad.size and attempts < budget:
        n_redraw = min(bad.size, budget - attempts)
        redraw = bad[:n_redraw]
        seeds[redraw] = _sample_subsets(n, p + 1, n_redraw, gen)
        attempts += n_redraw
        _, _, sub_logdets = _batch_fit(x, seeds[redraw])
        logdets[redraw] = sub_logdets
        bad = np.flatnonzero(~np.isfinite(logdets))
    ok = np.isfinite(logdets)
    if not ok.any():
        raise SingularDataError("all initial (p+1)-subsets are singular")
    return seeds[ok]


def _enumerate_mcd(x: np.ndarray, k: int) -> McdFit:
    """Exact MCD: every k-subset is fitted, in lexicographic chunks whose
    (chunk, k, p) float64 block fits ``_CHUNK_BYTES``, and the best by
    (log_det, support) wins.  Raises ``SingularDataError`` when every
    k-subset is singular, which holds exactly when every (p+1)-subset is."""
    n, p = x.shape
    chunk = max(1, _CHUNK_BYTES // (8 * k * p))
    subsets = itertools.combinations(range(n), k)
    best, regular = None, False
    for _ in range(0, math.comb(n, k), chunk):
        flat = itertools.chain.from_iterable(itertools.islice(subsets, chunk))
        supports = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
        mus, sigmas, logdets = _batch_fit(x, supports)
        regular |= bool(np.isfinite(logdets).any())
        i = int(np.argmin(logdets))  # the first minimum, so ties go to the lower support
        if best is None or logdets[i] < best[3]:
            best = (mus[i], sigmas[i], supports[i], logdets[i])
    if not regular:
        raise SingularDataError("all k-subsets are singular")
    return _finalize(k, n, p, *best)


def fast_mcd(data, cfg: McdConfig = McdConfig(), rng: RngStream = RngStream(0)) -> McdFit:
    """Randomized MCD search; deterministic given (data, cfg, rng).

    Raises ``SampleTooSmallError`` unless n > p.  With k = n the fit is the
    classical mean and covariance of all rows.  When C(n, k) is at most
    ``_ENUM_MAX`` the fit is the exact MCD of every k-subset instead: it
    draws nothing from ``rng``.
    """
    x = _rows(data)
    n, p = x.shape
    if n <= p:
        raise SampleTooSmallError(f"need n > p, got n={n}, p={p}")
    k = cfg.subset_size(n, p)
    if k == n:
        mu, sigma, logdet = _subset_logdet(x)
        return _finalize(k, n, p, mu, sigma, range(n), logdet)
    if n <= _ENUM_MAX and math.comb(n, k) <= _ENUM_MAX:  # C(n, k) >= n
        return _enumerate_mcd(x, k)

    supports = _draw_seeds(x, cfg, rng)
    mus, sigmas, logdets = _batch_fit(x, supports)
    for step in range(2):
        supports, mus, sigmas, logdets = _batch_cstep(
            x, k, supports, mus, sigmas, logdets, check_monotone=(step > 0)
        )

    kept = _rank_candidates(logdets, supports, N_BEST_KEPT)
    mus, sigmas, logdets, supports = mus[kept], sigmas[kept], logdets[kept], supports[kept]

    # iterate the survivors to convergence (support fixed point, determinant
    # change below tolerance, singularity, or the step cap)
    active = np.isfinite(logdets)
    for _ in range(MAX_CSTEPS):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        sup2, mu2, sigma2, ld2 = _batch_cstep(
            x, k, supports[idx], mus[idx], sigmas[idx], logdets[idx]
        )
        unchanged = np.all(sup2 == supports[idx], axis=1)
        converged = unchanged | (
            np.abs(logdets[idx] - ld2) <= CSTEP_TOL * np.maximum(1.0, np.abs(logdets[idx]))
        ) | ~np.isfinite(ld2)
        mus[idx], sigmas[idx], logdets[idx], supports[idx] = mu2, sigma2, ld2, sup2
        active[idx[converged]] = False

    order = _rank_candidates(logdets, supports, 1)
    i = order[0]
    return _finalize(k, n, p, mus[i], sigmas[i], tuple(supports[i]), logdets[i])


def _rank_candidates(logdets: np.ndarray, supports: np.ndarray, n_keep: int) -> list[int]:
    """Indices of the ``n_keep`` best distinct candidates, ordered by
    (determinant, support lexicographic).  A support's big-endian int64
    bytes compare in the numeric order of its indices."""
    dets = logdets.tolist()
    keys = [row.tobytes() for row in supports.astype(">i8")]
    kept, seen = [], set()
    for i in sorted(range(len(dets)), key=lambda i: (dets[i], keys[i])):
        if keys[i] not in seen:
            seen.add(keys[i])
            kept.append(i)
            if len(kept) == n_keep:
                break
    return kept


def reweight_mcd(data, raw: McdFit) -> McdFit:
    """One-pass hard-rejection reweighting of a raw MCD fit.

    Rows with squared robust distance above chi2_{p, delta} get weight 0,
    delta = ``REWEIGHT_DELTA``; the distances come from the C-step's LU
    solve (``_sq_distances``).  The scatter is the weighted sample
    covariance (divisor sum(w) - 1, the classical convention) times the
    consistency factor with alpha replaced by delta.  Raises
    ``NotPositiveDefiniteError`` when the raw fit is singular or
    ``raw.sigma`` has a determinant that is not positive and finite.
    """
    x = _rows(data)
    n, p = x.shape
    sign, raw_logdet = np.linalg.slogdet(raw.sigma)
    if raw.singular or sign <= 0 or not np.isfinite(raw_logdet):
        raise NotPositiveDefiniteError("raw MCD scatter is not positive definite")
    d2 = _sq_distances(x, raw.mu[None], raw.sigma[None])[0]
    cutoff = chisq_quantile(REWEIGHT_DELTA, p)
    w = d2 <= cutoff
    n_kept = int(w.sum())
    if n_kept == 0:
        raise SingularDataError("reweighting rejected every observation")
    if n_kept < 2:
        raise SingularDataError("reweighting kept a single observation")
    mu, sigma, logdet = _subset_logdet(x[w])
    c_star = mcd_consistency_factor(REWEIGHT_DELTA, p)
    return McdFit(
        mu=mu,
        sigma=c_star * sigma,
        support=raw.support,
        log_det=logdet,
        weights=w.astype(np.int8),
        singular=not np.isfinite(logdet),
    )
