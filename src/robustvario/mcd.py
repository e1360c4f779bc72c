"""Raw and reweighted Minimum Covariance Determinant estimation.

The raw MCD of p-dimensional rows x_1..x_n with subset size k is the mean
and (consistency-scaled) sample covariance of the k rows whose covariance
determinant is minimal.  ``fast_mcd`` finds it by the randomized
concentration search of Rousseeuw & Van Driessen (1999), in stages, whose
C-steps (stages 2 and 4) all run in the one loop ``_concentrate``:

1. ``McdConfig.n_initial_subsets`` (a fixed 500) random (p+1)-seeds, a
   singular one redrawn up to a budget of 100 draws per seed; seeds that
   stay singular are dropped (``SingularDataError`` if none is left);
2. two C-steps of each seed;
3. the ``N_BEST_KEPT`` best distinct candidates kept;
4. their C-steps to a support fixed point, a log-determinant change of at
   most ``CSTEP_TOL`` (relative), singularity or ``MAX_CSTEPS`` steps;
5. the best of them returned.

A C-step re-ranks all rows by squared Mahalanobis distance under the
current fit, keeps the k closest and refits; the determinant never
increases.  Small samples skip the search: when C(n, k) is at most
``_ENUM_MAX`` (3000) and the work C(n, k) * k * p^2 at most
``_ENUM_WORK_MAX``, where enumeration and search took about the same time,
every k-subset is fitted and the exact MCD returned, as robustbase's
``covMcd`` does; that fit draws nothing from the stream.  Every raw fit is
scaled by its Fisher-consistency factor.

The C-step kernel runs on BLAS.  ``_batch_fit`` forms the stacked subset
scatters by one batched matmul, (p, k) @ (k, p) per subset; the full-sample
fit and the reweighted refit go through it too.  ``_closest_rows`` inverts
each candidate scatter once and gets all squared distances from one
batched matmul, in the (m, p, n) layout of the LU solve.  A candidate whose
scatter has a 1-norm condition number above ``_COND_MAX``, or whose k-th
distance has another row within the rounding band ``_RANK_TOL`` * cond of
it, has them overwritten by an LU solve's (``_sq_distances``), so
the kept rows are the ones the solve ranks closest.  The k closest rows
are picked by ``np.partition`` with ties at the k-th distance going to the
lowest row indices, the set a stable argsort keeps.  Candidates run in
chunks of at most ``_CHUNK_BYTES`` of (chunk, n, p) float64 data, so
memory does not grow with the number of candidates; a candidate's bits do
not depend on the chunk it runs in.

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
_ENUM_WORK_MAX = 30_000_000  # and C(n, k) * k * p^2 up to which it does (measured crossover)
_Candidates = tuple[np.ndarray, ...]  # (supports, mus, sigmas, logdets) of a candidate stack


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
    sigmas = np.swapaxes(dev, 1, 2) @ dev / (supports.shape[1] - 1)
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
    distances are overwritten by ``np.linalg.solve``'s: when the 1-norm
    condition number exceeds ``_COND_MAX``, or when another row lies within
    ``_RANK_TOL`` * cond (relative) of the k-th distance, as the p+1 rows of
    a seed always do, their distances being equal in exact arithmetic.
    """
    inv = np.linalg.inv(sigmas)
    cond = np.abs(sigmas).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    delta_t = x.T[None] - mus[:, :, None]
    d2 = np.einsum("mpn,mpn->mn", np.swapaxes(inv, 1, 2) @ delta_t, delta_t)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    near = np.abs(d2 - kth) <= _RANK_TOL * cond[:, None] * np.abs(kth)
    exact = ~(cond <= _COND_MAX) | (near.sum(axis=1) > 1)
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


def _batch_cstep(x: np.ndarray, k: int, mus: np.ndarray, sigmas: np.ndarray) -> _Candidates:
    """One C-step for every candidate fit: its k closest rows
    (``_closest_rows``, ties to the lower row index, the support an LU solve
    and a stable argsort give) and their fit.  Returns (supports, mus,
    sigmas, logdets).

    Candidates run in chunks whose (chunk, n, p) float64 block fits
    ``_CHUNK_BYTES``, so memory stays bounded for any number of candidates.
    """
    m = len(mus)
    supports = np.empty((m, k), dtype=np.intp)
    mus2, sigmas2, logdets = np.empty_like(mus), np.empty_like(sigmas), np.empty(m)
    chunk = max(1, _CHUNK_BYTES // (8 * x.size))
    for lo in range(0, m, chunk):
        sel = slice(lo, lo + chunk)
        supports[sel] = _closest_rows(x, k, mus[sel], sigmas[sel])
        mus2[sel], sigmas2[sel], logdets[sel] = _batch_fit(x, supports[sel])
    return supports, mus2, sigmas2, logdets


def _concentrate(
    x: np.ndarray, k: int, supports: np.ndarray, mus: np.ndarray, sigmas: np.ndarray,
    logdets: np.ndarray, steps: int,
) -> _Candidates:
    """Up to ``steps`` C-steps of every candidate; returns its final
    (supports, mus, sigmas, logdets), the fits updated in place.

    A candidate stops when its support is a fixed point, its log-determinant
    changes by at most ``CSTEP_TOL`` (relative) or it turns singular; one
    singular on entry is not stepped and keeps its fit.  A step from a
    k-subset fit must not increase the determinant (``NumericalError``).
    The first step from (p+1)-seeds, whose supports are not k wide, is
    exempt and always runs: a seed's determinant is not comparable.
    """
    active = np.isfinite(logdets)
    for _ in range(steps):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        sup2, mu2, sigma2, ld2 = _batch_cstep(x, k, mus[idx], sigmas[idx])
        ld = logdets[idx]
        stopped = ~np.isfinite(ld2)
        if supports.shape[1] == k:
            scale = np.maximum(1.0, np.abs(ld))
            if not np.all(ld2 <= ld + _LOGDET_SLACK * scale):
                raise NumericalError("C-step increased the covariance determinant")
            fixed = np.all(sup2 == supports[idx], axis=1)
            stopped |= fixed | (np.abs(ld - ld2) <= CSTEP_TOL * scale)
        else:  # every seed is nonsingular, so every one was stepped
            supports = np.empty((len(ld), k), dtype=np.intp)
        supports[idx], mus[idx], sigmas[idx], logdets[idx] = sup2, mu2, sigma2, ld2
        active[idx[stopped]] = False
    return supports, mus, sigmas, logdets


def _sample_subsets(n: int, size: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` sorted index subsets of the given size, drawn uniformly
    without replacement via random sort keys."""
    keys = gen.random((count, n))
    picked = np.argpartition(keys, size - 1, axis=1)[:, :size]
    return np.sort(picked, axis=1)


def _draw_seeds(x: np.ndarray, cfg: McdConfig, rng: RngStream) -> _Candidates:
    """Seed subsets of size p+1 with a nonsingular fit, and their fits:
    (seeds, mus, sigmas, logdets).

    ``cfg.n_initial_subsets`` random (p+1)-subsets are drawn and singular
    ones redrawn within a budget of 100 draws per seed.  Seeds still
    singular are dropped; raises ``SingularDataError`` when every seed is
    singular.
    """
    n, p = x.shape
    gen = rng.generator()
    m = cfg.n_initial_subsets
    seeds = _sample_subsets(n, p + 1, m, gen)
    mus, sigmas, logdets = _batch_fit(x, seeds)
    attempts, budget = m, 100 * m
    bad = np.flatnonzero(~np.isfinite(logdets))
    while bad.size and attempts < budget:
        n_redraw = min(bad.size, budget - attempts)
        redraw = bad[:n_redraw]
        seeds[redraw] = _sample_subsets(n, p + 1, n_redraw, gen)
        attempts += n_redraw
        mus[redraw], sigmas[redraw], logdets[redraw] = _batch_fit(x, seeds[redraw])
        bad = np.flatnonzero(~np.isfinite(logdets))
    ok = np.isfinite(logdets)
    if not ok.any():
        raise SingularDataError("all initial (p+1)-subsets are singular")
    return seeds[ok], mus[ok], sigmas[ok], logdets[ok]


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
    ``_ENUM_MAX`` and C(n, k) * k * p^2 at most ``_ENUM_WORK_MAX``, the fit
    is the exact MCD of every k-subset instead: it draws nothing from
    ``rng``.  Otherwise the search runs its stages: seeds drawn from
    ``rng``, two C-steps of each, the ``N_BEST_KEPT`` best kept, C-steps of
    those to convergence, and the best of them returned.
    """
    x = _rows(data)
    n, p = x.shape
    if n <= p:
        raise SampleTooSmallError(f"need n > p, got n={n}, p={p}")
    k = cfg.subset_size(n, p)
    if k == n:
        (mu,), (sigma,), (logdet,) = _batch_fit(x, np.arange(n)[None])
        return _finalize(k, n, p, mu, sigma, range(n), logdet)
    # C(n, k) >= n, so n bounds the count before it is computed
    if n <= _ENUM_MAX and math.comb(n, k) <= min(_ENUM_MAX, _ENUM_WORK_MAX // (k * p * p)):
        return _enumerate_mcd(x, k)

    supports, mus, sigmas, logdets = _concentrate(x, k, *_draw_seeds(x, cfg, rng), steps=2)
    kept = _rank_candidates(logdets, supports, N_BEST_KEPT)
    supports, mus, sigmas, logdets = _concentrate(
        x, k, supports[kept], mus[kept], sigmas[kept], logdets[kept], steps=MAX_CSTEPS
    )
    i = _rank_candidates(logdets, supports, 1)[0]
    return _finalize(k, n, p, mus[i], sigmas[i], supports[i], logdets[i])


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
    (mu,), (sigma,), (logdet,) = _batch_fit(x, np.flatnonzero(w)[None])
    c_star = mcd_consistency_factor(REWEIGHT_DELTA, p)
    return McdFit(
        mu=mu,
        sigma=c_star * sigma,
        support=raw.support,
        log_det=float(logdet),
        weights=w.astype(np.int8),
        singular=not np.isfinite(logdet),
    )
