"""Raw and reweighted Minimum Covariance Determinant estimation.

The raw MCD of p-dimensional rows x_1..x_n with subset size k is the mean
and (consistency-scaled) sample covariance of the k rows whose covariance
determinant is minimal.  ``fast_mcd`` finds it by the randomized
concentration search of Rousseeuw & Van Driessen (1999), in stages, whose
C-steps all run in the one loop ``_concentrate``:

1. ``McdConfig.n_initial_subsets`` (a fixed 500) random (p+1)-seeds, a
   singular one redrawn up to a budget of 100 draws per seed; seeds that
   stay singular are dropped (``SingularDataError`` if none is left);
2. two C-steps of each seed;
3. the ``N_BEST_KEPT`` best distinct candidates kept;
4. their C-steps to a log-determinant change of at most ``CSTEP_TOL``
   (relative), which a support fixed point also gives, singularity or
   ``MAX_CSTEPS`` steps;
5. the best of them returned.

Stages 1-3 run in g groups of rows, ``_search``, as in section 3.3 of the
source and robustbase's ``covMcd``.  Up to ``_NESTED_MIN`` (600) rows g = 1
and the one group is every row.  Above, one random permutation of the rows
forms g = min(5, n // 300) groups: up to 1500 rows they split all n rows,
their sizes within one of each other; above, they are 5 groups of 300.
Each group of n_g rows runs stages 1-3 on its own rows with 500 // g seeds
and subset size k_g = ceil(n_g * k / n); a group without a nonsingular seed
gives nothing, and ``SingularDataError`` needs every group to.  With g > 1
the groups' rows, in their original order, form the merged sample of n_m
rows (every row up to 1500), where the groups' candidates take two C-steps
at k_m = ceil(n_m * k / n) and the ``N_BEST_KEPT`` best go on to stage 4 on
all rows.  A candidate that turns singular in a group or the merge, an
exact fit of k_g or k_m rows, sends the fit to the search in one group of
all rows, for a singular fit cannot be stepped on a wider sample.  The
fit's stream gives the permutation first, if any, then each group's seeds
in group order; that fallback draws its seeds from the start of the stream.

A C-step re-ranks all rows by squared Mahalanobis distance under the
current fit, keeps the k closest and refits; the determinant never
increases.  Small samples skip the search: when C(n, k) is at most
``_ENUM_MAX`` (3000) and the (C(n, k), k, p) float64 rows of all k-subsets
fit ``_CHUNK_BYTES``, every k-subset is fitted in one batch and the exact
MCD returned, as robustbase's ``covMcd`` does; that fit draws nothing from
the stream, and a k-subset table of at most 512 KiB is kept per (n, k).
Every raw fit is scaled by its Fisher-consistency factor, cached per
(alpha, p).

The C-step kernel runs on BLAS.  ``_batch_fit`` gathers the subsets' rows
by one ``np.take`` into a (k, m, p) block, support position first (for p
>= 2), takes the means and centres the rows over its contiguous (m, p)
slabs, and forms the stacked subset scatters from the block's (m, k, p)
view by one batched matmul, (p, k) @ (k, p) per subset; the full-sample
fit and the reweighted refit go through it too.  It factors each scatter once, by one Cholesky
call per stack (``_factor``), the only factorization in the module: the
log-determinant is 2 * sum(log L_jj), and a scatter whose factorization
fails, its factor all NaN, or with a pivot L_jj^2 <= p * eps * sigma_jj,
is singular (-inf); the other scatters of its stack keep their factors.
Each candidate carries its factor L from the fit that makes it to the C-step
that uses it.  ``_closest_rows`` keeps, by definition, the first k rows of a
stable argsort (ties to the lowest row indices) of the squared norms of
W (x - mu), W = L^{-1} (``_inverse_factor``, ``_whitened_sq_norms``).  It
gets them from one product per candidate of P = p(p+1)/2 + p + 1
coefficients, from A = W'W and the candidate's centre, with the (P, n)
quadratic features of the rows about the sample mean, which
``_concentrate`` builds once per sample, without an (m, p, n) array.  A
rounding bound per candidate, derived in ``_closest_rows``, proves the
product's k closest rows the definition's, checked against the two
neighbours of the k-th distance in one partition of the values; the rows
are read off the mask of distances at most the k-th, already in ascending
order.  A candidate it cannot certify
(about 0.01-0.03% of them in the benchmark's studies: near ties, extreme
scales) takes the definition itself, ``_closest_by_definition``.
For p >= 2 a subset's mean sums its rows in support order, the bits of
numpy's ``mean``; at p = 1, where ``mean`` sums pairwise, the two may
differ in the last bits.  Each stage holds its candidates in one stack
(supports, mus, chols, logdets), without scatters, which no C-step reads:
``_draw_seeds`` fills it, redrawn seeds in place, and ``_concentrate`` steps
it in place in chunks of at most ``_CHUNK_BYTES`` of (chunk, n, p) float64
data, as the seeds' keys are drawn in row blocks, so memory does not grow
with the number of candidates; a candidate's bits do not depend on its
chunk.  Every fit leaves through ``_finalize``, which refits the winning
support alone and builds its scatter once, the bits it has in any stack.

Reweighting keeps rows whose squared robust distance, the definition's
from the Cholesky factor of the raw scatter, is at most the chi-square
cutoff chi2_{p, REWEIGHT_DELTA}, cached per p, and refits with its own
consistency factor; a singular raw fit, or a raw scatter that ``_factor``
finds singular, raises ``NotPositiveDefiniteError``, and fewer than 2 kept
rows ``SingularDataError``.  :class:`McdConfig` holds only what callers
choose: the subset fraction.  Sample rows must be finite.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.linalg import _umath_linalg

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
# float64 budget of one C-step chunk's (chunk, n, p) block, of the
# enumeration's one (C(n, k), k, p) batch and of a block of seed keys
_CHUNK_BYTES = 8 << 20
_EPS = np.finfo(float).eps
_ENUM_MAX = 3000  # C(n, k) up to which fast_mcd enumerates every k-subset (measured crossover)
_NESTED_MIN = 600  # n above which the search runs on nested subsets (the source's 600)
_GROUP_ROWS = 300  # rows per group of the nested search, at most
_N_GROUPS = 5  # groups of the nested search, at most
# (supports, mus, chols, logdets) of a candidate stack, chols its Cholesky factors
_Candidates = tuple[np.ndarray, ...]


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
        """k for an n x p sample.  The one home of the MCD's n > p rule,
        which makes k_min <= n: raises ``SampleTooSmallError`` otherwise."""
        if n <= p:
            raise SampleTooSmallError(f"need n > p, got n={n}, p={p}")
        k_min = (n + p + 1) // 2
        if self.alpha is None:
            return k_min
        return max(k_min, min(n, int(math.floor(self.alpha * n))))


@dataclass
class McdFit:
    """Robust location/scatter fit with its support subset, the raw fit's
    sorted rows: a read-only intp array of its own, no view of a stack."""

    mu: np.ndarray
    sigma: np.ndarray
    support: np.ndarray
    log_det: float
    weights: np.ndarray | None = None
    singular: bool = False

    def __post_init__(self):
        self.support = np.array(self.support, dtype=np.intp)
        self.support.flags.writeable = False


@functools.lru_cache(maxsize=1024)
def mcd_consistency_factor(alpha: float, p: int) -> float:
    """Fisher-consistency factor alpha / F_{chi2_{p+2}}(chi2_{p, alpha}) for
    Gaussian data; 1 at alpha = 1 and increasing as alpha shrinks.  Cached
    per (alpha, p): a fit of n rows takes alpha = k / n."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if alpha == 1.0:
        return 1.0
    return alpha / chisq_cdf(chisq_quantile(alpha, p), p + 2)


@functools.lru_cache(maxsize=64)
def _reweight_cutoff(p: int) -> float:
    """chi2_{p, REWEIGHT_DELTA}, the reweighting cutoff; cached per p."""
    return chisq_quantile(REWEIGHT_DELTA, p)


def _rows(data) -> np.ndarray:
    rows = np.ascontiguousarray(getattr(data, "rows", data), dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D sample, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InputError("sample rows must be finite")
    return rows


def _finalize(x: np.ndarray, support: np.ndarray) -> McdFit:
    """The one exit of ``fast_mcd``: the winning support, k rows of x,
    refitted alone by ``_batch_fit``, whose bits do not depend on its stack,
    so its mean and log-determinant are the ones ranked; its scatter, built
    here once, takes the consistency factor for k / n; a singular one warns."""
    n, p = x.shape
    (mu,), (sigma,), _, (logdet,) = _batch_fit(x, support[None])
    singular = not np.isfinite(logdet)
    if singular:
        warnings.warn("MCD support subset has singular covariance", RuntimeWarning)
    c = mcd_consistency_factor(len(support) / n, p)
    return McdFit(mu=mu, sigma=c * sigma, support=support, log_det=float(logdet), singular=singular)


def _batch_fit(x: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean, covariance, lower Cholesky factor and log-determinant of many
    row subsets at once (``_factor``); supports is (m, k).

    The rows are gathered as a (k, m, p) block, support position first, so
    the mean adds its contiguous (m, p) slabs one after another and the
    centring runs over them in place; the scatters come from the block's
    (m, k, p) view.  Each mean so sums its k rows one after another in
    support order and divides by k, the bits of ``mean(axis=1)``.  At p = 1
    numpy would sum the one-value slabs of a lone subset pairwise, so a
    fit's bits would depend on its stack: there the rows are gathered
    subset-major and each mean summed by ``einsum``, the same in any stack,
    where ``mean`` sums pairwise and the two may differ in the last bits.
    """
    k = supports.shape[1]
    if x.shape[1] == 1:
        dev = np.take(x, supports, axis=0)
        mus = np.einsum("mkp->mp", dev) / k
        dev -= mus[:, None, :]
    else:
        subs = np.take(x, supports.T, axis=0)
        mus = subs.sum(axis=0) / k
        subs -= mus
        dev = subs.transpose(1, 0, 2)
    sigmas = np.swapaxes(dev, 1, 2) @ dev / (k - 1)
    return (mus, sigmas, *_factor(sigmas))


def _factor(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, log-determinants) of a stack of (p, p) scatters: the lower
    Cholesky factors by one call, all NaN where one does not exist, and
    2 * sum(log L_jj), -inf for a singular scatter.  Each matrix has its own
    LAPACK ``dpotrf``, so its factor does not depend on its stack.

    A scatter is singular when its factorization fails (NaN pivots) or a
    pivot has L_jj^2 <= p * eps * sigma_jj.  The computed pivot L_jj^2 =
    sigma_jj - sum_{i<j} L_ji^2 sums j <= p terms of at most sigma_jj each,
    within gamma_p sigma_jj < p * (eps / 2) * sigma_jj / (1 - p eps / 2) of
    its exact value: a pivot that small cannot be told from a rank-deficient
    scatter's zero.
    """
    # numpy's own Cholesky gufunc, without the wrapper that raises for the
    # whole stack; numpy has it, with a .pyi stub, from 1.24 (our floor) to 2.4
    with np.errstate(all="ignore"):
        chols = _umath_linalg.cholesky_lo(sigmas, signature="d->d")
    p = sigmas.shape[-1]
    pivots = np.diagonal(chols, axis1=1, axis2=2)
    ok = (pivots * pivots > p * _EPS * np.diagonal(sigmas, axis1=1, axis2=2)).all(axis=1)
    return chols, np.where(ok, 2 * np.log(pivots).sum(axis=1), -np.inf)


def _inverse_factor(chols: np.ndarray) -> np.ndarray:
    """W = L^{-1} of each lower Cholesky factor, by forward substitution
    with one row of W for the whole stack at a time: W_ii = 1 / L_ii, and
    left of the diagonal W_i = -sum_{j<i} (L_ij / L_ii) W_j, one ``einsum``
    over the rows above.  The loop makes p numpy calls for any stack; a
    product of batched matmuls makes a BLAS call per matrix, and took two
    to five times as long on a C-step's 500 candidates."""
    p = chols.shape[-1]
    diag = np.diagonal(chols, axis1=1, axis2=2)
    scaled = chols / -diag[:, :, None]
    ws = np.zeros_like(chols)
    idx = np.arange(p)
    ws[:, idx, idx] = 1.0 / diag
    for i in range(1, p):
        ws[:, i, :i] = np.einsum("mj,mjk->mk", scaled[:, i, :i], ws[:, :i, :i])
    return ws


def _whitened_sq_norms(x: np.ndarray, mus: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of every row of x under each fit, the
    squared norms of W (x - mu) for W = L^{-1} (``_inverse_factor``); (m, n)."""
    delta_t = np.ascontiguousarray(x.T) - mus[:, :, None]
    z = ws @ delta_t
    return np.einsum("mpn,mpn->mn", z, z)


def _quadratic_features(x: np.ndarray) -> tuple:
    """(c, F, reach, (a, b)) of a sample for ``_closest_rows``: its mean c,
    the (P, n) quadratic features of y = x - c, rows y_a * y_a and 2 * y_a *
    y_b (a < b), then y_a, then 1, for P = p(p+1)/2 + p + 1 and the rows of
    y in the columns, max |y|, and the index pairs a <= b of the first
    rows.  The features are written in place into the one (P, n) array."""
    n, p = x.shape
    c = x.mean(axis=0)
    a, b = np.triu_indices(p)
    f = np.empty((len(a) + p + 1, n))
    y = np.subtract(x.T, c[:, None], out=f[len(a) : -1])
    row = 0
    for i in range(p):  # the rows y_i * y_j, j >= i, are consecutive
        block = f[row : row + p - i]
        np.multiply(y[i], y[i:], out=block)
        block[1:] *= 2.0  # exact
        row += p - i
    f[-1] = 1.0
    return c, f, float(max(y.max(), -y.min())), (a, b)


def _closest_rows(
    x: np.ndarray, k: int, mus: np.ndarray, chols: np.ndarray, features: tuple
) -> np.ndarray:
    """Sorted indices of the k rows of x closest to each fit in squared
    Mahalanobis distance, given the fits' centres and Cholesky factors;
    (m, k).  ``features`` are x's ``_quadratic_features``.

    The rows are by definition the first k of a stable argsort (ties to the
    lower row index, NaNs last) of d_i = ||W (x_i - mu)||^2, W = L^{-1} from
    ``_inverse_factor``: x_i - mu rounded, W times it summed over p terms
    per component and the squares over p terms (``_whitened_sq_norms``).

    Each candidate first takes the distances d' of one product of its P
    coefficients, the upper triangle of A = W'W, -2 A e and e' A e for e =
    mu - c, with the features: ||W (x - mu)||^2 expanded about the sample
    mean.  With u = eps / 2, gamma_j = j u / (1 - j u), V = max|y| + max|e|
    >= max|x - mu|, B = |W|'|W| >= |A| and G = sum_ab B_ab = sum_j (sum_a
    |W_ja|)^2, every term of either sum is at most B_ab V^2, G V^2 in all:

    - forming A costs gamma_p of each entry's terms, A e and e' A e gamma_p
      each more, the features gamma_1 and the length-P sum gamma_P, so d'
      is within gamma_{P+3p} G V^2 of the exact form at y - e;
    - y - e differs from x - mu by at most u V per component, which moves
      the form by at most gamma_3 G V^2;
    - the definition rounds x - mu, sums p terms for each component of W (x
      - mu) and p squares, within gamma_{3p+2} G V^2 of the exact form at
      x - mu.

    So |d' - d| <= gamma_{P+6p+5} G V^2 < E = (P + 6p + 5) eps G V^2, the
    factor 2 of eps over u covering 1 / (1 - j u) and the rounding of E and
    of the comparisons below.  A candidate keeps the k smallest d' when no
    other row lies within 2E of its k-th d': then every kept row's d is
    below the k-th row's and every other row's above, so these are the rows
    of the definition.  One partition of d', which moves values only, gives
    the k-th d' and its neighbours, the (k-1)-th and (k+1)-th order
    statistics: the largest value left of it and the smallest right of it,
    none at k = n.  Rounding is monotone and sign-symmetric, so a row
    farther from the k-th d' than the neighbour on its side has a computed
    |d'_j - d'_(k)| at least as large: both neighbours outside 2E certify
    every row, the same decision as a count of the rows within 2E.  A
    certified candidate has no tie at the cut, so the mask d' <= d'_(k)
    holds exactly its k rows, read off in ascending order by one
    ``flatnonzero`` (``_columns``).  E holds when no term
    under- or overflows, which G and V above 1e-100 and G V^2 below 1e300
    ensure.  Every other candidate (a near tie at the k-th distance, a W of
    extreme entries) takes the definition itself.
    """
    c, f, reach, (a, b) = features
    p = mus.shape[1]
    ws = _inverse_factor(chols)
    gram = np.ascontiguousarray(np.swapaxes(ws, 1, 2)) @ ws
    e = mus - c
    ae = (gram @ e[:, :, None])[:, :, 0]
    coef = np.concatenate([gram[:, a, b], -2 * ae, np.einsum("mp,mp->m", ae, e)[:, None]], axis=1)
    # one (1, P) @ (P, n) product per candidate, below OpenBLAS's threading threshold
    d2 = (coef[:, None, :] @ f)[:, 0]
    row_sums = np.einsum("mij->mi", np.abs(ws))
    size, v = np.einsum("mi,mi->m", row_sums, row_sums), reach + np.abs(e).max(axis=1)
    n = len(x)
    band = 2 * ((len(f) + 6 * p + 5) * _EPS * size * v * v)
    part = np.partition(d2, k - 1, axis=1)
    kth = part[:, k - 1]
    sure = (kth - part[:, : k - 1].max(axis=1) > band) & (np.minimum(size, v) > 1e-100)
    sure &= size * v * v < 1e300
    if k < n:
        sure &= part[:, k:].min(axis=1) - kth > band
    if sure.all():
        return _columns(np.flatnonzero(d2 <= kth[:, None]), n, k)
    rows = np.empty((len(d2), k), dtype=np.intp)
    rows[sure] = _columns(np.flatnonzero(d2[sure] <= kth[sure, None]), n, k)
    rows[~sure] = _closest_by_definition(x, k, mus[~sure], ws[~sure])
    return rows


def _columns(flat: np.ndarray, n: int, k: int) -> np.ndarray:
    """The (m, k) column indices of ``flat``, the ascending flat indices of
    the entries of an (m, n) mask, when every row holds k of them: each
    row's offset i * n subtracted, so each row's columns ascend."""
    m = flat.size // k  # an explicit m: an empty stack cannot infer it
    cols = flat.reshape(m, k)
    cols -= np.arange(0, m * n, n)[:, None]
    return cols


def _closest_by_definition(x, k, mus, ws) -> np.ndarray:
    """``_closest_rows`` by its definition, given each fit's W = L^{-1}."""
    d2 = _whitened_sq_norms(x, mus, ws)
    return np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)


def _concentrate(x: np.ndarray, k: int, stack: _Candidates, steps: int) -> _Candidates:
    """Up to ``steps`` C-steps of every candidate of the stack (supports,
    mus, chols, logdets), which they update in place; returns the stack.  A
    C-step refits a candidate's k closest rows of x (``_closest_rows``, from
    x's ``_quadratic_features``); the candidates run in chunks, in stack
    order, whose (chunk, n, p) float64 block fits ``_CHUNK_BYTES``.

    A candidate stops when its log-determinant changes by at most
    ``CSTEP_TOL`` (relative), as it does at a support fixed point, which
    refits to the same log-determinant, or when it turns singular; one
    singular on entry is not stepped and keeps its fit.  ``supports`` are
    rows of x.  A step from a fit of k of them must not increase the
    determinant (``NumericalError``).  The first step from other fits is
    exempt and always runs, for their determinants are not comparable:
    (p+1)-seeds, whose supports are not k wide, and fits of another sample,
    given with supports None; such fits must all be nonsingular, and the
    step writes their supports into a new (m, k) array.
    """
    supports, mus, chols, logdets = stack
    active, features = np.isfinite(logdets), _quadratic_features(x)
    chunk = max(1, _CHUNK_BYTES // (8 * x.size))
    for _ in range(steps):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        exempt = supports is None or supports.shape[1] != k
        if exempt:  # every entering fit is nonsingular, so every one is stepped
            supports = np.empty((len(logdets), k), dtype=np.intp)
        for lo in range(0, idx.size, chunk):
            sel = idx[lo : lo + chunk]
            rows = _closest_rows(x, k, mus[sel], chols[sel], features)
            mu2, _, chol2, ld2 = _batch_fit(x, rows)
            ld = logdets[sel]
            stopped = ~np.isfinite(ld2)
            if not exempt:
                scale = np.maximum(1.0, np.abs(ld))
                if not np.all(ld2 <= ld + _LOGDET_SLACK * scale):
                    raise NumericalError("C-step increased the covariance determinant")
                stopped |= np.abs(ld - ld2) <= CSTEP_TOL * scale
            supports[sel], mus[sel], chols[sel], logdets[sel] = rows, mu2, chol2, ld2
            active[sel[stopped]] = False
    return supports, mus, chols, logdets


def _sample_subsets(n: int, size: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` sorted index subsets of the given size, drawn uniformly
    without replacement via random sort keys: each row's keys at most its
    size-th smallest, the cut from a partition that moves values only, read
    off one mask (``_columns``).  Only when two keys tie at a cut (53-bit
    uniforms: possible, never seen) does the mask hold more than count *
    size entries; then the subsets are the sorted first ``size`` of an
    ``argpartition``, the one way to keep its choice among tied keys.  The
    keys are drawn in row blocks of at most ``_CHUNK_BYTES``; the generator
    fills arrays in C order, so the blocks draw the keys of one draw."""
    block, parts = max(1, _CHUNK_BYTES // (8 * n)), []
    for lo in range(0, count, block):
        keys = gen.random((min(block, count - lo), n))
        cuts = np.partition(keys, size - 1, axis=1)[:, size - 1 : size]
        flat = np.flatnonzero(keys <= cuts)
        if flat.size == len(keys) * size:
            parts.append(_columns(flat, n, size))
        else:
            parts.append(np.sort(np.argpartition(keys, size - 1, axis=1)[:, :size], axis=1))
    return np.concatenate(parts)


def _draw_seeds(x: np.ndarray, m: int, gen: np.random.Generator) -> _Candidates:
    """Seed subsets of size p+1 of the rows of x with a nonsingular fit, and
    their fits: the stack (seeds, mus, chols, logdets).

    ``m`` random (p+1)-subsets are drawn from ``gen`` and singular ones
    redrawn within a budget of 100 draws per seed, each redrawn seed and its
    fit written into the same four arrays in place.  Seeds still singular
    are dropped, so the stack is empty when every seed is singular.
    """
    n, p = x.shape
    seeds = _sample_subsets(n, p + 1, m, gen)
    mus, _, chols, logdets = _batch_fit(x, seeds)
    attempts, budget = m, 100 * m
    bad = np.flatnonzero(~np.isfinite(logdets))
    while bad.size and attempts < budget:
        redraw = bad[: budget - attempts]
        seeds[redraw] = _sample_subsets(n, p + 1, len(redraw), gen)
        attempts += len(redraw)
        mus[redraw], _, chols[redraw], logdets[redraw] = _batch_fit(x, seeds[redraw])
        bad = np.flatnonzero(~np.isfinite(logdets))
    ok = np.isfinite(logdets)
    return seeds[ok], mus[ok], chols[ok], logdets[ok]


def _best_after_two_steps(x: np.ndarray, k: int, stack: _Candidates) -> _Candidates:
    """Two C-steps of every candidate of the stack on x and the
    ``N_BEST_KEPT`` best."""
    found = _concentrate(x, k, stack, steps=2)
    kept = _rank_candidates(found[-1], found[0], N_BEST_KEPT)
    return tuple(a[kept] for a in found)


def _group_rows(n: int, gen: np.random.Generator) -> list[np.ndarray]:
    """Sorted row indices of the nested search's groups, from one
    permutation: min(5, n // 300) groups that split all n rows, their sizes
    within one, up to n = 1500; 5 groups of 300 rows above."""
    perm = gen.permutation(n)[: _N_GROUPS * _GROUP_ROWS]
    return [np.sort(g) for g in np.array_split(perm, min(_N_GROUPS, n // _GROUP_ROWS))]


def _search(
    x: np.ndarray, k: int, m: int, groups: list[np.ndarray], gen: np.random.Generator
) -> _Candidates | None:
    """Stages 1-3 in the given groups of rows of x: the ``N_BEST_KEPT`` best
    candidates, supports in rows of x.  One group of all rows is the search
    on all rows and returns its candidates, singular ones too; more groups
    add the merge stage and give None when a candidate turned singular.
    Raises ``SingularDataError`` when no group has a nonsingular seed."""

    def k_of(rows):  # ceil(len(rows) * k / n), in integers
        return -(-len(rows) * k // len(x))

    pooled = []
    for rows in groups:
        block = x[rows]
        seeds = _draw_seeds(block, m // len(groups), gen)
        if len(seeds[0]):
            pooled.append(_best_after_two_steps(block, k_of(rows), seeds))
    if not pooled:
        raise SingularDataError("all initial (p+1)-subsets are singular")
    if len(groups) == 1:
        return pooled[0]
    fits = [np.concatenate(a) for a in list(zip(*pooled))[1:]]
    if not np.isfinite(fits[-1]).all():
        return None
    merged = np.sort(np.concatenate(groups))
    supports, *fits = _best_after_two_steps(x[merged], k_of(merged), (None, *fits))
    if not np.isfinite(fits[-1]).all():
        return None
    return merged[supports], *fits


@functools.lru_cache(maxsize=8)
def _k_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) in lexicographic order, (C(n, k), k),
    read-only; cached per (n, k), and built uncached by ``__wrapped__``."""
    subsets = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    table = np.fromiter(subsets, dtype=np.intp).reshape(-1, k)
    table.flags.writeable = False
    return table


def _enumerate_mcd(x: np.ndarray, k: int) -> McdFit:
    """Exact MCD: every k-subset (``_k_subsets``) is fitted in one
    ``_batch_fit`` and the first of least log-determinant, in lexicographic
    order, wins.  Raises ``SingularDataError`` when every k-subset is
    singular, which holds exactly when every (p+1)-subset is."""
    n = len(x)
    kept = math.comb(n, k) * k * 8 <= _CHUNK_BYTES // 16  # 512 KiB: the cache holds 4 MiB
    supports = (_k_subsets if kept else _k_subsets.__wrapped__)(n, k)
    logdets = _batch_fit(x, supports)[3]
    if not np.isfinite(logdets).any():
        raise SingularDataError("all k-subsets are singular")
    # the first minimum, so ties go to the lower support
    return _finalize(x, supports[int(np.argmin(logdets))])


def fast_mcd(data, cfg: McdConfig = McdConfig(), rng: RngStream = RngStream(0)) -> McdFit:
    """Randomized MCD search; deterministic given (data, cfg, rng).

    Raises ``SampleTooSmallError`` unless n > p (``McdConfig.subset_size``).
    With k = n the fit is the classical mean and covariance of all rows.
    When C(n, k) is at most ``_ENUM_MAX`` and the (C(n, k), k, p) float64
    rows of all k-subsets fit ``_CHUNK_BYTES``, it is the exact MCD of every
    k-subset, fitted in one batch, and draws nothing from ``rng``.
    Otherwise it runs the search's stages as the module docstring sets them
    out: seeds from ``rng``, in groups of rows (``_search``) above
    ``_NESTED_MIN`` rows, two C-steps of each, the ``N_BEST_KEPT`` best kept
    and stepped to convergence, and the best of them returned.  Each of the
    three leaves through ``_finalize``.
    """
    x = _rows(data)
    n, p = x.shape
    k = cfg.subset_size(n, p)
    if k == n:
        return _finalize(x, np.arange(n))
    # C(n, k) >= n, so n bounds the count before it is computed
    if n <= _ENUM_MAX and math.comb(n, k) <= min(_ENUM_MAX, _CHUNK_BYTES // (8 * k * p)):
        return _enumerate_mcd(x, k)

    m, gen = cfg.n_initial_subsets, rng.generator()
    found = _search(x, k, m, _group_rows(n, gen) if n > _NESTED_MIN else [np.arange(n)], gen)
    if found is None:
        found = _search(x, k, m, [np.arange(n)], rng.generator())
    supports, _, _, logdets = _concentrate(x, k, found, steps=MAX_CSTEPS)
    return _finalize(x, supports[_rank_candidates(logdets, supports, 1)[0]])


def _rank_candidates(logdets: np.ndarray, supports: np.ndarray, n_keep: int) -> list[int]:
    """Indices of the ``n_keep`` best distinct candidates, ordered by
    (determinant, support lexicographic), the first of each support kept.
    A stable argsort orders the determinants; supports are compared, as
    lists of ints, only within a run of equal determinants, and only until
    ``n_keep`` distinct ones are kept."""
    dets = logdets.tolist()
    order = np.argsort(logdets, kind="stable").tolist()
    kept, seen = [], set()
    for _, run in itertools.groupby(order, key=dets.__getitem__):
        for i in sorted(run, key=lambda i: supports[i].tolist()):
            key = supports[i].tobytes()
            if key not in seen:
                seen.add(key)
                kept.append(i)
                if len(kept) == n_keep:
                    return kept
    return kept


def reweight_mcd(data, raw: McdFit) -> McdFit:
    """One-pass hard-rejection reweighting of a raw MCD fit.

    Rows with squared robust distance above chi2_{p, delta} get weight 0,
    delta = ``REWEIGHT_DELTA``; the distances come from the Cholesky factor
    of ``raw.sigma`` (``_factor``), as the C-step's definition does
    (``_whitened_sq_norms``).  The scatter is the weighted sample
    covariance (divisor sum(w) - 1, the classical convention) times the
    consistency factor with alpha replaced by delta.  Raises
    ``NotPositiveDefiniteError`` when the raw fit is singular or that
    factor finds ``raw.sigma`` singular, and ``SingularDataError`` when
    fewer than 2 rows are kept.
    """
    x = _rows(data)
    n, p = x.shape
    chol, raw_logdet = _factor(raw.sigma[None])
    if raw.singular or not np.isfinite(raw_logdet[0]):
        raise NotPositiveDefiniteError("raw MCD scatter is not positive definite")
    d2 = _whitened_sq_norms(x, raw.mu[None], _inverse_factor(chol))[0]
    w = d2 <= _reweight_cutoff(p)
    n_kept = int(w.sum())
    if n_kept < 2:
        raise SingularDataError(f"reweighting kept {n_kept} observation(s); a scatter needs 2")
    (mu,), (sigma,), _, (logdet,) = _batch_fit(x, np.flatnonzero(w)[None])
    c_star = mcd_consistency_factor(REWEIGHT_DELTA, p)
    return McdFit(mu=mu, sigma=c_star * sigma, support=raw.support, log_det=float(logdet),
                  weights=w.astype(np.int8), singular=not np.isfinite(logdet))
