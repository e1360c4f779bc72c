import copy
import hashlib
import itertools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario import mcd as mcd_module
from robustvario import numerics
from robustvario.errors import (
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    SampleTooSmallError,
    SingularDataError,
)
from robustvario.mcd import (
    McdConfig,
    McdFit,
    fast_mcd,
    mcd_consistency_factor,
    reweight_mcd,
)
from robustvario.numerics import RngStream, chisq_cdf, chisq_quantile

EPS = np.finfo(float).eps


def oracle_factor(sigma):
    """Cholesky factor and log-determinant of one scatter: ``np.linalg.cholesky``
    of it alone, NaN where that fails, and -inf when it fails or a pivot has
    L_jj^2 <= p eps sigma_jj, the pivot rule of ``_factor``."""
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return np.full_like(sigma, np.nan), -np.inf
    pivots = np.diag(chol)
    if not (pivots * pivots > len(sigma) * EPS * np.diag(sigma)).all():
        return chol, -np.inf
    return chol, 2 * np.log(pivots).sum()


def exact_mcd(x, k=None):
    """Globally optimal raw MCD by enumerating every k-subset; the oracle
    for ``fast_mcd``.  Ties go to the lexicographically first support."""
    n, p = x.shape
    k = McdConfig().subset_size(n, p) if k is None else k
    best = None
    for comb in itertools.combinations(range(n), k):
        sub = x[list(comb)]
        mu = sub.mean(axis=0)
        dev = sub - mu
        sigma = dev.T @ dev / (k - 1)
        logdet = oracle_factor(sigma)[1]
        if best is None or (logdet, comb) < best[0]:
            best = ((logdet, comb), mu, sigma)
    (logdet, comb), mu, sigma = best
    c = mcd_consistency_factor(k / n, p)
    return McdFit(mu=mu, sigma=c * sigma, support=comb, log_det=float(logdet),
                  singular=not np.isfinite(logdet))


def cluster_with_far_point(seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((9, 2)) * 0.1, [[100.0, 100.0]]])


class TestConsistencyFactor:
    def test_full_sample_is_one(self):
        for p in (1, 3, 8):
            assert mcd_consistency_factor(1.0, p) == 1.0

    def test_half_sample_p1(self):
        # 0.5 / F_{chi2_3}(chi2_{1,0.5}), evaluated against the numerics oracle
        expected = 0.5 / chisq_cdf(chisq_quantile(0.5, 1), 3)
        assert mcd_consistency_factor(0.5, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.0, abs=0.05)

    def test_defining_identity(self):
        c = mcd_consistency_factor(0.75, 2)
        assert c * chisq_cdf(chisq_quantile(0.75, 2), 4) == pytest.approx(0.75, abs=1e-9)

    def test_monotone_and_bounded(self):
        values = [mcd_consistency_factor(a, 3) for a in (0.5, 0.6, 0.75, 0.9, 0.999, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_domain(self):
        with pytest.raises(ValueError):
            mcd_consistency_factor(0.0, 2)
        with pytest.raises(ValueError):
            mcd_consistency_factor(0.5, 0)

    def test_scipy_formula_at_every_default_fraction(self):
        # every default k / n up to 3600 rows and 8 columns, and the
        # reweighting fraction: the benchmark's workloads (the 60x60 fixture
        # and the 15x15 studies) fit only such samples
        pairs = [((n + p + 1) // 2 / n, p) for p in range(1, 9) for n in range(p + 2, 3601)]
        pairs += [(mcd_module.REWEIGHT_DELTA, p) for p in range(1, 9)]
        alpha, p = np.array(pairs).T
        quantiles = scipy.special.gammaincinv(p / 2, alpha)
        expected = alpha / scipy.special.gammainc(p / 2 + 1, quantiles)
        got = [mcd_consistency_factor(a, int(q)) for a, q in pairs]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    def test_repeated_fit_evaluates_no_incomplete_gamma(self, monkeypatch):
        # the consistency factors and the reweighting cutoff are cached, so
        # a second fit of the same shape evaluates no chi-square law
        mcd_consistency_factor.cache_clear()
        mcd_module._reweight_cutoff.cache_clear()
        evaluated = []
        ratios = numerics._gamma_ratios
        monkeypatch.setattr(
            numerics, "_gamma_ratios", lambda a, x: evaluated.append(a) or ratios(a, x)
        )

        def fit(seed):
            x = shifted_sample(150, 3, seed)
            return reweight_mcd(x, fast_mcd(x, McdConfig(), RngStream(seed)))

        fit(0)
        first = len(evaluated)
        assert first > 0
        fit(1)
        assert len(evaluated) == first


class TestExactMcd:
    def test_full_subset_is_classical(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2))
        fit = exact_mcd(x, k=8)
        np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(fit.sigma, np.cov(x, rowvar=False), atol=1e-12)

    def test_far_point_excluded(self):
        fit = exact_mcd(cluster_with_far_point(), k=6)
        assert 9 not in fit.support
        assert len(fit.support) == 6

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((11, 2))
        a = np.array([[2.0, 0.7], [-0.5, 1.5]])
        b = np.array([3.0, -1.0])
        f1 = exact_mcd(x)
        f2 = exact_mcd(x @ a.T + b)
        np.testing.assert_allclose(f2.mu, a @ f1.mu + b, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(f2.sigma, a @ f1.sigma @ a.T, rtol=1e-8)
        assert_same_bits([f1.support], [f2.support])


class TestFastMcd:
    # these samples are small enough for the exact enumeration; _ENUM_MAX = 0
    # keeps the randomized search under test against the oracle
    def test_matches_exact_on_small_samples(self, monkeypatch):
        monkeypatch.setattr(mcd_module, "_ENUM_MAX", 0)
        rng = np.random.default_rng(7)
        for i in range(25):
            n = int(rng.integers(8, 13))
            p = int(rng.integers(2, 4))
            x = rng.standard_normal((n, p))
            e = exact_mcd(x)
            f = fast_mcd(x, McdConfig(), RngStream(i))
            assert_same_bits([f.support], [e.support])
            assert f.log_det == pytest.approx(e.log_det, rel=1e-10, abs=1e-10)

    def test_matches_exact_on_mod_partition_shape(self, monkeypatch):
        # the commonest fit of a .mod correction-factor study: n = 15 rows of
        # p = 7 or 8 lags; every third sample has 2 rows shifted by 20
        monkeypatch.setattr(mcd_module, "_ENUM_MAX", 0)
        rng = np.random.default_rng(16)
        for i in range(12):
            p = 7 + i % 2
            x = rng.standard_normal((15, p))
            if i % 3 == 0:
                x[rng.choice(15, 2, replace=False)] += 20.0
            e = exact_mcd(x)
            f = fast_mcd(x, McdConfig(), RngStream(i))
            assert_same_bits([f.support], [e.support])
            assert f.log_det == pytest.approx(e.log_det, rel=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 3))
        a = fast_mcd(x, McdConfig(), RngStream(5, 5))
        b = fast_mcd(x, McdConfig(), RngStream(5, 5))
        assert_same_bits([a.support], [b.support])
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 2))
        a = np.array([[2.0, 0.5], [-1.0, 3.0]])
        b = np.array([1.0, -2.0])
        f1 = fast_mcd(x, McdConfig(), RngStream(9))
        f2 = fast_mcd(x @ a.T + b, McdConfig(), RngStream(9))
        np.testing.assert_allclose(f2.mu, a @ f1.mu + b, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(f2.sigma, a @ f1.sigma @ a.T, rtol=1e-8)

    def test_breakdown_explosion_threshold(self):
        # n = 20, p = 2, k = 11: moving n-k+1 = 10 rows far away must blow up
        # the scatter; 9 rows must not (clean cluster still recoverable)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 2))
        cfg = McdConfig()

        ten = x.copy()
        ten[10:] = 1e9
        with pytest.warns(RuntimeWarning):
            fit10 = fast_mcd(ten, cfg, RngStream(1))
        assert np.linalg.eigvalsh(fit10.sigma).max() > 1e10

        nine = x.copy()
        nine[11:] = 1e9
        fit9 = fast_mcd(nine, cfg, RngStream(1))
        assert np.linalg.eigvalsh(fit9.sigma).max() < 1e4
        assert all(i < 11 for i in fit9.support)

    def test_k_equals_n(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 2))
        fit = fast_mcd(x, McdConfig(alpha=1.0), RngStream(0))
        np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
        assert_pinned(fit, "700a4498438a801b", 12, -0.2955234494898339, "8b9c87cfc73f7c34",
                      "2ac314ba439db306")

    def test_support_is_owned_and_read_only(self):
        # the search, the k = n fit, the enumeration and a reweighted fit:
        # each support is an intp array of its own, no view of a stack
        x = shifted_sample(40, 2, 1)
        fits = [fast_mcd(x, McdConfig(alpha), RngStream(0)) for alpha in (None, 1.0)]
        fits += [fast_mcd(shifted_sample(11, 5, 0), McdConfig(), RngStream(0))]
        fits += [reweight_mcd(x, fits[0])]
        for fit in fits:
            assert fit.support.dtype == np.intp and fit.support.flags.owndata
            assert not fit.support.flags.writeable

    def test_alpha_parameter(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 2))
        fit = fast_mcd(x, McdConfig(alpha=0.75), RngStream(2))
        assert len(fit.support) == 30

    def test_all_singular_raises(self):
        x = np.ones((10, 2))
        with pytest.raises(SingularDataError):
            fast_mcd(x, McdConfig(), RngStream(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        x = np.random.default_rng(15).standard_normal((30, 2))
        raw = fast_mcd(x, McdConfig(), RngStream(0))
        x[[3, 11, 20]] = bad
        with pytest.raises(InputError, match="finite"):
            fast_mcd(x, McdConfig(), RngStream(0))
        with pytest.raises(InputError, match="finite"):
            reweight_mcd(x, raw)

    def test_dimension_guard(self):
        with pytest.raises(SampleTooSmallError):
            fast_mcd(np.zeros((2, 3)), McdConfig(), RngStream(0))

    @pytest.mark.parametrize("alpha", [None, 0.5, 0.75, 1.0])
    def test_subset_size_needs_more_rows_than_dimensions(self, alpha):
        cfg = McdConfig(alpha)
        for p in range(1, 10):
            for n in range(1, p + 1):
                with pytest.raises(SampleTooSmallError, match="need n > p"):
                    cfg.subset_size(n, p)
            for n in range(p + 1, p + 12):
                assert (n + p + 1) // 2 <= cfg.subset_size(n, p) <= n

    def test_consistency_rate(self):
        # entrywise deviation from I_p should shrink roughly like 1/sqrt(n)
        rng = np.random.default_rng(12)
        for p in (2, 4):
            devs = {}
            for n in (200, 2000):
                trials = []
                for t in range(8):
                    x = rng.standard_normal((n, p))
                    raw = fast_mcd(x, McdConfig(), RngStream(100 + t))
                    fit = reweight_mcd(x, raw)
                    trials.append(np.abs(fit.sigma - np.eye(p)).mean())
                devs[n] = np.mean(trials)
            ratio = devs[2000] / devs[200]
            assert 0.2 <= ratio <= 0.5, (p, devs)


# (n, p, k) of the study's raw fits with C(n, k) <= _ENUM_MAX; the last two
# are the .mod partitions of the 15x15 correction-factor study
STUDY_SHAPES = [(11, 5, 8), (11, 6, 9), (14, 5, 10), (14, 6, 10), (15, 7, 11), (15, 8, 12)]


def shifted_sample(n, p, seed):
    """Gaussian rows; odd seeds shift 2 of them by 20."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    if seed % 2:
        x[rng.choice(n, 2, replace=False)] += 20.0
    return x


def fit_bits(fit):
    return fit.support.tobytes(), fit.log_det, fit.mu.tobytes(), fit.sigma.tobytes(), fit.singular


class TestEnumeration:
    """Samples with C(n, k) <= ``_ENUM_MAX`` whose k-subsets' rows fit
    ``_CHUNK_BYTES`` get the exact MCD, from every k-subset in one batch,
    instead of the randomized search."""

    @pytest.mark.parametrize("n,p,k", STUDY_SHAPES)
    def test_matches_exact_at_study_shapes(self, n, p, k, monkeypatch):
        assert McdConfig().subset_size(n, p) == k
        assert math.comb(n, k) <= mcd_module._ENUM_MAX
        seeds = spy(monkeypatch, "_draw_seeds")
        fits = spy(monkeypatch, "_batch_fit")
        for seed in range(4):
            x = shifted_sample(n, p, seed)
            e = exact_mcd(x)
            f = fast_mcd(x, McdConfig(), RngStream(seed))
            assert_same_bits([f.support], [e.support])
            assert f.log_det == pytest.approx(e.log_det, rel=1e-10)
        # every fit is one batch of all k-subsets and the winner's refit at
        # the exit, and no search
        assert seeds == []
        shapes = [args[1].shape for args, _ in fits]
        assert shapes == [(math.comb(n, k), k), (1, k)] * 4

    @pytest.mark.parametrize("n,p,k", STUDY_SHAPES[-2:])
    def test_same_bits_as_search_at_mod_shapes(self, n, p, k, monkeypatch):
        samples = [shifted_sample(n, p, seed) for seed in range(10)]
        enumerated = [fit_bits(fast_mcd(x, McdConfig(), RngStream(s))) for s, x in enumerate(samples)]
        monkeypatch.setattr(mcd_module, "_ENUM_MAX", 0)
        searched = [fit_bits(fast_mcd(x, McdConfig(), RngStream(s))) for s, x in enumerate(samples)]
        assert enumerated == searched

    def test_independent_of_stream(self):
        x = shifted_sample(15, 7, 1)
        fits = [
            fast_mcd(x, McdConfig(), RngStream(0)),
            fast_mcd(x, McdConfig(), RngStream(99, 7)),
            fast_mcd(x, McdConfig(), RngStream(3, 2**40)),
        ]
        assert len({fit_bits(f) for f in fits}) == 1

    def test_all_singular_raises(self):
        with pytest.raises(SingularDataError, match="k-subsets"):
            fast_mcd(np.ones((15, 7)), McdConfig(), RngStream(0))

    def test_duplicated_rows_take_first_support(self):
        # every row twice in a row: a subset and its copy with row 2j swapped
        # for its twin 2j + 1 fit the same values in the same order, so their
        # bits tie and only the support order decides
        x = np.repeat(shifted_sample(6, 2, 3), 2, axis=0)
        fit = fast_mcd(x, McdConfig(), RngStream(0))
        assert_same_bits([fit.support], [exact_mcd(x).support])
        assert all(i - 1 in fit.support for i in fit.support if i % 2)

    def test_search_just_above_cutoff(self, monkeypatch):
        n, p = 15, 5  # k = 10, C(15, 10) = 3003
        k = McdConfig().subset_size(n, p)
        assert math.comb(n, k) - 10 < mcd_module._ENUM_MAX < math.comb(n, k)
        calls = []
        draw_seeds = mcd_module._draw_seeds
        monkeypatch.setattr(
            mcd_module, "_draw_seeds", lambda *a: calls.append(1) or draw_seeds(*a)
        )
        x = shifted_sample(n, p, 1)
        fast_mcd(x, McdConfig(), RngStream(0))
        assert calls == [1]
        monkeypatch.setattr(mcd_module, "_ENUM_MAX", math.comb(n, k))
        fast_mcd(x, McdConfig(), RngStream(0))
        assert calls == [1]

    @pytest.mark.parametrize("n,p,seed,pin", [
        (11, 5, 0, ("02718a5dae6e518e", 8, -7.26770161981405, "bd4830aef13155b7",
                    "cde842e396981de7")),
        (11, 5, 1, ("bb8fb9076c0bad22", 8, -4.2478654042909945)),
        (11, 6, 0, ("0b7bb0c4a7fe8c84", 9, -7.930436342331546)),
        (11, 6, 1, ("ffc3474bbb579ffc", 9, -4.443649041825739)),
        (14, 5, 0, ("55e0973afa3a9fe9", 10, -5.022105650720457)),
        (14, 5, 1, ("77e17c231bd3fc77", 10, -5.850459673269461)),
        (14, 6, 0, ("4ddceca49bc32f9a", 10, -8.32782453194523)),
        (14, 6, 1, ("34e971cbf7ec86dd", 10, -7.32798181085267)),
        (15, 7, 0, ("14ff7313b85aca53", 11, -7.958666547377367)),
        (15, 7, 1, ("763524ea8873f90c", 11, -10.049693935040835)),
        (15, 8, 0, ("4110857a98339084", 12, -11.120024261939044)),
        (15, 8, 1, ("2bfb586bfe249a3b", 12, -9.518003317471377)),
    ])
    def test_pinned_study_fits(self, n, p, seed, pin):
        assert_pinned(fast_mcd(shifted_sample(n, p, seed), McdConfig(), RngStream(seed)), *pin)

    @pytest.mark.parametrize("n,p,alpha,enumerates", [
        *[(n, p, None, True) for n, p, _ in STUDY_SHAPES],
        (26, 19, None, False),  # C(26, 23) = 2600 subsets, whose rows take 9.1 MB
        (1024, 1, 0.9995, True), (1025, 1, 0.9995, False),  # k = n - 1 at the gate
        (724, 2, 0.9995, True), (725, 2, 0.9995, False),
    ])
    def test_batch_within_chunk_bytes(self, n, p, alpha, enumerates, monkeypatch):
        # an enumeration gathers the (C(n, k), k, p) rows of every k-subset
        # in one batch, which must fit the budget of one C-step chunk
        enumerated = spy(monkeypatch, "_enumerate_mcd")
        fits = spy(monkeypatch, "_batch_fit")
        fast_mcd(shifted_sample(n, p, 1), McdConfig(alpha), RngStream(0))
        assert bool(enumerated) == enumerates
        batches = [8 * args[1].size * p for args, _ in fits] if enumerated else []
        assert all(size <= mcd_module._CHUNK_BYTES for size in batches)

    @pytest.mark.parametrize("seed,pin", [
        (0, ("9adc85c3d0530450", 1139, 0.00015059391876000305)),
        (1, ("df9c29176f293bca", 1139, 0.5555515020038932)),
    ])
    def test_k_one_below_n_on_1140_rows(self, seed, pin, monkeypatch):
        # a 40x30 study's east-west differences at --alpha 0.9995: k = 1139
        # of 1140 rows, whose 1140 subsets' rows (20.8 MB) exceed the batch
        # gate; the search finds the exact fit, pinned from every k-subset
        seeds = spy(monkeypatch, "_draw_seeds")
        fit = fast_mcd(shifted_sample(1140, 2, seed), McdConfig(alpha=0.9995), RngStream(seed))
        assert seeds and len(fit.support) == 1139
        assert_pinned(fit, *pin)


class TestSubsetTable:
    def test_cached_read_only_lexicographic(self):
        table = mcd_module._k_subsets(9, 6)
        assert mcd_module._k_subsets(9, 6) is table
        assert not table.flags.writeable
        assert table.tolist() == [list(c) for c in itertools.combinations(range(9), 6)]

    def test_large_table_is_not_kept(self, monkeypatch):
        # k = n - 1: the rows of the 725 subsets of 724 rows (8.4 MB) exceed
        # _CHUNK_BYTES, so that fit is the search and builds no table; 724
        # rows (8.38 MB) fit it and are enumerated, but their table (4.2 MB)
        # exceeds the cache's 512 KiB per table and is built for the fit
        cfg = McdConfig(alpha=0.9995)
        assert 8 * 725 * 724 * 2 > mcd_module._CHUNK_BYTES >= 8 * 724 * 723 * 2
        mcd_module._k_subsets.cache_clear()
        seeds = spy(monkeypatch, "_draw_seeds")
        fit = fast_mcd(shifted_sample(725, 2, 1), cfg, RngStream(0))
        assert seeds and len(fit.support) == 724
        assert mcd_module._k_subsets.cache_info().currsize == 0
        drawn = len(seeds)
        fast_mcd(shifted_sample(724, 2, 1), cfg, RngStream(0))
        assert len(seeds) == drawn
        assert mcd_module._k_subsets.cache_info().currsize == 0

    def test_cache_keeps_small_tables_only(self, monkeypatch):
        # eight enumerated k = n - 1 fits of 1017-1024 rows at p = 1, whose
        # tables are 8.3-8.4 MB each, keep none of them; a study shape's
        # table is kept and returned as the same object
        cfg = McdConfig(alpha=0.9995)
        mcd_module._k_subsets.cache_clear()
        seeds = spy(monkeypatch, "_draw_seeds")
        built = spy(monkeypatch, "_batch_fit")
        for n in range(1017, 1025):
            fit = fast_mcd(shifted_sample(n, 1, 1), cfg, RngStream(0))
            assert len(fit.support) == n - 1
        # one batch of the n subsets and the winner's refit per fit
        stacks = [len(args[1]) for args, _ in built]
        assert not seeds and stacks == [m for n in range(1017, 1025) for m in (n, 1)]
        assert mcd_module._k_subsets.cache_info().currsize == 0
        n, p, k = max(STUDY_SHAPES, key=lambda s: math.comb(s[0], s[2]) * s[2])
        fast_mcd(shifted_sample(n, p, 0), McdConfig(), RngStream(0))
        assert mcd_module._k_subsets.cache_info().currsize == 1
        table = mcd_module._k_subsets(n, k)
        assert mcd_module._k_subsets(n, k) is table
        assert table.nbytes <= mcd_module._CHUNK_BYTES // 16


def cholesky_weights(x, raw):
    """Reweighting weights from distances by triangular solves against
    scipy's Cholesky factor of the raw scatter; the oracle of the weights."""
    lower = scipy.linalg.cholesky(raw.sigma, lower=True)
    y = scipy.linalg.solve_triangular(lower, (x - raw.mu).T, lower=True)
    d2 = np.einsum("ij,ij->j", y, y)
    return (d2 <= chisq_quantile(mcd_module.REWEIGHT_DELTA, x.shape[1])).astype(np.int8)


def block_sample(mu0, seed):
    x = np.random.default_rng(seed).standard_normal((200, 4))
    x[:20] += mu0
    return x


class TestReweight:
    @pytest.mark.parametrize("x", [
        np.random.default_rng(31).standard_normal((200, 4)),
        block_sample(5.0, 32),
        block_sample(1e6, 33),
        # rows on a 3x3x3 lattice: many duplicates and tied distances
        np.random.default_rng(34).integers(0, 3, (150, 3)).astype(float),
    ], ids=["gaussian", "block-5", "block-1e6", "lattice"])
    def test_weights_match_cholesky_oracle(self, x):
        raw = fast_mcd(x, McdConfig(), RngStream(5))
        fit = reweight_mcd(x, raw)
        np.testing.assert_array_equal(fit.weights, cholesky_weights(x, raw))
        assert 0 < fit.weights.sum() < len(x)

    def test_factorizations_are_cholesky(self, monkeypatch):
        # a fit and its reweighting factor every scatter by Cholesky alone:
        # no LU inverse, determinant or solve
        def lu(*args, **kwargs):
            raise AssertionError("LU factorization called")

        for name in ("inv", "slogdet", "det", "solve"):
            monkeypatch.setattr(np.linalg, name, lu)
        for x in (block_sample(5.0, 35), shifted_sample(15, 7, 1), shifted_sample(1600, 3, 1)):
            reweight_mcd(x, fast_mcd(x, McdConfig(), RngStream(5)))

    def test_indefinite_raises(self):
        x = np.random.default_rng(6).standard_normal((20, 2))
        raw = McdFit(mu=np.zeros(2), sigma=np.array([[1.0, 2.0], [2.0, 1.0]]),
                     support=tuple(range(11)), log_det=math.log(3.0))
        with pytest.raises(NotPositiveDefiniteError):
            reweight_mcd(x, raw)

    def test_singular_raw_fit_raises(self):
        # more than half the rows coincide: the raw support is singular
        x = np.vstack([np.ones((15, 2)), np.random.default_rng(7).standard_normal((5, 2))])
        with pytest.warns(RuntimeWarning, match="singular"):
            raw = fast_mcd(x, McdConfig(), RngStream(1))
        assert raw.singular
        with pytest.raises(NotPositiveDefiniteError):
            reweight_mcd(x, raw)

    def test_all_weights_one_gives_classical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 2))
        # a deliberately wide raw fit: every distance falls below the cutoff
        raw = McdFit(
            mu=np.zeros(2), sigma=1e4 * np.eye(2), support=tuple(range(16)),
            log_det=math.log(1e8),
        )
        fit = reweight_mcd(x, raw)
        assert fit.weights.sum() == 30
        c_star = mcd_consistency_factor(0.975, 2)
        np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(fit.sigma, c_star * np.cov(x, rowvar=False), rtol=1e-10)

    @pytest.mark.parametrize("centre,n_kept", [(1e3, 0), (None, 1)], ids=["far", "one-row"])
    def test_fewer_than_two_kept_raises(self, centre, n_kept):
        # a raw fit far from every row keeps none, one of unit-scale data
        # centred on a row with a tiny scatter keeps that row alone
        x = np.random.default_rng(11).standard_normal((30, 2))
        mu = x[3] if centre is None else np.full(2, centre)
        raw = McdFit(mu=mu.copy(), sigma=1e-6 * np.eye(2), support=tuple(range(16)),
                     log_det=2 * math.log(1e-6))
        with pytest.raises(SingularDataError, match=f"kept {n_kept} observation"):
            reweight_mcd(x, raw)

    def test_far_point_zero_weight(self):
        x = cluster_with_far_point()
        raw = exact_mcd(x, k=6)
        fit = reweight_mcd(x, raw)
        assert fit.weights[9] == 0

    def test_weights_affine_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((25, 2))
        x[-2:] += 8.0
        a = np.array([[1.5, -0.3], [0.2, 0.8]])
        b = np.array([0.5, 2.0])
        raw1 = fast_mcd(x, McdConfig(), RngStream(4))
        raw2 = fast_mcd(x @ a.T + b, McdConfig(), RngStream(4))
        w1 = reweight_mcd(x, raw1).weights
        w2 = reweight_mcd(x @ a.T + b, raw2).weights
        np.testing.assert_array_equal(w1, w2)

    def test_factors_recorded(self):
        # raw scatter = c * cov(support), c for alpha = k/n; reweighted
        # scatter = c* * cov(kept rows), c* for alpha = 0.975
        rng = np.random.default_rng(10)
        x = rng.standard_normal((40, 3))
        raw = fast_mcd(x, McdConfig(), RngStream(2))
        fit = reweight_mcd(x, raw)
        c = mcd_consistency_factor(len(raw.support) / 40, 3)
        cov_support = np.cov(x[list(raw.support)], rowvar=False)
        np.testing.assert_allclose(raw.sigma, c * cov_support, rtol=1e-12)
        c_star = mcd_consistency_factor(0.975, 3)
        cov_kept = np.cov(x[fit.weights == 1], rowvar=False)
        np.testing.assert_allclose(fit.sigma, c_star * cov_kept, rtol=1e-12)


class TestCStepMonotonicity:
    def test_determinant_never_increases(self):
        # exercised by the in-algorithm assertion across many random fits
        rng = np.random.default_rng(13)
        for i in range(40):
            n = int(rng.integers(20, 80))
            p = int(rng.integers(2, 6))
            x = rng.standard_normal((n, p))
            x[: n // 4] *= 10.0  # heavy tail to force real concentration work
            fast_mcd(x, McdConfig(), RngStream(i))

    def test_increase_raises_numerical_error(self, monkeypatch):
        # a C-step whose refit reports a larger determinant must fail loudly,
        # also under python -O
        calls = {"n": 0}
        batch_fit = mcd_module._batch_fit

        def inflating(x, supports):
            mus, sigmas, chols, logdets = batch_fit(x, supports)
            calls["n"] += 1
            return mus, sigmas, chols, logdets + 1e3 * calls["n"]

        monkeypatch.setattr(mcd_module, "_batch_fit", inflating)
        x = np.random.default_rng(14).standard_normal((40, 3))
        with pytest.raises(NumericalError, match="increased"):
            fast_mcd(x, McdConfig(), RngStream(1))

    def test_collinear_rows_give_singular_fit(self):
        # 20 of 30 rows on one line: the MCD's 17 rows can all lie on it, so
        # the fit is singular.  slogdet gave some of these rank-1 scatters a
        # finite log-determinant, and the monotonicity check raised; the
        # Cholesky pivot rule finds every one singular
        p = 4
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((30, p))
            x[:20] = rng.standard_normal(p) + rng.standard_normal((20, 1)) * rng.standard_normal(p)
            with pytest.warns(RuntimeWarning, match="singular covariance"):
                assert fast_mcd(x, McdConfig(), RngStream(seed)).singular


def ranked_by_full_sort(logdets, supports, n_keep):
    """The oracle of ``_rank_candidates``: every candidate sorted by
    (log_det, support tuple), the first of each support kept."""
    order = sorted(range(len(logdets)), key=lambda i: (logdets[i], tuple(supports[i])))
    kept, seen = [], set()
    for i in order:
        if tuple(supports[i]) not in seen:
            seen.add(tuple(supports[i]))
            kept.append(i)
    return kept[:n_keep]


@st.composite
def tied_candidates(draw):
    """Few distinct log-determinants (-inf among them) and few distinct
    supports, so that ties and duplicates are common."""
    m = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    logdets = draw(st.lists(st.sampled_from([-np.inf, -2.5, 0.0, 1.0]), min_size=m, max_size=m))
    support = st.lists(st.integers(0, 300), min_size=k, max_size=k, unique=True).map(sorted)
    supports = draw(st.lists(support, min_size=m, max_size=m))
    return np.array(logdets), np.array(supports, dtype=np.intp), draw(st.integers(1, 12))


class TestRankCandidates:
    def test_ties_beyond_the_best_eight(self):
        # nine singular candidates tie at -inf; the lexicographically first
        # support, (1, 18), is the last of them
        supports = np.array([(9 - i, 10 + i) for i in range(9)], dtype=np.intp)
        assert mcd_module._rank_candidates(np.full(9, -np.inf), supports, 1) == [8]

    @given(tied_candidates())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort(self, candidates):
        logdets, supports, n_keep = candidates
        assert mcd_module._rank_candidates(logdets, supports, n_keep) == ranked_by_full_sort(
            logdets, supports, n_keep
        )


def oracle_fit(x, supports):
    """``_batch_fit`` by its plain formulas: ``mean``, the deviations, one
    batched matmul and ``oracle_factor`` of each scatter alone."""
    subs = x[supports]
    mus = subs.mean(axis=1)
    dev = subs - mus[:, None, :]
    sigmas = np.swapaxes(dev, 1, 2) @ dev / (supports.shape[1] - 1)
    factors = [oracle_factor(sigma) for sigma in sigmas]
    chols = np.array([chol for chol, _ in factors]).reshape(sigmas.shape)
    return mus, sigmas, chols, np.array([logdet for _, logdet in factors])


def oracle_features(x):
    """``_quadratic_features`` by its plain formulas: fancy-indexed column
    products and one ``vstack``."""
    c = x.mean(axis=0)
    y = x - c
    a, b = np.triu_indices(x.shape[1])
    quadratic = (y[:, a] * y[:, b] * np.where(a == b, 1.0, 2.0)).T
    return c, np.vstack([quadratic, y.T, np.ones(len(x))]), float(np.abs(y).max()), (a, b)


def definition_closest(x, k, mus, chols):
    """``_closest_rows`` by its definition, one candidate at a time: W =
    ``_inverse_factor`` of its factor alone, the squared norms of W (x - mu)
    and the first k of a stable argsort."""
    rows = []
    for mu, chol in zip(mus, chols):
        w = mcd_module._inverse_factor(chol[None])[0]
        z = w @ (np.ascontiguousarray(x.T) - mu[:, None])
        rows.append(np.sort(np.argsort(np.einsum("pn,pn->n", z, z), kind="stable")[:k]))
    return np.array(rows, dtype=np.intp).reshape(len(mus), k)


def oracle_closest(x, k, mus, sigmas):
    """The k rows closest to each fit by triangular solves against scipy's
    Cholesky factor, one candidate at a time, then a stable argsort; and the
    squared distances, (m, n)."""
    d2 = np.empty((len(mus), len(x)))
    for i, (mu, sigma) in enumerate(zip(mus, sigmas)):
        lower = scipy.linalg.cholesky(sigma, lower=True)
        d2[i] = np.square(scipy.linalg.solve_triangular(lower, (x - mu).T, lower=True)).sum(axis=0)
    return np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1), d2


def assert_near_oracle(rows, x, k, mus, sigmas):
    """``rows`` are ``oracle_closest``'s but for rows whose oracle distance
    lies within 4 p eps cond_2(sigma), relative, of the k-th.  Both paths
    are backward stable: each gives the distances under a scatter within
    about p eps |sigma| of the fit's, so they may order such rows either way
    (scipy's and numpy's Cholesky factors differ in the last bits).  A fit
    whose band exceeds 1e-2 orders no row for sure and is skipped."""
    band = 4 * x.shape[1] * EPS * np.linalg.cond(sigmas)
    told = band <= 1e-2
    wanted, d2 = oracle_closest(x, k, mus[told], sigmas[told])
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    near = np.abs(d2 - kth) <= band[told, None] * np.abs(kth)
    kept, want = np.zeros(d2.shape, dtype=bool), np.zeros(d2.shape, dtype=bool)
    np.put_along_axis(kept, rows[told], True, axis=1)
    np.put_along_axis(want, wanted, True, axis=1)
    assert (kept == want)[~near].all()


def oracle_cstep(x, k, mus, chols):
    """The C-step before chunking: every candidate's rows by the definition,
    one at a time (``definition_closest``), and ``oracle_fit``."""
    supports = definition_closest(x, k, mus, chols)
    return (supports, *oracle_fit(x, supports))


def draw_seeds(x, seed):
    """The seeds of a search on all rows of x from ``RngStream(seed)``."""
    return mcd_module._draw_seeds(x, McdConfig.n_initial_subsets, RngStream(seed).generator())


def assert_same_bits(a, b):
    for u, v in zip(a, b):
        assert u.dtype == v.dtype and u.shape == v.shape
        assert u.tobytes() == v.tobytes()


class TestCStepOracle:
    """One C-step of ``_concentrate`` gives the oracle's supports and fits
    bit for bit over the first two C-steps of a FastMCD run, and scipy's
    closest rows but for near ties."""

    @staticmethod
    def two_steps(x, seed, monkeypatch):
        # returns the number of candidates the product sent to the definition
        n, p = x.shape
        k = McdConfig().subset_size(n, p)
        stack = draw_seeds(x, seed)
        sigmas = oracle_fit(x, stack[0])[1]
        defined = spy(monkeypatch, "_closest_by_definition")
        for _ in range(2):
            alive = np.isfinite(stack[3])  # as _concentrate steps them
            stack, sigmas = [a[alive] for a in stack], sigmas[alive]
            _, mus, chols, _ = stack
            supports, mus2, sigmas2, chols2, logdets2 = oracle_cstep(x, k, mus, chols)
            new = mcd_module._concentrate(x, k, [a.copy() for a in stack], steps=1)
            assert_same_bits(new, [supports, mus2, chols2, logdets2])
            assert_near_oracle(new[0], x, k, mus, sigmas)
            stack, sigmas = new, sigmas2
        return sum(len(args[2]) for args, _ in defined)

    def test_clean_gaussian(self, monkeypatch):
        x = np.random.default_rng(21).standard_normal((300, 4))
        self.two_steps(x, 1, monkeypatch)

    def test_block_takes_solve_fallback(self, monkeypatch):
        # fits that mix the block with the rest are ill-conditioned, and the
        # product cannot certify some of them: those take the definition's
        # triangular-solve distances
        rng = np.random.default_rng(22)
        x = rng.standard_normal((200, 3))
        x[:20] = 1e6 + rng.standard_normal((20, 3))
        assert self.two_steps(x, 2, monkeypatch) > 0

    def test_duplicated_rows_tie(self, monkeypatch):
        # rows on a 3x3x3 lattice: many duplicates, and distinct rows at
        # equal distances, which only the definition orders
        x = np.random.default_rng(23).integers(0, 3, (150, 3)).astype(float)
        assert self.two_steps(x, 3, monkeypatch) > 0

    def test_several_chunks(self, monkeypatch):
        x = np.random.default_rng(24).standard_normal((120, 3))
        x[:15] += 50.0
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 7 * x.nbytes)
        self.two_steps(x, 4, monkeypatch)


@st.composite
def kernel_stacks(draw, p=st.integers(2, 8)):
    """A sample, a subset size k and a stack of sorted candidate supports:
    (p+1)-seeds or k-subsets.  The rows are Gaussian, on a 3-level lattice
    (duplicate rows and distinct rows at equal distances), Gaussian with a
    tenth of them moved by 1e6 (mixed fits are ill-conditioned) or by 1e3
    (the product's features cancel, so its rounding bound decides), or near
    ties: Gaussian or offset rows, each repeated one ulp up; k is the
    maximal-breakdown size, n - 1 or n (every row kept, so the k-th
    distance has no neighbour above it)."""
    p = draw(p)
    n = draw(st.integers(p + 2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "lattice", "block", "offset", "near-tie"]))
    if kind == "lattice":
        x = rng.integers(0, 3, (n, p)).astype(float)
    else:
        x = rng.standard_normal((n, p))
        base = draw(st.sampled_from(["gaussian", "offset"])) if kind == "near-tie" else kind
        x[: n // 10 + 1] += {"block": 1e6, "offset": 1e3}.get(base, 0.0)
        if kind == "near-tie":
            x = np.vstack([x[: n - n // 2], np.nextafter(x[: n // 2], np.inf)])
    k = draw(st.sampled_from([(n + p + 1) // 2, n - 1, n]))
    size = draw(st.sampled_from([p + 1, k]))
    supports = np.sort(rng.random((draw(st.integers(1, 30)), n)).argsort(axis=1)[:, :size], axis=1)
    return x, k, supports


class TestKernelBits:
    """``_batch_fit`` and ``_closest_rows`` give the bytes of their plain
    formulas, ``oracle_fit`` and ``definition_closest``, and scipy's closest
    rows but for near ties."""

    @staticmethod
    def closest_of_nonsingular(x, k, fits):
        # only nonsingular fits are stepped, as in _concentrate
        mus, sigmas, chols, logdets = fits
        alive = np.isfinite(logdets)
        features = mcd_module._quadratic_features(x)
        closest = mcd_module._closest_rows(x, k, mus[alive], chols[alive], features)
        assert_near_oracle(closest, x, k, mus[alive], sigmas[alive])
        return closest, definition_closest(x, k, mus[alive], chols[alive])

    @given(kernel_stacks())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_plain_formulas(self, stack):
        x, k, supports = stack
        fits = mcd_module._batch_fit(x, supports)
        assert_same_bits(fits, oracle_fit(x, supports))
        closest, expected = self.closest_of_nonsingular(x, k, fits)
        assert_same_bits([closest], [expected])

    @pytest.mark.parametrize("x", [
        np.random.default_rng(45).integers(0, 3, (150, 3)).astype(float),
        block_sample(1e6, 46),
    ], ids=["lattice", "block-1e6"])
    def test_same_bytes_on_search_stacks(self, x, monkeypatch):
        # a search's seeds and first-step supports: the lattice ties many
        # k-th distances, and the block's mixed fits are ill-conditioned;
        # both send candidates to the definition
        k, seeds, supports = candidate_stack(x, 47)
        for subsets in (seeds, supports):
            fits = mcd_module._batch_fit(x, subsets)
            assert_same_bits(fits, oracle_fit(x, subsets))
            with monkeypatch.context() as m:
                defined = spy(m, "_closest_by_definition")
                closest, expected = self.closest_of_nonsingular(x, k, fits)
            assert_same_bits([closest], [expected])
            assert sum(len(args[2]) for args, _ in defined) > 0

    @pytest.mark.parametrize("m, k, n, p", [
        (100, 152, 300, 4),  # a search's first C-steps
        (10, 1552, 3100, 4),  # the refinement of a fixture fit
        (500, 64, 120, 8),  # a study's seeds stepped to k
        (1365, 11, 15, 7),  # the enumeration: every 11-subset of 15 rows
        (1, 2950, 3100, 5),  # reweighting refits, one candidate
        (1, 110, 120, 8),
    ])
    def test_same_bytes_at_benchmark_shapes(self, m, k, n, p):
        # the gathered (k, m, p) block, its mean over the leading axis and
        # the scatters of its transposed view give the plain formulas' bytes
        rng = np.random.default_rng(m * n + k)
        x = rng.standard_normal((n, p)) * rng.uniform(0.1, 100, p) + rng.uniform(-1e3, 1e3, p)
        x[: n // 10] += 1e3
        if m == math.comb(n, k):
            supports = mcd_module._k_subsets.__wrapped__(n, k)
        else:
            supports = np.sort(rng.random((m, n)).argsort(axis=1)[:, :k], axis=1)
        assert_same_bits(mcd_module._batch_fit(x, supports), oracle_fit(x, supports))

    @given(kernel_stacks(p=st.just(1)))
    @settings(max_examples=200, deadline=None)
    def test_one_column_means_within_summation_error(self, stack):
        # at p = 1 ``mean`` sums pairwise and ``_batch_fit`` in another
        # order, so means may differ by the rounding of either sum, at most
        # (k' - 1) * eps * max|x| for k' summed rows; the selection is the
        # definition's bit for bit
        x, k, supports = stack
        fits = mcd_module._batch_fit(x, supports)
        mus, sigmas, _, _ = oracle_fit(x, supports)
        scale = np.abs(x[supports]).max(axis=(1, 2))[:, None]
        bound = (supports.shape[1] - 1) * EPS * scale
        assert (np.abs(fits[0] - mus) <= bound).all()
        np.testing.assert_allclose(fits[1], sigmas, rtol=1e-9, atol=0)
        closest, expected = self.closest_of_nonsingular(x, k, fits)
        assert_same_bits([closest], [expected])


class TestQuadraticFeatures:
    """``_quadratic_features`` writes the bytes of ``oracle_features`` into
    one (P, n) array, without (n, P) temporaries."""

    @given(kernel_stacks(p=st.integers(1, 8)))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_plain_formulas(self, stack):
        x = stack[0]
        c, f, reach, (a, b) = mcd_module._quadratic_features(x)
        c0, f0, reach0, (a0, b0) = oracle_features(x)
        assert_same_bits([c, f, a, b], [c0, f0, a0, b0])
        assert reach == reach0

    def test_memory_at_100k_rows(self):
        # peak 42 MiB here, 69.5 MiB with the plain formulas' temporaries;
        # the (P, n) features alone are 27.5 MiB at p = 7
        x = np.random.default_rng(61).standard_normal((100_000, 7))
        tracemalloc.start()
        try:
            fast_mcd(x, McdConfig(), RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * 2**20


def near_tie_sample(seed, twins=75):
    """75 Gaussian rows, a tenth of them moved by 1e3, the first ``twins``
    of them repeated one ulp up: the product's features cancel to about
    1e-12, so that only the product's rounding bound keeps twins from being
    cut in its order."""
    x = np.random.default_rng(seed).standard_normal((75, 3))
    x[:8] += 1e3
    return np.vstack([x, np.nextafter(x[:twins], np.inf)])


class TestCertifiedCut:
    """``_closest_rows`` keeps the product's k closest rows only where its
    rounding bound proves them the definition's; other candidates reach
    ``_closest_by_definition``."""

    @staticmethod
    def shares(x, seed, monkeypatch):
        # candidates stepped and candidates sent to the definition in one fit
        stepped = spy(monkeypatch, "_closest_rows")
        fallback = spy(monkeypatch, "_closest_by_definition")
        fast_mcd(x, McdConfig(), RngStream(seed))
        return tuple(sum(len(args[2]) for args, _ in calls) for calls in (stepped, fallback))

    # The counts are pinned: the certificate from the k-th distance's two
    # neighbours decides each candidate as a near-tie count over all rows did.

    def test_clean_gaussian_search_is_certified(self, monkeypatch):
        x = np.random.default_rng(51).standard_normal((300, 4))
        assert self.shares(x, 1, monkeypatch) == (1042, 1)

    @pytest.mark.parametrize("x, counts", [
        (np.random.default_rng(52).integers(0, 3, (150, 3)).astype(float), (1013, 1010)),
        (block_sample(1e6, 53), (1037, 1029)),
    ], ids=["lattice", "block-1e6"])
    def test_ties_and_blocks_reach_the_definition(self, x, counts, monkeypatch):
        assert self.shares(x, 2, monkeypatch) == counts

    @staticmethod
    def near_tie_stacks(seed, twins, monkeypatch):
        # the seeds' and the first step's stacks of near_tie_sample(seed,
        # twins): checks the definition's bytes and returns, per stack, the
        # candidates stepped and those sent to the definition
        x = near_tie_sample(seed, twins)
        k, seeds, supports = candidate_stack(x, seed)
        shares = []
        for subsets in (seeds, supports):
            mus, sigmas, chols, logdets = mcd_module._batch_fit(x, subsets)
            alive = np.isfinite(logdets)
            with monkeypatch.context() as m:
                fallback = spy(m, "_closest_by_definition")
                closest = mcd_module._closest_rows(
                    x, k, mus[alive], chols[alive], mcd_module._quadratic_features(x)
                )
            assert_same_bits([closest], [definition_closest(x, k, mus[alive], chols[alive])])
            assert_near_oracle(closest, x, k, mus[alive], sigmas[alive])
            shares.append((alive.sum(), sum(len(args[2]) for args, _ in fallback)))
        return shares

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_ties_at_an_offset(self, seed, monkeypatch):
        # a bound a millionth as wide keeps twins in the product's order
        # here and misses the definition's bytes.  Every row has a twin, so
        # no candidate is certified: the certified stack is empty
        for stepped, defined in self.near_tie_stacks(seed, 75, monkeypatch):
            assert defined == stepped

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certified_and_uncertified_in_one_stack(self, seed, monkeypatch):
        # 25 of 75 rows twinned: the certificate keeps some candidates and
        # sends the others to the definition
        for stepped, defined in self.near_tie_stacks(seed, 25, monkeypatch):
            assert 0 < defined < stepped


class TestConcentrate:
    """``_concentrate``, the one C-step loop, and the seeds it starts from."""

    def test_singular_on_entry_keeps_its_fit(self, monkeypatch):
        x = np.random.default_rng(24).standard_normal((120, 3))
        x[:15] += 50.0
        k = McdConfig().subset_size(*x.shape)
        seeds = draw_seeds(x, 4)
        entry = mcd_module._concentrate(x, k, seeds, steps=2)
        kill = np.zeros(len(entry[0]), dtype=bool)
        kill[[0, 8, 9, len(kill) - 1]] = True
        entry[3][kill] = -np.inf
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 7 * x.nbytes)
        out = mcd_module._concentrate(x, k, [a.copy() for a in entry], steps=3)
        assert_same_bits([a[kill] for a in out], [a[kill] for a in entry])
        # the others step as they would without the singular ones
        alive = mcd_module._concentrate(x, k, [a[~kill] for a in entry], steps=3)
        assert_same_bits([a[~kill] for a in out], alive)
        assert not np.array_equal(alive[0], entry[0][~kill])

    def test_seeds_carry_their_fits(self, monkeypatch):
        # rows on a 3x3x3 lattice: many seeds are singular and redrawn
        x = np.random.default_rng(23).integers(0, 3, (150, 3)).astype(float)
        draws = []
        sample = mcd_module._sample_subsets
        monkeypatch.setattr(
            mcd_module, "_sample_subsets", lambda *a: draws.append(a[2]) or sample(*a)
        )
        seeds, mus, chols, logdets = draw_seeds(x, 3)
        assert len(draws) > 1
        fits = mcd_module._batch_fit(x, seeds)
        assert_same_bits([mus, chols, logdets], [fits[0], fits[2], fits[3]])


class TestSampleSubsets:
    @pytest.mark.parametrize("tie", [False, True], ids=["distinct", "tie-at-cut"])
    def test_argpartition_choice(self, tie):
        # keys that tie at a cut put more than count * size entries in the
        # mask; then the subsets keep argpartition's choice among the ties
        keys = np.random.default_rng(56).random((40, 30))
        if tie:
            order = np.argsort(keys, axis=1)
            rows = np.arange(0, 40, 2)
            keys[rows, order[rows, 4]] = keys[rows, order[rows, 3]]
            keys[rows[::2], order[rows[::2], 5]] = keys[rows[::2], order[rows[::2], 3]]
            cuts = np.sort(keys, axis=1)[:, 3:4]
            assert np.count_nonzero(keys <= cuts) > 40 * 4
        gen = types.SimpleNamespace(random=lambda shape: keys.copy())
        expected = np.sort(np.argpartition(keys, 3, axis=1)[:, :4], axis=1)
        assert_same_bits([mcd_module._sample_subsets(30, 4, 40, gen)], [expected])

    def test_key_blocks_keep_the_draws(self, monkeypatch):
        # keys drawn in blocks of 7 rows give the subsets of one (40, 30)
        # draw and leave the generator where that draw leaves it
        whole = np.random.default_rng(57)
        expected = np.sort(np.argsort(whole.random((40, 30)), axis=1)[:, :4], axis=1)
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 8 * 30 * 7)
        blocked, shapes = np.random.default_rng(57), []
        gen = types.SimpleNamespace(random=lambda s: shapes.append(s) or blocked.random(s))
        assert_same_bits([mcd_module._sample_subsets(30, 4, 40, gen)], [expected])
        assert shapes == [(7, 30)] * 5 + [(5, 30)]
        assert blocked.random() == whole.random()


def outlier_sample(n, p, seed):
    """Gaussian rows with 10% of them, the returned set, shifted by 10."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    shifted = rng.choice(n, n // 10, replace=False)
    x[shifted] += 10.0
    return x, set(shifted.tolist())


def full_search(x, seed, monkeypatch):
    """The search on all rows, the oracle of the nested search."""
    with monkeypatch.context() as m:
        m.setattr(mcd_module, "_NESTED_MIN", len(x))
        return fast_mcd(x, McdConfig(), RngStream(seed))


def assert_pinned(fit, digest, size, log_det, mu=None, sigma=None):
    """The fit's support hash (sha256[:16] of its little-endian int64
    bytes), support size and log-determinant are the pinned ones, and so
    are the sha256[:16] of its ``mu`` and ``sigma`` bytes where given."""
    support = np.array(fit.support, dtype="<i8").tobytes()
    assert (hashlib.sha256(support).hexdigest()[:16], len(fit.support)) == (digest, size)
    assert fit.log_det == pytest.approx(log_det, rel=1e-12)
    for pinned, value in ((mu, fit.mu), (sigma, fit.sigma)):
        assert pinned is None or hashlib.sha256(value.tobytes()).hexdigest()[:16] == pinned


def spy(monkeypatch, name):
    """Record the arguments and a copy of the result of every call of an
    mcd function; the caller may update the result in place."""
    calls = []
    real = getattr(mcd_module, name)

    def recorded(*args):
        result = real(*args)
        calls.append((args, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(mcd_module, name, recorded)
    return calls


class TestNested:
    """Above ``_NESTED_MIN`` rows the seeds run in groups and a merged
    sample before the best go to all rows."""

    def test_threshold(self, monkeypatch):
        calls = spy(monkeypatch, "_group_rows")
        x, _ = outlier_sample(601, 3, 600)
        fast_mcd(x[:600], McdConfig(), RngStream(6))
        assert calls == []
        fast_mcd(x, McdConfig(), RngStream(6))
        assert len(calls) == 1

    def test_threshold_keeps_bits(self, monkeypatch):
        # 600 rows take the search on all rows: its support and log-determinant
        # are pinned to the values that search gave on this sample
        rng = np.random.default_rng(600)
        x = rng.standard_normal((600, 3))
        x[:60] += 10.0
        fit = fast_mcd(x, McdConfig(), RngStream(6))
        assert fit_bits(fit) == fit_bits(full_search(x, 6, monkeypatch))
        assert min(fit.support) >= 60
        assert_pinned(fit, "1e3a5967dd4ffba5", 302, -2.5283568299469397)

    @pytest.mark.parametrize("n", [601, 1499])
    def test_groups_split_all_rows(self, n):
        groups = mcd_module._group_rows(n, np.random.default_rng(n))
        sizes = [len(g) for g in groups]
        assert len(groups) == n // 300 and max(sizes) - min(sizes) <= 1
        np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(n))
        assert all((np.diff(g) > 0).all() for g in groups)

    @pytest.mark.parametrize("n", [1501, 30_000])
    def test_five_groups_of_300(self, n):
        groups = mcd_module._group_rows(n, np.random.default_rng(n))
        assert [len(g) for g in groups] == [300] * 5
        rows = np.concatenate(groups)
        assert len(np.unique(rows)) == 1500 and rows.max() < n
        assert all((np.diff(g) > 0).all() for g in groups)

    @pytest.mark.parametrize("n", [1499, 1501])
    def test_stream_rule(self, n, monkeypatch):
        # the fit's stream gives the permutation, then each group's seeds
        x, _ = outlier_sample(n, 2, 7)
        groups = spy(monkeypatch, "_group_rows")
        seeds = spy(monkeypatch, "_draw_seeds")
        fast_mcd(x, McdConfig(), RngStream(8, 3))
        gen = RngStream(8, 3).generator()
        (_, rows), = groups
        assert_same_bits(rows, mcd_module._group_rows(n, gen))
        assert len(seeds) == len(rows)
        for g, ((block, m, _), drawn) in zip(rows, seeds):
            assert_same_bits([block], [x[g]])
            assert m == McdConfig.n_initial_subsets // len(rows)
            assert_same_bits(drawn, mcd_module._draw_seeds(x[g], m, gen))

    @pytest.mark.parametrize("n,k_groups,k_merged", [
        (1499, [188] * 4, 751),  # 751 * 375 / 1499 = 187.9 and 751 * 374 / 1499 = 187.4
        (1501, [151] * 5, 752),  # 752 * 300 / 1501 = 150.3; 752 * 1500 / 1501 = 751.5
    ])
    def test_subset_sizes(self, n, k_groups, k_merged, monkeypatch):
        # k_g = ceil(n_g * k / n); the merge's k_m equals k at 1501 rows too
        stages = spy(monkeypatch, "_best_after_two_steps")
        x, _ = outlier_sample(n, 2, 10)
        fit = fast_mcd(x, McdConfig(), RngStream(1))
        assert [args[1] for args, _ in stages] == k_groups + [k_merged]
        assert len(fit.support) == McdConfig().subset_size(n, 2)

    def test_deterministic(self):
        x, _ = outlier_sample(1600, 4, 9)
        fits = [fast_mcd(x, McdConfig(), RngStream(s, 1)) for s in (5, 5, 6)]
        assert fit_bits(fits[0]) == fit_bits(fits[1])
        assert fits[0].mu.tobytes() != fits[2].mu.tobytes()

    def test_close_to_full_search(self, monkeypatch):
        # no shifted row in the support, and a log-determinant within 0.01 of
        # the search on all rows (the largest gap measured was 0.0031)
        shapes = [(n, p) for n in (601, 1499, 1501, 3000) for p in (2, 3, 4, 5)]
        shapes += [(601, 5), (1499, 2), (1501, 3), (3000, 4)]
        for i, (n, p) in enumerate(shapes):
            x, shifted = outlier_sample(n, p, 100 + i)
            fit = fast_mcd(x, McdConfig(), RngStream(i))
            assert not shifted & set(fit.support), (n, p)
            assert abs(fit.log_det - full_search(x, i, monkeypatch).log_det) <= 0.01, (n, p)

    @pytest.mark.parametrize("n,stage,step,raises", [
        (1000, "merge", 1, False),  # from the groups' fits, of other samples
        (1000, "merge", 2, True),
        (1000, "full", 1, True),  # the merged sample is every row, and k_m = k
        (1000, "full", 2, True),
        (1600, "merge", 1, False),
        (1600, "merge", 2, True),
        (1600, "full", 1, False),  # from fits of k_m < k of 1500 rows
        (1600, "full", 2, True),
    ])
    def test_determinant_check(self, n, stage, step, raises, monkeypatch):
        # one C-step of one stage reports a larger log-determinant; up to
        # 1500 rows the merge and full-data stages both step all n rows.
        # Their stacks fit one chunk, so each step refits them by one call
        x, _ = outlier_sample(n, 3, 11)
        rows = n if stage == "full" else min(n, 1500)
        target = step + (2 if stage == "full" and n <= 1500 else 0)
        seen = []
        batch_fit = mcd_module._batch_fit

        def inflating(xs, supports):
            mus, sigmas, chols, logdets = batch_fit(xs, supports)
            if len(xs) == rows:
                seen.append(supports.shape)
                if len(seen) == target:
                    logdets = logdets + 1.0
            return mus, sigmas, chols, logdets

        monkeypatch.setattr(mcd_module, "_batch_fit", inflating)
        if raises:
            with pytest.raises(NumericalError, match="increased"):
                fast_mcd(x, McdConfig(), RngStream(2))
        else:
            fast_mcd(x, McdConfig(), RngStream(2))
        assert len(seen) >= target

    def test_singular_candidate_takes_full_search(self, monkeypatch):
        # 400 of 700 rows coincide: group fits turn singular, and the fit is
        # the search in one group of all rows, which finds the exact fit
        x = np.vstack([np.ones((400, 2)), np.random.default_rng(12).standard_normal((300, 2))])
        searches = spy(monkeypatch, "_search")
        seeds = spy(monkeypatch, "_draw_seeds")
        with pytest.warns(RuntimeWarning, match="singular"):
            fit = fast_mcd(x, McdConfig(), RngStream(3))
        assert [len(args[3]) for args, _ in searches] == [2, 1]
        assert searches[0][1] is None and fit.singular
        assert_same_bits(searches[1][0][3], [np.arange(700)])
        # its seeds come from the start of the stream
        assert_same_bits(seeds[-1][1], draw_seeds(x, 3))
        with pytest.warns(RuntimeWarning, match="singular"):
            assert fit_bits(fit) == fit_bits(full_search(x, 3, monkeypatch))
        assert_pinned(fit, "bce11bc10cb6ac44", 351, -math.inf, "5f07eef034c5a21f",
                      "66687aadf862bd77")

    @pytest.mark.parametrize("n,p,nested,full", [
        (1501, 3, ("38d2110afa35d55f", 752, -2.545272685298139, "6dbba260767a411f",
                   "88c762d687c872fd"),
         ("38d2110afa35d55f", 752, -2.545272685298139, "6dbba260767a411f", "88c762d687c872fd")),
        (3000, 4, ("443ca8f85aa08fe4", 1502, -2.615091800007867, "70a316a4ae1cc7f0",
                   "55d064e9c80c8c9a"),
         ("99dde98ad03e96f1", 1502, -2.615139104538154, "b1c79efcd74651f2", "c63d69112f9e48fe")),
    ])
    def test_pinned_bits(self, n, p, nested, full, monkeypatch):
        # the nested search and the search on all rows keep their pinned
        # supports, log-determinants and the bytes of their mean and scatter
        x, _ = outlier_sample(n, p, 6)
        assert_pinned(fast_mcd(x, McdConfig(), RngStream(6)), *nested)
        assert_pinned(full_search(x, 6, monkeypatch), *full)

    def test_fallback_memory_bounded(self):
        # 12,000 of 20,000 rows coincide, so group fits turn singular and the
        # fit falls back to the search on all rows: its seeds' keys, 80 MB in
        # one draw, are drawn in blocks, and its (500, k) supports are stepped
        # in place.  The peak was 170.5 MB with neither, here about 75 MB
        x = np.random.default_rng(0).standard_normal((20_000, 2))
        x[:12_000] = x[0]
        tracemalloc.start()
        try:
            with pytest.warns(RuntimeWarning, match="singular"):
                fit = fast_mcd(x, McdConfig(), RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.singular and peak <= 80e6

    def test_no_group_seed_raises(self):
        with pytest.raises(SingularDataError, match="singular"):
            fast_mcd(np.ones((700, 2)), McdConfig(), RngStream(0))

    def test_memory_bounded(self):
        # the search on all rows peaks at about 229 MB here, the nested one at 20 MB
        x, _ = outlier_sample(30_000, 5, 13)
        tracemalloc.start()
        try:
            fast_mcd(x, McdConfig(), RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def subset_moments(x, support):
    """The per-subset oracle of ``_batch_fit``: the plain mean, ``np.cov``
    and scipy's Cholesky factor of it, None where that fails."""
    sub = x[list(support)]
    sigma = np.atleast_2d(np.cov(sub, rowvar=False))
    try:
        chol = scipy.linalg.cholesky(sigma, lower=True)
    except np.linalg.LinAlgError:
        chol = None
    return sub.mean(axis=0), sigma, chol


@st.composite
def subset_stacks(draw):
    """A sample (offset 0 or 1e6) and a stack of sorted k-subsets of its rows."""
    p = draw(st.integers(1, 6))
    k = draw(st.integers(p + 1, 40))
    n = draw(st.integers(k, 60))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x += draw(st.sampled_from([0.0, 1e6]))
    supports = np.sort([rng.choice(n, k, replace=False) for _ in range(m)], axis=1)
    return x, supports


def candidate_stack(x, seed):
    """The (p+1)-seeds of a FastMCD run and the k-subset fits of their first
    C-step: stacks with both the certified product and the definition."""
    n, p = x.shape
    k = McdConfig().subset_size(n, p)
    seeds, mus, chols, _ = draw_seeds(x, seed)
    features = mcd_module._quadratic_features(x)
    return k, seeds, mcd_module._closest_rows(x, k, mus, chols, features)


class TestBatchKernel:
    """``_batch_fit`` and ``_closest_rows``, the C-step kernel."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_batch_fit_matches_oracle(self, offset):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((300, 5)) + offset
        supports = np.sort([rng.choice(300, 153, replace=False) for _ in range(20)], axis=1)
        self.assert_matches_oracle(x, supports)

    @given(subset_stacks())
    @settings(max_examples=100, deadline=None)
    def test_batch_fit_matches_oracle_on_drawn_shapes(self, stack):
        self.assert_matches_oracle(*stack)

    @staticmethod
    def assert_matches_oracle(x, supports):
        mus, sigmas, chols, logdets = mcd_module._batch_fit(x, supports)
        dev = x[supports] - mus[:, None, :]
        summed = np.einsum("mkp,mkq->mpq", dev, dev) / (supports.shape[1] - 1)
        assert np.abs(sigmas - summed).max() <= 1e-12 * np.abs(summed).max()
        for mu, sigma, chol, logdet, support in zip(mus, sigmas, chols, logdets, supports):
            mu_o, sigma_o, chol_o = subset_moments(x, support)
            assert np.abs(mu - mu_o).max() <= 1e-12 * np.abs(x[support]).max()
            assert np.abs(sigma - sigma_o).max() <= 1e-12 * np.abs(sigma_o).max()
            own_chol, own_logdet = oracle_factor(sigma)
            assert chol.tobytes() == own_chol.tobytes() and logdet == own_logdet
            if chol_o is not None and np.linalg.cond(sigma_o) < 1e6:
                assert np.abs(chol - chol_o).max() <= 1e-9 * np.abs(chol_o).max()
                logdet_o = 2 * np.log(np.diag(chol_o)).sum()
                assert logdet == pytest.approx(logdet_o, rel=1e-9, abs=1e-9)

    def test_one_failed_factor_leaves_the_stack(self, monkeypatch):
        # np.linalg.cholesky raises for a stack that holds an indefinite or a
        # rank-deficient (zero row and column) scatter; _factor factors it by
        # one call, without np.linalg.cholesky and without a warning.  Each
        # scatter gets oracle_factor's bytes of it alone: NaN and -inf where
        # it does not factor, -inf for the inf pivot of an inf diagonal
        # entry, and every other scatter the bytes it has in a stack without
        # the three
        a = np.random.default_rng(48).standard_normal((9, 8, 4))
        sigmas = np.swapaxes(a, 1, 2) @ a
        rank_deficient, inf_diagonal = sigmas[0].copy(), sigmas[1].copy()
        rank_deficient[1], rank_deficient[:, 1] = 0.0, 0.0
        inf_diagonal[2, 2] = np.inf
        bad = [np.diag([1.0, 1.0, -1.0, 1.0]), rank_deficient, inf_diagonal]
        # each kind of bad scatter at the start, the middle and the end
        stacks = [np.insert(sigmas, [0, 4, 9], np.roll(bad, r, axis=0), axis=0) for r in range(3)]
        at = [0, 5, 11]
        oracles = [[oracle_factor(sigma) for sigma in stack] for stack in stacks]
        for stack in stacks:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(stack)

        def raising_cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", raising_cholesky)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = mcd_module._factor(sigmas)
            assert np.isfinite(alone[1]).all()
            for stack, oracle in zip(stacks, oracles):
                chols, logdets = mcd_module._factor(stack)
                for chol, logdet, (own_chol, own_logdet) in zip(chols, logdets, oracle):
                    if np.isnan(own_chol).all():
                        assert np.isnan(chol).all() and logdet == -np.inf
                    else:
                        assert chol.tobytes() == own_chol.tobytes() and logdet == own_logdet
                assert (logdets[at] == -np.inf).all()
                rest = [np.delete(chols, at, axis=0), np.delete(logdets, at)]
                assert_same_bits(rest, alone)

    @pytest.mark.parametrize("gap,singular", [(2.0**-53, True), (2.0**-50, False)])
    def test_pivot_rule(self, gap, singular):
        # [[1, r], [r, 1]] for r = 1 - gap factors, with a last pivot 1 - r^2
        # of about 2 gap, and slogdet gives it a finite log-determinant; the
        # rule calls it singular up to p eps sigma_22 = 2^-51
        sigma = np.array([[1.0, 1.0 - gap], [1.0 - gap, 1.0]])
        assert np.isfinite(np.linalg.cholesky(sigma)).all()
        assert np.isfinite(np.linalg.slogdet(sigma)[1])
        assert (mcd_module._factor(sigma[None])[1][0] == -np.inf) == singular

    @pytest.mark.parametrize("x", [
        np.random.default_rng(42).standard_normal((200, 4)),
        block_sample(1e6, 43),
        1e3 + np.random.default_rng(48).standard_normal((200, 1)),
    ], ids=["gaussian", "block-1e6", "one-column"])
    def test_same_bits_in_any_stack(self, x):
        # a candidate's fit and kept rows do not depend on the candidates
        # computed with it, so chunking the C-step keeps every bit; at p = 1
        # a position-major sum would add a lone subset's rows pairwise
        k, seeds, supports = candidate_stack(x, 44)
        features = mcd_module._quadratic_features(x)
        for subsets in (seeds, supports):
            fits = mcd_module._batch_fit(x, subsets)
            mus, _, chols, _ = fits
            closest = mcd_module._closest_rows(x, k, mus, chols, features)
            for size in (1, 3):
                chunks = [slice(lo, lo + size) for lo in range(0, len(subsets), size)]
                parts = [mcd_module._batch_fit(x, subsets[c]) for c in chunks]
                assert_same_bits(fits, [np.concatenate(f) for f in zip(*parts)])
                rows = [
                    mcd_module._closest_rows(x, k, mus[c], chols[c], features) for c in chunks
                ]
                assert_same_bits([closest], [np.concatenate(rows)])
