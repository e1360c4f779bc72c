import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario import mcd as mcd_module
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
        sign, logdet = np.linalg.slogdet(sigma)
        logdet = logdet if sign > 0 and np.isfinite(logdet) else -np.inf
        if best is None or (logdet, comb) < best[0]:
            best = ((logdet, comb), mu, sigma)
    (logdet, comb), mu, sigma = best
    return mcd_module._finalize(k, n, p, mu, sigma, comb, logdet)


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
        assert f1.support == f2.support


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
            assert f.support == e.support
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
            assert f.support == e.support
            assert f.log_det == pytest.approx(e.log_det, rel=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 3))
        a = fast_mcd(x, McdConfig(), RngStream(5, 5))
        b = fast_mcd(x, McdConfig(), RngStream(5, 5))
        assert a.support == b.support
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
    return fit.support, fit.log_det, fit.mu.tobytes(), fit.sigma.tobytes(), fit.singular


class TestEnumeration:
    """Samples with C(n, k) <= ``_ENUM_MAX`` get the exact MCD from every
    k-subset instead of the randomized search."""

    @pytest.mark.parametrize("n,p,k", STUDY_SHAPES)
    def test_matches_exact_at_study_shapes(self, n, p, k):
        assert McdConfig().subset_size(n, p) == k
        assert math.comb(n, k) <= mcd_module._ENUM_MAX
        for seed in range(4):
            x = shifted_sample(n, p, seed)
            e = exact_mcd(x)
            f = fast_mcd(x, McdConfig(), RngStream(seed))
            assert f.support == e.support
            assert f.log_det == pytest.approx(e.log_det, rel=1e-10)

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
        assert fit.support == exact_mcd(x).support
        assert all(i - 1 in fit.support for i in fit.support if i % 2)

    @pytest.mark.parametrize(
        "x",
        [shifted_sample(15, 7, 1), np.repeat(shifted_sample(7, 3, 2), 2, axis=0)],
        ids=["shifted", "duplicated"],
    )
    @pytest.mark.parametrize("per_chunk", [1, 97])
    def test_several_chunks(self, x, per_chunk, monkeypatch):
        # one subset per chunk puts every tie between chunks
        n, p = x.shape
        k = McdConfig().subset_size(n, p)
        one = fast_mcd(x, McdConfig(), RngStream(0))
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 8 * k * p * per_chunk)
        assert math.comb(n, k) > 5 * per_chunk
        assert fit_bits(fast_mcd(x, McdConfig(), RngStream(0))) == fit_bits(one)

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

    def test_bounded_by_work(self, monkeypatch):
        # every shape with C(n, k) <= _ENUM_MAX and k <= 20 is enumerated;
        # k = n - 1 at n = 2000, p = 5 is 1e8 of work and is searched
        assert mcd_module._ENUM_MAX * 20 * 20**2 <= mcd_module._ENUM_WORK_MAX
        calls = []
        enumerate_mcd = mcd_module._enumerate_mcd
        monkeypatch.setattr(
            mcd_module, "_enumerate_mcd", lambda *a: calls.append(a[1]) or enumerate_mcd(*a)
        )
        fast_mcd(shifted_sample(15, 8, 1), McdConfig(), RngStream(0))
        assert calls == [12]
        cfg = McdConfig(alpha=0.9995)
        assert cfg.subset_size(2000, 5) == 1999 and math.comb(2000, 1999) <= mcd_module._ENUM_MAX
        fit = fast_mcd(shifted_sample(2000, 5, 1), cfg, RngStream(0))
        assert calls == [12] and len(fit.support) == 1999


def cholesky_weights(x, raw):
    """Reweighting weights from distances by triangular solves against the
    Cholesky factor of the raw scatter; the oracle for the LU distances."""
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
            mus, sigmas, logdets = batch_fit(x, supports)
            calls["n"] += 1
            return mus, sigmas, logdets + 1e3 * calls["n"]

        monkeypatch.setattr(mcd_module, "_batch_fit", inflating)
        x = np.random.default_rng(14).standard_normal((40, 3))
        with pytest.raises(NumericalError, match="increased"):
            fast_mcd(x, McdConfig(), RngStream(1))


    @pytest.mark.xfail(raises=NumericalError, strict=True,
                       reason="slogdet gives a numerically singular scatter a finite log-det")
    @pytest.mark.filterwarnings("ignore:MCD support subset has singular covariance")
    def test_collinear_rows_give_singular_fit(self):
        # 20 of 30 rows on one line: the MCD's 17 rows can all lie on it, so
        # the fit is singular; today the monotonicity check raises instead.
        # At p = 4 each of these samples raises with the einsum scatter and
        # the matmul scatter alike; at p = 2 and 3, which samples raise
        # depends on rounding.
        p = 4
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((30, p))
            x[:20] = rng.standard_normal(p) + rng.standard_normal((20, 1)) * rng.standard_normal(p)
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


def oracle_cstep(x, k, mus, sigmas):
    """The C-step before chunking: one LU solve with n right-hand sides per
    candidate, a full stable argsort, every candidate in one batch."""
    delta_t = np.swapaxes(x[None, :, :] - mus[:, None, :], 1, 2)
    d2 = np.einsum("mpn,mpn->mn", delta_t, np.linalg.solve(sigmas, delta_t))
    supports = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
    return (supports, *mcd_module._batch_fit(x, supports))


def assert_same_bits(a, b):
    for u, v in zip(a, b):
        assert u.dtype == v.dtype and u.shape == v.shape
        assert u.tobytes() == v.tobytes()


def one_norm_cond(sigmas):
    inv = np.linalg.inv(sigmas)
    return np.abs(sigmas).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)


class TestCStepOracle:
    """``_batch_cstep`` returns the oracle's supports and fits bit for bit
    over the first two C-steps of a FastMCD run."""

    @staticmethod
    def two_steps(x, seed):
        n, p = x.shape
        k = McdConfig().subset_size(n, p)
        _, mus, sigmas, logdets = mcd_module._draw_seeds(x, McdConfig(), RngStream(seed))
        conds = []
        for _ in range(2):
            alive = np.isfinite(logdets)  # as _concentrate steps them
            mus, sigmas = mus[alive], sigmas[alive]
            conds.append(one_norm_cond(sigmas))
            new = mcd_module._batch_cstep(x, k, mus, sigmas)
            assert_same_bits(new, oracle_cstep(x, k, mus, sigmas))
            _, mus, sigmas, logdets = new
        return np.concatenate(conds)

    def test_clean_gaussian(self):
        x = np.random.default_rng(21).standard_normal((300, 4))
        self.two_steps(x, 1)

    def test_block_takes_solve_fallback(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((200, 3))
        x[:20] = 1e6 + rng.standard_normal((20, 3))
        # mixed supports exceed _COND_MAX; one well-conditioned first-step
        # candidate has its k-th distance at a tie of its p+1 seed rows,
        # which the inverse alone orders differently from the solve
        assert (self.two_steps(x, 2) > mcd_module._COND_MAX).any()

    def test_duplicated_rows_tie(self):
        # rows on a 3x3x3 lattice: many duplicates, and distinct rows at
        # equal distances
        x = np.random.default_rng(23).integers(0, 3, (150, 3)).astype(float)
        self.two_steps(x, 3)

    def test_several_chunks(self, monkeypatch):
        x = np.random.default_rng(24).standard_normal((120, 3))
        x[:15] += 50.0
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 7 * x.nbytes)
        self.two_steps(x, 4)

    @given(
        d2=st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan]), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_matches_stable_argsort(self, d2):
        d2 = np.array(d2)
        order = np.argsort(d2, axis=1, kind="stable")
        for k in range(1, d2.shape[1] + 1):
            expected = np.sort(order[:, :k], axis=1)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            np.testing.assert_array_equal(mcd_module._k_smallest(d2, k, kth), expected)


class TestConcentrate:
    """``_concentrate``, the one C-step loop, and the seeds it starts from."""

    def test_singular_on_entry_keeps_its_fit(self, monkeypatch):
        x = np.random.default_rng(24).standard_normal((120, 3))
        x[:15] += 50.0
        k = McdConfig().subset_size(*x.shape)
        seeds = mcd_module._draw_seeds(x, McdConfig(), RngStream(4))
        entry = mcd_module._concentrate(x, k, *seeds, steps=2)
        kill = np.zeros(len(entry[0]), dtype=bool)
        kill[[0, 8, 9, len(kill) - 1]] = True
        entry[3][kill] = -np.inf
        monkeypatch.setattr(mcd_module, "_CHUNK_BYTES", 7 * x.nbytes)
        out = mcd_module._concentrate(x, k, *[a.copy() for a in entry], steps=3)
        assert_same_bits([a[kill] for a in out], [a[kill] for a in entry])
        # the others step as they would without the singular ones
        alive = mcd_module._concentrate(x, k, *[a[~kill] for a in entry], steps=3)
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
        seeds, *fits = mcd_module._draw_seeds(x, McdConfig(), RngStream(3))
        assert len(draws) > 1
        assert_same_bits(fits, mcd_module._batch_fit(x, seeds))


def subset_moments(x, support):
    """The per-subset oracle of ``_batch_fit``: the plain mean, ``np.cov``
    and its log-determinant."""
    sub = x[list(support)]
    sigma = np.atleast_2d(np.cov(sub, rowvar=False))
    sign, logdet = np.linalg.slogdet(sigma)
    return sub.mean(axis=0), sigma, logdet if sign > 0 else -np.inf


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
    C-step: stacks with both the fast distances and the LU fallback."""
    n, p = x.shape
    k = McdConfig().subset_size(n, p)
    seeds, mus, sigmas, _ = mcd_module._draw_seeds(x, McdConfig(), RngStream(seed))
    return k, seeds, mcd_module._batch_cstep(x, k, mus, sigmas)[0]


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
        mus, sigmas, logdets = mcd_module._batch_fit(x, supports)
        dev = x[supports] - mus[:, None, :]
        summed = np.einsum("mkp,mkq->mpq", dev, dev) / (supports.shape[1] - 1)
        assert np.abs(sigmas - summed).max() <= 1e-12 * np.abs(summed).max()
        for mu, sigma, logdet, support in zip(mus, sigmas, logdets, supports):
            mu_o, sigma_o, logdet_o = subset_moments(x, support)
            assert np.abs(mu - mu_o).max() <= 1e-12 * np.abs(x[support]).max()
            assert np.abs(sigma - sigma_o).max() <= 1e-12 * np.abs(sigma_o).max()
            sign, own = np.linalg.slogdet(sigma)
            assert logdet == (own if sign > 0 else -np.inf)
            if np.isfinite(logdet_o) and np.linalg.cond(sigma_o) < 1e6:
                assert logdet == pytest.approx(logdet_o, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(42).standard_normal((200, 4)),
        block_sample(1e6, 43),
    ], ids=["gaussian", "block-1e6"])
    def test_same_bits_in_any_stack(self, x):
        # a candidate's fit and kept rows do not depend on the candidates
        # computed with it, so chunking the C-step keeps every bit
        k, seeds, supports = candidate_stack(x, 44)
        for subsets in (seeds, supports):
            mus, sigmas, logdets = mcd_module._batch_fit(x, subsets)
            closest = mcd_module._closest_rows(x, k, mus, sigmas)
            for size in (1, 3):
                chunks = [slice(lo, lo + size) for lo in range(0, len(subsets), size)]
                fits = [mcd_module._batch_fit(x, subsets[c]) for c in chunks]
                assert_same_bits((mus, sigmas, logdets), [np.concatenate(f) for f in zip(*fits)])
                rows = [mcd_module._closest_rows(x, k, mus[c], sigmas[c]) for c in chunks]
                assert_same_bits([closest], [np.concatenate(rows)])
