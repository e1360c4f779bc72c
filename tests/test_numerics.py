import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from robustvario.errors import InputError
from robustvario.mcd import _sq_distances
from robustvario.numerics import DF_MAX, RngStream, chisq_cdf, chisq_quantile

# degrees of freedom of the accuracy grids: every integer and half-integer
# from 1 to 100, and 25 other values between
DF_GRID = sorted({*(np.arange(2, 201) / 2).tolist(),
                  *np.round(np.geomspace(1.05, 97.3, 25), 3).tolist()})


def sq_distances(rows, mu, sigma):
    """Squared distances of the rows under one fit, by the MCD code's solve."""
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    return _sq_distances(np.asarray(rows, dtype=float), mu[None], sigma[None])[0]


class TestChisqCdf:
    def test_zero(self):
        assert chisq_cdf(0.0, 3.0) == 0.0

    def test_df2_closed_form(self):
        # for two degrees of freedom the CDF is 1 - exp(-x/2)
        assert chisq_cdf(2.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_against_quadrature(self):
        # independent oracle: numeric quadrature of the chi2_3 density
        density = lambda t: t**0.5 * math.exp(-t / 2.0) / (2**1.5 * math.gamma(1.5))
        expected, _ = scipy.integrate.quad(density, 0.0, 0.4549)
        assert chisq_cdf(0.4549, 3.0) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.0713, abs=5e-4)

    def test_accuracy_grid(self):
        for df in (1.0, 2.0, 5.0, 10.0, 27.0, 50.0):
            for x in (1e-3, 0.5, 1.0, 5.0, 20.0, 80.0, 200.0):
                assert chisq_cdf(x, df) == pytest.approx(
                    scipy.stats.chi2.cdf(x, df), abs=1e-10
                )

    def test_monotone(self):
        xs = np.linspace(0.0, 60.0, 400)
        vals = [chisq_cdf(x, 7.0) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chisq_cdf(-0.1, 3.0)
        with pytest.raises(ValueError):
            chisq_cdf(1.0, 0.0)


class TestChisqQuantile:
    def test_df2_median(self):
        assert chisq_quantile(0.5, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_known_0975_df1(self):
        # frozen from a bisection on chisq_cdf, cross-checked against scipy
        q = chisq_quantile(0.975, 1.0)
        assert q == pytest.approx(5.023886187314888, abs=1e-8)
        assert chisq_cdf(q, 1.0) == pytest.approx(0.975, abs=1e-9)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                chisq_quantile(p, 3.0)

    @given(
        p=st.floats(min_value=0.001, max_value=0.999),
        df=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, p, df):
        x = chisq_quantile(p, float(df))
        assert chisq_cdf(x, float(df)) == pytest.approx(p, abs=1e-8)

    def test_strictly_increasing_in_p(self):
        qs = [chisq_quantile(p, 4.0) for p in np.linspace(0.01, 0.99, 25)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


class TestAgainstScipy:
    """The pure-Python chi-square law agrees with ``scipy.special`` within
    1e-13 relative.  Beyond these grids (measured, not tested): p down to
    1e-300 within 1.3e-13 where the quantile is a normal float, P down to
    1e-300 within 2.9e-13 (the rounding of an exponent near -700), df up to
    1e6 within 5.9e-12 for the quantile, where scipy's CDF is 1.5e-8 off
    50-digit mpmath and this one 1.1e-15."""

    def test_cdf_from_the_1e_14_to_the_1_minus_1e_14_quantile(self):
        probs = np.logspace(-14, math.log10(0.5), 30)
        for df in DF_GRID:
            a = df / 2
            x = 2 * np.concatenate([special.gammaincinv(a, probs), special.gammainccinv(a, probs)])
            got = [chisq_cdf(v, df) for v in x]
            np.testing.assert_allclose(got, special.gammainc(a, x / 2), rtol=1e-13, atol=0,
                                       err_msg=f"df={df}")

    def test_quantile_for_p_from_1e_10_to_0_999(self):
        ps = np.concatenate([np.logspace(-10, math.log10(0.5), 30),
                             np.linspace(0.5, 0.999, 30)[1:]])
        for df in DF_GRID:
            got = [chisq_quantile(p, df) for p in ps]
            np.testing.assert_allclose(got, 2 * special.gammaincinv(df / 2, ps), rtol=1e-13, atol=0,
                                       err_msg=f"df={df}")


class TestChisqEdges:
    def test_zero_and_infinity(self):
        for df in (1e-300, 1e-3, 1.0, 7.5, DF_MAX):
            assert chisq_cdf(0.0, df) == 0.0
            assert chisq_cdf(math.inf, df) == 1.0
            assert chisq_cdf(np.inf, df) == 1.0
            assert chisq_cdf(1e308, df) == 1.0

    @pytest.mark.parametrize("df", [1e-3, 1e-2, 0.1, 0.5])
    def test_tiny_df(self, df):
        a = df / 2
        x = 2 * special.gammaincinv(a, np.logspace(-12, -0.01, 12))
        x = x[x > 0]
        np.testing.assert_allclose([chisq_cdf(v, df) for v in x], special.gammainc(a, x / 2),
                                   rtol=1e-13, atol=0)
        # the quantile's condition number is about 2 / df
        ps = np.linspace(0.05, 0.999, 12)
        np.testing.assert_allclose([chisq_quantile(p, df) for p in ps],
                                   2 * special.gammaincinv(a, ps), rtol=4e-15 / df, atol=0)

    def test_underflowing_quantile_is_zero(self):
        # with df = 1e-300 almost all mass lies below the smallest float
        assert chisq_quantile(0.5, 1e-300) == 0.0
        assert chisq_quantile(0.5, 5e-324) == 0.0
        assert chisq_cdf(1.0, 1e-300) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_inputs_neither_overflow_nor_warn(self):
        dfs = (5e-324, 1e-300, 1e-3, 1.0, 100.0, DF_MAX)
        for df in dfs:
            for x in (5e-324, 1e-300, 1e-8, 1.0, 1e3, 1e6, 1e300, 1.7e308):
                assert 0.0 <= chisq_cdf(x, df) <= 1.0
            for p in (5e-324, 1e-300, 1e-10, 0.5, 1 - 1e-10, 1 - 2**-53):
                q = chisq_quantile(p, df)
                assert math.isfinite(q) and q >= 0.0

    def test_df_cap(self):
        assert chisq_cdf(DF_MAX, DF_MAX) == pytest.approx(0.5, abs=1e-3)
        assert chisq_quantile(0.5, DF_MAX) == pytest.approx(DF_MAX, rel=1e-5)
        for df in (DF_MAX * (1 + 1e-15), math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="degrees of freedom"):
                chisq_cdf(1.0, df)
            with pytest.raises(ValueError, match="degrees of freedom"):
                chisq_quantile(0.5, df)


class TestMahalanobis:
    """`mcd._sq_distances`, the one squared-distance path of the package."""

    def test_zero_at_center(self):
        sigma = [[2.0, 0.3], [0.3, 1.0]]
        assert sq_distances([[1.0, -2.0]], [1.0, -2.0], sigma)[0] == 0.0

    def test_unit_vector_identity(self):
        assert sq_distances([[1.0, 0.0]], [0.0, 0.0], np.eye(2))[0] == pytest.approx(1.0)

    def test_hand_solve(self):
        val = sq_distances([[2.0, 0.0]], [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])[0]
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq_distances([[1.0, 2.0, 3.0]], [0.0, 0.0], np.eye(2))

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            x = rng.standard_normal(3)
            mu = rng.standard_normal(3)
            m = rng.standard_normal((3, 3))
            sigma = m.T @ m + 0.5 * np.eye(3)
            d2 = sq_distances([x], mu, sigma)[0]
            d2_t = sq_distances([a @ x + b], a @ mu + b, a @ sigma @ a.T)[0]
            assert d2_t == pytest.approx(d2, rel=1e-8)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((15, 4))
        mu = rng.standard_normal(4)
        m = rng.standard_normal((4, 4))
        sigma = m.T @ m + np.eye(4)
        batch = sq_distances(rows, mu, sigma)
        dev = rows - mu
        via_inverse = np.einsum("ij,jk,ik->i", dev, np.linalg.inv(sigma), dev)
        np.testing.assert_allclose(batch, via_inverse, rtol=1e-12)


class TestNormalStream:
    def test_empty(self):
        assert RngStream(1, 2).generator().standard_normal(0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).generator().standard_normal(-1)

    def test_determinism(self):
        a = RngStream(123, 7).generator().standard_normal(100)
        b = RngStream(123, 7).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)
        c = RngStream(123, 8).generator().standard_normal(100)
        assert not np.array_equal(a, c)

    def test_moments(self):
        draws = RngStream(2024, 0).generator().standard_normal(10**6)
        assert abs(draws.mean()) < 4e-3
        assert abs(draws.var() - 1.0) < 1e-2

    def test_ks_across_seeds(self):
        # KS statistic against Phi should beat the 95% critical value
        # 1.358/sqrt(n) for the vast majority of seeds
        n = 10**6
        crit = 1.358 / math.sqrt(n)
        passed = 0
        n_seeds = 20
        for seed in range(n_seeds):
            draws = np.sort(RngStream(seed, 1).generator().standard_normal(n))
            cdf = scipy.stats.norm.cdf(draws)
            upper = np.abs(cdf - np.arange(1, n + 1) / n).max()
            lower = np.abs(cdf - np.arange(0, n) / n).max()
            if max(upper, lower) < crit:
                passed += 1
        assert passed >= 17  # ~95% expected, binomial slack


class TestRngStream:
    def test_validation(self):
        with pytest.raises(InputError):
            RngStream(-1)
        with pytest.raises(InputError):
            RngStream(0, 2**64)

    def test_child_offsets(self):
        s = RngStream(5, 10)
        assert s.child(3) == RngStream(5, 13)
