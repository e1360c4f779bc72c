import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario.errors import SampleTooSmallError
from robustvario.numerics import RngStream
from robustvario.scale import GAUSSIAN_CONSISTENCY, qn, qn_finite_sample_factor, qn_raw


def qn_naive(sample) -> float:
    """Literal O(N^2) oracle: full enumeration and sort."""
    x = list(map(float, sample))
    n = len(x)
    diffs = sorted(abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n))
    h = n // 2 + 1
    k = h * (h - 1) // 2
    return diffs[k - 1]


class TestQnRaw:
    def test_constant_sample(self):
        assert qn_raw([4.0] * 10) == 0.0

    def test_hand_example(self):
        # diffs {1,2,3,4,6,7}, k = C(3,2) = 3 -> third smallest
        assert qn_raw([1.0, 2.0, 4.0, 8.0]) == 3.0

    def test_too_small(self):
        with pytest.raises(SampleTooSmallError):
            qn_raw([1.0])

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60)
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle(self, xs):
        assert qn_raw(xs) == qn_naive(xs)

    def test_matches_naive_on_large_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 201))
            x = rng.standard_normal(n) * rng.uniform(0.1, 50)
            assert qn_raw(x) == qn_naive(x)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=40),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_and_reflection_invariance(self, xs, c):
        x = np.asarray(xs)
        base = qn_raw(x)
        assert qn_raw(x + c) == pytest.approx(base, rel=1e-12, abs=1e-9)
        assert qn_raw(-x) == base

    def test_exact_scale_equivariance(self):
        x = np.array([0.5, 1.0, 2.5, -3.0, 8.0])
        assert qn_raw(5.0 * x + 7.0) == 5.0 * qn_raw(x)


class TestQn:
    def test_constants_applied_in_order(self):
        x = [1.0, 2.0, 4.0, 8.0]
        assert qn(x) == (qn_raw(x) * GAUSSIAN_CONSISTENCY) * qn_finite_sample_factor(4)

    def test_default_consistency_constant(self):
        assert GAUSSIAN_CONSISTENCY == pytest.approx(2.22, abs=0.002)

    def test_gaussian_consistency(self):
        # mean estimate over large standard-normal samples should be near 1
        values = [qn(RngStream(50, r).generator().standard_normal(10_000)) for r in range(30)]
        assert np.mean(values) == pytest.approx(1.0, abs=0.02)

    def test_finite_sample_factor_regimes(self):
        assert qn_finite_sample_factor(8) == 0.669
        assert qn_finite_sample_factor(101) == pytest.approx(101 / 102.4)
        assert qn_finite_sample_factor(100) == pytest.approx(100 / 103.8)


class TestBreakdown:
    """Replacing floor((N+1)/2) entries explodes Qn; one fewer does not."""

    @pytest.mark.parametrize("n", [8, 9, 20])
    def test_explosion_threshold(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        k_break = (n + 1) // 2
        spoiled = x.copy()
        # distinct huge values so contaminated pairwise gaps are huge too
        spoiled[:k_break] = 1e12 * (1.0 + np.arange(k_break))
        assert qn_raw(spoiled) > 1e10
        partial = x.copy()
        partial[: k_break - 1] = 1e12 * (1.0 + np.arange(k_break - 1))
        assert qn_raw(partial) < 1e4
