import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario.errors import InputError, SampleTooSmallError
from robustvario.numerics import RngStream
from robustvario import scale
from robustvario.scale import GAUSSIAN_CONSISTENCY, qn, qn_finite_sample_factor, qn_raw


def qn_naive(sample) -> float:
    """Literal O(N^2) oracle: full enumeration and sort."""
    x = list(map(float, sample))
    n = len(x)
    diffs = sorted(abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n))
    h = n // 2 + 1
    k = h * (h - 1) // 2
    return diffs[k - 1]


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def qn_enumerated(sample) -> float:
    """Vectorised O(N^2) oracle: every |x_i - x_j|, partitioned at k; a
    difference beyond the largest float is +inf."""
    x = np.asarray(sample, dtype=float)
    iu, ju = np.triu_indices(x.size, 1)
    h = x.size // 2 + 1
    k = h * (h - 1) // 2
    with np.errstate(over="ignore"):
        return float(np.partition(np.abs(x[iu] - x[ju]), k - 1)[k - 1])


def spy(monkeypatch, name):
    """Replace ``scale.<name>`` by a wrapper that records each call's
    arguments; returns the list of calls."""
    calls = []
    wrapped = getattr(scale, name)
    monkeypatch.setattr(scale, name, lambda *a: calls.append(a) or wrapped(*a))
    return calls


class TestQnRaw:
    def test_constant_sample(self):
        assert qn_raw([4.0] * 10) == 0.0
        assert bits(qn_raw(np.full(5000, -2.25))) == bits(0.0)

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
        assert bits(qn_raw(xs)) == bits(qn_naive(xs))

    def test_matches_naive_on_large_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 201))
            x = rng.standard_normal(n) * rng.uniform(0.1, 50)
            assert bits(qn_raw(x)) == bits(qn_naive(x))

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

    def test_two_and_three_observations(self):
        assert qn_raw([3.5, 1.0]) == 2.5
        # diffs {1, 4, 5}, k = C(2,2) = 1
        assert qn_raw([5.0, 0.0, 1.0]) == 1.0

    @pytest.mark.parametrize("n", [3, 4, 10, 351, 1000])
    def test_all_but_one_equal(self, n):
        # C(n-1, 2) zero gaps outnumber k = C(n//2+1, 2) from n = 3 on
        x = np.full(n, 3.0)
        x[n // 2] = 7.5
        assert bits(qn_raw(x)) == bits(0.0)

    def test_mixed_signed_zeros(self):
        # a sorted sample may hold -0.0 after 0.0, and their difference is -0.0
        assert bits(qn_raw([0.0, -0.0])) == bits(0.0)
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 800))
            x = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], n, p=rng.dirichlet(np.ones(5)))
            assert bits(qn_raw(x)) == bits(qn_enumerated(x))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [5, 400])
    def test_non_finite_rejected(self, bad, n):
        x = np.array([1.0, 2.0, 3.0, 7.0] + [9.0] * (n - 4))
        x[n // 3] = bad
        with pytest.raises(InputError, match="Qn sample must be finite"):
            qn_raw(x)


class TestQnSelectionOracle:
    """Selection against enumeration, bit for bit, on integer-valued
    samples (heavy ties, ties at the k-th value), mapped by a spread and an
    offset that make the computed differences round."""

    @given(
        n=st.integers(2, 3000),  # above the gather floor from n = 182 on
        levels=st.integers(1, 60),
        spread=st.sampled_from([1.0, 0.1, 1e-9]),
        offset=st.sampled_from([0.0, -3.7, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_valued_samples(self, n, levels, spread, offset, seed):
        x = offset + spread * np.random.default_rng(seed).integers(0, levels, n)
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))

    def test_pivot_rounds_above_the_gather_floor(self, monkeypatch):
        # samples up to the floor are gathered at once; the property above
        # reaches the pivot rounds only through sizes with more pairs
        n_max = 3000
        assert n_max * (n_max - 1) // 2 > max(scale._GATHER_PER_ROW * n_max, scale._GATHER_MIN)
        cuts = []
        row_cut = scale._row_cut
        monkeypatch.setattr(scale, "_row_cut", lambda *a: cuts.append(1) or row_cut(*a))
        x = np.random.default_rng(0).standard_normal(1000)
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))
        assert cuts

    @pytest.mark.parametrize("n", [1000, 2000, 3000])
    @pytest.mark.parametrize("kind", [
        "constant", "two-valued", "three-valued", "geometric", "two-cluster", "lognormal", "huge",
    ])
    def test_sampled_rounds_on_adversarial_samples(self, kind, n, monkeypatch):
        # heavy ties put both pivots on the k-th value; a geometric or
        # lognormal sample spreads the differences over many binades; two
        # tight clusters far apart round their differences; +-1e308 overflow
        rng = np.random.default_rng(n)
        x = {
            "constant": lambda: np.full(n, -2.25),
            "two-valued": lambda: rng.integers(0, 2, n) * 1.0,
            "three-valued": lambda: rng.integers(0, 3, n) * 0.1,
            "geometric": lambda: 2.0 ** (0.35 * rng.permutation(n) - 500),
            "two-cluster": lambda: 1e-9 * rng.standard_normal(n) + rng.choice([0.0, 1e6], n),
            "lognormal": lambda: rng.lognormal(0.0, 5.0, n),
            "huge": lambda: rng.choice([-1e308, 1e308], n) * rng.uniform(0.5, 1.0, n),
        }[kind]()
        sampled = spy(monkeypatch, "_sampled_pivots")
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))
        assert 1 <= len(sampled) <= 3

    def test_two_sampled_pivots_per_round(self, monkeypatch):
        # the k-th lies between the two pivots of nearly every round, so a
        # round makes two cuts; the weighted-median rounds made about 14
        cuts = spy(monkeypatch, "_row_cut")
        x = np.random.default_rng(0).standard_normal(3300)
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))
        assert len(cuts) <= 6

    @pytest.mark.parametrize("rank", [-1, 0, 1], ids=["below", "kth", "above"])
    @pytest.mark.parametrize("at", [0, 1], ids=["low", "high"])
    def test_pivot_at_or_next_to_the_kth_value(self, at, rank, monkeypatch):
        # a pivot that is the k-th difference, unique here, is returned by
        # its second cut (<= counts k and < counts k - 1); one next to it
        # keeps the k-th in the bands
        x = np.random.default_rng(12).standard_normal(1000)
        iu, ju = np.triu_indices(x.size, 1)
        ranked = np.sort(np.abs(x[iu] - x[ju]))
        h = x.size // 2 + 1
        k = h * (h - 1) // 2
        sampled = scale._sampled_pivots
        rounds = []

        def pivots(*args):
            chosen = list(sampled(*args))
            if not rounds:
                chosen[at] = ranked[k - 1 + rank]
            rounds.append(1)
            return tuple(chosen)

        monkeypatch.setattr(scale, "_sampled_pivots", pivots)
        assert bits(qn_raw(x)) == bits(ranked[k - 1])
        if rank == 0:
            assert rounds == [1]

    @pytest.mark.parametrize("kind", ["gaussian", "ties"])
    def test_weighted_median_after_a_failed_round(self, kind, monkeypatch):
        # eight candidates per sample put the pivots at its ends, so a round
        # removes less than half its candidates and a weighted-median round
        # follows
        monkeypatch.setattr(scale, "_SAMPLE", 8)
        monkeypatch.setattr(scale, "_STRATA", scale._STRATA[:8])
        medians = spy(monkeypatch, "_weighted_median")
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1500) if kind == "gaussian" else rng.integers(0, 40, 1500) * 0.1
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))
        assert medians

    def test_rounded_differences(self):
        # at tenths and near 1e6 the differences round, so counting by
        # s[j] <= s[i] + t in place of s[j] - s[i] <= t misranks some
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for n in (50, 200, 1000):
                tenths = 0.1 * rng.integers(0, 30, n) - 1.7
                far = 1.0 + 1e-9 * rng.integers(0, 50, n) + rng.choice([0.0, 1e6], n)
                for x in (tenths, far):
                    assert bits(qn_raw(x)) == bits(qn_enumerated(x))


# values whose differences tie, round to the neighbouring float or are
# subnormal or huge (a difference beyond the float range would overflow)
_HARD_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.1, -0.8, 0.8 + 2**-52, 1e-17,
    1e6, 1e6 + 1e-9, 1e300, -1e300, 1.7e308, -1.7e308, np.finfo(float).max,
]


class TestRowCut:
    """``_row_cut`` guesses each row's cut by one ``searchsorted`` and
    bisects (``_bisect_cut``) only the rows whose guess fails the exact
    check; the selection stays the enumeration's float."""

    @given(
        xs=st.lists(
            st.one_of(st.sampled_from(_HARD_VALUES), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=2,
            max_size=150,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_pivot_rounds_match_enumeration(self, xs):
        # with the gather thresholds down, every selection runs pivot rounds
        # until one candidate is left
        with mock.patch.object(scale, "_GATHER_MIN", 1), mock.patch.object(scale, "_GATHER_PER_ROW", 0):
            assert bits(qn_raw(xs)) == bits(qn_enumerated(xs))

    def test_bisection_fallback(self, monkeypatch):
        # rows at about -0.8 meet pivots of about 0.8: base + t lands near 0,
        # where floats are far finer than the rounding of s[j] - base, so
        # searchsorted misplaces cuts among the values near 0
        monkeypatch.setattr(scale, "_GATHER_MIN", 1)
        monkeypatch.setattr(scale, "_GATHER_PER_ROW", 0)
        bisected = []
        bisect = scale._bisect_cut
        monkeypatch.setattr(scale, "_bisect_cut", lambda *a: bisected.append(1) or bisect(*a))
        rng = np.random.default_rng(0)
        x = np.concatenate([-0.8 + np.spacing(0.8) * rng.integers(0, 8, 40), 1e-17 * rng.integers(-5, 6, 40)])
        assert bits(qn_raw(x)) == bits(qn_enumerated(x))
        assert bisected

    def test_range_beyond_largest_float(self):
        # differences that overflow rank as +inf, without a warning; Qn is
        # inf only when the k-th difference itself overflows
        assert qn_raw([1.7e308, -1.7e308, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5]) == 2.0
        assert qn_raw([1.7e308, -1.7e308]) == math.inf


class TestQnMemory:
    @pytest.mark.parametrize("kind", ["gaussian", "ties"])
    def test_memory_linear_in_n(self, kind):
        # 100k observations: the pairs alone would take 40 GB; selection
        # keeps O(n) arrays, about 16 MB at its peak
        gen = np.random.default_rng(5)
        x = gen.standard_normal(100_000) if kind == "gaussian" else gen.integers(0, 5, 100_000) * 1.0
        tracemalloc.start()
        try:
            qn_raw(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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
