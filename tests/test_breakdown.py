import math
from fractions import Fraction

import numpy as np
import pytest

from robustvario.breakdown import BreakdownQuery, breakdown_point
from robustvario.errors import EstimatorUnusableError, InputError
from robustvario.estimators import estimate_grid, org_scatter_to_variogram
from robustvario.grid import Direction, Grid, LagSet, extract_diff_vectors, extract_org_vectors
from robustvario.mcd import McdConfig, fast_mcd
from robustvario.numerics import RngStream

# stream offset of MCD family j (org, diff, org.mod, diff.mod) below a
# direction's base stream, as in estimate_grid
FAMILY_OFFSET = 2**40


def _outlier_values(q, count, magnitude):
    """Planted values: magnitude-scaled, pairwise distinct, with the sign
    pattern that prevents cancellation for the difference-based targets."""
    i = np.arange(1, count + 1, dtype=float)
    scales = magnitude * (1.0 + i / 8.0)
    if q.estimator == "genton":
        signs = np.where(((i - 1) // q.h_max) % 2 == 0, 1.0, -1.0)
    elif q.kind.family == "diff":
        signs = np.where(i % 2 == 0, 1.0, -1.0)
    else:
        signs = np.ones_like(i)
    return signs * scales


def _variogram(q, series, stream):
    """The closed forms' construction on one planted series: Genton through
    estimate_grid; a raw MCD fit of the row's org or diff vectors, for
    ``.mod`` only every (h_max + 1 + m)-th one (the zero-offset partition),
    drawing from the family's child of ``stream`` (its child 1 for
    ``.mod``)."""
    g = Grid(series.reshape(1, -1))
    lags = LagSet(Direction.EW, q.h_max)
    if q.estimator == "genton":
        (est,) = estimate_grid(g, [lags], ["genton"]).values()
        return est.values
    org = q.kind.family == "org"
    rows = (extract_org_vectors if org else extract_diff_vectors)(g, lags).rows
    j = (0 if org else 1) + 2 * q.kind.mod
    stream = stream.child((j + 1) * FAMILY_OFFSET)
    if q.kind.mod:
        rows, stream = rows[:: q.h_max + 1 + q.m], stream.child(1)
    sigma = fast_mcd(rows, McdConfig(), stream).sigma
    return org_scatter_to_variogram(sigma) if org else np.diag(sigma)


def empirical_breakdown_check(q, magnitude=1e6, rng=RngStream(0), size_offset=0):
    """Oracle of the closed forms: plant contamination of the critical size
    (plus ``size_offset``) at the worst position and report whether any lag
    estimate exceeds magnitude^2 / 100.

    Blocks are scanned exhaustively over all start positions, position i
    drawing from ``rng.child(i + 1)``; isolated outliers go to the
    deterministic worst-case placement (one per non-overlapping vector for
    the modified estimators, spaced h_max + 1 apart for the plain ones) and
    draw from ``rng.child(1)``.  For the modified estimators the bound is
    exact: one outlier below the critical size must not break anything.
    For the plain MCD estimators the isolated value is only a lower bound,
    so the check is one-sided there.
    """
    count = math.ceil(breakdown_point(q) * q.n_x) + size_offset
    clean = rng.generator().standard_normal(q.n_x)

    def explodes(series, stream):
        return bool(np.any(_variogram(q, series, stream) > magnitude**2 / 100.0))

    if count <= 0:
        return explodes(clean, rng.child(1))

    outliers = _outlier_values(q, count, magnitude)
    if q.scenario == "block":
        for pos, start in enumerate(range(q.n_x - count + 1)):
            series = clean.copy()
            series[start:start + count] = outliers
            if explodes(series, rng.child(pos + 1)):
                return True
        return False

    if q.kind.mod:
        stride = q.h_max + 1 + q.m
        positions = [j * stride for j in range(count)]
    else:
        positions = [q.h_max + j * (q.h_max + 1) for j in range(count)]
    assert positions[-1] < q.n_x, f"cannot place {count} worst-case outliers on n_x={q.n_x}"
    series = clean.copy()
    series[positions] = outliers
    return explodes(series, rng.child(1))

# the nine reference values (n_x = 50, h_max = 4, m = 1 for the modified
# estimators), all exact rationals
REFERENCE = [
    ("block", "mcd_org_mod", 1, Fraction(3, 50)),
    ("block", "mcd_diff_mod", 1, Fraction(9, 50)),
    ("block", "mcd_org", 0, Fraction(17, 50)),
    ("block", "mcd_diff", 0, Fraction(18, 50)),
    ("block", "genton", 0, Fraction(19, 50)),
    ("isolated", "mcd_org_mod", 1, Fraction(2, 50)),
    ("isolated", "mcd_diff_mod", 1, Fraction(3, 50)),
    ("isolated", "mcd_org", 0, Fraction(21, 250)),
    ("isolated", "mcd_diff", 0, Fraction(22, 250)),
]


class TestClosedForms:
    @pytest.mark.parametrize("scenario,estimator,m,expected", REFERENCE)
    def test_reference_values_exact(self, scenario, estimator, m, expected):
        got = breakdown_point(BreakdownQuery(scenario, estimator, 50, 4, m))
        assert isinstance(got, Fraction)
        assert got == expected

    def test_decimal_values(self):
        decimals = [float(breakdown_point(BreakdownQuery(s, e, 50, 4, m))) for s, e, m, _ in REFERENCE]
        assert decimals == pytest.approx([0.06, 0.18, 0.34, 0.36, 0.38, 0.04, 0.06, 0.084, 0.088])

    def test_unusable_mod(self):
        with pytest.raises(EstimatorUnusableError):
            breakdown_point(BreakdownQuery("block", "mcd_org_mod", 50, 6, 5))

    def test_genton_isolated_undefined(self):
        with pytest.raises(ValueError):
            breakdown_point(BreakdownQuery("isolated", "genton", 50, 4))

    def test_genton_isolated_empirical_check_raises(self):
        # the check plants the closed form's critical count, and there is none
        with pytest.raises(InputError, match="no closed form"):
            empirical_breakdown_check(BreakdownQuery("isolated", "genton", 50, 4))

    def test_nonincreasing_in_h_max(self):
        for estimator in ("mcd_org", "mcd_diff", "genton"):
            for n_x in range(30, 101, 10):
                values = [
                    breakdown_point(BreakdownQuery("block", estimator, n_x, h))
                    for h in range(2, 9)
                ]
                assert all(b <= a for a, b in zip(values, values[1:])), (estimator, n_x)

    def test_ids_are_estimator_ids(self):
        # the underscore spelling names the same estimator id
        for spelled, eid in [("mcd_org", "mcd.org"), ("MCD_Diff_Mod", "mcd.diff.mod"),
                             ("mcd.org.mod", "mcd.org.mod"), ("genton", "genton")]:
            q = BreakdownQuery("block", spelled, 50, 4, 1)
            assert q.estimator == eid
            assert breakdown_point(q) == breakdown_point(BreakdownQuery("block", eid, 50, 4, 1))
        for no_closed_form in ("matheron", "mcd.org.re", "mcd_diff_mod_re"):
            with pytest.raises(InputError, match="no closed-form"):
                BreakdownQuery("block", no_closed_form, 50, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakdownQuery("block", "mcd_org", 4, 4)
        with pytest.raises(ValueError):
            BreakdownQuery("melted", "mcd_org", 50, 4)
        with pytest.raises(ValueError):
            BreakdownQuery("block", "qn", 50, 4)


class TestEmpiricalBlock:
    """The modified estimators' block bound is exact: the critical block
    length breaks them, one cell fewer never does."""

    def test_diff_mod_critical(self):
        q = BreakdownQuery("block", "mcd_diff_mod", 50, 4, 1)
        assert empirical_breakdown_check(q, rng=RngStream(1)) is True

    def test_diff_mod_one_below(self):
        q = BreakdownQuery("block", "mcd_diff_mod", 50, 4, 1)
        assert empirical_breakdown_check(q, rng=RngStream(1), size_offset=-1) is False

    def test_org_mod_critical_and_below(self):
        q = BreakdownQuery("block", "mcd_org_mod", 50, 4, 1)
        assert empirical_breakdown_check(q, rng=RngStream(2)) is True
        assert empirical_breakdown_check(q, rng=RngStream(2), size_offset=-1) is False

    def test_zero_contamination(self):
        q = BreakdownQuery("block", "mcd_diff_mod", 50, 4, 1)
        assert empirical_breakdown_check(q, rng=RngStream(3), size_offset=-9) is False

    def test_plain_block_threshold(self):
        q = BreakdownQuery("block", "mcd_org", 50, 4)
        assert empirical_breakdown_check(q, rng=RngStream(4)) is True
        assert empirical_breakdown_check(q, rng=RngStream(4), size_offset=-1) is False

    def test_genton_block_threshold(self):
        q = BreakdownQuery("block", "genton", 50, 4)
        assert empirical_breakdown_check(q, rng=RngStream(5)) is True
        assert empirical_breakdown_check(q, rng=RngStream(5), size_offset=-1) is False


class TestEmpiricalIsolated:
    def test_mod_exact(self):
        q = BreakdownQuery("isolated", "mcd_org_mod", 50, 4, 1)
        assert empirical_breakdown_check(q, rng=RngStream(6)) is True
        assert empirical_breakdown_check(q, rng=RngStream(6), size_offset=-1) is False

    def test_plain_one_sided(self):
        # the closed form is a lower bound: below it nothing may break
        q = BreakdownQuery("isolated", "mcd_diff", 50, 4)
        assert empirical_breakdown_check(q, rng=RngStream(7), size_offset=-1) is False
        assert empirical_breakdown_check(q, rng=RngStream(7)) in (True, False)
