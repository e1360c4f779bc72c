import math

import numpy as np
import pytest

from robustvario.grid import Direction, LagSet
from robustvario.estimators import estimate
from robustvario.numerics import RngStream
from robustvario.simfield import FieldSpec, field_cholesky, simulate_field
from robustvario.variomodel import AnisoModel, aniso_variogram

PAPER_MODEL = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)


class TestSimulateField:
    def test_determinism(self):
        spec = FieldSpec(PAPER_MODEL, 8, 8)
        a = simulate_field(spec, RngStream(77, 3))
        b = simulate_field(spec, RngStream(77, 3))
        np.testing.assert_array_equal(a.values, b.values)
        assert not a.mask.any()

    def test_zero_sill_limit(self):
        tiny = AnisoModel("spherical", 5.0, 1e-12, theta=0.2, b=2.0)
        g = simulate_field(FieldSpec(tiny, 10, 10, mean=3.5), RngStream(1))
        assert np.abs(g.values - 3.5).max() < 1e-5

    def test_factor_reuse_matches(self):
        spec = FieldSpec(PAPER_MODEL, 6, 9)
        factor = field_cholesky(spec)
        a = simulate_field(spec, RngStream(5, 2), factor)
        b = simulate_field(spec, RngStream(5, 2))
        np.testing.assert_array_equal(a.values, b.values)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            FieldSpec(PAPER_MODEL, 101, 101)


class TestFieldMoments:
    """Monte-Carlo checks of the simulator against the model (4 SE bands)."""

    REPS = 3000

    def _replicates(self, spec):
        factor = field_cholesky(spec)
        return np.stack(
            [simulate_field(spec, RngStream(99, r), factor).values for r in range(self.REPS)]
        )

    def test_lag_covariances_and_mean(self):
        spec = FieldSpec(PAPER_MODEL, 10, 10, mean=1.0)
        fields = self._replicates(spec)

        mean_err = fields.mean() - 1.0
        se_mean = fields.mean(axis=(1, 2)).std(ddof=1) / math.sqrt(self.REPS)
        assert abs(mean_err) <= 4 * se_mean

        for dx, dy in [(1, 0), (0, 1), (1, 1), (3, 0)]:
            base = fields[:, : 10 - dy if dy else 10, : 10 - dx if dx else 10]
            shifted = fields[:, dy:, dx:]
            prods = (base - 1.0) * (shifted - 1.0)
            per_rep = prods.mean(axis=(1, 2))
            est = per_rep.mean()
            se = per_rep.std(ddof=1) / math.sqrt(self.REPS)
            want = 0.5 * (PAPER_MODEL.sill - aniso_variogram(PAPER_MODEL, (dx, dy)))
            assert abs(est - want) <= 4 * se, (dx, dy, est, want, se)

    def test_matheron_recovers_lag1_variogram(self):
        spec = FieldSpec(PAPER_MODEL, 15, 15)
        factor = field_cholesky(spec)
        lags = LagSet(Direction.EW, 1)
        reps = 1000
        values = [
            estimate(simulate_field(spec, RngStream(123, r), factor), lags, "matheron").values[0]
            for r in range(reps)
        ]
        want = aniso_variogram(PAPER_MODEL, (1, 0))
        assert np.mean(values) == pytest.approx(want, abs=0.03)
