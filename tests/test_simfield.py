import math
import tracemalloc

import numpy as np
import pytest

from robustvario import simfield
from robustvario.errors import NotPositiveDefiniteError
from robustvario.grid import Direction, LagSet
from robustvario.estimators import estimate_grid
from robustvario.numerics import RngStream
from robustvario.simfield import FieldSpec, simulate_field
from robustvario.study import StudySpec, run_correction_factor_study
from robustvario.variomodel import AnisoModel, aniso_variogram

PAPER_MODEL = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)
GAUSSIAN = AnisoModel("gaussian", 5.0, 2.0)


def covariance_matrix(m: AnisoModel, coords) -> np.ndarray:
    """Oracle: dense covariance matrix C(s_i - s_j) = beta/2 - gamma over
    the given (x, y) locations; the process variance is beta/2."""
    coords = np.asarray(coords, dtype=float)
    return 0.5 * (m.sill - aniso_variogram(m, coords[:, None, :] - coords[None, :, :]))


def grid_coords(nx: int, ny: int) -> np.ndarray:
    """All (x, y) locations of an nx x ny grid in y-outer, x-inner order."""
    yy, xx = np.mgrid[1:ny + 1, 1:nx + 1]
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


class TestEmbedding:
    @pytest.mark.parametrize(
        "model, nx, ny, grows",
        [
            (PAPER_MODEL, 5, 5, True),
            (PAPER_MODEL, 6, 9, False),
            (PAPER_MODEL, 15, 15, False),
            (AnisoModel("spherical", 4.0, 1.5), 7, 12, False),
            (AnisoModel("exponential", 3.0, 2.0, theta=0.4, b=2.0), 10, 8, False),
            (GAUSSIAN, 8, 8, True),
            (AnisoModel("gaussian", 3.0, 1.5, theta=1.1, b=0.5), 16, 12, False),
        ],
    )
    def test_embedded_covariance_matches_oracle(self, model, nx, ny, grows):
        eig = simfield._torus_eigenvalues(FieldSpec(model, nx, ny))
        my, mx = eig.shape
        assert mx % 2 == 1 and my % 2 == 1
        assert ((mx, my) != (2 * nx - 1, 2 * ny - 1)) == grows
        # the circulant's first row: the embedded covariance at every torus lag
        row = np.fft.ifft2(eig).real
        xy = grid_coords(nx, ny)
        dx = xy[None, :, 0] - xy[:, None, 0]
        dy = xy[None, :, 1] - xy[:, None, 1]
        np.testing.assert_allclose(
            row[dy % my, dx % mx], covariance_matrix(model, xy), rtol=0.0, atol=1e-12
        )

    def test_no_embedding_raises(self, monkeypatch):
        monkeypatch.setattr(simfield, "MAX_TORUS_CELLS", 400)
        simfield._torus_eigenvalues.cache_clear()
        with pytest.raises(NotPositiveDefiniteError):
            simulate_field(FieldSpec(GAUSSIAN, 8, 8), RngStream(0))

    def test_computed_once_per_study(self):
        # every replication of a serial study reuses the cached eigenvalues
        simfield._torus_eigenvalues.cache_clear()
        spec = StudySpec(
            field=FieldSpec(PAPER_MODEL, 8, 8), estimators=("matheron",),
            lag_depths={Direction.EW: 2}, directions=(Direction.EW,),
            replications=4, base_seed=3, n_jobs=1,
        )
        run_correction_factor_study(spec)
        info = simfield._torus_eigenvalues.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert not simfield._torus_eigenvalues(spec.field).flags.writeable


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

    def test_size_guard(self):
        FieldSpec(PAPER_MODEL, 2048, 2048)  # a (4095 x 4095)-cell torus is admitted
        with pytest.raises(ValueError):
            FieldSpec(PAPER_MODEL, 2049, 2049)

    def test_memory_bounded(self):
        spec = FieldSpec(PAPER_MODEL, 100, 100)
        tracemalloc.start()
        try:
            simulate_field(spec, RngStream(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


class TestFieldMoments:
    """Monte-Carlo checks of the simulator against the model (4 SE bands)."""

    REPS = 3000

    def _replicates(self, spec):
        return np.stack([simulate_field(spec, RngStream(99, r)).values for r in range(self.REPS)])

    def _check_mean_and_lag_covariances(self, spec):
        fields = self._replicates(spec)

        mean_err = fields.mean() - spec.mean
        se_mean = fields.mean(axis=(1, 2)).std(ddof=1) / math.sqrt(self.REPS)
        assert abs(mean_err) <= 4 * se_mean

        for dx, dy in [(1, 0), (0, 1), (1, 1), (3, 0)]:
            base = fields[:, : spec.ny - dy, : spec.nx - dx]
            shifted = fields[:, dy:, dx:]
            prods = (base - spec.mean) * (shifted - spec.mean)
            per_rep = prods.mean(axis=(1, 2))
            est = per_rep.mean()
            se = per_rep.std(ddof=1) / math.sqrt(self.REPS)
            want = 0.5 * (spec.model.sill - aniso_variogram(spec.model, (dx, dy)))
            assert abs(est - want) <= 4 * se, (dx, dy, est, want, se)

    def test_lag_covariances_and_mean(self):
        self._check_mean_and_lag_covariances(FieldSpec(PAPER_MODEL, 10, 10, mean=1.0))

    def test_lag_covariances_and_mean_on_grown_torus(self):
        self._check_mean_and_lag_covariances(FieldSpec(GAUSSIAN, 8, 8, mean=1.0))

    def test_matheron_recovers_lag1_variogram(self):
        spec = FieldSpec(PAPER_MODEL, 15, 15)
        lags = [LagSet(Direction.EW, 1)]
        reps = 1000
        values = []
        for r in range(reps):
            grid = simulate_field(spec, RngStream(123, r))
            values.append(estimate_grid(grid, lags, ["matheron"])[("matheron", "ew")].values[0])
        want = aniso_variogram(PAPER_MODEL, (1, 0))
        assert np.mean(values) == pytest.approx(want, abs=0.03)
