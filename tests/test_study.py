import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from robustvario.contamination import ContaminationSpec
from robustvario.errors import EmptySampleError, InputError, TooManyFailuresError
from robustvario.grid import Direction
from robustvario.simfield import FieldSpec
from robustvario.study import (
    StudySpec,
    default_lag_depths,
    run_bias_rmse_study,
    run_correction_factor_study,
)
from robustvario import study as study_module
from robustvario.variomodel import AnisoModel, aniso_variogram

MODEL = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)


def small_spec(**kwargs):
    defaults = dict(
        field=FieldSpec(MODEL, 10, 10),
        estimators=("matheron",),
        lag_depths={Direction.EW: 4},
        directions=(Direction.EW,),
        replications=40,
        base_seed=77,
        n_jobs=1,
    )
    defaults.update(kwargs)
    return StudySpec(**defaults)


def true_grid(grid, lag_sets, ids, *, rep, fail_rep=None, **_):
    """Stand-in for ``estimate_grid``: the true variogram for every
    (id, direction), or an error for each at replication ``fail_rep``."""
    return {
        (eid, lags.direction.value): EmptySampleError("synthetic failure") if rep == fail_rep
        else SimpleNamespace(values=aniso_variogram(MODEL, lags.lag_vectors))
        for lags in lag_sets
        for eid in ids
    }


def lookup(result, estimator, direction, lag=None):
    """The result row of (estimator, direction[, lag])."""
    return next(r for r in result.rows if (r.estimator, r.direction) == (estimator, direction)
                and getattr(r, "lag", None) == lag)


class TestSpecValidation:
    @pytest.mark.parametrize("field_name, value", [
        ("estimators", ("matheron", "mcd.org", "matheron")),
        ("directions", (Direction.EW, Direction.EW)),
        ("estimators", ("mcd.org", "MCD.ORG")),
    ])
    def test_repeated_entry_rejected(self, field_name, value):
        with pytest.raises(InputError, match="requested once"):
            small_spec(**{field_name: value})

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            small_spec(estimators=("cressie",))

    def test_mod_requires_config(self):
        with pytest.raises(ValueError):
            small_spec(estimators=("mcd.org.mod",))

    def test_replication_minimum(self):
        with pytest.raises(ValueError):
            small_spec(replications=1)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_n_jobs_below_one(self, n_jobs):
        with pytest.raises(InputError, match="n_jobs"):
            small_spec(n_jobs=n_jobs)

    def test_default_lag_depths(self):
        depths = default_lag_depths()
        assert depths[Direction.EW] == 7 and depths[Direction.SWNE] == 5


class TestReproducibility:
    def test_bit_identical_rerun(self):
        res_a = run_bias_rmse_study(small_spec())
        res_b = run_bias_rmse_study(small_spec())
        assert res_a.rows == res_b.rows

    def test_parallel_matches_serial(self):
        serial = run_bias_rmse_study(small_spec(replications=24, n_jobs=1))
        parallel = run_bias_rmse_study(small_spec(replications=24, n_jobs=2))
        assert serial.rows == parallel.rows

    def test_contaminated_reproducible(self):
        spec = small_spec(contamination=ContaminationSpec("block", 0.1, mu0=3.0))
        assert run_bias_rmse_study(spec).rows == run_bias_rmse_study(spec).rows

    def test_rows_independent_of_direction_order(self):
        # the MCD streams are keyed by the direction, not by its position
        def sn_rows(directions):
            spec = small_spec(estimators=("mcd.org",), directions=directions, replications=4,
                              lag_depths={Direction.EW: 2, Direction.SN: 2})
            return [r for r in run_bias_rmse_study(spec).rows if r.direction == "sn"]

        assert sn_rows((Direction.SN,)) == sn_rows((Direction.EW, Direction.SN))


class TestCorrectionFactors:
    def test_stub_estimator_gives_exactly_one(self, monkeypatch):
        # an estimator returning the true variogram has c_opt == 1 under the
        # averaging divisor
        monkeypatch.setattr(study_module, "estimate_grid", true_grid)
        res = run_correction_factor_study(small_spec(corrfac_divisor="h_max_minus_1"))
        cf = lookup(res, "matheron", "ew")
        assert cf.c_opt == pytest.approx(1.0, abs=1e-12)
        assert cf.se == pytest.approx(0.0, abs=1e-12)

    def test_divisor_readings_differ_by_known_ratio(self, monkeypatch):
        monkeypatch.setattr(study_module, "estimate_grid", true_grid)
        printed = run_correction_factor_study(small_spec(corrfac_divisor="h_max"))
        # h_max = 4: the printed formula divides the 3-term sum by 4
        assert lookup(printed, "matheron", "ew").c_opt == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_contaminated_spec_rejected(self):
        spec = small_spec(contamination=ContaminationSpec("block", 0.1))
        with pytest.raises(ValueError):
            run_correction_factor_study(spec)

    def test_csv_schema(self, tmp_path):
        res = run_correction_factor_study(small_spec(replications=10))
        path = tmp_path / "cf.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,direction,c_opt,se,n_ok,n_fail"
        (row,) = res.rows
        fields = lines[1].split(",")
        assert fields[:2] == ["matheron", "ew"] and fields[4:] == ["10", "0"]
        assert [float(v) for v in fields[2:4]] == [row.c_opt, row.se]

    def test_csv_shows_failures(self, monkeypatch, tmp_path):
        monkeypatch.setattr(study_module, "estimate_grid", partial(true_grid, fail_rep=3))
        path = tmp_path / "cf.csv"
        run_correction_factor_study(small_spec(replications=400)).to_csv(path)
        assert path.read_text().splitlines()[1].endswith(",399,1")


class TestBiasRmse:
    def test_stubbed_truth_gives_zero(self, monkeypatch):
        monkeypatch.setattr(study_module, "estimate_grid", true_grid)
        res = run_bias_rmse_study(small_spec())
        for row in res.rows:
            assert row.bias == 0.0
            assert row.rmse == 0.0

    def test_rmse_bias_variance_identity(self):
        res = run_bias_rmse_study(small_spec(replications=60))
        for row in res.rows:
            assert row.rmse >= abs(row.bias)

    def test_correction_factor_applied(self, monkeypatch):
        monkeypatch.setattr(study_module, "estimate_grid", true_grid)
        res = run_bias_rmse_study(
            small_spec(correction_factors={("matheron", "ew"): 2.0})
        )
        truth = 0.5 * aniso_variogram(MODEL, (1, 0))
        assert lookup(res, "matheron", "ew", 1).bias == pytest.approx(truth, rel=1e-12)

    def test_failures_counted_and_capped(self, monkeypatch):
        monkeypatch.setattr(study_module, "estimate_grid", partial(true_grid, fail_rep=3))
        with pytest.raises(TooManyFailuresError):
            run_bias_rmse_study(small_spec(replications=40))  # 1/40 > 1%

        res = run_bias_rmse_study(small_spec(replications=400))  # 1/400 <= 1%
        cell = lookup(res, "matheron", "ew", 1)
        assert cell.n_fail == 1 and cell.n_ok == 399

    def test_seed_sensitivity_sanity(self):
        # halving replications at another seed moves cells by < 6 MC SEs
        big = run_bias_rmse_study(small_spec(replications=120, base_seed=1))
        half = run_bias_rmse_study(small_spec(replications=60, base_seed=999))
        for row_b in big.rows:
            row_h = lookup(half, row_b.estimator, row_b.direction, row_b.lag)
            se = math.hypot(row_b.se_bias, row_h.se_bias)
            assert abs(row_b.bias - row_h.bias) < 6 * se

    def test_csv_schema(self, tmp_path):
        res = run_bias_rmse_study(small_spec(replications=10))
        path = tmp_path / "out.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,direction,lag,bias,rmse,se_bias,se_rmse,n_ok,n_fail"
        assert len(lines) == 1 + 4  # one row per lag
