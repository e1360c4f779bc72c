import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from robustvario.ascio import AscHeader, apply_quality_mask, load_asc, save_asc, standardize
from robustvario.cli import _parse_contam, main
from robustvario.errors import AscFormatError, InputError, NumericalError
from robustvario.grid import Grid
from robustvario.study import load_corrfac_csv

ROOT = Path(__file__).resolve().parents[1]


def write(path, text):
    path.write_text(text)
    return str(path)


GOOD_ASC = """ncols 3
nrows 2
xllcorner 0
yllcorner 0
cellsize 1
NODATA_value -9999
1 2 3
4 -9999 6
"""


class TestLoadAsc:
    def test_rows_reversed_and_masked(self, tmp_path):
        g, header = load_asc(write(tmp_path / "a.asc", GOOD_ASC))
        assert header == AscHeader(ncols=3, nrows=2)
        assert (g.nx, g.ny) == (3, 2)
        # first file row is northernmost: grid row y=2
        assert g.values[1].tolist() == [1.0, 2.0, 3.0]
        assert g.values[0, 0] == 4.0
        assert g.mask[0, 1] and g.mask.sum() == 1

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4, 5))
        mask = rng.random((4, 5)) < 0.2
        g = Grid(values.copy(), mask.copy())
        p1 = tmp_path / "x.asc"
        save_asc(p1, g)
        loaded, header = load_asc(p1)
        np.testing.assert_array_equal(loaded.mask, mask)
        np.testing.assert_array_equal(loaded.values[~mask], values[~mask])
        p2 = tmp_path / "y.asc"
        save_asc(p2, loaded, header)
        assert p1.read_text() == p2.read_text()

    def test_malformed_header(self, tmp_path):
        bad = GOOD_ASC.replace("nrows 2", "rows 2")
        with pytest.raises(AscFormatError, match="line 2"):
            load_asc(write(tmp_path / "b.asc", bad))

    def test_cell_count_mismatch(self, tmp_path):
        bad = GOOD_ASC.replace("4 -9999 6\n", "4 -9999\n")
        with pytest.raises(AscFormatError, match="expected 6 cells"):
            load_asc(write(tmp_path / "c.asc", bad))

    @pytest.mark.parametrize("line", ["ncols 3.7", "ncols inf", "ncols 0"])
    def test_non_integer_dimensions(self, tmp_path, line):
        bad = GOOD_ASC.replace("ncols 3", line)
        with pytest.raises(AscFormatError, match="ncols must be a positive integer"):
            load_asc(write(tmp_path / "f.asc", bad))

    def test_unparseable_number_with_position(self, tmp_path):
        bad = GOOD_ASC.replace("4 -9999 6", "4 oops 6")
        with pytest.raises(AscFormatError, match="line 8, field 2"):
            load_asc(write(tmp_path / "d.asc", bad))


class TestSaveAsc:
    def test_exact_bytes(self, tmp_path):
        values = np.array([[0.1, -0.0, np.nan], [1e-300, -2.5, 3.0]])
        mask = np.array([[False, False, True], [False, False, False]])
        path = tmp_path / "s.asc"
        save_asc(path, Grid(values, mask))
        assert path.read_bytes() == (
            b"ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
            b"1e-300 -2.5 3\n0.10000000000000001 -0 -9999\n"
        )


class TestQualityMask:
    def test_all_clear_unchanged(self):
        g = Grid(np.arange(9.0).reshape(3, 3))
        q = Grid(np.zeros((3, 3)))
        out = apply_quality_mask(g, q, {0})
        assert out.mask.sum() == 0

    def test_all_cloud_masks_everything(self):
        g = Grid(np.arange(9.0).reshape(3, 3))
        q = Grid(np.full((3, 3), 2.0))
        out = apply_quality_mask(g, q, {0})
        assert out.mask.all()

    def test_mixed_disjoint_counts_add(self):
        g = Grid(np.zeros((3, 3)), np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=bool))
        quality = np.zeros((3, 3))
        quality[2, 2] = 3
        quality[1, 1] = 3
        out = apply_quality_mask(g, Grid(quality), {0})
        assert out.mask.sum() == 3  # 1 pre-masked + 2 cloudy, disjoint

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_quality_mask(Grid(np.zeros((3, 3))), Grid(np.zeros((2, 3))), {0})


class TestStandardize:
    def test_hand_example(self):
        g = Grid(np.array([[1.0, 2.0, 3.0, 4.0, 100.0]]))
        out, scale = standardize(g)
        # median 3, |deviations| {2,1,0,1,97}, raw MAD 1 -> scale 1.4826
        assert scale == pytest.approx(1.4826)
        np.testing.assert_allclose(out.values, g.values / 1.4826)

    def test_unit_grid_unchanged(self):
        g = Grid(np.array([[1.0, 2.0, 3.0, 4.0, 100.0]]) / 1.4826)
        out, scale = standardize(g)
        assert scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.values, g.values, atol=1e-12)

    def test_scale_equivariance(self):
        g = Grid(np.random.default_rng(0).standard_normal((6, 6)))
        out1, s1 = standardize(g)
        out7, s7 = standardize(Grid(7.0 * g.values))
        assert s7 == pytest.approx(7.0 * s1, rel=1e-12)
        np.testing.assert_allclose(out7.values, out1.values, atol=1e-12)

    def test_output_mad_is_unit(self):
        g = Grid(np.random.default_rng(1).standard_normal((8, 8)))
        out, _ = standardize(g)
        observed = out.observed_values()
        raw_mad = np.median(np.abs(observed - np.median(observed)))
        assert 1.4826 * raw_mad == pytest.approx(1.0, abs=1e-10)

    def test_masked_cells_ignored(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0, 100.0, 1e9]])
        mask = np.array([[False, False, False, False, False, True]])
        _, scale = standardize(Grid(values, mask))
        assert scale == pytest.approx(1.4826)

    def test_zero_spread_error(self):
        with pytest.raises(NumericalError):
            standardize(Grid(np.full((3, 3), 5.0)))


class TestEndToEndScaleInvariance:
    def test_estimate_on_standardized_matches_original(self):
        from robustvario.estimators import estimate_grid
        from robustvario.grid import Direction, LagSet

        g = Grid(np.random.default_rng(5).standard_normal((12, 12)) * 0.013)
        std, scale = standardize(g)
        lags = [LagSet(Direction.EW, 3)]
        ids = ("matheron", "genton", "mcd.org")
        on_std = estimate_grid(std, lags, ids, seed=9)
        on_original = estimate_grid(g, lags, ids, seed=9)
        for key, est in on_std.items():
            np.testing.assert_allclose(
                est.values * scale**2, on_original[key].values, rtol=1e-8, err_msg=key[0]
            )


class TestCli:
    def test_simulate_estimate_pipeline(self, tmp_path):
        asc = tmp_path / "field.asc"
        assert main([
            "simulate", "--nx", "12", "--ny", "12", "--seed", "4", "--out", str(asc)
        ]) == 0
        out = tmp_path / "est.csv"
        assert main([
            "estimate", str(asc), "--estimators", "matheron,genton",
            "--directions", "ew,sn", "--hmax", "3", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,direction,lag,variogram,count"
        assert len(lines) == 1 + 2 * 2 * 3
        value = float(lines[1].split(",")[3])
        assert np.isfinite(value)

    def test_corrfac_csv_round_trip(self, tmp_path):
        # a study-corrfac CSV, n_ok and n_fail included, feeds --corrfac
        common = ["--nx", "8", "--ny", "8", "--hmax", "2", "--directions", "ew",
                  "--estimators", "matheron", "--reps", "8", "--jobs", "1"]
        cf, out = tmp_path / "cf.csv", tmp_path / "bias.csv"
        assert main(["study-corrfac", *common, "--out", str(cf)]) == 0
        header, row = cf.read_text().splitlines()
        assert header == "estimator,direction,c_opt,se,n_ok,n_fail"
        assert load_corrfac_csv(cf) == {("matheron", "ew"): float(row.split(",")[2])}
        assert main(["study-biasrmse", *common, "--corrfac", str(cf), "--out", str(out)]) == 0

    def test_corrfac_csv_repeated_row(self, tmp_path):
        # a second row for one (estimator, direction) must not override the first
        cf = write(tmp_path / "cf.csv", "estimator,direction,c_opt,se\n"
                   "matheron,ew,1.5,0\nmatheron,sn,1.2,0\nmatheron,ew,0.7,0\n")
        with pytest.raises(InputError, match=r"line 4: repeated row for \('matheron', 'ew'\)"):
            load_corrfac_csv(cf)

    @pytest.mark.parametrize("text, message", [
        ("kind=block,eps=0.1,eps=0.2", "repeated --contam key 'eps'"),
        ("EPS=0.1,kind=block,eps=0.2", "repeated --contam key 'eps'"),
        ("kind=block,epsilon=0.2", "unknown --contam key 'epsilon'"),
    ])
    def test_contam_spec_rejected(self, text, message):
        with pytest.raises(InputError, match=message):
            _parse_contam(text)

    @pytest.mark.parametrize("command", ["estimate", "breakdown"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, command):
        asc = tmp_path / "field.asc"
        save_asc(asc, Grid(np.random.default_rng(2).standard_normal((12, 12))))
        argv = {
            "estimate": ["estimate", str(asc), "--directions", "ew,sn", "--hmax", "2",
                         "--estimators", "matheron,genton,mcd.org.re"],
            "breakdown": ["breakdown", "--scenario", "block", "--estimator", "genton,mcd.diff.mod",
                          "--nx", "50,101", "--hmax", "4", "--m", "0,1"],
        }[command]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") > 1
        out = tmp_path / "table.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_bytes() == printed.encode()

    def test_contaminate_roundtrip(self, tmp_path):
        asc = tmp_path / "field.asc"
        main(["simulate", "--nx", "10", "--ny", "10", "--seed", "1", "--out", str(asc)])
        out = tmp_path / "contaminated.asc"
        code = main([
            "contaminate", str(asc), "--contam", "kind=block,eps=0.1,mu0=5,sigma0=1",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        (a, _), (b, _) = load_asc(asc), load_asc(out)
        assert (a.values != b.values).sum() == 10

    def test_contaminate_keeps_header(self, tmp_path):
        # georeferencing and the nodata value survive contamination
        asc = tmp_path / "field.asc"
        values = np.random.default_rng(5).standard_normal((10, 10))
        mask = np.zeros((10, 10), dtype=bool)
        mask[2, 3] = True
        save_asc(asc, Grid(values, mask), AscHeader(10, 10, 500000.5, 4100000.0, 30.0, -1.0))
        out = tmp_path / "contaminated.asc"
        assert main(["contaminate", str(asc), "--contam", "kind=block,eps=0.1,mu0=5",
                     "--out", str(out)]) == 0
        header_in = asc.read_text().splitlines()[:6]
        header_out = out.read_text().splitlines()[:6]
        assert header_out == header_in
        assert header_out[2:] == ["xllcorner 500000.5", "yllcorner 4100000", "cellsize 30",
                                  "NODATA_value -1"]
        assert load_asc(out)[0].mask.sum() == 1

    def test_breakdown_table(self, capsys):
        assert main([
            "breakdown", "--scenario", "block",
            "--estimator", "mcd_org_mod,mcd_diff_mod", "--nx", "50", "--hmax", "4", "--m", "1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scenario,estimator")
        assert "block,mcd.org.mod,50,4,1,3,50," in lines[1]

    def test_missing_file_exit_2(self):
        assert main(["estimate", "/nonexistent/grid.asc"]) == 2

    @pytest.mark.parametrize("case", ["grid-directory", "grid-not-utf8", "corrfac-directory"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, case):
        # the error names the file instead of ending in a traceback
        binary = tmp_path / "binary.asc"
        binary.write_bytes(b"ncols 3\n\xff\xfe\x00\x81\n")
        study = ["study-biasrmse", "--nx", "6", "--ny", "6", "--hmax", "2", "--directions", "ew",
                 "--estimators", "matheron", "--reps", "2", "--jobs", "1",
                 "--out", str(tmp_path / "out.csv")]
        path, argv = {
            "grid-directory": (tmp_path, ["estimate", str(tmp_path)]),
            "grid-not-utf8": (binary, ["estimate", str(binary)]),
            "corrfac-directory": (tmp_path, study + ["--corrfac", str(tmp_path)]),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_malformed_asc_exit_2(self, tmp_path):
        bad = write(tmp_path / "bad.asc", "not a header\n")
        assert main(["estimate", bad]) == 2

    def test_nan_cell_exit_2(self, tmp_path):
        bad = write(tmp_path / "nan.asc", GOOD_ASC.replace("1 2 3", "1 nan 3"))
        assert main(["estimate", bad, "--hmax", "1", "--directions", "ew",
                     "--estimators", "matheron"]) == 2

    def test_mcd_rows_independent_of_other_ids(self, tmp_path):
        asc = tmp_path / "field.asc"
        main(["simulate", "--nx", "20", "--ny", "20", "--seed", "3", "--out", str(asc)])
        rows = {}
        runs = [("mcd.org.re", "ew,sn"), ("matheron,mcd.org,mcd.org.re", "ew,sn"),
                ("mcd.org.re", "sn"), ("mcd.org.re", "senw,sn,ew")]
        for ids, directions in runs:
            out = tmp_path / "est.csv"
            assert main(["estimate", str(asc), "--directions", directions,
                         "--estimators", ids, "--out", str(out)]) == 0
            rows[ids, directions] = sorted(line for line in out.read_text().splitlines()
                                           if line.startswith("mcd.org.re,"))
        want = rows["mcd.org.re", "ew,sn"]
        assert len(want) == 2 * 4
        assert rows["matheron,mcd.org,mcd.org.re", "ew,sn"] == want
        # a direction's rows do not depend on the other directions or their order
        assert rows["mcd.org.re", "sn"] == [r for r in want if ",sn," in r]
        assert [r for r in rows["mcd.org.re", "senw,sn,ew"] if ",senw," not in r] == want

    @pytest.mark.parametrize("case", [
        "directions", "estimators", "clear-codes", "corrfac", "contam",
        "hmax", "alpha", "mx", "corrfac-nx", "corrfac-reps",
        "breakdown-estimator", "breakdown-genton-isolated", "breakdown-nx",
        "corrfac-short-row", "corrfac-missing-direction", "jobs-zero", "jobs-negative",
        "simulate-seed-negative", "estimate-seed-negative", "corrfac-seed-negative",
        "quality-size", "contam-unknown-key", "model-non-finite",
        "directions-repeated", "estimators-repeated", "corrfac-directions-repeated",
        "biasrmse-estimators-repeated", "corrfac-negative", "corrfac-nan",
        "contam-repeated-key", "contam-epsilon", "corrfac-repeated-row",
    ])
    def test_bad_flag_value_exit_2(self, tmp_path, case):
        asc = write(tmp_path / "grid.asc", GOOD_ASC)
        estimate = ["estimate", asc, "--hmax", "1", "--directions", "ew", "--estimators", "matheron"]
        study = ["study-biasrmse", "--nx", "6", "--ny", "6", "--hmax", "2", "--directions", "ew",
                 "--estimators", "matheron", "--reps", "2", "--jobs", "1",
                 "--out", str(tmp_path / "out.csv")]
        study_corrfac = ["study-corrfac"] + study[1:]
        breakdown = ["breakdown", "--scenario", "block", "--nx", "50", "--hmax", "4"]
        header = "estimator,direction,c_opt,se\n"
        corrfac = write(tmp_path / "cf.csv", header + "matheron,ew,x,0\n")
        short_row = write(tmp_path / "short.csv", header + "matheron,ew\n")
        ew_only = write(tmp_path / "ew.csv", header + "matheron,ew,1.1,0\n")
        negative = write(tmp_path / "negative.csv", header + "matheron,ew,-2,0\n")
        nan = write(tmp_path / "nan.csv", header + "matheron,ew,nan,0\n")
        repeated = write(tmp_path / "repeated.csv", header + "matheron,ew,1.5,0\nmatheron,ew,0.7,0\n")
        contaminate = ["contaminate", asc, "--out", str(tmp_path / "c.asc"), "--contam"]
        quality = tmp_path / "quality.asc"
        save_asc(quality, Grid(np.zeros((3, 4))))
        argv = {
            "directions": estimate + ["--directions", "foo"],
            "estimators": estimate + ["--estimators", "cressie"],
            "clear-codes": estimate + ["--quality", asc, "--clear-codes", "x"],
            "corrfac": study + ["--corrfac", corrfac],
            "contam": study + ["--contam", "kind=block,eps=0.1,mu0=nan"],
            "hmax": estimate + ["--hmax", "0"],
            "alpha": estimate + ["--alpha", "2"],
            "mx": estimate + ["--mx", "-1", "--estimators", "mcd.org.mod"],
            "corrfac-nx": study_corrfac + ["--nx", "0"],
            "corrfac-reps": study_corrfac + ["--reps", "1"],
            "breakdown-estimator": breakdown + ["--estimator", "foo"],
            "breakdown-genton-isolated": breakdown + ["--scenario", "isolated", "--estimator", "genton"],
            "breakdown-nx": breakdown + ["--estimator", "mcd_org", "--nx", "4"],
            "corrfac-short-row": study + ["--corrfac", short_row],
            "corrfac-missing-direction": study + ["--directions", "ew,sn", "--corrfac", ew_only],
            "jobs-zero": study_corrfac + ["--reps", "8", "--jobs", "0"],
            "jobs-negative": study_corrfac + ["--reps", "8", "--jobs", "-1"],
            "simulate-seed-negative": ["simulate", "--seed", "-1", "--out", str(tmp_path / "s.asc")],
            "estimate-seed-negative": estimate + ["--seed", "-1"],
            "corrfac-seed-negative": study_corrfac + ["--seed", "-1"],
            "quality-size": estimate + ["--quality", str(quality)],
            "contam-unknown-key": study + ["--contam", "kind=block,eps=0.1,mu=50"],
            "model-non-finite": study + ["--model", "spherical:inf:2"],
            "directions-repeated": estimate + ["--directions", "ew,EW"],
            "estimators-repeated": estimate + ["--estimators", "matheron,mcd.org,matheron"],
            "corrfac-directions-repeated": study_corrfac + ["--directions", "ew,ew"],
            "biasrmse-estimators-repeated": study + ["--estimators", "matheron,matheron"],
            "corrfac-negative": study + ["--corrfac", negative],
            "corrfac-nan": study + ["--corrfac", nan],
            "contam-repeated-key": contaminate + ["kind=block,eps=0.1,eps=0.2"],
            "contam-epsilon": contaminate + ["kind=block,epsilon=0.2"],
            "corrfac-repeated-row": study + ["--corrfac", repeated],
        }[case]
        assert main(argv) == 2

    def test_model_is_a_study_flag(self, tmp_path):
        asc = write(tmp_path / "grid.asc", GOOD_ASC)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", asc, "--model", "foo:1:2"])
        assert exc.value.code == 2

    def test_backscale_is_not_a_flag(self, tmp_path):
        # estimates are scale-equivariant: standardize, or leave the scale as it is
        asc = write(tmp_path / "grid.asc", GOOD_ASC)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", asc, "--standardize", "--backscale"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        asc = tmp_path / "tiny.asc"
        main(["simulate", "--nx", "4", "--ny", "4", "--out", str(asc)])
        # hmax too deep for the grid: extraction finds no vectors
        for estimator in ("matheron", "mcd.org"):
            code = main(["estimate", str(asc), "--hmax", "9", "--directions", "ew",
                         "--estimators", estimator])
            assert code == 3

    def test_study_corrfac_csv(self, tmp_path):
        out = tmp_path / "cf.csv"
        code = main([
            "study-corrfac", "--nx", "8", "--ny", "8", "--hmax", "3", "--hmax-diag", "2",
            "--directions", "ew", "--estimators", "matheron", "--reps", "12",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("estimator,direction,c_opt,se")

    def test_study_biasrmse_with_contam(self, tmp_path):
        out = tmp_path / "bias.csv"
        code = main([
            "study-biasrmse", "--nx", "8", "--ny", "8", "--hmax", "3", "--hmax-diag", "2",
            "--directions", "ew", "--estimators", "matheron", "--reps", "12",
            "--contam", "kind=isolated,eps=0.05,mu0=3,sigma0=1",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("estimator,direction,lag,bias")
        assert len(lines) == 4

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it blocked, the fixture
        # estimate and a two-worker study with a .mod id run; the study's
        # forked workers inherit the block
        data = ROOT / "tests" / "data"
        script = textwrap.dedent(f"""
            import sys
            sys.modules["scipy"] = None
            from robustvario.cli import main
            assert main(["estimate", {str(data / "ndvi_synthetic.asc")!r},
                         "--quality", {str(data / "ndvi_quality.asc")!r}, "--clear-codes", "0",
                         "--directions", "ew", "--hmax", "2", "--estimators", "matheron,mcd.org.re",
                         "--out", {str(tmp_path / "est.csv")!r}]) == 0
            assert main(["study-corrfac", "--nx", "15", "--ny", "15", "--directions", "ew",
                         "--estimators", "mcd.diff.mod.re", "--mx", "0", "--my", "0",
                         "--reps", "4", "--jobs", "2", "--out", {str(tmp_path / "cf.csv")!r}]) == 0
        """)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert (tmp_path / "cf.csv").read_text().startswith("estimator,direction,c_opt")
