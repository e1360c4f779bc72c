import math
import types

import numpy as np
import pytest

from robustvario import estimators as estimators_module
from robustvario.errors import InputError, NoValidPartitionError
from robustvario.estimators import (
    ESTIMATOR_IDS,
    ModConfig,
    apply_correction,
    direction_stream,
    estimate,
    genton,
    matheron,
    mcd_diff,
    mcd_mod,
    mcd_org,
    non_overlapping_count,
    org_scatter_to_variogram,
    parse_estimator_id,
)
from robustvario.grid import Direction, Grid, build_lag_set
from robustvario.mcd import McdConfig, fast_mcd
from robustvario.numerics import RngStream
from robustvario.scale import QnConfig
from robustvario.variomodel import AnisoModel, IsoModel, aniso_variogram, model_covariance

RAW_QN = QnConfig(apply_consistency=False, finite_sample_correction=False)
PAPER_MODEL = AnisoModel(IsoModel("spherical", 5.0, 2.0), theta=3.0 * math.pi / 8.0, b=2.0)


def _iid_grid(nx, ny, seed=0):
    return Grid(np.random.default_rng(seed).standard_normal((ny, nx)))


class TestEstimatorIds:
    def test_registry(self):
        assert len(ESTIMATOR_IDS) == 10
        kind = parse_estimator_id("mcd.org.mod.re")
        assert kind.family == "org" and kind.mod and kind.reweight
        with pytest.raises(ValueError):
            parse_estimator_id("cressie")


class TestMatheron:
    def test_constant_grid(self):
        est = matheron(Grid(np.full((5, 5), 2.0)), build_lag_set(Direction.EW, 2))
        np.testing.assert_array_equal(est.values, [0.0, 0.0])

    def test_hand_example(self):
        g = Grid(np.array([[0.0, 1.0, 0.0, 1.0]]))
        est = matheron(g, build_lag_set(Direction.EW, 1))
        assert est.values[0] == 1.0
        assert est.counts[0] == 3

    def test_counts_per_lag(self):
        est = matheron(_iid_grid(15, 15), build_lag_set(Direction.SN, 3))
        np.testing.assert_array_equal(est.counts, [15 * 14, 15 * 13, 15 * 12])


class TestGenton:
    def test_constant_grid(self):
        est = genton(Grid(np.full((6, 6), 1.0)), build_lag_set(Direction.SWNE, 2), RAW_QN)
        np.testing.assert_array_equal(est.values, [0.0, 0.0])

    def test_hand_example(self):
        g = Grid(np.array([[0.0, 1.0, 3.0, 6.0]]))
        est = genton(g, build_lag_set(Direction.EW, 1), RAW_QN)
        # diffs (-1,-2,-3): k = C(2,2) = 1, qn_raw = 1, squared = 1
        assert est.values[0] == 1.0


class TestMcdDiff:
    def test_iid_diagonal_near_two(self):
        # differences of independent unit-variance cells have variance 2;
        # averaged over realizations the diagonal sits within 0.15 of that
        values = []
        for seed in range(30):
            g = _iid_grid(25, 25, seed=seed)
            values.append(mcd_diff(g, build_lag_set(Direction.EW, 3), rng=RngStream(seed)).values)
        assert np.all(np.abs(np.mean(values, axis=0) - 2.0) < 0.15)

    def test_reweighted_id(self):
        g = _iid_grid(12, 12, seed=1)
        est = mcd_diff(g, build_lag_set(Direction.EW, 2), reweight=True, rng=RngStream(2))
        assert est.estimator_id == "mcd.diff.re"


class TestMcdOrg:
    def test_toeplitz_identity(self):
        # feeding the exact Toeplitz covariance reproduces the model variogram
        h_max = 5
        sigma = np.empty((h_max + 1, h_max + 1))
        for i in range(h_max + 1):
            for j in range(h_max + 1):
                sigma[i, j] = model_covariance(PAPER_MODEL, (abs(i - j), 0))
        values = org_scatter_to_variogram(sigma)
        expected = [aniso_variogram(PAPER_MODEL, (l, 0)) for l in range(1, h_max + 1)]
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_iid_lags_near_two(self):
        values = []
        for seed in range(30):
            g = _iid_grid(25, 25, seed=seed)
            values.append(mcd_org(g, build_lag_set(Direction.SN, 3), rng=RngStream(seed)).values)
        assert np.all(np.abs(np.mean(values, axis=0) - 2.0) < 0.2)

    def test_drop_largest_lag(self):
        g = _iid_grid(15, 15, seed=3)
        full = mcd_org(g, build_lag_set(Direction.EW, 4), rng=RngStream(5))
        trimmed = mcd_org(
            g, build_lag_set(Direction.EW, 4), rng=RngStream(5), drop_largest_lag=True
        )
        assert trimmed.values.shape == (3,)
        np.testing.assert_array_equal(trimmed.values, full.values[:3])


class TestInvariances:
    """Translation invariance and scale equivariance for all estimators."""

    @pytest.mark.parametrize("shift", [4.2])
    def test_translation_invariance(self, shift):
        g = _iid_grid(14, 14, seed=10)
        shifted = Grid(g.values + shift)
        lags = build_lag_set(Direction.EW, 3)
        mod = ModConfig(m_x=1, m_y=1)
        runs = {
            "matheron": lambda gg: matheron(gg, lags).values,
            "genton": lambda gg: genton(gg, lags).values,
            "mcd.diff": lambda gg: mcd_diff(gg, lags, rng=RngStream(1)).values,
            "mcd.org.re": lambda gg: mcd_org(gg, lags, reweight=True, rng=RngStream(2)).values,
            "mcd.diff.mod": lambda gg: mcd_mod(gg, lags, "diff", mod, rng=RngStream(3)).values,
        }
        for name, run in runs.items():
            np.testing.assert_allclose(run(shifted), run(g), atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("c", [3.0])
    def test_scale_equivariance(self, c):
        g = _iid_grid(14, 14, seed=11)
        scaled = Grid(c * g.values)
        lags = build_lag_set(Direction.SN, 3)
        mod = ModConfig(m_x=1, m_y=1)
        runs = {
            "matheron": lambda gg: matheron(gg, lags).values,
            "genton": lambda gg: genton(gg, lags).values,
            "mcd.org": lambda gg: mcd_org(gg, lags, rng=RngStream(4)).values,
            "mcd.diff.re": lambda gg: mcd_diff(gg, lags, reweight=True, rng=RngStream(5)).values,
            "mcd.org.mod": lambda gg: mcd_mod(gg, lags, "org", mod, rng=RngStream(6)).values,
        }
        for name, run in runs.items():
            np.testing.assert_allclose(
                run(scaled), c**2 * run(g), rtol=1e-8, atol=1e-10, err_msg=name
            )


class TestModEstimator:
    def test_non_overlapping_count_paper_value(self):
        assert non_overlapping_count(50, 4, 1) == 8

    def test_non_overlapping_count_vs_enumeration(self):
        for n_x in range(10, 201, 7):
            for m in range(0, 7):
                for h in range(1, 9):
                    expected = len(range(0, n_x - h, h + 1 + m))
                    assert non_overlapping_count(n_x, h, m) == expected, (n_x, m, h)

    def test_partition_vector_count_on_row(self):
        # 1 x 50 grid, m = 1, h_max = 4: the zero-offset partition has 8 vectors
        g = Grid(np.random.default_rng(0).standard_normal((1, 50)))
        lags = build_lag_set(Direction.EW, 4)
        mod = ModConfig(m_x=1, m_y=0, average_partitions=False, min_vectors=4)
        est = mcd_mod(g, lags, "diff", mod, rng=RngStream(1))
        assert est.counts[0] == 8

    def test_unusable_raises(self):
        # 1 x 50, m = 5, h_max = 6: only 4 non-overlapping vectors remain
        g = Grid(np.random.default_rng(1).standard_normal((1, 50)))
        lags = build_lag_set(Direction.EW, 6)
        assert non_overlapping_count(50, 6, 5) == 4
        with pytest.raises(NoValidPartitionError):
            mcd_mod(g, lags, "org", ModConfig(m_x=5, m_y=0), rng=RngStream(1))

    def test_default_threshold_respects_2hmax(self):
        # partitions need more than 2*h_max vectors by default
        g = Grid(np.random.default_rng(2).standard_normal((1, 50)))
        lags = build_lag_set(Direction.EW, 4)
        with pytest.raises(NoValidPartitionError):
            mcd_mod(g, lags, "diff", ModConfig(m_x=1, m_y=0), rng=RngStream(1))

    def test_averaging_uses_all_partitions(self):
        g = _iid_grid(30, 6, seed=5)
        lags = build_lag_set(Direction.EW, 2)
        mod = ModConfig(m_x=1, m_y=1)
        est = mcd_mod(g, lags, "diff", mod, McdConfig(), rng=RngStream(9))
        # 2 chain offsets x 4 start offsets, each partition has > 4 vectors
        assert est.counts[0] > 8 * 4

    def test_reweighted_mod_id(self):
        g = _iid_grid(30, 6, seed=6)
        lags = build_lag_set(Direction.EW, 2)
        est = mcd_mod(
            g, lags, "org", ModConfig(m_x=0, m_y=0), reweight=True, rng=RngStream(3)
        )
        assert est.estimator_id == "mcd.org.mod.re"


class TestApplyCorrection:
    def test_multiplies_and_records(self):
        g = _iid_grid(10, 10)
        est = matheron(g, build_lag_set(Direction.EW, 2))
        corrected = apply_correction(est, 1.07)
        np.testing.assert_allclose(corrected.values, 1.07 * est.values)
        assert corrected.correction_applied == 1.07
        assert est.correction_applied is None


def _oracle_chains(g, direction):
    """Maximal cell chains along the direction generator, as 0-based
    (row, col) index lists, ordered by their starting cell in scan order."""
    gx, gy = direction.generator
    chains = []
    for y in range(1, g.ny + 1):
        for x in range(1, g.nx + 1):
            px, py = x - gx, y - gy
            if 1 <= px <= g.nx and 1 <= py <= g.ny:
                continue  # not a chain start
            chain = []
            cx, cy = x, y
            while 1 <= cx <= g.nx and 1 <= cy <= g.ny:
                chain.append((cy - 1, cx - 1))
                cx, cy = cx + gx, cy + gy
            chains.append(chain)
    return chains


def _oracle_partitions(g, lags, kind, mod):
    """The cell-by-cell partition builder: (partition number, rows) for every
    (chain offset, start offset), chains thinned by list index."""
    h_max = lags.h_max
    if lags.direction is Direction.EW:
        m_par, m_perp = mod.m_x, mod.m_y
    elif lags.direction is Direction.SN:
        m_par, m_perp = mod.m_y, mod.m_x
    else:
        m_par = m_perp = max(mod.m_x, mod.m_y)
    stride = h_max + 1 + m_par
    chains = _oracle_chains(g, lags.direction)
    out = []
    for c_off in range(m_perp + 1):
        for s_off in range(stride):
            rows = []
            for chain in chains[c_off::m_perp + 1]:
                for t in range(s_off, len(chain) - h_max, stride):
                    cells = chain[t:t + h_max + 1]
                    if any(g.mask[r, c] for r, c in cells):
                        continue
                    vals = [g.values[r, c] for r, c in cells]
                    rows.append(vals if kind == "org" else [vals[0] - v for v in vals[1:]])
            out.append((len(out) + 1, np.asarray(rows, dtype=float).reshape(len(rows), -1)))
    return out


@pytest.fixture
def recorded_fits(monkeypatch):
    """Replace the MCD search by a recorder of (stream id, rows) that
    returns an identity scatter."""
    calls = []

    def fake_fast_mcd(data, cfg, rng):
        rows = np.asarray(data, dtype=float)
        calls.append((rng.stream_id, rows.copy()))
        return types.SimpleNamespace(sigma=np.eye(rows.shape[1]))

    monkeypatch.setattr(estimators_module, "fast_mcd", fake_fast_mcd)
    return calls


def _grid(nx, ny, seed, masked):
    gen = np.random.default_rng(seed)
    mask = gen.random((ny, nx)) < 0.1 if masked else None
    return Grid(gen.standard_normal((ny, nx)), mask)


class TestModPartitions:
    @pytest.mark.parametrize("nx,ny", [(12, 9), (11, 10)])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize(
        "direction,m",
        [(Direction.EW, m) for m in (0, 1, 2)]
        + [(Direction.SN, m) for m in (0, 1, 2)]
        + [(Direction.SWNE, 0), (Direction.SENW, 0)],
    )
    def test_selection_matches_chain_loops(self, recorded_fits, direction, m, nx, ny, masked):
        g = _grid(nx, ny, seed=nx * ny + m, masked=masked)
        lags = build_lag_set(direction, 2)
        # thresholds: default 2 * h_max for org; the dimension 2 for diff
        for kind, mod, threshold in [
            ("org", ModConfig(m, m), 4),
            ("diff", ModConfig(m, 0, min_vectors=1), 2),
        ]:
            recorded_fits.clear()
            mcd_mod(g, lags, kind, mod, rng=RngStream(0))
            expected = [(i, rows) for i, rows in _oracle_partitions(g, lags, kind, mod)
                        if len(rows) > threshold]
            assert [i for i, _ in recorded_fits] == [i for i, _ in expected]
            for (_, got), (_, want) in zip(recorded_fits, expected):
                np.testing.assert_array_equal(got, want)

    def test_first_partition_only(self, recorded_fits):
        g = _grid(12, 9, seed=4, masked=True)
        lags = build_lag_set(Direction.EW, 2)
        mod = ModConfig(1, 1, average_partitions=False)
        mcd_mod(g, lags, "diff", mod, rng=RngStream(0))
        first = next((i, rows) for i, rows in _oracle_partitions(g, lags, "diff", mod) if len(rows) > 4)
        assert len(recorded_fits) == 1 and recorded_fits[0][0] == first[0]
        np.testing.assert_array_equal(recorded_fits[0][1], first[1])

    @pytest.mark.parametrize("direction", [Direction.SWNE, Direction.SENW])
    @pytest.mark.parametrize("nx", [16, 15])
    def test_diagonal_chains_separated(self, recorded_fits, direction, nx):
        # cell values encode their coordinates, so each org row names its cells
        ny = 16
        yy, xx = np.mgrid[1:ny + 1, 1:nx + 1]
        g = Grid((xx + 100 * yy).astype(float))
        mod = ModConfig(1, 1)
        mcd_mod(g, build_lag_set(direction, 2), "org", mod, rng=RngStream(0))
        assert recorded_fits
        sign = -1 if direction is Direction.SWNE else 1
        for _, rows in recorded_fits:
            cells = np.stack([rows % 100, rows // 100], axis=-1).reshape(-1, 2)
            chain = np.repeat(rows[:, 0] % 100 + sign * (rows[:, 0] // 100), rows.shape[1])
            dx = np.abs(cells[:, None, 0] - cells[None, :, 0])
            dy = np.abs(cells[:, None, 1] - cells[None, :, 1])
            cross = chain[:, None] != chain[None, :]
            assert np.all((dx > mod.m_x) | (dy > mod.m_y) | ~cross)

    def test_grid_too_small_for_lags(self):
        g = _iid_grid(3, 3)
        with pytest.raises(NoValidPartitionError):
            mcd_mod(g, build_lag_set(Direction.EW, 4), "org", ModConfig(0, 0), rng=RngStream(1))


class TestEstimateDispatch:
    def test_matches_building_blocks(self):
        g = _iid_grid(14, 12, seed=21)
        lags = build_lag_set(Direction.SN, 3)
        mod = ModConfig(1, 0)
        base = direction_stream(5, 2, 1)

        def stream(j):
            return RngStream(5, 2 + 2**32 + (4 * 1 + j + 1) * 2**40)

        expected = {
            "matheron": matheron(g, lags),
            "genton": genton(g, lags),
            "mcd.org.re": mcd_org(g, lags, reweight=True, rng=stream(0)),
            "mcd.diff": mcd_diff(g, lags, rng=stream(1)),
            "mcd.org.mod.re": mcd_mod(g, lags, "org", mod, reweight=True, rng=stream(2)),
            "mcd.diff.mod": mcd_mod(g, lags, "diff", mod, rng=stream(3)),
        }
        for eid, want in expected.items():
            got = estimate(g, lags, eid, rng=base, mod=mod)
            assert got.estimator_id == eid
            np.testing.assert_array_equal(got.values, want.values, err_msg=eid)
            np.testing.assert_array_equal(got.counts, want.counts, err_msg=eid)

    def test_mod_needs_ranges(self):
        with pytest.raises(InputError):
            estimate(_iid_grid(10, 10), build_lag_set(Direction.EW, 2), "mcd.diff.mod")

    @pytest.mark.parametrize("family", ["org", "diff", "org.mod", "diff.mod"])
    def test_raw_fits_shared_with_reweighted(self, monkeypatch, family):
        calls = []

        def counting(data, cfg, rng):
            calls.append(rng.stream_id)
            return fast_mcd(data, cfg, rng)

        monkeypatch.setattr(estimators_module, "fast_mcd", counting)
        g = _iid_grid(20, 8, seed=3)
        lags = build_lag_set(Direction.EW, 2)
        mod = ModConfig(1, 1)
        estimate(g, lags, f"mcd.{family}", mod=mod)
        fits_alone = len(calls)
        calls.clear()
        cache: dict = {}
        estimate(g, lags, f"mcd.{family}", mod=mod, cache=cache)
        reweighted = estimate(g, lags, f"mcd.{family}.re", mod=mod, cache=cache)
        # 20 x 8, EW, m = (1, 1): 2 chain offsets x 4 start offsets
        assert fits_alone == (8 if "mod" in family else 1)
        assert len(calls) == fits_alone
        alone = estimate(g, lags, f"mcd.{family}.re", mod=mod)
        np.testing.assert_array_equal(reweighted.values, alone.values)
