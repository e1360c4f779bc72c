import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario import estimators as estimators_module
from robustvario.ascio import apply_quality_mask, load_asc
from robustvario.contamination import ContaminationSpec, contaminate
from robustvario.errors import (
    EmptySampleError,
    InputError,
    NotPositiveDefiniteError,
    RobustVarioError,
    SampleTooSmallError,
    SingularDataError,
)
from robustvario.estimators import (
    ESTIMATOR_IDS,
    ModConfig,
    VariogramEstimate,
    check_request,
    estimate_grid,
    non_overlapping_count,
    org_scatter_to_variogram,
    parse_estimator_id,
)
from robustvario.grid import (
    Direction,
    Grid,
    LagSet,
    extract_diff_vectors,
    extract_org_vectors,
    lag_differences,
)
from robustvario.mcd import McdConfig, fast_mcd, reweight_mcd
from robustvario.numerics import RngStream
from robustvario.scale import GAUSSIAN_CONSISTENCY, qn, qn_finite_sample_factor
from robustvario.simfield import FieldSpec, simulate_field
from robustvario.study import default_lag_depths
from robustvario.variomodel import AnisoModel
from robustvario.variomodel import AnisoModel, aniso_variogram
from test_simfield import covariance_matrix

PAPER_MODEL = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)
NON_MOD_IDS = tuple(eid for eid in ESTIMATOR_IDS if ".mod" not in eid)


def _iid_grid(nx, ny, seed=0):
    return Grid(np.random.default_rng(seed).standard_normal((ny, nx)))


def _estimate(g, lags, eid, seed=0, mod=None):
    """One id on one lag set through estimate_grid; raises its error."""
    (est,) = estimate_grid(g, [lags], [eid], seed=seed, mod=mod).values()
    if isinstance(est, RobustVarioError):
        raise est
    return est


class TestEstimatorIds:
    def test_registry(self):
        assert len(ESTIMATOR_IDS) == 10
        kind = parse_estimator_id("mcd.org.mod.re")
        assert kind.family == "org" and kind.mod and kind.reweight
        with pytest.raises(ValueError):
            parse_estimator_id("cressie")


class TestMatheron:
    def test_constant_grid(self):
        est = _estimate(Grid(np.full((5, 5), 2.0)), LagSet(Direction.EW, 2), "matheron")
        np.testing.assert_array_equal(est.values, [0.0, 0.0])

    def test_hand_example(self):
        g = Grid(np.array([[0.0, 1.0, 0.0, 1.0]]))
        est = _estimate(g, LagSet(Direction.EW, 1), "matheron")
        assert est.values[0] == 1.0
        assert est.counts[0] == 3

    def test_counts_per_lag(self):
        est = _estimate(_iid_grid(15, 15), LagSet(Direction.SN, 3), "matheron")
        np.testing.assert_array_equal(est.counts, [15 * 14, 15 * 13, 15 * 12])


class TestGenton:
    def test_constant_grid(self):
        est = _estimate(Grid(np.full((6, 6), 1.0)), LagSet(Direction.SWNE, 2), "genton")
        np.testing.assert_array_equal(est.values, [0.0, 0.0])

    def test_hand_example(self):
        g = Grid(np.array([[0.0, 1.0, 3.0, 6.0]]))
        est = _estimate(g, LagSet(Direction.EW, 1), "genton")
        # diffs (-1,-2,-3): k = C(2,2) = 1, qn_raw = 1, scaled by c * d_3, squared
        assert est.values[0] == (GAUSSIAN_CONSISTENCY * qn_finite_sample_factor(3)) ** 2


class TestMcdDiff:
    def test_iid_diagonal_near_two(self):
        # differences of independent unit-variance cells have variance 2;
        # averaged over realizations the diagonal sits within 0.15 of that
        values = []
        for seed in range(30):
            g = _iid_grid(25, 25, seed=seed)
            values.append(_estimate(g, LagSet(Direction.EW, 3), "mcd.diff", seed=seed).values)
        assert np.all(np.abs(np.mean(values, axis=0) - 2.0) < 0.15)

    def test_reweighted_id(self):
        g = _iid_grid(12, 12, seed=1)
        est = _estimate(g, LagSet(Direction.EW, 2), "mcd.diff.re", seed=2)
        assert est.estimator_id == "mcd.diff.re"


class TestMcdOrg:
    def test_toeplitz_identity(self):
        # feeding the exact Toeplitz covariance reproduces the model variogram
        h_max = 5
        sigma = covariance_matrix(PAPER_MODEL, [(i, 0) for i in range(h_max + 1)])
        values = org_scatter_to_variogram(sigma)
        expected = [aniso_variogram(PAPER_MODEL, (l, 0)) for l in range(1, h_max + 1)]
        np.testing.assert_allclose(values, expected, atol=1e-12)

    @given(st.integers(2, 19), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_diagonal_means(self, p, seed):
        # the oracle averages each diagonal by ``np.mean``, the function by
        # ``np.trace`` over the diagonal's length: the same bytes
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p + 3, p)) * rng.uniform(1e-3, 1e3, p) + rng.uniform(-10, 10, p)
        sigma = a.T @ a
        a0 = float(np.mean(np.diag(sigma)))
        expected = np.array([2.0 * (a0 - float(np.mean(np.diag(sigma, l)))) for l in range(1, p)])
        got = org_scatter_to_variogram(sigma)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_iid_lags_near_two(self):
        values = []
        for seed in range(30):
            g = _iid_grid(25, 25, seed=seed)
            values.append(_estimate(g, LagSet(Direction.SN, 3), "mcd.org", seed=seed).values)
        assert np.all(np.abs(np.mean(values, axis=0) - 2.0) < 0.2)


class TestInvariances:
    """Translation invariance and scale equivariance for all estimators."""

    @pytest.mark.parametrize("shift", [4.2])
    def test_translation_invariance(self, shift):
        g = _iid_grid(14, 14, seed=10)
        shifted = Grid(g.values + shift)
        lags = LagSet(Direction.EW, 3)
        mod = ModConfig(m_x=1, m_y=1)
        runs = [("matheron", 0), ("genton", 0), ("mcd.diff", 1), ("mcd.org.re", 2), ("mcd.diff.mod", 3)]
        for eid, seed in runs:
            np.testing.assert_allclose(
                _estimate(shifted, lags, eid, seed=seed, mod=mod).values,
                _estimate(g, lags, eid, seed=seed, mod=mod).values,
                atol=1e-10, err_msg=eid,
            )

    @pytest.mark.parametrize("c", [3.0])
    def test_scale_equivariance(self, c):
        g = _iid_grid(14, 14, seed=11)
        scaled = Grid(c * g.values)
        lags = LagSet(Direction.SN, 3)
        mod = ModConfig(m_x=1, m_y=1)
        runs = [("matheron", 0), ("genton", 0), ("mcd.org", 4), ("mcd.diff.re", 5), ("mcd.org.mod", 6)]
        for eid, seed in runs:
            np.testing.assert_allclose(
                _estimate(scaled, lags, eid, seed=seed, mod=mod).values,
                c**2 * _estimate(g, lags, eid, seed=seed, mod=mod).values,
                rtol=1e-8, atol=1e-10, err_msg=eid,
            )


def _outcomes(g, lag_sets, seed):
    """Per (id, direction): values and counts as bytes, or the error class name."""
    return {
        key: type(est).__name__ if isinstance(est, RobustVarioError)
        else (est.values.tobytes(), est.counts.tobytes())
        for key, est in estimate_grid(g, lag_sets, NON_MOD_IDS, seed=seed).items()
    }


class TestProperties:
    @given(
        nx=st.integers(6, 11),
        ny=st.integers(6, 11),
        h_max=st.integers(1, 3),
        mask_share=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_masked_top_row_equals_cropped(self, nx, ny, h_max, mask_share, seed):
        # masking the northernmost row drops exactly the pairs and vectors
        # that cropping it does, in the same order, so every non-.mod id
        # gives the same values and counts bit for bit (or the same error)
        gen = np.random.default_rng(seed)
        values = gen.standard_normal((ny, nx))
        mask = gen.random((ny, nx)) < mask_share
        cropped = Grid(values[:-1], mask[:-1])
        values[-1], mask[-1] = np.nan, True
        masked = Grid(values, mask)
        lag_sets = [LagSet(direction, h_max) for direction in Direction]
        assert _outcomes(masked, lag_sets, seed) == _outcomes(cropped, lag_sets, seed)

    @given(
        nx=st.integers(6, 12),
        ny=st.integers(6, 12),
        direction=st.sampled_from(list(Direction)),
        shift=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairwise_translation_and_scale(self, nx, ny, direction, shift, scale, seed):
        values = np.random.default_rng(seed).standard_normal((ny, nx))
        lags = LagSet(direction, 3)
        for eid in ("matheron", "genton"):
            base = _estimate(Grid(values), lags, eid).values
            shifted = _estimate(Grid(values + shift), lags, eid).values
            scaled = _estimate(Grid(scale * values), lags, eid).values
            np.testing.assert_allclose(shifted, base, rtol=1e-9, err_msg=eid)
            np.testing.assert_allclose(scaled, scale**2 * base, rtol=1e-9, err_msg=eid)


class TestModEstimator:
    def test_non_overlapping_count_paper_value(self):
        assert non_overlapping_count(50, 4, 1) == 8

    def test_non_overlapping_count_vs_enumeration(self):
        for n_x in range(10, 201, 7):
            for m in range(0, 7):
                for h in range(1, 9):
                    expected = len(range(0, n_x - h, h + 1 + m))
                    assert non_overlapping_count(n_x, h, m) == expected, (n_x, m, h)

    def test_partition_vector_count_on_row(self, recorded_fits):
        # 1 x 50 grid, m = 1, h_max = 3: the zero-offset partition, number 1,
        # holds every 5th difference vector, non_overlapping_count of them
        g = Grid(np.random.default_rng(0).standard_normal((1, 50)))
        lags = LagSet(Direction.EW, 3)
        _estimate(g, lags, "mcd.diff.mod", mod=ModConfig(m_x=1, m_y=0))
        number, rows = recorded_fits[0]
        assert number == 1 and len(rows) == non_overlapping_count(50, 3, 1) == 10
        np.testing.assert_array_equal(rows, extract_diff_vectors(g, lags).rows[::5])

    def test_unusable_raises(self):
        # 1 x 50, m = 5, h_max = 6: only 4 non-overlapping vectors remain
        g = Grid(np.random.default_rng(1).standard_normal((1, 50)))
        lags = LagSet(Direction.EW, 6)
        assert non_overlapping_count(50, 6, 5) == 4
        with pytest.raises(SampleTooSmallError, match="more than p=7 vectors, the largest 4"):
            _estimate(g, lags, "mcd.org.mod", seed=1, mod=ModConfig(m_x=5, m_y=0))

    def test_paper_reference_case(self):
        # the breakdown reference case, 1 x 50, h_max = 4, m = 1: the six
        # partitions keep 8, 8, 8, 8, 7 and 7 vectors, more than p (5 for
        # org, 4 for diff), so both .mod ids are fitted on all of them
        g = Grid(np.random.default_rng(2).standard_normal((1, 50)))
        lags = LagSet(Direction.EW, 4)
        out = estimate_grid(
            g, [lags], ["mcd.org.mod", "mcd.diff.mod"], seed=1, mod=ModConfig(m_x=1, m_y=0)
        )
        for est in out.values():
            assert not isinstance(est, RobustVarioError), est
            assert np.all(np.isfinite(est.values)) and np.all(est.counts == 46)

    def test_averaging_uses_all_partitions(self):
        g = _iid_grid(30, 6, seed=5)
        lags = LagSet(Direction.EW, 2)
        mod = ModConfig(m_x=1, m_y=1)
        est = _estimate(g, lags, "mcd.diff.mod", seed=9, mod=mod)
        # 2 chain offsets x 4 start offsets, each partition has > 4 vectors
        assert est.counts[0] > 8 * 4

    def test_reweighted_mod_id(self):
        g = _iid_grid(30, 6, seed=6)
        lags = LagSet(Direction.EW, 2)
        est = _estimate(g, lags, "mcd.org.mod.re", seed=3, mod=ModConfig(m_x=0, m_y=0))
        assert est.estimator_id == "mcd.org.mod.re"


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
    """Replace the MCD search by a recorder of (partition number, rows) that
    returns an identity scatter.  At rep 0, estimate_grid's stream id is
    2^32 plus a multiple of 2^40 plus the partition number."""
    calls = []

    def fake_fast_mcd(data, cfg, rng):
        rows = np.asarray(data, dtype=float)
        calls.append(((rng.stream_id - 2**32) % 2**40, rows.copy()))
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
        lags = LagSet(direction, 2)
        # a partition is fitted when it keeps more than p vectors
        for kind, mod in [("org", ModConfig(m, m)), ("diff", ModConfig(m, 0))]:
            recorded_fits.clear()
            _estimate(g, lags, f"mcd.{kind}.mod", mod=mod)
            p = lags.h_max + (kind == "org")
            expected = [(i, rows) for i, rows in _oracle_partitions(g, lags, kind, mod)
                        if len(rows) > p]
            assert [i for i, _ in recorded_fits] == [i for i, _ in expected]
            for (_, got), (_, want) in zip(recorded_fits, expected):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("direction", [Direction.SWNE, Direction.SENW])
    @pytest.mark.parametrize("nx", [16, 15])
    def test_diagonal_chains_separated(self, recorded_fits, direction, nx):
        # cell values encode their coordinates, so each org row names its cells
        ny = 16
        yy, xx = np.mgrid[1:ny + 1, 1:nx + 1]
        g = Grid((xx + 100 * yy).astype(float))
        mod = ModConfig(1, 1)
        _estimate(g, LagSet(direction, 2), "mcd.org.mod", mod=mod)
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
        with pytest.raises(EmptySampleError):
            _estimate(g, LagSet(Direction.EW, 4), "mcd.org.mod", seed=1, mod=ModConfig(0, 0))


class TestEstimateDispatch:
    def test_matches_building_blocks(self):
        # every id against the raw building blocks: difference sets, Qn,
        # fast_mcd/reweight_mcd on the extracted vectors and, for .mod, on the
        # cell-by-cell partitions, with family j of direction 1 drawing from
        # stream rep + 2^32 + (4 + j + 1) * 2^40
        g = _iid_grid(14, 12, seed=21)
        lags = LagSet(Direction.SN, 3)
        mod = ModConfig(1, 0)
        cfg = McdConfig()

        def stream(j):
            return RngStream(5, 2 + 2**32 + (4 * 1 + j + 1) * 2**40)

        def fitted(rows, rng, reweight, kind):
            fit = fast_mcd(rows, cfg, rng)
            fit = reweight_mcd(rows, fit) if reweight else fit
            return org_scatter_to_variogram(fit.sigma) if kind == "org" else np.diag(fit.sigma)

        def mod_values(kind, j, reweight):
            p = lags.h_max + (kind == "org")
            parts = [(i, rows) for i, rows in _oracle_partitions(g, lags, kind, mod)
                     if len(rows) > p]
            per = [fitted(rows, stream(j).child(i), reweight, kind) for i, rows in parts]
            return np.mean(per, axis=0), sum(len(rows) for _, rows in parts)

        diffs = [lag_differences(g, lag) for lag in lags.lag_vectors]
        org_rows = extract_org_vectors(g, lags).rows
        diff_rows = extract_diff_vectors(g, lags).rows
        expected = {
            "matheron": ([np.mean(d**2) for d in diffs], [d.size for d in diffs]),
            "genton": ([qn(d) ** 2 for d in diffs], [d.size for d in diffs]),
            "mcd.org.re": (fitted(org_rows, stream(0), True, "org"), len(org_rows)),
            "mcd.diff": (fitted(diff_rows, stream(1), False, "diff"), len(diff_rows)),
            "mcd.org.mod.re": mod_values("org", 2, True),
            "mcd.diff.mod": mod_values("diff", 3, False),
        }
        estimates = estimate_grid(g, [lags], list(expected), seed=5, rep=2, mod=mod)
        assert list(estimates) == [(eid, "sn") for eid in expected]
        for eid, (values, counts) in expected.items():
            got = estimates[(eid, "sn")]
            assert got.estimator_id == eid
            np.testing.assert_array_equal(got.values, values, err_msg=eid)
            np.testing.assert_array_equal(got.counts, np.broadcast_to(counts, (3,)), err_msg=eid)

    def test_mod_needs_ranges(self):
        with pytest.raises(InputError):
            _estimate(_iid_grid(10, 10), LagSet(Direction.EW, 2), "mcd.diff.mod")

    @pytest.mark.parametrize("family", ["org", "diff", "org.mod", "diff.mod"])
    def test_raw_fits_shared_with_reweighted(self, monkeypatch, family):
        calls = []

        def counting(data, cfg, rng):
            calls.append(rng.stream_id)
            return fast_mcd(data, cfg, rng)

        monkeypatch.setattr(estimators_module, "fast_mcd", counting)
        g = _iid_grid(20, 8, seed=3)
        lags = LagSet(Direction.EW, 2)
        mod = ModConfig(1, 1)
        raw, reweighted = f"mcd.{family}", f"mcd.{family}.re"
        estimate_grid(g, [lags], [raw], mod=mod)
        fits_alone = len(calls)
        calls.clear()
        both = estimate_grid(g, [lags], [raw, reweighted], mod=mod)
        # 20 x 8, EW, m = (1, 1): 2 chain offsets x 4 start offsets
        assert fits_alone == (8 if "mod" in family else 1)
        assert len(calls) == fits_alone
        alone = estimate_grid(g, [lags], [reweighted], mod=mod)
        key = (reweighted, "ew")
        np.testing.assert_array_equal(both[key].values, alone[key].values)

    def test_failed_estimate_is_a_value(self):
        # no partition of a 3 x 3 grid keeps more than p = 3 org vectors;
        # Matheron still runs
        g = _iid_grid(3, 3)
        lags = LagSet(Direction.EW, 2)
        out = estimate_grid(g, [lags], ["mcd.org.mod", "matheron"], mod=ModConfig(0, 0))
        assert list(out) == [("mcd.org.mod", "ew"), ("matheron", "ew")]
        assert isinstance(out[("mcd.org.mod", "ew")], SampleTooSmallError)
        np.testing.assert_array_equal(
            out[("matheron", "ew")].values, _estimate(g, lags, "matheron").values
        )

    @pytest.mark.parametrize("family", ["diff", "org.mod"])
    def test_failed_raw_fit_searched_once(self, monkeypatch, family):
        # constant EW differences leave every diff row equal, so the raw
        # search raises SingularDataError; no .mod partition of a 3 x 3 grid
        # keeps more than p = 3 org vectors
        calls = []
        name = "_mod_raw_fits" if "mod" in family else "fast_mcd"
        original = getattr(estimators_module, name)
        monkeypatch.setattr(
            estimators_module, name, lambda *a: calls.append(1) or original(*a)
        )
        if "mod" in family:
            g, error = _iid_grid(3, 3), SampleTooSmallError
        else:
            g, error = Grid(np.tile(np.arange(20.0), (8, 1))), SingularDataError
        out = estimate_grid(
            g, [LagSet(Direction.EW, 2)], [f"mcd.{family}", f"mcd.{family}.re"],
            mod=ModConfig(0, 0),
        )
        assert calls == [1]
        assert [type(v) for v in out.values()] == [error, error]

    def test_check_request_normalizes_ids(self):
        ids = check_request([" MCD.Org", "matheron"], [Direction.EW], None)
        assert ids == ("mcd.org", "matheron")


class TestApplicationClaim:
    """The paper's application: on the masked satellite fixture, a 10%
    outlier block moves the MCD estimates least, Genton's more and
    Matheron's most, in every direction."""

    def test_block_moves_mcd_least_and_matheron_most(self):
        data = Path(__file__).parent / "data"
        g = apply_quality_mask(
            load_asc(data / "ndvi_synthetic.asc")[0], load_asc(data / "ndvi_quality.asc")[0], {0}
        )
        lag_sets = [LagSet(d, h) for d, h in default_lag_depths(4, 3).items()]
        ids = ["matheron", "genton", "mcd.org.re", "mcd.diff.re"]
        clean = estimate_grid(g, lag_sets, ids, seed=1)
        spec = ContaminationSpec("block", 0.1, mu0=1.0, sigma0=0.05)
        dirty = estimate_grid(contaminate(g, spec, RngStream(1, 0))[0], lag_sets, ids, seed=1)
        for lags in lag_sets:
            d = lags.direction.value
            move = {eid: np.abs(dirty[eid, d].values / clean[eid, d].values - 1) for eid in ids}
            # measured: MCD at most 6.6%, Genton 36-44%, Matheron at least 267%
            for eid in ("mcd.org.re", "mcd.diff.re"):
                assert move[eid].max() < move["genton"].min(), (eid, d)
            assert move["genton"].max() < move["matheron"].min(), d


class TestSaturatedBlock:
    """A constant-valued block, as saturated cloud pixels give: 45% of the
    paper's 15x15 field set to 5 (sigma0 = 1e-300), so that each row of an
    MCD support can have a component on a hyperplane x_j = 5."""

    def test_raw_fits_raise_no_numerical_error(self):
        # slogdet gave some of these singular scatters a finite log-determinant,
        # and the C-step's monotonicity check raised NumericalError on 12 of
        # these 32 estimates; the Cholesky pivot rule finds them singular
        model = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)
        spec = ContaminationSpec("block", 0.45, mu0=5.0, sigma0=1e-300)
        lag_sets = [LagSet(d, h) for d, h in default_lag_depths().items()]
        ids = ("mcd.org", "mcd.org.re", "mcd.diff", "mcd.diff.re")
        for rep in range(2):
            field = simulate_field(FieldSpec(model, 15, 15), RngStream(77, rep))
            g = contaminate(field, spec, RngStream(77, rep + 2**32))[0]
            with pytest.warns(RuntimeWarning, match="singular covariance"):
                out = estimate_grid(g, lag_sets, ids, seed=77, rep=rep)
            for (eid, d), est in out.items():
                # a singular raw fit cannot be reweighted
                if eid.endswith(".re"):
                    assert isinstance(est, (VariogramEstimate, NotPositiveDefiniteError)), (eid, d)
                else:
                    assert isinstance(est, VariogramEstimate), (eid, d)
