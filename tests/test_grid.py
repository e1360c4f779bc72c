import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustvario.errors import EmptySampleError, InputError
from robustvario.grid import (
    Direction,
    Grid,
    LagSet,
    extract_diff_vectors,
    extract_org_vectors,
    lag_differences,
)


class TestLagSet:
    def test_ew_generators(self):
        assert LagSet(Direction.EW, 2).lag_vectors == ((1, 0), (2, 0))

    def test_senw_generators(self):
        assert LagSet(Direction.SENW, 3).lag_vectors == ((1, -1), (2, -2), (3, -3))

    def test_swne_last_lag_length(self):
        lags = LagSet(Direction.SWNE, 5)
        assert np.hypot(*lags.lag_vectors[-1]) == pytest.approx(7.07, abs=5e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LagSet(Direction.EW, 0)


# number of vectors per grid size and direction class, h_max = 7 for the
# axis directions and 5 for the diagonals
VECTOR_COUNTS = [
    (15, 120, 100),
    (25, 450, 400),
    (50, 2150, 2025),
    (75, 5100, 4900),
]


class TestVectorCounts:
    @pytest.mark.parametrize("size,n_axis,n_diag", VECTOR_COUNTS)
    def test_org_counts(self, size, n_axis, n_diag):
        g = Grid(np.zeros((size, size)))
        for direction, expected, h in [
            (Direction.EW, n_axis, 7),
            (Direction.SN, n_axis, 7),
            (Direction.SWNE, n_diag, 5),
            (Direction.SENW, n_diag, 5),
        ]:
            assert extract_org_vectors(g, LagSet(direction, h)).n == expected

    @pytest.mark.parametrize("size,n_axis,n_diag", VECTOR_COUNTS)
    def test_diff_counts_match_org(self, size, n_axis, n_diag):
        g = Grid(np.zeros((size, size)))
        for direction, expected, h in [
            (Direction.EW, n_axis, 7),
            (Direction.SWNE, n_diag, 5),
        ]:
            lags = LagSet(direction, h)
            assert extract_diff_vectors(g, lags).n == expected
            assert extract_diff_vectors(g, lags).rows.shape[1] == h


class TestOrgVectors:
    def test_3x3_content(self):
        values = np.arange(9.0).reshape(3, 3)  # cell (x, y) holds 3*(y-1)+(x-1)
        g = Grid(values)
        sample = extract_org_vectors(g, LagSet(Direction.EW, 1))
        assert sample.n == 6
        assert sample.rows.shape[1] == 2
        expected = [[0, 1], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8]]
        np.testing.assert_array_equal(sample.rows, expected)
        np.testing.assert_array_equal(sample.origin_coords[0], [1, 1])
        np.testing.assert_array_equal(sample.origin_coords[-1], [2, 3])

    def test_senw_base_offsets(self):
        g = Grid(np.arange(9.0).reshape(3, 3))
        sample = extract_org_vectors(g, LagSet(Direction.SENW, 1))
        # base locations need y >= 2 so s + (1, -1) stays in-grid
        assert sample.n == 4
        assert set(map(tuple, sample.origin_coords)) == {(1, 2), (2, 2), (1, 3), (2, 3)}

    def test_masked_rows_dropped(self):
        g = Grid(np.zeros((1, 5)), np.array([[False, False, True, False, False]]))
        sample = extract_org_vectors(g, LagSet(Direction.EW, 1))
        # bases 1..4; masked cell x=3 kills bases 2 and 3
        assert sample.n == 2

    def test_too_small_raises(self):
        with pytest.raises(EmptySampleError):
            extract_org_vectors(Grid(np.zeros((3, 3))), LagSet(Direction.EW, 3))


class TestDiffVectors:
    def test_hand_example(self):
        g = Grid(np.array([[0.0, 1.0, 3.0, 6.0]]))
        sample = extract_diff_vectors(g, LagSet(Direction.EW, 2))
        np.testing.assert_array_equal(sample.rows, [[-1.0, -3.0], [-2.0, -5.0]])

    def test_constant_grid_zero(self):
        g = Grid(np.full((6, 6), 3.25))
        sample = extract_diff_vectors(g, LagSet(Direction.SWNE, 2))
        assert np.all(sample.rows == 0.0)


class TestProperties:
    @given(
        nx=st.integers(min_value=4, max_value=9),
        ny=st.integers(min_value=4, max_value=9),
        h=st.integers(min_value=1, max_value=3),
        direction=st.sampled_from(list(Direction)),
    )
    @settings(max_examples=60, deadline=None)
    def test_org_and_diff_counts_equal(self, nx, ny, h, direction):
        g = Grid(np.arange(float(nx * ny)).reshape(ny, nx))
        lags = LagSet(direction, h)
        gx, gy = direction.generator
        if nx - h * gx < 1 or ny - h * abs(gy) < 1:
            return
        assert extract_org_vectors(g, lags).n == extract_diff_vectors(g, lags).n

    def test_rotation_maps_ew_to_sn(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((5, 7))
        g = Grid(values)
        # rotating the grid by 90 degrees turns EW runs into SN runs
        rotated = Grid(np.rot90(values, k=-1).copy())
        a = extract_org_vectors(g, LagSet(Direction.EW, 2)).rows
        b = extract_org_vectors(rotated, LagSet(Direction.SN, 2)).rows
        assert sorted(map(tuple, a)) == sorted(map(tuple, b))

    @given(cell=st.integers(min_value=0, max_value=19), h=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_single_mask_removes_few_rows(self, cell, h):
        full = Grid(np.arange(20.0).reshape(1, 20))
        mask = np.zeros((1, 20), dtype=bool)
        mask[0, cell] = True
        masked = Grid(full.values, mask)
        lags = LagSet(Direction.EW, h)
        n_full = extract_org_vectors(full, lags).n
        try:
            n_masked = extract_org_vectors(masked, lags).n
        except EmptySampleError:
            n_masked = 0
        assert 0 <= n_full - n_masked <= h + 1


class TestLagDifferences:
    def test_hand_pairs(self):
        g = Grid(np.array([[0.0, 1.0, 0.0, 1.0]]))
        diffs = lag_differences(g, (1, 0))
        np.testing.assert_array_equal(diffs, [-1.0, 1.0, -1.0])

    def test_sign_normalization(self):
        g = Grid(np.arange(8.0).reshape(2, 4))
        np.testing.assert_array_equal(lag_differences(g, (-1, 0)), lag_differences(g, (1, 0)))

    def test_masked_pairs_dropped(self):
        g = Grid(np.array([[0.0, 1.0, 5.0]]), np.array([[False, False, True]]))
        assert lag_differences(g, (1, 0)).tolist() == [-1.0]

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            lag_differences(Grid(np.zeros((1, 3))), (5, 0))


class TestGridValues:
    def test_unmasked_nan_raises(self):
        values = np.zeros((3, 4))
        values[1, 2] = np.nan
        with pytest.raises(InputError, match="x=3, y=2"):
            Grid(values)

    def test_unmasked_inf_raises(self):
        with pytest.raises(InputError):
            Grid(np.array([[0.0, -np.inf]]))

    def test_masked_nan_allowed(self):
        values = np.array([[0.0, np.nan, 1.0]])
        g = Grid(values, np.array([[False, True, False]]))
        assert int((~g.mask).sum()) == 2
