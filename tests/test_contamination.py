import numpy as np
import pytest

from robustvario.contamination import ContaminationSpec, contaminate
from robustvario.grid import Grid
from robustvario.numerics import RngStream


def _grid(nx=15, ny=15, seed=0):
    return Grid(np.random.default_rng(seed).standard_normal((ny, nx)))


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ContaminationSpec("cloud", 0.1)

    def test_bad_epsilon(self):
        for eps in (-0.1, 1.0):
            with pytest.raises(ValueError):
                ContaminationSpec("block", eps)

    @pytest.mark.parametrize(
        "mu0,sigma0", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)]
    )
    def test_non_finite_rejected(self, mu0, sigma0):
        with pytest.raises(ValueError, match="finite"):
            ContaminationSpec("block", 0.1, mu0=mu0, sigma0=sigma0)

    def test_count_rule(self):
        assert ContaminationSpec("block", 0.05).n_cells(225) == 12  # ceil(11.25)
        assert ContaminationSpec("isolated", 0.15).n_cells(225) == 34  # ceil(33.75)


class TestBlock:
    def test_zero_epsilon(self):
        g = _grid()
        out, cells = contaminate(g, ContaminationSpec("block", 0.0), RngStream(1))
        assert cells == set()
        np.testing.assert_array_equal(out.values, g.values)

    def test_exact_count_and_untouched_cells(self):
        g = _grid()
        spec = ContaminationSpec("block", 0.05, mu0=3.0, sigma0=1.0)
        out, cells = contaminate(g, spec, RngStream(5))
        assert len(cells) == 12
        for y in range(1, 16):
            for x in range(1, 16):
                if (x, y) not in cells:
                    assert out.values[y - 1, x - 1] == g.values[y - 1, x - 1]

    def test_shape_rule_2x2(self):
        # eps=0.16 on 5x5 -> 4 cells, anchored so the center is top-left of a 2x2
        g = _grid(5, 5)
        spec = ContaminationSpec("block", 0.16)
        for seed in range(200):
            out, cells = contaminate(g, spec, RngStream(seed))
            if (3, 3) in cells and min(x for x, _ in cells) == 3 and min(y for _, y in cells) == 3:
                assert cells == {(3, 3), (4, 3), (3, 4), (4, 4)}
                break
        else:
            pytest.fail("no draw centered at (3,3)")

    def test_blocks_4connected_and_in_grid(self):
        g = _grid(9, 7, seed=2)
        spec = ContaminationSpec("block", 0.12)
        for seed in range(50):
            _, cells = contaminate(g, spec, RngStream(seed))
            assert all(1 <= x <= 9 and 1 <= y <= 7 for x, y in cells)
            # connectivity: flood fill from one cell reaches all
            todo = [next(iter(cells))]
            seen = set(todo)
            while todo:
                x, y = todo.pop()
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
            assert seen == cells

    def test_additive_mode(self):
        g = _grid()
        spec = ContaminationSpec("block", 0.05, mu0=100.0, sigma0=1e-9, mode="additive")
        out, cells = contaminate(g, spec, RngStream(3))
        for x, y in cells:
            assert out.values[y - 1, x - 1] == pytest.approx(g.values[y - 1, x - 1] + 100.0, abs=1e-6)

    def test_deterministic(self):
        g = _grid()
        spec = ContaminationSpec("block", 0.1, mu0=3.0)
        a, ca = contaminate(g, spec, RngStream(11, 4))
        b, cb = contaminate(g, spec, RngStream(11, 4))
        assert ca == cb
        np.testing.assert_array_equal(a.values, b.values)


    @pytest.mark.parametrize("nx,ny,eps", [(50, 1, 0.07), (1, 50, 0.07), (60, 2, 0.1), (2, 60, 0.1)])
    def test_thin_grid_block_inside(self, nx, ny, eps):
        # a square block does not fit a thin grid; the block widens instead
        g = _grid(nx, ny, seed=4)
        spec = ContaminationSpec("block", eps, mu0=100.0)
        m = spec.n_cells(nx * ny)
        for seed in range(30):
            out, cells = contaminate(g, spec, RngStream(seed))
            assert len(cells) == m
            assert all(1 <= x <= nx and 1 <= y <= ny for x, y in cells)
            assert int((out.values != g.values).sum()) == m


class TestIsolated:
    def test_exact_distinct_count(self):
        g = _grid()
        spec = ContaminationSpec("isolated", 0.15, mu0=3.0)
        out, cells = contaminate(g, spec, RngStream(7))
        assert len(cells) == 34

    def test_uniformity(self):
        g = _grid(10, 10)
        spec = ContaminationSpec("isolated", 0.05)
        counts = np.zeros((10, 10))
        reps = 10_000
        for r in range(reps):
            _, cells = contaminate(g, spec, RngStream(1234, r))
            for x, y in cells:
                counts[y - 1, x - 1] += 1
        freq = counts / reps
        assert np.all(np.abs(freq - 0.05) < 0.01)

    def test_zero_epsilon(self):
        g = _grid()
        out, cells = contaminate(g, ContaminationSpec("isolated", 0.0), RngStream(1))
        assert cells == set()
        np.testing.assert_array_equal(out.values, g.values)
