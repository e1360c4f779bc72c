import math

import numpy as np
import pytest

from robustvario.errors import InputError
from robustvario.variomodel import AnisoModel, aniso_variogram, parse_model
from test_simfield import covariance_matrix

SPH = AnisoModel("spherical", 5.0, 2.0)
PAPER_MODEL = AnisoModel("spherical", 5.0, 2.0, theta=3.0 * math.pi / 8.0, b=2.0)
FAMILIES = ("spherical", "exponential", "gaussian")


def oracle_variogram(m: AnisoModel, h) -> float:
    """Scalar oracle: the family formulas and the anisotropy transform
    written with ``math``, one lag at a time."""
    hx, hy = float(h[0]), float(h[1])
    c, s = math.cos(m.theta), math.sin(m.theta)
    d = math.hypot(c * hx + s * hy, (-s * hx + c * hy) * math.sqrt(1.0 / m.b))
    if d == 0.0:
        return 0.0
    r, beta = m.range_, m.sill
    if m.family == "spherical":
        if d >= r:
            return beta
        t = d / r
        return beta * (1.5 * t - 0.5 * t**3)
    if m.family == "exponential":
        return beta * (1.0 - math.exp(-3.0 * d / r))
    return beta * (1.0 - math.exp(-3.0 * d * d / (r * r)))


def covariance(m: AnisoModel, h) -> float:
    """C(h) = beta/2 - gamma(h), from the two-location covariance matrix."""
    return covariance_matrix(m, [(0.0, 0.0), (float(h[0]), float(h[1]))])[0, 1]


def at(m: AnisoModel, d: float) -> float:
    """Isotropic evaluation at distance d along the x axis."""
    return aniso_variogram(m, (d, 0.0))


class TestKernelOracle:
    LAGS = np.array([(hx, hy) for hx in range(-8, 9) for hy in range(-8, 9)], dtype=float)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("theta, b", [(0.0, 1.0), (3.0 * math.pi / 8.0, 2.0), (1.1, 0.3)])
    def test_kernel_matches_scalar_oracle(self, family, theta, b):
        m = AnisoModel(family, 5.0, 2.0, theta=theta, b=b)
        want = np.array([oracle_variogram(m, h) for h in self.LAGS])
        np.testing.assert_allclose(aniso_variogram(m, self.LAGS), want, rtol=1e-14, atol=0.0)
        for h, w in zip(self.LAGS[::37], want[::37]):
            assert aniso_variogram(m, h) == pytest.approx(w, rel=1e-14, abs=0.0)

    def test_array_shape_kept(self):
        lags = self.LAGS.reshape(17, 17, 2)
        assert aniso_variogram(PAPER_MODEL, lags).shape == (17, 17)


class TestIsoVariogram:
    def test_zero_at_origin(self):
        assert at(SPH, 0.0) == 0.0

    def test_sill_beyond_range(self):
        assert at(SPH, 7.0) == 2.0
        assert at(SPH, 5.0) == 2.0

    def test_spherical_formula(self):
        # beta*(3d/(2R) - d^3/(2R^3)) at d = 2.5
        assert at(SPH, 2.5) == pytest.approx(1.375, abs=1e-12)

    def test_exponential_practical_range(self):
        m = AnisoModel("exponential", 4.0, 1.0)
        assert at(m, 4.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-12)

    def test_gaussian_practical_range(self):
        m = AnisoModel("gaussian", 4.0, 1.0)
        assert at(m, 4.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-12)

    def test_nondecreasing(self):
        for family in FAMILIES:
            m = AnisoModel(family, 5.0, 2.0)
            d = np.linspace(0.0, 12.0, 200)
            vals = aniso_variogram(m, np.stack([d, np.zeros_like(d)], axis=1))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnisoModel("cubic", 1.0, 1.0)
        with pytest.raises(ValueError):
            AnisoModel("spherical", -1.0, 1.0)

    @pytest.mark.parametrize("range_, sill", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_non_finite_rejected(self, range_, sill):
        with pytest.raises(ValueError, match="finite"):
            AnisoModel("spherical", range_, sill)


class TestAnisoVariogram:
    @pytest.mark.parametrize("theta, b", [
        (math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan),
    ])
    def test_non_finite_rejected(self, theta, b):
        with pytest.raises(ValueError, match="finite"):
            AnisoModel("spherical", 5.0, 2.0, theta=theta, b=b)

    def test_zero_lag(self):
        assert aniso_variogram(PAPER_MODEL, (0, 0)) == 0.0

    def test_isotropic_reduction(self):
        m = AnisoModel("spherical", 5.0, 2.0, theta=0.7, b=1.0)
        for h in [(1, 0), (2, 3), (0, 4)]:
            assert aniso_variogram(m, h) == pytest.approx(at(SPH, math.hypot(*h)), abs=1e-12)

    def test_hand_computed_example(self):
        # R(theta) @ (1,0) = (cos t, -sin t); second coordinate scaled by 1/sqrt(2)
        t = 3.0 * math.pi / 8.0
        d = math.hypot(math.cos(t), -math.sin(t) / math.sqrt(2.0))
        assert d == pytest.approx(0.757115, abs=1e-6)
        expected = 2.0 * (3.0 * d / 10.0 - d**3 / 250.0)
        assert aniso_variogram(PAPER_MODEL, (1, 0)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.450797, abs=1e-6)

    def test_rotation_by_pi_invariant(self):
        for h in [(1, 0), (2, 1), (1, -3)]:
            a = aniso_variogram(AnisoModel("spherical", 5.0, 2.0, theta=0.3, b=2.0), h)
            b = aniso_variogram(AnisoModel("spherical", 5.0, 2.0, theta=0.3 + math.pi, b=2.0), h)
            assert a == pytest.approx(b, abs=1e-12)


class TestModelCovariance:
    def test_zero_lag_is_half_sill(self):
        assert covariance(PAPER_MODEL, (0, 0)) == 1.0

    def test_beyond_range_zero(self):
        assert covariance(PAPER_MODEL, (10, 10)) == 0.0

    def test_from_variogram_example(self):
        assert covariance(PAPER_MODEL, (1, 0)) == pytest.approx(
            1.0 - aniso_variogram(PAPER_MODEL, (1, 0)) / 2.0, abs=1e-12
        )

    def test_variogram_covariance_round_trip(self):
        for h in [(1, 0), (0, 2), (3, 3), (2, -4)]:
            lhs = 2.0 * covariance(PAPER_MODEL, (0, 0)) - 2.0 * covariance(PAPER_MODEL, h)
            assert lhs == pytest.approx(aniso_variogram(PAPER_MODEL, h), abs=1e-12)

    def test_covariance_matrix_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            coords = rng.integers(1, 12, size=(40, 2)).astype(float)
            cov = covariance_matrix(PAPER_MODEL, coords)
            np.testing.assert_allclose(cov, cov.T, atol=1e-14)
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-9 * max(1.0, eigvals.max())

    def test_covariance_matrix_matches_pointwise(self):
        coords = np.array([[1.0, 1.0], [2.0, 1.0], [4.0, 3.0]])
        cov = covariance_matrix(PAPER_MODEL, coords)
        for i in range(3):
            for j in range(3):
                h = coords[j] - coords[i]
                want = 0.5 * (PAPER_MODEL.sill - oracle_variogram(PAPER_MODEL, h))
                assert cov[i, j] == pytest.approx(want, abs=1e-12)


class TestParseModel:
    def test_iso(self):
        m = parse_model("spherical:5:2")
        assert m == SPH and m.b == 1.0

    def test_full(self):
        m = parse_model("gaussian:4:1.5:0.3:2")
        assert m == AnisoModel("gaussian", 4.0, 1.5, theta=0.3, b=2.0)

    def test_errors(self):
        for bad in ("spherical:5", "cubic:5:2", "spherical:x:2", "spherical:5:2:1",
                    "spherical:inf:2", "spherical:nan:2", "spherical:5:2:nan:2"):
            with pytest.raises(InputError):
                parse_model(bad)
