"""Parametric variogram families with geometric anisotropy.

The isotropic spherical model with sill beta (of the variogram 2*gamma) and
range R is

    2*gamma0(d) = beta * (3d/(2R) - d^3/(2R^3))   for 0 < d < R
    2*gamma0(d) = beta                            for d >= R.

Exponential and gaussian use the practical-range convention (factor 3 in the
exponent), so R marks ~95% of the sill.  Geometric anisotropy evaluates the
isotropic model at the transformed distance sqrt(h' R' T' T R h) with
rotation R(theta) and rescaling T = diag(1, sqrt(1/b)).

Under weak stationarity the covariance follows as C(h) = beta/2 - gamma(h),
which is what the field simulator factorizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "IsoModel",
    "AnisoModel",
    "iso_variogram",
    "aniso_variogram",
    "model_covariance",
    "covariance_matrix",
    "parse_model",
]

_FAMILIES = ("spherical", "exponential", "gaussian")


@dataclass(frozen=True)
class IsoModel:
    family: str
    range_: float
    sill: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if not 0.0 < self.range_ < math.inf:
            raise ValueError(f"range must be positive and finite, got {self.range_}")
        if not 0.0 < self.sill < math.inf:
            raise ValueError(f"sill must be positive and finite, got {self.sill}")


@dataclass(frozen=True)
class AnisoModel:
    iso: IsoModel
    theta: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"anisotropy angle theta must be finite, got {self.theta}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"anisotropy ratio b must be positive and finite, got {self.b}")

    @property
    def sill(self) -> float:
        return self.iso.sill

    def transformed_norm(self, h) -> float:
        """Length of T @ R(theta) @ h."""
        hx, hy = float(h[0]), float(h[1])
        c, s = math.cos(self.theta), math.sin(self.theta)
        u = c * hx + s * hy
        v = (-s * hx + c * hy) * math.sqrt(1.0 / self.b)
        return math.hypot(u, v)


def iso_variogram(m: IsoModel, d: float) -> float:
    """Variogram value 2*gamma0(d) of the isotropic model at distance d."""
    if d < 0.0:
        raise ValueError(f"distance must be >= 0, got {d}")
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


def aniso_variogram(m: AnisoModel, h) -> float:
    """Variogram value 2*gamma(h) at an integer lag pair h = (hx, hy)."""
    return iso_variogram(m.iso, m.transformed_norm(h))


def model_covariance(m: AnisoModel, h) -> float:
    """Covariance C(h) = beta/2 - gamma(h); the process variance is beta/2."""
    return 0.5 * (m.sill - aniso_variogram(m, h))


def covariance_matrix(m: AnisoModel, coords) -> np.ndarray:
    """Dense covariance matrix over the given (x, y) locations."""
    coords = np.asarray(coords, dtype=float)
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    c, s = math.cos(m.theta), math.sin(m.theta)
    u = c * dx + s * dy
    v = (-s * dx + c * dy) * math.sqrt(1.0 / m.b)
    d = np.hypot(u, v)
    r, beta = m.iso.range_, m.iso.sill
    if m.iso.family == "spherical":
        t = np.minimum(d / r, 1.0)
        vario = beta * (1.5 * t - 0.5 * t**3)
    elif m.iso.family == "exponential":
        vario = beta * (1.0 - np.exp(-3.0 * d / r))
    else:
        vario = beta * (1.0 - np.exp(-3.0 * (d / r) ** 2))
    return 0.5 * (beta - vario)


def parse_model(text: str) -> AnisoModel:
    """Parse a "family:R:beta[:theta:b]" model specification string."""
    parts = text.strip().split(":")
    if len(parts) not in (3, 5):
        raise InputError(
            f"model spec {text!r} must be family:R:beta or family:R:beta:theta:b"
        )
    family = parts[0].strip().lower()
    try:
        numbers = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise InputError(f"model spec {text!r}: {exc}") from None
    try:
        iso = IsoModel(family, numbers[0], numbers[1])
        if len(numbers) == 4:
            return AnisoModel(iso, theta=numbers[2], b=numbers[3])
        return AnisoModel(iso)
    except ValueError as exc:
        raise InputError(f"model spec {text!r}: {exc}") from None
