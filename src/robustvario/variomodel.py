"""Parametric variogram families with geometric anisotropy.

The isotropic spherical model with sill beta (of the variogram 2*gamma) and
range R is

    2*gamma0(d) = beta * (3d/(2R) - d^3/(2R^3))   for 0 < d < R
    2*gamma0(d) = beta                            for d >= R.

Exponential and gaussian use the practical-range convention (factor 3 in the
exponent), so R marks ~95% of the sill.  Geometric anisotropy evaluates the
isotropic model at the transformed distance sqrt(h' R' T' T R h) with
rotation R(theta) and rescaling T = diag(1, sqrt(1/b)); theta = 0, b = 1 is
the isotropic model.

:func:`aniso_variogram` is the one kernel: the study's true semivariogram
and the covariance C(h) = beta/2 - gamma(h) (weak stationarity) that
:mod:`robustvario.simfield` embeds on its torus both evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["AnisoModel", "aniso_variogram", "parse_model"]

_FAMILIES = ("spherical", "exponential", "gaussian")


@dataclass(frozen=True)
class AnisoModel:
    family: str
    range_: float
    sill: float
    theta: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if not 0.0 < self.range_ < math.inf:
            raise ValueError(f"range must be positive and finite, got {self.range_}")
        if not 0.0 < self.sill < math.inf:
            raise ValueError(f"sill must be positive and finite, got {self.sill}")
        if not math.isfinite(self.theta):
            raise ValueError(f"anisotropy angle theta must be finite, got {self.theta}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"anisotropy ratio b must be positive and finite, got {self.b}")


def aniso_variogram(m: AnisoModel, h):
    """Variogram value 2*gamma(h) at a lag pair h = (hx, hy), or at every
    pair along the last axis of an (..., 2) array of lags."""
    h = np.asarray(h, dtype=float)
    c, s = math.cos(m.theta), math.sin(m.theta)
    u = c * h[..., 0] + s * h[..., 1]
    v = (-s * h[..., 0] + c * h[..., 1]) * math.sqrt(1.0 / m.b)
    d = np.hypot(u, v)
    if m.family == "spherical":
        t = np.minimum(d / m.range_, 1.0)
        return m.sill * (1.5 * t - 0.5 * t**3)
    if m.family == "exponential":
        return m.sill * (1.0 - np.exp(-3.0 * d / m.range_))
    return m.sill * (1.0 - np.exp(-3.0 * (d / m.range_) ** 2))


def parse_model(text: str) -> AnisoModel:
    """Parse a "family:R:beta[:theta:b]" model specification string."""
    parts = text.strip().split(":")
    if len(parts) not in (3, 5):
        raise InputError(
            f"model spec {text!r} must be family:R:beta or family:R:beta:theta:b"
        )
    try:
        return AnisoModel(parts[0].strip().lower(), *(float(p) for p in parts[1:]))
    except ValueError as exc:
        raise InputError(f"model spec {text!r}: {exc}") from None
