"""Closed-form finite-sample explosion breakdown points for directional
variogram estimators on a one-row grid (n_y = 1).

Both contamination scenarios are covered: a single contiguous outlier block,
and isolated outliers.  All values are exact rationals.  Conventions, with
n_x the series length, h_max the lag depth, m the dependence range and
p = h_max + 1 (org vectors) or h_max (difference vectors):

* modified estimators use n* = floor((n_x - h_max - 1)/(h_max + 1 + m)) + 1
  non-overlapping vectors; ell* = n* - floor((n* + p + 1)/2) + 1 of them must
  be disturbed, and a block needs l_ell = 1 + (ell-2)(m + h_max + 1) + m + 1
  cells to disturb ell > 1 of them (a single vector needs one cell);
* the plain estimators use n* = n_x - h_max overlapping vectors; a block of
  l cells disturbs up to h_max + l of them, an isolated outlier up to
  h_max + 1;
* the Genton estimator at lag h inherits the Qn breakdown
  floor((n*+1)/2)/n* over its n* = n_x - h differences.

For the plain MCD estimators the isolated-scenario value is only a lower
bound.  The tests confirm the values by planting contamination of the
critical size at the worst position (``tests/test_breakdown.py``).

Estimators are named by their raw ids in ``ESTIMATOR_IDS`` (``mcd.org``,
``mcd.diff``, ``mcd.org.mod``, ``mcd.diff.mod``, ``genton``); "_" is
accepted for ".", so ``mcd_org`` names ``mcd.org``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EstimatorUnusableError, InputError
from .estimators import EstimatorKind, non_overlapping_count, parse_estimator_id

__all__ = ["BreakdownQuery", "breakdown_point"]


@dataclass(frozen=True)
class BreakdownQuery:
    scenario: str  # "block" or "isolated"
    estimator: str
    n_x: int
    h_max: int
    m: int = 0

    def __post_init__(self):
        if self.scenario not in ("block", "isolated"):
            raise InputError(f"scenario must be 'block' or 'isolated', got {self.scenario!r}")
        kind = parse_estimator_id(self.estimator.replace("_", "."))
        if kind.reweight or kind.family == "matheron":
            raise InputError(f"no closed-form breakdown point for {kind.id}")
        object.__setattr__(self, "estimator", kind.id)
        if self.h_max < 1 or self.n_x <= self.h_max:
            raise InputError(f"need n_x > h_max >= 1, got n_x={self.n_x}, h_max={self.h_max}")
        if self.m < 0:
            raise InputError(f"dependence range must be >= 0, got {self.m}")

    @property
    def kind(self) -> EstimatorKind:
        return parse_estimator_id(self.estimator)

    @property
    def p(self) -> int:
        return self.h_max + 1 if self.kind.family == "org" else self.h_max


def _ell_star(n_star: int, p: int) -> int:
    """Minimal number of disturbed vectors that breaks the maximal-breakdown
    MCD with k = floor((n+p+1)/2) on n_star vectors."""
    return n_star - (n_star + p + 1) // 2 + 1


def _mod_block_length(ell: int, h_max: int, m: int) -> int:
    """Minimal block length disturbing ell vectors at stride h_max + 1 + m."""
    if ell <= 1:
        return 1
    return 1 + (ell - 2) * (m + h_max + 1) + m + 1


def breakdown_point(q: BreakdownQuery) -> Fraction:
    """Exact explosion breakdown fraction for the query."""
    if q.estimator == "genton":
        if q.scenario != "block":
            raise InputError("no closed form for Genton under isolated contamination")
        n_star = q.n_x - q.h_max
        need = (n_star + 1) // 2  # ceil(eps_Qn * n*) with eps_Qn = floor((n*+1)/2)/n*
        l_min = max(Fraction(need - q.h_max), Fraction(need, 2))
        return l_min / q.n_x

    if q.kind.mod:
        n_star = non_overlapping_count(q.n_x, q.h_max, q.m)
        if n_star <= q.p:
            raise EstimatorUnusableError(
                f"only {n_star} non-overlapping vectors for dimension {q.p}; "
                "the modified estimator cannot be used"
            )
        ell = _ell_star(n_star, q.p)
        if q.scenario == "block":
            return Fraction(_mod_block_length(ell, q.h_max, q.m), q.n_x)
        return Fraction(ell, q.n_x)

    n_star = q.n_x - q.h_max
    ell = _ell_star(n_star, q.p)
    if q.scenario == "block":
        return Fraction(max(ell - q.h_max, 1), q.n_x)
    return Fraction(ell, (q.h_max + 1) * q.n_x)
