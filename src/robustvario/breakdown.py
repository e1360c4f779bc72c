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

A query whose estimator cannot be fitted, n* <= p for the MCD ids
(``McdConfig.subset_size``) or fewer than two differences at lag h_max for
Genton, raises ``EstimatorUnusableError`` (exit status 3 in the CLI).  The
MCD rule is the one by which ``estimate_grid`` fits a sample or a ``.mod``
partition, whose largest holds n* vectors, so a query raises exactly where
the estimator fails on the one-row grid.  For
the plain MCD estimators the isolated-scenario value is only a lower bound.
The tests confirm the values by planting contamination of the critical size
at the worst position (``tests/test_breakdown.py``).

Estimators are named by their raw ids in ``ESTIMATOR_IDS`` (``mcd.org``,
``mcd.diff``, ``mcd.org.mod``, ``mcd.diff.mod``, ``genton``); "_" is
accepted for ".", so ``mcd_org`` names ``mcd.org``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EstimatorUnusableError, InputError, SampleTooSmallError
from .estimators import EstimatorKind, non_overlapping_count, parse_estimator_id
from .mcd import McdConfig

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


def _ell_star(q: BreakdownQuery, n_star: int) -> int:
    """Minimal number of disturbed vectors that breaks the estimator on
    n_star of them: n_star - k + 1 for the maximal-breakdown MCD's subset
    size k (``McdConfig().subset_size``), ceil(n_star/2) for Qn.  Raises
    ``SampleTooSmallError`` where the estimator cannot be fitted."""
    if q.estimator != "genton":
        return n_star - McdConfig().subset_size(n_star, q.p) + 1
    if n_star < 2:
        raise SampleTooSmallError(f"Qn needs at least 2 differences, got {n_star}")
    return (n_star + 1) // 2  # ceil(eps_Qn * n*) with eps_Qn = floor((n*+1)/2)/n*


def _mod_block_length(ell: int, h_max: int, m: int) -> int:
    """Minimal block length disturbing ell vectors at stride h_max + 1 + m."""
    if ell <= 1:
        return 1
    return 1 + (ell - 2) * (m + h_max + 1) + m + 1


def breakdown_point(q: BreakdownQuery) -> Fraction:
    """Exact explosion breakdown fraction for the query; raises
    ``EstimatorUnusableError`` where the estimator cannot be fitted."""
    if q.estimator == "genton" and q.scenario != "block":
        raise InputError("no closed form for Genton under isolated contamination")
    n_star = non_overlapping_count(q.n_x, q.h_max, q.m) if q.kind.mod else q.n_x - q.h_max
    try:
        ell = _ell_star(q, n_star)
    except SampleTooSmallError as exc:
        raise EstimatorUnusableError(f"{q.estimator} cannot be fitted: {exc}") from exc
    if q.estimator == "genton":
        return max(Fraction(ell - q.h_max), Fraction(ell, 2)) / q.n_x
    if q.kind.mod:
        if q.scenario == "block":
            return Fraction(_mod_block_length(ell, q.h_max, q.m), q.n_x)
        return Fraction(ell, q.n_x)
    if q.scenario == "block":
        return Fraction(max(ell - q.h_max, 1), q.n_x)
    return Fraction(ell, (q.h_max + 1) * q.n_x)
