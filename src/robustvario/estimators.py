"""Directional variogram estimators.

:func:`estimate_grid` maps a grid, its lag sets and the requested
estimator ids to the variogram 2*gammahat per lag (halve for the
semivariogram); it is the one way to run an estimator: the ``estimate``
command and every study replication call it, and it owns the MCD stream
rule.  Matheron averages squared pairwise differences; Genton squares a Qn
scale of the pairwise differences.  The multivariate estimators fit an MCD
scatter to joint lag vectors:

* "diff" uses difference vectors, whose scatter diagonal is the variogram
  directly;
* "org" uses raw-observation vectors, whose scatter is Toeplitz under weak
  stationarity, so the variogram follows from averaged diagonals via
  2*gamma(h_l) = 2*(a_0 - a_l).

The modified (".mod") variants fit only non-overlapping vectors separated by
the dependence ranges (m_x, m_y) and average the fits over the partitions
that keep more than p vectors; they are the theoretically tractable,
consistent benchmark, at the price of reduced robustness.  The reweighted
(".re") variants reweight the raw fit of the same family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, RobustVarioError, SampleTooSmallError
from .grid import (
    Direction,
    Grid,
    LagSet,
    VectorSample,
    extract_diff_vectors,
    extract_org_vectors,
    lag_differences,
)
from .mcd import McdConfig, fast_mcd, reweight_mcd
from .numerics import RngStream
from .scale import qn

__all__ = [
    "VariogramEstimate",
    "ModConfig",
    "ESTIMATOR_IDS",
    "parse_estimator_id",
    "check_request",
    "estimate_grid",
    "org_scatter_to_variogram",
    "non_overlapping_count",
]

ESTIMATOR_IDS = (
    "matheron",
    "genton",
    "mcd.org",
    "mcd.org.re",
    "mcd.diff",
    "mcd.diff.re",
    "mcd.org.mod",
    "mcd.org.mod.re",
    "mcd.diff.mod",
    "mcd.diff.mod.re",
)

_OFF_CONTAM = 2**32  # a study's contamination streams, rep + _OFF_CONTAM
_OFF_MCD = 2**40
_FAMILY_STREAM = {"org": 0, "diff": 1, "org.mod": 2, "diff.mod": 3}


@dataclass(frozen=True)
class EstimatorKind:
    id: str  # normalized estimator id, one of ESTIMATOR_IDS
    family: str  # matheron | genton | org | diff
    mod: bool = False
    reweight: bool = False

    @property
    def fit_key(self) -> str:
        """The raw MCD fit behind the id, shared by ``X`` and ``X.re``."""
        return self.family + (".mod" if self.mod else "")


def parse_estimator_id(estimator_id: str) -> EstimatorKind:
    eid = estimator_id.strip().lower()
    if eid not in ESTIMATOR_IDS:
        raise InputError(f"unknown estimator id {estimator_id!r}; known: {ESTIMATOR_IDS}")
    if eid in ("matheron", "genton"):
        return EstimatorKind(eid, eid)
    parts = eid.split(".")
    return EstimatorKind(eid, family=parts[1], mod="mod" in parts, reweight="re" in parts)


@dataclass
class VariogramEstimate:
    """Per-lag 2*gammahat values with bookkeeping."""

    estimator_id: str
    direction: Direction
    lags: LagSet
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.counts = np.asarray(self.counts, dtype=int)
        if self.values.shape != (self.lags.h_max,) or self.counts.shape != (self.lags.h_max,):
            raise ValueError("values/counts must have one entry per lag")


@dataclass(frozen=True)
class ModConfig:
    """Partitioning for the modified estimators.

    ``m_x``/``m_y`` are the dependence ranges along x and y.  Vectors within a
    chain are separated by the in-direction range (max(m_x, m_y) on the
    diagonals).  Chains are thinned by chain id: every (m_y + 1)-th row for
    EW, every (m_x + 1)-th column for SN, and every (m_x + m_y + 1)-th
    diagonal for SWNE/SENW, the spacing at which any two cells on distinct
    kept chains have |dx| > m_x or |dy| > m_y.  A partition is one choice of
    (chain offset, in-chain start offset); its vectors are mutually
    independent under (m_x, m_y)-dependence.  A partition is fitted when it
    keeps more than p vectors (h_max + 1 for org, h_max for diff), the
    rule of every MCD sample (``McdConfig.subset_size``) and of
    ``breakdown``; the per-lag estimates of the fitted partitions are
    averaged with equal weights.
    """

    m_x: int
    m_y: int

    def __post_init__(self):
        if self.m_x < 0 or self.m_y < 0:
            raise InputError("dependence ranges must be >= 0")


def check_request(estimator_ids, directions, mod: ModConfig | None) -> tuple[str, ...]:
    """The normalized estimator ids of a request.  Raises InputError on an
    unknown id, on an id or direction requested twice (after normalization)
    and on a ``.mod`` id without ``mod``."""
    kinds = [parse_estimator_id(eid) for eid in estimator_ids]
    ids = tuple(kind.id for kind in kinds)
    for name, items in (("estimator", ids), ("direction", tuple(directions))):
        if len(set(items)) < len(items):
            raise InputError(f"each {name} may be requested once, got {items}")
    for kind in kinds:
        if kind.mod and mod is None:
            raise InputError(f"estimator {kind.id} needs dependence ranges m_x, m_y (--mx/--my)")
    return ids


def estimate_grid(
    g: Grid,
    lag_sets: list[LagSet],
    estimator_ids,
    *,
    seed: int = 0,
    rep: int = 0,
    mcdcfg: McdConfig = McdConfig(),
    mod: ModConfig | None = None,
) -> dict:
    """Every requested id on every lag set of one grid.

    Returns {(id, direction value): VariogramEstimate, or the
    RobustVarioError it raised}, directions in the order of ``lag_sets``
    and ids in request order within each.  ``X`` and ``X.re`` share their
    raw MCD fits.  Stream rule: with d the direction's index in
    :class:`Direction` (ew 0, sn 1, swne 2, senw 3), the MCD searches of
    family j (org, diff, org.mod, diff.mod) draw from stream
    rep + 2^32 + (4*d + j + 1)*2^40 of ``seed``, clear of the study's field
    (rep) and contamination (rep + 2^32) streams; a ``.mod`` partition i
    draws from that stream's child i.  A search of more than 600 rows
    draws from its stream first the permutation that forms its groups, then
    each group's seeds in group order (``mcd.fast_mcd``).  So an estimate
    depends on neither the other ids nor the other directions requested.
    """
    ids = check_request(estimator_ids, [lags.direction for lags in lag_sets], mod)
    kinds = [parse_estimator_id(eid) for eid in ids]
    out = {}
    for lags in lag_sets:
        d = list(Direction).index(lags.direction)
        rng = RngStream(seed, rep + _OFF_CONTAM + d * len(_FAMILY_STREAM) * _OFF_MCD)
        fits: dict = {}
        for kind in kinds:
            try:
                result = _estimate(g, lags, kind, rng, mcdcfg, mod, fits)
            except RobustVarioError as exc:
                result = exc
            out[(kind.id, lags.direction.value)] = result
    return out


def _estimate(
    g: Grid,
    lags: LagSet,
    kind: EstimatorKind,
    rng: RngStream,
    mcdcfg: McdConfig,
    mod: ModConfig | None,
    fits: dict,
) -> VariogramEstimate:
    """One id on one lag set.  Each MCD family draws from its own child of
    ``rng`` and keeps its raw fits, or the error their search raised, in
    ``fits``; the values are the per-lag estimates, optionally reweighted,
    averaged over the fitted samples."""
    if kind.family in ("matheron", "genton"):
        return _pairwise_estimate(g, lags, kind.family)
    if kind.fit_key not in fits:
        stream = rng.child((_FAMILY_STREAM[kind.fit_key] + 1) * _OFF_MCD)
        try:
            if kind.mod:
                fits[kind.fit_key] = _mod_raw_fits(g, lags, kind.family, mod, mcdcfg, stream)
            else:
                rows = _extract(kind.family, g, lags).rows
                fits[kind.fit_key] = [(rows, fast_mcd(rows, mcdcfg, stream))]
        except RobustVarioError as exc:
            fits[kind.fit_key] = exc
    samples = fits[kind.fit_key]
    if isinstance(samples, RobustVarioError):
        raise samples
    per_sample = []
    for rows, raw in samples:
        fit = reweight_mcd(rows, raw) if kind.reweight else raw
        if kind.family == "org":
            per_sample.append(org_scatter_to_variogram(fit.sigma))
        else:
            per_sample.append(np.diag(fit.sigma).copy())
    counts = np.full(lags.h_max, sum(rows.shape[0] for rows, _ in samples))
    return VariogramEstimate(kind.id, lags.direction, lags, np.mean(per_sample, axis=0), counts)


def _pairwise_estimate(g: Grid, lags: LagSet, family: str) -> VariogramEstimate:
    """Each lag on its own difference set: Matheron takes the mean of the
    squared differences, Genton the squared Qn scale."""
    values, counts = [], []
    for lag in lags.lag_vectors:
        diffs = lag_differences(g, lag)
        values.append(float(np.mean(diffs**2)) if family == "matheron" else qn(diffs) ** 2)
        counts.append(diffs.size)
    return VariogramEstimate(family, lags.direction, lags, values, counts)


def org_scatter_to_variogram(sigma: np.ndarray) -> np.ndarray:
    """Variogram (2*gammahat per lag) from a (h_max+1)-dim scatter of raw
    observation vectors: average the main and each minor diagonal of the
    Toeplitz-structured matrix, then 2*gamma(h_l) = 2*(a_0 - a_l)."""
    sigma = np.asarray(sigma, dtype=float)
    p, a0 = len(sigma), float(np.trace(sigma)) / len(sigma)
    return np.array([2.0 * (a0 - np.trace(sigma, l) / (p - l)) for l in range(1, p)])


def _extract(family: str, g: Grid, lags: LagSet) -> VectorSample:
    return (extract_org_vectors if family == "org" else extract_diff_vectors)(g, lags)


def non_overlapping_count(n_x: int, h_max: int, m: int) -> int:
    """Vectors per chain of length n_x at stride h_max + 1 + m, offset 0."""
    if n_x < h_max + 1:
        return 0
    return (n_x - h_max - 1) // (h_max + 1 + m) + 1


def _mod_ranges(direction: Direction, mod: ModConfig) -> tuple[int, int]:
    """(in-chain dependence range, chain-id spacing) for the direction."""
    if direction is Direction.EW:
        return mod.m_x, mod.m_y + 1
    if direction is Direction.SN:
        return mod.m_y, mod.m_x + 1
    return max(mod.m_x, mod.m_y), mod.m_x + mod.m_y + 1


def _chain_layout(coords: np.ndarray, g: Grid, direction: Direction):
    """For 1-based base cells (x, y): the 0-based chain id, the position
    along the chain (steps back to the grid edge) and the scan-order index
    of the chain's first cell.  Chains are the maximal cell runs along the
    direction generator; their ids are y (EW), x (SN), x - y (SWNE) and
    x + y (SENW), shifted to start at 0."""
    x, y = coords[:, 0], coords[:, 1]
    if direction is Direction.EW:
        chain, pos = y - 1, x - 1
    elif direction is Direction.SN:
        chain, pos = x - 1, y - 1
    elif direction is Direction.SWNE:
        chain, pos = x - y + g.ny - 1, np.minimum(x, y) - 1
    else:
        chain, pos = x + y - 2, np.minimum(x - 1, g.ny - y)
    gx, gy = direction.generator
    start = (y - 1 - pos * gy) * g.nx + (x - 1 - pos * gx)
    return chain, pos, start


def _partitions(sample: VectorSample, g: Grid, lags: LagSet, mod: ModConfig) -> list[np.ndarray]:
    """Row indices of every partition, in partition-number order.

    Partition c * stride + s holds the rows at position = s (mod stride) on
    the chains with id = c (mod spacing), ordered by (chain start in scan
    order, position).
    """
    m_par, spacing = _mod_ranges(lags.direction, mod)
    stride = lags.h_max + 1 + m_par
    chain, pos, start = _chain_layout(sample.origin_coords, g, lags.direction)
    label = (chain % spacing) * stride + pos % stride
    order = np.lexsort((pos, start, label))
    bounds = np.searchsorted(label[order], np.arange(1, spacing * stride))
    return np.split(order, bounds)


def _mod_raw_fits(
    g: Grid, lags: LagSet, family: str, mod: ModConfig, mcdcfg: McdConfig, rng: RngStream
) -> list:
    """Raw fits of the partitions that ``McdConfig.subset_size`` admits;
    partition i draws from ``rng.child(i)``, numbered from 1.  Raises
    ``SampleTooSmallError`` when it admits none."""
    sample = _extract(family, g, lags)
    parts = _partitions(sample, g, lags, mod)
    fits = []
    for number, idx in enumerate(parts, start=1):
        rows = sample.rows[idx]
        try:
            mcdcfg.subset_size(*rows.shape)
        except SampleTooSmallError:
            continue
        fits.append((rows, fast_mcd(rows, mcdcfg, rng.child(number))))
    if not fits:
        raise SampleTooSmallError(
            f"no partition keeps more than p={sample.rows.shape[1]} vectors, the largest "
            f"{max(idx.size for idx in parts)} (h_max={lags.h_max}, m=({mod.m_x},{mod.m_y}), "
            f"grid {g.nx}x{g.ny})"
        )
    return fits
