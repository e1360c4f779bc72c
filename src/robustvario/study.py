"""Monte-Carlo study harness.

Two studies are provided.  The correction-factor study runs estimators on
clean simulated fields and inverts the mean semivariogram ratio over all
lags but the largest,

    c_opt = ( (1/divisor) * sum_{i<h_max} mean_r  gammahat_r(h_i)/gamma(h_i) )^{-1},

yielding a multiplicative finite-sample bias correction per estimator and
direction.  The bias/rMSE study simulates (optionally contaminated) fields,
applies optional correction factors, and reports per-lag bias and root mean
squared error on the semivariogram scale with Monte-Carlo standard errors.
Both write their rows as CSV through :func:`robustvario.ascio.write_csv`,
one column per row field, so each line shows its successful and failed
replications (``n_ok``, ``n_fail``); :func:`load_corrfac_csv` reads a
correction-factor CSV back for the bias/rMSE study.

Reproducibility: replication r draws its field from stream r, its
contamination from stream r + 2^32, and its estimates from
:func:`robustvario.estimators.estimate_grid` with rep = r, whose stream
rule keeps an (estimator, direction) row independent of which other ids or
directions are requested.  The ``estimate`` command uses the same call with
rep = 0.  Results are reduced in fixed replication order, so reruns and
parallel runs are bit-identical.  The fields come from the FFT of
:func:`robustvario.simfield.simulate_field`, which does not call BLAS, so
they do not depend on the BLAS thread count; CI checks that the study and
``estimate`` outputs do not either.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from .ascio import write_csv
from .contamination import ContaminationSpec, contaminate
from .errors import InputError, NumericalError, RobustVarioError, TooManyFailuresError
from .estimators import _OFF_CONTAM, ModConfig, check_request, estimate_grid
from .grid import Direction, LagSet
from .mcd import McdConfig
from .numerics import RngStream
from .simfield import FieldSpec, simulate_field
from .variomodel import aniso_variogram

__all__ = [
    "StudySpec",
    "CorrfacRow",
    "CorrfacResult",
    "StudyRow",
    "StudyResult",
    "run_correction_factor_study",
    "run_bias_rmse_study",
    "default_lag_depths",
    "load_corrfac_csv",
]

_MAX_FAILURE_SHARE = 0.01

DEFAULT_DIRECTIONS = (Direction.EW, Direction.SN, Direction.SWNE, Direction.SENW)


def default_lag_depths(h_axis: int = 7, h_diag: int = 5) -> dict[Direction, int]:
    """Lag depths per direction: one value for the axis-parallel directions,
    a smaller one for the diagonals (whose lag steps are sqrt(2) long)."""
    return {
        Direction.EW: h_axis,
        Direction.SN: h_axis,
        Direction.SWNE: h_diag,
        Direction.SENW: h_diag,
    }


@dataclass(frozen=True)
class StudySpec:
    field: FieldSpec
    estimators: tuple[str, ...]
    lag_depths: dict[Direction, int] = None  # type: ignore[assignment]
    directions: tuple[Direction, ...] = DEFAULT_DIRECTIONS
    contamination: ContaminationSpec | None = None
    replications: int = 1000
    base_seed: int = 0
    corrfac_divisor: str = "h_max"  # printed-formula default; "h_max_minus_1" selectable
    correction_factors: dict[tuple[str, str], float] | None = None
    mcd: McdConfig = field(default_factory=McdConfig)
    mod: ModConfig | None = None
    n_jobs: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(
            self, "estimators", check_request(self.estimators, self.directions, self.mod)
        )
        if self.replications < 2:
            raise InputError(f"need at least 2 replications, got {self.replications}")
        if self.n_jobs is not None and self.n_jobs < 1:
            raise InputError(f"n_jobs must be >= 1 (None for all cores), got {self.n_jobs}")
        if self.corrfac_divisor not in ("h_max", "h_max_minus_1"):
            raise InputError("corrfac_divisor must be 'h_max' or 'h_max_minus_1'")
        if self.lag_depths is None:
            object.__setattr__(self, "lag_depths", default_lag_depths())
        missing = [d for d in self.directions if d not in self.lag_depths]
        if missing:
            raise InputError(f"no lag depth for directions {missing}")
        if self.correction_factors is not None:
            missing = [(eid, d.value) for eid in self.estimators for d in self.directions
                       if (eid, d.value) not in self.correction_factors]
            if missing:
                raise InputError(f"no correction factor for (estimator, direction) {missing}")
            unusable = {key: c for key, c in self.correction_factors.items()
                        if not 0.0 < c < math.inf}
            if unusable:
                raise InputError(f"correction factors must be finite and positive, got {unusable}")

    def lag_set(self, direction: Direction) -> LagSet:
        return LagSet(direction, self.lag_depths[direction])

    def true_semivariogram(self, direction: Direction) -> np.ndarray:
        return 0.5 * aniso_variogram(self.field.model, self.lag_set(direction).lag_vectors)


def _replicate(spec: StudySpec, rep: int) -> dict:
    """The 2*gammahat values of every requested (estimator, direction) for
    one replication; a failed estimate is recorded as None."""
    grid = simulate_field(spec.field, RngStream(spec.base_seed, rep))
    if spec.contamination is not None:
        grid, _ = contaminate(
            grid, spec.contamination, RngStream(spec.base_seed, rep + _OFF_CONTAM)
        )
    estimates = estimate_grid(
        grid, [spec.lag_set(d) for d in spec.directions], spec.estimators,
        seed=spec.base_seed, rep=rep, mcdcfg=spec.mcd, mod=spec.mod,
    )
    return {
        key: None if isinstance(est, RobustVarioError) else est.values
        for key, est in estimates.items()
    }


def _collect(spec: StudySpec) -> list[dict]:
    """Run all replications (in parallel when configured) and return their
    per-replication dicts in replication order."""
    n_jobs = spec.n_jobs or os.cpu_count() or 1
    run = functools.partial(_replicate, spec)
    reps = range(spec.replications)
    if n_jobs == 1 or spec.replications < 8:
        return [run(rep) for rep in reps]
    method = "fork" if "fork" in get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=n_jobs, mp_context=get_context(method)) as pool:
        return list(pool.map(run, reps, chunksize=max(1, spec.replications // (4 * n_jobs))))


def _successes(spec: StudySpec, outs: list[dict]):
    """Per requested (estimator, direction): the id, the direction, its true
    semivariogram, the stacked rows of the successful replications and the
    failure count.  Raises when failures exceed the tolerated share."""
    for eid in spec.estimators:
        for direction in spec.directions:
            key = (eid, direction.value)
            ok = [out[key] for out in outs if out[key] is not None]
            n_fail = spec.replications - len(ok)
            if n_fail > _MAX_FAILURE_SHARE * spec.replications:
                raise TooManyFailuresError(
                    f"{eid}/{direction.value}: {n_fail}/{spec.replications} replications "
                    f"failed (> {_MAX_FAILURE_SHARE:.0%})"
                )
            yield eid, direction, spec.true_semivariogram(direction), np.stack(ok), n_fail


@dataclass(frozen=True)
class CorrfacRow:
    estimator: str
    direction: str
    c_opt: float
    se: float
    n_ok: int
    n_fail: int


@dataclass
class CorrfacResult:
    rows: list[CorrfacRow]

    def to_csv(self, path):
        write_csv(path, [f.name for f in fields(CorrfacRow)], map(astuple, self.rows))


def load_corrfac_csv(path) -> dict[tuple[str, str], float]:
    """{(estimator, direction): c_opt} from a correction-factor CSV such as
    :meth:`CorrfacResult.to_csv` writes; only the first three columns are read."""
    factors = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["estimator", "direction", "c_opt"]:
            raise InputError(f"{path}: not a correction-factor CSV")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) < 3:
                raise InputError(f"{path}: line {lineno}: expected estimator,direction,c_opt")
            key = (parts[0], parts[1])
            if key in factors:
                raise InputError(f"{path}: line {lineno}: repeated row for {key}")
            try:
                factors[key] = float(parts[2])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: bad c_opt {parts[2]!r}") from None
    return factors


def run_correction_factor_study(spec: StudySpec) -> CorrfacResult:
    """Simulated finite-sample correction factors on clean data.

    The ratio sum over lags 1..h_max-1 is divided by ``spec.corrfac_divisor``
    (the printed-formula reading divides the (h_max-1)-term sum by h_max; the
    textual reading averages, i.e. divides by h_max-1) and the mean over
    replications is inverted.
    """
    if spec.contamination is not None:
        raise InputError("correction factors are defined on clean data")
    for direction in spec.directions:
        if spec.lag_depths[direction] < 2:
            raise InputError("correction factors need h_max >= 2")
    rows = []
    for eid, direction, gamma_true, values, n_fail in _successes(spec, _collect(spec)):
        h = spec.lag_depths[direction]
        divisor = h if spec.corrfac_divisor == "h_max" else h - 1
        ratios = 0.5 * values[:, : h - 1] / gamma_true[: h - 1]
        stat = ratios.sum(axis=1) / divisor
        mean = float(np.mean(stat))
        se_mean = float(np.std(stat, ddof=1) / math.sqrt(stat.size))
        rows.append(
            CorrfacRow(
                estimator=eid,
                direction=direction.value,
                c_opt=1.0 / mean,
                se=se_mean / mean**2,
                n_ok=stat.size,
                n_fail=n_fail,
            )
        )
    return CorrfacResult(rows)


@dataclass(frozen=True)
class StudyRow:
    estimator: str
    direction: str
    lag: int
    bias: float
    rmse: float
    se_bias: float
    se_rmse: float
    n_ok: int
    n_fail: int


@dataclass
class StudyResult:
    rows: list[StudyRow]

    def to_csv(self, path):
        write_csv(path, [f.name for f in fields(StudyRow)], map(astuple, self.rows))


def run_bias_rmse_study(spec: StudySpec) -> StudyResult:
    """Per-lag bias and rMSE (semivariogram scale) under the spec's scenario,
    applying ``spec.correction_factors`` when provided (the spec holds one
    for every requested estimator and direction)."""
    factors = spec.correction_factors
    rows = []
    for eid, direction, gamma_true, values, n_fail in _successes(spec, _collect(spec)):
        c = 1.0 if factors is None else factors[(eid, direction.value)]
        errors = 0.5 * c * values - gamma_true
        n_ok = values.shape[0]
        for lag_idx in range(values.shape[1]):
            e = errors[:, lag_idx]
            bias = float(np.mean(e))
            rmse = float(np.sqrt(np.mean(e**2)))
            var_pop = float(np.var(e))
            if not abs(rmse**2 - (bias**2 + var_pop)) <= 1e-10 * max(1.0, rmse**2):
                raise NumericalError(
                    f"{eid}/{direction.value} lag {lag_idx + 1}: rMSE^2 = {rmse**2!r} "
                    f"differs from bias^2 + variance = {bias**2 + var_pop!r}"
                )
            se_bias = float(np.std(e, ddof=1) / math.sqrt(n_ok))
            se_rmse = (
                float(np.std(e**2, ddof=1) / (2.0 * rmse * math.sqrt(n_ok)))
                if rmse > 0.0
                else 0.0
            )
            rows.append(
                StudyRow(
                    estimator=eid,
                    direction=direction.value,
                    lag=lag_idx + 1,
                    bias=bias,
                    rmse=rmse,
                    se_bias=se_bias,
                    se_rmse=se_rmse,
                    n_ok=n_ok,
                    n_fail=n_fail,
                )
            )
    return StudyResult(rows)
