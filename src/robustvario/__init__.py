"""Robust directional variogram estimation on regular grids.

Matheron, Genton (Qn-based), and minimum-covariance-determinant variogram
estimators that fit several lags jointly, with a Gaussian random-field
simulator, outlier injectors, closed-form breakdown points, and a
Monte-Carlo study harness.
"""

from .breakdown import BreakdownQuery, breakdown_point
from .contamination import ContaminationSpec, contaminate
from .errors import (
    AscFormatError,
    EmptySampleError,
    EstimatorUnusableError,
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    RobustVarioError,
    SampleTooSmallError,
    SingularDataError,
    TooManyFailuresError,
)
from .estimators import (
    ESTIMATOR_IDS,
    ModConfig,
    VariogramEstimate,
    estimate_grid,
)
from .grid import (
    Direction,
    Grid,
    LagSet,
    VectorSample,
    extract_diff_vectors,
    extract_org_vectors,
    lag_differences,
)
from .ascio import AscHeader, apply_quality_mask, load_asc, save_asc, standardize
from .mcd import McdConfig, McdFit, fast_mcd, mcd_consistency_factor, reweight_mcd
from .numerics import RngStream, chisq_cdf, chisq_quantile
from .scale import qn, qn_raw
from .simfield import FieldSpec, simulate_field
from .study import (
    CorrfacResult,
    StudyResult,
    StudySpec,
    default_lag_depths,
    run_bias_rmse_study,
    run_correction_factor_study,
)
from .variomodel import AnisoModel, aniso_variogram, parse_model

__version__ = "0.1.0"
