"""Exception types shared across the package.

Two broad families matter to callers (and to the CLI exit codes): input
problems (bad files, bad parameter strings) and numerical failures
(degenerate samples, non-positive-definite matrices).
"""


class RobustVarioError(Exception):
    """Base class for all package-specific errors."""


class InputError(RobustVarioError, ValueError):
    """Malformed user input: files, model strings, flag values."""


class AscFormatError(InputError):
    """ESRI ASCII grid file does not conform to the expected layout."""


class NumericalError(RobustVarioError, ValueError):
    """A computation cannot proceed for numerical/degeneracy reasons."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite is not."""


class EmptySampleError(NumericalError):
    """No observations/vectors/pairs survive extraction or masking."""


class SampleTooSmallError(NumericalError):
    """A sample is below the minimum size an estimator needs."""


class SingularDataError(NumericalError):
    """All candidate subsets are singular, or a required fit is singular."""


class EstimatorUnusableError(NumericalError):
    """A breakdown query is outside the domain where the estimator exists."""


class TooManyFailuresError(NumericalError):
    """More than the tolerated share of Monte-Carlo replications failed."""
