"""Exception types raised across the package."""


class LindrecError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(LindrecError):
    """Matrix argument is not square."""


class NotHermitianError(LindrecError):
    """Matrix asymmetry exceeds the rejection tolerance."""


class NonFiniteError(LindrecError):
    """Matrix argument holds a NaN or infinite entry."""


class NonPositiveDataError(LindrecError):
    """Log-log regression received non-positive data."""


class TooFewPointsError(LindrecError):
    """Regression needs at least three points."""


class CutoffTooSmallError(LindrecError):
    """Fock cutoff cannot represent the requested state accurately."""


class EpsOutOfRangeError(LindrecError):
    """Mixing strength must lie in [0, 1]."""


class DimMismatchError(LindrecError):
    """Operator or state dimensions are inconsistent."""


class NonPhysicalVectorError(LindrecError):
    """Kernel vector does not unpack to real couplings and a Hermitian rate matrix."""


class UnsupportedVariantError(LindrecError):
    """Requested closed-form data does not exist for this model variant."""


class DegenerateParamsError(LindrecError):
    """Model parameters make the construction singular."""


class DimTooLargeError(LindrecError):
    """Dense superoperator would exceed the supported size."""


class NoSteadyStateError(LindrecError):
    """Generator has no null vector within tolerance."""


class ConfigInvalidError(LindrecError):
    """Run configuration failed validation."""
