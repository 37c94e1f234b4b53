"""Exception types raised across the package."""


class SnakesimError(Exception):
    """Base class for all snakesim errors."""


class ZeroLengthEdge(SnakesimError):
    """Two consecutive polyline vertices coincide."""


class InvalidLength(SnakesimError):
    """A length (body length, edge length, duration grid) is not positive."""


class NonPositiveWeight(SnakesimError):
    """A vertex weight is zero or negative."""


class ShapeMismatch(SnakesimError):
    """Two shapes (or a shape and a weight vector) have incompatible sizes."""


class InvalidAnisotropy(SnakesimError):
    """Anisotropy ratio outside (0, 1]."""


class InvalidWeight(SnakesimError):
    """Dissipation weight is zero or negative."""


class NoConvergence(SnakesimError):
    """The per-step root solve did not reach the required residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


DegenerateJacobian = NoConvergence  # old name, kept for imports: every failed step raises NoConvergence


class InconsistentMarkerCount(SnakesimError):
    """Motion-capture frames disagree on the number of markers."""


class EmptyCurve(SnakesimError):
    """A center-of-mass curve has no samples."""


class DimensionMismatch(SnakesimError):
    """Two matrices have different shapes."""


class EmptyInput(SnakesimError):
    """A statistic was requested for an empty collection."""


class NonPositiveInput(SnakesimError):
    """An input that must be strictly positive is not."""


class NonPositiveDuration(SnakesimError):
    """A duration that must be strictly positive is not."""


class NonPositiveDisplacement(SnakesimError):
    """Performance ratios require strictly positive displacements."""


class NonFiniteLoss(SnakesimError):
    """The gait objective evaluated to NaN or infinity."""

    def __init__(self, message, gait=None):
        super().__init__(message)
        self.gait = gait


class FileFormatError(SnakesimError):
    """A data file does not match its expected format."""

