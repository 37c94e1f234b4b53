"""Exception types raised across the package: one class per kind of fault, and the scalar input rules."""

import math
import numbers

import numpy as np


class SnakesimError(Exception):
    """Base class for all snakesim errors."""


class ZeroLengthEdge(SnakesimError):
    """Two consecutive polyline vertices coincide."""


class NonPositiveWeight(SnakesimError):
    """A vertex weight is missing, zero, negative or not finite."""


class ShapeMismatch(SnakesimError):
    """Arrays that must agree in size or layout (shapes, weights, frames, matrices) do not."""


class InvalidAnisotropy(SnakesimError):
    """Anisotropy ratio outside (0, 1]."""


class InvalidParameter(SnakesimError, ValueError):
    """A scalar setting (length, count, duration, bound, power, displacement, label) is out of range."""


class EmptyInput(SnakesimError):
    """A statistic or a curve was requested from an empty collection."""


class NoConvergence(SnakesimError):
    """The per-step root solve did not reach the required residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NonFiniteLoss(SnakesimError):
    """The gait objective evaluated to NaN or infinity."""

    def __init__(self, message, gait=None):
        super().__init__(message)
        self.gait = gait


class FileFormatError(SnakesimError):
    """A data file does not match its expected format."""


def _check_count(name: str, value, minimum: int):
    """Reject a count that is not an int or numpy integer of at least `minimum`: a bool, or a float even when whole, is refused."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum):
        raise InvalidParameter(f"{name} must be >= {minimum} and an integer, got {value!r}")


def _check_real(name: str, value, error=InvalidParameter):
    """Reject a value that is not a real number (a string, None, a bool or an array), raising `error`."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")


def _check_positive(name: str, value, error=InvalidParameter):
    """Reject a length, duration, mass or other magnitude that is not a finite positive real number, raising `error`."""
    _check_real(name, value, error)
    if not 0 < value < math.inf:
        raise error(f"{name} must be finite and positive, got {value}")

