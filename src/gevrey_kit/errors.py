"""Exception types shared across the package; each carries its values in
its message."""


class GevreyKitError(Exception):
    """Base class for every error raised by this package."""


class ArityMismatchError(GevreyKitError, ValueError):
    """Multilinear tensor applied to the wrong number of vectors."""


class SingularMatrixError(GevreyKitError):
    """A matrix that must be invertible is missing or numerically singular;
    the message gives its smallest singular value, or the residual its
    inverse left."""


class SchemaError(GevreyKitError, ValueError):
    """A problem document violates the input schema."""


class NormalizationError(GevreyKitError):
    """The constant block cannot be removed by a shift with s(0) = 0."""


class DegenerateSpectrumError(GevreyKitError):
    """A zero eigenvalue makes the ray condition meaningless."""


class ResonanceError(GevreyKitError):
    """eps*k collides with an eigenvalue of the linear block; the message
    gives eps*k and k when the spectrum shows it."""


class InsufficientOrderError(GevreyKitError):
    """The requested expansion index exceeds what the truncation supports."""


class PoleObstructionError(GevreyKitError):
    """A continuation pole sits too close to the integration ray;
    `clearance` is its distance from the integration segment."""

    def __init__(self, message, clearance=None):
        super().__init__(message)
        self.clearance = clearance


class EvaluationError(GevreyKitError):
    """A special-function evaluation failed to converge."""


__all__ = [
    "GevreyKitError",
    "ArityMismatchError",
    "SingularMatrixError",
    "SchemaError",
    "NormalizationError",
    "DegenerateSpectrumError",
    "ResonanceError",
    "InsufficientOrderError",
    "PoleObstructionError",
    "EvaluationError",
]
