"""Exception types shared across the package."""


class GevreyKitError(Exception):
    """Base class for every error raised by this package."""


class VarMismatchError(GevreyKitError, ValueError):
    """A product of matrix series living in different formal variables."""


class ArityMismatchError(GevreyKitError, ValueError):
    """Multilinear tensor applied to the wrong number of vectors."""


class SingularMatrixError(GevreyKitError):
    """A matrix that must be invertible is numerically singular."""

    def __init__(self, message, norm=None, smallest_singular_value=None):
        super().__init__(message)
        self.norm = norm
        self.smallest_singular_value = smallest_singular_value


class SchemaError(GevreyKitError, ValueError):
    """A problem document violates the input schema."""


class NormalizationError(GevreyKitError):
    """The constant block cannot be removed by a shift with s(0) = 0."""


class DegenerateSpectrumError(GevreyKitError):
    """A zero eigenvalue makes the ray condition meaningless."""


class RadiiInfeasibleError(GevreyKitError):
    """No admissible majorant scale exists for the given radii."""

    def __init__(self, message, limiting_block=None, alpha_required=None):
        super().__init__(message)
        self.limiting_block = limiting_block
        self.alpha_required = alpha_required


class ResonanceError(GevreyKitError):
    """eps*k collides with an eigenvalue of the linear block."""

    def __init__(self, message, k=None, eps=None):
        super().__init__(message)
        self.k = k
        self.eps = eps


class InsufficientOrderError(GevreyKitError):
    """The requested expansion index exceeds what the truncation supports."""


class PoleObstructionError(GevreyKitError):
    """A continuation pole sits too close to the integration ray."""

    def __init__(self, message, pole=None, clearance=None):
        super().__init__(message)
        self.pole = pole
        self.clearance = clearance


class EvaluationError(GevreyKitError):
    """A special-function evaluation failed to converge."""


__all__ = [
    "GevreyKitError",
    "VarMismatchError",
    "ArityMismatchError",
    "SingularMatrixError",
    "SchemaError",
    "NormalizationError",
    "DegenerateSpectrumError",
    "RadiiInfeasibleError",
    "ResonanceError",
    "InsufficientOrderError",
    "PoleObstructionError",
    "EvaluationError",
]
