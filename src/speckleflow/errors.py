"""Exception types shared across the package."""


class SpeckleFlowError(Exception):
    """Base class for all errors raised by speckleflow."""


class DomainError(SpeckleFlowError):
    """An argument lies outside the operation's admissible domain."""


class ConstantField(SpeckleFlowError):
    """A field that must have nonzero dynamic range is constant."""


class ShapeMismatch(SpeckleFlowError):
    """Grid extents of the operands do not match."""


class GridTooSmall(SpeckleFlowError):
    """A resampling step would produce a grid below the minimum extent."""


class FitError(SpeckleFlowError):
    """Geometric fit failed (too few or degenerate points)."""


class NotConverged(SpeckleFlowError):
    """Iterative solver hit its iteration cap before reaching tolerance, or
    gave up early because its rate of convergence could not reach it."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotSPD(SpeckleFlowError):
    """A matrix expected to be symmetric positive definite is not."""


class SingularSystem(SpeckleFlowError):
    """The elastic boundary conditions leave a rigid motion free."""


class OutOfMemory(SpeckleFlowError):
    """A sparse factorization could not allocate its factor."""


class SpecError(SpeckleFlowError):
    """A phantom specification violates its geometric constraints."""


class FormatError(SpeckleFlowError):
    """A file does not conform to its binary/text format.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
