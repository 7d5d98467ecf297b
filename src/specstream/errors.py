"""Exception types shared across the package."""


class SpecstreamError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SpecstreamError):
    """Operands have incompatible shapes."""


class NotSymmetric(SpecstreamError):
    """Matrix is not symmetric within tolerance."""


class NotPsd(SpecstreamError):
    """Matrix has an eigenvalue below the PSD tolerance floor."""


class ZeroMatrix(SpecstreamError):
    """Operation undefined on an all-zero matrix."""


class PreconditionViolation(SpecstreamError):
    """Rank-one update vector is not orthogonal to the kernel."""


class DegenerateUpdate(SpecstreamError):
    """Rank-one update denominator is numerically zero."""


class EmptyStream(SpecstreamError):
    """Stream holds no rows."""


class EmptySketch(SpecstreamError):
    """Sketch holds no rows."""


class BarrierViolation(SpecstreamError):
    """Barrier sandwich failed beyond tolerance."""


class ConstApproxFailure(SpecstreamError):
    """Constant-factor approximation lost rank relative to the rows fed in."""


class CapacityCollapse(SpecstreamError):
    """Resparsify pass could not bring the buffer back under capacity."""


class AllZeroStream(SpecstreamError):
    """Condition number undefined: every row is zero."""


class UnknownSuite(SpecstreamError):
    """Bench suite name not registered."""


class FormatError(SpecstreamError):
    """Stream or sketch file failed to parse."""


class NonFiniteInput(SpecstreamError):
    """Stream holds a NaN or infinite value."""


class InvalidWeight(SpecstreamError):
    """Sketch weight is not finite and > 0."""
