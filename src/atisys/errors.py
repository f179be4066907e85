"""Exception types raised by the toolkit.

Every error raised on a documented failure path derives from
:class:`AtisysError`, so callers (and the CLI) can distinguish data/usage
problems from conditions that merely evaluate to false.
"""


class AtisysError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(AtisysError, ValueError):
    """An argument lies outside its documented domain (tolerance, order, method)."""


class EmptyTrajectory(AtisysError):
    """A trajectory with zero samples was supplied."""


class DepthExceedsLength(AtisysError):
    """Requested window depth L exceeds the trajectory length T."""


class OutOfRange(AtisysError):
    """A restriction window leaves the trajectory's time axis [1, T]."""


class ShiftTooLarge(AtisysError):
    """Shift amount k >= T leaves no samples."""


class NonFiniteEntry(AtisysError):
    """A matrix or trajectory contains NaN or infinite entries."""


class DimensionMismatch(AtisysError):
    """Operands have inconsistent dimensions."""


class NonFiniteEvaluation(AtisysError):
    """A plant expression evaluated to NaN or an infinite value."""


class StepTooSmall(AtisysError):
    """Finite-difference step is below the numerically safe minimum."""


class Infeasible(AtisysError):
    """No affine combination matches the completion constraints."""


class AmbiguousContinuation(AtisysError):
    """The requested continuation is not unique over the solution set."""


class ExcitationDeficient(AtisysError):
    """Data fails the generalized excitation rank condition."""


class NotConverged(AtisysError):
    """Dimension increments did not stabilize within the scanned depth."""


class ZeroMatrix(AtisysError):
    """An operation requires a nonzero polynomial matrix."""


class InconsistentRepresentation(AtisysError):
    """The kernel representation defines an empty trajectory set."""


class WindowTooShort(AtisysError):
    """A window is shorter than the representation's degree allows."""
