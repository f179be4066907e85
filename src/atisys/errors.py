"""Exception types raised by the toolkit, and the readers of its counts and tolerances.

Every error raised on a documented failure path derives from
:class:`AtisysError`, so callers (and the CLI) can distinguish data/usage
problems from conditions that merely evaluate to false.

A count (depth, order, length, horizon, degree, shift, variable count,
coefficient power) is read by :func:`_count`: a Python or numpy integer, not
a bool, of at least its minimum.  A tolerance (rank or residual tolerance)
is read by :func:`check_tolerance`: a real number, not a bool, positive and
finite.  Anything else is an :class:`InvalidArgument` (a FormatError when a
file holds it).  Upper bounds set by the data keep their own types
(:class:`DepthExceedsLength`, :class:`OutOfRange`, :class:`ShiftTooLarge`,
:class:`DimensionMismatch`), and division by the zero polynomial is a
:class:`ZeroDivisor`.  Out of scope: arguments that must be a model,
trajectory or kernel (``lift(2.5)`` raises AttributeError), the indices of
``PolyMatrix.entry``, which index as Python does, and the size of a valid
count (``PolyMatrix.zeros(10**9, 1)`` builds 10**9 rows).
"""

from math import inf
from numbers import Integral, Real


class AtisysError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(AtisysError, ValueError):
    """An argument lies outside its documented domain (tolerance, order, method)."""


class ZeroDivisor(AtisysError, ZeroDivisionError):
    """A polynomial is divided by the zero polynomial."""


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


def _count(value, name: str, minimum: int = 0, error: type = InvalidArgument) -> int:
    """``value`` as a plain int if it is an integer (not a bool) of at least ``minimum``."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise error(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def check_tolerance(tol, name: str = "tolerance"):
    """Return ``tol`` if it is a real number (not a bool), positive and finite."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < inf:
        raise InvalidArgument(f"{name} must be positive and finite, got {tol!r}")
    return tol
