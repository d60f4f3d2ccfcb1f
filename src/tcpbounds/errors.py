"""Exception types shared across the package."""

__all__ = [
    "TcpBoundsError",
    "DimensionMismatchError",
    "DimensionLimitError",
    "NotPositiveDiagonalError",
    "NotPTensorError",
    "DegenerateQError",
    "DegenerateZError",
    "SolutionVerificationError",
    "ExactSolutionInconsistentError",
    "InvariantViolationError",
    "ProblemFormatError",
]


class TcpBoundsError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(TcpBoundsError, ValueError):
    """A vector or index does not match the tensor's order or dimension."""


class DimensionLimitError(TcpBoundsError, ValueError):
    """The instance is larger than the solver's support-enumeration limit."""


class NotPositiveDiagonalError(TcpBoundsError, ValueError):
    """A closed-form path was asked for on a tensor that is not positive diagonal."""


class NotPTensorError(TcpBoundsError):
    """A bound needs a positive P-certificate (alpha > 0) and none is available.

    Carries the NOT_P_CERTIFICATE condition: the supplied alpha estimate is
    nonpositive, so none of the two-sided bounds apply.
    """


class DegenerateQError(TcpBoundsError):
    """Relative bounds are undefined because (-q)+ is the zero vector."""


class DegenerateZError(TcpBoundsError):
    """Relative bounds are undefined because the solution is the zero vector."""


class SolutionVerificationError(TcpBoundsError):
    """A vector claimed to solve the complementarity problem fails verification."""


class ExactSolutionInconsistentError(TcpBoundsError):
    """The residual vanishes at the argmax index although u != z.

    For a genuine P-tensor with a verified solution this cannot happen; it
    does under an alpha supplied for a tensor that is not P, or where ``A (u -
    z)^{m-1}`` underflows, and ``build_report`` refuses it before any bound.
    """


class InvariantViolationError(TcpBoundsError):
    """A quantity that is provably signed under the P hypothesis came out wrong.

    Raised when a supplied ``alpha(F)`` exceeds ``||A||_inf^{1/(m-1)}``, when
    ``(u - z)_t (A (u - z)^{m-1})_t`` at the argmax index is negative, or when
    a report has a NaN field or breaks ``lb <= ub``, ``ub_new <= ub_base`` or
    ``D >= 0`` beyond round-off.
    """


class ProblemFormatError(TcpBoundsError, ValueError):
    """A problem file is syntactically or semantically malformed."""
