"""Exception types shared by all deltaprime modules.

The CLI maps these onto process exit codes: invalid input -> 2,
numerical failure -> 3.
"""


class DeltaPrimeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DeltaPrimeError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class NotResonantError(InvalidInputError):
    """An operation requiring a resonant coupling constant got a non-resonant one."""


class NumericalFailureError(DeltaPrimeError, RuntimeError):
    """A numerical procedure broke down (non-finite state, singular system, ...)."""


class NearTangencyWarning(UserWarning):
    """The mismatch function dips towards zero without a sign change.

    |g| has no positive local minimum, so a dip proves at least two roots
    between its scan neighbours, which the scan step is too coarse to separate.
    """
