"""Exception types shared by all deltaprime modules, and the input gate.

The CLI maps these onto process exit codes: invalid input -> 2,
numerical failure -> 3.

The gate checks each caller-supplied number once, where it enters a public
function, and rejects it with an InvalidInputError naming both.  A real
number is anything ``float()`` accepts but str, bytes and complex values;
``_finite`` also asks for a finite one, or a positive (finite, > 0) one.  An
array must have dtype kind b, i, u or f (``resolvent_apply`` also takes c),
so ragged, object and string arrays are rejected, and finite entries unless
its function documents otherwise.
"""

import math

import numpy as np


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


def _real(value, name: str) -> float:
    """float(value), or InvalidInputError "{name} must be a real number" unless it is one."""
    if not isinstance(value, (str, bytes, complex, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InvalidInputError(f"{name} must be a real number, got {value!r:.80}")


def _finite(value, name: str, positive: bool = False) -> float:
    """``_real(value, name)``, which must be finite, and also > 0 when ``positive``."""
    x = _real(value, name)
    if not math.isfinite(x) or positive and not x > 0:
        raise InvalidInputError(f"{name} must be {'positive' if positive else 'finite'}, got {x!r}")
    return x


def _array(value, name: str, kinds: str = "biuf", finite: bool = True) -> np.ndarray:
    """value as an ndarray of a dtype kind in ``kinds``, finite when ``finite``: an
    iterable as a list first (a generator too), a non-iterable as a 0-d array."""
    if not isinstance(value, (np.ndarray, str, bytes)) and hasattr(value, "__iter__"):
        value = list(value)
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # ragged, or entries numpy cannot hold
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds:
        what = "a number" if "c" in kinds else "a real number"
        raise InvalidInputError(f"{name} must be {what} or an array of them, got {value!r:.80}")
    if finite and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr
