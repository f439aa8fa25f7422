"""Input checks and scale-safe norms for the library's stacks.

What a numeric argument may be is decided here: a number is an int or a
float, numpy's included (:func:`real_in`, :func:`int_at_least`, and
:func:`as_real` for an array's dtype); nothing else is parsed as one.

A tensor is a float64 ``ndarray`` of order 2 (a row stack, or one
member's matrix) or order 3 (a T x r x d stack) with every extent >= 1;
:func:`as_tensor` checks and converts outside input.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InvalidArgumentError


#: Ranges for :func:`real_in`: a test of the float and the words its refusal states.
POSITIVE = (lambda v: v > 0, "be positive and finite")
NONNEGATIVE = (lambda v: v >= 0, "be finite and >= 0")


def as_real(x, what: str = "input") -> np.ndarray:
    """``x`` as a float64 array of any shape, not copied if it already is
    one.  Only int and float dtypes are taken: a complex, bool, string or
    object array is refused, not cut or parsed, naming ``x`` as ``what``."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{what} does not form a real tensor: {exc}") from exc
    if arr.dtype.kind == "c":
        raise InvalidArgumentError(f"{what} is complex ({arr.dtype}), not a real tensor")
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{what} does not form a real tensor: its dtype is {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def real_in(value, name: str, accept, requirement: str) -> float:
    """``value`` as a plain float, refused with InvalidArgumentError naming
    ``name`` unless it is an int or float (numpy's, not a bool), finite as
    a float64, for which ``accept`` holds; ``requirement`` words that range."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(float(value)) and accept(float(value)):
                return float(value)
    raise InvalidArgumentError(f"{name} must {requirement}, got {value!r}")


def int_at_least(value, name: str, minimum: int) -> int:
    """``value`` as a plain int, refused with InvalidArgumentError naming
    ``name`` unless it is an int (numpy's, not a bool) from ``minimum`` to
    2**63 - 1, the largest that numpy's sizes, indices and seeds hold."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
    if value > 2**63 - 1:
        raise InvalidArgumentError(f"{name} must be < 2**63, got {value}")
    return int(value)


def as_tensor(x) -> np.ndarray:
    """``x`` as a float64 array (:func:`as_real`), checked to have order 2
    or 3 and every extent >= 1.  An input that already is such an array
    is returned as is, not copied."""
    arr = as_real(x)
    if arr.ndim not in (2, 3):
        raise InvalidArgumentError(f"tensor order must be 2 or 3, got {arr.ndim}")
    if 0 in arr.shape:
        raise InvalidArgumentError(f"all extents must be >= 1, got {arr.shape}")
    return arr


def peak_exponent(a: np.ndarray) -> int:
    """The least e with max |a| < 2**e (0 for an all-zero array).
    Dividing by 2**e is exact for every entry that stays normal, and
    leaves squares and their sums in range."""
    return int(np.frexp(max(a.max(), -a.min()))[1])


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries, at any scale: the
    entries are divided by ``2**peak_exponent(t)`` before squaring and the
    norm multiplied back, so the result equals ``np.linalg.norm(t)`` bit
    for bit wherever that neither overflows nor underflows."""
    t = as_tensor(t)
    e = peak_exponent(t)
    return float(np.ldexp(np.linalg.norm(np.ldexp(t, -e)), e))
