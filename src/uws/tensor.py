"""Input checks and scale-safe norms for the library's stacks.

A tensor is a float64 ``ndarray`` of order 2 (a row stack, or one
member's matrix) or order 3 (a T x r x d stack) with every extent >= 1;
:func:`as_tensor` checks and converts outside input.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


def as_real(x, what: str = "input") -> np.ndarray:
    """``x`` as a float64 array of any shape, not copied if it already is
    one.  Complex input is refused, not cut to its real part; the refusal
    names ``x`` as ``what``."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind != "c":
            return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{what} does not form a real tensor: {exc}") from exc
    raise InvalidArgumentError(f"{what} is complex ({arr.dtype}), not a real tensor")


def int_at_least(value, name: str, minimum: int) -> int:
    """``value`` as an int, refused unless it is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
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
