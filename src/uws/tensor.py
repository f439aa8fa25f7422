"""Input checks and scale-safe norms for the library's stacks.

What a numeric argument may be is decided here: a number is an int or a
float, numpy's included (:func:`real_in`, :func:`int_at_least`, and
:func:`as_real` for an array's dtype); nothing else is parsed as one.  An
array argument's entries must each be finite, and where the argument has
a range, in it (:func:`finite_entries`); a choice must be one of its set
(:func:`one_of`), and a symmetric operator is decided by
:func:`symmetric_operator`.  The command line's flags ask the same
functions, so a value is refused alike as a flag and as an argument.

A tensor is a float64 ``ndarray`` of order 2 (a row stack, or one
member's matrix) or order 3 (a T x r x d stack) with every extent >= 1;
:func:`as_tensor` checks and converts outside input.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InvalidArgumentError


#: Ranges for :func:`real_in` and :func:`finite_entries`: a test of a float,
#: or of each entry of an array, and the words its refusal states.
POSITIVE = (lambda v: v > 0, "be positive and finite")
NONNEGATIVE = (lambda v: v >= 0, "be finite and >= 0")
OPEN_UNIT = (lambda v: (v > 0) & (v < 1), "lie in (0, 1)")


def as_real(x, what: str = "input") -> np.ndarray:
    """``x`` as a float64 array of any shape, not copied if it already is
    one.  Only int and float dtypes are taken: a complex, bool, string or
    object array is refused, not cut or parsed, naming ``x`` as ``what``,
    and so is a finite value that the cast would turn into inf."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{what} does not form a real tensor: {exc}") from exc
    if arr.dtype.kind == "c":
        raise InvalidArgumentError(f"{what} is complex ({arr.dtype}), not a real tensor")
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{what} does not form a real tensor: its dtype is {arr.dtype}")
    if arr.dtype.itemsize <= 8:  # float64 holds every value of these dtypes
        return arr.astype(np.float64, copy=False)
    try:
        with np.errstate(over="raise"):
            return arr.astype(np.float64)
    except FloatingPointError:
        raise InvalidArgumentError(f"{what} has values beyond the float64 range") from None


def real_in(value, name: str, accept, requirement: str) -> float:
    """``value`` as a plain float, refused with InvalidArgumentError naming
    ``name`` unless it is an int or float (numpy's, not a bool), finite as
    a float64, for which ``accept`` holds; ``requirement`` words that range."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(float(value)) and accept(float(value)):
                return float(value)
    raise InvalidArgumentError(f"{name} must {requirement}, got {value!r}")


def finite_entries(arr, name: str, accept=None, requirement: str = "be finite"):
    """``arr``, a real array (float32 included) or a list of numbers, as it
    is, not converted or copied; refused with InvalidArgumentError naming
    ``name`` and the first refused entry unless each entry is finite and,
    where ``accept`` is given, in its range (``requirement`` words it, as
    for :func:`real_in`).  ``arr`` is read once, and once more by ``accept``."""
    ok = np.isfinite(arr)
    if accept is not None:
        ok &= accept(np.asarray(arr))
    if not ok.all():
        at = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        value = float(np.asarray(arr)[at])
        where = "" if not at else f" at index {at[0] if len(at) == 1 else at}"
        raise InvalidArgumentError(f"{name} must {requirement}, got {value!r}{where}")
    return arr


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


def one_of(value, name: str, choices: tuple):
    """``value`` if it is one of ``choices``, else refused naming ``name``."""
    if value not in choices:
        raise InvalidArgumentError(f"{name} must be one of {choices}, got {value!r}")
    return value


def symmetric_operator(a, name: str = "matrix") -> np.ndarray:
    """``a`` as :func:`as_real` gives it, refused naming ``name`` (and a stack's
    matrix by index) unless it is a square matrix, or a stack of them, each
    finite and symmetric within 1e-10 * max(1, its max |a_ij|): checked one
    matrix at a time, halved first so that no entry overflows."""
    a = as_real(a, name)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidArgumentError(f"{name} must be square, got shape {a.shape}")
    for at in np.ndindex(a.shape[:-2]):
        m, label = a[at], f"{name}{list(at)}" if at else name
        finite_entries(m, label)
        half = m / 2.0
        if m.size and np.max(np.abs(half - half.T)) > 0.5e-10 * max(1.0, m.max(), -m.min()):
            raise InvalidArgumentError(f"{label} is not symmetric within 1e-10")
    return a


def as_tensor(x, what: str = "input") -> np.ndarray:
    """``x`` as a float64 array (:func:`as_real`, naming it ``what``),
    checked to have order 2 or 3 and every extent >= 1.  An input that
    already is such an array is returned as is, not copied."""
    arr = as_real(x, what)
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
