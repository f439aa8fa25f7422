"""Mode-n unfolding and tensor-matrix products on numpy arrays.

Conventions
-----------
A tensor is a float64 ``ndarray`` of order 1..8 with every extent >= 1;
:func:`as_tensor` checks and converts outside input.  Modes are numbered
1..N.  ``unfold(t, n)`` puts mode-n fibers into rows; its columns
enumerate the remaining modes in their original order with the *first*
remaining mode varying fastest.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

MAX_ORDER = 8


def as_real(x) -> np.ndarray:
    """``x`` as a float64 array of any shape, not copied if it already is
    one.  Complex input is refused, not cut to its real part."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind != "c":
            return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"input does not form a real tensor: {exc}") from exc
    raise InvalidArgumentError(f"input is complex ({arr.dtype}), not a real tensor")


def as_tensor(x) -> np.ndarray:
    """``x`` as a float64 array (:func:`as_real`), checked to have order
    1..8 and every extent >= 1.  An input that already is such an array
    is returned as is, not copied."""
    arr = as_real(x)
    if not 1 <= arr.ndim <= MAX_ORDER:
        raise InvalidArgumentError(
            f"tensor order must be between 1 and {MAX_ORDER}, got {arr.ndim}"
        )
    if 0 in arr.shape:
        raise InvalidArgumentError(f"all extents must be >= 1, got {arr.shape}")
    return arr


def _check_mode(t: np.ndarray, mode: int) -> int:
    if not 1 <= mode <= t.ndim:
        raise InvalidArgumentError(
            f"mode {mode} out of range for order-{t.ndim} tensor"
        )
    return mode - 1


def unfold(t, mode: int) -> np.ndarray:
    """Mode-n matricization.

    Parameters
    ----------
    t : array_like
    mode : int
        Mode to put into rows, 1-based.

    Returns
    -------
    ndarray
        Matrix of shape (I_mode, prod of the other extents).  Row i holds
        every entry whose mode index equals i; columns enumerate the
        remaining modes with the first remaining mode fastest.  It is a
        view of ``t`` wherever numpy can make one.
    """
    t = as_tensor(t)
    ax = _check_mode(t, mode)
    return np.reshape(np.moveaxis(t, ax, 0), (t.shape[ax], -1), order="F")


def mode_product(t, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-matrix product along one mode.

    Replaces extent I_mode by the row count of ``matrix``, so that the
    result's mode-n unfolding is ``matrix @ unfold(t, mode)``.  It is one
    ``tensordot``, so an order-2 product is a single matrix product.
    """
    t = as_tensor(t)
    ax = _check_mode(t, mode)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != t.shape[ax]:
        raise InvalidArgumentError(
            f"matrix of shape {matrix.shape} cannot contract mode {mode} "
            f"of extent {t.shape[ax]}"
        )
    return np.moveaxis(np.tensordot(t, matrix, ([ax], [1])), -1, ax)


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
