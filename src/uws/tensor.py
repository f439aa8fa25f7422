"""Mode-n unfolding, folding, and tensor-matrix products on numpy arrays.

Conventions
-----------
A tensor is a float64 ``ndarray`` of order 1..8 with every extent >= 1;
:func:`as_tensor` checks and converts outside input.  Modes are numbered
1..N.  ``unfold(t, n)`` puts mode-n fibers into rows; its columns
enumerate the remaining modes in their original order with the *first*
remaining mode varying fastest.  ``fold`` is the exact inverse under the
same convention.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

MAX_ORDER = 8


def as_tensor(x) -> np.ndarray:
    """``x`` as a float64 array, checked to have order 1..8 and every
    extent >= 1.  An input that already is such an array is returned as
    is, not copied."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"input does not form a real tensor: {exc}") from exc
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


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of the given shape from
    its mode-n matricization (a view of ``m`` wherever numpy can make one)."""
    shape = tuple(int(s) for s in shape)
    m = np.asarray(m, dtype=np.float64)
    if not 1 <= mode <= len(shape):
        raise InvalidArgumentError(f"mode {mode} out of range for shape {shape}")
    ax = mode - 1
    rest = [s for i, s in enumerate(shape) if i != ax]
    ncols = int(np.prod(rest, dtype=np.int64)) if rest else 1
    if m.ndim != 2 or m.shape[0] != shape[ax] or m.shape[1] != ncols:
        raise InvalidArgumentError(
            f"matrix shape {m.shape} does not fold to {shape} along mode {mode}"
        )
    moved = np.reshape(m, (shape[ax], *rest), order="F")
    return as_tensor(np.moveaxis(moved, 0, ax))


def mode_product(t, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-matrix product along one mode.

    Replaces extent I_mode by the row count of ``matrix``; equals
    ``fold(matrix @ unfold(t, mode), mode, new_shape)``.  It is one
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


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_tensor(t)))
