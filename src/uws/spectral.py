"""Thin SVD, Gram eigendecomposition, explained-variance accounting,
rank-selection policies, and the exact operator norm of a symmetric
matrix (one ``eigvalsh``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .tensor import peak_exponent

#: Relative cutoff used to call a singular value numerically zero.
NUMERICAL_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class ThinSvd:
    """Thin singular value decomposition M = u @ diag(s) @ v.T.

    ``u`` and ``v`` have orthonormal columns; ``singular_values`` is
    nonincreasing and nonnegative.  Each left singular vector is oriented
    so its largest-magnitude entry is nonnegative, which makes the
    factorization deterministic.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def _checked_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise InvalidArgumentError(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix contains non-finite entries")
    return m


def column_signs(a: np.ndarray) -> np.ndarray:
    """One sign (+1.0 or -1.0) per column of ``a``: scaling each column by
    its sign makes its largest-magnitude entry (the first, on ties)
    nonnegative."""
    lead = a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def orthonormality_defect(q: np.ndarray) -> float:
    """``max |q.T @ q - I|``: 0 for exactly orthonormal columns."""
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))


def thin_svd(m: np.ndarray) -> ThinSvd:
    """Thin SVD keeping min(rows, cols) triplets."""
    m = _checked_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("thin SVD did not converge (LAPACK)") from exc
    # deterministic orientation: largest-|entry| of each left vector >= 0
    signs = column_signs(u)
    u *= signs
    vt *= signs[:, None]
    u.flags.writeable = False
    s.flags.writeable = False
    v = np.ascontiguousarray(vt.T)
    v.flags.writeable = False
    return ThinSvd(u=u, singular_values=s, v=v)


def gram_spectrum(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of any matrix whose
    Gram matrix ``m.T @ m`` is ``gram``, from one ``eigh``.

    Returns ``(s, v)``: all ``cols`` singular values, nonincreasing, and
    the matching orthonormal columns of ``v``, each oriented so its
    largest-magnitude entry is nonnegative.  For a tall matrix this is
    several times cheaper than :func:`thin_svd`, but forming the Gram
    matrix squares the condition number: s_i carries an absolute error of
    about eps * s_1**2 / s_i, so only components well above
    sqrt(eps) * s_1 are accurate.  Eigenvalues that rounding pushes below
    zero are read as zero singular values.
    """
    gram = _checked_matrix(gram)
    if gram.shape[0] != gram.shape[1]:
        raise InvalidArgumentError(f"a Gram matrix is square, got shape {gram.shape}")
    try:
        lam, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "Gram eigendecomposition did not converge (LAPACK)"
        ) from exc
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    v = v[:, ::-1]
    v *= column_signs(v)  # in place: no second d x d array
    s.flags.writeable = False
    v.flags.writeable = False
    return s, v


def explained_variance(singular_values: np.ndarray) -> np.ndarray:
    """Ratios sigma_i^2 / sum_j sigma_j^2.

    Input must be nonincreasing and nonnegative with at least one nonzero
    entry; the result is nonincreasing and sums to 1.  The values are
    divided by a power of two just above the largest before they are
    squared, so no scale overflows or underflows; where neither happens
    unscaled, the ratios are the same bit for bit.
    """
    s = np.asarray(singular_values, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise InvalidArgumentError("empty spectrum")
    if np.any(s < 0):
        raise InvalidArgumentError("singular values must be nonnegative")
    if np.any(np.diff(s) > 1e-12 * max(1.0, float(s[0]))):
        raise InvalidArgumentError("singular values must be nonincreasing")
    s = np.ldexp(s, -peak_exponent(s))
    total = float(np.sum(s**2))
    if total == 0.0:
        raise DegenerateSpectrumError("all singular values are zero")
    return s**2 / total


@dataclass(frozen=True)
class RankPolicy:
    """How many spectral components to keep.

    Exactly one of four kinds:

    - ``cumulative_variance(tau)``: smallest count whose cumulative
      explained variance reaches tau; tau = 1.0 keeps the numerical rank.
    - ``eigen_floor(epsilon)``: every component whose ratio exceeds
      epsilon, at least one.
    - ``hard_threshold(noise_sigma=None)``: components above the optimal
      singular-value threshold for additive white noise; with unknown
      sigma the median-based variant is used.
    - ``fixed_k(k)``: k, clamped to the available rank.
    """

    kind: str
    tau: float | None = None
    epsilon: float | None = None
    k: int | None = None
    noise_sigma: float | None = None

    @classmethod
    def cumulative_variance(cls, tau: float = 0.95) -> "RankPolicy":
        if not 0.0 < tau <= 1.0:
            raise InvalidArgumentError(f"tau must lie in (0, 1], got {tau}")
        return cls(kind="cumulative_variance", tau=float(tau))

    @classmethod
    def eigen_floor(cls, epsilon: float = 0.01) -> "RankPolicy":
        if not 0 <= epsilon < np.inf:
            raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {epsilon}")
        return cls(kind="eigen_floor", epsilon=float(epsilon))

    @classmethod
    def hard_threshold(cls, noise_sigma: float | None = None) -> "RankPolicy":
        if noise_sigma is not None and not 0 < noise_sigma < np.inf:
            raise InvalidArgumentError(f"noise_sigma must be finite and > 0, got {noise_sigma}")
        return cls(kind="hard_threshold", noise_sigma=noise_sigma)

    @classmethod
    def fixed_k(cls, k: int) -> "RankPolicy":
        if int(k) < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {k}")
        return cls(kind="fixed_k", k=int(k))

    def describe(self) -> str:
        if self.kind == "cumulative_variance":
            return f"cumulative_variance(tau={self.tau})"
        if self.kind == "eigen_floor":
            return f"eigen_floor(epsilon={self.epsilon})"
        if self.kind == "hard_threshold":
            sigma = "estimated" if self.noise_sigma is None else repr(self.noise_sigma)
            return f"hard_threshold(noise_sigma={sigma})"
        return f"fixed_k(k={self.k})"


DEFAULT_POLICY = RankPolicy.cumulative_variance(0.95)


def _optimal_hard_threshold(singular_values: np.ndarray, shape, noise_sigma) -> float:
    """Closed-form optimal singular-value threshold for white noise.

    beta is the aspect ratio m/n (<= 1).  With known noise level:
    lambda(beta) = sqrt(2(beta+1) + 8 beta / (beta+1+sqrt(beta^2+14 beta+1)))
    scaled by sqrt(n)*sigma, equal to (4/sqrt(3))*sqrt(n)*sigma for square
    input.  With unknown noise the median-calibrated coefficient
    omega(beta) ~ 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43 multiplies
    the median singular value.
    """
    rows, cols = int(shape[0]), int(shape[1])
    beta = min(rows, cols) / max(rows, cols)
    if noise_sigma is not None:
        lam = np.sqrt(2 * (beta + 1) + 8 * beta / (beta + 1 + np.sqrt(beta**2 + 14 * beta + 1)))
        return float(lam * np.sqrt(max(rows, cols)) * noise_sigma)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    return float(omega * np.median(singular_values))


def select_rank(
    ratios: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
    *,
    singular_values: np.ndarray | None = None,
    shape: tuple[int, int] | None = None,
) -> int:
    """Number of components to retain under the given policy.

    ``singular_values`` and ``shape`` (rows, cols of the decomposed
    matrix) are required only by the hard-threshold policy.
    """
    ratios = np.asarray(ratios, dtype=np.float64).reshape(-1)
    if ratios.size == 0:
        raise InvalidArgumentError("empty ratio vector")
    if policy.kind == "cumulative_variance":
        if policy.tau >= 1.0:
            # tau = 1 keeps exactly the numerically nonzero spectrum
            return max(1, int(np.sum(ratios > ratios[0] * NUMERICAL_RANK_RTOL**2)))
        cum = np.cumsum(ratios)
        idx = int(np.searchsorted(cum, policy.tau - 1e-15)) + 1
        return min(idx, ratios.size)
    if policy.kind == "eigen_floor":
        return max(1, int(np.sum(ratios > policy.epsilon)))
    if policy.kind == "fixed_k":
        return min(policy.k, ratios.size)
    if policy.kind == "hard_threshold":
        if singular_values is None or shape is None:
            raise InvalidArgumentError(
                "hard_threshold needs singular_values= and shape=(rows, cols)"
            )
        s = np.asarray(singular_values, dtype=np.float64).reshape(-1)
        cut = _optimal_hard_threshold(s, shape, policy.noise_sigma)
        return max(1, int(np.sum(s > cut)))
    raise InvalidArgumentError(f"unknown policy kind {policy.kind!r}")


def operator_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a finite symmetric matrix.

    One ``np.linalg.eigvalsh`` gives the extreme eigenvalues w[0] and w[-1];
    the result is max(-w[0], w[-1]), exact to backward-stable rounding at
    every scale (the matrix is never squared, so nothing underflows or
    overflows).  The input must be square, finite and symmetric within
    1e-10 * max(1, max |a_ij|); eigvalsh reads its lower triangle.  The zero
    matrix (and the empty one) has norm 0.0.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix contains non-finite entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0.0
    # halving first keeps entries near the float64 limit from overflowing
    if np.max(np.abs(a / 2.0 - a.T / 2.0)) > 0.5e-10 * max(1.0, scale):
        raise InvalidArgumentError("matrix is not symmetric within 1e-10")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "symmetric eigensolve did not converge (LAPACK)"
        ) from exc
    return float(max(-w[0], w[-1]))
