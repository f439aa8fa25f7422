"""Thin SVD, Gram spectra and leading Gram eigenvectors,
explained-variance accounting, rank-selection policies, and the exact
operator norm of a symmetric matrix (one ``eigvalsh``)."""

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

_EPS = np.finfo(np.float64).eps

#: :func:`gram_vectors` iterates on a block of at least n +
#: LEADING_OVERSAMPLE columns for the leading n eigenvectors (the
#: oversampling p of Halko, Martinsson and Tropp, 2011), so that its fixed
#: random start is never close to missing a wanted direction.
LEADING_OVERSAMPLE = 8

#: :func:`gram_vectors` runs the block iteration only while its predicted
#: work, sweeps * (2 d**2 b + 4 d b**2) flops, stays below
#: LEADING_MAX_WORK * d**3.  The d eigenvectors cost ``eigh`` about 2 d**3
#: flops of matrix products on top of ``eigvalsh`` (0.11 s of 0.20 s at
#: d = 1024, 2-vCPU VM, OpenBLAS), so the budget is a quarter of what the
#: iteration replaces.
LEADING_MAX_WORK = 0.5

#: A block-iteration eigenvector is kept only if its Ritz residual
#: ||G v - theta v|| is at most RITZ_RESIDUAL_MULTIPLE * sqrt(d) * eps *
#: lambda_1, the size of the backward error a full ``eigh`` leaves (whose
#: own residuals measured 0.1 to 0.3 of sqrt(d) * eps * lambda_1).
RITZ_RESIDUAL_MULTIPLE = 2.0


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


def _checked_gram(gram) -> np.ndarray:
    gram = _checked_matrix(gram)
    if gram.shape[0] != gram.shape[1]:
        raise InvalidArgumentError(f"a Gram matrix is square, got shape {gram.shape}")
    return gram


def gram_spectrum(gram: np.ndarray) -> np.ndarray:
    """All ``cols`` singular values, nonincreasing, of any matrix whose
    Gram matrix ``m.T @ m`` is ``gram``, from one ``eigvalsh``.

    Forming the Gram matrix squares the condition number: s_i carries an
    absolute error of about eps * s_1**2 / s_i, so only components well
    above sqrt(eps) * s_1 are accurate.  An eigenvalue below d * eps *
    lambda_1, the absolute error a backward-stable symmetric eigensolver
    leaves, is rounding whose sign and size are luck, so it is read as an
    exact zero singular value.
    """
    gram = _checked_gram(gram)
    try:
        lam = np.linalg.eigvalsh(gram)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "Gram eigenvalue solve did not converge (LAPACK)"
        ) from exc
    lam = np.where(lam < gram.shape[0] * _EPS * max(lam[0], 0.0), 0.0, lam)
    s = np.sqrt(lam)
    s.flags.writeable = False
    return s


def _block_plan(lam: np.ndarray, n: int):
    """``(b, sweeps, shift)`` of the cheapest block iteration predicted to
    resolve the leading ``n`` eigenvectors of a Gram matrix with the
    nonincreasing eigenvalues ``lam``, or None where none is predicted to
    cost less than ``LEADING_MAX_WORK * d**3`` flops.

    Sweeping with G - shift * I, the shift midway between lambda_{b+1}
    and lambda_d, shrinks the unwanted directions relative to the n-th by
    ``ratio = (lambda_{b+1} - shift) / (lambda_n - shift)`` per sweep, so
    about log(eps) / log(ratio) sweeps reach rounding level; one more is a
    margin for the start.  No eigenvalue gap is taken as sharper than the
    solver's error floor d * eps * lambda_1.
    """
    d = lam.size
    b = np.arange(n + LEADING_OVERSAMPLE, d)
    floor = d * _EPS * lam[0]
    if b.size == 0 or not 0.0 < lam[0] < np.finfo(np.float64).max / d:
        return None  # no block fits, or G @ q could overflow where eigh scales
    top = np.maximum(lam[b], floor)  # lambda_{b+1} for each block size b
    shift = (top + lam[-1]) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(top - shift, floor) / (lam[n - 1] - shift)
        sweeps = np.where(
            (ratio > 0) & (ratio < 1), np.ceil(np.log(_EPS) / np.log(ratio)) + 1, np.inf
        )
    work = sweeps * (2.0 * d * d * b + 4.0 * d * b * b)
    i = int(np.argmin(work))
    if not work[i] <= LEADING_MAX_WORK * float(d) ** 3:
        return None
    return int(b[i]), int(sweeps[i]), float(shift[i])


def _block_iteration(gram, lam1, n, b, sweeps, shift):
    """The leading ``n`` eigenvectors of ``gram`` from ``sweeps`` shifted
    subspace-iteration sweeps on a ``b``-column block and one Rayleigh-Ritz
    step, or None where a Ritz residual ||G v - theta v|| exceeds
    ``RITZ_RESIDUAL_MULTIPLE * sqrt(d) * eps * lambda_1``."""
    d = gram.shape[0]
    try:
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((d, b)))[0]
        for _ in range(sweeps):
            q = np.linalg.qr(gram @ q - shift * q)[0]
        z = gram @ q
        h = q.T @ z
        theta, w = np.linalg.eigh((h + h.T) / 2)
    except np.linalg.LinAlgError:
        return None
    w, theta = w[:, : -n - 1 : -1], theta[: -n - 1 : -1]
    v = q @ w
    resid = np.linalg.norm(z @ w - v * theta, axis=0)
    if not np.max(resid) <= RITZ_RESIDUAL_MULTIPLE * np.sqrt(d) * _EPS * lam1:
        return None
    return v


def gram_vectors(gram: np.ndarray, singular_values: np.ndarray, n: int) -> np.ndarray:
    """The leading ``n`` right singular vectors (d x n, orthonormal
    columns) of any matrix whose Gram matrix is ``gram``, each oriented by
    :func:`column_signs`; ``singular_values`` is :func:`gram_spectrum` of
    the same ``gram``.

    Block subspace iteration (Rutishauser 1970; Halko, Martinsson and
    Tropp 2011) with a Rayleigh-Ritz step finds them from a fixed start
    when the spectrum predicts that to be cheap (:func:`_block_plan`), and
    its result is kept only if every Ritz residual is within the backward
    error of a full ``eigh``.  Otherwise one full ``eigh`` of ``gram``
    gives them.
    """
    gram = _checked_gram(gram)
    d = gram.shape[0]
    if not 1 <= n <= d or np.shape(singular_values) != (d,):
        raise InvalidArgumentError(
            f"need 1 <= n <= {d} and {d} singular values, got n={n} and "
            f"{np.size(singular_values)}"
        )
    lam = np.square(singular_values)
    plan = _block_plan(lam, n)
    v = None if plan is None else _block_iteration(gram, lam[0], n, *plan)
    if v is None:
        try:
            full = np.linalg.eigh(gram)[1]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                "Gram eigendecomposition did not converge (LAPACK)"
            ) from exc
        v = np.ascontiguousarray(full[:, : -n - 1 : -1])
    v *= column_signs(v)
    return v


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


#: Each policy kind's one parameter; a policy's other parameters are None.
_PARAMETER = dict(
    cumulative_variance="tau", eigen_floor="epsilon", hard_threshold="noise_sigma", fixed_k="k"
)


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

    However a policy is built, a kind other than these, a parameter out
    of its range and a parameter of another kind raise InvalidArgumentError.
    """

    kind: str
    tau: float | None = None
    epsilon: float | None = None
    k: int | None = None
    noise_sigma: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PARAMETER:
            raise InvalidArgumentError(f"unknown policy kind {self.kind!r}")
        own = _PARAMETER[self.kind]
        for name in _PARAMETER.values():
            if name != own and getattr(self, name) is not None:
                raise InvalidArgumentError(
                    f"a {self.kind} policy takes no {name}, got {getattr(self, name)!r}"
                )
        v = getattr(self, own)
        real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        if self.kind == "cumulative_variance" and not (real and 0.0 < v <= 1.0):
            raise InvalidArgumentError(f"tau must lie in (0, 1], got {v}")
        if self.kind == "eigen_floor" and not (real and 0 <= v < np.inf):
            raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {v}")
        if self.kind == "hard_threshold" and not (v is None or real and 0 < v < np.inf):
            raise InvalidArgumentError(f"noise_sigma must be finite and > 0, got {v}")
        if self.kind == "fixed_k" and not (real and isinstance(v, (int, np.integer)) and v >= 1):
            raise InvalidArgumentError(f"k must be >= 1, got {v}")

    @classmethod
    def cumulative_variance(cls, tau: float = 0.95) -> "RankPolicy":
        return cls(kind="cumulative_variance", tau=float(tau))

    @classmethod
    def eigen_floor(cls, epsilon: float = 0.01) -> "RankPolicy":
        return cls(kind="eigen_floor", epsilon=float(epsilon))

    @classmethod
    def hard_threshold(cls, noise_sigma: float | None = None) -> "RankPolicy":
        return cls(kind="hard_threshold", noise_sigma=noise_sigma)

    @classmethod
    def fixed_k(cls, k: int) -> "RankPolicy":
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
    if singular_values is None or shape is None:  # hard_threshold
        raise InvalidArgumentError(
            "hard_threshold needs singular_values= and shape=(rows, cols)"
        )
    s = np.asarray(singular_values, dtype=np.float64).reshape(-1)
    cut = _optimal_hard_threshold(s, shape, policy.noise_sigma)
    return max(1, int(np.sum(s > cut)))


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
