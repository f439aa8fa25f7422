"""Thin SVD, a Gram matrix held as its lower row panels and its certified
leading eigenpairs, explained-variance accounting, rank-selection
policies, and the exact operator norm of a symmetric matrix or a stack
of them (one ``eigvalsh``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .tensor import as_real, peak_exponent

#: Relative cutoff used to call a singular value numerically zero.
NUMERICAL_RANK_RTOL = 1e-12

_EPS = np.finfo(np.float64).eps

#: The leading solve iterates on a block of at least n + LEADING_OVERSAMPLE
#: columns for the leading n eigenpairs (the oversampling p of Halko,
#: Martinsson and Tropp, 2011), so that its fixed random start is never
#: close to missing a wanted direction.
LEADING_OVERSAMPLE = 8

#: The leading solve's block iteration may spend LEADING_MAX_WORK * d**3
#: flops, counting 2 d**2 b per product with the Gram matrix and 10 d b**2
#: per orthonormalisation and Rayleigh-Ritz step, before it hands the layer
#: to one full ``eigh``.  A full ``eigh`` takes as long as 5.5 to 17 d**3
#: flops of the iteration's own block products (d = 2048 down to 384,
#: 2-vCPU VM, OpenBLAS), so a layer the iteration cannot certify pays
#: about a fifth more than the ``eigh`` alone would (1.2 s of iteration
#: before a 7.7 s ``eigh`` at d = 4096).
LEADING_MAX_WORK = 1.0

#: The block iteration keeps a rank only where the certified gap after it
#: is at least (the kept pairs' residual norm + one vector's residual
#: tolerance) / LEADING_MAX_SINE: the kept subspace then lies within a sine
#: of residual norm / gap of the exact one, and that of any stable
#: eigensolver, a full ``eigh`` included, within its backward error / gap
#: (Davis and Kahan), so the routes agree to a sine of LEADING_MAX_SINE.
#: A narrower gap, such as a cut inside a near-repeated cluster, is left
#: to one ``eigh``.
LEADING_MAX_SINE = 1e-10

#: :func:`gram_leading` solves a Gram matrix whose largest entry lies
#: within 2**±_PLAIN_EXPONENT as given: there its squares and sums of
#: squares stay far from overflow and underflow, LAPACK's ``eigh`` does not
#: rescale it (it does beyond about 2**±484), and every step gives results
#: that scale exactly with the matrix, so no d x d scaled copy is needed.
_PLAIN_EXPONENT = 256

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
    m = as_real(m)
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


#: A :class:`LowerGram` holds a d x d Gram matrix as its lower row panels,
#: this many rows each: d (d + GRAM_PANEL_COLS) / 2 doubles, 4.5 MiB at
#: d = 1024 where the square takes 8.  Adding ``C.T @ C`` to the panels
#: does (d + GRAM_PANEL_COLS) / (2 d) of a full product's flops, 9/16 at
#: d = 1024, and its largest temporary is one GRAM_PANEL_COLS x d product.
#: On 12800 x 1024 float32 rows fed to a :class:`~uws.hosvd.GramStream`
#: in 64-row slabs, the stream took 0.30-0.35 s at this width and
#: 0.29-0.36 s at 256 (five runs each, 2-vCPU VM, OpenBLAS).
GRAM_PANEL_COLS = 128


def _panel_bounds(dim: int) -> list[tuple[int, int]]:
    """``(j0, j1)`` row bounds of the ``GRAM_PANEL_COLS``-row panels of ``dim``."""
    return [(j0, min(j0 + GRAM_PANEL_COLS, dim)) for j0 in range(0, dim, GRAM_PANEL_COLS)]


def _symmetric(block: np.ndarray) -> np.ndarray:
    """A new copy of the square ``block`` made symmetric from its lower triangle."""
    return np.tril(block) + np.tril(block, -1).T


class LowerGram:
    """A symmetric d x d matrix G held as its lower row panels P =
    ``G[j0:j1, :j1]`` for j0 = 0, w, 2w, ..., w = ``GRAM_PANEL_COLS``.

    G starts as :meth:`zeros` and is built up by :meth:`add_gram_of`, the
    one way every Gram matrix here is formed, by the merges of a
    :class:`~uws.hosvd.GramStream`; it owns its panels.  Of each panel only the off-diagonal rectangle
    ``P[:, :j0]`` and the lower triangle of the diagonal block ``P[:,
    j0:]`` are read, so G's strict upper triangle is never read.  Only a
    full ``eigh`` needs the square (:meth:`square`); moving the panels
    there makes them views of it, so G is held either as its panels or
    as one square, never both.
    """

    def __init__(self, dim: int, panels: list[np.ndarray]):
        self.dim = dim
        self._panels = panels
        self._square = None

    @classmethod
    def zeros(cls, dim: int) -> "LowerGram":
        """A zero d x d Gram on panels of its own."""
        return cls(dim, [np.zeros((j1 - j0, j1)) for j0, j1 in _panel_bounds(dim)])

    def _pairs(self):
        return zip(_panel_bounds(self.dim), self._panels)

    def add_gram_of(self, c: np.ndarray) -> None:
        """``G += c.T @ c`` for an n x d array ``c``: one product per panel."""
        for (j0, j1), p in self._pairs():
            p += c[:, j0:j1].T @ c[:, :j1]

    def __matmul__(self, q: np.ndarray) -> np.ndarray:
        """``G @ q`` for a d x b array ``q``: each panel's diagonal block,
        made symmetric from its lower triangle, and its rectangle times
        ``q``; the rectangle's transpose is applied as ``q.T @ rect``,
        rows of ``(G @ q).T``, which OpenBLAS runs faster than ``rect.T @
        q`` (9 against 21 ms over the panels at d = 4096, b = 24)."""
        z = np.empty((self.dim, q.shape[1]))
        zt = np.zeros((q.shape[1], self.dim))
        for (j0, j1), p in self._pairs():
            rect = p[:, :j0]
            z[j0:j1] = _symmetric(p[:, j0:]) @ q[j0:j1]
            z[j0:j1] += rect @ q[:j0]
            zt[:, :j0] += q[j0:j1].T @ rect
        z += zt.T
        return z

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(p, j0) for (j0, _), p in self._pairs()])

    def trace(self) -> float:
        return float(np.sum(self.diagonal()))

    def frobenius_sq(self) -> float:
        """``||G||_F**2``, each off-diagonal rectangle counted twice."""
        total = 0.0
        for (j0, _), p in self._pairs():
            rect, diag = p[:, :j0], _symmetric(p[:, j0:])
            total += 2.0 * float(np.vdot(rect, rect)) + float(np.vdot(diag, diag))
        return total

    def all_finite(self) -> bool:
        """Whether every entry of G is finite, checked one panel at a time."""
        return all(
            np.isfinite(p[:, :j0]).all() and np.isfinite(np.tril(p[:, j0:])).all()
            for (j0, _), p in self._pairs()
        )

    def plus_outer(self, v: np.ndarray, weight: float) -> "LowerGram":
        """A new ``G + weight * outer(v, v)``."""
        panels = []
        for (j0, j1), p in self._pairs():
            new = np.multiply.outer(v[j0:j1], v[:j1])
            new *= weight
            new += p
            panels.append(new)
        return LowerGram(self.dim, panels)

    def ldexp(self, e: int) -> "LowerGram":
        """A new ``G * 2**e``."""
        return LowerGram(self.dim, [np.ldexp(p, e) for p in self._panels])

    def square(self) -> np.ndarray:
        """A d x d array whose lower triangle is G's, for LAPACK's ``eigh``
        with ``UPLO='L'``; its strict upper triangle is not G's.  The
        panels are moved into it one at a time and become views of it, so
        later updates land in it."""
        if self._square is None:
            square = np.zeros((self.dim, self.dim))
            for i, (j0, j1) in enumerate(_panel_bounds(self.dim)):
                square[j0:j1, :j1] = self._panels[i]
                self._panels[i] = square[j0:j1, :j1]
            self._square = square
        return self._square

    def symmetric(self) -> np.ndarray:
        """G as a new symmetric d x d array, assembled from its lower triangle."""
        out = np.empty((self.dim, self.dim))
        for (j0, j1), p in self._pairs():
            out[j0:j1, :j0] = p[:, :j0]
            out[:j0, j0:j1] = p[:, :j0].T
            out[j0:j1, j0:j1] = _symmetric(p[:, j0:])
        return out


def explained_variance(singular_values: np.ndarray, tail: float = 0.0) -> np.ndarray:
    """Ratios sigma_i^2 / (sum_j sigma_j^2 + tail).

    ``singular_values`` must be nonincreasing and nonnegative; ``tail``,
    finite and nonnegative, is the energy (a sum of squares) of the
    components not listed, each at most the last listed one, so it is 0
    where that is 0, and the ratios sum to 1 when it is 0.  The sum must
    not be 0.  The values are divided by a power of two just above
    the largest before they are squared (the tail by its square), so no
    scale overflows or underflows; where neither happens unscaled, the
    ratios are the same bit for bit.
    """
    s = np.asarray(singular_values, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise InvalidArgumentError("empty spectrum")
    if np.any(s < 0):
        raise InvalidArgumentError("singular values must be nonnegative")
    if np.any(np.diff(s) > 1e-12 * max(1.0, float(s[0]))):
        raise InvalidArgumentError("singular values must be nonincreasing")
    if not 0.0 <= tail < np.inf:
        raise InvalidArgumentError(f"the tail energy must be finite and >= 0, got {tail!r}")
    if tail > 0 and s[-1] == 0:
        raise InvalidArgumentError("a tail beyond a zero singular value must be 0")
    e = peak_exponent(s)
    s = np.ldexp(s, -e)
    total = float(np.sum(s**2)) + float(np.ldexp(tail, -2 * e))
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
            raise InvalidArgumentError(f"tau must lie in (0, 1], got {v!r}")
        if self.kind == "eigen_floor" and not (real and 0 <= v < np.inf):
            raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {v!r}")
        if self.kind == "hard_threshold" and not (v is None or real and 0 < v < np.inf):
            raise InvalidArgumentError(f"noise_sigma must be finite and > 0, got {v!r}")
        if self.kind == "fixed_k":
            if not (real and isinstance(v, (int, np.integer))):
                raise InvalidArgumentError(f"k must be an integer >= 1, got {v!r}")
            if v < 1:
                raise InvalidArgumentError(f"k must be >= 1, got {v}")
        if v is not None:
            # a plain int or float, so asdict(policy) serialises as JSON
            object.__setattr__(self, own, int(v) if self.kind == "fixed_k" else float(v))

    @classmethod
    def cumulative_variance(cls, tau: float = 0.95) -> "RankPolicy":
        return cls(kind="cumulative_variance", tau=tau)

    @classmethod
    def eigen_floor(cls, epsilon: float = 0.01) -> "RankPolicy":
        return cls(kind="eigen_floor", epsilon=epsilon)

    @classmethod
    def hard_threshold(cls, noise_sigma: float | None = None) -> "RankPolicy":
        return cls(kind="hard_threshold", noise_sigma=noise_sigma)

    @classmethod
    def fixed_k(cls, k: int) -> "RankPolicy":
        return cls(kind="fixed_k", k=k)

    def describe(self) -> str:
        if self.kind == "cumulative_variance":
            return f"cumulative_variance(tau={self.tau})"
        if self.kind == "eigen_floor":
            return f"eigen_floor(epsilon={self.epsilon})"
        if self.kind == "hard_threshold":
            sigma = "estimated" if self.noise_sigma is None else repr(self.noise_sigma)
            return f"hard_threshold(noise_sigma={sigma})"
        return f"fixed_k(k={self.k})"

    @property
    def reads_small_end(self) -> bool:
        """Whether the rank depends on the small end of the spectrum:
        ``hard_threshold`` (through the median singular value) and
        ``cumulative_variance`` with tau = 1 (the numerical rank)."""
        return self.kind == "hard_threshold" or (
            self.kind == "cumulative_variance" and self.tau >= 1.0
        )


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


class _Declined(Exception):
    """The deepest value the caller reads is below its floor."""


def _leading_eigh(g, policies, min_ratio):
    """The leading eigenpairs of ``g`` as deep as ``policies`` read, and
    the sum of the other eigenvalues, from one full ``eigh``.  An
    eigenvalue below d * eps * lambda_1, the absolute error a
    backward-stable symmetric eigensolver leaves, is rounding whose sign
    and size are luck, so it is read as an exact 0."""
    try:
        lam, vec = np.linalg.eigh(g.square(), UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("Gram eigendecomposition did not converge (LAPACK)") from exc
    lam, vec = lam[::-1], vec[:, ::-1]
    lam = np.where(lam < g.dim * _EPS * max(lam[0], 0.0), 0.0, lam)
    ratios = explained_variance(np.sqrt(lam))
    n = max(select_rank(ratios, p) for p in policies)
    if np.sqrt(lam[n - 1]) < min_ratio * np.sqrt(lam[0]):
        raise _Declined
    return lam[:n], np.ascontiguousarray(vec[:, :n]), float(np.sum(lam[n:]))


def _certified_depth(theta, converged, rho, ceiling, total, slack, tol, policies):
    """``(n, least)`` from Ritz values ``theta`` whose residual norms
    through depth m are ``rho[m - 1]`` (all within ``tol`` where
    ``converged``), where ``ceiling[m - 1] + rho[m - 1]`` bounds every
    eigenvalue outside the leading m Ritz directions: n is the depth the
    policies select where no certified error can change it and each rank
    selected is certified with a gap after it of at least ``(rho + tol) /
    LEADING_MAX_SINE``, else None; ``least`` is a depth they certainly
    select at least."""
    gap = theta - rho - ceiling - rho
    certified = converged & (gap > 0)
    if not certified.any():
        return None, 1
    m = int(np.flatnonzero(certified)[-1]) + 1
    lo = np.append(np.maximum(theta[:m] - slack, 0.0), 0.0)
    hi = theta[:m] + rho[m - 1] + slack
    hi = np.append(hi, min(ceiling[m - 1] + rho[m - 1] + slack, hi[-1]))
    pairs = [(select_rank(lo / total, p), select_rank(hi / total, p)) for p in policies]
    least = max(min(pair) for pair in pairs)
    if all(a == c <= m and certified[a - 1]
           and gap[a - 1] >= (rho[a - 1] + tol) / LEADING_MAX_SINE for a, c in pairs):
        return max(a for a, _ in pairs), least
    return None, least


def _leading_block(g, total, policies, min_ratio):
    """The leading eigenpairs of ``g`` (trace ``total``) as deep as
    ``policies`` read, and ``total`` less their sum, from shifted block
    subspace iteration with a Rayleigh-Ritz step after every sweep; or
    None where the iteration is predicted to cost more than
    ``LEADING_MAX_WORK * d**3`` flops or runs out of that budget.

    After a sweep the block Q (d x b) gives Ritz pairs (theta_i, v_i)
    with residuals r_i = ||G v_i - theta_i v_i||.  G is positive
    semidefinite, so the compression of G to the d - b directions outside
    the block has largest eigenvalue at most its trace, tr G - sum(theta);
    widened by its rounding, that bounds every eigenvalue the block
    missed.  The leading m Ritz pairs are certified when every r_i (i <=
    m) is within ``RITZ_RESIDUAL_MULTIPLE * sqrt(d) * eps * theta_1`` and,
    with rho the norm of those residuals, theta_m - rho clears theta_{m+1}
    + bound + rho: then lambda_i lies in [theta_i, theta_i + rho] for i <=
    m, and lambda_{m+1} is at most theta_{m+1} + bound + rho.  A depth is
    accepted when each policy selects the same rank from the lower and the
    upper ends of those intervals, so no certified error can change it,
    and each of those ranks is itself certified (:func:`_certified_depth`).
    Otherwise the block grows, or sweeps again, while the budget lasts.
    """
    d = g.dim
    if not total > 0:
        return None
    # a tau policy needs n >= (tau tr G / ||G||_F)**2 (Cauchy-Schwarz)
    known = max(
        min(p.k, d) if p.kind == "fixed_k"
        else int(np.ceil(p.tau**2 * total**2 / g.frobenius_sq() * (1 - 1e-12)))
        if p.kind == "cumulative_variance" else 1
        for p in policies
    )

    def cost(b):
        return 2.0 * d * d * b + 10.0 * d * b * b

    b = known + LEADING_OVERSAMPLE
    budget, work = LEADING_MAX_WORK * float(d) ** 3, cost(b)
    if b >= d or 3 * work > budget:
        return None
    rng = np.random.default_rng(0)
    try:
        q = np.linalg.qr(g @ rng.standard_normal((d, b)))[0]
        while True:
            work += cost(b)
            z = g @ q
            h = q.T @ z
            theta, w = np.linalg.eigh((h + h.T) / 2)
            theta, w = theta[::-1], w[:, ::-1]
            if not theta[0] > 0:
                return None
            v, gv = q @ w, z @ w
            resid = np.linalg.norm(gv - v * theta, axis=0)
            # the trace of G compressed to the d - b directions outside the block
            bound = d * _EPS * total + max(total - theta.sum(), 0.0)
            tol = RITZ_RESIDUAL_MULTIPLE * np.sqrt(d) * _EPS * theta[0]
            converged = np.logical_and.accumulate(resid <= tol)
            rho = np.sqrt(np.cumsum(resid**2))
            slack = 4 * d * _EPS * theta[0]
            # ceiling[m - 1] bounds the largest eigenvalue of G compressed to
            # the complement of the leading m Ritz directions, so that
            # lambda_{m+1} <= ceiling[m - 1] + rho_m
            ceiling = np.append(theta[1:], 0.0) + bound
            n, least = _certified_depth(
                theta, converged, rho, ceiling, total, slack, tol, policies)
            known = max(known, least)
            if n is not None:
                if np.sqrt(theta[n - 1]) < min_ratio * np.sqrt(theta[0]):
                    raise _Declined
                return theta[:n], np.ascontiguousarray(v[:, :n]), total - theta[:n].sum()
            # the depth these Ritz values suggest; past the block, at least
            # as many more directions as the missing energy needs at theta_b each
            central = np.append(theta, 0.0) / total
            want = known
            for p in policies:
                r = select_rank(central, p)
                if p.kind == "cumulative_variance" and r > b:
                    r = b + int(np.ceil((p.tau * total - theta.sum()) / max(theta[-1], tol)))
                elif p.kind == "eigen_floor" and r == b:
                    r = 2 * b
                want = max(want, r)
            # lambda_j <= tr G - (lambda_1 + ... + lambda_{j-1}) <= tr G - (theta_1 +
            # ... + theta_{j-1}) for any Ritz values (Ky Fan): decline once the
            # depth's value is certainly below the caller's floor
            j = min(known, b + 1)
            missed = total - theta[: j - 1].sum() + j * d * _EPS * theta[0]
            if min_ratio > 0 and missed < min_ratio**2 * theta[0]:
                raise _Declined
            shift = max(theta[-1], 0.0) / 2
            if want + LEADING_OVERSAMPLE > b or converged[want - 1]:
                # too shallow for that depth, or converged there while the
                # bound outside the block is too loose to certify it: grow
                grown = want + LEADING_OVERSAMPLE if want + LEADING_OVERSAMPLE > b else 2 * b
                if grown >= d or work + 2 * cost(grown) > budget:
                    return None
                y = np.c_[gv - shift * v, rng.standard_normal((d, grown - b))]
                b = grown
            else:
                # each sweep shrinks the residual by about (theta_b - shift) /
                # (theta_n - shift)
                gap = theta[want - 1] - shift
                ratio = max(theta[-1] - shift, 0.0) / gap if gap > 0 else np.inf
                sweeps = (
                    1.0 if ratio == 0.0
                    else np.log(tol / np.max(resid[:want])) / np.log(ratio) if ratio < 1.0
                    else np.inf
                )
                if work + max(sweeps, 1.0) * cost(b) > budget:
                    return None
                y = gv - shift * v
            q = np.linalg.qr(y)[0]
    except np.linalg.LinAlgError:
        return None


def gram_leading(gram, policies, min_ratio: float = 0.0):
    """The leading singular values and right singular vectors of any
    matrix whose Gram matrix ``m.T @ m`` is ``gram``, as deep as the rank
    ``policies`` read, and the energy of the rest.

    ``gram`` is a :class:`LowerGram` the caller has checked is finite,
    read through its lower panels: the strict upper triangle of G is
    never read, and only the full ``eigh`` below needs G in a square.

    Returns ``(s, v, tail)``: the n leading singular values, nonincreasing,
    where n is the deepest rank a policy selects; their right singular
    vectors (d x n, orthonormal columns, each oriented by
    :func:`column_signs`); and ``tail``, the energy of the d - n
    components not returned (tr G - sum(s**2) from the block iteration,
    the sum of the rest from a full ``eigh``), so the ratios are
    ``explained_variance(s, tail)``.  Returns None where s_n <
    ``min_ratio * s_1``.  No policy may read the small end of the spectrum
    (:attr:`RankPolicy.reads_small_end`).

    tr G is exact, so each policy chooses its rank from the leading
    eigenvalues and the energy left over.  Shifted block subspace
    iteration with a Rayleigh-Ritz step (Rutishauser 1970; Halko,
    Martinsson and Tropp 2011) finds those eigenpairs from a fixed start,
    growing its block until the rank and every eigenpair it keeps are
    certified by the trace of what it has not captured
    (:func:`_leading_block`).  Where that is predicted to cost more than
    ``LEADING_MAX_WORK * d**3`` flops, as for a flat spectrum, whose
    Cauchy-Schwarz depth bound (tau tr G / ||G||_F)**2 is already too
    deep, or the trace cannot certify the gap, one full ``eigh`` gives
    both.  A Gram matrix whose largest
    entry lies beyond 2**±``_PLAIN_EXPONENT`` is first divided by an even
    power of two just above it; so every scale gives the same ranks and
    vectors, and values scaled back exactly.

    Forming the Gram matrix squares the condition number: s_i carries an
    absolute error of about eps * s_1**2 / s_i, so only components well
    above sqrt(eps) * s_1 are accurate.
    """
    policies = list(policies)
    if not policies or any(p.reads_small_end for p in policies):
        raise InvalidArgumentError(
            "the leading spectrum serves policies that read only its leading end"
        )
    e = 2 * ((peak_exponent(gram.diagonal()) + 1) // 2)
    if abs(e) <= _PLAIN_EXPONENT:
        e = 0  # every step is exact under power-of-two scaling: solve as given
    g = gram.ldexp(-e) if e else gram
    total = g.trace()
    try:
        lam, v, tail = _leading_block(g, total, policies, min_ratio) or _leading_eigh(
            g, policies, min_ratio
        )
    except _Declined:
        return None
    v *= column_signs(v)
    tail = float(np.ldexp(max(tail, 0.0), e))
    s = np.ldexp(np.sqrt(lam), e // 2)
    s.flags.writeable = False
    return s, v, tail


def operator_norm(a):
    """Largest absolute eigenvalue of a finite symmetric matrix, as a float,
    or of each matrix in a (..., d, d) stack, as an array of shape
    ``a.shape[:-2]``.

    One ``np.linalg.eigvalsh`` gives the extreme eigenvalues w[0] and w[-1];
    the result is max(-w[0], w[-1]), exact to backward-stable rounding at
    every scale (the matrix is never squared, so nothing underflows or
    overflows).  Each matrix must be real, finite and symmetric within
    1e-10 * max(1, its max |a_ij|); eigvalsh reads its lower triangle.  A
    zero matrix (and an empty one) has norm 0.0.  A stack is solved in one
    call, and each of its norms equals the one its matrix gets alone.
    """
    a = as_real(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix contains non-finite entries")
    norm = np.zeros(a.shape[:-2])
    scale = np.maximum(np.max(a, axis=(-2, -1)), -np.min(a, axis=(-2, -1))) if a.size else norm
    if np.any(scale > 0.0):
        # halving first keeps entries near the float64 limit from overflowing;
        # matrix by matrix, so a stack makes no stack-sized temporaries
        skew = [np.max(np.abs(m / 2.0 - m.T / 2.0)) for m in a.reshape(-1, *a.shape[-2:])]
        if np.any(np.reshape(skew, scale.shape) > 0.5e-10 * np.maximum(1.0, scale)):
            raise InvalidArgumentError("matrix is not symmetric within 1e-10")
        try:
            w = np.linalg.eigvalsh(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError("symmetric eigensolve did not converge (LAPACK)") from exc
        norm = np.where(scale > 0.0, np.maximum(-w[..., 0], w[..., -1]), 0.0)
    return float(norm) if a.ndim == 2 else norm
