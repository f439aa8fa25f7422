"""Truncated zero-centered higher-order SVD of order-2 and order-3 stacks.

Pipeline: subtract the mean (feature-wise along the stacking mode by
default, or one global scalar), find each mode's leading singular
vectors, keep as many as that mode's rank policy asks for, and contract
the centered stack with the factor transposes to get the core.
Reconstruction multiplies the core back through every factor and adds
the mean.

Order-2 stacks (rows = models' stacked rows, columns = features) are
plain PCA of one matrix Xc, and their two mode unfoldings are Xc and its
transpose, so one thin SVD of Xc serves both modes.  An order-3 stack
takes one thin SVD of each of its three mode unfoldings.  Every factor
column is oriented so its largest-magnitude entry is nonnegative.
:func:`hosvd_truncated` is the in-memory reference; :func:`exact_subspace`,
for extraction, keeps only the non-stacking modes and forms no core.

An order-2 stack too large to hold is fed to :class:`GramStream` one
slab at a time, float32 or float64.  It keeps the column mean, the lower
row panels of the centred d x d Gram matrix G = Xc.T @ Xc
(:class:`~uws.spectral.LowerGram`) and the row count, merging blocks of
``GRAM_BLOCK_ROWS`` rows with the pairwise update of Chan, Golub and
LeVeque (1979); every merged term is positive semidefinite, so no common
offset costs accuracy.  Its result carries no stacking-mode factor or
core, and comes from the Gram route:

- :func:`~uws.spectral.gram_leading` finds, of G, only the leading
  eigenpairs that the policies retain or read, and tr G less their sum
  as the energy of the rest (a certified block iteration where that is
  cheap, else one ``eigh``); no other spectrum is computed or kept.
  Squaring the condition number leaves s_i an absolute error of about
  eps * s_1**2 / s_i, and the feature directions at depth r an error of
  about eps * (s_1 / s_r)**2 against the exact SVD's.
- A guard declines the route, and the caller stacks the rows for the
  exact SVD, whenever it could lose accuracy that a result depends on:
  the stack is wider than tall, a policy is ``cumulative_variance(tau=1)``
  or ``hard_threshold`` (both read the small end of the spectrum), or
  the deepest component retained or read is below 1e-3 * s_1, where that
  error could exceed about 2e-10.  It also declines a stack whose Gram
  matrix overflows (entries beyond about 1e150) or whose s_1**2 is below
  ``GRAM_MIN_SQUARE`` (about 2**-950), where products underflowing in
  the Gram could move the smallest eigenvalue it may use; the SVD and
  the variance checks, which rescale before squaring, serve any finite
  stack.

A "member" is what one contributor adds to the stack, the unit that is
projected and rebuilt (:func:`project_slice`, :func:`reconstruct_slice`):
an r x d matrix, a slab of rows of an order-2 stack or one index of the
stacking mode of an order-3 one.  New members are expressed in the
shared basis without the stacking-mode factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .spectral import (
    DEFAULT_POLICY,
    LowerGram,
    RankPolicy,
    column_signs,
    explained_variance,
    gram_leading,
    select_rank,
    thin_svd,
)
from .tensor import as_real, as_tensor, frobenius_norm, int_at_least

CENTERINGS = ("feature", "global")

#: The Gram route serves an order-2 stack only while every component it
#: retains or reads has s_i >= GRAM_MIN_RATIO * s_1 (lambda_i >= 1e-6 *
#: lambda_1); deeper, the error of its directions, about
#: eps * (s_1 / s_i)**2, could exceed 2e-10.
GRAM_MIN_RATIO = 1e-3

#: The Gram route also needs s_1**2 >= GRAM_MIN_SQUARE, so that the
#: smallest eigenvalue it may use, GRAM_MIN_RATIO**2 * s_1**2, is a normal
#: number whose rounding (eps times it) is normal too: below that,
#: products that underflow in Xc.T @ Xc can move it by more than the
#: route's own rounding.  About 2**-950.
GRAM_MIN_SQUARE = np.finfo(np.float64).tiny / np.finfo(np.float64).eps / GRAM_MIN_RATIO**2

#: :class:`GramStream` merges its rows into the Gram matrix one block of
#: this many at a time, at every width, so the block is a fixed
#: 512 x d float64 array beside the Gram's panels.
GRAM_BLOCK_ROWS = 512

@dataclass(frozen=True)
class ModeSpectrum:
    """Leading spectrum of one mode's unfolding, the energy of the rest,
    and what was retained.

    The exact route keeps the whole spectrum and a ``tail`` of 0; the
    Gram route keeps the components as deep as a rank reads and, in
    ``tail``, the energy (sum of squares) of the others.  ``ratios`` are
    ``explained_variance(singular_values, tail)``.  ``first_component``
    is 0 for a primary subspace; a secondary (residual) subspace retains
    the window starting right after the primary one.
    """

    singular_values: np.ndarray
    ratios: np.ndarray
    retained: int
    first_component: int = 0
    tail: float = 0.0

    @property
    def tail_ratio(self) -> float:
        """The share of the energy that ``tail`` holds: 0 when it is 0,
        otherwise what the listed components leave of 1."""
        return max(0.0, 1.0 - float(np.sum(self.ratios))) if self.tail else 0.0


@dataclass
class SubspaceModel:
    """Mean, per-mode orthonormal factors, truncated core, and the
    explained-variance ledger of a decomposed stack.

    A model from :class:`GramStream`, :func:`exact_subspace` or a
    subspace file has no stacking-mode factor (that entry of ``factors``
    is None) and no core: it projects and rebuilds members, but cannot
    :func:`reconstruct` the stack it came from.
    """

    mu: np.ndarray
    factors: list[np.ndarray | None]
    core: np.ndarray | None
    variance_ledger: dict[int, ModeSpectrum]
    centering: str
    shape: tuple[int, ...] = ()
    slab_extent: int | None = None

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def ranks(self) -> tuple[int | None, ...]:
        return tuple(None if f is None else f.shape[1] for f in self.factors)


@dataclass
class SliceCoefficients:
    """One member expressed in the factor basis: r x k2 for an order-2
    slab, which keeps its rows, and k2 x k3 for order 3."""

    coeffs: np.ndarray


def check_centering(centering) -> None:
    if centering not in CENTERINGS:
        raise InvalidArgumentError(f"centering must be one of {CENTERINGS}, got {centering!r}")


def center(x, centering: str = "feature") -> tuple[np.ndarray, np.ndarray]:
    """Split ``x`` into a mean and a zero-centered remainder.

    ``global`` subtracts the scalar mean of all entries; ``feature``
    subtracts the mean over the stacking mode (mode 1), of shape
    ``x.shape[1:]``: one stacked row for order 2, one member for order
    3.  Either way ``centered + mu`` restores ``x``.
    """
    check_centering(centering)
    arr = as_tensor(x)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("tensor contains non-finite entries")
    if centering == "global":
        mu = np.float64(arr.mean())
    else:
        mu = arr.mean(axis=0)
    return mu, arr - mu


def _policy_list(policies, order: int) -> list[RankPolicy]:
    if isinstance(policies, RankPolicy):
        return [policies] * order
    policies = list(policies)
    if len(policies) != order:
        raise InvalidArgumentError(
            f"need one policy per mode ({order}), got {len(policies)}"
        )
    if not all(isinstance(p, RankPolicy) for p in policies):
        raise InvalidArgumentError("policies must be RankPolicy instances")
    return policies


def gram_eligible(shape, policies) -> bool:
    """Whether an order-2 stack of ``shape`` may take the Gram route at
    all: it is at least as tall as wide, and no policy reads the small
    end of the spectrum (``hard_threshold``, ``cumulative_variance`` with
    tau = 1)."""
    return shape[0] >= shape[1] and not any(p.reads_small_end for p in policies)


def _order2_svd(xc: np.ndarray):
    """``(s, u, v)`` of one thin SVD of a centered order-2 stack: all
    min(rows, cols) singular values and the stacking and feature
    directions, each column oriented by :func:`column_signs`."""
    f = thin_svd(xc)
    return f.singular_values, f.u, f.v * column_signs(f.v)


def _order2_truncation(s, tail, u, v, policies, shape):
    """Truncated factors (the stacking one None when ``u`` is) and the
    ledger of an order-2 decomposition, whose two modes share one
    spectrum; ``tail`` is the energy of the values ``s`` does not list."""
    ratios = explained_variance(s, tail)
    r1, r2 = (
        select_rank(ratios, p, singular_values=s, shape=sh)
        for p, sh in zip(policies, (tuple(shape), tuple(shape)[::-1]))
    )
    factors = [
        None if u is None else np.ascontiguousarray(u[:, :r1]),
        np.ascontiguousarray(v[:, :r2]),
    ]
    ledger = {
        mode: ModeSpectrum(singular_values=s, ratios=ratios, retained=r, tail=tail)
        for mode, r in ((1, r1), (2, r2))
    }
    return factors, ledger


def _require_variance(centred_norm, norm, centering: str) -> None:
    """An ensemble whose members are (numerically) identical leaves
    nothing behind once the mean is removed; rounding keeps the remainder
    from being exactly zero, so compare against the input's own scale."""
    if centred_norm <= 1e-13 * norm:
        raise DegenerateSpectrumError(f"no variance left after {centering} centering")


def _contract(factors: list[np.ndarray], m: np.ndarray) -> np.ndarray:
    """``M @ V`` or ``U2.T @ M @ U3`` for each member M in ``m``."""
    if len(factors) == 1:
        return m @ factors[0]
    u2, u3 = factors
    return u2.T @ m @ u3


def _expand(factors: list[np.ndarray], c: np.ndarray) -> np.ndarray:
    """``C @ V.T`` or ``U2 @ C @ U3.T`` for each coefficient block C in ``c``."""
    if len(factors) == 1:
        return c @ factors[0].T
    u2, u3 = factors
    return u2 @ c @ u3.T


def _core(xc: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """``U1.T`` times Xc as a T x (r*d) matrix, then each of the k1
    members this gives contracted: ``U1.T @ Xc @ U2`` for order 2."""
    g = factors[0].T @ xc.reshape(len(xc), -1)
    return _contract(factors[1:], g.reshape(-1, *xc.shape[1:]))


def _centred(x, policies, centering: str):
    """The stack as a tensor, one policy per mode, and its checked :func:`center` split."""
    x = as_tensor(x)
    per_mode = _policy_list(policies, x.ndim)
    if not np.any(x):
        raise DegenerateSpectrumError("tensor is identically zero")
    mu, xc = center(x, centering)
    _require_variance(frobenius_norm(xc), frobenius_norm(x), centering)
    return x, per_mode, mu, xc


def _mode_truncation(xc: np.ndarray, policies, modes):
    """Truncated factors and ledger of the ``modes`` of a centered
    order-3 stack, from one thin SVD of each mode's unfolding."""
    factors, ledger = [], {}
    for mode in modes:
        m = np.reshape(np.moveaxis(xc, mode - 1, 0), (xc.shape[mode - 1], -1), order="F")
        f = thin_svd(m)
        ratios = explained_variance(f.singular_values)
        r = select_rank(
            ratios, policies[mode - 1], singular_values=f.singular_values, shape=m.shape
        )
        factors.append(np.ascontiguousarray(f.u[:, :r]))
        ledger[mode] = ModeSpectrum(singular_values=f.singular_values, ratios=ratios, retained=r)
    return factors, ledger


def hosvd_truncated(
    x,
    policies=DEFAULT_POLICY,
    *,
    centering: str = "feature",
    slab_extent: int | None = None,
) -> SubspaceModel:
    """Zero-center ``x`` and truncate every mode of the centered tensor.

    An order-2 stack takes one thin SVD, whose spectrum both modes
    share, and the core is ``U1.T @ Xc @ U2``; an order-3 stack takes one
    thin SVD per mode unfolding.  This is the exact reference that a
    :class:`GramStream`'s result is checked against.

    Parameters
    ----------
    x : array_like
        The stack, order 2 (stacked rows x features) or 3 (members x
        rows x features), whose mode 1 enumerates the stacked slabs.
    policies : RankPolicy or sequence of RankPolicy
        Rank selection, shared or per mode.
    centering : {"feature", "global"}
    slab_extent : int, optional
        Rows of one member's slab of an order-2 stack; recorded so
        projection can validate its input.
    """
    x, per_mode, mu, xc = _centred(x, policies, centering)
    if x.ndim == 2:
        s, u, v = _order2_svd(xc)
        factors, ledger = _order2_truncation(s, 0.0, u, v, per_mode, xc.shape)
    else:
        factors, ledger = _mode_truncation(xc, per_mode, (1, 2, 3))
    return SubspaceModel(
        mu=mu,
        factors=factors,
        core=_core(xc, factors),
        variance_ledger=ledger,
        centering=centering,
        shape=x.shape,
        slab_extent=slab_extent,
    )


def exact_subspace(x, policies, *, centering: str, slab_extent: int) -> SubspaceModel:
    """What a subspace file holds of the stack ``x``, by the exact route
    alone: the mean, and each non-stacking mode's truncated factor and
    ledger from one thin SVD of its unfolding (of the stack itself for
    order 2, whose ledger lists both modes, as a loaded file's does).
    No stacking-mode factor or core is formed.  The arguments, errors and
    each result match :func:`hosvd_truncated`'s bit for bit.
    """
    x, per_mode, mu, xc = _centred(x, policies, centering)
    if x.ndim == 2:
        s, _, v = _order2_svd(xc)
        factors, ledger = _order2_truncation(s, 0.0, None, v, per_mode, xc.shape)
    else:
        factors, ledger = _mode_truncation(xc, per_mode, (2, 3))
        factors.insert(0, None)
    return SubspaceModel(mu=mu, factors=factors, core=None, variance_ledger=ledger,
                         centering=centering, shape=x.shape, slab_extent=slab_extent)


class GramStream:
    """An order-2 stack fed one row slab at a time, reduced to its column
    mean, the lower triangle of its centred Gram matrix and its row count;
    the stack itself is never held.

    :meth:`add` copies float32 or float64 slabs into a float64 block of
    ``GRAM_BLOCK_ROWS`` rows; that copy is the only conversion a float32
    slab gets.  Each full block B, of n_b rows and mean m_b, is centred on
    its own mean and merged into the running totals, of n_a rows and mean
    m_a, by the pairwise update of Chan, Golub and LeVeque (1979)::

        G = G_a + (B - m_b).T @ (B - m_b)
                + (n_a * n_b / n) * (m_b - m_a).T @ (m_b - m_a)

    The block has one spare row, which takes sqrt(n_a * n_b / n) *
    (m_b - m_a), so the products ``C.T @ C`` of the centred rows and that
    row add both terms to G.  G is a :class:`~uws.spectral.LowerGram`:
    its lower row panels of w = ``uws.spectral.GRAM_PANEL_COLS`` rows, d
    (d + w) / 2 doubles, which a merge adds to one product at a time and
    the leading solve reads as they are.  No upper triangle is formed,
    and :meth:`decompose` leaves the panels as they were, so later rows
    add to the same sums; a full ``eigh`` moves them into one d x d
    square, whose views they then are.  :attr:`gram` assembles the
    symmetric matrix for inspection.  Every term is positive
    semidefinite, so nothing cancels: the merged Gram carries the
    rounding of ``Xc.T @ Xc`` whatever the ensemble's common offset.  A
    block whose squares overflow leaves the totals non-finite, and
    :meth:`decompose` declines them, as it declines a stack whose squared
    norm is below ``GRAM_MIN_SQUARE``.  Memory is the panels plus one
    block and one w x d product, and the block is freed by :meth:`flush`.
    """

    def __init__(self, cols: int):
        if isinstance(cols, bool) or not isinstance(cols, (int, np.integer)) or cols < 1:
            raise InvalidArgumentError(f"a stream needs a positive int column count, got {cols!r}")
        self.cols = int(cols)
        self.rows = 0
        self.mean = np.zeros(self.cols)
        self._gram = LowerGram.zeros(self.cols)
        self.sumsq = 0.0  # ||X||_F**2, the scale the variance check compares with
        self.nonzero = False  # whether any entry is, though every square may underflow
        self._block = None  # GRAM_BLOCK_ROWS rows plus the spare one, made by add
        self._fill = 0

    @property
    def gram(self) -> np.ndarray:
        """The centred Gram matrix of the rows merged so far, as a new
        symmetric d x d array assembled from the stored lower triangle."""
        return self._gram.symmetric()

    def add(self, slab) -> None:
        """Append the rows of one slab, float32 or float64, to the stack."""
        slab = np.asarray(slab)
        if slab.dtype != np.float32:
            slab = as_real(slab)
        if slab.ndim != 2 or slab.shape[1] != self.cols:
            raise InvalidArgumentError(
                f"slab of shape {slab.shape} does not fit a stack of {self.cols} columns"
            )
        if not np.all(np.isfinite(slab)):
            raise InvalidArgumentError("tensor contains non-finite entries")
        if self._block is None:
            self._block = np.empty((GRAM_BLOCK_ROWS + 1, self.cols))
        start = 0
        while start < slab.shape[0]:
            take = min(slab.shape[0] - start, GRAM_BLOCK_ROWS - self._fill)
            self._block[self._fill : self._fill + take] = slab[start : start + take]
            self._fill += take
            start += take
            if self._fill == GRAM_BLOCK_ROWS:
                self._merge_block()

    def _merge_block(self) -> None:
        n_b, self._fill = self._fill, 0
        block = self._block[:n_b]
        n = self.rows + n_b
        self.nonzero = self.nonzero or bool(np.any(block))
        with np.errstate(over="ignore", invalid="ignore"):
            self.sumsq += float(np.vdot(block, block))
            m_b = block.mean(axis=0)
            block -= m_b
            step = m_b - self.mean
            self._block[n_b] = step * np.sqrt(self.rows * n_b / n)
            self._gram.add_gram_of(self._block[: n_b + 1])
            self.mean += step * (n_b / n)
        self.rows = n

    def flush(self) -> None:
        """Merge the rows still in the block, and free the block."""
        if self._fill:
            self._merge_block()
        self._block = None

    def decompose(
        self,
        policies=DEFAULT_POLICY,
        *,
        centering: str = "feature",
        slab_extent: int | None = None,
    ) -> SubspaceModel | None:
        """The truncated subspace of the rows added so far, found on the
        Gram route (:func:`~uws.spectral.gram_leading`) with no
        stacking-mode factor or core.  It matches :func:`exact_subspace` of
        the stacked rows to within the accuracy stated in the module
        docstring: retained factors agree to about eps * (s_1 / s_r)**2
        and each singular value s_i to about eps * s_1**2 / s_i.

        Returns None where the guard declines the route: the stack is not
        :func:`gram_eligible`, its squared norm overflows, s_1**2 (or tr G
        >= s_1**2, before the solve) is below ``GRAM_MIN_SQUARE``, the Gram
        is not finite, or the deepest component read is below
        ``GRAM_MIN_RATIO * s_1``, which the leading solve reports as soon
        as that is certain.  The caller then decomposes the stacked matrix
        with :func:`exact_subspace`.  The error cases match it: a zero
        stack or one with no variance left after centering raises
        DegenerateSpectrumError.
        """
        check_centering(centering)
        per_mode = _policy_list(policies, 2)
        self.flush()
        shape = (self.rows, self.cols)
        if self.rows == 0:
            raise InvalidArgumentError("no rows to decompose")
        if not self.nonzero:
            raise DegenerateSpectrumError("tensor is identically zero")
        if not (gram_eligible(shape, per_mode) and GRAM_MIN_SQUARE <= self.sumsq < np.inf):
            return None
        gram, mu = self._gram, self.mean.copy()
        if centering == "global":
            # about the grand mean: add the column means' spread around it
            spread = mu - mu.mean()
            gram = gram.plus_outer(spread, self.rows)
            mu = np.float64(mu.mean())
        _require_variance(np.sqrt(gram.trace()), np.sqrt(self.sumsq), centering)
        if not gram.all_finite() or gram.trace() < GRAM_MIN_SQUARE:
            return None
        found = gram_leading(gram, per_mode, GRAM_MIN_RATIO)
        if found is None or found[0][0] ** 2 < GRAM_MIN_SQUARE:
            return None
        s, v, tail = found
        factors, ledger = _order2_truncation(s, tail, None, v, per_mode, shape)
        return SubspaceModel(
            mu=mu,
            factors=factors,
            core=None,
            variance_ledger=ledger,
            centering=centering,
            shape=shape,
            slab_extent=slab_extent,
        )


def reconstruct(model: SubspaceModel) -> np.ndarray:
    """``mu`` plus ``U1`` times the core as a k1 x (k2*k3) matrix, each of
    the T members this gives expanded: ``U1 @ core @ U2.T + mu`` for order 2."""
    if model.core is None or any(f is None for f in model.factors):
        raise InvalidArgumentError(
            "rebuilding the stack needs the stacking-mode factor and core, which a "
            "streamed or reloaded subspace does not keep"
        )
    try:
        core = model.core
        g = (model.factors[0] @ core.reshape(len(core), -1)).reshape(-1, *core.shape[1:])
        return _expand(model.factors[1:], g) + np.asarray(model.mu)
    except ValueError as exc:
        raise InternalConsistencyError(
            f"stored factors/core/mu are mutually inconsistent: {exc}"
        ) from exc


def project_slice(model: SubspaceModel, member) -> SliceCoefficients:
    """Express one member M, an r x d slab of an order-2 stack (r =
    ``slab_extent`` when set) or a matrix of shape ``shape[1:]`` of an
    order-3 one, in the factor basis.

    ``(M - mu) @ V`` for order 2, ``U2.T @ (M - mu) @ U3`` for order 3;
    the projection is orthogonal, so among all subspace members the
    reconstruction from these coefficients is the Frobenius-closest one.
    """
    member = as_tensor(member)
    if model.order == 3:
        want = model.shape[1:]
    else:
        want = (model.slab_extent or member.shape[0], *model.shape[1:])
    if member.shape != want:
        raise InvalidArgumentError(
            f"member of shape {member.shape} does not fit stack shape {model.shape}: "
            f"expected {want}"
        )
    t = member - np.asarray(model.mu)
    return SliceCoefficients(coeffs=_contract(model.factors[1:], t))


def reconstruct_slice(model: SubspaceModel, coeffs: SliceCoefficients) -> np.ndarray:
    """``C @ V.T + mu`` for order 2, ``U2 @ C @ U3.T + mu`` for order 3.
    Order-2 coefficients keep the member's rows, ``slab_extent`` of them
    when it is set."""
    arr = np.asarray(coeffs.coeffs, dtype=np.float64)
    ranks = tuple(u.shape[1] for u in model.factors[1:])
    if model.order == 3:
        want = ranks
    else:  # an order-2 slab keeps its rows
        want = (model.slab_extent or (arr.shape[0] if arr.ndim == 2 else -1), *ranks)
    if arr.shape != want:
        raise InvalidArgumentError(
            f"coefficients of shape {arr.shape} do not fit retained ranks {ranks} "
            f"of an order-{model.order} stack: expected {want}"
        )
    return _expand(model.factors[1:], arr) + np.asarray(model.mu)


def secondary_subspace(x, model: SubspaceModel, k2: int) -> SubspaceModel:
    """The residual subspace of an order-2 stack: per mode, the ``k2``
    directions that follow the primary ones in the stack's spectrum.

    The returned model shares the primary mean, its factors are exactly
    orthogonal to the primary factors, and its variance ledger records
    where in the full spectrum its window starts.  The stack takes the
    single thin SVD of :func:`hosvd_truncated`; it needs only the primary
    feature factor, so a streamed or reloaded model serves.
    """
    k2 = int_at_least(k2, "k2", 1)
    x = as_tensor(x)
    if x.ndim != 2:
        raise InvalidArgumentError(
            "a secondary subspace needs an order-2 stack: an order-3 one would need the "
            "stacking-mode factor and core, which extraction does not keep"
        )
    if x.shape != model.shape:
        raise InvalidArgumentError(
            f"tensor shape {x.shape} does not match the model's stack shape {model.shape}"
        )
    firsts = [model.variance_ledger[mode].retained for mode in (1, 2)]
    for mode, r1 in enumerate(firsts, start=1):
        avail = min(x.shape) - r1
        if k2 > avail:
            raise InvalidArgumentError(
                f"k2={k2} exceeds the {avail} directions remaining along mode {mode}"
            )
    xc = x - np.asarray(model.mu)
    # U1 = Xc V / s, so the residual after removing the primary subspace
    # along both modes is Xc - Xc Vm Vm.T with m = min(r1, r2): the
    # feature factor alone gives the projection
    v = model.factors[1][:, : min(firsts)]
    if np.linalg.norm(xc - (xc @ v) @ v.T) <= 1e-12 * np.linalg.norm(xc):
        raise DegenerateSpectrumError(
            "residual is numerically zero; the primary subspace already explains the stack"
        )
    s, u, v = _order2_svd(xc)
    factors = [np.ascontiguousarray(f[:, r1 : r1 + k2]) for f, r1 in zip((u, v), firsts)]
    ratios = explained_variance(s)
    ledger = {
        mode: ModeSpectrum(singular_values=s, ratios=ratios, retained=k2, first_component=r1)
        for mode, r1 in enumerate(firsts, start=1)
    }
    return SubspaceModel(
        mu=model.mu,
        factors=factors,
        core=_core(xc, factors),
        variance_ledger=ledger,
        centering=model.centering,
        shape=model.shape,
        slab_extent=model.slab_extent,
    )
