"""Truncated zero-centered higher-order SVD of order-2 and order-3 stacks.

Pipeline: subtract the mean (feature-wise along the stacking mode by
default, or one global scalar), find each non-stacking mode's leading
singular vectors and keep as many as the rank policy asks for.  No
route forms the stacking mode's factor or the core: a member is
projected onto the kept factors, and rebuilt by multiplying its
coefficients back through them and adding the mean.

A mode's fibres, laid out as the rows of one matrix in any order, have
that mode's factor as their right singular vectors (De Lathauwer, De Moor
and Vandewalle, 2000): the feature mode's are the stacked rows, (T*r) x d,
and mode 2 of order 3 takes each member's columns, (T*d) x r.  One kernel
takes one thin SVD of that matrix and truncates its right factor by the
policy, so an order-2 stack is plain PCA of one matrix Xc.  Each factor
column's largest-magnitude entry is made nonnegative.  :func:`exact_subspace`
centres the stack in place and decomposes it this way.

An order-2 stack too large to hold is fed to :class:`GramStream` one
slab at a time, float32 or float64, and decomposed once from the lower
row panels of its centred d x d Gram matrix G = Xc.T @ Xc
(:class:`~uws.spectral.LowerGram`), by the Gram route:

- :func:`~uws.spectral.gram_leading` finds, of G, only the leading
  eigenpairs that the policy retains or reads, and tr G less their sum
  as the energy of the rest (a certified block iteration where that is
  cheap, else one ``eigh``); no other spectrum is computed or kept.
  Squaring the condition number leaves s_i an absolute error of about
  eps * s_1**2 / s_i, and the feature directions at depth r an error of
  about eps * (s_1 / s_r)**2 against the exact SVD's.
- The route serves a stack or declines it (None), and extraction then
  stacks the rows for :func:`exact_subspace`, the one route that refuses
  a stack.  :func:`gram_eligible`, :meth:`GramStream.decompose` and
  :func:`~uws.spectral.gram_leading` each state the declines they decide.

A "member" is what one contributor adds to the stack, the unit that is
projected and rebuilt (:func:`project_slice`, :func:`reconstruct_slice`):
an r x d matrix, a slab of rows of an order-2 stack or one index of the
stacking mode of an order-3 one.  New members are expressed in the
shared basis.  A :class:`SubspaceModel` holds no stack shape: a member
is checked against its factors' rows, and the layer shapes that stacks
were built from are :mod:`uws.ensemble`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, InvalidArgumentError, NumericalFailureError
from .spectral import (
    DEFAULT_POLICY,
    GRAM_MIN_SQUARE,
    LowerGram,
    RankPolicy,
    check_policy,
    column_signs,
    explained_variance,
    gram_leading,
    select_rank,
)
from .tensor import as_real, as_tensor, finite_entries, frobenius_norm, int_at_least, one_of

CENTERINGS = ("feature", "global")

#: :class:`GramStream` merges its rows into the Gram matrix one block of
#: this many at a time, at every width, so the block is a fixed
#: 512 x d float64 array beside the Gram's panels.
GRAM_BLOCK_ROWS = 512

@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Leading spectrum of one mode's unfolding and the energy of the rest.

    The exact route keeps the whole spectrum and a ``tail`` of 0; the
    Gram route keeps the components as deep as a rank reads and, in
    ``tail``, the energy (sum of squares) of the others.  ``ratios`` are
    derived here, as ``explained_variance(singular_values, tail)``; the
    rank is the factor's width (:attr:`SubspaceModel.ranks`).
    """

    singular_values: np.ndarray
    tail: float = 0.0
    ratios: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ratios", explained_variance(self.singular_values, self.tail))

    @property
    def tail_ratio(self) -> float:
        """The share of the energy that ``tail`` holds: 0 when it is 0,
        otherwise what the listed components leave of 1."""
        return max(0.0, 1.0 - float(np.sum(self.ratios))) if self.tail else 0.0


@dataclass(eq=False)
class SubspaceModel:
    """What a subspace file holds of one decomposed stack: the mean (a
    scalar under global centering, one stacked row or one member under
    feature centering), the orthonormal factors of the non-stacking modes
    in mode order (``(V,)`` for order 2, ``(U2, U3)`` for order 3, so
    ``factors[-1]`` is the feature basis) and one :class:`ModeSpectrum`
    per factor.  :class:`GramStream`, :func:`exact_subspace` and a
    subspace file all give one; it projects and rebuilds members.
    """

    mu: np.ndarray
    factors: tuple[np.ndarray, ...]
    spectra: tuple[ModeSpectrum, ...]

    @property
    def order(self) -> int:
        return len(self.factors) + 1

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.factors)


@dataclass(eq=False)
class SliceCoefficients:
    """One member expressed in the factor basis: r x k2 for an order-2
    slab, which keeps its rows, and k2 x k3 for order 3."""

    coeffs: np.ndarray


def gram_eligible(shape, policy: RankPolicy) -> bool:
    """Whether an order-2 stack of ``shape`` may take the Gram route at
    all: it is at least as tall as wide, and the policy does not read the
    small end of the spectrum (``hard_threshold``, ``cumulative_variance``
    with tau = 1)."""
    return shape[0] >= shape[1] and not policy.reads_small_end


def _truncation(s, v, tail, policy, shape):
    """A mode's factor, the columns of its right singular vectors ``v`` that
    the policy keeps of the values ``s`` of a ``shape`` matrix, and its
    :class:`ModeSpectrum`; ``tail`` is the energy of the values not listed."""
    spectrum = ModeSpectrum(singular_values=s, tail=tail)
    r = select_rank(spectrum.ratios, policy, singular_values=s, shape=shape)
    return np.ascontiguousarray(v[:, :r]), spectrum


def _has_variance(centred_norm, norm) -> bool:
    """Whether a stack of norm ``norm`` keeps variance once centred:
    rounding keeps (numerically) identical members from centring to
    exactly zero, so compare against the input's own scale."""
    return centred_norm > 1e-13 * norm


def _contract(factors, m: np.ndarray) -> np.ndarray:
    """``M @ V`` or ``U2.T @ M @ U3`` for each member M in ``m``."""
    if len(factors) == 1:
        return m @ factors[0]
    u2, u3 = factors
    return u2.T @ m @ u3


def _expand(factors, c: np.ndarray) -> np.ndarray:
    """``C @ V.T`` or ``U2 @ C @ U3.T`` for each coefficient block C in ``c``."""
    if len(factors) == 1:
        return c @ factors[0].T
    u2, u3 = factors
    return u2 @ c @ u3.T


def _centred(x: np.ndarray, policy, centering: str):
    """The mean of the float64 tensor ``x`` and ``x`` itself, centred in
    place: ``global`` subtracts the scalar mean of all entries, ``feature``
    the mean over the stacking mode (mode 1), one stacked row or one member."""
    check_policy(policy)
    if not np.any(x):
        raise DegenerateSpectrumError("tensor is identically zero")
    norm = frobenius_norm(x)
    one_of(centering, "centering", CENTERINGS)
    finite_entries(x, "x")
    mu = x.mean(axis=None if centering == "global" else 0)
    x -= mu
    if centering == "global":  # a second pass takes out what the rounded mean left
        rest = x.mean()
        x -= rest
        mu += rest
    if not _has_variance(frobenius_norm(x), norm):
        raise DegenerateSpectrumError(f"no variance left after {centering} centering")
    return mu, x


def _fibres(xc: np.ndarray, mode: int) -> np.ndarray:
    """The mode-``mode`` fibres of the centred stack ``xc`` as the rows of
    one matrix, whose right singular vectors are that mode's factor."""
    if mode == xc.ndim:  # the stacked rows, (T*r) x d, a view
        return xc.reshape(-1, xc.shape[-1])
    return xc.transpose(0, 2, 1).reshape(-1, xc.shape[1])  # each member's columns, one copy


def _mode_factor(xc: np.ndarray, mode: int, policy):
    """The truncated factor and spectrum of one mode of the centred
    ``xc``, from one thin SVD of its :func:`_fibres`: the right singular
    vectors, each oriented by :func:`~uws.spectral.column_signs`; tall
    fibres through their R factor (R-SVD, Chan 1982), but ranked by their
    own shape.  The rows hold the entries of a stack :func:`_centred` has
    checked, so they are checked no more."""
    rows = _fibres(xc, mode)
    try:
        r = np.linalg.qr(rows, mode="r") if rows.shape[0] > rows.shape[1] else rows
        _, s, vt = np.linalg.svd(r, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("thin SVD did not converge (LAPACK)") from exc
    s.flags.writeable = False
    return _truncation(s, vt.T * column_signs(vt.T), 0.0, policy, rows.shape)


def exact_subspace(x, policy: RankPolicy, *, centering: str) -> SubspaceModel:
    """What a subspace file holds of the stack ``x``, by the exact route
    alone: the mean, and each non-stacking mode's truncated factor and
    spectrum from one thin SVD of its fibres laid out as rows (the
    stacked rows for the feature mode, each member's columns for mode 2
    of order 3).  A float64 ``x`` is centred in place (pass a copy to
    keep it).
    """
    mu, xc = _centred(as_tensor(x, "x"), policy, centering)
    # each mode's singular vectors are dropped before the next mode's SVD
    factors, spectra = zip(*(_mode_factor(xc, m, policy) for m in range(2, xc.ndim + 1)))
    return SubspaceModel(mu=mu, factors=factors, spectra=spectra)


class GramStream:
    """An order-2 stack fed one row slab at a time, then decomposed once;
    the stack itself is never held.

    :meth:`add` copies float32 or float64 slabs into a float64 block of
    ``GRAM_BLOCK_ROWS`` rows, the only conversion a float32 slab gets.
    Every row is merged about one reference row r, the first block's mean
    (shifted data, Chan, Golub and LeVeque 1983): a full block B adds the
    column sums of B - r to s and ``(B - r).T @ (B - r)`` to G, a
    :class:`~uws.spectral.LowerGram` of d (d + w) / 2 doubles, w =
    ``uws.spectral.GRAM_PANEL_COLS``.  Where a common offset dominates,
    B - r is exact, so the offset's rounding never reaches G; a mean
    that drifts by m from r costs G about eps n |m|**2.  :meth:`decompose`
    centres G in place, subtracting n (s / n) (s / n).T, and hands it to
    the solve, which owns it: the stream then refuses more rows and a
    second decompose.  Until then :attr:`mean` and :attr:`gram` give the
    column mean r + s / n and the centred Gram of the rows merged so far.
    A block whose squares overflow leaves the totals non-finite, which
    the solve declines.  Memory is the panels, one block and one w x d
    product; :meth:`flush` frees the block.
    """

    def __init__(self, cols: int):
        self.cols = int_at_least(cols, "cols", 1)
        self.rows = 0
        self.reference = np.zeros(self.cols)  # r, made by the first merge
        self.total = np.zeros(self.cols)  # s, the column sums of the rows less r
        self._gram = LowerGram.zeros(self.cols)  # about r; None once decomposed
        self.sumsq = 0.0  # ||X||_F**2, the scale the variance check compares with
        self._block = None  # GRAM_BLOCK_ROWS rows, made by add
        self._fill = 0

    @property
    def mean(self) -> np.ndarray:
        """The column mean of the rows merged so far."""
        return self.reference + self.total / max(self.rows, 1)

    @property
    def gram(self) -> np.ndarray:
        """G as a new symmetric d x d array, centred as :meth:`decompose` centres it."""
        shift = self.total / max(self.rows, 1)
        return self._owned().symmetric() - self.rows * np.multiply.outer(shift, shift)

    def _owned(self) -> LowerGram:
        if self._gram is None:
            raise InvalidArgumentError("the stream was decomposed: no more rows or solves")
        return self._gram

    def add(self, slab) -> None:
        """Append the rows of one slab, float32 or float64, to the stack."""
        self._owned()
        slab = np.asarray(slab)
        if slab.dtype != np.float32:
            slab = as_real(slab, "slab")
        if slab.ndim != 2 or slab.shape[1] != self.cols:
            raise InvalidArgumentError(
                f"slab of shape {slab.shape} does not fit a stack of {self.cols} columns"
            )
        finite_entries(slab, "slab")
        if self._block is None:
            self._block = np.empty((GRAM_BLOCK_ROWS, self.cols))
        start = 0
        while start < slab.shape[0]:
            take = min(slab.shape[0] - start, GRAM_BLOCK_ROWS - self._fill)
            self._block[self._fill : self._fill + take] = slab[start : start + take]
            self._fill += take
            start += take
            if self._fill == GRAM_BLOCK_ROWS:
                self._merge_block()

    def _merge_block(self) -> None:
        block = self._block[: self._fill]
        with np.errstate(over="ignore", invalid="ignore"):
            self.sumsq += float(np.vdot(block, block))
            if not self.rows:
                self.reference = block.mean(axis=0)
            block -= self.reference
            self.total += block.sum(axis=0)
            self._gram.add_gram_of(block)
        self.rows += self._fill
        self._fill = 0

    def flush(self) -> None:
        """Merge the rows still in the block, and free the block."""
        if self._fill:
            self._merge_block()
        self._block = None

    def decompose(
        self, policy: RankPolicy = DEFAULT_POLICY, *, centering: str = "feature"
    ) -> SubspaceModel | None:
        """The truncated subspace of the rows added, found on the Gram route
        (:func:`~uws.spectral.gram_leading`).  It matches :func:`exact_subspace`
        of the stacked rows to within the accuracy stated in the module
        docstring: retained factors agree to about eps * (s_1 / s_r)**2
        and each singular value s_i to about eps * s_1**2 / s_i.

        Returns None where the stack, one of no rows included, is not
        :func:`gram_eligible`, where ||X||**2 (0 for a zero stack)
        overflows or is below ``GRAM_MIN_SQUARE``, where no variance is
        left after centering, and where :func:`~uws.spectral.gram_leading`
        declines; the caller then decomposes the stacked matrix with
        :func:`exact_subspace`, which serves or refuses it.  It raises
        only for a bad argument or a second decompose.  Global centring
        adds n (m - g) (m - g).T for the grand mean g, taken as mean(r)
        plus a remainder, so m - g keeps what g, rounded, cannot.
        """
        one_of(centering, "centering", CENTERINGS)
        check_policy(policy)
        gram = self._owned()
        self.flush()
        self._gram = None  # the solve owns G
        n, shape = self.rows, (self.rows, self.cols)
        if not (gram_eligible(shape, policy) and GRAM_MIN_SQUARE <= self.sumsq < np.inf):
            return None
        shift = self.total / n  # the column mean less r
        gram.add_outer(shift, -n)
        mu = self.reference + shift
        if centering == "global":
            base = self.reference.mean()
            spread = (self.reference - base) + shift
            gram.add_outer(spread - spread.mean(), n)
            mu = base + spread.mean()
        found = (_has_variance(np.sqrt(max(gram.trace(), 0.0)), np.sqrt(self.sumsq))
                 and gram_leading(gram, policy))
        if not found:
            return None
        factor, spectrum = _truncation(*found, policy, shape)
        return SubspaceModel(mu=mu, factors=(factor,), spectra=(spectrum,))


def _fits(shape, extents) -> bool:
    """Whether a member or coefficient block of ``shape`` fits the factors'
    ``extents`` (their rows or their widths): exactly for the two factors
    of order 3, any rows of ``extents`` columns for the one of order 2,
    where a slab keeps its rows."""
    return shape == extents if len(extents) == 2 else (len(shape) == 2 and shape[1:] == extents)


def project_slice(model: SubspaceModel, member) -> SliceCoefficients:
    """Express one member M in the factor basis: an r x d slab of an
    order-2 stack, any r, or an r x d matrix of an order-3 one, where d
    (and r at order 3) are the factors' rows.

    ``(M - mu) @ V`` for order 2, ``U2.T @ (M - mu) @ U3`` for order 3;
    the projection is orthogonal, so among all subspace members the
    reconstruction from these coefficients is the Frobenius-closest one.
    A member of another shape or not finite raises InvalidArgumentError.
    """
    member = as_tensor(member, "member")
    extents = tuple(f.shape[0] for f in model.factors)
    if not _fits(member.shape, extents):
        raise InvalidArgumentError(
            f"member of shape {member.shape} does not fit the factor rows {extents} "
            f"of an order-{model.order} stack"
        )
    finite_entries(member, "member")
    t = member - np.asarray(model.mu)
    return SliceCoefficients(coeffs=_contract(model.factors, t))


def reconstruct_slice(model: SubspaceModel, coeffs: SliceCoefficients) -> np.ndarray:
    """``C @ V.T + mu`` for order 2, ``U2 @ C @ U3.T + mu`` for order 3.
    Order-2 coefficients keep the member's rows, any number of them;
    others not of the retained ranks, or not finite, raise InvalidArgumentError."""
    arr = as_real(coeffs.coeffs, "coefficients")
    ranks = model.ranks
    if not _fits(arr.shape, ranks):
        raise InvalidArgumentError(
            f"coefficients of shape {arr.shape} do not fit retained ranks {ranks} "
            f"of an order-{model.order} stack"
        )
    finite_entries(arr, "coefficients")
    return _expand(model.factors, arr) + np.asarray(model.mu)
