"""Truncated zero-centered higher-order SVD.

Pipeline: subtract the mean (feature-wise along the stacking mode by
default, or one global scalar), find each mode's leading singular
vectors, keep as many as that mode's rank policy asks for, and contract
the centered tensor with the factor transposes to get the core.
Reconstruction is ``mu + core x_1 U(1) ... x_N U(N)``.

Order-2 stacks (rows = models' stacked rows, columns = features) are
plain PCA of one matrix Xc, and their two mode unfoldings are Xc and its
transpose, so one decomposition serves both modes:

- Gram route: ``eigh`` of the d x d matrix Xc.T @ Xc gives the spectrum
  and the feature factor V; the stacking factor is Xc V / s.  Squaring
  the condition number leaves s_i an absolute error of about
  eps * s_1**2 / s_i, so the stacking factor's orthonormality defect at
  depth r is about eps * (s_1 / s_r)**2.
- Exact route: one thin SVD of Xc.  A guard takes it whenever the Gram
  route could lose accuracy that a result depends on: the stack is wider
  than tall, a policy is ``cumulative_variance(tau=1)`` or
  ``hard_threshold`` (both read the small end of the spectrum), or the
  deepest component retained or read is below 1e-3 * s_1, where the
  defect could exceed about 2e-10.

Both routes orient every factor column so its largest-magnitude entry
is nonnegative.  Higher-order stacks decompose every mode unfolding
with its own thin SVD.

A "slice" is one contributor's slab of the stacked tensor (its block of
rows for order-2 stacking, or its matrix for stacking along a new mode).
Slices project into the subspace through the non-stacking factors only,
so new slices can be expressed in the shared basis without touching the
stacking-mode factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .spectral import (
    DEFAULT_POLICY,
    RankPolicy,
    column_signs,
    explained_variance,
    gram_eigh,
    select_rank,
    thin_svd,
)
from .tensor import DenseTensor, mode_product, unfold

CENTERINGS = ("feature", "global")

#: The Gram route serves an order-2 stack only while every component it
#: retains or reads has s_i >= GRAM_MIN_RATIO * s_1 (lambda_i >= 1e-6 *
#: lambda_1); deeper, the stacking factor's orthonormality defect,
#: about eps * (s_1 / s_i)**2, could exceed 2e-10.
GRAM_MIN_RATIO = 1e-3


@dataclass(frozen=True)
class ModeSpectrum:
    """Full spectrum of one mode's unfolding plus what was retained.

    ``first_component`` is 0 for a primary subspace; a secondary
    (residual) subspace retains the window starting right after the
    primary one.
    """

    singular_values: np.ndarray
    ratios: np.ndarray
    retained: int
    first_component: int = 0


@dataclass
class SubspaceModel:
    """Mean, per-mode orthonormal factors, truncated core, and the
    explained-variance ledger of a decomposed stack."""

    mu: np.ndarray
    factors: list[np.ndarray]
    core: DenseTensor
    variance_ledger: dict[int, ModeSpectrum]
    centering: str
    stack_mode: int = 1
    shape: tuple[int, ...] = ()
    slab_extent: int | None = None

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.factors)


@dataclass
class SliceCoefficients:
    """One slice expressed in the factor basis.

    The coefficient tensor keeps the stacking-mode axis (the slab rows)
    and has extent r_n along every other mode.
    """

    label: str | None
    coeffs: np.ndarray


def center(
    x: DenseTensor, centering: str = "feature", stack_mode: int = 1
) -> tuple[np.ndarray, DenseTensor]:
    """Split ``x`` into a mean and a zero-centered remainder.

    ``global`` subtracts the scalar mean of all entries; ``feature``
    subtracts the mean over the stacking mode, one value per remaining
    index position.  Either way ``centered + mu`` restores ``x``.
    """
    if centering not in CENTERINGS:
        raise InvalidArgumentError(f"centering must be one of {CENTERINGS}, got {centering!r}")
    arr = x.to_array()
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("tensor contains non-finite entries")
    if centering == "global":
        mu = np.float64(arr.mean())
    else:
        if not 1 <= stack_mode <= x.order:
            raise InvalidArgumentError(
                f"stack_mode {stack_mode} out of range for order-{x.order} tensor"
            )
        mu = arr.mean(axis=stack_mode - 1, keepdims=True)
    return mu, DenseTensor.from_array(arr - mu)


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


def _ratios(singular_values: np.ndarray, mode: int, centering: str) -> np.ndarray:
    try:
        return explained_variance(singular_values)
    except DegenerateSpectrumError as exc:
        raise DegenerateSpectrumError(
            f"no variance left along mode {mode} after {centering} centering"
        ) from exc


def _order2_svd(xc: np.ndarray, exact: bool, depth) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single decomposition of a centered order-2 stack.

    Returns ``(s, u, v)``: the min(rows, cols) singular values, the
    stacking directions (at least the first ``depth(s)`` of them) and the
    feature directions, each column oriented by :func:`column_signs`.
    ``depth(s)`` is the deepest 1-based component the caller retains or
    reads; the Gram route is used unless ``exact`` is set, the stack is
    wide, or that component falls below ``GRAM_MIN_RATIO * s_1``.
    """
    rows, cols = xc.shape
    if rows >= cols and not exact:
        s, v = gram_eigh(xc)
        n = depth(s)
        if s[n - 1] >= GRAM_MIN_RATIO * s[0]:
            u = (xc @ v[:, :n]) / s[:n]
            return s, u * column_signs(u), v
    f = thin_svd(xc)
    return f.singular_values, f.u, f.v * column_signs(f.v)


def _truncate_order2(xc: np.ndarray, policies: list[RankPolicy], centering: str):
    rows, cols = xc.shape
    shapes = ((rows, cols), (cols, rows))

    def ranks(s):
        ratios = _ratios(s, 1, centering)
        return ratios, [
            select_rank(ratios, p, singular_values=s, shape=shape)
            for p, shape in zip(policies, shapes)
        ]

    exact = any(
        p.kind == "hard_threshold" or (p.kind == "cumulative_variance" and p.tau >= 1.0)
        for p in policies
    )
    s, u, v = _order2_svd(xc, exact, lambda s: max(ranks(s)[1]))
    ratios, (r1, r2) = ranks(s)
    factors = [np.ascontiguousarray(u[:, :r1]), np.ascontiguousarray(v[:, :r2])]
    ledger = {
        mode: ModeSpectrum(singular_values=s, ratios=ratios, retained=r)
        for mode, r in ((1, r1), (2, r2))
    }
    return factors, ledger, DenseTensor.from_array(factors[0].T @ (xc @ factors[1]))


def hosvd_truncated(
    x: DenseTensor,
    policies=DEFAULT_POLICY,
    *,
    centering: str = "feature",
    stack_mode: int = 1,
    slab_extent: int | None = None,
) -> SubspaceModel:
    """Zero-center ``x`` and truncate every mode of the centered tensor.

    An order-2 stack is decomposed once, by the Gram route or, where the
    guard in the module docstring calls for it, by one exact thin SVD;
    both modes share that spectrum and the core is ``U1.T @ Xc @ U2``.
    The Gram route matches the exact one to within the accuracy stated
    there: retained factors agree to about eps * (s_1 / s_r)**2 and each
    singular value s_i to about eps * s_1**2 / s_i.  Higher-order stacks
    take one thin SVD per mode unfolding.

    Parameters
    ----------
    x : DenseTensor
        The stacked tensor.
    policies : RankPolicy or sequence of RankPolicy
        Rank selection, shared or per mode.
    centering : {"feature", "global"}
    stack_mode : int
        Which mode enumerates stacked slabs (1-based).
    slab_extent : int, optional
        Rows one slice occupies along the stacking mode; recorded so
        slice projection can validate its input.
    """
    per_mode = _policy_list(policies, x.order)
    if frobenius_zero(x):
        raise DegenerateSpectrumError("tensor is identically zero")
    mu, xc = center(x, centering, stack_mode)
    # An ensemble whose members are (numerically) identical leaves nothing
    # behind once the mean is removed; rounding keeps the remainder from
    # being exactly zero, so compare against the input's own scale.
    if np.linalg.norm(xc.data) <= 1e-13 * np.linalg.norm(x.data):
        raise DegenerateSpectrumError(
            f"no variance left after {centering} centering"
        )
    if x.order == 2:
        factors, ledger, core = _truncate_order2(xc.data.reshape(x.shape), per_mode, centering)
    else:
        factors, ledger = [], {}
        for mode in range(1, x.order + 1):
            m = unfold(xc, mode)
            f = thin_svd(m)
            ratios = _ratios(f.singular_values, mode, centering)
            r = select_rank(
                ratios, per_mode[mode - 1], singular_values=f.singular_values, shape=m.shape
            )
            factors.append(np.ascontiguousarray(f.u[:, :r]))
            ledger[mode] = ModeSpectrum(
                singular_values=f.singular_values, ratios=ratios, retained=r
            )
        core = xc
        for mode, u in enumerate(factors, start=1):
            core = mode_product(core, u.T, mode)
    return SubspaceModel(
        mu=mu,
        factors=factors,
        core=core,
        variance_ledger=ledger,
        centering=centering,
        stack_mode=stack_mode,
        shape=x.shape,
        slab_extent=slab_extent,
    )


def frobenius_zero(x: DenseTensor) -> bool:
    return not np.any(x.data)


def reconstruct(model: SubspaceModel) -> DenseTensor:
    """``mu + core x_1 U(1) ... x_N U(N)``."""
    out = model.core
    try:
        for mode, u in enumerate(model.factors, start=1):
            out = mode_product(out, u, mode)
        arr = out.to_array() + np.asarray(model.mu)
    except (InvalidArgumentError, ValueError) as exc:
        raise InternalConsistencyError(
            f"stored factors/core/mu are mutually inconsistent: {exc}"
        ) from exc
    return DenseTensor.from_array(arr)


def _slice_array(model: SubspaceModel, slice_: DenseTensor) -> np.ndarray:
    """Validate a slice against the model and return it with the
    stacking-mode axis present (inserting a singleton when the slice is
    given one order lower, as with stacking along a dedicated mode)."""
    ax = model.stack_mode - 1
    others = [s for i, s in enumerate(model.shape) if i != ax]
    if slice_.order == model.order:
        got = list(slice_.shape)
        slab = got.pop(ax)
        if got != others:
            raise InvalidArgumentError(
                f"slice shape {slice_.shape} does not match stack shape {model.shape} "
                f"outside the stacking mode {model.stack_mode}"
            )
        if model.slab_extent is not None and slab != model.slab_extent:
            raise InvalidArgumentError(
                f"slice has {slab} rows along the stacking mode, expected {model.slab_extent}"
            )
        return slice_.to_array()
    if slice_.order == model.order - 1:
        if list(slice_.shape) != others:
            raise InvalidArgumentError(
                f"slice shape {slice_.shape} does not match per-slab shape {tuple(others)}"
            )
        if model.slab_extent not in (None, 1):
            raise InvalidArgumentError(
                f"model expects slabs of {model.slab_extent} rows, got an order-reduced slice"
            )
        return np.expand_dims(slice_.to_array(), axis=ax)
    raise InvalidArgumentError(
        f"slice of order {slice_.order} does not fit an order-{model.order} stack"
    )


def project_slice(model: SubspaceModel, slice_: DenseTensor, label: str | None = None) -> SliceCoefficients:
    """Express one slice in the factor basis.

    Subtracts the stored mean and contracts every non-stacking mode with
    its factor transpose; the projection is orthogonal, so among all
    subspace members the reconstruction from these coefficients is the
    Frobenius-closest one.
    """
    arr = _slice_array(model, slice_) - np.asarray(model.mu)
    t = DenseTensor.from_array(arr)
    for mode, u in enumerate(model.factors, start=1):
        if mode == model.stack_mode:
            continue
        t = mode_product(t, u.T, mode)
    return SliceCoefficients(label=label, coeffs=t.to_array())


def reconstruct_slice(model: SubspaceModel, coeffs: SliceCoefficients) -> DenseTensor:
    """Mean plus the coefficients expanded through each factor."""
    arr = np.asarray(coeffs.coeffs, dtype=np.float64)
    if arr.ndim != model.order:
        raise InvalidArgumentError(
            f"coefficients of order {arr.ndim} do not fit an order-{model.order} stack"
        )
    ax = model.stack_mode - 1
    for i, u in enumerate(model.factors):
        if i != ax and arr.shape[i] != u.shape[1]:
            raise InvalidArgumentError(
                f"coefficient extent {arr.shape[i]} along mode {i + 1} "
                f"does not match retained rank {u.shape[1]}"
            )
    t = DenseTensor.from_array(arr)
    for mode, u in enumerate(model.factors, start=1):
        if mode == model.stack_mode:
            continue
        t = mode_product(t, u, mode)
    return DenseTensor.from_array(t.to_array() + np.asarray(model.mu))


def secondary_subspace(x: DenseTensor, model: SubspaceModel, k2: int) -> SubspaceModel:
    """The residual subspace: per mode, the ``k2`` directions that follow
    the primary ones in that mode's singular spectrum.

    The returned model shares the primary mean, its factors are exactly
    orthogonal to the primary factors, and its variance ledger records
    where in the full spectrum its window starts.  An order-2 stack takes
    the single decomposition of :func:`hosvd_truncated`, with the guard
    applied to the deepest component read.
    """
    if k2 < 1:
        raise InvalidArgumentError(f"k2 must be >= 1, got {k2}")
    if x.shape != model.shape:
        raise InvalidArgumentError(
            f"tensor shape {x.shape} does not match the model's stack shape {model.shape}"
        )
    firsts = [model.variance_ledger[mode].retained for mode in range(1, x.order + 1)]
    for mode, (extent, r1) in enumerate(zip(x.shape, firsts), start=1):
        avail = min(extent, x.data.size // extent) - r1
        if k2 > avail:
            raise InvalidArgumentError(
                f"k2={k2} exceeds the {avail} directions remaining along mode {mode}"
            )
    xc = x.to_array() - np.asarray(model.mu)
    # residual after removing the primary subspace along every mode
    if x.order == 2:
        u1, v1 = model.factors
        proj = u1 @ ((u1.T @ xc) @ v1) @ v1.T
    else:
        proj = DenseTensor.from_array(xc)
        for mode, u in enumerate(model.factors, start=1):
            proj = mode_product(proj, u @ u.T, mode)
        proj = proj.to_array()
    if np.linalg.norm(xc - proj) <= 1e-12 * np.linalg.norm(xc):
        raise DegenerateSpectrumError(
            "residual is numerically zero; the primary subspace already explains the stack"
        )
    if x.order == 2:
        s, u, v = _order2_svd(xc, False, lambda s: max(firsts) + k2)
        spectra = [s, s]
        factors = [
            np.ascontiguousarray(f[:, r1 : r1 + k2]) for f, r1 in zip((u, v), firsts)
        ]
        core = DenseTensor.from_array(factors[0].T @ (xc @ factors[1]))
    else:
        xt = DenseTensor.from_array(xc)
        spectra, factors = [], []
        for mode, r1 in enumerate(firsts, start=1):
            f = thin_svd(unfold(xt, mode))
            spectra.append(f.singular_values)
            factors.append(np.ascontiguousarray(f.u[:, r1 : r1 + k2]))
        core = xt
        for mode, u in enumerate(factors, start=1):
            core = mode_product(core, u.T, mode)
    ledger = {
        mode: ModeSpectrum(
            singular_values=s,
            ratios=explained_variance(s),
            retained=k2,
            first_component=r1,
        )
        for mode, (s, r1) in enumerate(zip(spectra, firsts), start=1)
    }
    return SubspaceModel(
        mu=model.mu,
        factors=factors,
        core=core,
        variance_ledger=ledger,
        centering=model.centering,
        stack_mode=model.stack_mode,
        shape=model.shape,
        slab_extent=model.slab_extent,
    )
