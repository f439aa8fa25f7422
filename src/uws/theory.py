"""Synthetic task ensembles and the two-level convergence theory around
them: the operator/subspace error bounds with their delta-splitting,
within-task perturbation caps, Davis-Kahan style checks, and seeded
Monte-Carlo convergence studies.

Everything lives in R^d with the Euclidean inner product; task vectors
are sampled from a planted low-dimensional subspace and observed through
norm-bounded perturbations.  A rank-k subspace is held as its d x k
orthonormal basis, never as a d x d projector: the distance between two
subspaces is computed from the bases alone.  The Monte-Carlo studies solve
up to ``TRIAL_BATCH`` trials per stacked LAPACK call, with the figures, bit
for bit, and the errors each trial gets alone.

The lab's results are plain arrays, each fact stated once.  A drawn
ensemble holds its tasks as two (n_tasks, d) arrays, ``f_star`` and
``f_hat``, which ``within_task_term(f_star, f_hat, b=None)`` takes as they
are.  A convergence study returns its cells as four arrays in cell order
(``n_tasks``, ``trial``, ``op_error``, ``subspace_error``) and ``bounds``,
one :class:`TheoremBounds` per T.  So ``uws theory converge`` writes each
T's bounds once, in its header (``mean_op_bound[T]``, ``subspace_bound[T]``),
and one row ``T,trial,op_error,subspace_error`` per cell.
``mean_op_bound[T]`` is the bound at T, not a mean; it keeps its name
because readers of the report, perfbench's theory-lab check among them,
key on it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .spectral import operator_norm, orthonormality_defect
from .tensor import (NONNEGATIVE, OPEN_UNIT, POSITIVE, as_real, finite_entries, frobenius_norm,
                     int_at_least, one_of, real_in, symmetric_operator)

#: Trials per stacked solve in the Monte-Carlo studies, each holding two d x d
#: matrices.  Batches of 4 to 50 ran theory-lab's d = 64 passes alike (about
#: 1.03 s; 1.38 s one trial at a time; 2-vCPU VM).  Stacks stay within 1 MiB, so
#: from d = 182 on, where LAPACK is the cost, trials run one at a time.  At
#: d = 128 and 181 the capped batches (4 and 2) ran as fast as batches of 8
#: within noise, and held peak RSS within 1 MB of one trial at a time, where
#: batches of 8 added 2 to 5.7 MB.
TRIAL_BATCH = 8


def _batch_size(d: int) -> int:
    return max(1, min(TRIAL_BATCH, 2**20 // (16 * d * d)))

NORM_MODES = ("gaussian", "constant")
PERTURBATIONS = ("isotropic", "radial")


def rank_within(k, d: int, names=("k", "d")) -> int:
    """``k`` as a plain int, refused with InvalidArgumentError unless it is
    an int from 1 to ``d``: the rank of a subspace of R^d.  ``names`` word
    k and d in the refusal (the command line passes its flags)."""
    k = int_at_least(k, names[0], 1)
    if k > d:
        raise InvalidArgumentError(f"{names[0]} must not exceed {names[1]} = {d}, got {k}")
    return k


def task_counts(t_grid, name: str = "t_grid") -> list:
    """``t_grid`` as a nonempty list of distinct ints >= 1, refused with
    InvalidArgumentError naming it as ``name``: a T that repeats would
    repeat its cells."""
    t_grid = [int_at_least(t, name, 1) for t in t_grid]
    if not t_grid:
        raise InvalidArgumentError(f"{name} must not be empty")
    if len(set(t_grid)) < len(t_grid):
        repeated = next(t for i, t in enumerate(t_grid) if t in t_grid[:i])
        raise InvalidArgumentError(f"{name} must not repeat a T, got {repeated} more than once")
    return t_grid


# ------------------------------------------------------------- configuration


@dataclass(eq=False)
class SyntheticEnsembleConfig:
    """Recipe for a synthetic ensemble of task vectors, each fact resolved
    once, at construction.

    ``spectrum`` gives the planted per-direction second moments: length k
    (zero tail) or length d (decaying tail); it is kept as an array, uniform
    over the k planted directions by default.  ``b``, the norm bound, is
    kept as a float, derived from the spectrum when omitted so that
    rescaling stays rare.  ``eta`` is a scalar applied to every task or a
    per-task list of length n_tasks, kept per task in ``etas``.  ``seed``,
    an int >= 0, seeds :func:`sample_ensemble`'s generator.

    ``norm_mode="constant"`` places every task exactly on the radius-b
    sphere inside the planted subspace (requires a uniform spectrum), so
    the population operator is exactly (b^2/k) times the subspace
    projector.  ``perturbation`` picks the direction of ``f_hat - f_star``:
    an isotropic random unit vector, or radial (along ``f_star`` itself).
    ``population_eigenvalues`` lie along the leading columns of the planted
    basis (b^2/k on each planted direction in constant mode, the spectrum
    otherwise); ``gamma`` is their eigengap at k.
    """

    d: int
    k: int
    n_tasks: int
    b: float | None = None
    eta: object = 0.0
    spectrum: object = None
    seed: int = 0
    norm_mode: str = "gaussian"
    perturbation: str = "isotropic"
    etas: np.ndarray = field(init=False, repr=False)
    population_eigenvalues: np.ndarray = field(init=False, repr=False)
    gamma: float = field(init=False, repr=False)

    def __post_init__(self):
        self.d = int_at_least(self.d, "d", 1)
        self.k = rank_within(self.k, self.d)
        self.n_tasks = int_at_least(self.n_tasks, "n_tasks", 1)
        self.seed = int_at_least(self.seed, "seed", 0)
        if self.b is not None:
            self.b = real_in(self.b, "b", *POSITIVE)
        one_of(self.norm_mode, "norm_mode", NORM_MODES)
        one_of(self.perturbation, "perturbation", PERTURBATIONS)
        etas = finite_entries(as_real(self.eta, "eta"), "eta", *NONNEGATIVE)
        if etas.ndim == 0:
            self.eta = float(etas)
        elif etas.shape != (self.n_tasks,):
            raise InvalidArgumentError(
                f"eta list has length {etas.size}, expected n_tasks = {self.n_tasks}"
            )
        self.etas = np.full(self.n_tasks, self.eta) if etas.ndim == 0 else etas.copy()
        given = self.spectrum is not None
        spec = as_real(self.spectrum, "spectrum").copy() if given else np.ones(self.k)
        if given:
            if spec.ndim != 1 or spec.size not in (self.k, self.d):
                raise InvalidArgumentError(
                    f"spectrum must have length k = {self.k} or d = {self.d}, "
                    f"got shape {spec.shape}"
                )
            finite_entries(spec, "spectrum", *NONNEGATIVE)
            if np.any(np.diff(spec) > 0):
                raise InvalidArgumentError("spectrum must be nonincreasing")
            with np.errstate(over="ignore"):  # an overflowed sum is refused here
                total = spec.sum()
            if not np.isfinite(total):
                raise InvalidArgumentError("spectrum must have a finite sum")
            if spec[self.k - 1] <= 0:
                raise InvalidArgumentError(
                    f"the k-th planted eigenvalue must be positive, got {spec[self.k - 1]}"
                )
        self.spectrum = w = spec
        if self.b is None:  # gaussian draws get headroom so rescaling stays rare
            root = math.sqrt(float(spec.sum()))  # constant norms match the planted trace
            self.b = 3.0 * root if self.norm_mode == "gaussian" else root
        if self.norm_mode == "constant":
            if spec.size != self.k or (spec.max() - spec.min()) > 1e-12 * spec.max():
                raise InvalidArgumentError(
                    "constant norm mode needs a uniform length-k spectrum"
                )
            if not math.isfinite(self.b * self.b):
                raise InvalidArgumentError(f"b**2 overflows in constant mode (b = {self.b!r})")
            w = np.full(self.k, self.b**2 / self.k)
        self.population_eigenvalues = w
        self.gamma = float(w[self.k - 1]) - (float(w[self.k]) if w.size > self.k else 0.0)


# ------------------------------------------------------------------ operators


def _symmetrised(m, name: str = "operator matrix") -> np.ndarray:
    """(m + m^T) / 2 of each matrix that :func:`~uws.tensor.symmetric_operator`
    takes, naming ``m`` as ``name``; halved first, so that no entry overflows."""
    half = symmetric_operator(m, name) / 2.0
    return half + np.swapaxes(half, -1, -2)


def _descending_eigh(m: np.ndarray, k: int | None = None):
    """Eigenvalues, descending, and the leading k (default all) eigenvectors
    as columns, of a symmetric matrix or of each in a stack, from one
    ``eigh``.  Each matrix of vectors is Fortran-ordered, as ``v[:, order]``
    is: products with it round alike for a stack and for one matrix."""
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(w, axis=-1)[..., ::-1]
    rows = np.take_along_axis(np.swapaxes(v, -1, -2), order[..., :k, None], axis=-2)
    return np.take_along_axis(w, order, axis=-1), np.swapaxes(rows, -1, -2)


def _moment_matrix(stack: np.ndarray) -> np.ndarray:
    """(1/T) sum of v v^T over the rows v of a finite (T, d) stack; products
    that overflow leave entries that :func:`_symmetrised` refuses."""
    finite_entries(stack, "vectors")
    with np.errstate(over="ignore", invalid="ignore"):
        return stack.T @ stack / len(stack)


def population_second_moment(basis: np.ndarray, spectrum) -> np.ndarray:
    """The d x d population operator of an orthonormal basis and its
    per-direction second moments."""
    basis, spectrum = as_real(basis, "basis"), as_real(spectrum, "spectrum")
    if basis.ndim != 2 or spectrum.ndim != 1 or basis.shape[1] != spectrum.size:
        raise InvalidArgumentError(
            f"basis {basis.shape} does not match spectrum of length {spectrum.size}"
        )
    defect = orthonormality_defect(basis)
    if defect > 1e-8:
        raise InvalidArgumentError(f"basis columns are not orthonormal (defect {defect:.2e})")
    finite_entries(spectrum, "spectrum", *NONNEGATIVE)
    return _symmetrised((basis * spectrum) @ basis.T)


def _sine(a: np.ndarray, b: np.ndarray):
    """sigma_max((I - A A^T) B) of two d x k orthonormal bases, or of each
    pair in two stacks of them (one stacked SVD): the largest sine of the
    principal angles, which is ||A A^T - B B^T||_op to O(eps) (the sin theta
    form of Davis-Kahan; Yu, Wang and Samworth, 2015)."""
    x = b - a @ (np.swapaxes(a, -1, -2) @ b)
    return np.max(np.linalg.svd(x, compute_uv=False), axis=-1)


# ---------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundParameters:
    """Inputs to the two-level bound, with the prescribed delta split
    (delta_t = delta/(2T) per task, delta_big_t = delta/2 across tasks).
    Each is kept as the plain float (n_tasks: int) its check returns:
    b, c1, c2 and gamma_k (or None) > 0, delta in (0, 1), the etas >= 0."""

    b: float
    delta: float
    n_tasks: int
    eta_bar: float
    eta2_bar: float
    gamma_k: float | None = None
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        ranges = dict(b=POSITIVE, delta=OPEN_UNIT, eta_bar=NONNEGATIVE, eta2_bar=NONNEGATIVE,
                      gamma_k=POSITIVE, c1=POSITIVE, c2=POSITIVE)
        for name, (accept, requirement) in ranges.items():
            value = getattr(self, name)
            if value is not None or name != "gamma_k":
                object.__setattr__(self, name, real_in(value, name, accept, requirement))
        object.__setattr__(self, "n_tasks", int_at_least(self.n_tasks, "n_tasks", 1))

    @property
    def delta_t(self) -> float:
        return self.delta / (2.0 * self.n_tasks)

    @property
    def delta_big_t(self) -> float:
        return self.delta / 2.0


@dataclass(frozen=True)
class TheoremBounds:
    sampling_term: float
    within_task_floor: float
    op_bound: float
    subspace_bound: float | None


def theorem1_bounds(p: BoundParameters) -> TheoremBounds:
    """op_bound = c1 B^2 sqrt(log(c2/delta)/T) + (2 B eta_bar + eta2_bar);
    subspace_bound = (2/gamma_k) op_bound when the eigengap is supplied.

    A bound that is not finite in double precision raises
    InvalidArgumentError: it would certify nothing."""
    log_arg = p.c2 / p.delta
    if log_arg < 1.0:
        raise InvalidArgumentError(
            f"c2/delta = {log_arg!r} is below 1; the log term would be negative"
        )
    try:
        sampling = p.c1 * p.b**2 * math.sqrt(math.log(log_arg) / p.n_tasks)
        floor = 2.0 * p.b * p.eta_bar + p.eta2_bar
        op_bound = sampling + floor
        subspace = None if p.gamma_k is None else (2.0 / p.gamma_k) * op_bound
    except OverflowError:
        op_bound = subspace = math.inf
    if not math.isfinite(op_bound) or not math.isfinite(subspace or 0.0):
        raise InvalidArgumentError(
            f"the bound is not finite in double precision (b = {p.b!r}, c1 = {p.c1!r}, "
            f"gamma_k = {p.gamma_k!r})"
        )
    return TheoremBounds(
        sampling_term=sampling,
        within_task_floor=floor,
        op_bound=op_bound,
        subspace_bound=subspace,
    )


# ----------------------------------------------------------------- within-task


@dataclass(frozen=True)
class WithinTaskReport:
    measured: float
    cap: float
    b: float


def within_task_term(f_star, f_hat, b: float | None = None) -> WithinTaskReport:
    """Measured ||S_learned - S_true||_op against the per-task analytic cap
    (1/T) sum (2 B eta_t + eta_t^2), using the realized perturbation norms,
    for two (n_tasks, d) arrays whose row t is task t (as a
    :class:`SyntheticEnsemble` holds them).  ``b`` defaults to the largest
    ``f_star`` row norm.

    The cap is a theorem, so a violation beyond 1e-8 raises rather than
    returning quietly: a returned report always holds.
    """
    star_stack, hat_stack = as_real(f_star, "f_star"), as_real(f_hat, "f_hat")
    if star_stack.ndim != 2 or hat_stack.shape != star_stack.shape:
        raise InvalidArgumentError("f_star and f_hat must be (n_tasks, d) arrays of one shape, "
                                   f"got shapes {star_stack.shape} and {hat_stack.shape}")
    if not len(star_stack):
        raise InvalidArgumentError("need at least one task")
    finite_entries(star_stack, "f_star")
    finite_entries(hat_stack, "f_hat")
    norms = np.linalg.norm(star_stack, axis=1)
    b = real_in(float(norms.max()) if b is None else b, "b", *NONNEGATIVE)
    if norms.max() > b * (1.0 + 1e-12) + 1e-300:
        raise InvalidArgumentError(
            f"b = {b} does not bound the task norms (max {norms.max()})"
        )
    errs = np.linalg.norm(hat_stack - star_stack, axis=1)
    cap = float(np.mean(2.0 * b * errs + errs**2))
    t = len(star_stack)
    diff = hat_stack.T @ hat_stack / t - star_stack.T @ star_stack / t
    measured = operator_norm(diff)
    if not measured <= cap + 1e-8:
        raise InternalConsistencyError(
            f"within-task cap violated: measured {measured} > cap {cap}"
        )
    return WithinTaskReport(measured=measured, cap=cap, b=b)


# ----------------------------------------------------------------- Davis-Kahan


#: Slack allowed on the Davis-Kahan inequality for rounding.
DK_TOL = 1e-10


@dataclass(frozen=True)
class DkReport:
    lhs: float
    rhs: float
    gamma: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + DK_TOL


@dataclass(frozen=True, eq=False)
class DkStudy:
    """The figures of :func:`davis_kahan_study`, one array entry per trial."""

    lhs: np.ndarray
    rhs: np.ndarray
    gamma: np.ndarray

    @property
    def holds(self) -> np.ndarray:
        return self.lhs <= self.rhs + DK_TOL


def davis_kahan_check(s_ref, s_pert, k: int) -> DkReport:
    """Checks ||P_pert - P_ref|| <= (2/gamma_k) ||S_pert - S_ref|| + DK_TOL
    for two symmetric d x d arrays, with the eigengap taken from the
    reference; a vacuous bound (gamma_k <= 0) or a right-hand side that
    is not finite raises InvalidArgumentError, as it would certify nothing."""
    ref, pert = (_symmetrised(s, name) for s, name in ((s_ref, "s_ref"), (s_pert, "s_pert")))
    if ref.ndim != 2 or pert.shape != ref.shape:
        raise InvalidArgumentError(f"s_ref and s_pert must be d x d operators of one d, "
                                   f"got shapes {ref.shape} and {pert.shape}")
    k = rank_within(k, len(ref))
    lhs, rhs, gamma = (float(x[0]) for x in _dk_pairs(ref[None], pert[None], k))
    return DkReport(lhs=lhs, rhs=rhs, gamma=gamma)


def _in_trial_order(solve, n: int):
    """``solve(slice(0, n))``, the figures of n trials solved as one batch.
    Where that raises InvalidArgumentError, the trials are solved one at a
    time, so the error raised is the one the first failing trial raises."""
    try:
        return solve(slice(0, n))
    except InvalidArgumentError:
        for i in range(n):
            solve(slice(i, i + 1))
        raise


def _dk_pairs(ref: np.ndarray, pert: np.ndarray, k: int):
    """``(lhs, rhs, gamma)`` arrays over the pairs of two (n, d, d) stacks of
    symmetric operators: the reference eigengap at k, the distance between
    the top-k eigenspaces and (2/gamma) ||pert - ref||, with one ``eigh``
    per stack.  A vacuous or non-finite bound raises InvalidArgumentError."""
    w, v = _descending_eigh(ref, k)
    gamma = w[:, k - 1] - (w[:, k] if k < ref.shape[-1] else 0.0)
    if np.any(gamma <= 0.0):
        raise InvalidArgumentError(f"reference eigengap at k = {k} is "
                                   f"{float(gamma[gamma <= 0.0][0])}; the bound is vacuous")
    lhs = _sine(_descending_eigh(pert, k)[1], v)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that overflows is refused below
        rhs = (2.0 / gamma) * operator_norm(pert - ref)
    if not np.all(np.isfinite(rhs)):
        raise InvalidArgumentError("the perturbation bound is not finite in double precision "
                                   f"(gamma_k = {float(gamma[~np.isfinite(rhs)][0])!r})")
    return lhs, rhs, gamma


def davis_kahan_study(d: int, k: int, perturb: float, trials: int, seed: int = 0) -> DkStudy:
    """:func:`davis_kahan_check` on ``trials`` random pairs, as a
    :class:`DkStudy` of per-trial arrays.  Trial i draws from
    ``default_rng([seed, i])`` a d x d Gaussian G, then a d x d Gaussian N:
    the reference is G G^T / d, and the perturbed operator adds ``perturb``
    * S / ||S||, S = (N + N^T) / 2.  Pairs are solved in batches (see
    ``TRIAL_BATCH``), each batch's operators checked by one
    :func:`~uws.tensor.symmetric_operator` call, and each pair gets the
    figures and errors it gets alone."""
    d = int_at_least(d, "d", 1)
    k = rank_within(k, d)
    trials = int_at_least(trials, "trials", 1)
    seed = int_at_least(seed, "seed", 0)
    perturb = real_in(perturb, "perturb", *POSITIVE)
    parts, batch = [], _batch_size(d)
    for start in range(0, trials, batch):
        n = min(batch, trials - start)
        ops = np.empty((2, n, d, d))  # ops[0, i] is trial i's reference, ops[1, i] its perturbed
        ref, pert = ops
        for i in range(n):
            rng = np.random.default_rng([seed, start + i])
            g = rng.standard_normal((d, d))
            np.matmul(g, g.T, out=ref[i])
            noise = rng.standard_normal((d, d))
            np.add(noise, noise.T, out=pert[i])
        ref /= d
        pert /= 2.0
        pert /= operator_norm(pert)[:, None, None]
        pert *= perturb
        pert += ref
        parts.append(_in_trial_order(
            lambda i: _dk_pairs(*symmetric_operator(ops[:, i], "operators"), k), n))
    lhs, rhs, gamma = (np.concatenate(p) for p in zip(*parts))
    return DkStudy(lhs=lhs, rhs=rhs, gamma=gamma)


# -------------------------------------------------------------------- sampling


@dataclass(eq=False)
class SyntheticEnsemble:
    """A drawn ensemble: row t of ``f_star`` and ``f_hat`` is task t.  Its
    spectrum, norm bound, etas and eigengap are its ``config``'s."""

    config: SyntheticEnsembleConfig
    f_star: np.ndarray
    f_hat: np.ndarray
    basis: np.ndarray
    population: np.ndarray


def _haar_columns(rng, d: int, m: int) -> np.ndarray:
    g = rng.standard_normal((d, m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, at any scale: a row whose norm overflows
    is measured again with power-of-two scaling (:func:`~uws.tensor.frobenius_norm`)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    big = np.isinf(norms)
    norms[big] = [frobenius_norm(row[None, :]) for row in x[big]]
    return norms


def _unit_rows(rng, g: np.ndarray) -> np.ndarray:
    """``g`` with its rows scaled to unit length in place; a row too short to
    normalize (norm <= 1e-12) is replaced by a fresh draw until it is not."""
    norms = np.linalg.norm(g, axis=1)
    short = norms <= 1e-12
    while np.any(short):
        g[short] = rng.standard_normal((int(short.sum()), g.shape[1]))
        norms[short] = np.linalg.norm(g[short], axis=1)
        short = norms <= 1e-12
    g /= norms[:, None]
    return g


def _draw(config: SyntheticEnsembleConfig, rng):
    """The planted basis (d x m, m the spectrum length) and the (n_tasks, d)
    ``f_star`` and ``f_hat`` arrays, in the draw order of
    :func:`sample_ensemble`."""
    spectrum, b, etas = config.spectrum, config.b, config.etas
    d, k = config.d, config.k
    basis = _haar_columns(rng, d, spectrum.size)
    width = k if config.norm_mode == "constant" else spectrum.size
    draws = rng.standard_normal((config.n_tasks, width + d))
    coeffs, directions = draws[:, :width], draws[:, width:]
    if config.norm_mode == "constant":
        f_star = b * (_unit_rows(rng, coeffs) @ basis[:, :k].T)
    else:
        f_star = coeffs @ (basis * np.sqrt(spectrum)).T
        norms = _row_norms(f_star)
        over = norms > b
        f_star[over] *= (b / norms[over])[:, None]
    directions = _unit_rows(rng, directions)
    directions *= etas[:, None]
    f_hat = f_star + directions
    if config.perturbation == "radial":
        norms = _row_norms(f_star)
        along = norms > 1e-300
        with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
            f_hat[along] = f_star[along] * (1.0 + etas[along] / norms[along])[:, None]
    return basis, f_star, f_hat


def sample_ensemble(config: SyntheticEnsembleConfig, rng=None) -> SyntheticEnsemble:
    """Draw the planted basis and the task vectors.

    f_star lives in the planted span with the configured per-direction
    energies, rescaled onto the radius-b ball (gaussian mode) or placed
    exactly on the sphere (constant mode); f_hat displaces it by exactly
    eta_t in the configured direction.  Deterministic given the seed.

    Draw order: the Haar basis first (one d x m block, m the spectrum
    length), then every task in one ``standard_normal((n_tasks, w + d))``
    block, w = k in constant mode and m otherwise.  Row t holds task t's
    coefficients (its first w entries) and its perturbation direction
    (the last d, drawn even when unused), the same values a per-task
    loop drawing w then d normals would see.  A unit-vector row with
    norm <= 1e-12 is redrawn after the whole batch, so only then does
    the stream differ from that loop.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    basis, f_star, f_hat = _draw(config, rng)
    w = config.population_eigenvalues
    return SyntheticEnsemble(
        config=config,
        f_star=f_star,
        f_hat=f_hat,
        basis=basis,
        population=population_second_moment(basis[:, :w.size], w),
    )


# ----------------------------------------------------------------- convergence


@dataclass(eq=False)
class ConvergenceReport:
    """The figures of :func:`convergence_study`.  Cell i is trial
    ``trial[i]`` at T = ``n_tasks[i]``, its errors ``op_error[i]`` and
    ``subspace_error[i]``, the cells in t_grid order and each T's trials in
    order.  ``bounds[T]`` is :func:`theorem1_bounds` at T, which every cell
    at T shares, and ``b`` the task-norm bound they take.  Each T's means
    are taken over its cells, and ``slope`` is the least-squares slope of
    log(mean operator error) against log(T), None unless two T have
    positive means."""

    n_tasks: np.ndarray
    trial: np.ndarray
    op_error: np.ndarray
    subspace_error: np.ndarray
    bounds: dict
    b: float

    @property
    def within_task_floor(self) -> float:
        """The floor every T's bound adds, 2 b eta + eta**2."""
        return next(iter(self.bounds.values())).within_task_floor

    def _means(self, errors: np.ndarray) -> dict:
        return {t: float(errors[self.n_tasks == t].mean()) for t in sorted(self.bounds)}

    @property
    def mean_op_error(self) -> dict:
        return self._means(self.op_error)

    @property
    def mean_subspace_error(self) -> dict:
        return self._means(self.subspace_error)

    @property
    def slope(self) -> float | None:
        means = self.mean_op_error
        if len(means) < 2 or not all(m > 0 for m in means.values()):
            return None
        return float(np.polyfit(np.log(list(means)), np.log(list(means.values())), 1)[0])


def _trial_errors(cfg: SyntheticEnsembleConfig, seed, trials: range):
    """Per trial at ``cfg``: ||S_learned - S_population||_op and the
    distance from the learned top-k eigenspace to the planted one, with
    S_learned = f_hat^T f_hat / T.  Each trial draws its ensemble as
    :func:`sample_ensemble` does; the batch stacks the learned operators and
    their differences from the population, and solves them with one
    ``eigh`` and one ``eigvalsh``."""
    t, d, k, w = cfg.n_tasks, cfg.d, cfg.k, cfg.population_eigenvalues
    learned, diff = np.empty((2, len(trials), d, d))
    planted = np.empty((len(trials), d, k))
    for i, trial in enumerate(trials):
        basis, _, f_hat = _draw(cfg, np.random.default_rng([seed, trial, t]))
        population = population_second_moment(basis[:, :w.size], w)
        learned[i] = _symmetrised(_moment_matrix(f_hat))
        np.subtract(learned[i], population, out=diff[i])
        planted[i] = basis[:, :k]
    return operator_norm(diff), _sine(_descending_eigh(learned, k)[1], planted)


def convergence_study(
    d: int,
    k: int,
    t_grid,
    n_trials: int,
    *,
    eta: float = 0.0,
    b: float | None = None,
    spectrum=None,
    seed: int = 0,
    norm_mode: str = "gaussian",
    perturbation: str = "isotropic",
    delta: float = 0.05,
    c1: float = 1.0,
    c2: float = 1.0,
) -> ConvergenceReport:
    """Monte-Carlo error curves over a grid of ensemble sizes.

    ``t_grid`` holds distinct T values (:func:`task_counts`).  Each
    (T, trial) cell draws its RNG stream from (seed, trial, T), so results
    are identical under any execution order.  The bounds are computed once
    per T, and the trials in batches of up to ``TRIAL_BATCH``
    (:func:`_trial_errors`); the first trial that fails raises the error
    it raises alone.
    """
    t_grid = task_counts(t_grid)
    n_trials = int_at_least(n_trials, "n_trials", 1)
    seed = int_at_least(seed, "seed", 0)
    eta = as_real(eta, "eta")
    if eta.ndim != 0:
        raise InvalidArgumentError("convergence studies take a scalar eta")
    eta = float(eta)  # checked with the rest of the configuration
    errors, bounds = [], {}
    for t in t_grid:
        cfg = SyntheticEnsembleConfig(d=d, k=k, n_tasks=t, b=b, eta=eta, spectrum=spectrum,
                                      norm_mode=norm_mode, perturbation=perturbation)
        try:  # eta * eta is inf where it overflows, which the bound refuses
            bounds[t] = theorem1_bounds(BoundParameters(
                b=cfg.b, delta=delta, n_tasks=t, eta_bar=eta, eta2_bar=eta * eta,
                gamma_k=cfg.gamma if cfg.gamma > 0 else None, c1=c1, c2=c2))
        except InvalidArgumentError:
            _trial_errors(cfg, seed, range(1))  # trial 0's own errors come first
            raise
        batch = _batch_size(d)
        for start in range(0, n_trials, batch):
            trials = range(start, min(start + batch, n_trials))
            errors.append(
                _in_trial_order(lambda i: _trial_errors(cfg, seed, trials[i]), len(trials)))
    op_error, subspace_error = (np.concatenate(e) for e in zip(*errors))
    return ConvergenceReport(
        n_tasks=np.repeat(t_grid, n_trials),
        trial=np.tile(np.arange(n_trials), len(t_grid)),
        op_error=op_error,
        subspace_error=subspace_error,
        bounds=bounds,
        b=cfg.b,
    )
