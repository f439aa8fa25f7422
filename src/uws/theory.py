"""Synthetic task ensembles and the two-level convergence theory around
them: second-moment operators, top-k projectors and eigengaps, the
operator/subspace error bounds with their delta-splitting, within-task
perturbation caps, Davis-Kahan style checks, projection risk, and seeded
Monte-Carlo convergence studies.

Everything lives in R^d with the Euclidean inner product; task vectors
are sampled from a planted low-dimensional subspace and observed through
norm-bounded perturbations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .spectral import operator_norm

NORM_MODES = ("gaussian", "constant")
PERTURBATIONS = ("isotropic", "radial")
EMPIRICAL_KINDS = ("true_empirical", "learned_empirical")
OPERATOR_KINDS = ("population",) + EMPIRICAL_KINDS


def _positive_float(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
    return value


def _int_at_least(value, name, minimum):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


# ------------------------------------------------------------- configuration


@dataclass
class SyntheticEnsembleConfig:
    """Recipe for a synthetic ensemble of task vectors.

    ``spectrum`` gives the planted per-direction second moments: length k
    (zero tail) or length d (decaying tail); default is uniform over the
    k planted directions.  ``b`` is the norm bound; when omitted it is
    derived from the spectrum so that rescaling stays rare.  ``eta`` is a
    scalar applied to every task or a per-task list of length n_tasks.

    ``norm_mode="constant"`` places every task exactly on the radius-b
    sphere inside the planted subspace (requires a uniform spectrum), so
    the population operator is exactly (b^2/k) times the subspace
    projector.  ``perturbation`` picks the direction of ``f_hat - f_star``:
    an isotropic random unit vector, or radial (along ``f_star`` itself).
    """

    d: int
    k: int
    n_tasks: int
    b: float | None = None
    eta: object = 0.0
    spectrum: object = None
    seed: object = 0
    norm_mode: str = "gaussian"
    perturbation: str = "isotropic"

    def __post_init__(self):
        self.d = _int_at_least(self.d, "d", 1)
        self.k = _int_at_least(self.k, "k", 1)
        if self.k > self.d:
            raise InvalidArgumentError(f"k = {self.k} exceeds the ambient dimension {self.d}")
        self.n_tasks = _int_at_least(self.n_tasks, "n_tasks", 1)
        if self.b is not None:
            self.b = _positive_float(self.b, "b")
        if self.norm_mode not in NORM_MODES:
            raise InvalidArgumentError(
                f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}"
            )
        if self.perturbation not in PERTURBATIONS:
            raise InvalidArgumentError(
                f"perturbation must be one of {PERTURBATIONS}, got {self.perturbation!r}"
            )
        if np.ndim(self.eta) == 0:
            if not np.isfinite(self.eta) or self.eta < 0:
                raise InvalidArgumentError(f"eta must be >= 0, got {self.eta!r}")
        else:
            etas = np.asarray(self.eta, dtype=np.float64)
            if etas.shape != (self.n_tasks,):
                raise InvalidArgumentError(
                    f"eta list has length {etas.size}, expected n_tasks = {self.n_tasks}"
                )
            if not np.all(np.isfinite(etas)) or np.any(etas < 0):
                raise InvalidArgumentError("every eta entry must be finite and >= 0")
        if self.spectrum is not None:
            spec = np.asarray(self.spectrum, dtype=np.float64)
            if spec.ndim != 1 or spec.size not in (self.k, self.d):
                raise InvalidArgumentError(
                    f"spectrum must have length k = {self.k} or d = {self.d}, "
                    f"got shape {spec.shape}"
                )
            if not np.all(np.isfinite(spec)) or np.any(spec < 0):
                raise InvalidArgumentError("spectrum entries must be finite and >= 0")
            if np.any(np.diff(spec) > 0):
                raise InvalidArgumentError("spectrum must be nonincreasing")
            if spec[self.k - 1] <= 0:
                raise InvalidArgumentError(
                    f"the k-th planted eigenvalue must be positive, got {spec[self.k - 1]}"
                )
        if self.norm_mode == "constant":
            spec = self.resolved_spectrum()
            if spec.size != self.k or (spec.max() - spec.min()) > 1e-12 * spec.max():
                raise InvalidArgumentError(
                    "constant norm mode needs a uniform length-k spectrum"
                )

    def resolved_spectrum(self) -> np.ndarray:
        if self.spectrum is None:
            return np.ones(self.k)
        return np.asarray(self.spectrum, dtype=np.float64).copy()

    def resolved_b(self) -> float:
        if self.b is not None:
            return float(self.b)
        total = float(self.resolved_spectrum().sum())
        # gaussian draws get headroom so rescaling stays rare; constant
        # norms match the planted trace exactly
        return 3.0 * math.sqrt(total) if self.norm_mode == "gaussian" else math.sqrt(total)

    def resolved_etas(self) -> np.ndarray:
        if np.ndim(self.eta) == 0:
            return np.full(self.n_tasks, float(self.eta))
        return np.asarray(self.eta, dtype=np.float64).copy()


@dataclass
class TaskVector:
    f_star: np.ndarray
    f_hat: np.ndarray


# -------------------------------------------------------- operators/projectors


@dataclass
class SecondMomentOperator:
    """A symmetric PSD d x d operator tagged with where it came from."""

    matrix: np.ndarray
    kind: str
    _eigh: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InvalidArgumentError(
                f"kind must be one of {OPERATOR_KINDS}, got {self.kind!r}"
            )
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidArgumentError("operator matrix must be finite")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if float(np.max(np.abs(m - m.T))) > 1e-10 * max(1.0, scale):
            raise InvalidArgumentError("operator matrix is not symmetric")
        # halving first keeps entries near the float64 limit from overflowing
        self.matrix = m / 2.0 + m.T / 2.0

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def eigen(self):
        """Cached dense eigendecomposition, eigenvalues descending."""
        if self._eigh is None:
            try:
                w, v = np.linalg.eigh(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
            order = np.argsort(w)[::-1]
            self._eigh = (w[order], v[:, order])
        return self._eigh

    def eigenvalues(self) -> np.ndarray:
        return self.eigen()[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def opnorm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues())))

    def effective_rank(self) -> float:
        top = self.opnorm()
        if top <= 0.0:
            raise DegenerateSpectrumError("operator is zero; effective rank undefined")
        return self.trace() / top


def second_moment(vectors, kind) -> SecondMomentOperator:
    """(1/T) sum of v v^T over the given vectors."""
    if kind not in EMPIRICAL_KINDS:
        raise InvalidArgumentError(
            f"empirical kind must be one of {EMPIRICAL_KINDS}, got {kind!r}; "
            "population operators come from population_second_moment"
        )
    vs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vs:
        raise InvalidArgumentError("need at least one vector")
    d = vs[0].shape
    if any(v.ndim != 1 or v.shape != d for v in vs):
        raise InvalidArgumentError("all vectors must be 1-D with the same length")
    stack = np.stack(vs, axis=0)
    if not np.all(np.isfinite(stack)):
        raise InvalidArgumentError("vectors must be finite")
    m = stack.T @ stack / len(vs)
    return SecondMomentOperator(matrix=m, kind=kind)


def population_second_moment(basis: np.ndarray, spectrum) -> SecondMomentOperator:
    """Assemble the population operator from an orthonormal basis and its
    per-direction second moments."""
    basis = np.asarray(basis, dtype=np.float64)
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if basis.ndim != 2 or spectrum.ndim != 1 or basis.shape[1] != spectrum.size:
        raise InvalidArgumentError(
            f"basis {basis.shape} does not match spectrum of length {spectrum.size}"
        )
    gram_defect = float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
    if gram_defect > 1e-8:
        raise InvalidArgumentError(
            f"basis columns are not orthonormal (defect {gram_defect:.2e})"
        )
    if not np.all(np.isfinite(spectrum)) or np.any(spectrum < 0):
        raise InvalidArgumentError("spectrum must be finite and >= 0")
    m = (basis * spectrum) @ basis.T
    return SecondMomentOperator(matrix=m, kind="population")


@dataclass
class Projector:
    matrix: np.ndarray
    k: int
    degenerate_gap: bool = False


def top_k_projector(op: SecondMomentOperator, k: int):
    """Projector onto the span of the top-k eigenvectors, plus the
    eigengap lambda_k - lambda_{k+1} (zero counts past the dimension)."""
    k = _int_at_least(k, "k", 1)
    if k > op.d:
        raise InvalidArgumentError(f"k = {k} exceeds operator dimension {op.d}")
    w, v = op.eigen()
    top = v[:, :k]
    p = top @ top.T
    lam_next = float(w[k]) if k < op.d else 0.0
    gamma = float(w[k - 1]) - lam_next
    degenerate = gamma <= 1e-12 * max(1.0, abs(float(w[0])))
    return Projector(matrix=(p + p.T) / 2.0, k=k, degenerate_gap=degenerate), gamma


def _projector_matrix(p) -> np.ndarray:
    return p.matrix if isinstance(p, Projector) else np.asarray(p, dtype=np.float64)


def subspace_distance(p, q) -> float:
    """Operator norm of the difference of two projectors."""
    a, b = _projector_matrix(p), _projector_matrix(q)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"projector shapes differ: {a.shape} vs {b.shape}")
    return operator_norm(a - b)


# ---------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundParameters:
    """Inputs to the two-level bound, with the prescribed delta split
    (delta_t = delta/(2T) per task, delta_big_t = delta/2 across tasks)."""

    b: float
    delta: float
    n_tasks: int
    eta_bar: float
    eta2_bar: float
    gamma_k: float | None = None
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        _positive_float(self.b, "b")
        if not (0.0 < self.delta < 1.0):
            raise InvalidArgumentError(f"delta must lie in (0, 1), got {self.delta!r}")
        _int_at_least(self.n_tasks, "n_tasks", 1)
        if self.eta_bar < 0 or self.eta2_bar < 0:
            raise InvalidArgumentError("eta_bar and eta2_bar must be >= 0")
        _positive_float(self.c1, "c1")
        _positive_float(self.c2, "c2")

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
    if p.gamma_k is not None and p.gamma_k <= 0.0:
        raise InvalidArgumentError(
            f"subspace bound needs a positive eigengap, got gamma_k = {p.gamma_k!r}"
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


def eta_from_complexity(radius: float, n_samples: int, delta_t: float) -> float:
    """Per-task accuracy from a complexity radius and a sample count:
    radius + sqrt(ln(1/delta_t) / (2 n_samples))."""
    if radius < 0 or not np.isfinite(radius):
        raise InvalidArgumentError(f"radius must be >= 0, got {radius!r}")
    n_samples = _int_at_least(n_samples, "n_samples", 1)
    if not (0.0 < delta_t < 1.0):
        raise InvalidArgumentError(f"delta_t must lie in (0, 1), got {delta_t!r}")
    return radius + math.sqrt(math.log(1.0 / delta_t) / (2.0 * n_samples))


# ----------------------------------------------------------------- within-task


@dataclass(frozen=True)
class WithinTaskReport:
    measured: float
    cap: float
    b: float
    holds: bool


def within_task_term(tasks, b: float | None = None) -> WithinTaskReport:
    """Measured ||S_learned - S_true||_op against the per-task analytic cap
    (1/T) sum (2 B eta_t + eta_t^2), using the realized perturbation norms.

    The cap is a theorem, so a violation beyond 1e-8 raises rather than
    returning quietly.
    """
    stars = [np.asarray(t.f_star, dtype=np.float64) for t in tasks]
    hats = [np.asarray(t.f_hat, dtype=np.float64) for t in tasks]
    if not stars:
        raise InvalidArgumentError("need at least one task")
    star_stack = np.stack(stars, axis=0)
    hat_stack = np.stack(hats, axis=0)
    if not (np.all(np.isfinite(star_stack)) and np.all(np.isfinite(hat_stack))):
        raise InvalidArgumentError("task vectors must be finite")
    norms = np.linalg.norm(star_stack, axis=1)
    if b is None:
        b = float(norms.max())
    if not np.isfinite(b) or b < 0:
        raise InvalidArgumentError(f"b must be a finite nonnegative bound, got {b!r}")
    if norms.max() > b * (1.0 + 1e-12) + 1e-300:
        raise InvalidArgumentError(
            f"b = {b} does not bound the task norms (max {norms.max()})"
        )
    errs = np.linalg.norm(hat_stack - star_stack, axis=1)
    cap = float(np.mean(2.0 * b * errs + errs**2))
    t = len(stars)
    diff = hat_stack.T @ hat_stack / t - star_stack.T @ star_stack / t
    measured = operator_norm(diff)
    holds = measured <= cap + 1e-8
    if not holds:
        raise InternalConsistencyError(
            f"within-task cap violated: measured {measured} > cap {cap}"
        )
    return WithinTaskReport(measured=measured, cap=cap, b=float(b), holds=holds)


# ----------------------------------------------------------------- Davis-Kahan


@dataclass(frozen=True)
class DkReport:
    lhs: float
    rhs: float
    gamma: float
    holds: bool


def _as_operator(s) -> SecondMomentOperator:
    if isinstance(s, SecondMomentOperator):
        return s
    return SecondMomentOperator(matrix=np.asarray(s, dtype=np.float64), kind="population")


def davis_kahan_check(s_ref, s_pert, k: int, tol: float = 1e-10) -> DkReport:
    """Checks ||P_pert - P_ref|| <= (2/gamma_k) ||S_pert - S_ref|| with the
    eigengap taken from the reference operator; a right-hand side that is
    not finite raises InvalidArgumentError, as it would certify nothing."""
    ref = _as_operator(s_ref)
    pert = _as_operator(s_pert)
    if ref.d != pert.d:
        raise InvalidArgumentError(f"operator dimensions differ: {ref.d} vs {pert.d}")
    p_ref, gamma = top_k_projector(ref, k)
    if gamma <= 0.0:
        raise InvalidArgumentError(
            f"reference eigengap at k = {k} is {gamma}; the bound is vacuous"
        )
    p_pert, _ = top_k_projector(pert, k)
    lhs = subspace_distance(p_pert, p_ref)
    rhs = (2.0 / gamma) * operator_norm(pert.matrix - ref.matrix)
    if not math.isfinite(rhs):
        raise InvalidArgumentError(
            f"the perturbation bound is not finite in double precision (gamma_k = {gamma!r})"
        )
    return DkReport(lhs=lhs, rhs=rhs, gamma=gamma, holds=lhs <= rhs + tol)


# ------------------------------------------------------------- projection risk


def optimal_projection_risk(spectrum, k: int) -> float:
    """Tail sum of the spectrum past the first k components."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise InvalidArgumentError("spectrum must be a nonempty 1-D array")
    if not np.all(np.isfinite(spectrum)) or np.any(spectrum < 0):
        raise InvalidArgumentError("spectrum must be finite and >= 0")
    if np.any(np.diff(spectrum) > 0):
        raise InvalidArgumentError("spectrum must be nonincreasing")
    k = _int_at_least(k, "k", 1)
    if k > spectrum.size:
        raise InvalidArgumentError(f"k = {k} exceeds spectrum length {spectrum.size}")
    if k == spectrum.size:
        return 0.0
    return float(spectrum[k:].sum())


def projection_risk(op: SecondMomentOperator, projector) -> float:
    """Expected squared residual of projecting onto P: trace((I - P) S)."""
    p = _projector_matrix(projector)
    if p.shape != op.matrix.shape:
        raise InvalidArgumentError(
            f"projector shape {p.shape} does not match operator {op.matrix.shape}"
        )
    return float(np.trace(op.matrix) - np.trace(p @ op.matrix))


@dataclass(frozen=True)
class ExcessRiskReport:
    risk: float
    optimal_risk: float
    excess: float
    bound: float
    holds: bool


def excess_risk_report(op: SecondMomentOperator, projector, k: int) -> ExcessRiskReport:
    """Excess risk of an arbitrary rank-k projector over the optimal one,
    against the trace(S) * ||P - P_k|| cap.  Violation raises."""
    risk = projection_risk(op, projector)
    optimal = float(op.eigenvalues()[k:].sum()) if k < op.d else 0.0
    p_best, _ = top_k_projector(op, k)
    bound = op.trace() * subspace_distance(projector, p_best)
    excess = risk - optimal
    holds = excess <= bound + 1e-8
    if not holds:
        raise InternalConsistencyError(
            f"excess projection risk {excess} exceeds its cap {bound}"
        )
    return ExcessRiskReport(
        risk=risk, optimal_risk=optimal, excess=excess, bound=bound, holds=holds
    )


# -------------------------------------------------------------------- sampling


@dataclass
class SyntheticEnsemble:
    config: SyntheticEnsembleConfig
    tasks: list
    basis: np.ndarray
    spectrum: np.ndarray
    b: float
    etas: np.ndarray
    planted_projector: Projector
    population: SecondMomentOperator
    gamma: float


def _haar_columns(rng, d: int, m: int) -> np.ndarray:
    g = rng.standard_normal((d, m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _unit_rows(rng, g: np.ndarray) -> np.ndarray:
    """Rows of ``g`` scaled to unit length; a row too short to normalize
    (norm <= 1e-12) is replaced by a fresh draw until it is not."""
    norms = np.linalg.norm(g, axis=1)
    short = norms <= 1e-12
    while np.any(short):
        g[short] = rng.standard_normal((int(short.sum()), g.shape[1]))
        norms[short] = np.linalg.norm(g[short], axis=1)
        short = norms <= 1e-12
    return g / norms[:, None]


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
    spectrum = config.resolved_spectrum()
    b = config.resolved_b()
    etas = config.resolved_etas()
    d, k = config.d, config.k
    basis = _haar_columns(rng, d, spectrum.size)
    if config.norm_mode == "constant":
        population = population_second_moment(
            basis[:, :k], np.full(k, b**2 / k)
        )
        lam_k, lam_next = b**2 / k, 0.0
    else:
        population = population_second_moment(basis, spectrum)
        lam_k = float(spectrum[k - 1])
        lam_next = float(spectrum[k]) if spectrum.size > k else 0.0
    gamma = lam_k - lam_next
    planted = basis[:, :k]
    p = planted @ planted.T
    projector = Projector(
        matrix=(p + p.T) / 2.0,
        k=k,
        degenerate_gap=gamma <= 1e-12 * max(1.0, float(spectrum[0])),
    )
    width = k if config.norm_mode == "constant" else spectrum.size
    draws = rng.standard_normal((config.n_tasks, width + d))
    coeffs, directions = draws[:, :width], draws[:, width:]
    if config.norm_mode == "constant":
        f_star = b * (_unit_rows(rng, coeffs) @ planted.T)
    else:
        f_star = coeffs @ (basis * np.sqrt(spectrum)).T
        norms = np.linalg.norm(f_star, axis=1)
        over = norms > b
        f_star[over] *= (b / norms[over])[:, None]
    directions = _unit_rows(rng, directions)
    f_hat = f_star + etas[:, None] * directions
    if config.perturbation == "radial":
        norms = np.linalg.norm(f_star, axis=1)
        along = norms > 1e-300
        f_hat[along] = f_star[along] * (1.0 + etas[along] / norms[along])[:, None]
    tasks = [TaskVector(f_star=s, f_hat=h) for s, h in zip(f_star, f_hat)]
    return SyntheticEnsemble(
        config=config,
        tasks=tasks,
        basis=basis,
        spectrum=spectrum,
        b=b,
        etas=etas,
        planted_projector=projector,
        population=population,
        gamma=gamma,
    )


# ----------------------------------------------------------------- convergence


@dataclass(frozen=True)
class ConvergenceRow:
    n_tasks: int
    trial: int
    op_error: float
    subspace_error: float
    op_bound: float
    subspace_bound: float | None
    true_op_error: float


@dataclass
class ConvergenceReport:
    rows: list
    t_grid: list
    n_trials: int
    mean_op_error: dict
    mean_subspace_error: dict
    mean_true_op_error: dict
    mean_op_bound: dict
    mean_subspace_bound: dict
    slope: float | None
    slope_defined: bool
    within_task_floor: float
    config: dict


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

    Each (T, trial) cell draws its RNG stream from (seed, trial, T), so
    results are identical under any execution order.  The fitted slope is
    the least-squares slope of log(mean operator error) against log(T);
    it needs at least two distinct T values with positive mean errors,
    otherwise the report carries an undefined-slope flag.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise InvalidArgumentError("t_grid must not be empty")
    t_grid = [_int_at_least(t, "t_grid entry", 1) for t in t_grid]
    n_trials = _int_at_least(n_trials, "n_trials", 1)
    if np.ndim(eta) != 0:
        raise InvalidArgumentError("convergence studies take a scalar eta")
    eta = float(eta)
    rows = []
    b_eff = None
    for t in t_grid:
        cfg = SyntheticEnsembleConfig(
            d=d,
            k=k,
            n_tasks=t,
            b=b,
            eta=eta,
            spectrum=spectrum,
            seed=0,
            norm_mode=norm_mode,
            perturbation=perturbation,
        )
        for trial in range(n_trials):
            rng = np.random.default_rng([seed, trial, t])
            ens = sample_ensemble(cfg, rng=rng)
            b_eff = ens.b
            learned = second_moment([tv.f_hat for tv in ens.tasks], "learned_empirical")
            true_emp = second_moment([tv.f_star for tv in ens.tasks], "true_empirical")
            op_error = operator_norm(learned.matrix - ens.population.matrix)
            true_op_error = operator_norm(true_emp.matrix - ens.population.matrix)
            p_hat, _ = top_k_projector(learned, k)
            subspace_error = subspace_distance(p_hat, ens.planted_projector)
            params = BoundParameters(
                b=ens.b,
                delta=delta,
                n_tasks=t,
                eta_bar=float(ens.etas.mean()),
                eta2_bar=float((ens.etas**2).mean()),
                gamma_k=ens.gamma if ens.gamma > 0 else None,
                c1=c1,
                c2=c2,
            )
            bounds = theorem1_bounds(params)
            rows.append(
                ConvergenceRow(
                    n_tasks=t,
                    trial=trial,
                    op_error=op_error,
                    subspace_error=subspace_error,
                    op_bound=bounds.op_bound,
                    subspace_bound=bounds.subspace_bound,
                    true_op_error=true_op_error,
                )
            )
    distinct = sorted(set(t_grid))
    mean_op, mean_sub, mean_true, mean_bound, mean_sub_bound = {}, {}, {}, {}, {}
    for t in distinct:
        cell = [r for r in rows if r.n_tasks == t]
        mean_op[t] = float(np.mean([r.op_error for r in cell]))
        mean_sub[t] = float(np.mean([r.subspace_error for r in cell]))
        mean_true[t] = float(np.mean([r.true_op_error for r in cell]))
        mean_bound[t] = float(np.mean([r.op_bound for r in cell]))
        sub_bounds = [r.subspace_bound for r in cell if r.subspace_bound is not None]
        mean_sub_bound[t] = float(np.mean(sub_bounds)) if sub_bounds else None
    slope = None
    slope_defined = len(distinct) >= 2 and all(mean_op[t] > 0 for t in distinct)
    if slope_defined:
        logs_t = np.log([float(t) for t in distinct])
        logs_e = np.log([mean_op[t] for t in distinct])
        slope = float(np.polyfit(logs_t, logs_e, 1)[0])
    floor = 2.0 * (b_eff or 0.0) * eta + eta**2
    return ConvergenceReport(
        rows=rows,
        t_grid=t_grid,
        n_trials=n_trials,
        mean_op_error=mean_op,
        mean_subspace_error=mean_sub,
        mean_true_op_error=mean_true,
        mean_op_bound=mean_bound,
        mean_subspace_bound=mean_sub_bound,
        slope=slope,
        slope_defined=slope_defined,
        within_task_floor=floor,
        config={
            "d": d,
            "k": k,
            "t_grid": t_grid,
            "n_trials": n_trials,
            "eta": eta,
            "b": b_eff,
            "spectrum": list(np.asarray(spectrum, dtype=np.float64)) if spectrum is not None else None,
            "seed": seed,
            "norm_mode": norm_mode,
            "perturbation": perturbation,
            "delta": delta,
            "c1": c1,
            "c2": c2,
        },
    )
