"""Ensemble operations: stacking per-layer weights from many models,
extracting a shared low-rank subspace per layer, and moving individual
models in and out of that subspace (projection, reconstruction, merging,
coefficient-only adaptation).

Weights, subspaces, and coefficient sets all live in the same binary
container format (see :mod:`uws.ensemble.container`).  Subspace files use
the reserved entry prefixes ``mu/``, ``U/``, ``core/``, ``ledger/``;
coefficient files use ``coef/`` and ``raw/``.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    ManifestError,
    NumericalFailureError,
    RankDeficiencyError,
)
from ..hosvd import (
    CENTERINGS,
    ModeSpectrum,
    SliceCoefficients,
    SubspaceModel,
    hosvd_truncated,
    project_slice,
    reconstruct_slice,
)
from ..spectral import DEFAULT_POLICY, RankPolicy
from ..tensor import fold, unfold
from .container import read_container, write_container

__all__ = [
    "ModelWeights",
    "ExtractionConfig",
    "UniversalSubspace",
    "ScreeReport",
    "CoefficientSet",
    "MemoryPreset",
    "MEMORY_PRESETS",
    "load_weights",
    "save_weights",
    "stack_layer",
    "extract_universal",
    "scree_report",
    "project_model",
    "reconstruct_model",
    "merge_models",
    "memory_savings",
    "coefficient_parameter_count",
    "adapt_coefficients",
    "save_subspace",
    "load_subspace",
    "save_coefficients",
    "load_coefficients",
]


# --------------------------------------------------------------------- weights


@dataclass
class ModelWeights:
    """One model's named weight matrices.

    Matrices are held as float64 in memory regardless of the precision
    they are stored at on disk; ``dtypes`` remembers the declared on-disk
    precision per layer ("f32" or "f64", default "f64").
    """

    model_id: str
    layers: dict
    dtypes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise InvalidArgumentError("model_id must be a string")
        self.layers = {
            name: np.asarray(arr, dtype=np.float64) for name, arr in self.layers.items()
        }
        self.dtypes = {name: self.dtypes.get(name, "f64") for name in self.layers}


def load_weights(path) -> ModelWeights:
    """Read a weights container, promoting every matrix to float64."""
    doc = read_container(path)
    layers = {rec.name: np.asarray(rec.array, dtype=np.float64) for rec in doc.layers}
    dtypes = {rec.name: rec.dtype for rec in doc.layers}
    return ModelWeights(model_id=doc.model_id, layers=layers, dtypes=dtypes)


def save_weights(weights: ModelWeights, path) -> None:
    """Write a weights container at each layer's declared precision."""
    triples = [
        (name, arr, weights.dtypes.get(name, "f64"))
        for name, arr in weights.layers.items()
    ]
    write_container(path, weights.model_id, triples)


# -------------------------------------------------------------------- stacking


def stack_layer(models, layer: str, order: int = 2) -> np.ndarray:
    """Stack one named layer across models.

    order 2 concatenates the slabs along their rows into a (T*r) x d
    matrix; order 3 stacks them along a new leading mode into T x r x d.
    """
    if order not in (2, 3):
        raise InvalidArgumentError(f"stacking order must be 2 or 3, got {order}")
    if not models:
        raise InvalidArgumentError("no models to stack")
    missing = [m.model_id for m in models if layer not in m.layers]
    if missing:
        raise InvalidArgumentError(
            f"layer {layer!r} is missing from models: {', '.join(missing)}"
        )
    ref = models[0].layers[layer].shape
    offenders = [
        f"{m.model_id}{m.layers[layer].shape}"
        for m in models
        if m.layers[layer].shape != ref
    ]
    if offenders:
        raise InvalidArgumentError(
            f"layer {layer!r} has shape {ref} in {models[0].model_id} but differs "
            f"in: {', '.join(offenders)}"
        )
    slabs = [m.layers[layer] for m in models]
    if order == 2:
        return np.concatenate(slabs, axis=0)
    return np.stack(slabs, axis=0)


# ------------------------------------------------------------------ extraction


@dataclass
class ExtractionConfig:
    """How to build a subspace from an ensemble.

    ``exclude_layers=None`` applies the default rule (drop the first and
    last layer of the shared layer list); pass an explicit tuple — possibly
    empty — to override it.
    """

    policy: RankPolicy = DEFAULT_POLICY
    order: int = 2
    centering: str = "feature"
    exclude_layers: tuple | None = None
    architecture_id: str = "ensemble"

    def __post_init__(self):
        if not isinstance(self.policy, RankPolicy):
            raise InvalidArgumentError("policy must be a RankPolicy")
        if self.order not in (2, 3):
            raise InvalidArgumentError(f"order must be 2 or 3, got {self.order}")
        if self.centering not in CENTERINGS:
            raise InvalidArgumentError(
                f"centering must be one of {CENTERINGS}, got {self.centering!r}"
            )
        if self.exclude_layers is not None:
            names = tuple(self.exclude_layers)
            if not all(isinstance(n, str) for n in names):
                raise InvalidArgumentError("exclude_layers must be layer names")
            self.exclude_layers = names
        if not isinstance(self.architecture_id, str) or not self.architecture_id:
            raise InvalidArgumentError("architecture_id must be a non-empty string")


@dataclass
class UniversalSubspace:
    """Per-layer subspace models plus the bookkeeping needed to project
    arbitrary models of the same architecture."""

    architecture_id: str
    layer_models: dict
    config: ExtractionConfig
    provenance: list
    included_layers: list
    excluded_layers: list
    layer_order: list
    layer_dtypes: dict


def _partition_layers(models, config):
    candidates = list(models[0].layers)
    if config.exclude_layers is None:
        excluded = set(candidates[:1] + candidates[-1:]) if len(candidates) > 2 else set(candidates)
    else:
        unknown = [n for n in config.exclude_layers if n not in candidates]
        if unknown:
            raise InvalidArgumentError(
                f"excluded layers not present in the ensemble: {', '.join(unknown)}"
            )
        excluded = set(config.exclude_layers)
    included = [n for n in candidates if n not in excluded]
    if not included:
        raise InvalidArgumentError(
            "layer exclusion leaves nothing to extract from "
            f"(layers: {', '.join(candidates) or 'none'})"
        )
    return candidates, included, [n for n in candidates if n in excluded]


def extract_universal(models, config: ExtractionConfig | None = None) -> UniversalSubspace:
    """Decompose every included layer's cross-model stack.

    Every included layer must be present in every model with an identical
    shape.  Layer order, and the default exclusion rule, follow the first
    model's layer list.
    """
    config = config if config is not None else ExtractionConfig()
    if not models:
        raise InvalidArgumentError("cannot extract a subspace from zero models")
    layer_order, included, excluded = _partition_layers(models, config)
    layer_models = {}
    for name in included:
        stack = stack_layer(models, name, order=config.order)
        slab = models[0].layers[name].shape[0] if config.order == 2 else 1
        try:
            layer_models[name] = hosvd_truncated(
                stack,
                config.policy,
                centering=config.centering,
                stack_mode=1,
                slab_extent=slab,
            )
        except DegenerateSpectrumError as exc:
            raise DegenerateSpectrumError(f"layer {name!r}: {exc}") from exc
    dtypes = {name: models[0].dtypes.get(name, "f64") for name in layer_order}
    return UniversalSubspace(
        architecture_id=config.architecture_id,
        layer_models=layer_models,
        config=config,
        provenance=[m.model_id for m in models],
        included_layers=included,
        excluded_layers=excluded,
        layer_order=layer_order,
        layer_dtypes=dtypes,
    )


# ---------------------------------------------------------------- scree report


@dataclass
class ScreeReport:
    """Feature-mode variance ratios per layer plus their per-component
    mean/std across layers (shorter spectra padded with zeros)."""

    per_layer: dict
    aggregate_ratios: np.ndarray
    aggregate_std: np.ndarray
    mode: int


def scree_report(u: UniversalSubspace) -> ScreeReport:
    mode = u.config.order  # the feature mode is the last one
    per_layer = {name: model.variance_ledger[mode] for name, model in u.layer_models.items()}
    width = max(len(spec.ratios) for spec in per_layer.values())
    table = np.zeros((len(per_layer), width))
    for i, spec in enumerate(per_layer.values()):
        table[i, : len(spec.ratios)] = spec.ratios
    return ScreeReport(
        per_layer=per_layer,
        aggregate_ratios=table.mean(axis=0),
        aggregate_std=table.std(axis=0),
        mode=mode,
    )


# ------------------------------------------------------- project / reconstruct


@dataclass
class CoefficientSet:
    """A model expressed as per-layer subspace coefficients, with excluded
    layers carried through verbatim."""

    model_id: str
    coefficients: dict
    passthrough: dict
    dtypes: dict = field(default_factory=dict)


def project_model(u: UniversalSubspace, weights: ModelWeights) -> CoefficientSet:
    """Express each included layer in its layer subspace.

    Excluded layers that exist in the model ride along unchanged so the
    model can be rebuilt in full.
    """
    coefficients = {}
    for name in u.included_layers:
        if name not in weights.layers:
            raise InvalidArgumentError(
                f"model {weights.model_id!r} is missing included layer {name!r}"
            )
        coefficients[name] = project_slice(u.layer_models[name], weights.layers[name], label=name)
    passthrough = {
        name: weights.layers[name].copy()
        for name in u.excluded_layers
        if name in weights.layers
    }
    dtypes = {
        name: weights.dtypes.get(name, "f64")
        for name in list(coefficients) + list(passthrough)
    }
    return CoefficientSet(
        model_id=weights.model_id,
        coefficients=coefficients,
        passthrough=passthrough,
        dtypes=dtypes,
    )


def reconstruct_model(u: UniversalSubspace, coeffs: CoefficientSet) -> ModelWeights:
    """Rebuild full weight matrices from subspace coefficients."""
    layers = {}
    for name in u.layer_order:
        if name in coeffs.coefficients:
            arr = reconstruct_slice(u.layer_models[name], coeffs.coefficients[name])
            if u.config.order == 3:
                arr = arr[0]  # drop the singleton stacking axis
            layers[name] = arr
        elif name in coeffs.passthrough:
            layers[name] = coeffs.passthrough[name].copy()
    dtypes = {name: coeffs.dtypes.get(name, "f64") for name in layers}
    return ModelWeights(model_id=coeffs.model_id, layers=layers, dtypes=dtypes)


# --------------------------------------------------------------------- merging


def merge_models(u, models, weights=None, model_id: str | None = None) -> ModelWeights:
    """Average models inside the subspace.

    Every layer is averaged with the given convex weights (uniform by
    default), and the mean model is projected and reconstructed once.
    Because projection is affine, this equals combining the models'
    coefficients with the same weights.  Excluded layers present in every
    input are averaged elementwise and carried through.  Each averaged
    layer must have one shape across the models.
    """
    if len(models) < 2:
        raise InvalidArgumentError(f"merging needs at least two models, got {len(models)}")
    t = len(models)
    if weights is None:
        weights = np.full(t, 1.0 / t)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (t,):
            raise InvalidArgumentError(
                f"got {weights.size} weights for {t} models"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidArgumentError("merge weights must be finite and non-negative")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise InvalidArgumentError(
                f"merge weights must sum to 1, got {weights.sum()!r}"
            )
    names = list(u.included_layers) + [
        name for name in u.excluded_layers if all(name in m.layers for m in models)
    ]
    if model_id is None:
        model_id = "merged(" + ",".join(m.model_id for m in models) + ")"
    mean = ModelWeights(
        model_id=model_id,
        layers={
            name: np.tensordot(weights, stack_layer(models, name, order=3), axes=1)
            for name in names
        },
    )
    return reconstruct_model(u, project_model(u, mean))


# -------------------------------------------------------------- memory savings


def _count(value, name, minimum):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def memory_savings(
    t: int,
    per_model_params: int,
    basis_params: int,
    coeff_params_per_model: int,
    mean_params: int = 0,
) -> float:
    """Storage ratio of T full models over basis + means + T coefficient sets.

    Values below 1 mean the shared representation costs more than it saves
    (tiny ensembles); the ratio grows toward per-model params over
    per-model coefficients as T grows.
    """
    t = _count(t, "t", 1)
    per_model_params = _count(per_model_params, "per_model_params", 1)
    basis_params = _count(basis_params, "basis_params", 0)
    coeff_params_per_model = _count(coeff_params_per_model, "coeff_params_per_model", 0)
    mean_params = _count(mean_params, "mean_params", 0)
    denom = basis_params + mean_params + t * coeff_params_per_model
    if denom <= 0:
        raise InvalidArgumentError("compressed representation has zero size")
    return (t * per_model_params) / denom


@dataclass(frozen=True)
class MemoryPreset:
    name: str
    description: str
    counts: dict

    def ratio(self) -> float:
        return memory_savings(**self.counts)


MEMORY_PRESETS = {
    "worked-example-126x": MemoryPreset(
        name="worked-example-126x",
        description=(
            "Reference arithmetic case: 500 models of 131,072 parameters, a "
            "basis costing twice one model, 512 coefficients per model, no "
            "separate mean term."
        ),
        counts=dict(
            t=500,
            per_model_params=131072,
            basis_params=262144,
            coeff_params_per_model=512,
            mean_params=0,
        ),
    ),
    "adapter-bank-19x": MemoryPreset(
        name="adapter-bank-19x",
        description=(
            "500 low-rank adapter sets for a 32-block transformer: per model, "
            "three attention projections per block with two rank-16 halves of "
            "width 4096 (12,582,912 parameters).  The 192 matrix stacks keep "
            "142 feature directions each plus a per-stack mean row; every "
            "model stores 16 x 142 coefficients per stack."
        ),
        counts=dict(
            t=500,
            per_model_params=12_582_912,
            basis_params=192 * 142 * 4096,
            coeff_params_per_model=192 * 16 * 142,
            mean_params=192 * 4096,
        ),
    ),
    "vision-backbone-100x": MemoryPreset(
        name="vision-backbone-100x",
        description=(
            "A fleet of 500 fine-tunes of an 85M-parameter vision backbone, "
            "flattened whole-model with a four-direction global basis, 72 "
            "per-group mean scalars, and 288 mixing coefficients per model."
        ),
        counts=dict(
            t=500,
            per_model_params=85_000_000,
            basis_params=4 * 85_000_000,
            coeff_params_per_model=288,
            mean_params=72,
        ),
    ),
}


def coefficient_parameter_count(basis_rank: int, layer_count: int) -> int:
    """Trainable parameters when only subspace coefficients are tuned:
    one coefficient per retained direction, per adapted layer."""
    basis_rank = _count(basis_rank, "basis_rank", 1)
    layer_count = _count(layer_count, "layer_count", 1)
    return basis_rank * layer_count


# ------------------------------------------------------------------ adaptation


def _finite_number(value) -> bool:
    """A finite int or float; bools are not numbers here."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


def adapt_coefficients(
    u: UniversalSubspace,
    layer: str,
    x: np.ndarray,
    y: np.ndarray,
    method: str = "closed_form",
    lr: float | None = None,
    epochs: int = 1000,
    ridge: float = 0.0,
):
    """Fit one layer's subspace coefficients to regression data.

    The layer weight is constrained to ``mu + C @ U2.T`` and C is chosen to
    minimize ``||x @ W.T - y||_F``; with Z = x @ U2 this reduces to the
    k-dimensional normal equations ``(Z.T Z) C.T = Z.T (y - x @ mu.T)``.
    ``closed_form`` solves them directly; ``gradient`` runs plain gradient
    descent, which converges monotonically for lr below 1/lmax(Z.T Z).

    Returns ``(SliceCoefficients, report)`` where the report carries the
    fitted layer matrix, residual norms, the normal-matrix spectrum bound,
    and the trainable-parameter accounting.
    """
    if layer not in u.included_layers:
        raise InvalidArgumentError(f"layer {layer!r} is not part of the subspace")
    model = u.layer_models[layer]
    if model.order != 2:
        raise InvalidArgumentError(
            "coefficient adaptation needs a matrix-stacked (order-2) subspace"
        )
    if method not in ("closed_form", "gradient"):
        raise InvalidArgumentError(f"unknown adaptation method {method!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidArgumentError(
            f"need paired 2-D data, got inputs {x.shape} and targets {y.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidArgumentError("adaptation data must be finite")
    if not _finite_number(ridge) or ridge < 0:
        raise InvalidArgumentError(f"ridge must be a non-negative number, got {ridge!r}")
    basis = model.factors[1]
    d, k = basis.shape
    rows = model.slab_extent
    if x.shape[1] != d:
        raise InvalidArgumentError(f"inputs have width {x.shape[1]}, layer expects {d}")
    if y.shape[1] != rows:
        raise InvalidArgumentError(f"targets have width {y.shape[1]}, layer expects {rows}")
    mu_slab = np.broadcast_to(model.mu, (rows, d))
    z = x @ basis
    resid_target = y - x @ mu_slab.T
    normal = z.T @ z
    if ridge:
        normal = normal + ridge * np.eye(k)
    spectrum = np.linalg.eigvalsh(normal)
    lmax = float(spectrum[-1])
    if lmax <= 0.0 or spectrum[0] <= lmax * 1e-12:
        if ridge == 0.0:
            raise RankDeficiencyError(
                f"normal matrix for layer {layer!r} is singular "
                f"({x.shape[0]} samples for {k} directions); retry with ridge",
                suggested_ridge=max(1e-8 * float(np.trace(normal)) / k, 1e-12),
            )
    rhs = z.T @ resid_target
    report = {
        "method": method,
        "layer": layer,
        "basis_rank": k,
        "coefficient_shape": [rows, k],
        "trainable_params": k,
        "full_params": rows * d,
        "normal_matrix_lmax": lmax,
        "stable_lr_bound": float(1.0 / lmax) if lmax > 0 else float("inf"),
        "ridge": float(ridge),
        "initial_residual_norm": float(np.linalg.norm(resid_target)),
    }
    if method == "closed_form":
        try:
            ct = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"normal equations failed to solve: {exc}") from exc
    else:
        if lr is None:
            lr = 0.5 / lmax if lmax > 0 else 1.0
        if not _finite_number(lr) or lr <= 0:
            raise InvalidArgumentError(f"lr must be a positive number, got {lr!r}")
        epochs = _count(epochs, "epochs", 1)
        ct = np.zeros((k, y.shape[1]))
        losses = [float(np.linalg.norm(z @ ct - resid_target) ** 2)]
        for _ in range(epochs):
            ct = ct - lr * 2.0 * (normal @ ct - rhs)
            losses.append(float(np.linalg.norm(z @ ct - resid_target) ** 2))
        report["lr"] = float(lr)
        report["epochs"] = epochs
        report["loss_curve"] = losses
    coeffs = SliceCoefficients(label=layer, coeffs=ct.T.copy())
    report["reconstructed"] = reconstruct_slice(model, coeffs)
    report["residual_norm"] = float(np.linalg.norm(z @ ct - resid_target))
    return coeffs, report


# --------------------------------------------------------------- subspace files


def _policy_meta(policy: RankPolicy) -> dict:
    return {
        "kind": policy.kind,
        "tau": policy.tau,
        "epsilon": policy.epsilon,
        "k": policy.k,
        "noise_sigma": policy.noise_sigma,
    }


def save_subspace(u: UniversalSubspace, path) -> None:
    """Write a subspace container.

    Entry layout, per included layer L with modes n = 1..order:
    ``mu/L`` (mean, flattened to a matrix), ``U/L/n`` (factors),
    ``core/L`` (core unfolded along mode 1), ``ledger/L/sv/n`` and
    ``ledger/L/ratio/n`` (full spectra as single-row matrices).  Everything
    else lives in the manifest's meta block.
    """
    triples = []
    layer_meta = {}
    for name in u.included_layers:
        model = u.layer_models[name]
        mu = np.asarray(model.mu)
        if mu.ndim == 0:
            mu_matrix, mu_kind = np.array([[float(mu)]]), "global"
        else:
            mu_matrix, mu_kind = mu.reshape(mu.shape[-2] if mu.ndim == 3 else 1, mu.shape[-1]), "feature"
        triples.append((f"mu/{name}", mu_matrix, "f64"))
        for n, factor in enumerate(model.factors, start=1):
            triples.append((f"U/{name}/{n}", factor, "f64"))
        core = model.core
        core_matrix = core if core.ndim == 2 else unfold(core, 1)
        triples.append((f"core/{name}", core_matrix, "f64"))
        retained, first = [], []
        for n in range(1, model.order + 1):
            spec = model.variance_ledger[n]
            triples.append((f"ledger/{name}/sv/{n}", spec.singular_values.reshape(1, -1), "f64"))
            triples.append((f"ledger/{name}/ratio/{n}", spec.ratios.reshape(1, -1), "f64"))
            retained.append(spec.retained)
            first.append(spec.first_component)
        layer_meta[name] = {
            "stack_shape": list(model.shape),
            "slab_extent": model.slab_extent,
            "core_shape": list(core.shape),
            "mu_kind": mu_kind,
            "retained": retained,
            "first_component": first,
            "dtype": u.layer_dtypes.get(name, "f64"),
        }
    meta = {
        "kind": "subspace",
        "architecture_id": u.architecture_id,
        "provenance": list(u.provenance),
        "order": u.config.order,
        "centering": u.config.centering,
        "policy": _policy_meta(u.config.policy),
        "included_layers": list(u.included_layers),
        "excluded_layers": list(u.excluded_layers),
        "layer_order": list(u.layer_order),
        "layer_dtypes": dict(u.layer_dtypes),
        "layers": layer_meta,
    }
    write_container(path, u.architecture_id, triples, meta=meta)


def _entry_map(doc):
    return {rec.name: np.asarray(rec.array, dtype=np.float64) for rec in doc.layers}


def _take(entries, name):
    if name not in entries:
        raise ManifestError(f"container is missing required entry {name!r}", 12)
    return entries[name]


@contextmanager
def _decoding_meta(kind):
    """A meta field that is missing, of the wrong type or of a bad value
    raises ManifestError, not the KeyError, TypeError or ValueError that
    decoding it runs into."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ManifestError(
            f"{kind} container meta is malformed ({type(exc).__name__}: {exc})", 12
        ) from exc


def load_subspace(path) -> UniversalSubspace:
    """Read a subspace container written by :func:`save_subspace`.

    A meta field that is missing or malformed raises ManifestError.
    """
    doc = read_container(path)
    meta = doc.meta or {}
    if meta.get("kind") != "subspace":
        raise ManifestError("not a subspace container (meta kind != 'subspace')", 12)
    with _decoding_meta("subspace"):
        order = meta["order"]
        centering = meta["centering"]
        pol = meta["policy"]
        policy = RankPolicy(
            kind=pol["kind"],
            tau=pol["tau"],
            epsilon=pol["epsilon"],
            k=pol["k"],
            noise_sigma=pol["noise_sigma"],
        )
        included = list(meta["included_layers"])
        excluded = list(meta["excluded_layers"])
        entries = _entry_map(doc)
        layer_models = {}
        for name in included:
            info = meta["layers"][name]
            stack_shape = tuple(info["stack_shape"])
            slab_extent = info["slab_extent"]
            mu_matrix = _take(entries, f"mu/{name}")
            if info["mu_kind"] == "global":
                mu = np.float64(mu_matrix[0, 0])
            elif len(stack_shape) == 3:
                mu = mu_matrix.reshape(1, *mu_matrix.shape)
            else:
                mu = mu_matrix
            factors = [_take(entries, f"U/{name}/{n}") for n in range(1, order + 1)]
            core = fold(_take(entries, f"core/{name}"), 1, info["core_shape"])
            ledger = {}
            for n in range(1, order + 1):
                ledger[n] = ModeSpectrum(
                    singular_values=_take(entries, f"ledger/{name}/sv/{n}").ravel(),
                    ratios=_take(entries, f"ledger/{name}/ratio/{n}").ravel(),
                    retained=info["retained"][n - 1],
                    first_component=info["first_component"][n - 1],
                )
            layer_models[name] = SubspaceModel(
                mu=mu,
                factors=factors,
                core=core,
                variance_ledger=ledger,
                centering=centering,
                stack_mode=1,
                shape=stack_shape,
                slab_extent=slab_extent,
            )
        config = ExtractionConfig(
            policy=policy,
            order=order,
            centering=centering,
            exclude_layers=tuple(excluded),
            architecture_id=meta["architecture_id"],
        )
        return UniversalSubspace(
            architecture_id=meta["architecture_id"],
            layer_models=layer_models,
            config=config,
            provenance=list(meta["provenance"]),
            included_layers=included,
            excluded_layers=excluded,
            layer_order=list(meta["layer_order"]),
            layer_dtypes=dict(meta["layer_dtypes"]),
        )


def save_coefficients(c: CoefficientSet, path) -> None:
    """Write a coefficient container: one ``coef/L`` entry per projected
    layer (order-3 coefficients stored with the singleton stacking axis
    dropped) and one ``raw/L`` entry per passthrough layer at its declared
    precision."""
    triples = []
    shapes = {}
    for name, sc in c.coefficients.items():
        arr = np.asarray(sc.coeffs, dtype=np.float64)
        shapes[name] = list(arr.shape)
        triples.append((f"coef/{name}", arr.reshape(arr.shape[-2], arr.shape[-1]) if arr.ndim == 3 else arr, "f64"))
    for name, arr in c.passthrough.items():
        triples.append((f"raw/{name}", arr, c.dtypes.get(name, "f64")))
    meta = {
        "kind": "coefficients",
        "model_id": c.model_id,
        "coef_shapes": shapes,
        "passthrough": list(c.passthrough),
        "dtypes": dict(c.dtypes),
    }
    write_container(path, c.model_id, triples, meta=meta)


def load_coefficients(path) -> CoefficientSet:
    """Read a coefficient container written by :func:`save_coefficients`.

    A meta field that is missing or malformed raises ManifestError.
    """
    doc = read_container(path)
    meta = doc.meta or {}
    if meta.get("kind") != "coefficients":
        raise ManifestError("not a coefficient container (meta kind != 'coefficients')", 12)
    with _decoding_meta("coefficient"):
        entries = _entry_map(doc)
        shapes = meta["coef_shapes"]
        coefficients = {}
        for name, shape in shapes.items():
            arr = _take(entries, f"coef/{name}")
            coefficients[name] = SliceCoefficients(label=name, coeffs=arr.reshape(shape))
        passthrough = {
            name: _take(entries, f"raw/{name}")
            for name in meta["passthrough"]
        }
        return CoefficientSet(
            model_id=meta["model_id"],
            coefficients=coefficients,
            passthrough=passthrough,
            dtypes=dict(meta.get("dtypes", {})),
        )
