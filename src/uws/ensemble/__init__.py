"""Ensemble operations: stacking per-layer weights from many models,
extracting a shared low-rank subspace per layer, and moving individual
models in and out of that subspace (projection, reconstruction, merging,
coefficient-only adaptation).

Weights, subspaces, and coefficient sets all live in the same binary
container format (see :mod:`uws.ensemble.container`).  A subspace file
holds per layer only what its readers read: the mean (``mu/``), the
non-stacking factors (``U/``), their leading spectra
(``ledger/.../sv/``) and the energy of the rest (``ledger/.../tail/``).
Coefficient files use ``coef/`` (per layer, r x k for order-2 stacking
and k_2 x k_3 for order 3) and ``raw/``.  Either file's meta keeps only
what its entries cannot say; the loaders derive the rest (included
layers, ranks, order, ratios, ids) and refuse any entry or meta key that
the writers do not write.
"""

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    ManifestError,
    NumericalFailureError,
    RankDeficiencyError,
)
from ..hosvd import (
    GramStream,
    ModeSpectrum,
    SliceCoefficients,
    SubspaceModel,
    check_centering,
    exact_subspace,
    gram_eligible,
    project_slice,
    reconstruct_slice,
)
from ..spectral import DEFAULT_POLICY, RankPolicy, explained_variance, orthonormality_defect
from ..tensor import as_real, int_at_least
from .container import read_container, write_container

SUBSPACE_FORMAT_VERSION = 5

#: The largest ``max |V^T V - I|`` a loaded factor may have.  Extraction's
#: own factors are orthonormal to about 1e-15 (``uws extract`` prints the
#: defect); projection is an orthogonal projection only if V is.
ORTHONORMALITY_TOLERANCE = 1e-10

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
    "merge_weights",
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
        self.layers = {name: as_real(arr) for name, arr in self.layers.items()}
        self.dtypes = {name: self.dtypes.get(name, "f64") for name in self.layers}

    @property
    def shapes(self) -> dict:
        """Each layer's shape, as a weights file's manifest gives it."""
        return {name: arr.shape for name, arr in self.layers.items()}


class _Payloads(NamedTuple):
    """A weights file as stored: its model id, per read layer a read-only
    view of the payload at the stored precision and that precision, and
    every layer's shape, read or not."""

    model_id: str
    layers: dict
    dtypes: dict
    shapes: dict


def _read_payloads(path, names=None) -> _Payloads:
    """Read the ``names`` layers of a weights container (every one by
    default; see :func:`~uws.ensemble.container.read_container`) without
    converting any matrix.  A subspace or coefficient file, whose meta
    has a ``kind``, raises ManifestError."""
    doc = read_container(path, names)
    if doc.meta is not None and "kind" in doc.meta:
        raise ManifestError(f"{path} is a {doc.meta['kind']!r} container, not weights", 12)
    return _Payloads(
        doc.model_id,
        {rec.name: rec.array for rec in doc.layers},
        {rec.name: rec.dtype for rec in doc.layers},
        doc.shapes,
    )


def load_weights(path) -> ModelWeights:
    """Read a weights container, promoting every matrix to float64."""
    model = _read_payloads(path)
    return ModelWeights(model.model_id, model.layers, model.dtypes)


def save_weights(weights: ModelWeights, path) -> None:
    """Write a weights container at each layer's declared precision."""
    triples = [
        (name, arr, weights.dtypes.get(name, "f64"))
        for name, arr in weights.layers.items()
    ]
    write_container(path, weights.model_id, triples)


# -------------------------------------------------------------------- stacking


def _check_layer(name, models, ref_id, ref_shape):
    """Raise InvalidArgumentError unless every one of ``models`` has layer
    ``name`` with shape ``ref_shape``, the shape it has in model
    ``ref_id`` (None where that model lacks it)."""
    missing = [m.model_id for m in models if name not in m.shapes]
    if missing:
        raise InvalidArgumentError(
            f"layer {name!r} is missing from models: {', '.join(missing)}"
        )
    offenders = [f"{m.model_id}{m.shapes[name]}" for m in models if m.shapes[name] != ref_shape]
    if offenders:
        raise InvalidArgumentError(
            f"layer {name!r} has shape {ref_shape} in {ref_id} but differs "
            f"in: {', '.join(offenders)}"
        )


def stack_layer(models, layer: str, order: int = 2) -> np.ndarray:
    """Stack one named layer across models.

    order 2 concatenates the slabs along their rows into a (T*r) x d
    matrix; order 3 stacks them along a new leading mode into T x r x d.
    """
    if order not in (2, 3):
        raise InvalidArgumentError(f"stacking order must be 2 or 3, got {order}")
    if not models:
        raise InvalidArgumentError("no models to stack")
    _check_layer(layer, models, models[0].model_id, models[0].shapes.get(layer))
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
        check_centering(self.centering)
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
    arbitrary models of the same architecture: the ids of the models it
    was extracted from and the architecture's layer order, of which the
    layers with a model are the included ones and the rest are excluded."""

    layer_models: dict
    config: ExtractionConfig
    provenance: list
    layer_order: list

    @property
    def included_layers(self) -> list:
        return [name for name in self.layer_order if name in self.layer_models]

    @property
    def excluded_layers(self) -> list:
        return [name for name in self.layer_order if name not in self.layer_models]

    @property
    def architecture_id(self) -> str:
        return self.config.architecture_id


def _partition_layers(first, config):
    candidates = list(first.shapes)
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
    return candidates, included


def _read(model, names=None):
    """A model given in memory, or the ``names`` layers (every one by
    default) of its weights file's payloads: either way an object with
    ``model_id``, ``layers``, ``dtypes`` and ``shapes``, whose float32
    layers are converted only where they are used."""
    return model if isinstance(model, ModelWeights) else _read_payloads(model, names)


class _AllBut(frozenset):
    """Every name but these, as the ``names`` of a read."""

    def __contains__(self, name):
        return not frozenset.__contains__(self, name)


def _kept(model, name) -> ModelWeights:
    """Layer ``name`` of ``model`` alone, as float64: a file's view is
    copied, as it would pin the whole buffer it was read into."""
    own = np.array if isinstance(model, _Payloads) else np.asarray
    return ModelWeights(model.model_id, {name: own(model.layers[name], dtype=np.float64)})


@contextmanager
def _naming_layer(name):
    try:
        yield
    except DegenerateSpectrumError as exc:
        raise DegenerateSpectrumError(f"layer {name!r}: {exc}") from exc


def extract_universal(models, config: ExtractionConfig | None = None) -> UniversalSubspace:
    """Decompose every included layer's cross-model stack.

    ``models`` is a sequence of :class:`ModelWeights` or of paths to
    weights files.  Every included layer must be present in every model
    with an identical shape.  Layer order, and the default exclusion
    rule, follow the first model's layer list, read from its manifest.

    The layers are taken one at a time: a pass reads one layer's slab
    from every model, in order, and the layer is decomposed before the
    next pass, so one stream or stack is held at a time.  The first pass
    also reads and checks every entry no other pass reads, and every
    model's included layer shapes; a model whose id or layer shape
    differs in a later pass raises ManifestError.  A stack that the Gram
    route may take (:func:`~uws.hosvd.gram_eligible`) is streamed into a
    :class:`~uws.hosvd.GramStream`.  Any other stack, and one the route's
    guard declines, after a pass that reads its slabs again, is kept as
    float64, stacked and decomposed by :func:`~uws.hosvd.exact_subspace`,
    so a declined Gram route is not tried twice.  Either way a layer
    model holds what a subspace file holds: no stacking-mode factor or
    core, and the ledger of the modes a file stores.
    """
    config = config if config is not None else ExtractionConfig()
    models = list(models)
    if not models:
        raise InvalidArgumentError("cannot extract a subspace from zero models")
    head = _read(models[0], ())
    layer_order, included = _partition_layers(head, config)
    ids = []  # the models' ids, as the first layer pass read them

    def layer_pass(name, names, take):
        """``take`` of every model in turn, read through ``names`` and
        checked to hold layer ``name``, as a list."""
        out = []
        for i, item in enumerate(models):
            model = _read(item, names)
            if i == len(ids):
                for other in included:
                    _check_layer(other, [model], head.model_id, head.shapes[other])
                ids.append(model.model_id)
            _require((model.model_id, model.shapes.get(name)) == (ids[i], head.shapes[name]),
                     f"model {ids[i]!r} changed between layer passes: it reads as "
                     f"{model.model_id!r}, with layer {name!r} of shape {model.shapes.get(name)}")
            out.append(take(model))
            del model  # free its payload before the next model is read
        return out

    layer_models = {}
    for name in included:
        rows, cols = head.shapes[name]
        names = (name,) if ids else _AllBut(included[1:])
        if config.order == 2 and gram_eligible((len(models) * rows, cols), [config.policy] * 2):
            stream = GramStream(cols)
            layer_pass(name, names, lambda model: stream.add(model.layers[name]))
            with _naming_layer(name):
                layer_models[name] = stream.decompose(
                    config.policy, centering=config.centering, slab_extent=rows
                )
            del stream  # its Gram goes before a declined layer's stack is built
            if layer_models[name] is not None:
                continue
            names = (name,)  # declined: its slabs are read again, alone
        with _naming_layer(name):
            layer_models[name] = exact_subspace(
                stack_layer(layer_pass(name, names, lambda m: _kept(m, name)), name, config.order),
                config.policy, centering=config.centering, slab_extent=rows)
    return UniversalSubspace(layer_models, config, ids, layer_order)


# ---------------------------------------------------------------- scree report


@dataclass
class ScreeReport:
    """Feature-mode variance ratios per layer, their per-component
    mean/std across layers over the components that every layer stores,
    and ``aggregate_tail``, the mean share of everything past those (the
    stored components beyond them and each layer's tail)."""

    per_layer: dict
    aggregate_ratios: np.ndarray
    aggregate_std: np.ndarray
    aggregate_tail: float
    mode: int


def scree_report(u: UniversalSubspace) -> ScreeReport:
    mode = u.config.order  # the feature mode is the last one
    per_layer = {name: model.variance_ledger[mode] for name, model in u.layer_models.items()}
    width = min(len(spec.ratios) for spec in per_layer.values())
    table = np.array([spec.ratios[:width] for spec in per_layer.values()])
    rest = [float(np.sum(spec.ratios[width:])) + spec.tail_ratio for spec in per_layer.values()]
    return ScreeReport(
        per_layer=per_layer,
        aggregate_ratios=table.mean(axis=0),
        aggregate_std=table.std(axis=0),
        aggregate_tail=float(np.mean(rest)),
        mode=mode,
    )


# ------------------------------------------------------- project / reconstruct


@dataclass
class CoefficientSet:
    """A model expressed as per-layer subspace coefficients, with excluded
    layers carried through verbatim (by reference, not copied)."""

    model_id: str
    coefficients: dict
    passthrough: dict
    dtypes: dict = field(default_factory=dict)


def _check_known_layers(u: UniversalSubspace, model) -> None:
    """Raise InvalidArgumentError if ``model`` has a layer outside the
    subspace's ``layer_order``: projection or merging would drop it."""
    strays = [name for name in model.layers if name not in u.layer_order]
    if strays:
        raise InvalidArgumentError(
            f"model {model.model_id!r} has layers the subspace does not name: "
            f"{', '.join(repr(n) for n in strays)} (its layers are {u.layer_order})"
        )


def project_model(u: UniversalSubspace, weights: ModelWeights) -> CoefficientSet:
    """Express each included layer in its layer subspace.

    Excluded layers that exist in the model ride along unchanged, as the
    model's own arrays, so the model can be rebuilt in full.  A layer
    outside the subspace's ``layer_order`` raises InvalidArgumentError.
    """
    _check_known_layers(u, weights)
    coefficients = {}
    for name in u.included_layers:
        if name not in weights.layers:
            raise InvalidArgumentError(
                f"model {weights.model_id!r} is missing included layer {name!r}"
            )
        coefficients[name] = project_slice(u.layer_models[name], weights.layers[name])
    passthrough = {
        name: weights.layers[name] for name in u.excluded_layers if name in weights.layers
    }
    dtypes = {
        name: weights.dtypes.get(name, "f64")
        for name in list(coefficients) + list(passthrough)
    }
    return CoefficientSet(weights.model_id, coefficients, passthrough, dtypes)


def reconstruct_model(u: UniversalSubspace, coeffs: CoefficientSet) -> ModelWeights:
    """Rebuild full weight matrices from subspace coefficients; passthrough
    layers are the coefficient set's own arrays.  Every included layer
    must have coefficients, and only included layers may; a passthrough
    layer must be one of the subspace's excluded layers."""
    for name in u.included_layers:
        if name not in coeffs.coefficients:
            raise InvalidArgumentError(
                f"coefficients of model {coeffs.model_id!r} are missing included layer {name!r}"
            )
    strays = [n for n in coeffs.coefficients if n not in u.layer_models] + [
        n for n in coeffs.passthrough if n not in u.excluded_layers
    ]
    if strays:
        raise InvalidArgumentError(
            f"coefficients of model {coeffs.model_id!r} hold layers the subspace does not "
            f"take there: {', '.join(repr(n) for n in strays)} (coefficients are for the "
            f"included layers {u.included_layers}, passthrough for the excluded "
            f"{u.excluded_layers})"
        )
    layers = {}
    for name in u.layer_order:
        if name in coeffs.coefficients:
            layers[name] = reconstruct_slice(u.layer_models[name], coeffs.coefficients[name])
        elif name in coeffs.passthrough:
            layers[name] = coeffs.passthrough[name]
    dtypes = {name: coeffs.dtypes.get(name, "f64") for name in layers}
    return ModelWeights(model_id=coeffs.model_id, layers=layers, dtypes=dtypes)


# --------------------------------------------------------------------- merging


def merge_weights(weights, t: int) -> np.ndarray:
    """The convex weights of a merge of ``t`` models: uniform when
    ``weights`` is None, else ``t`` finite, nonnegative values that sum to
    1 (within 1e-8).  Raises InvalidArgumentError otherwise."""
    if weights is None:
        return np.full(t, 1.0 / t)
    weights = as_real(weights)
    if weights.shape != (t,):
        raise InvalidArgumentError(f"got {weights.size} weights for {t} models")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise InvalidArgumentError("merge weights must be finite and non-negative")
    if abs(weights.sum() - 1.0) > 1e-8:
        raise InvalidArgumentError(f"merge weights must sum to 1, got {weights.sum()!r}")
    return weights


def merge_models(u, models, weights=None, model_id: str | None = None) -> ModelWeights:
    """Average models inside the subspace.

    ``models`` is a sequence of :class:`ModelWeights` or of paths to
    weights files; the weights are checked (:func:`merge_weights`) before
    any is read.  Every layer is averaged with the given convex weights
    (uniform by default) as a running weighted sum over the models, read
    one at a time, and the mean model is projected and reconstructed
    once.  Because projection is affine, this equals combining the
    models' coefficients with the same weights.  Excluded layers present
    in every input are averaged elementwise and carried through.  Each
    averaged layer must have one shape across the models, and a layer
    outside the subspace's ``layer_order`` raises InvalidArgumentError.
    """
    models = list(models)
    if len(models) < 2:
        raise InvalidArgumentError(f"merging needs at least two models, got {len(models)}")
    weights = merge_weights(weights, len(models))
    ids, sums = [], {}
    for i, (w, item) in enumerate(zip(weights, models)):
        model = _read(item)
        _check_known_layers(u, model)
        ids.append(model.model_id)
        if i == 0:  # every layer of the model is in the subspace's layer order
            sums = {name: np.zeros(shape) for name, shape in model.shapes.items()}
        for name in u.included_layers:
            _check_layer(name, [model], ids[0], sums[name].shape if name in sums else None)
        for name in list(sums):
            if name not in model.layers:  # an excluded layer this model lacks
                del sums[name]
                continue
            _check_layer(name, [model], ids[0], sums[name].shape)
            sums[name] += np.multiply(model.layers[name], w, dtype=np.float64)
        del model  # free its payload before the next model is read
    if model_id is None:
        model_id = "merged(" + ",".join(ids) + ")"
    mean = ModelWeights(model_id=model_id, layers=sums)
    return reconstruct_model(u, project_model(u, mean))


# -------------------------------------------------------------- memory savings


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
    t = int_at_least(t, "t", 1)
    per_model_params = int_at_least(per_model_params, "per_model_params", 1)
    basis_params = int_at_least(basis_params, "basis_params", 0)
    coeff_params_per_model = int_at_least(coeff_params_per_model, "coeff_params_per_model", 0)
    mean_params = int_at_least(mean_params, "mean_params", 0)
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
    basis_rank = int_at_least(basis_rank, "basis_rank", 1)
    layer_count = int_at_least(layer_count, "layer_count", 1)
    return basis_rank * layer_count


# ------------------------------------------------------------------ adaptation


def _finite_number(value) -> bool:
    """A finite int or float; bools are not numbers here."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


#: Below this share of ``||R||^2`` the coefficient-space loss identity
#: loses more to cancellation than 1e-9 relative, so the loss is taken
#: explicitly.
EXPLICIT_LOSS_RATIO = 1e-6


def _descend(z, resid_target, normal, rhs, lr, epochs):
    """Gradient descent on ``||Z C - R||^2`` from C = 0, in coefficient
    space: with N = Z^T Z, b = Z^T R and G = N C, the loss is
    ``||R||^2 + <C, G - 2b>`` and the step is ``C - 2 lr (G - b)``, so an
    epoch costs one k x k by k x r product, whatever the sample count.
    An epoch whose identity value falls below ``EXPLICIT_LOSS_RATIO *
    ||R||^2`` takes ``||Z C - R||^2`` instead.  Returns C, the loss of
    every iterate (``epochs + 1`` values) and how many were explicit."""
    r2 = float(np.vdot(resid_target, resid_target))
    floor = EXPLICIT_LOSS_RATIO * r2
    two_rhs, step = 2.0 * rhs, lr * 2.0
    ct = np.zeros(rhs.shape)
    losses, explicit = [], 0
    for epoch in range(epochs + 1):
        g = normal @ ct
        loss = r2 + float(np.vdot(ct, g - two_rhs))
        if loss < floor:
            loss = float(np.linalg.norm(z @ ct - resid_target) ** 2)
            explicit += 1
        losses.append(loss)
        if epoch < epochs:
            g -= rhs
            g *= step
            ct -= g
    return ct, losses, explicit


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
    Its epochs work in coefficient space (:func:`_descend`): after one
    pass over the data they never touch the samples again, except to
    take a loss below ``EXPLICIT_LOSS_RATIO`` of the initial one
    explicitly (counted in ``explicit_loss_epochs``).

    Returns ``(SliceCoefficients, report)`` where the report carries the
    fitted layer matrix, residual norms, the normal-matrix spectrum bound
    and condition number (lmax / lmin of the same ``eigvalsh``, inf when
    lmin is not positive), and the trainable-parameter accounting.
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
    x, y = as_real(x), as_real(y)
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
    z = x @ basis
    # every row of the mean slab is mu: x @ slab.T has x @ mu, one GEMV,
    # in every column
    resid_target = y - (x @ np.broadcast_to(model.mu, (d,)))[:, None]
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
        "normal_matrix_cond": float(lmax / spectrum[0]) if spectrum[0] > 0 else float("inf"),
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
        epochs = int_at_least(epochs, "epochs", 1)
        ct, losses, explicit = _descend(z, resid_target, normal, rhs, lr, epochs)
        report["lr"] = float(lr)
        report["epochs"] = epochs
        report["loss_curve"] = losses
        report["explicit_loss_epochs"] = explicit
    coeffs = SliceCoefficients(coeffs=ct.T.copy())
    report["reconstructed"] = reconstruct_slice(model, coeffs)
    report["residual_norm"] = float(np.linalg.norm(z @ ct - resid_target))
    return coeffs, report


# --------------------------------------------------------------- subspace files


def save_subspace(u: UniversalSubspace, path) -> None:
    """Write a subspace container (format version 5).

    Entry layout, per included layer L and each non-stacking mode
    n = 2..order: ``mu/L`` (the mean as a matrix: one row for order 2,
    one member for order 3, 1 x 1 for global centring), ``U/L/n``
    (factors), ``ledger/L/sv/n`` (the stored spectrum as a single-row
    matrix: all of it from the exact route, the components as deep as
    the rank reads from the Gram route) and ``ledger/L/tail/n`` (1 x 1,
    the energy of the components not stored; 0 from the exact route).
    The meta holds only what the entries cannot say: ``provenance`` (the
    source model ids), ``centering``, ``policy``, ``layer_order`` and per
    layer ``stack_shape`` and ``slab_extent``.  The container's model id
    is the architecture id.
    """
    triples = []
    for name in u.included_layers:
        model = u.layer_models[name]
        triples.append((f"mu/{name}", np.atleast_2d(model.mu), "f64"))
        modes = range(2, model.order + 1)
        for n in modes:
            triples.append((f"U/{name}/{n}", model.factors[n - 1], "f64"))
        for n in modes:
            spec = model.variance_ledger[n]
            triples.append((f"ledger/{name}/sv/{n}", spec.singular_values.reshape(1, -1), "f64"))
            triples.append((f"ledger/{name}/tail/{n}", np.full((1, 1), spec.tail), "f64"))
    meta = {
        "kind": "subspace",
        "format_version": SUBSPACE_FORMAT_VERSION,
        "provenance": list(u.provenance),
        "centering": u.config.centering,
        "policy": asdict(u.config.policy),
        "layer_order": list(u.layer_order),
        "layers": {
            name: {"stack_shape": list(model.shape), "slab_extent": model.slab_extent}
            for name, model in u.layer_models.items()
        },
    }
    write_container(path, u.architecture_id, triples, meta=meta)


def _require(condition, message):
    if not condition:
        raise ManifestError(message, 12)


def _take(entries, name):
    _require(name in entries, f"container is missing required entry {name!r}")
    return entries.pop(name)


def _only(names, known, where):
    """Raise ManifestError naming every one of ``names`` outside ``known``."""
    extra = sorted(set(names) - set(known))
    _require(not extra, f"{where} holds {', '.join(map(repr, extra))}, which uws does not write")


def _names(meta, key) -> list:
    value = meta[key]
    _require(isinstance(value, list) and all(isinstance(v, str) for v in value),
             f"meta {key!r} must be a list of names, got {value!r}")
    return value


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


def _spectrum(entries, name, n, retained, count) -> ModeSpectrum:
    """Mode ``n``'s ledger from its stored singular values, which must
    form a spectrum of at least ``retained`` values (the factor's width)
    and at most ``count`` (the unfolding's), and its 1 x 1 tail energy (0
    after a whole spectrum); the ratios are derived as extraction does."""
    key, tail_key = f"ledger/{name}/sv/{n}", f"ledger/{name}/tail/{n}"
    sv = _take(entries, key).ravel()
    _require(sv.size <= count,
             f"entry {key!r} holds {sv.size} singular values, more than its unfolding's {count}")
    tail = _take(entries, tail_key)
    _require(tail.shape == (1, 1), f"entry {tail_key!r} must be 1 x 1, got {tail.shape}")
    _require(sv.size < count or tail[0, 0] == 0,
             f"entry {tail_key!r} must be 0 after the whole spectrum in {key!r}")
    try:
        ratios = explained_variance(sv, float(tail[0, 0]))
    except (InvalidArgumentError, DegenerateSpectrumError) as exc:
        raise ManifestError(f"entries {key!r} and {tail_key!r} are not a spectrum: {exc}",
                            12) from exc
    # the count - sv.size components not stored are each at most the last
    # stored one, up to the rounding of the sums that gave the tail
    _require(1.0 - float(np.sum(ratios)) <= (count - sv.size) * ratios[-1]
             + 4 * count * np.finfo(np.float64).eps,
             f"entry {tail_key!r} holds more energy than the {count - sv.size} components "
             f"after {key!r} can")
    _require(sv.size >= retained,
             f"entry {key!r} holds {sv.size} singular values, fewer than the {retained} retained")
    return ModeSpectrum(singular_values=sv, ratios=ratios, retained=retained,
                        tail=float(tail[0, 0]))


def load_subspace(path) -> UniversalSubspace:
    """Read a subspace container of format version 5, the only one.

    The included layers are the ``layer_order`` names with a ``mu/L``
    entry, and ``layers`` must describe exactly those; the rest are
    excluded.  The order is ``len(stack_shape)``, each mode's retained
    rank is its factor's width, the mean's kind is ``centering`` and the
    architecture id is the container's model id.  ``provenance`` must
    name the T models of every stack (``stack_shape[0] == T *
    slab_extent`` for order 2, ``stack_shape[:2] == [T, slab_extent]``
    for order 3), ``layer_order`` distinct layers, each factor must have
    its mode's extent as rows and orthonormal columns (within
    ``ORTHONORMALITY_TOLERANCE``), and each stored spectrum must be one
    (nonnegative, nonincreasing, not all zero, at least as long as its
    factor is wide and at most as long as its unfolding allows, with a
    finite nonnegative 1 x 1 tail that is 0 past a zero value and after
    the whole spectrum); otherwise, and for a meta field that is missing
    or malformed, or any entry or meta key that :func:`save_subspace`
    does not write, ManifestError.  The layer models have no stacking-mode
    factor or core; an order-2 stack's two modes share one spectrum and
    rank, so its stacking-mode ledger is the feature mode's.
    """
    doc = read_container(path)
    meta = doc.meta or {}
    _require(meta.get("kind") == "subspace", "not a subspace container (meta kind != 'subspace')")
    version = meta.get("format_version")
    _require(type(version) is int and version == SUBSPACE_FORMAT_VERSION,
             f"subspace format_version {version!r} is not 5: extract the subspace again")
    _only(meta, ("kind", "format_version", "provenance", "centering", "policy", "layer_order",
                 "layers"), "subspace meta")
    with _decoding_meta("subspace"):
        provenance, layer_order = _names(meta, "provenance"), _names(meta, "layer_order")
        _require(len(set(layer_order)) == len(layer_order), "layer_order names a layer twice")
        entries = {rec.name: np.asarray(rec.array, np.float64) for rec in doc.layers}
        included = [name for name in layer_order if f"mu/{name}" in entries]
        layers = meta["layers"]
        _require(included and isinstance(layers, dict) and set(layers) == set(included),
                 f"meta layers must describe exactly the layers with a mean entry, {included}")
        config = ExtractionConfig(
            policy=RankPolicy(**meta["policy"]),
            order=len(layers[included[0]]["stack_shape"]),
            centering=meta["centering"],
            exclude_layers=tuple(name for name in layer_order if name not in included),
            architecture_id=doc.model_id,
        )
        modes, t = range(2, config.order + 1), len(provenance)
        layer_models = {}
        for name in included:
            shape, extent = tuple(layers[name]["stack_shape"]), layers[name]["slab_extent"]
            members = (t * extent,) if config.order == 2 else (t, extent)
            _require(
                all(type(n) is int and n >= 1 for n in shape + (extent,))
                and len(shape) == config.order
                and shape[: len(members)] == members,
                f"layer {name!r}: stack_shape {list(shape)} is not an order-{config.order} "
                f"stack of the {t} models' {extent}-row slabs",
            )
            _only(layers[name], ("stack_shape", "slab_extent"), f"layer {name!r} meta")
            factors = [None] + [_take(entries, f"U/{name}/{n}") for n in modes]
            _require(all(factors[n - 1].shape[0] == shape[n - 1] for n in modes),
                     f"layer {name!r}: a factor's rows differ from its mode's extent {list(shape)}")
            for n in modes:
                defect = orthonormality_defect(factors[n - 1])
                _require(defect <= ORTHONORMALITY_TOLERANCE,
                         f"entry 'U/{name}/{n}' is not orthonormal: max |V^T V - I| = "
                         f"{defect:.1e} > {ORTHONORMALITY_TOLERANCE:.0e}")
            mu = _take(entries, f"mu/{name}")
            mu = (np.float64(mu.reshape(())) if config.centering == "global"
                  else mu.reshape(shape[1:]))
            ledger = {
                n: _spectrum(entries, name, n, factors[n - 1].shape[1],
                             min(shape[n - 1], int(np.prod(shape)) // shape[n - 1]))
                for n in modes
            }
            if config.order == 2:
                ledger = {1: ledger[2], 2: ledger[2]}
            layer_models[name] = SubspaceModel(
                mu=mu, factors=factors, core=None, variance_ledger=ledger,
                centering=config.centering, shape=shape, slab_extent=extent)
        _only(entries, (), "subspace container")  # _take removed every entry it read
        return UniversalSubspace(layer_models, config, provenance, layer_order)


def save_coefficients(c: CoefficientSet, path) -> None:
    """Write a coefficient container: one ``coef/L`` entry per projected
    layer (r x k for order-2 stacking, k_2 x k_3 for order 3) and one
    ``raw/L`` entry per passthrough layer at its declared precision.  The
    meta holds only each projected layer's declared precision
    (``dtypes``); the container's model id is the model's."""
    triples = [(f"coef/{name}", sc.coeffs, "f64") for name, sc in c.coefficients.items()]
    triples += [
        (f"raw/{name}", arr, c.dtypes.get(name, "f64")) for name, arr in c.passthrough.items()
    ]
    dtypes = {name: c.dtypes.get(name, "f64") for name in c.coefficients}
    write_container(path, c.model_id, triples, meta={"kind": "coefficients", "dtypes": dtypes})


def load_coefficients(path) -> CoefficientSet:
    """Read a coefficient container built from its entries: ``coef/L``
    holds layer L's coefficients, at the precision ``dtypes`` declares
    (f64 where it declares none), and ``raw/L`` its passthrough matrix, at
    the entry's; the model id is the container's.  A malformed meta
    field, and any entry or meta key that :func:`save_coefficients` does
    not write, raises ManifestError."""
    doc = read_container(path)
    meta = doc.meta or {}
    _require(meta.get("kind") == "coefficients",
             "not a coefficient container (meta kind != 'coefficients')")
    _only(meta, ("kind", "dtypes"), "coefficient meta")
    _only([r.name for r in doc.layers if not r.name.startswith(("coef/", "raw/"))], (),
          "coefficient container")
    with _decoding_meta("coefficient"):
        declared = meta.get("dtypes", {})
        coefficients, passthrough, dtypes = {}, {}, {}
        for rec in doc.layers:
            prefix, _, name = rec.name.partition("/")
            if prefix == "coef":
                coefficients[name] = SliceCoefficients(coeffs=np.asarray(rec.array, np.float64))
                dtypes[name] = declared.get(name, "f64")
                _require(dtypes[name] in ("f32", "f64"),
                         f"dtypes declares {dtypes[name]!r} for layer {name!r}, not f32 or f64")
            else:
                passthrough[name] = np.asarray(rec.array, np.float64)
                dtypes[name] = rec.dtype
        _only(declared, coefficients, "coefficient meta dtypes")
        return CoefficientSet(doc.model_id, coefficients, passthrough, dtypes)
